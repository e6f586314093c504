"""The benchmark harness's own check, ``perfbench/run.py --self-test``, run
in a subprocess.  It solves a tiny config plain and traced, and fails unless
both pass the gate and the traced run reports every per-layer metric of
``BENCHMARK.json``.  The tracer wraps library names (the three chunk
builders, ``SlabSystem.matrix`` and ``rhs`` through its observers,
``SlabSolution.eval``), so reshaping one of them fails here."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_harness_self_test_passes():
    out = subprocess.run(
        [sys.executable, str(RUN), "--self-test"], capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().endswith("self-test passed"), out.stdout
