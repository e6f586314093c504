"""``scripts/bench_compare.py`` offline: its summary of synthetic pairs, the
record of a run that printed no result, and the committed ``BENCH_*.json``
records.  No benchmark is run."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_compare.py"
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = [
    {"name": "march_s", "unit": "s", "better": "lower"},
    {"name": "dofs_per_s", "unit": "1/s", "better": "higher"},
]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(march_s, dofs_per_s, failed=0):
    metrics = {"march_s": {"value": march_s}, "dofs_per_s": {"value": dofs_per_s}}
    return {"correct": True, "attempted": 5, "failed": failed, "metrics": metrics}


def _no_result():
    """What ``run`` records for a child that printed no result."""
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}, "error": "crashed"}


def test_wins_follow_each_metrics_direction(bench):
    # the change is faster on march_s in 3 of 4 pairs and has more dofs/s
    # in 1 of 4: a lower march_s wins, a higher dofs_per_s wins
    pairs = [
        (_run(1.0, 10.0), _run(0.5, 9.0)),
        (_run(1.0, 10.0), _run(0.6, 11.0)),
        (_run(1.0, 10.0), _run(0.7, 8.0)),
        (_run(1.0, 10.0), _run(1.5, 7.0)),
    ]
    s = bench.summary(pairs, METRICS)
    assert s["march_s"]["wins"] == 3
    assert s["dofs_per_s"]["wins"] == 1
    assert s["march_s"]["better"] == "lower" and s["dofs_per_s"]["better"] == "higher"
    assert s["march_s"]["base_median"] == 1.0
    assert s["march_s"]["change_median"] == pytest.approx(0.65)
    assert s["march_s"]["relative_change"] == pytest.approx(-0.35)


def test_a_run_without_result_is_a_failed_child_and_leaves_the_medians(bench):
    pairs = [
        (_run(1.0, 10.0), _run(0.5, 20.0)),
        (_no_result(), _run(0.1, 90.0)),  # the base printed nothing
        (_run(3.0, 10.0), _run(1.5, 20.0)),
        (_run(2.0, 10.0, failed=2), _no_result()),
    ]
    s = bench.summary(pairs, METRICS)
    assert s["pairs"] == 4 and s["pairs_correct"] == 2
    assert (s["base_failed"], s["base_attempted"]) == (3, 16)
    assert (s["change_failed"], s["change_attempted"]) == (1, 16)
    # only the two pairs whose runs both passed enter the medians
    assert s["march_s"]["base_median"] == 2.0
    assert s["march_s"]["change_median"] == 1.0
    assert s["march_s"]["wins"] == 2


def test_too_few_good_pairs_give_no_metric(bench):
    s = bench.summary([(_run(1.0, 10.0), _run(0.5, 20.0)), (_no_result(), _no_result())], METRICS)
    assert "march_s" not in s and s["pairs_correct"] == 1


@pytest.mark.parametrize("change,beyond", [(0.8, True), (0.9, False), (1.2, False)])
def test_gain_is_measured_against_the_base_iqr(bench, change, beyond):
    # base march_s 0.9, 1.0, 1.1: median 1.0, IQR 0.1 (inclusive quartiles
    # 0.95 and 1.05); a change median of 0.8 gains 0.2 > 0.1, 0.9 gains
    # exactly the IQR (not beyond), 1.2 loses
    pairs = [(_run(b, 10.0), _run(change, 10.0)) for b in (0.9, 1.0, 1.1)]
    s = bench.summary(pairs, METRICS)
    assert s["march_s"]["base_iqr"] == pytest.approx(0.1)
    assert s["march_s"]["gain_beyond_base_iqr"] is beyond


def test_higher_is_better_gain_uses_the_same_iqr_rule(bench):
    pairs = [(_run(1.0, b), _run(1.0, 13.0)) for b in (9.0, 10.0, 11.0)]
    s = bench.summary(pairs, METRICS)
    assert s["dofs_per_s"]["base_iqr"] == pytest.approx(1.0)
    assert s["dofs_per_s"]["gain_beyond_base_iqr"] is True
    assert s["dofs_per_s"]["wins"] == 3


def test_run_records_a_child_that_printed_nothing_as_failed(bench, monkeypatch):
    def silent(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="Traceback: boom")

    monkeypatch.setattr(bench.subprocess, "run", silent)
    out = bench.run("/nowhere", "stationary", 0, 1.0)
    assert out["correct"] is False
    assert (out["attempted"], out["failed"]) == (1, 1)
    assert out["metrics"] == {} and "boom" in out["error"]


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_committed_record_has_no_failed_gate_or_child(path):
    # a speed claim counts only from a record whose runs all passed
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["workloads"], "a record without workloads"
    for w in record["workloads"]:
        s = w["summary"]
        where = (w["workload"], w["seed"])
        assert s["pairs"] > 0 and s["pairs_correct"] == s["pairs"], where
        assert s["base_failed"] == s["change_failed"] == 0, where
