"""Compare the benchmark of a base revision with the working tree, in pairs.

Usage, from the root of a checkout:

    python3 scripts/bench_compare.py --base HEAD~1 --tag mychange --pairs 10 \
        --seed 0 --seed 1

The base revision is exported with ``git archive`` into a temporary
directory, so the repository gets no extra worktree.  For each workload of
``BENCHMARK.json`` the script alternates ``perfbench/run.py --trace 0`` runs
of the base and of the working tree (which side goes first alternates too),
each in its own checkout and process, for ``BENCHMARK.json``'s
``run_seconds`` unless ``--seconds`` overrides it.  A run that printed no
result counts as one failed child.  It writes ``BENCH_<tag>.json``: per
workload, both sides' failed and attempted children; per end-to-end metric,
the medians and interquartile ranges of both sides, the pairs the change won
(by the metric's ``better`` direction) and whether the change's median beats
the base's by more than the base's interquartile range; the machine and
library versions the runs reported; and every run's metrics and gate result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True)
    return proc.stdout


def export(rev: str, into: str) -> None:
    """The tree of ``rev`` as plain files under ``into``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its result object, plus the machine
    and versions lines it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
               "error": (proc.stderr or proc.stdout)[-2000:]}
    for line in lines:
        for key in ("machine", "versions"):
            if line.strip().startswith(key + " "):
                out[key] = json.loads(line.strip()[len(key) + 1 :])
    return out


def quartiles(values: list) -> tuple[float, float]:
    """The median and the interquartile range."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q3 - q1


def summary(pairs: list, metrics: list) -> dict:
    """Both sides' failed and attempted children; per end-to-end metric, both
    sides' median and IQR and the change's wins over the pairs whose runs
    both passed the gate."""
    good = [(b, c) for b, c in pairs if b["correct"] and c["correct"]]
    out = {"pairs": len(pairs), "pairs_correct": len(good)}
    for i, side in enumerate(("base", "change")):
        out[side + "_failed"] = sum(p[i]["failed"] for p in pairs)
        out[side + "_attempted"] = sum(p[i]["attempted"] for p in pairs)
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        got = [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in good
               if name in b["metrics"] and name in c["metrics"]]
        if len(got) < 2:
            continue
        base, change = zip(*got)
        (bm, biqr), (cm, ciqr) = quartiles(list(base)), quartiles(list(change))
        gain = bm - cm if lower else cm - bm
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "base_median": bm,
            "base_iqr": biqr,
            "change_median": cm,
            "change_iqr": ciqr,
            "relative_change": cm / bm - 1.0 if bm else None,
            "wins": sum((c < b) if lower else (c > b) for b, c in got),
            "gain_beyond_base_iqr": gain > biqr,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="the base revision")
    ap.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, help="per run; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--seed", type=int, action="append", help="default: 0; may repeat")
    ap.add_argument("--workload", action="append", help="default: all of BENCHMARK.json")
    ap.add_argument("--out", help="default: BENCH_<tag>.json at the root of the checkout")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    base_rev = git("rev-parse", args.base).strip()
    dirty = " + uncommitted" if git("status", "--porcelain", "src") else ""
    record = {
        "tag": args.tag,
        "base": base_rev,
        "change": git("rev-parse", "HEAD").strip() + dirty,
        "seconds_per_run": seconds,
        "workloads": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_base_") as base_dir:
        export(base_rev, base_dir)
        for seed in args.seed or [0]:
            for name in workloads:
                pairs = []
                for i in range(args.pairs):
                    sides = [("base", base_dir), ("change", ROOT)][:: 1 - 2 * (i % 2)]
                    res = {side: run(where, name, seed, seconds) for side, where in sides}
                    pairs.append((res["base"], res["change"]))
                    record.setdefault("machine", res["change"].get("machine"))
                    record.setdefault("versions", res["change"].get("versions"))
                    b, c = (r["metrics"].get("march_s", {}).get("value") for r in pairs[-1])
                    print(f"{name} seed {seed} pair {i + 1}: march_s {b} -> {c}", flush=True)
                keep = ("correct", "attempted", "failed", "metrics", "error")
                sides = ("base", "change")
                record["workloads"].append({
                    "workload": name,
                    "seed": seed,
                    "summary": summary(pairs, spec["end_to_end"]),
                    "runs": [
                        {side: {k: r[k] for k in keep if k in r} for side, r in zip(sides, pair)}
                        for pair in pairs
                    ],
                })
    out = args.out or os.path.join(ROOT, f"BENCH_{args.tag}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for w in record["workloads"]:
        s = w["summary"]
        for m in (m["name"] for m in spec["end_to_end"]):
            if m in s:
                v = s[m]
                print(f"{w['workload']:11s} seed {w['seed']} {m:12s} {v['base_median']:.4g} -> "
                      f"{v['change_median']:.4g} ({v['relative_change']:+.1%}), wins "
                      f"{v['wins']}/{s['pairs_correct']}, base IQR {v['base_iqr']:.3g}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
