#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise it.

    python3 bench/baseline.py --out bench/baseline.json
    python3 bench/baseline.py --record-digests

The first form runs ``bench/run.py`` once per seed in ``SEEDS`` and
workload with tracing off, plus ``TRACE_RUNS`` traced runs on the first
seeds, each in its own process, and prints and writes per metric the
median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread
``(q3 - q1) / median`` and the number of runs. ``SEEDS`` starts with
the default seed, so the runs are also checked against ``digests.json``.
A later change cites the
file it writes as its "before" and "after". Run it from the repository
root on an otherwise idle machine.

The second form runs one untraced CLI operation per workload at the
default seed and writes the sha256 digests of its artifacts to
``bench/digests.json``, the reference the correctness gate compares
against whenever the benchmark runs at the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent
SEEDS = (run.DEFAULT_SEED, *range(1, 10))
TRACE_RUNS = 2


def _one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def _src_tree() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD:src"], cwd=run.ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def record_digests() -> None:
    digests = {}
    for name, workload in run.WORKLOADS.items():
        with run.scratch_dir("digests") as work:
            config = work / "config.json"
            config.write_text(json.dumps(workload.config_for(run.DEFAULT_SEED)),
                              encoding="utf-8")
            op = run.run_op(workload, config, work / "op", traced=False)
        if op.problems:
            raise SystemExit(f"{name}: {op.problems}")
        digests[name] = op.digests
        print(f"{name}: {op.digests}")
    path = BENCH_DIR / "digests.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.record_digests:
        record_digests()
        return 0

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "src_tree": _src_tree(),
        "seconds_per_run": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in sorted(run.WORKLOADS):
        plain = [_one(workload, seed, seconds, 0) for seed in SEEDS]
        traced = [_one(workload, seed, seconds, 1) for seed in SEEDS[:TRACE_RUNS]]
        entry = {
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "end_to_end": summarise(plain),
            "per_layer": summarise(traced),
        }
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:<15} {name:<12} median {s['median']:.6g} {s['unit']:<4} "
                  f"spread {100 * s['spread']:.2f}% (bound {100 * bounds[name]:.0f}%){flag}",
                  flush=True)
        print(f"{workload:<15} attempted {entry['attempted']} failed {entry['failed']}",
              flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
