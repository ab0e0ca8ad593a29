"""Self-test of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q bench/test_bench.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that a corrupted artifact or a summary that ``cachesim verify``
rejects counts as a failed operation, and that the benchmark refuses to
run without the simulator's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

REPO = run.BENCH_DIR.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_GRID = (500, 2_000)


def tiny(name: str) -> run.Workload:
    workload = run.WORKLOADS[name]
    config = dict(workload.config)
    config["workload"] = dict(config["workload"], sessions=2, tool_calls=2)
    grid = TINY_GRID if workload.grid else ()
    return dataclasses.replace(workload, config=config, grid=grid)


@pytest.fixture(autouse=True)
def _from_repo_root(monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)


def corrupt_op(monkeypatch, index: int, corrupt) -> None:
    """Makes ``corrupt(out_dir)`` run right after the ``index``-th CLI run."""
    real = run.run_process
    cli_runs = []

    def wrapped(argv, log):
        result = real(argv, log)
        if "--out" in argv:
            if len(cli_runs) == index:
                corrupt(Path(argv[argv.index("--out") + 1]))
            cli_runs.append(argv)
        return result

    monkeypatch.setattr(run, "run_process", wrapped)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(name, trace, tmp_path):
    result = run.measure(tiny(name), seed=3, seconds=0, trace=trace, work=tmp_path)
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    assert {m["name"]: m["unit"] for m in section} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert result["metrics"]["replay.api_calls"]["value"] == tiny(name).api_calls


def test_traced_artifact_that_differs_fails(monkeypatch, tmp_path):
    # A blank line changes the bytes but not what verify reads, so only the
    # comparison with the untraced first operation can catch it.
    def append_blank_line(out_dir):
        with open(out_dir / "per_call.csv", "a", encoding="utf-8") as fh:
            fh.write("\n")

    corrupt_op(monkeypatch, 1, append_blank_line)
    result = run.measure(tiny("main-study"), seed=3, seconds=0, trace=True, work=tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_verify_mismatch_fails(monkeypatch, tmp_path):
    def double_first_cost(out_dir):
        path = out_dir / "per_call.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[8] = repr(2 * float(cells[8]))
        lines[1] = ",".join(cells)
        path.write_text("".join(lines), encoding="utf-8")

    corrupt_op(monkeypatch, 0, double_first_cost)
    result = run.measure(tiny("short-sessions"), seed=3, seconds=0, trace=False,
                         work=tmp_path)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)


def test_recorded_digest_mismatch_fails(tmp_path):
    result = run.measure(tiny("prompt-sweep"), seed=3, seconds=0, trace=False,
                         work=tmp_path, expected={"ablation.csv": "0" * 64})
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "main-study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
