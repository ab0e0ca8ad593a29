#!/usr/bin/env python3
"""cachesim benchmark: host time of the public CLI on three fixed workloads.

    python3 bench/run.py --workload main-study --seed 1 --seconds 40 --trace 0

Run it from the repository root; it imports the simulator from ``src/``.
One operation is one complete ``cachesim`` CLI run in a fresh interpreter,
serial (``"jobs": 1`` in the generated config). Operations repeat until
the next one would overrun ``--seconds``; every metric is the median over
the operations of the run. Each operation must pass the correctness gate
(exit code 0, ``cachesim verify`` for simulate runs, artifacts identical
to the run's first operation, and to the digests in ``digests.json`` at
the default seed), otherwise it counts as failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced operations with traced ones (see ``tracer.py``) and reports the
per-layer split. Every time is host time; cost and TTFT are simulated
outputs of an unvalidated model and only enter through the artifact
digests. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
DEFAULT_SEED = 42
OP_TIMEOUT_S = 120.0

POLICIES = ["gpt-4o", "gpt-5.2", "claude-sonnet-4.5", "gemini-2.5-pro"]
MODES = ["no-cache", "full-context", "system-prompt", "exclude-tool-results"]
LAYERS = ("workload", "strategies", "tokens", "engine", "policies", "replay",
          "stats", "runner")


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a config (without seed) run by ``simulate``, or by
    ``ablate`` over a prompt-size grid when ``grid`` is given."""

    name: str
    config: dict
    grid: tuple[int, ...] = ()

    def cli_args(self, config_path: Path, out_dir: Path) -> list[str]:
        if self.grid:
            return ["ablate", str(config_path), "--out", str(out_dir),
                    "--dimension", "prompt-size", "--values", *map(str, self.grid)]
        return ["simulate", str(config_path), "--out", str(out_dir)]

    @property
    def artifacts(self) -> tuple[str, ...]:
        return ("ablation.csv",) if self.grid else ("per_call.csv", "per_session.csv")

    @property
    def api_calls(self) -> int:
        """Simulated API calls per CLI run, warmup sessions included."""
        cfg = self.config
        sessions = cfg["workload"]["sessions"] + cfg["warmup_sessions"]
        calls = cfg["workload"]["tool_calls"] + 1
        return (sessions * calls * len(cfg["policies"]) * len(cfg["modes"])
                * (len(self.grid) or 1))

    def config_for(self, seed: int) -> dict:
        return {**self.config, "master_seed": seed}


def _config(workload: dict, latency: dict) -> dict:
    return {"policies": POLICIES, "modes": MODES, "workload": workload,
            "latency": latency, "warmup_sessions": 1, "alpha": 0.05,
            "output_dir": "out", "jobs": 1}


_MAIN_LATENCY = {
    "default": {"base_ms": 150.0, "per_uncached_token_ms": 0.05,
                "per_cached_token_ms": 0.005, "per_write_token_ms": 0.02,
                "noise_sigma": 0.15},
    "claude-sonnet-4.5": {"base_ms": 200.0, "per_uncached_token_ms": 0.06,
                          "per_cached_token_ms": 0.004,
                          "per_write_token_ms": 0.03, "noise_sigma": 0.12},
}
_ABLATION_LATENCY = {
    "default": {"base_ms": 80.0, "per_uncached_token_ms": 0.05,
                "per_cached_token_ms": 0.005, "per_write_token_ms": 0.02,
                "noise_sigma": 0.1},
}

# The shapes are copied here rather than read from configs/ so that the
# yardstick stays fixed when the shipped configs change.
WORKLOADS = {w.name: w for w in (
    # configs/main_study.json with fewer sessions: 17 sessions of 55 s of
    # virtual time span three 300 s TTL windows, so most stored prefixes
    # die and the never-purged store is scanned by every lookup.
    Workload("main-study", _config({
        "system_prompt_tokens": 10_000, "question_tokens": 150, "tool_calls": 10,
        "tool_call_tokens": 200, "tool_result_tokens": 1_500,
        "reasoning_tokens_per_turn": 150, "final_answer_tokens": 1_000,
        "inter_call_gap_seconds": 5.0, "sessions": 16}, _MAIN_LATENCY)),
    # configs/ablation.json over the default prompt-size grid: few, long
    # entries (up to ~60k tokens) that never expire.
    Workload("prompt-sweep", _config({
        "system_prompt_tokens": 10_000, "question_tokens": 150, "tool_calls": 10,
        "tool_call_tokens": 40, "tool_result_tokens": 150,
        "reasoning_tokens_per_turn": 60, "final_answer_tokens": 300,
        "inter_call_gap_seconds": 0.5, "sessions": 5}, _ABLATION_LATENCY),
        (500, 2_000, 5_000, 10_000, 20_000, 50_000)),
    # No prompt reaches any policy's 1024-token minimum (at most ~770
    # tokens), so the store stays empty and per-call overhead dominates.
    Workload("short-sessions", _config({
        "system_prompt_tokens": 400, "question_tokens": 50, "tool_calls": 3,
        "tool_call_tokens": 20, "tool_result_tokens": 60,
        "reasoning_tokens_per_turn": 20, "final_answer_tokens": 60,
        "inter_call_gap_seconds": 5.0, "sessions": 400}, _MAIN_LATENCY)),
)}


# --- running the CLI ---------------------------------------------------------

@dataclass
class Op:
    """One CLI run and what the gate found."""

    wall_s: float
    rss_mb: float
    traced: bool
    digests: dict[str, str] = field(default_factory=dict)
    artifact_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_process(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_op(workload: Workload, config_path: Path, out_dir: Path,
           traced: bool) -> Op:
    """One timed CLI run, then the untimed per-operation checks."""
    cli = workload.cli_args(config_path, out_dir)
    spans_path = out_dir.with_suffix(".spans.pickle")
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path), *cli]
    else:
        argv = [sys.executable, "-m", "cachesim.cli", *cli]
    code, wall, rss = run_process(argv, out_dir.with_suffix(".log"))
    op = Op(wall_s=wall, rss_mb=rss, traced=traced)
    if code != 0:
        op.problems.append(f"exit code {code}: "
                           + out_dir.with_suffix(".log").read_text(errors="replace")[-500:])
        return op
    for name in workload.artifacts:
        path = out_dir / name
        if not path.is_file():
            op.problems.append(f"missing artifact {name}")
            continue
        op.digests[name] = _sha256(path)
    op.artifact_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    if not workload.grid:
        code, _, _ = run_process([sys.executable, "-m", "cachesim.cli", "verify",
                                  str(out_dir)], out_dir.with_suffix(".verify.log"))
        if code != 0:
            op.problems.append("cachesim verify reported a mismatch")
    if traced:
        with open(spans_path, "rb") as fh:
            trace = pickle.load(fh)
        op.layers = analyse_spans(trace["spans"], **trace["span_cost"])
        spans_path.unlink()
        op.layers["runner.artifact_bytes"] = op.artifact_bytes
    return op


_SETUP_PROBE = """\
import time
start = time.perf_counter()
import sys
from cachesim.config import load_config
load_config(sys.argv[1])
print(time.perf_counter() - start)
"""


def setup_probe(config_path: Path) -> float:
    """Seconds a fresh interpreter takes to import cachesim and load a config.

    Timed inside the child, so process creation and teardown, which
    cachesim does not control, stay out of the figure.
    """
    proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(config_path)],
                          cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return float(proc.stdout)


# --- the correctness gate ----------------------------------------------------

def recorded_digests(workload: Workload) -> dict[str, str]:
    path = BENCH_DIR / "digests.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(workload.name, {})


def gate(op: Op, reference: dict[str, str], expected: dict[str, str]) -> None:
    """Adds to ``op.problems`` every artifact that differs from the run's
    first operation or, when given, from the recorded digests."""
    for name, digest in op.digests.items():
        if name in reference and digest != reference[name]:
            op.problems.append(f"{name} differs from the first run of this invocation")
        if name in expected and digest != expected[name]:
            op.problems.append(f"{name} differs from the recorded digest")


# --- span analysis -----------------------------------------------------------

def _percentile(sorted_values: list[float], pct: float) -> float:
    k = max(0, min(len(sorted_values) - 1, round(pct / 100.0 * len(sorted_values)) - 1))
    return sorted_values[k]


def analyse_spans(spans: list, outer_s: float, inner_s: float) -> dict[str, float]:
    """Per-layer busy and self time, per-call latencies and counts of one
    traced run, net of the tracer's cost: ``outer_s`` per span in its
    parent's self time and ``inner_s`` inside the span (see ``tracer.py``)."""
    n = len(spans)
    child_time = [0.0] * n
    children = [0] * n
    descendants = [0] * n
    for i in range(n - 1, -1, -1):  # children follow their parent
        layer, _, start, end, parent, _, _ = spans[i]
        if parent >= 0:
            child_time[parent] += end - start
            children[parent] += 1
            descendants[parent] += descendants[i] + 1
    per_span = outer_s + inner_s
    busy = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    engine_per_call: dict[tuple, float] = {}
    store_sizes: list[int] = []
    call_times: list[float] = []
    flat_tokens = 0
    hits = read = write = 0
    for i, (layer, _, start, end, parent, call_id, attr) in enumerate(spans):
        duration = end - start - inner_s - descendants[i] * per_span
        if layer in self_s:
            self_s[layer] += end - start - child_time[i] - inner_s - children[i] * outer_s
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != layer:
                ancestor = spans[ancestor][4]
            if ancestor < 0:
                busy[layer] += duration
        if layer == "engine":
            if call_id is not None:
                engine_per_call[call_id] = engine_per_call.get(call_id, 0.0) + duration
            if attr is not None:
                store_sizes.append(attr)
        elif layer == "tokens" and attr is not None:
            flat_tokens += attr
        elif layer == "replay" and isinstance(attr, tuple):
            call_times.append(duration)
            cached_read, cache_write, _ = attr
            hits += cached_read > 0
            read += cached_read
            write += cache_write
    if not call_times or not store_sizes:
        raise RuntimeError("trace holds no per-call or engine spans")
    engine_calls = sorted(engine_per_call.values())
    call_times.sort()
    metrics = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
    metrics.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    metrics.update({
        "engine.call_p50_us": _percentile(engine_calls, 50) * 1e6,
        "engine.call_p99_us": _percentile(engine_calls, 99) * 1e6,
        "engine.store_entries_mean": statistics.fmean(store_sizes),
        "engine.store_entries_max": max(store_sizes),
        "tokens.flat_tokens": flat_tokens,
        "replay.call_p50_us": _percentile(call_times, 50) * 1e6,
        "replay.call_p99_us": _percentile(call_times, 99) * 1e6,
        "replay.api_calls": len(call_times),
        "engine.hit_calls": hits,
        "engine.hit_ratio": hits / len(call_times),
        "engine.read_tokens": read,
        "engine.write_tokens": write,
        "trace.spans": n,
        "trace.span_cost_ns": per_span * 1e9,
    })
    return metrics


# Counts that must repeat exactly across operations and seeds of one workload
# shape; a difference is a correctness failure, not noise.
DETERMINISTIC = ("tokens.flat_tokens", "replay.api_calls", "engine.hit_calls",
                 "engine.hit_ratio", "engine.read_tokens", "engine.write_tokens",
                 "engine.store_entries_mean", "engine.store_entries_max",
                 "runner.artifact_bytes", "trace.spans")


# --- one benchmark run -------------------------------------------------------

def _load_metric_units() -> dict[str, str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, expected: dict[str, str] | None = None) -> dict:
    """Runs the operations of one benchmark run and returns its result object."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config_for(seed), indent=2), encoding="utf-8")
    if expected is None:
        expected = recorded_digests(workload) if seed == DEFAULT_SEED else {}

    setup_probe(config_path)  # compiles bytecode, which users pay once
    setups: list[float] = []
    ops: list[Op] = []
    reference: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        # One set-up probe per operation, so both sample the same stretch of
        # machine load.
        if not trace:
            setups.append(setup_probe(config_path))
        traced = trace and len(ops) % 2 == 1
        out_dir = work / f"op{len(ops):03d}"
        op = run_op(workload, config_path, out_dir, traced)
        gate(op, reference, expected)
        if not reference and not op.problems:
            reference = dict(op.digests)
        shutil.rmtree(out_dir, ignore_errors=True)
        ops.append(op)
        elapsed = time.perf_counter() - start
        per_op = elapsed / len(ops)
        enough = not trace or any(o.traced for o in ops)
        if enough and elapsed + per_op > seconds:
            break

    plain = [op for op in ops if not op.traced and not op.problems] or ops
    wall = statistics.median(op.wall_s for op in plain)
    if trace:
        metrics = _trace_metrics(workload, [op for op in ops if op.traced], wall)
    else:
        metrics = {
            "wall_s": wall,
            "calls_per_s": workload.api_calls / wall,
            "peak_rss_mb": statistics.median(op.rss_mb for op in plain),
            "setup_s": statistics.median(setups),
        }

    print(f"workload={workload.name} seed={seed} ops={len(ops)} "
          f"api_calls_per_op={workload.api_calls}")
    for name, digest in sorted(reference.items()):
        print(f"digest {name} sha256={digest}")
    for i, op in enumerate(ops):
        for problem in op.problems:
            print(f"op {i}{' (traced)' if op.traced else ''} FAILED: {problem}")
    failed = sum(1 for op in ops if op.problems)
    units = _load_metric_units()
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _trace_metrics(workload: Workload, traced_ops: list[Op],
                   plain_wall: float) -> dict[str, float]:
    """Medians over the traced operations; adds a problem to every operation
    whose deterministic counts disagree with the first or with the workload."""
    per_op = []
    for op in traced_ops:
        if op.layers is None:
            continue
        m = op.layers
        per_op.append(m)
        if m["replay.api_calls"] != workload.api_calls:
            op.problems.append(f"trace saw {m['replay.api_calls']} API calls, "
                               f"expected {workload.api_calls}")
        if any(m[k] != per_op[0][k] for k in DETERMINISTIC):
            op.problems.append("deterministic counts differ between traced runs")
    if not per_op:
        raise RuntimeError("no traced operation completed")
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    traced_wall = statistics.median(op.wall_s for op in traced_ops)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    print(f"self time by layer (median of {len(per_op)} traced runs, "
          f"traced wall {traced_wall:.3f} s):")
    for layer in sorted(LAYERS, key=lambda l: -metrics[f"{l}.self_s"]):
        s = metrics[f"{layer}.self_s"]
        print(f"  {layer:<11} {s:9.4f} s  {100 * s / traced_wall:5.1f}% of traced wall"
              f"  {100 * s / total:5.1f}% of traced layers")
    return metrics


@contextlib.contextmanager
def scratch_dir(name: str):
    """A directory under ``.bench_work`` in the checkout, removed on exit."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running child is
    # killed and waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "cachesim" / "cli.py").is_file():
        print(f"error: no cachesim sources under {ROOT / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2

    with scratch_dir("run") as work:
        try:
            result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), work)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
