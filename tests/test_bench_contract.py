"""The benchmark's hold on the simulator, checked without running it.

``bench/tracer.py`` wraps ``cachesim.replay.replay_call`` by name and reads
its ``session_seed`` and ``request_index`` arguments and its result's
``.usage`` (Python ints, which ``bench/run.py`` prints as JSON);
``bench/run.py`` writes the configs the benchmark runs. A
change to the simulator that breaks either fails here, in the tier-1
suite, rather than only in ``bench/test_bench.py``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cachesim.config import config_from_dict

REPO = Path(__file__).resolve().parents[1]
BENCH = REPO / "bench"


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("cachesim_bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


BENCH_RUN = _load_bench_run()


def test_tracer_sees_every_api_call(tmp_path):
    """The main-study shape with 2 sessions and 2 tool calls: (2 + 1
    warmup) sessions x 3 calls x 4 policies x 4 modes = 144 traced calls."""
    config = BENCH_RUN.WORKLOADS["main-study"].config_for(BENCH_RUN.DEFAULT_SEED)
    config["workload"] = dict(config["workload"], sessions=2, tool_calls=2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    spans = tmp_path / "spans.pickle"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans),
         "simulate", str(path), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    with open(spans, "rb") as fh:
        trace = pickle.load(fh)
    metrics = BENCH_RUN.analyse_spans(trace["spans"], **trace["span_cost"])
    assert metrics["replay.api_calls"] == 144
    # bench/run.py prints the metrics as JSON, which holds no numpy scalar.
    assert json.loads(json.dumps(metrics)) == metrics


@pytest.mark.parametrize("name", sorted(BENCH_RUN.WORKLOADS))
def test_run_caps_admit_every_benchmark_workload(name):
    """Every config the benchmark runs, each ablation grid value included,
    loads under the run caps."""
    workload = BENCH_RUN.WORKLOADS[name]
    data = workload.config_for(BENCH_RUN.DEFAULT_SEED)
    for prompt in workload.grid or (data["workload"]["system_prompt_tokens"],):
        config_from_dict({**data, "workload": {**data["workload"],
                                               "system_prompt_tokens": prompt}})
