"""CLI surface: subcommands, exit codes, artifact determinism, verification."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cachesim
from cachesim import load_config, verify_run
from cachesim.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from cachesim.config import DEFAULT_GRIDS, AblationGrid, config_from_dict, to_json
from cachesim.errors import ConfigError
from cachesim.policies import builtin_policy


def tiny_config(tmp_path, **overrides) -> str:
    data = {
        "master_seed": 7,
        "policies": ["gpt-4o", "claude-sonnet-4.5"],
        "modes": ["no-cache", "system-prompt"],
        "workload": {
            "system_prompt_tokens": 1500, "question_tokens": 30, "tool_calls": 2,
            "tool_call_tokens": 10, "tool_result_tokens": 40,
            "reasoning_tokens_per_turn": 15, "final_answer_tokens": 20,
            "inter_call_gap_seconds": 1.0, "sessions": 3,
        },
        "latency": {"default": {
            "base_ms": 50.0, "per_uncached_token_ms": 0.05,
            "per_cached_token_ms": 0.005, "per_write_token_ms": 0.01,
            "noise_sigma": 0.1,
        }},
        "warmup_sessions": 1,
        "alpha": 0.05,
        "output_dir": str(tmp_path / "out"),
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_policies_table(capsys):
    assert main(["policies"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines()
            if line.split() and line.split()[0] in
            ("gpt-4o", "gpt-5.2", "claude-sonnet-4.5", "gemini-2.5-pro")]
    assert len(rows) == 4
    assert "4096" in out
    assert "3.75" in out


def test_policies_json(capsys):
    assert main(["policies", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [p["name"] for p in payload] == ["gpt-4o", "gpt-5.2",
                                            "claude-sonnet-4.5", "gemini-2.5-pro"]


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    assert main(["simulate", cfg]) == EXIT_OK
    out_dir = tmp_path / "out"
    assert (out_dir / "per_call.csv").exists()
    assert (out_dir / "per_session.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert {p["policy"] for p in summary["report"]["policies"]} == {"gpt-4o", "claude-sonnet-4.5"}
    table = capsys.readouterr().out
    assert "cost_sav%" in table and "gpt-4o" in table

    with open(out_dir / "per_call.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 policies x 2 modes x 3 eval sessions x 3 calls
    assert len(rows) == 36
    assert verify_run(out_dir) == []


def test_csv_cells_are_quoted_as_csv_writer_quotes_them(tmp_path):
    """A policy name with a comma and a quote reads back from both CSV
    artifacts, and each file is exactly ``csv.writer``'s rendering of its
    rows."""
    name = 'a,"b'
    policy = dict(to_json(builtin_policy("gpt-4o")), name=name)
    assert main(["simulate", tiny_config(tmp_path, policies=["gpt-4o", policy])]) == EXIT_OK
    out_dir = tmp_path / "out"
    assert verify_run(out_dir) == []
    for artifact in ("per_call.csv", "per_session.csv"):
        with open(out_dir / artifact, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        column = rows[0].index("policy")
        assert {row[column] for row in rows[1:]} == {"gpt-4o", name}
        rendered = io.StringIO(newline="")
        csv.writer(rendered).writerows(rows)
        assert (out_dir / artifact).read_bytes() == rendered.getvalue().encode("utf-8")


def test_simulate_baseline_only_has_no_comparisons(tmp_path):
    cfg = tiny_config(tmp_path, modes=["no-cache"])
    assert main(["simulate", cfg]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for policy in summary["report"]["policies"]:
        assert policy["modes"] == []
        assert policy["baseline_cost_mean"] > 0


def test_simulate_outputs_are_deterministic(tmp_path):
    cfg = tiny_config(tmp_path)
    assert main(["simulate", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["simulate", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
    assert sha256(tmp_path / "a" / "per_call.csv") == sha256(tmp_path / "b" / "per_call.csv")
    assert sha256(tmp_path / "a" / "per_session.csv") == sha256(tmp_path / "b" / "per_session.csv")


def test_seed_override_changes_results(tmp_path):
    cfg = tiny_config(tmp_path)
    assert main(["simulate", cfg, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["simulate", cfg, "--out", str(tmp_path / "c"), "--seed", "8"]) == EXIT_OK
    assert sha256(tmp_path / "a" / "per_call.csv") != sha256(tmp_path / "c" / "per_call.csv")


@pytest.mark.parametrize("overrides", [
    {"workload": []},
    {"latency": []},
    {"latency": {"default": []}},
])
def test_seed_override_rejects_non_object_sections(tmp_path, capsys, overrides):
    cfg = tiny_config(tmp_path, **overrides)
    assert main(["simulate", cfg, "--seed", "3"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be a JSON object" in err
    assert "Traceback" not in err


def test_unknown_cache_mode_exits_one(tmp_path, capsys):
    policy = to_json(builtin_policy("gpt-4o"))
    policy["mode"] = "explicit-cache-object"
    cfg = tiny_config(tmp_path, policies=[policy])
    assert main(["simulate", cfg]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "explicit-cache-object" in err


def test_verify_passes_then_catches_tampering(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    main(["simulate", cfg])
    out_dir = tmp_path / "out"
    assert main(["verify", str(out_dir)]) == EXIT_OK

    lines = (out_dir / "per_call.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("cost_usd")] = "999.0"
    lines[1] = ",".join(row)
    (out_dir / "per_call.csv").write_text("\n".join(lines) + "\n")
    assert main(["verify", str(out_dir)]) == EXIT_VALIDATION
    assert "mismatch" in capsys.readouterr().err


def _short_row(text: str) -> str:
    header, row, rest = text.split("\n", 2)
    return "\n".join([header, row.rsplit(",", 1)[0], rest])


@pytest.mark.parametrize("name, tamper, message", [
    ("summary.json", lambda text: "[]", "summary.json: expected an object"),
    ("summary.json", lambda text: '{"config": 3}', "summary.json: expected an object"),
    ("summary.json", lambda text: text.replace('"alpha": 0.05', '"alpha": "0.05"'),
     "config.alpha"),
    ("per_call.csv", lambda text: text.replace("cost_usd", "cost", 1),
     "per_call.csv: missing column(s) cost_usd"),
    ("per_call.csv", lambda text: "", "per_call.csv: missing column(s) session_id"),
    ("per_call.csv", _short_row, "per_call.csv: a row has fewer fields"),
    ("per_session.csv", _short_row, "per_session.csv: a row has fewer fields"),
], ids=["summary-list", "config-not-object", "alpha-string", "no-cost-column",
        "empty-per-call", "short-call-row", "short-session-row"])
def test_verify_reports_malformed_artifacts(tmp_path, capsys, name, tamper, message):
    """Artifacts of the wrong shape are verify problems (exit 1), not crashes."""
    assert main(["simulate", tiny_config(tmp_path)]) == EXIT_OK
    path = tmp_path / "out" / name
    path.write_text(tamper(path.read_text()))
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and "mismatch" in err


def test_verify_missing_dir(tmp_path):
    assert main(["verify", str(tmp_path / "nope")]) == EXIT_VALIDATION


def test_ablate_writes_grid_outputs(tmp_path):
    cfg = tiny_config(tmp_path, modes=["no-cache", "system-prompt", "full-context"])
    out = tmp_path / "abl"
    assert main(["ablate", cfg, "--dimension", "prompt-size",
                 "--values", "1500", "3000", "--out", str(out)]) == EXIT_OK
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 values x 2 policies x 3 modes
    assert len(rows) == 12
    for value in ("1500", "3000"):
        value_dir = out / f"prompt-size-{value}"
        assert main(["verify", str(value_dir)]) == EXIT_OK
        summary = json.loads((value_dir / "summary.json").read_text())
        assert summary["config"]["workload"]["system_prompt_tokens"] == int(value)
    savings = [float(r["cost_savings_pct"]) for r in rows
               if r["policy"] == "gpt-4o" and r["mode"] == "system-prompt"]
    assert savings == sorted(savings)


def test_ablate_rejects_unsorted_values(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    for values in (["5", "3"], ["5", "5"]):
        assert main(["ablate", cfg, "--dimension", "tool-count",
                     "--values", *values]) == EXIT_VALIDATION
        assert "strictly ascending" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_oversized_token_count_exits_one(tmp_path, capsys):
    """A token count too large to allocate is an ``error:`` line and exit 1
    from the config loader, not a numpy traceback."""
    data = json.loads(Path(tiny_config(tmp_path)).read_text())
    data["workload"]["system_prompt_tokens"] = 10**15
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "system_prompt_tokens" in err
    assert not (tmp_path / "out").exists()


def test_ablate_checks_every_value_before_running_any(tmp_path, capsys):
    """A grid value the workload rejects stops the ablation before its first
    value runs, so nothing is written."""
    cfg = tiny_config(tmp_path)
    assert main(["ablate", cfg, "--dimension", "prompt-size",
                 "--values", "500", str(10**15)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "system_prompt_tokens" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [-1, 2**64, 2**64 + 42])
@pytest.mark.parametrize("where, field", [
    ("master_seed", "master_seed"),
    ("workload", "workload seed"),
    ("latency", "latency seed"),
    ("--seed", "--seed"),
])
def test_out_of_range_seeds_exit_one(tmp_path, capsys, where, field, bad):
    """A seed outside [0, 2**64) is an ``error:`` line naming its field and
    exit 1; it is never reduced modulo 2**64 to a seed it is not."""
    data = json.loads(Path(tiny_config(tmp_path)).read_text())
    argv = []
    if where == "master_seed":
        data["master_seed"] = bad
    elif where == "workload":
        data["workload"]["seed"] = bad
    elif where == "latency":
        data["latency"]["default"]["seed"] = bad
    else:
        argv = ["--seed", str(bad)]
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path), *argv]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "out").exists()


def test_one_evaluation_session_exits_one_before_running(tmp_path, capsys):
    """Reports compare per-session samples, so a config with one evaluation
    session is an ``error:`` line naming ``workload.sessions`` and exit 1,
    raised when it loads, before any condition runs or any file is
    written."""
    data = json.loads(Path(tiny_config(tmp_path)).read_text())
    data["workload"]["sessions"] = 1
    path = tmp_path / "one.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "workload.sessions" in err
    assert not (tmp_path / "out").exists()


def test_seed_range_edges_are_accepted(tmp_path):
    for seed in (0, 2**64 - 1):
        assert main(["simulate", tiny_config(tmp_path), "--seed", str(seed),
                     "--out", str(tmp_path / str(seed))]) == EXIT_OK
    with pytest.raises(ValueError, match="2\\*\\*64"):
        cachesim.derive_seed(2**64, "label")


def test_empty_grid_is_config_error():
    with pytest.raises(ConfigError):
        AblationGrid("prompt-size", ())
    with pytest.raises(ConfigError):
        AblationGrid("qubits", (1, 2))


def test_default_grids():
    assert DEFAULT_GRIDS["prompt-size"] == (500, 2000, 5000, 10000, 20000, 50000)
    assert DEFAULT_GRIDS["tool-count"] == (3, 5, 10, 20, 50)


def test_invalid_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_missing_baseline_mode_exits_one(tmp_path):
    for modes in (["system-prompt", "full-context"], ["full-context"]):
        cfg = tiny_config(tmp_path, modes=modes)
        assert main(["simulate", cfg]) == EXIT_VALIDATION
        assert not (tmp_path / "out").exists()


def test_output_path_collision_exits_two(tmp_path):
    cfg = tiny_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory")
    assert main(["simulate", cfg, "--out", str(blocker)]) == EXIT_IO


def test_per_call_ttft_pooling(tmp_path):
    cfg = tiny_config(tmp_path, ttft_aggregation="per-call")
    assert main(["simulate", cfg]) == EXIT_OK
    out_dir = tmp_path / "out"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["config"]["ttft_aggregation"] == "per-call"
    assert verify_run(out_dir) == []
    # pooled samples shift the t-test inputs, so p-values generally differ
    session_cfg = tiny_config(tmp_path)
    assert main(["simulate", session_cfg, "--out", str(tmp_path / "sess")]) == EXIT_OK
    pooled = json.loads((out_dir / "summary.json").read_text())
    per_session = json.loads((tmp_path / "sess" / "summary.json").read_text())
    pooled_p = pooled["report"]["policies"][0]["modes"][0]["ttft"]["p_value"]
    session_p = per_session["report"]["policies"][0]["modes"][0]["ttft"]["p_value"]
    assert pooled_p != session_p


def test_ablate_honours_per_call_ttft(tmp_path):
    """An ablation summary reports what ``simulate`` reports for the same
    config, pooled per-call TTFT samples included."""
    cfg = tiny_config(tmp_path, ttft_aggregation="per-call")
    assert main(["simulate", cfg, "--out", str(tmp_path / "sim")]) == EXIT_OK
    assert main(["ablate", cfg, "--dimension", "prompt-size", "--values", "1500",
                 "--out", str(tmp_path / "abl")]) == EXIT_OK
    simulated = json.loads((tmp_path / "sim" / "summary.json").read_text())
    ablated = json.loads((tmp_path / "abl" / "prompt-size-1500" / "summary.json").read_text())
    assert ablated["config"]["ttft_aggregation"] == "per-call"
    assert ablated["report"] == simulated["report"]


def test_bad_ttft_aggregation_rejected(tmp_path):
    cfg = tiny_config(tmp_path, ttft_aggregation="per-token")
    assert main(["simulate", cfg]) == EXIT_VALIDATION


def test_config_round_trip(tmp_path):
    cfg = load_config(tiny_config(tmp_path))
    again = config_from_dict(to_json(cfg))
    assert again == cfg
    assert config_from_dict(to_json(again)) == again


@pytest.mark.parametrize("section, key, field", [
    ("workload", None, "inter_call_gap_seconds"),
    ("latency", "default", "noise_sigma"),
    ("latency", "default", "base_ms"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_config_values_rejected(tmp_path, section, key, field, bad):
    data = json.loads(Path(tiny_config(tmp_path)).read_text())
    target = data[section] if key is None else data[section][key]
    target[field] = bad
    with pytest.raises(ConfigError, match=field):
        config_from_dict(data)


@pytest.mark.parametrize("section, field, bad", [
    ("workload", "sessions", 2.5),
    ("workload", "tool_calls", True),
    ("workload", "system_prompt_tokens", math.inf),
    ("workload", "question_tokens", 30.0),
    ("workload", "final_answer_tokens", False),
    (None, "warmup_sessions", math.inf),
    (None, "warmup_sessions", 1.5),
    (None, "master_seed", math.inf),
    (None, "alpha", 10**400),
    (None, "output_dir", []),
    (None, "output_dir", 7),
    (None, "ttft_aggregation", ["per-call"]),
    (None, "policies", "gpt-4o"),
    (None, "modes", "no-cache"),
])
def test_non_integer_counts_exit_one(tmp_path, capsys, monkeypatch, section, field, bad):
    """Counts must be JSON integers, lists lists and strings strings; a
    float, a bool, a number too large for a float or a value of the wrong
    shape is an ``error:`` line naming the field and exit 1, not a
    traceback and not a coerced value."""
    monkeypatch.chdir(tmp_path)  # a coerced ``output_dir`` would land here
    data = json.loads(Path(tiny_config(tmp_path)).read_text())
    (data if section is None else data[section])[field] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section, field, bad", [
    ("workload", "tool_calls", 10**9),
    ("workload", "sessions", 10**8),
    (None, "warmup_sessions", 10**6),
])
def test_oversized_run_exits_one_at_load(tmp_path, capsys, section, field, bad):
    """A run whose sessions would synthesize more than ``MAX_RUN_TOKENS``
    tokens, warmup included, is an ``error:`` line naming the field and
    exit 1 when the config loads; nothing is generated or written."""
    data = json.loads(Path(tiny_config(tmp_path)).read_text())
    (data if section is None else data[section])[field] = bad
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=f"{field}={bad}"):
        config_from_dict(data)
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_RUN_TOKENS" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _priced_at(value: float) -> dict:
    policy = to_json(builtin_policy("gpt-4o"))
    policy["name"] = "priced"
    policy["prices"]["input_per_mtok"] = value
    return policy


@pytest.mark.parametrize("case", ["noise_sigma", "base_ms", "inline-price"])
def test_non_finite_condition_exits_one(tmp_path, capsys, case):
    """A condition whose noise factor, cost or TTFT (or a session's total of
    them) is not finite is an ``error:`` line naming its policy and mode and
    exit 1, not an ``OverflowError`` traceback or a statistics error that
    names neither."""
    data = json.loads(Path(tiny_config(tmp_path)).read_text())
    if case == "inline-price":
        data["policies"] = [_priced_at(1e308)]
        policy = "priced"
    else:
        data["latency"]["default"][case] = 1e308
        policy = "gpt-4o"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite" in err
    assert f"policy {policy!r} under mode 'no-cache'" in err
    assert "Traceback" not in err


def test_bench_shaped_config_loads(tmp_path):
    """The benchmark's generated config: every policy and mode, plus the
    ``jobs`` key it still writes, which the loader ignores."""
    policies = ["gpt-4o", "gpt-5.2", "claude-sonnet-4.5", "gemini-2.5-pro"]
    modes = ["no-cache", "full-context", "system-prompt", "exclude-tool-results"]
    cfg = load_config(tiny_config(tmp_path, policies=policies, modes=modes, jobs=1))
    assert [p.name for p in cfg.policies] == policies
    assert [m.value for m in cfg.modes] == modes


def test_shipped_configs_parse():
    for name in ("configs/main_study.json", "configs/ablation.json"):
        cfg = load_config(name)
        assert cfg.workload.sessions >= 1


def test_latency_key_naming_no_policy_exits_one(tmp_path, capsys):
    """A misspelt policy name under ``latency`` is an error, not a silently
    dropped calibration; ``default`` and configured names still load."""
    model = {"base_ms": 50.0, "per_uncached_token_ms": 0.05, "per_cached_token_ms": 0.005}
    ok = tiny_config(tmp_path, latency={"default": model, "claude-sonnet-4.5": model})
    assert load_config(ok).latency_for("claude-sonnet-4.5").base_ms == 50.0
    cfg = tiny_config(tmp_path, latency={"default": model, "gpt4o": model})
    assert main(["simulate", cfg]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'gpt4o'" in err
    assert "Traceback" not in err


def test_import_needs_only_numpy():
    """numpy is the one runtime dependency: importing cachesim in a fresh
    interpreter loads no other top-level module outside the standard library."""
    src = str(Path(cachesim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys; before = set(sys.modules); import cachesim; "
            "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split() == ["cachesim", "numpy"]
