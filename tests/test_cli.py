"""CLI surface: subcommands, exit codes, artifact determinism, verification."""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cachesim
from cachesim import load_config, verify_run
from cachesim.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from cachesim.config import (DEFAULT_GRIDS, MAX_RUN_CALLS, AblationGrid, config_from_dict,
                             to_json)
from cachesim.errors import ConfigError
from cachesim.policies import builtin_policy
from cachesim.runner import PER_CALL_COLUMNS, _float_texts, run_ablation, run_experiment
from cachesim.workload import MAX_RUN_SESSIONS


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


def test_verify_compares_exactly(tmp_path, capsys):
    """Every recomputed summary number must equal the recorded one: a report
    float moved by one ulp is a mismatch that names its path."""
    assert main(["simulate", tiny_config(tmp_path)]) == EXIT_OK
    path = tmp_path / "out" / "summary.json"
    summary = json.loads(path.read_text())
    policy = summary["report"]["policies"][0]
    policy["baseline_cost_mean"] = math.nextafter(policy["baseline_cost_mean"], math.inf)
    path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "report.policies[0].baseline_cost_mean: " in capsys.readouterr().err


def _short_row(text: str) -> str:
    header, row, rest = text.split("\n", 2)
    return "\n".join([header, row.rsplit(",", 1)[0], rest])


def _huge_first_write(text: str) -> str:
    header, row, rest = text.split("\n", 2)
    cells = row.split(",")
    cells[PER_CALL_COLUMNS.index("cache_write")] = "999999999"
    return "\n".join([header, ",".join(cells), rest])


def _drop_last_row(text: str) -> str:
    return text.rsplit("\n", 2)[0] + "\n"


def _drop_last_policy(text: str) -> str:
    summary = json.loads(text)
    summary["report"]["policies"].pop()
    return json.dumps(summary)


@pytest.mark.parametrize("name, tamper, message", [
    ("summary.json", lambda text: "[]", "summary.json: expected an object"),
    ("summary.json", lambda text: '{"config": 3}', "summary.json: expected an object"),
    ("summary.json", lambda text: text.replace('"alpha": 0.05', '"alpha": "0.05"'),
     "config.alpha"),
    ("summary.json",
     lambda text: re.sub(r'"baseline_cost_mean": [^,]+', '"baseline_cost_mean": NaN', text, 1),
     "summary.json report.policies[0].baseline_cost_mean: NaN is not a JSON value"),
    ("summary.json", lambda text: text.replace('"seed"', '"-Infinity": -Infinity, "seed"', 1),
     "summary.json config.latency.default.-Infinity: -Infinity is not a JSON value"),
    ("summary.json", lambda text: text.replace('"best_cost_mode"', '"best_mode"', 1),
     "report.policies[0].best_cost_mode: present on one side only"),
    ("summary.json", _drop_last_policy, "report.policies: length 1 != 2"),
    ("per_call.csv", lambda text: text.replace("cost_usd", "cost", 1),
     "per_call.csv: missing column(s) cost_usd"),
    ("per_call.csv", lambda text: "", "per_call.csv: missing column(s) session_id"),
    ("per_call.csv", _short_row, "per_call.csv: a row has fewer fields"),
    ("per_call.csv", _huge_first_write, "cache_write exceeds prompt tokens"),
    ("per_session.csv", _short_row, "per_session.csv: a row has fewer fields"),
    ("per_session.csv", _drop_last_row, "per_session.csv has 11 rows, per_call.csv implies 12"),
    ("per_session.csv", lambda text: text.replace(",s001,", ",s009,", 1),
     "'s009'): no matching calls"),
], ids=["summary-list", "config-not-object", "alpha-string", "nan-in-report",
        "infinity-in-config", "key-on-one-side", "list-length", "no-cost-column",
        "empty-per-call", "short-call-row", "write-exceeds-prompt", "short-session-row",
        "session-row-count", "session-without-calls"])
def test_verify_reports_malformed_artifacts(tmp_path, capsys, name, tamper, message):
    """Artifacts of the wrong shape are verify problems (exit 1), not crashes."""
    assert main(["simulate", tiny_config(tmp_path)]) == EXIT_OK
    path = tmp_path / "out" / name
    path.write_text(tamper(path.read_text()))
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert message in err and "mismatch" in err


def test_verify_reports_a_summary_without_alpha(tmp_path, capsys):
    """A config echo without ``alpha`` is a verify problem; verify does not
    assume the default it would have had."""
    assert main(["simulate", tiny_config(tmp_path)]) == EXIT_OK
    path = tmp_path / "out" / "summary.json"
    summary = json.loads(path.read_text())
    del summary["config"]["alpha"]
    path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert "config.alpha must be a finite number" in capsys.readouterr().err


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def test_shipped_runs_write_json_summaries(tmp_path):
    """The main study's and every ablation directory's ``summary.json`` is
    JSON: no ``NaN`` or ``Infinity`` constant. A zero-variance comparison
    records its t statistic, p-value and significance as null, and verify
    accepts every run."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert main(["simulate", str(configs / "main_study.json"),
                 "--out", str(tmp_path / "main")]) == EXIT_OK
    for dimension in DEFAULT_GRIDS:
        assert main(["ablate", str(configs / "ablation.json"), "--dimension", dimension,
                     "--out", str(tmp_path / dimension)]) == EXIT_OK
    paths = sorted(tmp_path.rglob("summary.json"))
    assert len(paths) == 1 + sum(map(len, DEFAULT_GRIDS.values()))
    zero_variance = 0
    for path in paths:
        summary = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
        for policy in summary["report"]["policies"]:
            for mode in policy["modes"]:
                for comparison in (mode["cost"], mode["ttft"]):
                    if comparison["zero_variance"]:
                        zero_variance += 1
                        assert (comparison["t_stat"], comparison["p_value"],
                                comparison["significant"]) == (None, None, None)
        assert verify_run(path.parent) == []
    assert zero_variance > 0


def test_no_warmup_writes_a_float_zero_warmup_cost(tmp_path):
    """Without warmup sessions the ledger's cost is the empty left-to-right
    sum, written as the float ``0.0``, not the integer ``0``."""
    assert main(["simulate", tiny_config(tmp_path, warmup_sessions=0)]) == EXIT_OK
    text = (tmp_path / "out" / "summary.json").read_text()
    ledgers = json.loads(text)["warmup"]
    assert ledgers and all(entry["sessions"] == 0 and entry["write_tokens"] == 0
                           and repr(entry["cost_usd"]) == "0.0" for entry in ledgers)
    assert '"cost_usd": 0.0' in text and '"cost_usd": 0,' not in text


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


@pytest.mark.parametrize("dimension, value, field", [
    ("prompt-size", "0", "system_prompt_tokens"),
    ("tool-count", "-1", "tool_calls"),
])
def test_ablate_rejects_values_below_the_workload_floor(tmp_path, capsys, dimension,
                                                        value, field):
    """The workload's own floors bound an ablation grid: a value below one
    is an ``error:`` line naming the field, and nothing is written."""
    cfg = tiny_config(tmp_path)
    assert main(["ablate", cfg, "--dimension", dimension,
                 "--values", value, "5"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_library_runs_print_nothing_and_the_cli_reports(tmp_path, capsys):
    """``run_experiment`` and ``run_ablation`` write only their artifacts;
    the report table and the ablation progress lines are the CLI's."""
    cfg = tiny_config(tmp_path)
    config = load_config(cfg)
    run_experiment(config, out_dir=tmp_path / "sim")
    run_ablation(config, AblationGrid("tool-count", (1, 2)), out_dir=tmp_path / "lib")
    assert capsys.readouterr().out == ""
    assert main(["ablate", cfg, "--dimension", "tool-count", "--values", "1", "2",
                 "--out", str(tmp_path / "cli")]) == EXIT_OK
    assert capsys.readouterr().out == ("tool-count=1: 4 conditions done\n"
                                       "tool-count=2: 4 conditions done\n")
    assert main(["simulate", cfg]) == EXIT_OK
    assert capsys.readouterr().out.startswith("policy ")


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


@pytest.mark.parametrize("source, gap", [
    ("configs/main_study.json", 1e306),
    ("configs/main_study.json", 1e308),
    # 3 sessions of 3 calls fit; the warmup session makes 4.
    (None, 8e306),
])
def test_simulated_time_overflow_exits_one_at_load(tmp_path, capsys, source, gap):
    """A gap between calls that would run the simulated clock past half the
    largest float, over every session (warmup included) of the run, is an
    ``error:`` line naming ``inter_call_gap_seconds`` and exit 1 when the
    config loads; nothing is replayed or written."""
    data = json.loads(Path(source or tiny_config(tmp_path)).read_text())
    data["output_dir"] = str(tmp_path / "out")
    data["workload"]["inter_call_gap_seconds"] = gap
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "inter_call_gap_seconds" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _one_call_sessions(tmp_path, sessions: int, tool_calls: int = 0, **overrides) -> dict:
    """A config of one-token messages: sessions this small reach the session
    and call caps long before the token cap."""
    data = json.loads(Path(tiny_config(tmp_path, policies=["gpt-4o"],
                                       modes=["no-cache"])).read_text())
    data["workload"] = dict(
        {name: 1 for name in data["workload"] if "_tokens" in name},
        tool_calls=tool_calls, sessions=sessions, inter_call_gap_seconds=1.0)
    data.update(overrides)
    return data


def test_run_sessions_are_capped_warmup_included(tmp_path, capsys):
    """A run generates at most ``MAX_RUN_SESSIONS`` sessions, warmup
    included; more is an ``error:`` line at load, with nothing generated."""
    at_cap = config_from_dict(_one_call_sessions(tmp_path, MAX_RUN_SESSIONS - 1))
    assert at_cap.run_workload.sessions == MAX_RUN_SESSIONS
    with pytest.raises(ConfigError, match=f"sessions={MAX_RUN_SESSIONS + 1}: more than "
                                          "MAX_RUN_SESSIONS"):
        config_from_dict(_one_call_sessions(tmp_path, MAX_RUN_SESSIONS + 1))
    over = _one_call_sessions(tmp_path, MAX_RUN_SESSIONS - 1, warmup_sessions=2)
    with pytest.raises(ConfigError, match=f"workload.sessions={MAX_RUN_SESSIONS - 1} \\+ "
                                          "warmup_sessions=2: .*MAX_RUN_SESSIONS"):
        config_from_dict(over)
    path = tmp_path / "many.json"
    path.write_text(json.dumps(over))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_RUN_SESSIONS" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [
    {"tool_calls": 1024},
    {"warmup_sessions": 2},
    {"policies": ["gpt-4o", "gpt-5.2"]},
    {"modes": ["no-cache", "system-prompt"]},
], ids=["tool_calls", "warmup_sessions", "policies", "modes"])
def test_run_api_calls_are_capped(tmp_path, capsys, overrides):
    """A run makes at most ``MAX_RUN_CALLS`` API calls, counted as sessions
    (warmup included) x (tool_calls + 1) x policies x modes: 1024 x 1024 x
    1 x 1 loads, and raising any one factor is an ``error:`` line at load."""
    assert config_from_dict(_one_call_sessions(tmp_path, 1023, tool_calls=1023))
    data = _one_call_sessions(tmp_path, 1023, tool_calls=overrides.pop("tool_calls", 1023),
                              **overrides)
    with pytest.raises(ConfigError, match=f"more than MAX_RUN_CALLS={MAX_RUN_CALLS}"):
        config_from_dict(data)
    path = tmp_path / "calls.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_RUN_CALLS" in err
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


def test_huge_finite_latency_runs_and_verifies(tmp_path, capsys):
    """TTFTs near 1e200 ms are finite, so the run completes and its
    artifacts verify: the t-tests scale such samples instead of
    overflowing while squaring them."""
    data = json.loads(Path(tiny_config(tmp_path)).read_text())
    data["latency"]["default"]["base_ms"] = 1e200
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", str(path)]) == EXIT_OK
    assert main(["verify", str(tmp_path / "out")]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


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


def test_latency_without_default_must_cover_every_policy(tmp_path, capsys):
    """Without a ``default`` model, every configured policy needs its own;
    the error names the ones left out."""
    model = {"base_ms": 50.0, "per_uncached_token_ms": 0.05, "per_cached_token_ms": 0.005}
    cfg = tiny_config(tmp_path, latency={"gpt-4o": model})
    assert main(["simulate", cfg]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing for ['claude-sonnet-4.5']" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, key", [
    ((), "opportunistic_segment"),
    ((), "ttl_secs"),
    (("prices",), "cache_write_per_mtk"),
], ids=["opportunistic_segment", "ttl_secs", "prices.cache_write_per_mtk"])
def test_misspelt_policy_key_exits_one_naming_it(tmp_path, capsys, path, key):
    """An inline policy object with a key its schema lacks is an ``error:``
    line naming the key, not a rule silently left at its default."""
    policy = dict(to_json(builtin_policy("gpt-4o")), name="mine")
    target = policy
    for part in path:
        target = target[part]
    target[key] = True if key == "opportunistic_segment" else 1.0
    assert main(["simulate", tiny_config(tmp_path, policies=[policy])]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{key}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_cost_text_is_the_repr_of_each_value():
    """Costs are formatted once per distinct nonzero value; zeros one by
    one, as ``0.0 == -0.0`` but their reprs differ."""
    values = [0.0, -0.0, 0.1, 0.1, 5e-324, 1.7976931348623157e308, -0.0, 0.0]
    assert _float_texts(values) == list(map(repr, values))


def test_cli_process_exits_with_the_main_exit_code(tmp_path):
    """``python -m cachesim.cli`` goes through ``cli.run``, which freezes
    the heap before it exits: a run exits 0 with artifacts that verify, a
    bad config exits 1 with an ``error:`` line and no traceback. ``main``
    itself, called in-process, freezes nothing."""
    src = str(Path(cachesim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "cachesim.cli", *args], env=env,
                              capture_output=True, text=True, check=False, timeout=60)

    out = tmp_path / "run"
    proc = cli("simulate", tiny_config(tmp_path), "--out", str(out))
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout.startswith("policy")
    assert main(["verify", str(out)]) == EXIT_OK
    assert gc.get_freeze_count() == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = cli("simulate", str(bad))
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
