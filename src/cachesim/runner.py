"""Experiment orchestration and report files.

Runs every (policy x mode) condition of a config and writes the results.
The run's :class:`~cachesim.replay.Timeline` (each call's send time and
output tokens, each session's id and rows) is computed once. One loop
replays a mode: it keeps one :class:`~cachesim.replay.CacheTrace` per
distinct set of cache rules, shared by the policies that have those
rules, and replays the mode's conditions in lockstep: each session's
layout is built once and replayed through every policy's trace, one
:func:`~cachesim.replay.replay_session` per (condition, session), then
dropped before the next session. Once a mode's sessions are replayed,
each condition prices its trace's columns in one pass
(:func:`~cachesim.replay.price_condition`). :func:`run_condition` is
that loop with one mode and one policy. The run writes:

* ``per_call.csv``  - one row per evaluated API call
* ``per_session.csv`` - one row per evaluated session
* ``summary.json``  - config echo, warmup ledger, comparison report

An ablation writes these three files for each grid value, into
``<dimension>-<value>/``, through the same :func:`run_experiment`, plus
one ``ablation.csv`` of session medians across the grid.

Rows are sorted by condition key, so outputs are byte-identical across
reruns. The CSV rows are formatted from each condition's columns, one
condition at a time, with every string cell quoted as ``csv.writer``
quotes it. Text that comes from columns several conditions hold by
reference (the timeline's session ids, call indexes and send times, a
trace's token counts) is formatted once per shared column, and each
condition adds only its own cost and TTFT cells. Costs repeat (by call
index, and across sessions), so each condition formats each distinct
nonzero cost once per column. Every summary value can
be recomputed from ``per_call.csv`` alone; :func:`verify_run` does
exactly that and reports any value that is not equal to the recorded
one. Every sum runs left to right and every float round-trips through
its ``repr``, so the recomputation gives the same bits, and no
tolerance is needed.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Sequence

from .checks import is_finite_number
from .config import AblationGrid, ExperimentConfig, to_json
from .policies import ProviderPolicy
from .replay import (CacheTrace, ConditionRun, LatencyModel, Timeline, price_condition,
                     replay_session)
from .stats import (BASELINE_MODE, Comparison, ConditionSamples, ExperimentReport,
                    summarize_experiment)
from .strategies import StrategyMode, session_layout
from .workload import SessionTranscript, generate

PER_CALL_COLUMNS = ["session_id", "call_index", "mode", "policy", "uncached",
                    "cached_read", "cache_write", "output", "cost_usd",
                    "ttft_ms", "time_s"]
PER_SESSION_COLUMNS = ["policy", "mode", "session_id", "calls", "total_cost_usd",
                       "mean_ttft_ms", "uncached", "cached_read", "cache_write",
                       "output"]


@dataclass(frozen=True)
class RunResult:
    report: ExperimentReport
    runs: tuple[ConditionRun, ...]


def _replay_mode(transcripts: Sequence[SessionTranscript], timeline: Timeline, mode: StrategyMode,
                 conditions: Sequence[tuple[ProviderPolicy, LatencyModel]]) -> list[ConditionRun]:
    """Replay one mode's (policy, latency model) conditions in lockstep, with
    one trace per distinct set of cache rules and one layout per session,
    then price each condition."""
    traces: dict[tuple, CacheTrace] = {}
    for policy, _ in conditions:
        if policy.cache_rules not in traces:
            traces[policy.cache_rules] = CacheTrace(timeline, mode, policy)
    condition_traces = [traces[policy.cache_rules] for policy, _ in conditions]
    for session, transcript in enumerate(transcripts):
        layout = session_layout(transcript, mode)
        for trace in condition_traces:
            replay_session(trace, session, layout)
    return [price_condition(trace, policy, latency_model)
            for trace, (policy, latency_model) in zip(condition_traces, conditions)]


def run_condition(transcripts: Sequence[SessionTranscript], mode: StrategyMode,
                  policy: ProviderPolicy, latency_model: LatencyModel,
                  warmup_sessions: int = 0) -> ConditionRun:
    """Replay all transcripts under one (policy, mode) condition alone, with
    a fresh store and time from 0 s: the run's loop with one mode and one
    policy. The first ``warmup_sessions`` transcripts prime the cache."""
    [run] = _replay_mode(transcripts, Timeline(transcripts, warmup_sessions), mode,
                         [(policy, latency_model)])
    return run


def _execute_matrix(config: ExperimentConfig) -> tuple[ConditionRun, ...]:
    transcripts = generate(config.run_workload)
    timeline = Timeline(transcripts, config.warmup_sessions)
    conditions = [(policy, config.latency_for(policy.name)) for policy in config.policies]
    runs = [run for mode in config.modes
            for run in _replay_mode(transcripts, timeline, mode, conditions)]
    return tuple(sorted(runs, key=lambda r: (r.policy_name, r.mode.value)))


def _report(config: ExperimentConfig, runs: Sequence[ConditionRun]) -> ExperimentReport:
    """Compare each condition with its policy's no-cache baseline: session
    cost totals, and TTFT as one mean per session or, with
    ``ttft_aggregation`` set to ``per-call``, every call pooled."""
    per_call = config.ttft_aggregation == "per-call"
    samples = [ConditionSamples(policy=run.policy_name, mode=run.mode.value,
                                costs=tuple(run.session_cost_usd),
                                ttfts=tuple(run.ttft_ms if per_call else run.session_ttft_ms))
               for run in runs]
    return summarize_experiment(samples, alpha=config.alpha)


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one cell of a longer row."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]  # drop ",\r\n"


def _write_rows(path: Path, columns: Sequence[str], runs: Sequence[ConditionRun],
                condition_rows) -> None:
    """Write a CSV artifact one condition's ``condition_rows(run, shared)``
    at a time. ``shared(format_text, *columns)`` returns
    ``format_text(*columns)``, formatted once per set of column objects, so
    conditions that hold the same columns by reference share its text."""
    texts: dict[tuple, list[str]] = {}

    def shared(format_text, *shared_columns) -> list[str]:
        key = (format_text, *map(id, shared_columns))
        if key not in texts:
            texts[key] = format_text(*shared_columns)
        return texts[key]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(columns)
        for run in runs:
            fh.write("".join(condition_rows(run, shared)))


def _spans(offsets: Sequence[int]):
    return zip(offsets, offsets[1:])


def _call_heads(session_ids: list[str], offsets: list[int]) -> list[str]:
    return [f"{cell},{r},"
            for cell, (start, end) in zip(map(_csv_cell, session_ids), _spans(offsets))
            for r in range(1, end - start + 1)]


def _call_tokens(uncached: list[int], cached_read: list[int], cache_write: list[int],
                 output: list[int]) -> list[str]:
    return [f"{u},{c},{w},{o},"
            for u, c, w, o in zip(uncached, cached_read, cache_write, output)]


def _call_tails(time_s: list[float]) -> list[str]:
    return [f",{t!r}\r\n" for t in time_s]


def _float_texts(values: list[float]) -> list[str]:
    """``[repr(v) for v in values]``, with each distinct nonzero value
    formatted once. Zeros are formatted one by one: ``0.0 == -0.0``, but
    their reprs differ."""
    texts = {value: repr(value) for value in set(values) if value}
    return [texts.get(value) or repr(value) for value in values]


def _per_call_rows(run: ConditionRun, shared) -> list[str]:
    condition = f"{_csv_cell(run.mode.value)},{_csv_cell(run.policy_name)},"
    return [f"{head}{condition}{tokens}{cost},{ttft!r}{tail}"
            for head, tokens, cost, ttft, tail in zip(
                shared(_call_heads, run.session_ids, run.offsets),
                shared(_call_tokens, run.uncached, run.cached_read, run.cache_write,
                       run.output),
                _float_texts(run.cost_usd), run.ttft_ms, shared(_call_tails, run.time_s))]


def _session_heads(session_ids: list[str], offsets: list[int]) -> list[str]:
    return [f"{_csv_cell(session)},{end - start},"
            for session, (start, end) in zip(session_ids, _spans(offsets))]


def _session_tokens(offsets: list[int], *columns: list[int]) -> list[str]:
    """Each session's token totals, summed once per set of shared columns."""
    totals = [[sum(column[start:end]) for start, end in _spans(offsets)]
              for column in columns]
    return [f",{u},{c},{w},{o}\r\n" for u, c, w, o in zip(*totals)]


def _per_session_rows(run: ConditionRun, shared) -> list[str]:
    condition = f"{_csv_cell(run.policy_name)},{_csv_cell(run.mode.value)},"
    return [f"{condition}{head}{cost},{ttft!r}{tokens}"
            for head, cost, ttft, tokens in zip(
                shared(_session_heads, run.session_ids, run.offsets),
                _float_texts(run.session_cost_usd), run.session_ttft_ms,
                shared(_session_tokens, run.offsets, run.uncached, run.cached_read,
                       run.cache_write, run.output))]


def _p_cell(comparison: Comparison) -> str:
    # A p-value of two constant samples is a rule, not a measurement.
    return "n/a" if comparison.zero_variance else f"{comparison.p_value:.3g}"


def format_report_table(report: ExperimentReport) -> str:
    header = (f"{'policy':<20} {'mode':<22} {'mean_cost_usd':>14} {'mean_ttft_ms':>13} "
              f"{'cost_sav%':>10} {'ttft_imp%':>10} {'p_cost':>10} {'p_ttft':>10}")
    lines = [header, "-" * len(header)]
    for policy in report.policies:
        lines.append(
            f"{policy.policy:<20} {policy.baseline_mode + ' (baseline)':<22} "
            f"{policy.baseline_cost_mean:>14.6f} {policy.baseline_ttft_mean:>13.1f} "
            f"{'---':>10} {'---':>10} {'---':>10} {'---':>10}")
        for mode in policy.modes:
            star = "*" if mode.ttft.significant else ""
            lines.append(
                f"{policy.policy:<20} {mode.mode:<22} "
                f"{mode.cost.variant_mean:>14.6f} {mode.ttft.variant_mean:>13.1f} "
                f"{mode.cost.improvement_pct:>10.2f} {mode.ttft.improvement_pct:>9.2f}{star or ' '} "
                f"{_p_cell(mode.cost):>10} {_p_cell(mode.ttft):>10}")
        if policy.best_cost_mode:
            lines.append(
                f"{'':<20} best cost: {policy.best_cost_mode}; "
                f"best ttft: {policy.best_ttft_mode}")
    return "\n".join(lines)


def run_experiment(config: ExperimentConfig, *,
                   out_dir: str | Path | None = None) -> RunResult:
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    runs = _execute_matrix(config)
    report = _report(config, runs)

    _write_rows(out / "per_call.csv", PER_CALL_COLUMNS, runs, _per_call_rows)
    _write_rows(out / "per_session.csv", PER_SESSION_COLUMNS, runs, _per_session_rows)
    summary = {
        "config": to_json(config),
        "warmup": to_json([run.warmup for run in runs]),
        "report": to_json(report),
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return RunResult(report=report, runs=runs)


# --- ablations ---------------------------------------------------------------

ABLATION_COLUMNS = ["dimension", "value", "policy", "mode", "sessions",
                    "median_session_cost_usd", "median_session_ttft_ms",
                    "cost_savings_pct", "ttft_improvement_pct"]


@dataclass(frozen=True)
class AblationRow:
    dimension: str
    value: int
    policy: str
    mode: str
    sessions: int
    median_cost_usd: float
    median_ttft_ms: float
    cost_savings_pct: float | None
    ttft_improvement_pct: float | None


def _ablation_config(config: ExperimentConfig, grid: AblationGrid,
                     value: int) -> ExperimentConfig:
    if grid.dimension == "prompt-size":
        workload = replace(config.workload, system_prompt_tokens=value)
    else:
        workload = replace(config.workload, tool_calls=value)
    return replace(config, workload=workload)


def run_ablation(config: ExperimentConfig, grid: AblationGrid, *,
                 out_dir: str | Path | None = None) -> tuple[AblationRow, ...]:
    """Sweep one workload dimension: a full :func:`run_experiment` run in
    ``<dimension>-<value>/`` per grid value, plus a long ``ablation.csv``
    of per-condition session medians, whose rows it returns. Every value's
    config is built before any runs, so a value the workload rejects
    writes nothing."""
    configs = {value: _ablation_config(config, grid, value) for value in grid.values}
    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows: list[AblationRow] = []
    for value, value_config in configs.items():
        runs = run_experiment(value_config, out_dir=out / f"{grid.dimension}-{value}").runs
        medians = {
            (run.policy_name, run.mode.value): (
                statistics.median(run.session_cost_usd),
                statistics.median(run.session_ttft_ms),
            )
            for run in runs
        }
        for run in runs:
            med_cost, med_ttft = medians[(run.policy_name, run.mode.value)]
            if run.mode is StrategyMode.NO_CACHE:
                savings = improvement = None
            else:
                baseline = medians[(run.policy_name, BASELINE_MODE)]
                savings = 100.0 * (1.0 - med_cost / baseline[0])
                improvement = 100.0 * (1.0 - med_ttft / baseline[1])
            rows.append(AblationRow(
                dimension=grid.dimension, value=value, policy=run.policy_name,
                mode=run.mode.value, sessions=len(run.session_ids),
                median_cost_usd=med_cost, median_ttft_ms=med_ttft,
                cost_savings_pct=savings, ttft_improvement_pct=improvement,
            ))

    with open(out / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        # csv.writer writes a float as its repr and None as an empty cell.
        csv.writer(fh).writerows([ABLATION_COLUMNS, *map(astuple, rows)])
    return tuple(rows)


# --- verification ------------------------------------------------------------

class _NonJson(str):
    """A ``NaN``, ``Infinity`` or ``-Infinity`` constant: Python's ``json``
    reads them, but JSON has no such value."""


def _find_non_json(path: str, value, problems: list[str]) -> None:
    if isinstance(value, _NonJson):
        problems.append(f"summary.json {path}: {value} is not a JSON value")
    elif isinstance(value, dict):
        for key, item in value.items():
            _find_non_json(f"{path}.{key}", item, problems)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _find_non_json(f"{path}[{i}]", item, problems)


def _diff_values(path: str, expected, actual, problems: list[str]) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                problems.append(f"{path}.{key}: present on one side only")
                continue
            _diff_values(f"{path}.{key}", expected[key], actual[key], problems)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            problems.append(f"{path}: length {len(expected)} != {len(actual)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff_values(f"{path}[{i}]", e, a, problems)
    elif expected != actual:
        problems.append(f"{path}: {expected!r} != {actual!r}")


def _read_rows(path: Path, columns: Sequence[str], problems: list[str]) -> list[dict]:
    """The rows of a CSV artifact; a missing column or a short row is
    added to ``problems`` instead."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
        header = reader.fieldnames or ()
    missing = [c for c in columns if c not in header]
    if missing:
        problems.append(f"{path.name}: missing column(s) {', '.join(missing)}")
    elif any(None in row.values() for row in rows):
        problems.append(f"{path.name}: a row has fewer fields than the header")
    return rows


def verify_run(run_dir: str | Path) -> list[str]:
    """Recompute a run's summary from its per-call CSV and diff the two.

    Returns a list of mismatch descriptions; empty means the artifacts
    are internally consistent: every recorded number equals its
    recomputed value exactly. Artifacts of the wrong shape (a summary
    that is not an object or holds a non-JSON constant such as
    ``Infinity``, a CSV without the columns the run writes) are reported
    as such, and nothing is recomputed from them.
    """
    run_dir = Path(run_dir)
    problems: list[str] = []
    try:
        with open(run_dir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh, parse_constant=_NonJson)
        call_rows = _read_rows(run_dir / "per_call.csv", PER_CALL_COLUMNS, problems)
        session_rows = _read_rows(run_dir / "per_session.csv", PER_SESSION_COLUMNS, problems)
    except FileNotFoundError as exc:
        return [f"missing artifact: {exc.filename}"]
    config = summary.get("config", {}) if isinstance(summary, dict) else None
    if not isinstance(config, dict):
        problems.append("summary.json: expected an object whose config is an object")
    elif not is_finite_number(config.get("alpha")):
        problems.append("summary.json: config.alpha must be a finite number")
    if isinstance(summary, dict):
        for key, value in summary.items():
            _find_non_json(key, value, problems)
    if problems:
        return problems

    # Rebuild per-session aggregates from raw calls: the call count, the
    # cost and TTFT sums and the four token totals, in per_session.csv's order.
    sessions: dict[tuple[str, str, str], list] = {}
    for row in call_rows:
        key = (row["policy"], row["mode"], row["session_id"])
        tokens = [int(row[name]) for name in PER_SESSION_COLUMNS[6:]]
        if tokens[2] > tokens[0] + tokens[1]:
            problems.append(f"per_call.csv {key}: cache_write exceeds prompt tokens")
        agg = sessions.setdefault(key, [0, 0.0, 0.0, 0, 0, 0, 0])
        for i, value in enumerate((1, float(row["cost_usd"]), float(row["ttft_ms"]), *tokens)):
            agg[i] += value

    if len(session_rows) != len(sessions):
        problems.append(
            f"per_session.csv has {len(session_rows)} rows, per_call.csv implies {len(sessions)}")
    for row in session_rows:
        key = (row["policy"], row["mode"], row["session_id"])
        if key not in sessions:
            problems.append(f"per_session.csv {key}: no matching calls")
            continue
        calls, cost, ttft, *tokens = sessions[key]
        for name, recomputed in zip(PER_SESSION_COLUMNS[3:], (calls, cost, ttft / calls, *tokens)):
            recorded = type(recomputed)(row[name])
            if recorded != recomputed:
                problems.append(f"per_session.csv {key} {name}: "
                                f"{recorded!r} != recomputed {recomputed!r}")

    # Rebuild the comparison report from scratch.
    per_call_ttft = config.get("ttft_aggregation") == "per-call"
    grouped: dict[tuple[str, str], tuple[list[float], list[float]]] = {}
    for (policy, mode, _), (calls, cost, ttft, *_) in sessions.items():
        costs, ttfts = grouped.setdefault((policy, mode), ([], []))
        costs.append(cost)
        if not per_call_ttft:
            ttfts.append(ttft / calls)
    if per_call_ttft:
        for row in call_rows:
            grouped[(row["policy"], row["mode"])][1].append(float(row["ttft_ms"]))
    samples = [ConditionSamples(policy=policy, mode=mode, costs=tuple(costs),
                                ttfts=tuple(ttfts))
               for (policy, mode), (costs, ttfts) in grouped.items()]
    recomputed_report = to_json(summarize_experiment(samples, alpha=config["alpha"]))
    _diff_values("report", summary.get("report"), recomputed_report, problems)
    return problems
