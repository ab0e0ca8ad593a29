"""Experiment orchestration and report files.

Runs every (policy x mode) condition of a config and writes the results.
The run's :class:`~cachesim.replay.Timeline` (each call's send time and
output tokens, each session's id and rows) is computed once. One loop
replays a mode: it keeps one :class:`~cachesim.replay.CacheTrace` per
distinct set of cache rules, shared by the policies that have those
rules, and replays the mode's conditions in lockstep: each session's
layout is built once and replayed through every policy's trace, one
:func:`~cachesim.replay.replay_session` per (condition, session), then
dropped before the next session. The run replays every mode, then
prices each condition: once every mode is replayed (and each trace has
released its store), the transcripts are dropped, and only then does
each condition price its trace's columns in one pass
(:func:`~cachesim.replay.price_condition`), which loads
``numpy.random``. So replay's working set and pricing's modules are
never held at once. :func:`run_condition` is that loop with one mode and
one policy, then its one pricing pass. The run writes:

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
condition adds only its own cost and TTFT cells. Every per-call column
is a numpy array, formatted from one ``tolist()`` of it, so each cell is
the ``repr`` of a Python number, as ``csv.writer`` writes it. Costs
repeat (by call index, and across sessions), so each condition formats
each distinct nonzero cost once per column. Every summary value can be
recomputed from ``per_call.csv`` alone;
:func:`cachesim.verify.verify_run` does exactly that, from the CSV
columns (``PER_CALL_COLUMNS``, ``PER_SESSION_COLUMNS``) that
:mod:`cachesim.config` names for both modules. This module replays and
prices through numpy, so the CLI imports it only for the commands that
run an experiment, and it imports neither :mod:`cachesim.verify` nor
``statistics`` (an ablation takes its medians with :func:`_median`).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import (PER_CALL_COLUMNS, PER_SESSION_COLUMNS, AblationGrid, ExperimentConfig,
                     LatencyModel, StrategyMode, to_json)
from .policies import ProviderPolicy
from .replay import CacheTrace, ConditionRun, Timeline, price_condition, replay_session
from .stats import (BASELINE_MODE, Comparison, ConditionSamples, ExperimentReport,
                    summarize_experiment)
from .strategies import session_layout
from .workload import SessionTranscript, generate


@dataclass(frozen=True)
class RunResult:
    report: ExperimentReport
    runs: tuple[ConditionRun, ...]


def _replay_mode(transcripts: Sequence[SessionTranscript], timeline: Timeline, mode: StrategyMode,
                 policies: Sequence[ProviderPolicy]) -> list[CacheTrace]:
    """Replay one mode's policies in lockstep, with one trace per distinct
    set of cache rules and one layout per session, finish each trace, and
    return each policy's trace."""
    traces: dict[tuple, CacheTrace] = {}
    for policy in policies:
        if policy.cache_rules not in traces:
            traces[policy.cache_rules] = CacheTrace(timeline, mode, policy)
    policy_traces = [traces[policy.cache_rules] for policy in policies]
    for session, transcript in enumerate(transcripts):
        layout = session_layout(transcript, mode)
        for trace in policy_traces:
            replay_session(trace, session, layout)
    for trace in traces.values():
        trace.finish()
    return policy_traces


def run_condition(transcripts: Sequence[SessionTranscript], mode: StrategyMode,
                  policy: ProviderPolicy, latency_model: LatencyModel,
                  warmup_sessions: int = 0) -> ConditionRun:
    """Replay all transcripts under one (policy, mode) condition alone, with
    a fresh store and time from 0 s, then price it: the run's loop with one
    mode and one policy. The first ``warmup_sessions`` transcripts prime
    the cache."""
    [trace] = _replay_mode(transcripts, Timeline(transcripts, warmup_sessions), mode, [policy])
    return price_condition(trace, policy, latency_model)


def _execute_matrix(config: ExperimentConfig) -> tuple[ConditionRun, ...]:
    """Replay every mode, then price every condition. Replay's transcripts
    and stores are gone before pricing loads ``numpy.random``, so the two
    phases' memory never adds up; each condition's noise comes from its
    own seed, so the order of pricing changes no value."""
    transcripts = generate(config.run_workload)
    timeline = Timeline(transcripts, config.warmup_sessions)
    traces = [_replay_mode(transcripts, timeline, mode, config.policies)
              for mode in config.modes]
    del transcripts
    runs = [price_condition(trace, policy, config.latency_for(policy.name))
            for mode_traces in traces for policy, trace in zip(config.policies, mode_traces)]
    return tuple(sorted(runs, key=lambda r: (r.policy_name, r.mode.value)))


def _report(config: ExperimentConfig, runs: Sequence[ConditionRun]) -> ExperimentReport:
    """Compare each condition with its policy's no-cache baseline: session
    cost totals, and TTFT as one mean per session or, with
    ``ttft_aggregation`` set to ``per-call``, every call pooled."""
    per_call = config.ttft_aggregation == "per-call"
    samples = [ConditionSamples(policy=run.policy_name, mode=run.mode.value,
                                costs=tuple(run.session_cost_usd),
                                ttfts=tuple(run.ttft_ms.tolist() if per_call
                                            else run.session_ttft_ms))
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


def _call_tokens(*columns: np.ndarray) -> list[str]:
    return [f"{u},{c},{w},{o},"
            for u, c, w, o in zip(*(column.tolist() for column in columns))]


def _call_tails(time_s: np.ndarray) -> list[str]:
    return [f",{t!r}\r\n" for t in time_s.tolist()]


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
                _float_texts(run.cost_usd.tolist()), run.ttft_ms.tolist(),
                shared(_call_tails, run.time_s))]


def _session_heads(session_ids: list[str], offsets: list[int]) -> list[str]:
    return [f"{_csv_cell(session)},{end - start},"
            for session, (start, end) in zip(session_ids, _spans(offsets))]


def _session_tokens(offsets: list[int], *columns: np.ndarray) -> list[str]:
    """Each session's token totals, summed once per set of shared columns."""
    totals = [[sum(values[start:end]) for start, end in _spans(offsets)]
              for values in (column.tolist() for column in columns)]
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


def _median(values: Sequence[float]) -> float:
    """``statistics.median`` of floats, without importing ``statistics``
    (which loads ``fractions``, ``decimal`` and ``random``)."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    return ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2


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
                _median(run.session_cost_usd),
                _median(run.session_ttft_ms),
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
