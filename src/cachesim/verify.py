"""Verification of a run's artifacts.

:func:`verify_run` recomputes a run's per-session rows and its
comparison report from ``per_call.csv`` alone and reports every value
that is not equal to the recorded one. Every sum runs left to right and
every float round-trips through its ``repr``, so the recomputation gives
the same bits, and no tolerance is needed. It reads the CSV columns by the
names :mod:`cachesim.config` gives them (``PER_CALL_COLUMNS``,
``PER_SESSION_COLUMNS``), the same lists :mod:`cachesim.runner` writes,
and it imports nothing that loads numpy.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Sequence

from .checks import is_finite_number
from .config import PER_CALL_COLUMNS, PER_SESSION_COLUMNS, to_json
from .stats import BASELINE_MODE, ConditionSamples, summarize_experiment


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


# The numeric columns that verify_run reads, and the type of each.
_NUMBER_TYPES = {"calls": int, "uncached": int, "cached_read": int, "cache_write": int,
                 "output": int, "cost_usd": float, "ttft_ms": float,
                 "total_cost_usd": float, "mean_ttft_ms": float}


def _read_text(path: Path, problems: list[str]) -> str | None:
    """An artifact's text, or ``None`` with a problem naming the file if it
    is not UTF-8."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        problems.append(f"{path.name}: not UTF-8 ({exc})")
        return None


def _read_rows(path: Path, columns: Sequence[str], problems: list[str]) -> list[dict]:
    """The rows of a CSV artifact, with each cell of a column in
    ``_NUMBER_TYPES`` converted to its type; a file that is not UTF-8, a
    missing column, a short row or a cell that is not an integer or a
    finite number is added to ``problems`` instead."""
    content = _read_text(path, problems)
    if content is None:
        return []
    reader = csv.DictReader(io.StringIO(content, newline=""))
    rows = list(reader)
    header = reader.fieldnames or ()
    missing = [c for c in columns if c not in header]
    if missing:
        problems.append(f"{path.name}: missing column(s) {', '.join(missing)}")
        return rows
    if any(None in row.values() for row in rows):
        problems.append(f"{path.name}: a row has fewer fields than the header")
        return rows
    numbers = [(c, _NUMBER_TYPES[c]) for c in columns if c in _NUMBER_TYPES]
    for i, row in enumerate(rows, 1):
        for column, kind in numbers:
            text = row[column]
            try:
                value = kind(text)
            except ValueError:
                value = None
            if value is None or kind is float and not math.isfinite(value):
                what = "an integer" if kind is int else "a finite number"
                problems.append(f"{path.name} row {i} {column}: {text!r} is not {what}")
            row[column] = value
    return rows


def _verify_ablation(root: Path) -> list[str]:
    problems: list[str] = []
    rows = _read_rows(root / "ablation.csv", ("dimension", "value"), problems)
    if not rows and not problems:
        problems.append("ablation.csv: no rows")
    if problems:
        return problems
    for name in dict.fromkeys(f"{row['dimension']}-{row['value']}" for row in rows):
        problems += [f"{name}: {problem}" for problem in verify_run(root / name)]
    return problems


def verify_run(run_dir: str | Path) -> list[str]:
    """Recompute a run's summary from its per-call CSV and diff the two.

    Returns a list of mismatch descriptions; empty means the artifacts
    are internally consistent: every recorded number equals its
    recomputed value exactly. Artifacts of the wrong shape (a file that
    is not UTF-8, a summary that is not JSON, is not an object or holds a
    non-JSON constant such as ``Infinity``, a CSV without the columns the
    run writes, a token count that is not an integer or a cost or TTFT
    that is not a finite number) are reported as such, and nothing is
    recomputed from them. Neither is a report rebuilt from a session
    whose finite cost or TTFT cells sum past the float range, nor from
    calls of a policy that has no ``no-cache`` rows to compare against.
    Each of these last problems follows the problems found before it,
    which stay reported. On an ablation root (``ablation.csv`` and no
    ``summary.json``) it verifies each run that a row names, and prefixes
    each problem with that run's directory, a missing one included.
    """
    run_dir = Path(run_dir)
    if (run_dir / "ablation.csv").exists() and not (run_dir / "summary.json").exists():
        return _verify_ablation(run_dir)
    problems: list[str] = []
    try:
        summary_text = _read_text(run_dir / "summary.json", problems)
        call_rows = _read_rows(run_dir / "per_call.csv", PER_CALL_COLUMNS, problems)
        session_rows = _read_rows(run_dir / "per_session.csv", PER_SESSION_COLUMNS, problems)
    except FileNotFoundError as exc:
        return [f"missing artifact: {exc.filename}"]
    if summary_text is None:
        return problems
    try:
        summary = json.loads(summary_text, parse_constant=_NonJson)
    except ValueError as exc:
        return problems + [f"summary.json: not JSON ({exc})"]
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
        tokens = [row[name] for name in PER_SESSION_COLUMNS[6:]]
        if tokens[2] > tokens[0] + tokens[1]:
            problems.append(f"per_call.csv {key}: cache_write exceeds prompt tokens")
        agg = sessions.setdefault(key, [0, 0.0, 0.0, 0, 0, 0, 0])
        for i, value in enumerate((1, row["cost_usd"], row["ttft_ms"], *tokens)):
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
            recorded = row[name]
            if recorded != recomputed:
                problems.append(f"per_session.csv {key} {name}: "
                                f"{recorded!r} != recomputed {recomputed!r}")

    # Finite cells can still sum past the float range, and a policy needs
    # its baseline rows; no report is rebuilt without both.
    unreportable = [f"per_call.csv {key}: {name} cells sum to {total!r}, past the float range"
                    for key, (_, cost, ttft, *_) in sessions.items()
                    for name, total in (("cost_usd", cost), ("ttft_ms", ttft))
                    if not math.isfinite(total)]
    baselines = {policy for policy, mode, _ in sessions if mode == BASELINE_MODE}
    unreportable += [f"per_call.csv: policy {policy!r} has no {BASELINE_MODE!r} rows "
                     "to compare against"
                     for policy in dict.fromkeys(policy for policy, _, _ in sessions)
                     if policy not in baselines]
    if unreportable:
        return problems + unreportable

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
            grouped[(row["policy"], row["mode"])][1].append(row["ttft_ms"])
    samples = [ConditionSamples(policy=policy, mode=mode, costs=tuple(costs),
                                ttfts=tuple(ttfts))
               for (policy, mode), (costs, ttfts) in grouped.items()]
    recomputed_report = to_json(summarize_experiment(samples, alpha=config["alpha"]))
    _diff_values("report", summary.get("report"), recomputed_report, problems)
    return problems
