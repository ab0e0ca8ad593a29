"""Fuzzed inputs: only the documented error types may escape.

``SessionTranscript`` is built in code from random role sequences and
random values as timestamps. ``config_from_dict`` reads a valid config
with random JSON values patched in. A config that loads must echo every
value its document set unchanged: the loader rejects a bad value, it
never coerces one. These two only check; nothing is simulated.

The run fuzz simulates tiny configs whose latency parameters, prices,
gaps and TTLs are extreme finite floats, through ``cli.main``: every run
exits 0 or 1 with an ``error:`` line, never with a traceback, and a run
that exits 0 passes ``verify``.
"""

from __future__ import annotations

import copy
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cachesim import (ConfigError, Message, Role, SessionTranscript,
                      TranscriptValidationError, synth_tokens)
from cachesim.cli import EXIT_OK, EXIT_VALIDATION, main
from cachesim.config import config_from_dict, to_json
from cachesim.policies import builtin_policy

# Values at the edges of what a field accepts: a bool, a whole float,
# non-finite floats, an int too large for a float, the wrong shapes, and
# strings that are a valid list entry but no list.
EDGE_VALUES = [True, False, None, 0, -1, 2.5, 1024.0, math.inf, -math.inf, math.nan,
               10**400, "", "x", "gpt-4o", "no-cache", [], {}]
edge_values = st.sampled_from(EDGE_VALUES)

json_values = st.recursive(
    edge_values | st.none() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=8)


def _build_transcript(session_id, roles, stamps) -> None:
    messages = tuple(Message(role, synth_tokens(2, i)) for i, role in enumerate(roles))
    try:
        SessionTranscript(session_id, messages, tuple(stamps))
    except TranscriptValidationError:
        pass


# Mostly well-formed layouts, so that the timestamp checks are reached.
layouts = (st.integers(0, 4).map(lambda k: (Role.SYSTEM, Role.HUMAN)
                                 + (Role.TOOL_CALL, Role.TOOL_RESULT) * k + (Role.AI,))
           | st.lists(st.sampled_from(list(Role)), max_size=12))


@given(layouts, st.data())
@settings(max_examples=300, deadline=None)
def test_transcript_raises_only_transcript_errors(roles, data):
    stamp = edge_values | st.floats() | st.integers()
    size = data.draw(st.sampled_from([len(roles), len(roles), len(roles) + 1]))
    _build_transcript("a", roles, data.draw(st.lists(stamp, min_size=size, max_size=size)))


def test_transcript_edge_values_in_every_field():
    roles = (Role.SYSTEM, Role.HUMAN, Role.TOOL_CALL, Role.TOOL_RESULT, Role.AI)
    stamps = [0.0, 1.0, 2.0, 3.0, 4.0]
    for value in EDGE_VALUES:
        _build_transcript(value, roles, stamps)
        for i in range(len(stamps)):
            _build_transcript("a", roles, stamps[:i] + [value] + stamps[i + 1:])


def _valid_config() -> dict:
    inline = to_json(builtin_policy("gemini-2.5-pro"))
    inline["name"] = "inline"
    return {
        "master_seed": 3,
        "policies": ["gpt-4o", inline],
        "modes": ["no-cache", "full-context"],
        "workload": {
            "system_prompt_tokens": 1500, "question_tokens": 30, "tool_calls": 2,
            "tool_call_tokens": 10, "tool_result_tokens": 40,
            "reasoning_tokens_per_turn": 15, "final_answer_tokens": 20,
            "inter_call_gap_seconds": 1.0, "sessions": 3, "seed": 5,
        },
        "latency": {"default": {
            "base_ms": 50.0, "per_uncached_token_ms": 0.05,
            "per_cached_token_ms": 0.005, "per_write_token_ms": 0.01,
            "noise_sigma": 0.1, "seed": 9,
        }},
        "warmup_sessions": 1,
        "alpha": 0.05,
        "output_dir": "out",
        "ttft_aggregation": "session-mean",
    }


def _paths(value, prefix=()):
    """Every key path in a JSON document, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, prefix + (i,))


_PATHS = list(_paths(_valid_config())) + [("extra",), ("workload", "extra"),
                                          ("latency", "gpt-4o")]


def _patch(doc, path, value):
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _echoed(doc, echo) -> bool:
    """Whether the echo of a loaded config holds every value of ``doc``
    unchanged. Keys the loader ignores are not echoed, and a built-in
    policy name reads back as that policy's object."""
    if isinstance(doc, dict):
        return isinstance(echo, dict) and all(
            _echoed(value, echo[key]) for key, value in doc.items() if key in echo)
    if isinstance(doc, list):
        return (isinstance(echo, list) and len(doc) == len(echo)
                and all(map(_echoed, doc, echo)))
    if isinstance(doc, str) and isinstance(echo, dict):
        return echo.get("name") == doc
    return type(doc) is type(echo) and doc == echo


def _load(doc) -> None:
    try:
        config = config_from_dict(doc)
    except ConfigError:
        return
    assert _echoed(doc, to_json(config)), doc


def test_valid_config_loads():
    config_from_dict(_valid_config())


def test_config_edge_values_at_every_path():
    for path in _PATHS:
        for value in EDGE_VALUES:
            _load(_patch(copy.deepcopy(_valid_config()), path, value))


@given(st.lists(st.tuples(st.sampled_from(_PATHS), json_values), min_size=1, max_size=3))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_config_from_dict_raises_only_config_errors(patches):
    doc = copy.deepcopy(_valid_config())
    for path, value in patches:
        try:
            doc = _patch(doc, path, value)
        except (KeyError, IndexError, TypeError):
            continue  # an earlier patch replaced part of this path
    _load(doc)


# Finite floats from zero and the smallest subnormal to near the float
# maximum, after ordinary values (which examples shrink towards) so that
# some runs get past validation.
EXTREME_FLOATS = [1.0, 3.0, 0.01, 0.0, 5e-324, 1e-300, 1e300, 1.7e308]
extreme = st.sampled_from(EXTREME_FLOATS)
token_counts = st.integers(1, 64)
maybe_extreme = st.none() | extreme
# (cached, uncached) rates: a cached token must cost less than an uncached one.
discounted = st.lists(extreme, min_size=2, max_size=2, unique=True).map(sorted)


@st.composite
def run_configs(draw) -> dict:
    automatic = draw(st.booleans())
    minimum = draw(st.integers(1, 256))
    boundary = draw(st.none() | st.integers(0, 512))
    cached_read, uncached = draw(discounted)
    per_cached, per_uncached = draw(discounted)
    tier2 = ({} if boundary is None else
             {"tier2_input_per_mtok": draw(extreme), "tier2_output_per_mtok": draw(extreme),
              "tier2_cached_read_per_mtok": draw(extreme)})
    policy = {
        "name": "fuzz", "min_cache_tokens": minimum,
        "granularity_tokens": draw(st.integers(1, minimum)),
        "ttl_seconds": draw(extreme), "refresh_on_read": draw(st.booleans()),
        "mode": "automatic" if automatic else "explicit-breakpoints",
        "opportunistic_segments": automatic and draw(st.booleans()),
        "prices": {"input_per_mtok": uncached, "output_per_mtok": draw(extreme),
                   "cached_read_per_mtok": cached_read,
                   "cache_write_per_mtok": draw(maybe_extreme),
                   "storage_per_mtok_hour": draw(maybe_extreme),
                   "tier_boundary_tokens": boundary, **tier2},
    }
    return {
        "master_seed": draw(st.integers(0, 3)),
        "policies": draw(st.sampled_from([[policy], [policy, "gpt-4o"]])),
        "modes": ["no-cache", *draw(st.lists(
            st.sampled_from(["full-context", "system-prompt", "exclude-tool-results"]),
            max_size=2, unique=True))],
        "workload": {
            "system_prompt_tokens": draw(token_counts), "question_tokens": draw(token_counts),
            "tool_calls": draw(st.integers(0, 2)), "tool_call_tokens": draw(token_counts),
            "tool_result_tokens": draw(token_counts),
            "reasoning_tokens_per_turn": draw(token_counts),
            "final_answer_tokens": draw(token_counts),
            "inter_call_gap_seconds": draw(extreme), "sessions": draw(st.integers(2, 3)),
        },
        "latency": {"default": {
            "base_ms": draw(extreme), "per_uncached_token_ms": per_uncached,
            "per_cached_token_ms": per_cached, "per_write_token_ms": draw(extreme),
            "noise_sigma": draw(extreme),
        }},
        "warmup_sessions": draw(st.integers(0, 1)),
        "ttft_aggregation": draw(st.sampled_from(["session-mean", "per-call"])),
    }


def _run_cli(args: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


@given(run_configs())
@settings(max_examples=150, deadline=None)
def test_runs_exit_cleanly_and_verify(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = str(Path(tmp) / "out")
        code, err = _run_cli(["simulate", str(path), "--out", out])
        assert code in (EXIT_OK, EXIT_VALIDATION), err
        assert "Traceback" not in err
        if code == EXIT_VALIDATION:
            assert err.startswith("error:"), err
        else:
            assert _run_cli(["verify", out]) == (EXIT_OK, ""), config
