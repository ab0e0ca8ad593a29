"""Whole conditions replayed through the plain references, call for call."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from cachesim import (CacheMode, LatencyModel, Message, Role, SessionTranscript,
                      StrategyMode, WorkloadSpec, builtin_policy, derive_seed,
                      generate, run_condition, synth_tokens)
from reference import CALL_COLUMNS, reference_condition

_POLICIES = ("gpt-4o", "gpt-5.2", "claude-sonnet-4.5", "gemini-2.5-pro")


def _assert_same_run(got, want) -> None:
    assert got.warmup == want.warmup
    assert got.session_ids == want.session_ids
    assert got.offsets == want.offsets
    for name in CALL_COLUMNS:
        assert getattr(got, name) == getattr(want, name), name
    assert got == want


@st.composite
def _generated(draw):
    return generate(WorkloadSpec(
        system_prompt_tokens=draw(st.integers(8, 160)),
        question_tokens=draw(st.integers(1, 12)),
        tool_calls=draw(st.integers(0, 4)),
        tool_call_tokens=draw(st.integers(1, 8)),
        tool_result_tokens=draw(st.integers(1, 40)),
        reasoning_tokens_per_turn=draw(st.integers(1, 8)),
        final_answer_tokens=draw(st.integers(1, 6)),
        inter_call_gap_seconds=draw(st.sampled_from([0.0, 1.0, 4.0])),
        sessions=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32))))


@st.composite
def _recorded(draw):
    """Sessions shaped like recorded agent logs: assistant turns that are tool calls
    or plain replies, tool results drawn from a small shared pool (so whole
    segments repeat), and irregular timestamps."""
    system = synth_tokens(draw(st.integers(8, 160)), draw(st.integers(0, 2**32)))
    pool = [synth_tokens(draw(st.integers(1, 40)), 900 + i) for i in range(3)]
    transcripts = []
    for s in range(draw(st.integers(1, 4))):
        session_id = f"log{s}"
        messages = [Message(Role.SYSTEM, system),
                    Message(Role.HUMAN, synth_tokens(draw(st.integers(1, 12)), 500 + s))]
        for k in range(draw(st.integers(0, 4))):
            role = draw(st.sampled_from([Role.AI, Role.TOOL_CALL]))
            messages.append(Message(role, synth_tokens(draw(st.integers(1, 8)),
                                                       derive_seed(s, k))))
            messages.append(Message(Role.TOOL_RESULT, pool[draw(st.integers(0, 2))]))
        messages.append(Message(Role.AI, synth_tokens(draw(st.integers(1, 6)), 700 + s)))
        stamps = [0.0]
        for _ in messages[1:]:
            stamps.append(stamps[-1] + draw(st.sampled_from([0.0, 0.25, 1.5, 6.0])))
        transcripts.append(SessionTranscript(
            session_id=session_id, messages=tuple(messages), timestamps=tuple(stamps),
            session_seed=derive_seed(0, "transcript", session_id)))
    return transcripts


@st.composite
def _conditions(draw):
    base = builtin_policy(draw(st.sampled_from(_POLICIES)))
    granularity = draw(st.sampled_from([1, 4, 16]))
    prices = base.prices
    if prices.tier_boundary_tokens is not None:
        # Small sessions cross the gemini price tier at a scaled-down boundary.
        prices = replace(prices, tier_boundary_tokens=draw(st.integers(40, 400)))
    automatic = base.mode is CacheMode.AUTOMATIC
    policy = replace(
        base, granularity_tokens=granularity,
        min_cache_tokens=granularity * draw(st.integers(1, 6)),
        ttl_seconds=draw(st.sampled_from([1.0, 2.0, 7.0, 300.0])),
        refresh_on_read=draw(st.booleans()),
        opportunistic_segments=automatic and draw(st.booleans()),
        prices=prices)
    latency = LatencyModel(base_ms=20.0, per_uncached_token_ms=0.05,
                           per_cached_token_ms=0.005, per_write_token_ms=0.01,
                           noise_sigma=draw(st.sampled_from([0.0, 0.3])),
                           seed=draw(st.integers(0, 2**32)))
    transcripts = draw(st.one_of(_generated(), _recorded()))
    warmup = draw(st.integers(0, len(transcripts) - 1))
    return transcripts, draw(st.sampled_from(list(StrategyMode))), policy, latency, warmup


@given(case=_conditions())
@settings(max_examples=150, deadline=None)
def test_run_condition_matches_the_reference_replay(case):
    transcripts, mode, policy, latency, warmup = case
    _assert_same_run(run_condition(transcripts, mode, policy, latency, warmup),
                     reference_condition(transcripts, mode, policy, latency, warmup))


def test_reference_replay_in_the_gemini_long_context_tier():
    """The built-in gemini policy on prompts past its 200k-token price tier."""
    transcripts = generate(WorkloadSpec(
        system_prompt_tokens=200_100, question_tokens=20, tool_calls=1,
        tool_call_tokens=10, tool_result_tokens=40, reasoning_tokens_per_turn=10,
        final_answer_tokens=10, inter_call_gap_seconds=5.0, sessions=2, seed=4))
    policy = builtin_policy("gemini-2.5-pro")
    latency = LatencyModel(noise_sigma=0.2, seed=11)
    for mode in (StrategyMode.FULL_CONTEXT, StrategyMode.SYSTEM_PROMPT):
        got = run_condition(transcripts, mode, policy, latency, 1)
        _assert_same_run(got, reference_condition(transcripts, mode, policy, latency, 1))
        last = got.offsets[1] - 1
        assert got.uncached[last] + got.cached_read[last] > policy.prices.tier_boundary_tokens
        assert sum(got.cached_read[:last + 1]) > 0
