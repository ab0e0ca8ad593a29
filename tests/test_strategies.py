"""Breaker placement, cache boundaries, and cross-request prefix behavior."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from cachesim import (CacheMode, CacheStore, Message, Role,
                      SessionTranscript, StrategyMode, TranscriptValidationError,
                      WorkloadSpec, access, builtin_policy, derive_seed, generate,
                      session_layout, synth_tokens)
from cachesim.replay import CacheTrace, Timeline, replay_call
from reference import apply_strategy, breaker_token, flatten, session_breaker_seed


def common_prefix_len(a: np.ndarray, b: np.ndarray) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def make_conversation(turns: int, system_tokens: int = 40, seed: int = 5):
    msgs = [Message(Role.SYSTEM, synth_tokens(system_tokens, seed)),
            Message(Role.HUMAN, synth_tokens(12, seed + 1))]
    for k in range(1, turns + 1):
        msgs.append(Message(Role.AI, synth_tokens(8, seed + 10 * k)))
        msgs.append(Message(Role.TOOL_RESULT, synth_tokens(20, seed + 10 * k + 1)))
    return msgs


def test_requires_leading_system_message():
    msgs = [Message(Role.HUMAN, synth_tokens(5, 1))]
    with pytest.raises(ValueError):
        apply_strategy(msgs, StrategyMode.NO_CACHE, 1, 0, CacheMode.AUTOMATIC)


def test_rejects_second_system_message():
    msgs = make_conversation(0) + [Message(Role.SYSTEM, synth_tokens(3, 9))]
    with pytest.raises(ValueError):
        apply_strategy(msgs, StrategyMode.FULL_CONTEXT, 1, 0, CacheMode.AUTOMATIC)


def test_rejects_breakers_in_workload():
    msgs = make_conversation(0) + [Message(Role.BREAKER, synth_tokens(1, 3))]
    with pytest.raises(ValueError):
        apply_strategy(msgs, StrategyMode.FULL_CONTEXT, 1, 0, CacheMode.AUTOMATIC)


def test_no_cache_differs_at_token_index_one():
    msgs = make_conversation(1)
    a = flatten(apply_strategy(msgs, StrategyMode.NO_CACHE, 1, 7, CacheMode.AUTOMATIC))
    b = flatten(apply_strategy(msgs, StrategyMode.NO_CACHE, 2, 7, CacheMode.AUTOMATIC))
    assert a[0] == b[0]  # the breaker's framing token
    assert a[1] != b[1]  # the breaker itself
    assert common_prefix_len(a, b) == 1


def test_full_context_keeps_append_only_growth():
    msgs = make_conversation(3)
    shorter = flatten(apply_strategy(msgs[:4], StrategyMode.FULL_CONTEXT, 1, 7,
                                     CacheMode.AUTOMATIC))
    longer = flatten(apply_strategy(msgs, StrategyMode.FULL_CONTEXT, 2, 7,
                                    CacheMode.AUTOMATIC))
    assert common_prefix_len(shorter, longer) == len(shorter)


def test_system_prompt_mode_shares_only_the_system_prefix():
    system_tokens = 40
    msgs = make_conversation(2, system_tokens=system_tokens)
    a = flatten(apply_strategy(msgs[:4], StrategyMode.SYSTEM_PROMPT, 1, 7,
                               CacheMode.AUTOMATIC))
    b = flatten(apply_strategy(msgs, StrategyMode.SYSTEM_PROMPT, 2, 7,
                               CacheMode.AUTOMATIC))
    # shared: system framing token + system + the next breaker's framing token
    assert common_prefix_len(a, b) == system_tokens + 2


def test_exclude_tool_results_places_breakers_after_each_result():
    msgs = make_conversation(2)
    prompt = apply_strategy(msgs, StrategyMode.EXCLUDE_TOOL_RESULTS, 1, 7,
                            CacheMode.AUTOMATIC)
    roles = [m.role for m in prompt.messages]
    assert roles == [Role.SYSTEM, Role.BREAKER, Role.HUMAN,
                     Role.AI, Role.TOOL_RESULT, Role.BREAKER,
                     Role.AI, Role.TOOL_RESULT, Role.BREAKER]
    breakers = [m.tokens[0] for m in prompt.messages if m.role is Role.BREAKER]
    assert len(set(breakers)) == len(breakers)


def test_breaker_tokens_are_deterministic_and_request_fresh():
    assert breaker_token(5, 3, 1) == breaker_token(5, 3, 1)
    assert breaker_token(5, 3, 1) != breaker_token(5, 4, 1)
    assert breaker_token(5, 3, 1) != breaker_token(5, 3, 2)
    assert breaker_token(5, 3, 1) != breaker_token(6, 3, 1)


def test_breakpoints_for_breakpoint_mode_policies():
    msgs = make_conversation(2, system_tokens=40)
    full = apply_strategy(msgs, StrategyMode.FULL_CONTEXT, 1, 7,
                          CacheMode.EXPLICIT_BREAKPOINTS)
    assert full.breakpoints == (full.flat_length(),)
    spo = apply_strategy(msgs, StrategyMode.SYSTEM_PROMPT, 1, 7,
                         CacheMode.EXPLICIT_BREAKPOINTS)
    assert spo.breakpoints == (41,)
    etr = apply_strategy(msgs, StrategyMode.EXCLUDE_TOOL_RESULTS, 1, 7,
                         CacheMode.EXPLICIT_BREAKPOINTS)
    assert etr.breakpoints == (41,)
    none = apply_strategy(msgs, StrategyMode.NO_CACHE, 1, 7,
                          CacheMode.EXPLICIT_BREAKPOINTS)
    assert none.breakpoints == ()
    auto = apply_strategy(msgs, StrategyMode.SYSTEM_PROMPT, 1, 7, CacheMode.AUTOMATIC)
    assert auto.breakpoints == ()


def test_expected_prefix_matches_simulated_lookups():
    """Three-turn session on the breakpoint policy: steady-state reads equal
    the system message plus its framing token exactly (granularity 1)."""
    policy = builtin_policy("claude-sonnet-4.5")
    system_tokens = 2000
    msgs = make_conversation(3, system_tokens=system_tokens, seed=21)
    store = CacheStore(policy)
    reads = []
    for r, upto in enumerate((2, 4, 6, 8), start=1):
        prompt = apply_strategy(msgs[:upto], StrategyMode.EXCLUDE_TOOL_RESULTS,
                                r, 17, policy.mode)
        flat = flatten(prompt)
        reads.append(access(store, flat, prompt.breakpoints[-1], float(r))[0])
    assert reads[0] == 0
    assert reads[1:] == [system_tokens + 1] * 3


def test_exclude_tool_results_reads_match_system_prompt_mode():
    """Under strict prefix matching the two selective modes read identically."""
    for policy in (builtin_policy("gpt-4o"), builtin_policy("claude-sonnet-4.5")):
        msgs = make_conversation(3, system_tokens=1500, seed=31)
        reads = {}
        for mode in (StrategyMode.SYSTEM_PROMPT, StrategyMode.EXCLUDE_TOOL_RESULTS):
            store = CacheStore(policy)
            per_call = []
            for r, upto in enumerate((2, 4, 6, 8), start=1):
                prompt = apply_strategy(msgs[:upto], mode, r, 17, policy.mode)
                flat = flatten(prompt)
                limit = (prompt.breakpoints[-1] if prompt.breakpoints
                         else len(flat)) if policy.mode is CacheMode.EXPLICIT_BREAKPOINTS else len(flat)
                per_call.append(access(store, flat, limit, float(r))[0])
            reads[mode] = per_call
        assert reads[StrategyMode.SYSTEM_PROMPT] == reads[StrategyMode.EXCLUDE_TOOL_RESULTS]


def referee_transcripts():
    """Generated sessions with 0, 1 and 4 tool calls, plus one session
    built in code that mixes tool-call and assistant turns."""
    transcripts = []
    for tool_calls in (0, 1, 4):
        transcripts += generate(WorkloadSpec(
            system_prompt_tokens=50, question_tokens=8, tool_calls=tool_calls,
            tool_call_tokens=5, tool_result_tokens=12, reasoning_tokens_per_turn=4,
            final_answer_tokens=6, sessions=2, seed=tool_calls))
    rows = [(Role.SYSTEM, 30), (Role.HUMAN, 6), (Role.TOOL_CALL, 4), (Role.TOOL_RESULT, 9),
            (Role.AI, 5), (Role.TOOL_RESULT, 7), (Role.AI, 3)]
    transcripts.append(SessionTranscript(
        session_id="x",
        messages=tuple(Message(role, synth_tokens(count, derive_seed(0, "x", i)))
                       for i, (role, count) in enumerate(rows)),
        timestamps=tuple(float(i) for i in range(len(rows)))))
    return transcripts


@pytest.mark.parametrize("policy_mode", list(CacheMode))
@pytest.mark.parametrize("mode", list(StrategyMode))
def test_layout_matches_the_per_request_reference(mode, policy_mode):
    """Every layout fact for every request agrees with the prompt that
    apply_strategy + flatten build for that request alone. Its first
    ``lengths[r - 1]`` template tokens, a read-only view, equal that prompt
    except for a placeholder 0 in each breaker slot; ``stop`` cut at the
    length is the first slot (the whole prompt without one); the explicit
    limit is the last breakpoint (0 without one, ``None`` for the whole
    prompt), and automatic policies get no breakpoint; the segments that
    end below the length are the prompt's breaker-free runs that a breaker
    closes."""
    for tr in referee_transcripts():
        layout = session_layout(tr, mode)
        template = layout.template.copy()
        assert not layout.template.flags.writeable
        assert len(layout.lengths) == len(list(tr.requests()))
        for r in range(1, len(layout.lengths) + 1):
            prompt = apply_strategy(tr.messages[:2 * r], mode, r,
                                    session_breaker_seed(tr.session_id),
                                    policy_mode)
            expected = flatten(prompt)
            slots, runs = [], []
            position = start = 0
            for m in prompt.messages:
                if m.role is Role.BREAKER:
                    slots.append(position + 1)
                    if position > start:
                        runs.append((start, position))
                    start = position + 1 + len(m.tokens)
                position += 1 + len(m.tokens)

            n = layout.lengths[r - 1]
            assert n == len(expected)
            got = layout.template[:n]
            outside = np.ones(n, dtype=bool)
            outside[slots] = False
            assert np.array_equal(got[outside], expected[outside])
            assert not got[slots].any()
            assert min(layout.stop, n) == (slots[0] if slots else n)
            if policy_mode is CacheMode.EXPLICIT_BREAKPOINTS:
                limit = n if layout.explicit_limit is None else layout.explicit_limit
                assert limit == (prompt.breakpoints[-1] if prompt.breakpoints else 0)
            else:
                assert prompt.breakpoints == ()
            assert [(a, b) for a, b in layout.segments if b < n] == runs
        assert layout.lengths[-1] == len(layout.template)
        assert np.array_equal(layout.template, template)


def make_transcript(msgs):
    return SessionTranscript("s", tuple(msgs), (0.0,) * len(msgs))


@pytest.mark.parametrize("msgs", [
    [Message(Role.HUMAN, synth_tokens(5, 1)), Message(Role.HUMAN, synth_tokens(5, 2)),
     Message(Role.AI, synth_tokens(5, 3))],
    make_conversation(0) + [Message(Role.SYSTEM, synth_tokens(3, 9)),
                            Message(Role.TOOL_RESULT, synth_tokens(3, 7)),
                            Message(Role.AI, synth_tokens(3, 8))],
    make_conversation(0) + [Message(Role.AI, synth_tokens(3, 6)),
                            Message(Role.BREAKER, synth_tokens(1, 3)),
                            Message(Role.AI, synth_tokens(3, 8))],
])
def test_layout_rejects_what_the_reference_rejects(msgs):
    """A transcript cannot hold the message lists the reference rejects, so
    session_layout never sees one; it rejects a mode that is no strategy."""
    with pytest.raises(ValueError):
        apply_strategy(msgs[:-1], StrategyMode.FULL_CONTEXT, 1, 0, CacheMode.AUTOMATIC)
    with pytest.raises(TranscriptValidationError):
        make_transcript(msgs)
    valid = make_transcript(make_conversation(1) + [Message(Role.AI, synth_tokens(3, 8))])
    with pytest.raises(ValueError, match="unknown strategy mode"):
        session_layout(valid, "full-context")


def _trace(transcript, mode, policy):
    return CacheTrace(Timeline([transcript], 0), mode, policy)


def test_layout_request_bounds():
    """replay_call serves requests 1..n of a layout and rejects the rest:
    index 0 would otherwise wrap to the last request."""
    transcript = make_transcript(make_conversation(2) + [Message(Role.AI, synth_tokens(3, 8))])
    layout = session_layout(transcript, StrategyMode.NO_CACHE)
    trace = _trace(transcript, StrategyMode.NO_CACHE, builtin_policy("gpt-4o"))
    for r in (0, len(layout.lengths) + 1):
        with pytest.raises(IndexError):
            replay_call(trace, layout, r, session_seed=0)


def test_calls_reach_the_store_in_row_order():
    """A call may not run ahead of the trace's columns: request 2 before
    request 1 is rejected and records nothing."""
    transcript = make_transcript(make_conversation(2) + [Message(Role.AI, synth_tokens(3, 8))])
    layout = session_layout(transcript, StrategyMode.FULL_CONTEXT)
    trace = _trace(transcript, StrategyMode.FULL_CONTEXT, builtin_policy("gpt-4o"))
    with pytest.raises(IndexError, match="row 1 sent before row 0"):
        replay_call(trace, layout, 2, session_seed=0)
    assert trace.uncached == []


def test_segment_contents_are_serialized_once_and_only_when_read():
    """A layout serializes its segments on first use by an
    opportunistic-segments store and then serves the same bytes to every
    later request and store; a plain store never asks for them."""
    transcript = make_transcript(make_conversation(3) + [Message(Role.AI, synth_tokens(3, 8))])
    mode = StrategyMode.EXCLUDE_TOOL_RESULTS
    layout = session_layout(transcript, mode)

    def send(policy, requests):
        trace = _trace(transcript, mode, policy)
        for r in range(1, requests + 1):
            replay_call(trace, layout, r, session_seed=0)

    plain = builtin_policy("gpt-4o")
    send(plain, 2)
    assert "segment_contents" not in vars(layout)

    opportunistic = replace(plain, opportunistic_segments=True)
    send(opportunistic, 2)
    contents = vars(layout)["segment_contents"]
    assert contents == tuple((a, layout.template[a:b].tobytes()) for a, b in layout.segments)
    send(opportunistic, 3)
    assert layout.segment_contents is contents
