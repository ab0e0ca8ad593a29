"""Breaker placement, cache boundaries, and cross-request prefix behavior."""

from __future__ import annotations

import json

import numpy as np
import pytest

from cachesim import (CacheMode, CacheStore, Message, Role, StrategyMode,
                      WorkloadSpec, access, builtin_policy, generate, ingest,
                      request_prompt, session_layout, synth_tokens)
from reference import apply_strategy, breaker_token, flatten


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
    store = CacheStore()
    reads = []
    for r, upto in enumerate((2, 4, 6, 8), start=1):
        prompt = apply_strategy(msgs[:upto], StrategyMode.EXCLUDE_TOOL_RESULTS,
                                r, 17, policy.mode)
        flat = flatten(prompt)
        reads.append(access(store, flat, prompt.breakpoints[-1], float(r), policy)[0])
    assert reads[0] == 0
    assert reads[1:] == [system_tokens + 1] * 3


def test_exclude_tool_results_reads_match_system_prompt_mode():
    """Under strict prefix matching the two selective modes read identically."""
    for policy in (builtin_policy("gpt-4o"), builtin_policy("claude-sonnet-4.5")):
        msgs = make_conversation(3, system_tokens=1500, seed=31)
        reads = {}
        for mode in (StrategyMode.SYSTEM_PROMPT, StrategyMode.EXCLUDE_TOOL_RESULTS):
            store = CacheStore()
            per_call = []
            for r, upto in enumerate((2, 4, 6, 8), start=1):
                prompt = apply_strategy(msgs[:upto], mode, r, 17, policy.mode)
                flat = flatten(prompt)
                limit = (prompt.breakpoints[-1] if prompt.breakpoints
                         else len(flat)) if policy.mode is CacheMode.EXPLICIT_BREAKPOINTS else len(flat)
                per_call.append(access(store, flat, limit, float(r), policy)[0])
            reads[mode] = per_call
        assert reads[StrategyMode.SYSTEM_PROMPT] == reads[StrategyMode.EXCLUDE_TOOL_RESULTS]


def referee_transcripts(tmp_path):
    """Generated sessions with 0, 1 and 4 tool calls, plus one ingested
    session that mixes tool-call and assistant turns."""
    transcripts = []
    for tool_calls in (0, 1, 4):
        transcripts += generate(WorkloadSpec(
            system_prompt_tokens=50, question_tokens=8, tool_calls=tool_calls,
            tool_call_tokens=5, tool_result_tokens=12, reasoning_tokens_per_turn=4,
            final_answer_tokens=6, sessions=2, seed=tool_calls))
    rows = [("system", 30), ("human", 6), ("tool-call", 4), ("tool-result", 9),
            ("ai", 5), ("tool-result", 7), ("ai", 3)]
    path = tmp_path / "session.jsonl"
    path.write_text("".join(
        json.dumps({"session_id": "x", "role": role, "token_count": count,
                    "timestamp_s": float(i)}) + "\n"
        for i, (role, count) in enumerate(rows)))
    transcripts += ingest(path)
    return transcripts


@pytest.mark.parametrize("policy_mode", list(CacheMode))
@pytest.mark.parametrize("mode", list(StrategyMode))
def test_layout_matches_the_per_request_reference(tmp_path, mode, policy_mode):
    """Every request served from the session layout is a read-only view of
    the template that equals the prompt apply_strategy + flatten build for
    that request alone, except for a placeholder 0 in each breaker slot.
    Its breaker slots are the layout's slots below its length, its stop is
    the first of them (the whole prompt without one), and its limit is the
    last breakpoint (0 without one) or, for automatic policies, the whole
    prompt."""
    for tr in referee_transcripts(tmp_path):
        layout = session_layout(tr.messages, tr.num_requests, mode)
        template = layout.template.copy()
        assert not layout.template.flags.writeable
        for r in range(1, tr.num_requests + 1):
            prompt = apply_strategy(tr.messages[:2 * r], mode, r, tr.session_seed,
                                    policy_mode)
            expected = flatten(prompt)
            slots = []
            position = 0
            for m in prompt.messages:
                if m.role is Role.BREAKER:
                    slots.append(position + 1)
                position += 1 + len(m.tokens)
            got, limit, stop = request_prompt(layout, r, policy_mode)
            assert len(got) == len(expected)
            outside = np.ones(len(expected), dtype=bool)
            outside[slots] = False
            assert np.array_equal(got[outside], expected[outside])
            assert not got[slots].any()
            assert [slot for slot in layout.slots if slot < len(got)] == slots
            assert stop == (slots[0] if slots else len(expected))
            if policy_mode is CacheMode.EXPLICIT_BREAKPOINTS:
                assert limit == (prompt.breakpoints[-1] if prompt.breakpoints else 0)
            else:
                assert limit == len(expected)
            assert not got.flags.writeable
            assert np.shares_memory(got, layout.template)
        assert np.array_equal(layout.template, template)


@pytest.mark.parametrize("msgs", [
    [Message(Role.HUMAN, synth_tokens(5, 1)), Message(Role.AI, synth_tokens(5, 2))],
    make_conversation(0) + [Message(Role.SYSTEM, synth_tokens(3, 9)),
                            Message(Role.AI, synth_tokens(3, 8))],
    make_conversation(0) + [Message(Role.BREAKER, synth_tokens(1, 3)),
                            Message(Role.AI, synth_tokens(3, 8))],
])
def test_layout_rejects_what_the_reference_rejects(msgs):
    with pytest.raises(ValueError):
        apply_strategy(msgs, StrategyMode.FULL_CONTEXT, 1, 0, CacheMode.AUTOMATIC)
    with pytest.raises(ValueError):
        session_layout(msgs, len(msgs) // 2, StrategyMode.FULL_CONTEXT)


def test_layout_request_bounds():
    msgs = make_conversation(2)
    with pytest.raises(ValueError):
        session_layout(msgs, 4, StrategyMode.NO_CACHE)  # 6 messages hold 3 requests
    with pytest.raises(ValueError):
        session_layout(msgs, 0, StrategyMode.NO_CACHE)
    layout = session_layout(msgs, 3, StrategyMode.NO_CACHE)
    for r in (0, 4):
        with pytest.raises(IndexError):
            request_prompt(layout, r, CacheMode.AUTOMATIC)
