"""Replay pipeline: usage accounting, latency model, warmup protocol."""

from __future__ import annotations

import inspect
import math
from collections import defaultdict
from dataclasses import replace

import pytest

from cachesim import (CacheStore, LatencyModel, Role, StrategyMode,
                      TranscriptValidationError, WorkloadSpec, access, builtin_policy,
                      generate, run_condition, run_experiment, session_layout)
from cachesim import replay, runner
from cachesim.replay import CacheTrace, Timeline, replay_call
from cachesim.config import config_from_dict, to_json
from reference import flat_length, reference_condition
from test_golden import GOLDEN_CONFIG

QUIET = LatencyModel(base_ms=40.0, per_uncached_token_ms=0.05,
                     per_cached_token_ms=0.005, per_write_token_ms=0.01,
                     noise_sigma=0.0, seed=9)


def small_spec(**overrides) -> WorkloadSpec:
    base = dict(system_prompt_tokens=2000, question_tokens=40, tool_calls=3,
                tool_call_tokens=15, tool_result_tokens=80,
                reasoning_tokens_per_turn=25, final_answer_tokens=30,
                inter_call_gap_seconds=5.0, sessions=4, seed=123)
    base.update(overrides)
    return WorkloadSpec(**base)


BREAKER_OVERHEAD = {
    StrategyMode.NO_CACHE: lambda results: 2,
    StrategyMode.FULL_CONTEXT: lambda results: 0,
    StrategyMode.SYSTEM_PROMPT: lambda results: 2,
    StrategyMode.EXCLUDE_TOOL_RESULTS: lambda results: 2 + 2 * results,
}


def test_token_conservation_every_call():
    transcripts = generate(small_spec())
    for policy_name in ("gpt-4o", "claude-sonnet-4.5", "gemini-2.5-pro"):
        policy = builtin_policy(policy_name)
        for mode in StrategyMode:
            run = run_condition(transcripts, mode, policy, QUIET)
            assert len(run.session_ids) == len(transcripts)
            for s, transcript in enumerate(transcripts):
                start, end = run.offsets[s], run.offsets[s + 1]
                for row in range(start, end):
                    msgs = transcript.messages[:2 * (row - start + 1)]
                    results = sum(1 for m in msgs if m.role is Role.TOOL_RESULT)
                    expected = flat_length(msgs) + BREAKER_OVERHEAD[mode](results)
                    assert run.uncached[row] + run.cached_read[row] == expected
                    assert run.cache_write[row] <= expected


def test_no_cache_never_reads():
    transcripts = generate(small_spec())
    for policy in (builtin_policy("gpt-4o"), builtin_policy("claude-sonnet-4.5")):
        run = run_condition(transcripts, StrategyMode.NO_CACHE, policy, QUIET,
                            warmup_sessions=1)
        assert all(read == 0 for read in run.cached_read)


def test_system_prompt_reads_match_expected_boundary():
    spec = small_spec(system_prompt_tokens=10_000, sessions=2)
    transcripts = generate(spec)
    claude = builtin_policy("claude-sonnet-4.5")
    run = run_condition(transcripts, StrategyMode.SYSTEM_PROMPT, claude, QUIET)
    first = run.cached_read[:run.offsets[1]]
    assert first[0] == 0
    assert all(read == 10_001 for read in first[1:])

    gpt = builtin_policy("gpt-4o")
    run = run_condition(transcripts, StrategyMode.SYSTEM_PROMPT, gpt, QUIET)
    floored = ((10_002) // 128) * 128
    assert all(read == floored for read in run.cached_read[1:run.offsets[1]])


def test_ttft_formula_when_noise_is_zero():
    transcripts = generate(small_spec(sessions=1))
    run = run_condition(transcripts, StrategyMode.SYSTEM_PROMPT,
                        builtin_policy("gpt-4o"), QUIET)
    assert run.offsets == [0, 4]
    for row in range(4):
        expected = (QUIET.base_ms + 0.05 * run.uncached[row]
                    + 0.005 * run.cached_read[row] + 0.01 * run.cache_write[row])
        assert run.ttft_ms[row] == pytest.approx(expected, rel=1e-12)


def test_virtual_times_follow_the_gap():
    spec = small_spec(sessions=2, inter_call_gap_seconds=5.0)
    run = run_condition(generate(spec), StrategyMode.FULL_CONTEXT,
                        builtin_policy("gpt-4o"), QUIET)
    assert run.offsets == [0, 4, 8]
    assert run.time_s[:4] == [0.0, 5.0, 10.0, 15.0]
    # next session starts after the final answer's slot
    assert run.time_s[4] == 20.0


def test_shifted_timestamps_replay_the_same():
    """Replay reads only differences between a session's timestamps, so a
    transcript whose timestamps start at 100 s replays like one from 0 s."""
    transcripts = generate(small_spec(sessions=3))
    shifted = [replace(t, timestamps=tuple(x + 100.0 for x in t.timestamps))
               for t in transcripts]
    policy = builtin_policy("claude-sonnet-4.5")
    for mode in (StrategyMode.FULL_CONTEXT, StrategyMode.SYSTEM_PROMPT):
        run = run_condition(transcripts, mode, policy, QUIET, warmup_sessions=1)
        assert run_condition(shifted, mode, policy, QUIET, warmup_sessions=1) == run
        assert reference_condition(shifted, mode, policy, QUIET, 1) == run


def test_cost_ordering_cached_mode_never_beats_baseline():
    transcripts = generate(small_spec())
    for name in ("gpt-4o", "gpt-5.2", "gemini-2.5-pro"):
        policy = builtin_policy(name)
        spo = run_condition(transcripts, StrategyMode.SYSTEM_PROMPT, policy, QUIET)
        baseline = run_condition(transcripts, StrategyMode.NO_CACHE, policy, QUIET)
        for cached, plain in zip(spo.session_cost_usd, baseline.session_cost_usd):
            assert cached <= plain + 1e-12


def test_cost_ordering_claude_after_warmup():
    transcripts = generate(small_spec(sessions=3))
    claude = builtin_policy("claude-sonnet-4.5")
    spo = run_condition(transcripts, StrategyMode.SYSTEM_PROMPT, claude, QUIET,
                        warmup_sessions=1)
    baseline = run_condition(transcripts, StrategyMode.NO_CACHE, claude, QUIET,
                             warmup_sessions=1)
    for cached, plain in zip(spo.session_cost_usd, baseline.session_cost_usd):
        assert cached <= plain + 1e-12


def test_bitwise_determinism():
    transcripts = generate(small_spec())
    noisy = replace(QUIET, noise_sigma=0.2)
    a = run_condition(transcripts, StrategyMode.FULL_CONTEXT,
                      builtin_policy("gpt-5.2"), noisy, warmup_sessions=1)
    b = run_condition(transcripts, StrategyMode.FULL_CONTEXT,
                      builtin_policy("gpt-5.2"), noisy, warmup_sessions=1)
    assert a == b


def test_condition_noise_streams_differ():
    transcripts = generate(small_spec(sessions=2))
    noisy = replace(QUIET, noise_sigma=0.2)
    spo = run_condition(transcripts, StrategyMode.SYSTEM_PROMPT,
                        builtin_policy("gpt-5.2"), noisy)
    fc = run_condition(transcripts, StrategyMode.FULL_CONTEXT,
                       builtin_policy("gpt-5.2"), noisy)
    assert spo.ttft_ms != fc.ttft_ms


def test_lockstep_replay_equals_each_condition_alone(tmp_path, monkeypatch):
    """A run replays each mode's sessions in lockstep across its policies,
    from one layout per (session, mode): every condition it returns equals
    ``run_condition`` on that condition alone. The golden config has
    refresh-on-read, entries that expire, opportunistic segments, all four
    modes and a warmup session."""
    config = config_from_dict(GOLDEN_CONFIG)
    layouts = []

    def counted(transcript, mode):
        layouts.append((transcript.session_id, mode))
        return session_layout(transcript, mode)

    monkeypatch.setattr(runner, "session_layout", counted)
    runs = run_experiment(config, out_dir=tmp_path).runs
    monkeypatch.undo()

    sessions = config.workload.sessions + config.warmup_sessions
    assert len(layouts) == len(set(layouts)) == sessions * len(config.modes)
    assert len(runs) == len(config.policies) * len(config.modes)
    transcripts = generate(replace(config.workload, sessions=sessions))
    for run in runs:
        policy = next(p for p in config.policies if p.name == run.policy_name)
        assert run == run_condition(transcripts, run.mode, policy,
                                    config.latency_for(policy.name), config.warmup_sessions)


# One value per cache rule that differs from gpt-4o's.
RULE_CHANGES = {"min_cache_tokens": 256, "granularity_tokens": 32, "ttl_seconds": 2.5,
                "refresh_on_read": True, "mode": "explicit-breakpoints",
                "opportunistic_segments": True}


@pytest.mark.parametrize("field", sorted(RULE_CHANGES))
def test_policies_with_equal_cache_rules_share_one_trace(field, tmp_path, monkeypatch):
    """gpt-4o and gpt-5.2 differ only in prices, so each mode sends their
    calls through one store; a policy that differs from gpt-4o in any one
    cache rule gets a store of its own. The stores are accessed once per
    (mode, set of rules, call), and every condition still equals
    ``run_condition`` on that condition alone."""
    variant = to_json(builtin_policy("gpt-4o"))
    variant.update({"name": "variant", field: RULE_CHANGES[field]})
    config = config_from_dict({**GOLDEN_CONFIG, "policies": ["gpt-4o", "gpt-5.2", variant]})
    stores, accesses = [], []

    class CountedStore(CacheStore):
        def __init__(self, policy):
            super().__init__(policy)
            stores.append(policy.name)

    def counted_access(*args, **kwargs):
        accesses.append(args[0].policy.name)
        return access(*args, **kwargs)

    monkeypatch.setattr(replay, "CacheStore", CountedStore)
    monkeypatch.setattr(replay, "access", counted_access)
    runs = run_experiment(config, out_dir=tmp_path).runs
    monkeypatch.undo()

    modes = len(config.modes)
    sessions = config.workload.sessions + config.warmup_sessions
    calls = sessions * (config.workload.tool_calls + 1)
    assert sorted(stores) == ["gpt-4o"] * modes + ["variant"] * modes
    assert sorted(accesses) == ["gpt-4o"] * modes * calls + ["variant"] * modes * calls
    assert len(runs) == 3 * modes
    transcripts = generate(replace(config.workload, sessions=sessions))
    for run in runs:
        policy = next(p for p in config.policies if p.name == run.policy_name)
        assert run == run_condition(transcripts, run.mode, policy,
                                    config.latency_for(policy.name), config.warmup_sessions)


def test_one_replay_call_per_api_call(tmp_path, monkeypatch):
    """Per-call tracing wraps ``replay.replay_call`` by name, reads its
    ``request_index`` and ``session_seed`` parameters and its result's
    ``.usage``: a run makes one such call per condition and API call,
    warmup included. gpt-5.2 shares gpt-4o's cache rules, so its calls
    follow gpt-4o's through one trace, and every call of one trace, session
    and request returns the same usage, whether it ran the store or was
    rebuilt from the trace's columns."""
    real = replay.replay_call
    signature = inspect.signature(real)
    assert {"request_index", "session_seed"} <= set(signature.parameters)
    seen = []
    usages = defaultdict(list)

    def traced(*args, **kwargs):
        result = real(*args, **kwargs)
        call = signature.bind(*args, **kwargs).arguments
        usage = result.usage
        assert min(usage.uncached_input, usage.cached_read, usage.cache_write) >= 0
        seen.append((call["session_seed"], call["request_index"]))
        usages[call["trace"], call["session"], call["request_index"]].append(usage)
        return result

    monkeypatch.setattr(replay, "replay_call", traced)
    config = config_from_dict({**GOLDEN_CONFIG,
                               "policies": [*GOLDEN_CONFIG["policies"], "gpt-5.2"]})
    run_experiment(config, out_dir=tmp_path)

    sessions = config.workload.sessions + config.warmup_sessions
    calls = config.workload.tool_calls + 1
    conditions = len(config.policies) * len(config.modes)
    assert len(seen) == sessions * calls * conditions
    assert len(set(seen)) == sessions * calls
    assert all(seen.count(call) == conditions for call in set(seen))
    assert all(len(set(group)) == 1 for group in usages.values())
    assert any(len(group) > 1 for group in usages.values())


class TestWarmup:
    def test_warmup_primes_the_first_evaluation_call(self):
        transcripts = generate(small_spec())
        policy = builtin_policy("gpt-4o")
        cold = run_condition(transcripts, StrategyMode.SYSTEM_PROMPT, policy, QUIET)
        warm = run_condition(transcripts, StrategyMode.SYSTEM_PROMPT, policy, QUIET,
                             warmup_sessions=1)
        assert cold.cached_read[0] == 0
        assert warm.cached_read[0] > 0
        assert warm.warmup.sessions == 1
        assert warm.warmup.write_tokens > 0
        assert warm.warmup.cost_usd > 0

    def test_no_cache_results_insensitive_to_warmup(self):
        transcripts = generate(small_spec())
        policy = builtin_policy("gpt-4o")
        cold = run_condition(transcripts[1:], StrategyMode.NO_CACHE, policy, QUIET)
        warm = run_condition(transcripts, StrategyMode.NO_CACHE, policy, QUIET,
                             warmup_sessions=1)
        def usage(run):
            return list(zip(run.uncached, run.cached_read, run.cache_write, run.output))

        assert usage(cold) == usage(warm)

    def test_full_context_cross_session_reads_are_system_only(self):
        spec = small_spec(sessions=2, system_prompt_tokens=3000)
        transcripts = generate(spec)
        claude = builtin_policy("claude-sonnet-4.5")
        run = run_condition(transcripts, StrategyMode.FULL_CONTEXT, claude, QUIET)
        # shared prefix: system framing + system + the question's framing token
        assert run.cached_read[run.offsets[1]] == 3000 + 2

    def test_warmup_must_leave_evaluation_sessions(self):
        transcripts = generate(small_spec(sessions=2))
        with pytest.raises(ValueError):
            run_condition(transcripts, StrategyMode.NO_CACHE,
                          builtin_policy("gpt-4o"), QUIET, warmup_sessions=2)


def test_opportunistic_segments_let_exclude_mode_diverge():
    spec = small_spec(system_prompt_tokens=2000, tool_calls=4, sessions=1)
    transcripts = generate(spec)
    policy = replace(builtin_policy("gpt-4o"), opportunistic_segments=True)
    plain = builtin_policy("gpt-4o")

    def total_reads(p, mode):
        run = run_condition(transcripts, mode, p, QUIET)
        return sum(run.cached_read)

    assert (total_reads(policy, StrategyMode.EXCLUDE_TOOL_RESULTS)
            > total_reads(policy, StrategyMode.SYSTEM_PROMPT))
    # with the toggle off the two modes read identically
    assert (total_reads(plain, StrategyMode.EXCLUDE_TOOL_RESULTS)
            == total_reads(plain, StrategyMode.SYSTEM_PROMPT))


def test_opportunistic_segments_keep_the_baselines_on_a_repeated_session():
    """Only a run that a breaker closes is a segment, so a session repeated
    verbatim reads nothing under ``no-cache`` and no more than the system
    prompt under ``system-prompt``: the run after their last breaker
    reaches the prompt's end and is never matched."""
    spec = small_spec(sessions=2)
    first, second = generate(spec)
    transcripts = [first, second, replace(first, session_id="again")]
    policy = replace(builtin_policy("gpt-4o"), opportunistic_segments=True)
    g = policy.granularity_tokens
    system = (1 + spec.system_prompt_tokens) // g * g
    for mode in (StrategyMode.NO_CACHE, StrategyMode.SYSTEM_PROMPT):
        run = run_condition(transcripts, mode, policy, QUIET)
        assert run == reference_condition(transcripts, mode, policy, QUIET)
        ceiling = 0 if mode is StrategyMode.NO_CACHE else system
        assert max(run.cached_read) == ceiling


class TestLatencyModel:
    def test_cached_must_be_faster(self):
        with pytest.raises(ValueError):
            LatencyModel(per_uncached_token_ms=0.01, per_cached_token_ms=0.01)

    def test_clock_rejects_backwards_motion(self):
        """The store keeps replay time: a call sent before the store's last
        access is rejected, records nothing, and the store's time stays put."""
        transcript = generate(small_spec(sessions=1))[0]
        mode = StrategyMode.FULL_CONTEXT
        layout = session_layout(transcript, mode)
        trace = CacheTrace(Timeline([transcript], 0), mode, builtin_policy("gpt-4o"))
        prompt = layout.template[:layout.lengths[0]]

        def later(now_s):
            return access(trace.store, prompt, len(prompt), now_s)

        later(100.0)
        with pytest.raises(ValueError, match="never go back"):
            replay_call(trace, 0, layout, 1, session_seed=0)
        assert trace.cache_write == []
        assert later(100.0)[0] > 0

    @pytest.mark.parametrize("span_s, session", [(1e308, "s000"), (4e307, "s002")])
    def test_clock_past_the_bound_names_its_session(self, span_s, session):
        """Sessions that each span a finite time can still carry the run's
        clock past ``MAX_CLOCK_S``: the timeline names the first session by
        whose end it does, before any store sees an infinite time."""
        transcripts = [replace(t, timestamps=(0.0,) * (len(t.timestamps) - 1) + (span_s,))
                       for t in generate(small_spec(sessions=3))]
        with pytest.raises(ValueError, match=f"session {session}: .* MAX_CLOCK_S"):
            run_condition(transcripts, StrategyMode.FULL_CONTEXT,
                          builtin_policy("gpt-4o"), QUIET)

    @pytest.mark.parametrize("stamp", [math.nan, math.inf])
    def test_clock_rejects_non_finite_steps(self, stamp):
        """A non-finite final timestamp would make the next session's start
        time non-finite; the transcript rejects it when it is built."""
        first = generate(small_spec(sessions=1))[0]
        with pytest.raises(TranscriptValidationError, match="finite"):
            replace(first, timestamps=first.timestamps[:-1] + (stamp,))
