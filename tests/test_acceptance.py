"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Several criteria drive the full pipeline at reduced but honest
scale; every tolerance is pinned here, not tuned at runtime.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from time import perf_counter

import numpy as np
import pytest
import scipy.stats

from cachesim import (AblationGrid, CacheMode, CacheStore, LatencyModel,
                      PriceSchedule, ProviderPolicy, StrategyMode, UsageRecord,
                      WorkloadSpec, access, builtin_policy, generate, load_config,
                      price_call, run_condition, synth_tokens, welch_t)
from cachesim.cli import main
from cachesim.config import config_from_dict, to_json
from cachesim.runner import run_ablation as _run_ablation
from reference import oracle_access

CACHING_MODES = (StrategyMode.FULL_CONTEXT, StrategyMode.SYSTEM_PROMPT,
                 StrategyMode.EXCLUDE_TOOL_RESULTS)


def _ok(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS - {message}")


# -- 1. cache engine vs brute-force oracle ------------------------------------

_POLICY_GRID = [(1, 1), (1024, 1), (1024, 128), (4096, 1), (4096, 128)]
_PRICES = PriceSchedule(1.0, 2.0, 0.1)


def _random_policy(rng: random.Random) -> ProviderPolicy:
    min_tokens, gran = rng.choice(_POLICY_GRID)
    return ProviderPolicy(
        name="rand", min_cache_tokens=min_tokens, granularity_tokens=gran,
        ttl_seconds=rng.choice([1.0, 300.0]), refresh_on_read=rng.random() < 0.5,
        mode=CacheMode.AUTOMATIC, prices=_PRICES)


def _state(store: CacheStore) -> list[tuple[int, float]]:
    """Each engine entry's length and the expiry reference its purge uses."""
    return [(e.length, e.last_used_at) for e in store.snapshot()]


def test_acceptance_1_oracle_equivalence():
    """>= 100,000 randomized accesses (reads and writes), engine == oracle on
    the read, the write and the resulting store of each, across the full
    policy grid, in under 60 s."""
    rng = random.Random(0xCAC8E)
    comparisons = 0
    scenarios = 0
    start = perf_counter()
    while comparisons < 100_000:
        scenarios += 1
        policy = _random_policy(rng)
        if policy.min_cache_tokens >= 4096:
            pool_len, n_bases, steps = 4400, 2, 22
        elif policy.min_cache_tokens >= 1024:
            pool_len, n_bases, steps = 1300, 3, 30
        else:
            pool_len, n_bases, steps = 64, 4, 60
        bases = [synth_tokens(pool_len, rng.getrandbits(48)) for _ in range(n_bases)]
        store = CacheStore(policy)
        expected_entries: list = []
        now = 0.0
        for _ in range(steps):
            now += rng.random() * policy.ttl_seconds * 0.6
            prompt = bases[rng.randrange(n_bases)][:rng.randint(1, pool_len)]
            if rng.random() < 0.25:
                prompt = prompt.copy()
                prompt[rng.randrange(len(prompt))] = 70 + rng.randrange(8)
            limit = rng.randint(0, len(prompt)) if rng.random() < 0.45 else 0
            read, write, expected_entries = oracle_access(
                expected_entries, prompt, limit, now, policy)
            got = access(store, prompt, limit, now)
            assert got == (read, write), (
                f"engine {got} != oracle {(read, write)} "
                f"(policy {policy.min_cache_tokens}/{policy.granularity_tokens}, now {now})")
            assert _state(store) == [(e.length, e.expires_from(policy))
                                     for e in expected_entries]
            comparisons += 1
    elapsed = perf_counter() - start
    assert comparisons >= 100_000
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _ok(1, f"{comparisons} access/oracle agreements over {scenarios} randomized "
           f"interleavings in {elapsed:.1f}s")


# -- 2. pricing exactness ------------------------------------------------------

def test_acceptance_2_pricing_exactness():
    """Twelve hand-built usage records across all four policies priced to
    relative error <= 1e-12 against exact rational arithmetic."""
    M = Fraction(10) ** 6
    F = Fraction
    cases = [
        # (policy, usage, exact hand arithmetic)
        ("gpt-4o", UsageRecord(10_000, 0, 0, 0),
         F(10_000) * F("2.50") / M),
        ("gpt-4o", UsageRecord(1_234, 5_678, 0, 910),
         (F(1_234) * F("2.50") + F(5_678) * F("1.25") + F(910) * F("10.00")) / M),
        ("gpt-5.2", UsageRecord(50_000, 0, 0, 0),
         F(50_000) * F("1.75") / M),
        ("gpt-5.2", UsageRecord(0, 100_000, 0, 0),
         F(100_000) * F("0.175") / M),
        ("gpt-5.2", UsageRecord(3, 7, 11, 13),
         (F(3) * F("1.75") + F(7) * F("0.175") + F(13) * F("14.00")) / M),
        ("claude-sonnet-4.5", UsageRecord(0, 0, 10_000, 0),
         F(10_000) * F("3.75") / M),
        ("claude-sonnet-4.5", UsageRecord(1_000, 2_000, 3_000, 400),
         (F(1_000) * F("3.00") + F(2_000) * F("0.30")
          + F(3_000) * F("3.75") + F(400) * F("15.00")) / M),
        ("claude-sonnet-4.5", UsageRecord(0, 0, 0, 0), F(0)),
        ("gemini-2.5-pro", UsageRecord(100_000, 50_000, 0, 2_000),
         (F(100_000) * F("1.25") + F(50_000) * F("0.125") + F(2_000) * F("10.00")) / M),
        ("gemini-2.5-pro", UsageRecord(200_000, 0, 0, 0),
         F(200_000) * F("1.25") / M),  # boundary itself stays tier 1
        ("gemini-2.5-pro", UsageRecord(250_000, 0, 0, 0),
         F(250_000) * F("2.50") / M),
        ("gemini-2.5-pro", UsageRecord(150_000, 100_000, 0, 5_000),
         (F(150_000) * F("2.50") + F(100_000) * F("0.250") + F(5_000) * F("15.00")) / M),
    ]
    assert len(cases) == 12
    for name, usage, exact in cases:
        columns = UsageRecord(*(np.array([count]) for count in usage))
        got = price_call(columns, builtin_policy(name)).tolist()[0]
        if exact == 0:
            assert got == 0.0
        else:
            rel = abs(got - float(exact)) / float(exact)
            assert rel <= 1e-12, f"{name} {usage}: rel error {rel}"
    _ok(2, "12 hand-priced usage records match exact arithmetic to 1e-12")


# -- 3. threshold control ------------------------------------------------------

def _threshold_spec(system_tokens: int) -> WorkloadSpec:
    # Sized so no prompt in the 500-token arm ever reaches 1024 tokens and
    # none in the 2000-token arm reaches 4096.
    return WorkloadSpec(
        system_prompt_tokens=system_tokens, question_tokens=100, tool_calls=2,
        tool_call_tokens=10, tool_result_tokens=100, reasoning_tokens_per_turn=20,
        final_answer_tokens=20, inter_call_gap_seconds=2.0, sessions=3, seed=33)


QUIET_LATENCY = LatencyModel(base_ms=50.0, per_uncached_token_ms=0.05,
                             per_cached_token_ms=0.005, per_write_token_ms=0.01,
                             noise_sigma=0.0, seed=4)


def test_acceptance_3_threshold_control():
    """500-token system prompts cache nothing anywhere; 2000-token prompts
    cache on the min-1024 policies but not on gemini (min 4096)."""
    small = generate(_threshold_spec(500))
    larger = generate(_threshold_spec(2_000))
    for policy in (builtin_policy(n) for n in
                   ("gpt-4o", "gpt-5.2", "claude-sonnet-4.5", "gemini-2.5-pro")):
        for mode in StrategyMode:
            run = run_condition(small, mode, policy, QUIET_LATENCY, warmup_sessions=1)
            reads = sum(run.cached_read)
            assert reads == 0, f"{policy.name}/{mode.value} cached below threshold"
        for mode in CACHING_MODES:
            run = run_condition(larger, mode, policy, QUIET_LATENCY, warmup_sessions=1)
            reads = sum(run.cached_read)
            if policy.name == "gemini-2.5-pro":
                assert reads == 0, "gemini cached below its 4096 minimum"
            else:
                assert reads > 0, f"{policy.name}/{mode.value} failed to cache at 2000"
        baseline = run_condition(larger, StrategyMode.NO_CACHE, policy,
                                 QUIET_LATENCY, warmup_sessions=1)
        assert sum(baseline.cached_read) == 0
    _ok(3, "below-minimum prompts never cache; 2000-token prompts cache "
           "exactly on the min-1024 policies")


# -- 4. asymptotic savings bound ----------------------------------------------

def test_acceptance_4_asymptotic_savings():
    """Input-dominated 50k-token workload, system-prompt mode, warmup 1:
    steady-state per-call input saving within 90 +- 5 points for gpt-5.2,
    and whole-session savings vs no-cache >= 85%."""
    g52 = builtin_policy("gpt-5.2")
    claude = builtin_policy("claude-sonnet-4.5")
    assert g52.prices.cached_read_per_mtok / g52.prices.input_per_mtok == pytest.approx(0.1, abs=1e-12)
    assert claude.prices.cached_read_per_mtok / claude.prices.input_per_mtok == pytest.approx(0.1, abs=1e-12)

    spec = WorkloadSpec(
        system_prompt_tokens=50_000, question_tokens=100, tool_calls=9,
        tool_call_tokens=1, tool_result_tokens=200, reasoning_tokens_per_turn=1,
        final_answer_tokens=1, inter_call_gap_seconds=5.0, sessions=5, seed=404)
    transcripts = generate(spec)
    spo = run_condition(transcripts, StrategyMode.SYSTEM_PROMPT, g52,
                        QUIET_LATENCY, warmup_sessions=1)
    baseline = run_condition(transcripts, StrategyMode.NO_CACHE, g52,
                             QUIET_LATENCY, warmup_sessions=1)

    uncached, cached_read = spo.uncached[-1], spo.cached_read[-1]
    rate = g52.prices
    with_cache = (uncached * rate.input_per_mtok
                  + cached_read * rate.cached_read_per_mtok)
    without = (uncached + cached_read) * rate.input_per_mtok
    steady_pct = 100.0 * (1.0 - with_cache / without)
    assert 85.0 <= steady_pct <= 95.0, f"steady-state saving {steady_pct:.2f}%"

    session_savings = [
        100.0 * (1.0 - cached / plain)
        for cached, plain in zip(spo.session_cost_usd, baseline.session_cost_usd)]
    assert all(s >= 85.0 for s in session_savings), session_savings
    _ok(4, f"gpt-5.2 steady-state input saving {steady_pct:.1f}%, session savings "
           f"{min(session_savings):.1f}%..{max(session_savings):.1f}% (>= 85%)")


# -- 5. strategy directionality -------------------------------------------------

def test_acceptance_5_full_context_ttft_regression():
    """On tool-heavy sessions with write overhead in the latency model,
    full-context TTFT exceeds system-prompt TTFT with Welch p < 0.05 at
    n = 40 (the breakpoint-mode policy expresses per-strategy writes)."""
    spec = WorkloadSpec(system_prompt_tokens=10_000, tool_calls=20, sessions=40, seed=11)
    transcripts = generate(spec)
    policy = builtin_policy("claude-sonnet-4.5")
    model = LatencyModel(base_ms=50.0, per_uncached_token_ms=0.05,
                         per_cached_token_ms=0.002, per_write_token_ms=0.6,
                         noise_sigma=0.1, seed=5)
    full = run_condition(transcripts, StrategyMode.FULL_CONTEXT, policy, model)
    spo = run_condition(transcripts, StrategyMode.SYSTEM_PROMPT, policy, model)
    full_ttfts = full.session_ttft_ms
    spo_ttfts = spo.session_ttft_ms
    assert len(full_ttfts) == len(spo_ttfts) == 40
    mean_full = sum(full_ttfts) / 40
    mean_spo = sum(spo_ttfts) / 40
    result = welch_t(full_ttfts, spo_ttfts)
    assert mean_full > mean_spo
    assert result.p_value < 0.05
    _ok(5, f"full-context mean TTFT {mean_full:.0f}ms > system-prompt "
           f"{mean_spo:.0f}ms, Welch p = {result.p_value:.2e}")


# -- 6. ablation grids -----------------------------------------------------------

def test_acceptance_6_ablation_monotonicity_and_stability(tmp_path):
    """Prompt-size grid: per (policy, caching mode) median cost savings are
    nondecreasing. Tool-count grid: best-mode savings for gpt-5.2 and
    gpt-4o stay within a 10-point band."""
    config = load_config("configs/ablation.json")

    prompt_result = _run_ablation(
        config, AblationGrid("prompt-size", (2_000, 5_000, 10_000, 20_000, 50_000)),
        out_dir=tmp_path / "prompt")
    series: dict[tuple[str, str], list[float]] = {}
    for row in prompt_result:
        if row.cost_savings_pct is not None:
            series.setdefault((row.policy, row.mode), []).append(row.cost_savings_pct)
    assert len(series) == 4 * 3
    for (policy, mode), savings in series.items():
        assert len(savings) == 5
        for earlier, later in zip(savings, savings[1:]):
            assert later >= earlier - 1e-9, (
                f"{policy}/{mode} savings not monotone: {savings}")

    tool_config = replace(config, policies=tuple(
        p for p in config.policies if p.name in ("gpt-5.2", "gpt-4o")))
    tool_result = _run_ablation(
        tool_config, AblationGrid("tool-count", (3, 5, 10, 20, 50)),
        out_dir=tmp_path / "tool")
    best_by_policy: dict[str, dict[int, float]] = {}
    for row in tool_result:
        if row.cost_savings_pct is None:
            continue
        per_value = best_by_policy.setdefault(row.policy, {})
        per_value[row.value] = max(per_value.get(row.value, -1e9), row.cost_savings_pct)
    spans = {}
    for policy, per_value in best_by_policy.items():
        values = [per_value[v] for v in sorted(per_value)]
        assert len(values) == 5
        spans[policy] = max(values) - min(values)
        assert spans[policy] <= 10.0, (
            f"{policy} best-mode savings drift {spans[policy]:.1f}pp: {values}")
    _ok(6, "prompt-size savings monotone for all 12 (policy, mode) series; "
           f"tool-count best-mode drift gpt-5.2 {spans['gpt-5.2']:.1f}pp, "
           f"gpt-4o {spans['gpt-4o']:.1f}pp (<= 10pp)")


# -- 7. Welch t-test vs reference oracle -----------------------------------------

def test_acceptance_7_welch_against_reference():
    """>= 20 cases against the reference implementation, p to 1e-8 absolute,
    including the worked 5-vs-5 example."""
    worked = welch_t([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert worked.t == pytest.approx(-1.0, abs=1e-12)
    assert worked.dof == pytest.approx(8.0, abs=1e-12)
    assert worked.p_value == pytest.approx(0.3466, abs=5e-5)

    rng = random.Random(7)
    checked = 1
    for _ in range(29):
        na, nb = rng.randint(2, 40), rng.randint(2, 40)
        scale = 10 ** rng.randint(-2, 3)
        a = [rng.gauss(0, 1) * scale for _ in range(na)]
        b = [rng.gauss(rng.uniform(-1, 1), rng.uniform(0.5, 2)) * scale
             for _ in range(nb)]
        mine = welch_t(a, b)
        reference = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert mine.p_value == pytest.approx(float(reference.pvalue), abs=1e-8)
        assert mine.t == pytest.approx(float(reference.statistic), rel=1e-9, abs=1e-12)
        checked += 1
    assert checked >= 20
    _ok(7, f"{checked} Welch cases match the reference oracle to 1e-8 in p")


# -- 8. byte-identical artifacts ---------------------------------------------------

def test_acceptance_8_deterministic_artifacts(tmp_path):
    """Identical configs give byte-identical per-call CSVs."""
    config = {
        "master_seed": 2026,
        "policies": ["gpt-4o", "gpt-5.2", "claude-sonnet-4.5", "gemini-2.5-pro"],
        "modes": ["no-cache", "full-context", "system-prompt", "exclude-tool-results"],
        "workload": {
            "system_prompt_tokens": 1500, "question_tokens": 40, "tool_calls": 2,
            "tool_call_tokens": 12, "tool_result_tokens": 60,
            "reasoning_tokens_per_turn": 18, "final_answer_tokens": 25,
            "inter_call_gap_seconds": 1.0, "sessions": 3,
        },
        "latency": {"default": {
            "base_ms": 60.0, "per_uncached_token_ms": 0.05,
            "per_cached_token_ms": 0.004, "per_write_token_ms": 0.015,
            "noise_sigma": 0.2,
        }},
        "warmup_sessions": 1,
        "output_dir": str(tmp_path / "unused"),
    }
    # exercise the documented round-trip while we are at it
    assert config_from_dict(to_json(config_from_dict(config))) == config_from_dict(config)

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    digests = []
    for run_name in ("r1", "r2", "r3"):
        out = tmp_path / run_name
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == 0
        digests.append(hashlib.sha256((out / "per_call.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1] == digests[2]
    _ok(8, f"three runs share per-call CSV digest {digests[0][:12]}...")
