"""Built-in policy data and pricing arithmetic."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachesim import (CacheMode, PriceSchedule, ProviderPolicy, UsageRecord,
                      builtin_policies, builtin_policy, policy_from_dict,
                      price_call)
from cachesim.config import to_json


def exact_price(usage: UsageRecord, policy: ProviderPolicy) -> Fraction:
    """Independent exact-arithmetic pricing used to referee the float path."""
    p = policy.prices
    prompt_total = usage.uncached_input + usage.cached_read
    tiered = (p.tier_boundary_tokens is not None and prompt_total > p.tier_boundary_tokens)

    def rate(value) -> Fraction:
        return Fraction(str(value)) if value is not None else Fraction(0)

    in_rate = rate(p.tier2_input_per_mtok if tiered else p.input_per_mtok)
    read_rate = rate(p.tier2_cached_read_per_mtok if tiered else p.cached_read_per_mtok)
    out_rate = rate(p.tier2_output_per_mtok if tiered else p.output_per_mtok)
    write_rate = rate(p.cache_write_per_mtok)
    total = (usage.uncached_input * in_rate + usage.cached_read * read_rate
             + usage.cache_write * write_rate + usage.output * out_rate)
    return total / 10**6


def price_one(usage: UsageRecord, policy: ProviderPolicy) -> float:
    """``price_call`` on columns of one call."""
    columns = UsageRecord(*(np.array([count]) for count in usage))
    return price_call(columns, policy).tolist()[0]


def assert_exact(usage, policy):
    expected = exact_price(usage, policy)
    got = price_one(usage, policy)
    if expected == 0:
        assert got == 0.0
    else:
        assert abs(got - float(expected)) <= 1e-12 * abs(float(expected))


class TestBuiltins:
    def test_exactly_four(self):
        assert len(builtin_policies()) == 4

    def test_minimum_tokens(self):
        mins = {p.name: p.min_cache_tokens for p in builtin_policies()}
        assert mins == {"gpt-4o": 1024, "gpt-5.2": 1024,
                        "claude-sonnet-4.5": 1024, "gemini-2.5-pro": 4096}

    def test_gpt4o_rates(self):
        p = builtin_policy("gpt-4o").prices
        assert (p.input_per_mtok, p.output_per_mtok, p.cached_read_per_mtok) == (2.50, 10.00, 1.25)
        assert p.cache_write_per_mtok is None

    def test_gpt52_rates(self):
        p = builtin_policy("gpt-5.2").prices
        assert (p.input_per_mtok, p.output_per_mtok, p.cached_read_per_mtok) == (1.75, 14.00, 0.175)
        assert p.cached_read_per_mtok / p.input_per_mtok == pytest.approx(0.1, abs=1e-12)

    def test_claude_rates(self):
        p = builtin_policy("claude-sonnet-4.5").prices
        assert (p.input_per_mtok, p.output_per_mtok, p.cached_read_per_mtok) == (3.00, 15.00, 0.30)
        assert p.cache_write_per_mtok == 3.75

    def test_gemini_rates_and_tiers(self):
        p = builtin_policy("gemini-2.5-pro").prices
        assert (p.input_per_mtok, p.output_per_mtok, p.cached_read_per_mtok) == (1.25, 10.00, 0.125)
        assert p.tier_boundary_tokens == 200_000
        assert (p.tier2_input_per_mtok, p.tier2_output_per_mtok,
                p.tier2_cached_read_per_mtok) == (2.50, 15.00, 0.250)
        assert p.storage_per_mtok_hour == 4.50

    def test_modes(self):
        modes = {p.name: p.mode for p in builtin_policies()}
        assert modes["claude-sonnet-4.5"] is CacheMode.EXPLICIT_BREAKPOINTS
        assert all(m is CacheMode.AUTOMATIC for n, m in modes.items()
                   if n != "claude-sonnet-4.5")

    def test_refresh_default_only_for_claude(self):
        flags = {p.name: p.refresh_on_read for p in builtin_policies()}
        assert flags == {"gpt-4o": False, "gpt-5.2": False,
                         "claude-sonnet-4.5": True, "gemini-2.5-pro": False}

    def test_defaults_overridable(self):
        for policy in builtin_policies():
            p = replace(policy, granularity_tokens=1, ttl_seconds=60.0, refresh_on_read=True)
            assert p.granularity_tokens == 1
            assert p.ttl_seconds == 60.0
            assert p.refresh_on_read

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_policy("gpt-9000")


class TestPriceCall:
    def test_gpt4o_uncached_only(self):
        usage = UsageRecord(10_000, 0, 0, 0)
        assert price_one(usage, builtin_policy("gpt-4o")) == pytest.approx(0.025, rel=1e-12)

    def test_claude_write_only(self):
        usage = UsageRecord(0, 0, 10_000, 0)
        assert price_one(usage, builtin_policy("claude-sonnet-4.5")) == pytest.approx(0.0375, rel=1e-12)

    def test_gemini_tier2_input(self):
        usage = UsageRecord(250_000, 0, 0, 0)
        assert price_one(usage, builtin_policy("gemini-2.5-pro")) == pytest.approx(0.625, rel=1e-12)

    def test_gemini_boundary_is_exclusive(self):
        usage = UsageRecord(200_000, 0, 0, 0)
        got = price_one(usage, builtin_policy("gemini-2.5-pro"))
        assert got == pytest.approx(200_000 * 1.25e-6, rel=1e-12)

    def test_zero_usage_costs_zero_on_every_builtin(self):
        zero = UsageRecord(0, 0, 0, 0)
        for policy in builtin_policies():
            assert price_one(zero, policy) == 0.0

    @given(u1=st.integers(0, 10**6), r1=st.integers(0, 10**6),
           w1=st.integers(0, 10**6), o1=st.integers(0, 10**5),
           u2=st.integers(0, 10**6), r2=st.integers(0, 10**6),
           w2=st.integers(0, 10**6), o2=st.integers(0, 10**5))
    @settings(max_examples=60)
    def test_linearity_within_a_tier(self, u1, r1, w1, o1, u2, r2, w2, o2):
        policy = builtin_policy("claude-sonnet-4.5")
        a = UsageRecord(u1, r1, w1, o1)
        b = UsageRecord(u2, r2, w2, o2)
        both = UsageRecord(u1 + u2, r1 + r2, w1 + w2, o1 + o2)
        total = price_one(a, policy) + price_one(b, policy)
        assert price_one(both, policy) == pytest.approx(total, rel=1e-9, abs=1e-15)

    def test_columns_price_each_call_in_its_own_tier(self):
        """A column prices every call as that call alone, picking the
        gemini tier per call from its own prompt size."""
        policy = builtin_policy("gemini-2.5-pro")
        calls = [UsageRecord(250_000, 0, 0, 100), UsageRecord(1_000, 199_000, 0, 10),
                 UsageRecord(150_000, 60_000, 0, 0), UsageRecord(0, 0, 0, 0)]
        columns = UsageRecord(*(np.array(column) for column in zip(*calls)))
        got = price_call(columns, policy).tolist()
        assert got == [price_one(u, policy) for u in calls]
        for usage, cost in zip(calls, got):
            expected = exact_price(usage, policy)
            assert abs(cost - float(expected)) <= 1e-12 * float(expected)

    def test_read_discount_ratios(self):
        # cost(read-only) / cost(uncached-only) at equal counts
        expected = {"gpt-4o": 0.5, "gpt-5.2": 0.1,
                    "claude-sonnet-4.5": 0.1, "gemini-2.5-pro": 0.1}
        for policy in builtin_policies():
            reads = price_one(UsageRecord(0, 50_000, 0, 0), policy)
            uncached = price_one(UsageRecord(50_000, 0, 0, 0), policy)
            assert reads / uncached == pytest.approx(expected[policy.name], abs=1e-12)

    @given(u=st.integers(0, 10**7), r=st.integers(0, 10**7),
           w=st.integers(0, 10**7), o=st.integers(0, 10**6))
    @settings(max_examples=80)
    def test_matches_exact_arithmetic(self, u, r, w, o):
        for policy in builtin_policies():
            assert_exact(UsageRecord(u, r, w, o), policy)


def test_schedule_validation():
    with pytest.raises(ValueError):
        PriceSchedule(1.0, 2.0, 1.0)  # read not discounted
    with pytest.raises(ValueError):
        PriceSchedule(1.0, 2.0, 0.1, tier_boundary_tokens=100)  # tier2 missing


def test_policy_validation():
    prices = PriceSchedule(1.0, 2.0, 0.1)
    with pytest.raises(ValueError):
        ProviderPolicy("x", min_cache_tokens=64, granularity_tokens=128,
                       ttl_seconds=60, refresh_on_read=False,
                       mode=CacheMode.AUTOMATIC, prices=prices)


@pytest.mark.parametrize("path, bad", [
    (("ttl_seconds",), math.nan),
    (("ttl_seconds",), math.inf),
    (("ttl_seconds",), True),
    (("min_cache_tokens",), 4096.5),
    (("min_cache_tokens",), 4096.0),
    (("granularity_tokens",), True),
    (("refresh_on_read",), "yes"),
    (("prices", "input_per_mtok"), math.nan),
    (("prices", "output_per_mtok"), math.inf),
    (("prices", "cached_read_per_mtok"), -0.125),
    (("prices", "cache_write_per_mtok"), -1.0),
    (("prices", "storage_per_mtok_hour"), math.nan),
    (("prices", "tier_boundary_tokens"), 200_000.5),
    (("prices", "tier_boundary_tokens"), True),
    (("prices", "tier2_output_per_mtok"), math.inf),
    (("mode",), "explicit-breakpoints"),
    (("name",), 7),
])
def test_policy_rejects_bad_numbers(path, bad):
    """Non-finite TTLs and rates, negative rates, non-integer token
    counts, a non-string name and opportunistic segments on an
    explicit-breakpoints policy are rejected, naming the field."""
    data = to_json(builtin_policy("gemini-2.5-pro"))
    # Valid on this automatic policy, so every case fails on its own field.
    data["opportunistic_segments"] = True
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    with pytest.raises(ValueError, match=path[-1]):
        policy_from_dict(data)


def test_policy_json_round_trip():
    for policy in builtin_policies():
        assert policy_from_dict(to_json(policy)) == policy


def test_policy_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        policy_from_dict({"name": "x"})
