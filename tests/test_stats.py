"""t-test machinery against a reference statistics implementation."""

from __future__ import annotations

import math

import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from cachesim import (Comparison, ConditionSamples, ConfigError,
                      UndefinedBaselineError, compare, summarize_experiment, welch_t)
from cachesim.config import to_json
from cachesim.stats import _mean, regularized_incomplete_beta, student_t_two_sided_p
from cachesim.runner import format_report_table

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
samples = st.lists(finite_floats, min_size=2, max_size=30)


class TestIncompleteBeta:
    def test_boundaries(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    @given(a=st.floats(0.05, 60.0), b=st.floats(0.05, 60.0), x=st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_matches_scipy_everywhere(self, a, b, x):
        mine = regularized_incomplete_beta(a, b, x)
        reference = float(scipy.special.betainc(a, b, x))
        assert mine == pytest.approx(reference, abs=1e-10)

    def test_tabulated_student_t_critical_values(self):
        """Two-sided tail probabilities at textbook critical points.

        t values are the usual alpha = 0.05 and alpha = 0.01 two-sided
        critical values; the CDF evaluated there must give the tabulated
        tail mass back to table precision, and must agree with the
        reference implementation far more tightly.
        """
        critical_005 = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
                        6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
                        15: 2.131, 20: 2.086, 30: 2.042, 60: 2.000}
        critical_001 = {1: 63.657, 2: 9.925, 3: 5.841, 5: 4.032, 10: 3.169,
                        15: 2.947, 20: 2.845, 30: 2.750}
        cases = [(dof, t, 0.05) for dof, t in critical_005.items()]
        cases += [(dof, t, 0.01) for dof, t in critical_001.items()]
        assert len(cases) >= 20
        for dof, t, alpha in cases:
            p = student_t_two_sided_p(t, dof)
            assert p == pytest.approx(alpha, abs=5e-4)  # tables carry 3-4 decimals
            reference = 2.0 * float(scipy.stats.t.sf(t, dof))
            assert p == pytest.approx(reference, abs=1e-10)

    def test_p_at_zero_is_exactly_one(self):
        for dof in (1, 2.5, 8, 40):
            assert student_t_two_sided_p(0.0, dof) == 1.0

    @given(dof=st.floats(1.0, 100.0), t1=st.floats(0.01, 20.0), t2=st.floats(0.01, 20.0))
    @settings(max_examples=100)
    def test_p_decreases_in_magnitude_of_t(self, dof, t1, t2):
        lo, hi = sorted((t1, t2))
        assert student_t_two_sided_p(hi, dof) <= student_t_two_sided_p(lo, dof) + 1e-12


def test_mean_sums_left_to_right():
    """Means add their values in order, so the last digits do not depend on
    the Python version (since 3.12, ``sum()`` of floats is compensated and
    gives exactly 1.0 here)."""
    total = 0.0
    for value in [0.1] * 10:
        total += value
    assert total == 0.9999999999999999
    assert _mean([0.1] * 10) == total / 10 == 0.09999999999999999


class TestWelch:
    def test_identical_samples(self):
        result = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t == 0.0
        assert result.p_value == 1.0

    def test_worked_example(self):
        result = welch_t([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert result.t == pytest.approx(-1.0, abs=1e-12)
        assert result.dof == pytest.approx(8.0, abs=1e-12)
        assert result.p_value == pytest.approx(0.3466, abs=5e-5)
        reference = scipy.stats.ttest_ind([1, 2, 3, 4, 5], [2, 3, 4, 5, 6],
                                          equal_var=False)
        assert result.p_value == pytest.approx(float(reference.pvalue), abs=1e-10)

    # The zero-variance rule's t and p are no measurement: a comparison of
    # such samples records none of them, nor a significance.
    def test_zero_variance_equal_means(self):
        result = welch_t([2.0, 2.0], [2.0, 2.0])
        assert (result.t, result.p_value) == (0.0, 1.0)
        assert result.zero_variance
        comparison = compare([2.0, 2.0], [2.0, 2.0])
        assert comparison.zero_variance and comparison.improvement_pct == 0.0
        assert (comparison.t_stat, comparison.p_value, comparison.significant) == (
            None, None, None)

    def test_zero_variance_unequal_means(self):
        result = welch_t([0.0, 0.0], [1.0, 1.0])
        assert result.p_value == 0.0
        assert result.zero_variance
        assert math.isinf(result.t)
        comparison = compare([2.0, 2.0], [1.0, 1.0])
        assert comparison.zero_variance and comparison.improvement_pct == 50.0
        assert (comparison.t_stat, comparison.dof, comparison.p_value,
                comparison.significant) == (None, 2.0, None, None)

    def test_constant_samples_are_zero_variance_despite_round_off(self):
        # The plain mean of 40 copies of 0.1 + 0.2 is not that value, so
        # deviations from it used to leave a variance of about 1e-31.
        result = welch_t([0.1 + 0.2] * 40, [0.7] * 40)
        assert result.zero_variance
        assert (result.t, result.p_value) == (-math.inf, 0.0)
        comparison = compare([0.7] * 40, [0.1 + 0.2] * 40)
        assert comparison.zero_variance and comparison.p_value is None

    def test_short_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_t([1.0], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            welch_t([1.0, float("nan")], [1.0, 2.0])

    @staticmethod
    def _well_conditioned(a, b) -> bool:
        """Skip draws where the reference implementation itself loses precision
        (near-constant samples trigger catastrophic cancellation in scipy)."""
        def spread_ok(x):
            m = sum(x) / len(x)
            v = sum((xi - m) ** 2 for xi in x) / (len(x) - 1)
            return v > 1e-12 * (1.0 + m * m)
        return spread_ok(a) and spread_ok(b)

    @given(a=samples, b=samples)
    @settings(max_examples=150)
    def test_matches_scipy_welch(self, a, b):
        if not self._well_conditioned(a, b):
            return
        result = welch_t(a, b)
        reference = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert result.t == pytest.approx(float(reference.statistic), rel=1e-9, abs=1e-12)
        assert result.p_value == pytest.approx(float(reference.pvalue), abs=1e-10)

    @given(a=samples, b=samples)
    @settings(max_examples=80)
    def test_antisymmetry(self, a, b):
        fwd = welch_t(a, b)
        rev = welch_t(b, a)
        assert fwd.t == pytest.approx(-rev.t, rel=1e-12, abs=1e-15)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)

    @given(a=st.lists(st.floats(0.1, 1e3), min_size=3, max_size=15),
           b=st.lists(st.floats(0.1, 1e3), min_size=3, max_size=15),
           scale=st.floats(1e-3, 1e3))
    @settings(max_examples=80)
    def test_scale_invariance(self, a, b, scale):
        plain = welch_t(a, b)
        scaled = welch_t([scale * x for x in a], [scale * x for x in b])
        if plain.zero_variance or scaled.zero_variance:
            return
        assert scaled.t == pytest.approx(plain.t, rel=1e-7, abs=1e-9)
        assert scaled.dof == pytest.approx(plain.dof, rel=1e-7)
        assert scaled.p_value == pytest.approx(plain.p_value, abs=1e-8)

    @pytest.mark.parametrize("factor", [2.0**600, 1e200], ids=["2**600", "1e200"])
    @given(a=samples, b=samples)
    @settings(max_examples=60)
    def test_huge_finite_samples_match_scipy(self, factor, a, b):
        """Samples near 1e200 give the t-test of the unscaled samples instead
        of an ``OverflowError``; a power-of-two factor changes no digit."""
        if not self._well_conditioned(a, b):
            return
        result = welch_t([factor * x for x in a], [factor * x for x in b])
        reference = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert result.t == pytest.approx(float(reference.statistic), rel=1e-9, abs=1e-12)
        assert result.p_value == pytest.approx(float(reference.pvalue), abs=1e-10)
        if factor == 2.0**600:
            assert result == welch_t(a, b)


class TestCompare:
    def test_eighty_percent_improvement(self):
        result = compare([100.0, 100.0, 100.0], [20.0, 20.0, 20.1])
        assert result.improvement_pct == pytest.approx(80.0, abs=0.1)

    def test_regression_is_negative(self):
        result = compare([100.0, 99.0, 101.0], [108.8, 108.8, 108.8])
        assert result.improvement_pct == pytest.approx(-8.8, abs=0.3)
        assert result.improvement_pct < 0

    def test_equal_means_zero_improvement(self):
        result = compare([5.0, 7.0], [5.0, 7.0])
        assert result.improvement_pct == 0.0
        assert result.p_value == 1.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(UndefinedBaselineError):
            compare([1.0, -1.0], [2.0, 3.0])

    def test_significance_flag(self):
        a = [10.0, 10.1, 9.9, 10.05, 9.95]
        b = [5.0, 5.1, 4.9, 5.05, 4.95]
        assert compare(a, b).significant


class TestSummarize:
    @staticmethod
    def conditions(policy="gpt-4o"):
        return [
            ConditionSamples(policy, "no-cache", (100.0, 101.0, 99.0), (800.0, 810.0, 790.0)),
            ConditionSamples(policy, "system-prompt", (21.5, 21.4, 21.6), (600.0, 605.0, 595.0)),
            ConditionSamples(policy, "full-context", (22.2, 22.1, 22.3), (700.0, 705.0, 695.0)),
        ]

    def test_best_mode_selection(self):
        report = summarize_experiment(self.conditions())
        policy = report.policies[0]
        assert policy.best_cost_mode == "system-prompt"
        assert policy.best_ttft_mode == "system-prompt"
        improvements = {m.mode: m.cost.improvement_pct for m in policy.modes}
        assert improvements["system-prompt"] > improvements["full-context"]

    def test_normalized_baseline_is_100(self):
        report = summarize_experiment(self.conditions())
        mode = report.policies[0].modes[0]
        assert mode.cost_normalized_pct == pytest.approx(
            100.0 * mode.cost.variant_mean / report.policies[0].baseline_cost_mean)

    def test_missing_baseline_is_config_error(self):
        with pytest.raises(ConfigError):
            summarize_experiment([
                ConditionSamples("gpt-4o", "system-prompt", (1.0, 2.0), (1.0, 2.0)),
            ])

    def test_baseline_only_reports_means_without_comparisons(self):
        report = summarize_experiment([
            ConditionSamples("gpt-4o", "no-cache", (10.0, 12.0), (5.0, 6.0)),
        ])
        policy = report.policies[0]
        assert policy.modes == ()
        assert policy.best_cost_mode is None
        assert policy.baseline_cost_mean == pytest.approx(11.0)

    def test_all_modes_equal_baseline(self):
        same = (10.0, 11.0, 12.0)
        report = summarize_experiment([
            ConditionSamples("p", "no-cache", same, same),
            ConditionSamples("p", "full-context", same, same),
        ])
        mode = report.policies[0].modes[0]
        assert mode.cost.improvement_pct == 0.0
        assert mode.ttft.improvement_pct == 0.0

    def test_single_session_samples_rejected(self):
        with pytest.raises(ValueError):
            summarize_experiment([
                ConditionSamples("p", "no-cache", (1.0,), (1.0,)),
                ConditionSamples("p", "full-context", (1.0,), (1.0,)),
            ])

    @pytest.mark.parametrize("mode, costs", [
        ("no-cache", (1e308, 1.7e308)),       # the baseline mean overflows
        ("full-context", (1.5e307, 1.5e307)),  # the improvement overflows
    ])
    def test_non_finite_mean_or_improvement_names_policy_and_mode(self, mode, costs):
        samples = {"no-cache": (1.0, 2.0), "full-context": (1.0, 2.0), mode: costs}
        with pytest.raises(ValueError, match=f"policy 'p' under mode '{mode}': .* not finite"):
            summarize_experiment([ConditionSamples("p", name, values, (5.0, 6.0))
                                  for name, values in samples.items()])

    def test_report_to_dict_has_both_metrics_per_mode(self):
        data = to_json(summarize_experiment(self.conditions()))
        modes = data["policies"][0]["modes"]
        assert [m["mode"] for m in modes] == ["system-prompt", "full-context"]
        for mode in modes:
            assert set(mode) >= {"cost", "ttft", "cost_normalized_pct",
                                 "ttft_normalized_pct"}
            assert "p_value" in mode["cost"] and "p_value" in mode["ttft"]

    def test_table_prints_na_for_zero_variance_p_values(self):
        report = summarize_experiment([
            ConditionSamples("p", "no-cache", (2.0, 2.0), (800.0, 810.0)),
            ConditionSamples("p", "full-context", (1.0, 1.0), (600.0, 605.0)),
        ])
        mode = report.policies[0].modes[0]
        assert mode.cost.zero_variance and not mode.ttft.zero_variance
        row = format_report_table(report).splitlines()[3].split()
        assert row[-2] == "n/a"
        assert float(row[-1]) == pytest.approx(mode.ttft.p_value, rel=1e-2)


def test_comparison_round_trips_to_dict():
    result = compare([10.0, 11.0], [5.0, 6.0])
    data = to_json(result)
    assert isinstance(result, Comparison)
    assert data["improvement_pct"] == result.improvement_pct
    assert set(data) == {"baseline_mean", "variant_mean", "improvement_pct",
                         "t_stat", "dof", "p_value", "significant", "zero_variance"}
