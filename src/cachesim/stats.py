"""Comparison statistics: t-tests, improvements, experiment summaries.

Two-sample comparisons use Welch's unequal-variance t-test,

    t = (mean_a - mean_b) / sqrt(s2_a/n_a + s2_b/n_b)

with Welch-Satterthwaite degrees of freedom, since nothing makes a
cached condition and its no-cache baseline share a variance. Two-sided
p-values come from the Student-t CDF evaluated through the regularized
incomplete beta function, computed here with the standard
continued-fraction expansion (modified Lentz), accurate to well under
1e-10 absolute.

Degenerate inputs follow fixed rules: two zero-variance samples with
equal means give t = 0, p = 1; with unequal means the difference is
certain, reported as t = +-inf, p = 0. Either way the ``zero_variance``
flag is set. Those values are a rule, not a measurement, so a
:class:`Comparison` of zero-variance samples records no t statistic,
p-value or significance (``None``, ``null`` in ``summary.json``, which
as JSON has no infinity).

The report dataclasses, :class:`ExperimentReport` down to
:class:`Comparison`, reach ``summary.json`` through
:func:`cachesim.config.to_json`, one JSON key per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigError, UndefinedBaselineError

_LENTZ_TINY = 1e-300
_LENTZ_EPS = 1e-15
_LENTZ_MAX_ITER = 300


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _LENTZ_TINY:
        d = _LENTZ_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _LENTZ_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = 1.0 + aa / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction failed to converge")


def regularized_incomplete_beta(a: float, b: float, x: float, *,
                                complement: float | None = None) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1].

    Callers that know ``1 - x`` to full precision (e.g. from the formula
    that produced ``x``) can pass it as ``complement``; recomputing it
    from ``x`` loses all significance when x is within an ulp of 1.
    """
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    xc = (1.0 - x) if complement is None else complement
    if x == 0.0 or xc == 0.0:
        return x if complement is None else (0.0 if x == 0.0 else 1.0)
    log_x = math.log1p(-xc) if x > 0.5 else math.log(x)
    log_xc = math.log1p(-x) if xc > 0.5 else math.log(xc)
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * log_x + b * log_xc)
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, xc) / b


def student_t_two_sided_p(t: float, dof: float) -> float:
    """Two-sided p-value of a Student-t statistic with ``dof`` degrees of freedom."""
    if dof <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    t2 = t * t
    x = dof / (dof + t2)
    xc = t2 / (dof + t2)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x, complement=xc)


@dataclass(frozen=True)
class TTestResult:
    t: float
    dof: float
    p_value: float
    zero_variance: bool = False


def left_sum(values: Sequence[float]) -> float:
    """``values`` added left to right from 0.0, as ``sum()`` of floats no
    longer does since Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def _mean(values: Sequence[float]) -> float:
    return left_sum(values) / len(values)


def _sample_variance(values: Sequence[float]) -> float:
    # Two passes over the data shifted by its first value, summed with
    # fsum (Chan, Golub & LeVeque 1983): a constant sample gives exactly 0,
    # where deviations from a rounded mean would leave round-off.
    shift = values[0]
    deltas = [v - shift for v in values]
    mean = math.fsum(deltas) / len(deltas)
    return math.fsum((d - mean) ** 2 for d in deltas) / (len(deltas) - 1)


def _validate_sample(values: Sequence[float], label: str) -> None:
    if len(values) < 2:
        raise ValueError(f"{label} needs at least 2 values, got {len(values)}")
    if any(not math.isfinite(v) for v in values):
        raise ValueError(f"{label} contains non-finite values")


def welch_t(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Welch's independent two-sample t-test.

    Both samples are first multiplied by the one power of two that brings
    their largest magnitude below 1, so no mean, variance, ``se`` or ``t``
    overflows however large the finite inputs. ``t``, ``dof`` and the
    zero-variance rule do not change with scale, and scaling by a power of
    two is exact (short of a value 2**1000 times smaller than the largest),
    so the result is the unscaled one to the last digit.
    """
    _validate_sample(a, "sample a")
    _validate_sample(b, "sample b")
    _, exponent = math.frexp(max(map(abs, (*a, *b))))
    a = [math.ldexp(v, -exponent) for v in a]
    b = [math.ldexp(v, -exponent) for v in b]
    na, nb = len(a), len(b)
    ma, mb = _mean(a), _mean(b)
    va, vb = _sample_variance(a), _sample_variance(b)

    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return TTestResult(t=0.0, dof=float(na + nb - 2), p_value=1.0,
                               zero_variance=True)
        t = math.inf if ma > mb else -math.inf
        return TTestResult(t=t, dof=float(na + nb - 2), p_value=0.0,
                           zero_variance=True)

    qa, qb = va / na, vb / nb
    se = math.sqrt(qa + qb)
    # Welch-Satterthwaite, normalized by the larger term so the ratio
    # arithmetic cannot underflow for denormal-scale variances.
    qmax = max(qa, qb)
    ra, rb = qa / qmax, qb / qmax
    dof = (ra + rb) ** 2 / (ra ** 2 / (na - 1) + rb ** 2 / (nb - 1))
    t = (ma - mb) / se
    return TTestResult(t=t, dof=dof, p_value=student_t_two_sided_p(t, dof))


@dataclass(frozen=True)
class Comparison:
    """A variant measured against its baseline."""

    baseline_mean: float
    variant_mean: float
    improvement_pct: float
    t_stat: float | None
    dof: float
    p_value: float | None
    significant: bool | None
    zero_variance: bool = False


def compare(baseline: Sequence[float], variant: Sequence[float],
            alpha: float = 0.05) -> Comparison:
    """Improvement of ``variant`` over ``baseline`` with significance at ``alpha``.

    Improvement is 100 * (baseline - variant) / baseline, so negative
    values mean the variant regressed. A zero-variance comparison has no
    t statistic, p-value or significance (``None``).
    """
    result = welch_t(baseline, variant)
    degenerate = result.zero_variance
    baseline_mean = _mean(baseline)
    variant_mean = _mean(variant)
    if baseline_mean == 0.0:
        raise UndefinedBaselineError("improvement undefined for zero baseline mean")
    improvement = 100.0 * (baseline_mean - variant_mean) / baseline_mean
    return Comparison(
        baseline_mean=baseline_mean,
        variant_mean=variant_mean,
        improvement_pct=improvement,
        t_stat=None if degenerate else result.t,
        dof=result.dof,
        p_value=None if degenerate else result.p_value,
        significant=None if degenerate else result.p_value < alpha,
        zero_variance=result.zero_variance,
    )


@dataclass(frozen=True)
class ConditionSamples:
    """Per-session measurements for one (policy, mode) condition."""

    policy: str
    mode: str
    costs: tuple[float, ...]
    ttfts: tuple[float, ...]


@dataclass(frozen=True)
class ModeSummary:
    mode: str
    cost: Comparison
    ttft: Comparison
    cost_normalized_pct: float
    ttft_normalized_pct: float


@dataclass(frozen=True)
class PolicySummary:
    policy: str
    baseline_mode: str
    baseline_cost_mean: float
    baseline_ttft_mean: float
    modes: tuple[ModeSummary, ...]
    best_cost_mode: str | None
    best_ttft_mode: str | None


@dataclass(frozen=True)
class ExperimentReport:
    alpha: float
    policies: tuple[PolicySummary, ...]


BASELINE_MODE = "no-cache"


def _check_finite(policy: str, mode: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise ValueError(f"policy {policy!r} under mode {mode!r}: a mean or an "
                         "improvement is not finite; lower its prices or latency parameters")


def summarize_experiment(samples: Sequence[ConditionSamples],
                         alpha: float = 0.05) -> ExperimentReport:
    """Build the per-policy comparison report against the no-cache baseline.

    Every policy present must include a no-cache condition; policies
    whose only condition is the baseline are reported with means and no
    comparisons. A mean, improvement or normalized share that is not
    finite is a ``ValueError`` naming its policy and mode.
    """
    by_policy: dict[str, list[ConditionSamples]] = {}
    for cond in samples:
        by_policy.setdefault(cond.policy, []).append(cond)

    summaries = []
    for policy, conditions in by_policy.items():
        baseline = next((c for c in conditions if c.mode == BASELINE_MODE), None)
        if baseline is None:
            raise ConfigError(
                f"policy {policy!r} has no {BASELINE_MODE!r} condition to compare against")
        base_cost_mean = _mean(baseline.costs)
        base_ttft_mean = _mean(baseline.ttfts)
        _check_finite(policy, BASELINE_MODE, base_cost_mean, base_ttft_mean)
        modes = []
        for cond in conditions:
            if cond.mode == BASELINE_MODE:
                continue
            cost_cmp = compare(baseline.costs, cond.costs, alpha)
            ttft_cmp = compare(baseline.ttfts, cond.ttfts, alpha)
            summary = ModeSummary(
                mode=cond.mode,
                cost=cost_cmp,
                ttft=ttft_cmp,
                cost_normalized_pct=100.0 * cost_cmp.variant_mean / base_cost_mean,
                ttft_normalized_pct=100.0 * ttft_cmp.variant_mean / base_ttft_mean,
            )
            _check_finite(policy, cond.mode, cost_cmp.variant_mean, ttft_cmp.variant_mean,
                          cost_cmp.improvement_pct, ttft_cmp.improvement_pct,
                          summary.cost_normalized_pct, summary.ttft_normalized_pct)
            modes.append(summary)
        best_cost = max(modes, key=lambda m: m.cost.improvement_pct, default=None)
        best_ttft = max(modes, key=lambda m: m.ttft.improvement_pct, default=None)
        summaries.append(PolicySummary(
            policy=policy,
            baseline_mode=BASELINE_MODE,
            baseline_cost_mean=base_cost_mean,
            baseline_ttft_mean=base_ttft_mean,
            modes=tuple(modes),
            best_cost_mode=best_cost.mode if best_cost else None,
            best_ttft_mode=best_ttft.mode if best_ttft else None,
        ))
    return ExperimentReport(alpha=alpha, policies=tuple(summaries))
