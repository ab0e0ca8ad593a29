"""Session replay: simulated time and pricing around the cache.

Each session is flattened once per mode into a
:class:`~cachesim.strategies.SessionLayout`, which holds every fact about
its requests that the strategy decides and depends on no policy. Each
simulated API call slices its request's prompt from that layout (a
zero-copy prefix of the session's template, with a placeholder in each
breaker slot), cuts the layout's first breaker slot to the prompt's
length and takes the layout's explicit breakpoint as its cacheable limit
under a breakpoint-style policy (the whole prompt otherwise). It then
reads from and writes to the condition's store in one access, passing
the layout's serialized breaker-free segments along to an
opportunistic-segments store; the store applies every cache rule of its
policy (see :mod:`cachesim.engine`). Replay prices the resulting usage by
the store's policy and models time-to-first-token as

    ttft = (base + per_uncached * uncached + per_cached * cached
            + per_write * write) * exp(N(0, sigma))

with the lognormal factor drawn from a seeded per-condition stream.
Token conservation holds on every call: uncached + cached reads equals
the flattened prompt length.

A :class:`Condition` owns one fresh store, built for its policy, its
noise draws and its own simulated time in seconds. The time starts at 0,
and each call advances it by the gap between its transcript's timestamps
to the next request (to the final message after the last call), so each
session starts where the one before it ended; transcripts hold only
finite, non-decreasing timestamps, and the store rejects a time that is
not finite or goes back. Warmup sessions are the first ones replayed
against the store, to prime it; their results are excluded from
evaluation and their cache writes are reported in a separate ledger.

:func:`replay_session` replays one session of one condition from a
layout it is given, so a caller can replay several conditions of a mode
in lockstep, building each session's layout once for all of them (the
experiment runner does); :func:`run_condition` replays one condition
alone through the same step. Each call's usage, cost and times go into
the condition's columns (see :class:`ConditionRun`); no call keeps an
object of its own.

``tests/reference.py`` restates a whole condition one request at a time,
with real breaker ids and a plain-list cache, and the tests compare the
two call for call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .checks import is_finite_number, is_seed
from .engine import CacheStore, access
from .policies import CacheMode, ProviderPolicy, UsageRecord, price_call
from .seeding import derive_seed
from .strategies import SessionLayout, StrategyMode, session_layout
from .workload import SessionTranscript


@dataclass(frozen=True)
class LatencyModel:
    """Linear prefill-time model with lognormal noise.

    Cached tokens must be cheaper than uncached ones; writes may cost
    extra on top of the uncached compute they ride on.
    """

    base_ms: float = 0.0
    per_uncached_token_ms: float = 0.05
    per_cached_token_ms: float = 0.005
    per_write_token_ms: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("base_ms", "per_uncached_token_ms", "per_cached_token_ms",
                     "per_write_token_ms", "noise_sigma"):
            value = getattr(self, name)
            if not is_finite_number(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if not is_seed(self.seed):
            raise ValueError(
                f"latency seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.per_cached_token_ms >= self.per_uncached_token_ms:
            raise ValueError("cached tokens must be faster than uncached tokens")

    def mean_ttft_ms(self, usage: UsageRecord) -> float:
        """Noise-free model value for one call's usage."""
        return (self.base_ms
                + self.per_uncached_token_ms * usage.uncached_input
                + self.per_cached_token_ms * usage.cached_read
                + self.per_write_token_ms * usage.cache_write)


class CallResult(NamedTuple):
    request_index: int
    usage: UsageRecord
    cost_usd: float
    ttft_ms: float
    time_s: float


@dataclass(frozen=True)
class WarmupLedger:
    """What one condition's warmup sessions wrote to the cache and cost."""

    policy: str
    mode: str
    sessions: int
    write_tokens: int
    cost_usd: float


# The per-call columns of a ConditionRun, in per_call.csv's order.
CALL_COLUMNS = ("uncached", "cached_read", "cache_write", "output",
                "cost_usd", "ttft_ms", "time_s")


@dataclass(frozen=True)
class ConditionRun:
    """Evaluation results for one (policy, mode) condition, as columns, plus
    its warmup ledger.

    Evaluation session ``i`` is ``session_ids[i]``; its calls, in request
    order, are rows ``offsets[i]`` up to ``offsets[i + 1]`` of the per-call
    columns (token counts as ints; cost, TTFT and send time as floats).
    ``session_cost_usd`` and ``session_ttft_ms`` hold each session's total
    cost and mean TTFT, summed once, left to right.
    """

    policy_name: str
    mode: StrategyMode
    session_ids: list[str]
    offsets: list[int]
    uncached: list[int]
    cached_read: list[int]
    cache_write: list[int]
    output: list[int]
    cost_usd: list[float]
    ttft_ms: list[float]
    time_s: list[float]
    session_cost_usd: list[float]
    session_ttft_ms: list[float]
    warmup: WarmupLedger


def replay_call(layout: SessionLayout, request_index: int, store: CacheStore,
                now_s: float, latency_model: LatencyModel, output_tokens: int, *,
                session_seed: int, noise: float) -> CallResult:
    """Simulate one API call, issued at condition time ``now_s``, of a
    session laid out by :func:`~cachesim.strategies.session_layout`,
    against ``store`` and priced by the store's policy. ``noise`` is the
    call's standard normal draw, which scales its TTFT by
    ``exp(noise_sigma * noise)``.

    ``session_seed`` does not change the result (breaker ids never reach
    the cache); it identifies the call's session to per-call tracing."""
    if not 1 <= request_index <= len(layout.lengths):
        raise IndexError(f"request {request_index} out of range 1..{len(layout.lengths)}")
    policy = store.policy
    n = layout.lengths[request_index - 1]
    flat = layout.template[:n]
    limit = layout.explicit_limit
    if limit is None or policy.mode is not CacheMode.EXPLICIT_BREAKPOINTS:
        limit = n
    segments = layout.segment_contents if policy.opportunistic_segments else ()

    cached, write = access(store, flat, limit, now_s, min(layout.stop, n), segments)
    usage = UsageRecord(n - cached, cached, write, output_tokens)
    cost = price_call(usage, policy, prompt_total_tokens=n)
    ttft = latency_model.mean_ttft_ms(usage) * math.exp(latency_model.noise_sigma * noise)
    return CallResult(request_index, usage, cost, ttft, now_s)


class Condition:
    """One (policy, mode) condition's replay state over ``transcripts``: a
    fresh store built for the policy, simulated time from 0 s, one noise
    draw per API call and the columns of the sessions replayed so far.

    The noise stream is derived from (latency seed, policy, mode), so
    conditions stay independent no matter how many run or in what order.
    """

    def __init__(self, transcripts: Sequence[SessionTranscript], mode: StrategyMode,
                 policy: ProviderPolicy, latency_model: LatencyModel,
                 warmup_sessions: int) -> None:
        if warmup_sessions < 0:
            raise ValueError("warmup_sessions must be >= 0")
        if warmup_sessions >= len(transcripts):
            raise ValueError(
                f"warmup_sessions={warmup_sessions} leaves no evaluation sessions "
                f"out of {len(transcripts)} transcripts")
        self.mode = mode
        self.policy = policy
        self.latency_model = latency_model
        self.warmup_sessions = warmup_sessions
        self.store = CacheStore(policy)
        noise = np.random.Generator(np.random.PCG64(
            derive_seed(latency_model.seed, "noise", policy.name, mode.value)))
        # A transcript of 2k + 1 messages makes k calls.
        calls = sum(len(t.messages) // 2 for t in transcripts)
        self.noise = iter(noise.standard_normal(calls).tolist())
        self.now_s = 0.0
        self.session_ids: list[str] = []
        self.offsets = [0]
        self.columns: dict[str, list] = {name: [] for name in CALL_COLUMNS}
        self.session_cost_usd: list[float] = []
        self.session_ttft_ms: list[float] = []

    def result(self) -> ConditionRun:
        """The evaluation sessions' columns and the warmup ledger, once
        every transcript has been replayed."""
        policy, mode, w = self.policy, self.mode, self.warmup_sessions
        k = self.offsets[w]
        warm_cost = 0.0
        for cost in self.session_cost_usd[:w]:
            warm_cost += cost
        return ConditionRun(
            policy_name=policy.name, mode=mode, session_ids=self.session_ids[w:],
            offsets=[offset - k for offset in self.offsets[w:]],
            **{name: column[k:] for name, column in self.columns.items()},
            session_cost_usd=self.session_cost_usd[w:],
            session_ttft_ms=self.session_ttft_ms[w:],
            warmup=WarmupLedger(policy.name, mode.value, w,
                                sum(self.columns["cache_write"][:k]), warm_cost),
        )


def replay_session(condition: Condition, transcript: SessionTranscript,
                   layout: SessionLayout, requests: Sequence[tuple[int, float]]) -> None:
    """Replay the condition's next session: ``transcript``, laid out under
    the condition's mode, whose ``requests()`` are ``requests``. Each call
    is sent at the condition's time, which then advances by the call's
    gap, so the next session starts where this one ended. Each call's
    result goes into the condition's columns, and the session's total
    cost and mean TTFT are summed as it runs."""
    store = condition.store
    latency_model = condition.latency_model
    noise = condition.noise
    session_seed = transcript.session_seed
    now_s = condition.now_s
    uncached, cached_read, cache_write, output, costs, ttfts, times = (
        column.append for column in condition.columns.values())
    cost = ttft = 0.0
    for r, (output_tokens, gap_s) in enumerate(requests, start=1):
        _, (u, c, w, o), call_cost, call_ttft, _ = replay_call(
            layout, r, store, now_s, latency_model, output_tokens,
            session_seed=session_seed, noise=next(noise))
        uncached(u)
        cached_read(c)
        cache_write(w)
        output(o)
        costs(call_cost)
        ttfts(call_ttft)
        times(now_s)
        cost += call_cost
        ttft += call_ttft
        now_s += gap_s
    condition.now_s = now_s
    condition.session_ids.append(transcript.session_id)
    condition.offsets.append(len(condition.columns["uncached"]))
    condition.session_cost_usd.append(cost)
    condition.session_ttft_ms.append(ttft / len(requests))


def run_condition(transcripts: Sequence[SessionTranscript], mode: StrategyMode,
                  policy: ProviderPolicy, latency_model: LatencyModel,
                  warmup_sessions: int = 0) -> ConditionRun:
    """Replay all transcripts under one (policy, mode) condition alone.

    A fresh store is used and condition time starts at 0 s, so conditions
    never contaminate each other. The first ``warmup_sessions``
    transcripts prime the cache; the rest are the evaluation set.
    """
    condition = Condition(transcripts, mode, policy, latency_model, warmup_sessions)
    for transcript in transcripts:
        replay_session(condition, transcript, session_layout(transcript, mode),
                       tuple(transcript.requests()))
    return condition.result()
