"""Session replay: simulated time and pricing around the cache.

Each session is flattened once per condition into a
:class:`~cachesim.strategies.SessionLayout`, which holds every fact about
its requests that the strategy decides. Each simulated API call slices
its request's prompt from that layout (a zero-copy prefix of the
session's template, with a placeholder in each breaker slot), cuts the
layout's first breaker slot to the prompt's length and takes the
layout's explicit breakpoint as its cacheable limit under a
breakpoint-style policy (the whole prompt otherwise). It then reads from
and writes to the condition's store in one access, passing the layout's
breaker-free segments along; the store applies every cache rule of its
policy (see :mod:`cachesim.engine`). Replay prices the resulting usage by
the store's policy and models time-to-first-token as

    ttft = (base + per_uncached * uncached + per_cached * cached
            + per_write * write) * exp(N(0, sigma))

with the lognormal factor drawn from a seeded per-condition stream.
Token conservation holds on every call: uncached + cached reads equals
the flattened prompt length.

A condition run owns one fresh store, built for its policy, and its own
simulated time in seconds. It starts at 0, and each call advances it by
the gap between its transcript's timestamps to the next request (to the
final message after the last call), so each session starts where the one
before it ended; transcripts hold only finite, non-decreasing timestamps,
and the store rejects a time that is not finite or goes back. Warmup
sessions are the first ones replayed against the store, to prime it;
their results are excluded from evaluation and their cache writes are
reported in a separate ledger.

``tests/reference.py`` restates a whole condition one request at a time,
with real breaker ids and a plain-list cache, and the tests compare the
two call for call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .checks import is_finite_number, is_int
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
        if not is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.per_cached_token_ms >= self.per_uncached_token_ms:
            raise ValueError("cached tokens must be faster than uncached tokens")

    def mean_ttft_ms(self, usage: UsageRecord) -> float:
        """Noise-free model value for one call's usage."""
        return (self.base_ms
                + self.per_uncached_token_ms * usage.uncached_input
                + self.per_cached_token_ms * usage.cached_read
                + self.per_write_token_ms * usage.cache_write)


@dataclass(frozen=True)
class CallResult:
    request_index: int
    usage: UsageRecord
    cost_usd: float
    ttft_ms: float
    time_s: float


@dataclass(frozen=True)
class SessionResult:
    session_id: str
    calls: tuple[CallResult, ...]

    @property
    def total_cost_usd(self) -> float:
        return sum(c.cost_usd for c in self.calls)

    @property
    def mean_ttft_ms(self) -> float:
        return sum(c.ttft_ms for c in self.calls) / len(self.calls)

    @property
    def total_uncached(self) -> int:
        return sum(c.usage.uncached_input for c in self.calls)

    @property
    def total_cached_read(self) -> int:
        return sum(c.usage.cached_read for c in self.calls)

    @property
    def total_cache_write(self) -> int:
        return sum(c.usage.cache_write for c in self.calls)

    @property
    def total_output(self) -> int:
        return sum(c.usage.output for c in self.calls)


@dataclass(frozen=True)
class WarmupLedger:
    """What one condition's warmup sessions wrote to the cache and cost."""

    policy: str
    mode: str
    sessions: int
    write_tokens: int
    cost_usd: float


@dataclass(frozen=True)
class ConditionRun:
    """Evaluation results for one (policy, mode) condition plus its warmup ledger."""

    policy_name: str
    mode: StrategyMode
    sessions: tuple[SessionResult, ...]
    warmup: WarmupLedger


def replay_call(layout: SessionLayout, request_index: int, store: CacheStore,
                now_s: float, latency_model: LatencyModel, output_tokens: int, *,
                session_seed: int, noise: np.random.Generator) -> CallResult:
    """Simulate one API call, issued at condition time ``now_s``, of a
    session laid out by :func:`~cachesim.strategies.session_layout`,
    against ``store`` and priced by the store's policy.

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

    cached, write = access(store, flat, limit, now_s, min(layout.stop, n), layout.segments)
    usage = UsageRecord(
        uncached_input=n - cached,
        cached_read=cached,
        cache_write=write,
        output=output_tokens,
    )
    cost = price_call(usage, policy, prompt_total_tokens=n)
    factor = math.exp(latency_model.noise_sigma * noise.standard_normal())
    ttft = latency_model.mean_ttft_ms(usage) * factor
    return CallResult(request_index=request_index, usage=usage,
                      cost_usd=cost, ttft_ms=ttft, time_s=now_s)


def run_condition(transcripts: Sequence[SessionTranscript], mode: StrategyMode,
                  policy: ProviderPolicy, latency_model: LatencyModel,
                  warmup_sessions: int = 0) -> ConditionRun:
    """Replay all transcripts under one (policy, mode) condition.

    A fresh store is used and condition time starts at 0 s, so conditions
    never contaminate each other. The first ``warmup_sessions``
    transcripts prime the cache; the rest are the evaluation set. The
    condition's noise stream is derived from (latency seed, policy,
    mode), so conditions stay independent no matter how many run or in
    what order.
    """
    if warmup_sessions < 0:
        raise ValueError("warmup_sessions must be >= 0")
    if warmup_sessions >= len(transcripts):
        raise ValueError(
            f"warmup_sessions={warmup_sessions} leaves no evaluation sessions "
            f"out of {len(transcripts)} transcripts")
    store = CacheStore(policy)
    noise = np.random.Generator(np.random.PCG64(
        derive_seed(latency_model.seed, "noise", policy.name, mode.value)))

    now_s = 0.0
    sessions = []
    for transcript in transcripts:
        layout = session_layout(transcript, mode)
        calls = []
        for r, (output_tokens, gap_s) in enumerate(transcript.requests(), start=1):
            calls.append(replay_call(layout, r, store, now_s, latency_model, output_tokens,
                                     session_seed=transcript.session_seed, noise=noise))
            now_s += gap_s
        sessions.append(SessionResult(session_id=transcript.session_id, calls=tuple(calls)))
    warm = sessions[:warmup_sessions]
    return ConditionRun(
        policy_name=policy.name, mode=mode, sessions=tuple(sessions[warmup_sessions:]),
        warmup=WarmupLedger(policy.name, mode.value, warmup_sessions,
                            sum(s.total_cache_write for s in warm),
                            sum((s.total_cost_usd for s in warm), 0.0)),
    )
