"""Session replay: one cache trace per set of cache rules, then one pricing
pass per condition.

A run replays the same transcripts under every (policy, mode) condition,
and each per-call fact is computed once, at the level it depends on:

* The run's :class:`Timeline` holds what depends only on the transcripts:
  each call's send time and output tokens, and each session's id and
  first row. Simulated time starts at 0 s, and each call advances it by
  the gap between its transcript's timestamps to the next request (to the
  final message after the last call), so each session starts where the
  one before it ended; transcripts hold only finite, non-decreasing
  timestamps, the timeline rejects a clock that ends a session past
  ``MAX_CLOCK_S`` (half the largest float, the bound a generated
  workload keeps), and the store rejects a time that is not finite or
  goes back. This one clock is every store's time, so no condition keeps
  a clock of its own.
* A :class:`CacheTrace` holds what depends on the mode and the cache
  rules (:attr:`~cachesim.policies.ProviderPolicy.cache_rules`): one fresh
  store, and each call's uncached, cached-read and cache-write tokens as
  columns. Policies whose rules are equal share one trace per mode
  (gpt-4o and gpt-5.2 do), whatever their prices.
* :func:`price_condition` is the one pass per condition over what
  depends on the condition itself: it prices the trace's columns by the
  condition's own policy and models time-to-first-token as

      ttft = (base + per_uncached * uncached + per_cached * cached
              + per_write * write) * exp(sigma * z)

  with ``z`` drawn from a seeded per-condition stream. Token conservation
  holds on every call: uncached + cached reads equals the flattened prompt
  length, so pricing reads a tiered schedule's prompt size from the usage
  columns alone.

Each session is flattened once per mode into a
:class:`~cachesim.strategies.SessionLayout`, which holds every fact about
its requests that the strategy decides and depends on no policy. A call
slices its request's prompt from that layout (a zero-copy prefix of the
session's template, with a placeholder in each breaker slot), cuts the
layout's first breaker slot to the prompt's length and takes the
layout's explicit breakpoint as its cacheable limit under a
breakpoint-style policy (the whole prompt otherwise). It then reads from
and writes to the trace's store in one access, passing the layout's
serialized breaker-free segments along to an opportunistic-segments
store; the store applies every cache rule of its policy (see
:mod:`cachesim.engine`).

Every condition sends every API call through :func:`replay_call`, in
:func:`replay_session`, one session at a time; this module has no loop
over sessions. The experiment runner's loop
(:func:`cachesim.runner.run_condition` is its one-condition case)
replays a mode's conditions in lockstep, building each session's layout
once for all of them. The first condition of a trace to send a call
runs it through the store and appends its tokens to the trace's
columns; the others leave the store and the columns alone. A trace
reads the two cache rules that shape a call (explicit breakpoints,
opportunistic segments) from its policy once, when it is built.
Either way ``replay_call`` returns a :class:`CallRecord` of the trace
and row, whose ``usage`` is built from the trace's columns only when
something reads it; the run itself never does. ``replay_call`` stays
the boundary of one API call of one condition, the hook that per-call
tracing wraps: a run makes one call of it per condition and API call,
and passes the session's index in the timeline as its ``session_seed``
keyword, the name the tracer reads.

Warmup sessions are the first ones replayed, to prime the store; their
rows are excluded from evaluation and their cache writes and cost are
reported in a separate ledger. A :class:`ConditionRun` holds the
timeline's and the trace's evaluation columns by reference, shared with
every other condition of the run and of the trace, as read-only data;
only its cost and TTFT columns and session totals are its own.

``tests/reference.py`` restates a whole condition one request at a time,
with real breaker ids, a plain-list cache and plain-Python pricing, and
the tests compare the two call for call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .checks import is_finite_number, is_seed
from .engine import CacheStore, access
from .policies import CacheMode, ProviderPolicy, UsageRecord, price_call
from .seeding import derive_seed
from .stats import left_sum
from .strategies import SessionLayout, StrategyMode
from .workload import MAX_CLOCK_S, SessionTranscript


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

    def mean_ttft_ms(self, usage: UsageRecord) -> np.ndarray:
        """Noise-free model value for each call of ``usage``'s columns
        (numpy arrays of token counts)."""
        return (self.base_ms
                + self.per_uncached_token_ms * usage.uncached_input
                + self.per_cached_token_ms * usage.cached_read
                + self.per_write_token_ms * usage.cache_write)


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
    """Evaluation results for one (policy, mode) condition, as columns, plus
    its warmup ledger.

    Evaluation session ``i`` is ``session_ids[i]``; its calls, in request
    order, are rows ``offsets[i]`` up to ``offsets[i + 1]`` of the per-call
    columns (token counts as ints; cost, TTFT and send time as floats).
    ``session_cost_usd`` and ``session_ttft_ms`` hold each session's total
    cost and mean TTFT, summed once, left to right. Every column but the
    cost and TTFT ones may be shared with other conditions of the same run,
    so treat them as read-only.
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


class Timeline:
    """What every condition of a run shares, computed once from the
    transcripts: each call's send time (``time_s``) and output tokens
    (``output``), one row per call in replay order, warmup sessions
    first; session ``s`` is rows ``offsets[s]`` up to ``offsets[s + 1]``.
    A clock that runs past ``MAX_CLOCK_S`` by a session's end is a
    ``ValueError`` that names the session.
    """

    def __init__(self, transcripts: Sequence[SessionTranscript],
                 warmup_sessions: int) -> None:
        if warmup_sessions < 0:
            raise ValueError("warmup_sessions must be >= 0")
        if warmup_sessions >= len(transcripts):
            raise ValueError(
                f"warmup_sessions={warmup_sessions} leaves no evaluation sessions "
                f"out of {len(transcripts)} transcripts")
        time_s: list[float] = []
        output: list[int] = []
        offsets = [0]
        now_s = 0.0
        for transcript in transcripts:
            for output_tokens, gap_s in transcript.requests():
                time_s.append(now_s)
                output.append(output_tokens)
                now_s += gap_s
            offsets.append(len(time_s))
            if now_s > MAX_CLOCK_S:
                raise ValueError(
                    f"session {transcript.session_id}: the run's clock reaches {now_s!r} s "
                    f"by its end, more than MAX_CLOCK_S={MAX_CLOCK_S!r}")
        self.warmup_sessions = warmup_sessions
        self.time_s = time_s
        self.output = output
        self.offsets = offsets
        self.output_tokens = np.array(output, dtype=np.float64)
        k = offsets[warmup_sessions]
        # The evaluation rows, held by reference by every ConditionRun.
        self.shared = dict(
            session_ids=[t.session_id for t in transcripts[warmup_sessions:]],
            offsets=[offset - k for offset in offsets[warmup_sessions:]],
            output=output[k:], time_s=time_s[k:])


class CacheTrace:
    """One mode's cache outcomes under one set of cache rules: a fresh store
    built for ``policy`` (whose rules alone it reads) and each call's
    ``uncached``, ``cached_read`` and ``cache_write`` tokens, by row of
    ``timeline``, as the store served them."""

    def __init__(self, timeline: Timeline, mode: StrategyMode,
                 policy: ProviderPolicy) -> None:
        self.timeline = timeline
        self.mode = mode
        self.store = CacheStore(policy)
        self.explicit_breakpoints = policy.mode is CacheMode.EXPLICIT_BREAKPOINTS
        self.opportunistic_segments = policy.opportunistic_segments
        self.uncached: list[int] = []
        self.cached_read: list[int] = []
        self.cache_write: list[int] = []

    @cached_property
    def usage(self) -> UsageRecord:
        """Every row's usage as float columns, built once for pricing."""
        columns = (self.uncached, self.cached_read, self.cache_write)
        return UsageRecord(*(np.array(column, dtype=np.float64) for column in columns),
                           self.timeline.output_tokens)

    @cached_property
    def shared(self) -> dict[str, list[int]]:
        """The evaluation rows, held by reference by every ConditionRun."""
        k = self.timeline.offsets[self.timeline.warmup_sessions]
        return dict(uncached=self.uncached[k:], cached_read=self.cached_read[k:],
                    cache_write=self.cache_write[k:])


class CallRecord:
    """One API call as its cache trace recorded it: row ``row`` of
    ``trace``. ``usage`` is the call's usage block, read as a provider
    response's ``usage``, built from the trace's columns on each read."""

    __slots__ = ("trace", "row")

    def __init__(self, trace: CacheTrace, row: int) -> None:
        self.trace = trace
        self.row = row

    @property
    def usage(self) -> UsageRecord:
        trace, row = self.trace, self.row
        return UsageRecord(trace.uncached[row], trace.cached_read[row],
                           trace.cache_write[row], trace.timeline.output[row])


def replay_call(trace: CacheTrace, session: int, layout: SessionLayout,
                request_index: int, *, session_seed: int) -> CallRecord:
    """Send API call ``request_index`` of the timeline's session
    ``session``, laid out by :func:`~cachesim.strategies.session_layout`
    under the trace's mode, through ``trace``, and return its record.

    The first condition of the trace to send the call runs it through the
    trace's store, at the timeline's send time, and appends its tokens to
    the trace's columns; every later one touches neither. Calls reach the
    store in row order. Every condition gets a record of the same row, so
    the same usage. ``session_seed`` does not change the result; it
    identifies the call's session to per-call tracing."""
    timeline = trace.timeline
    first = timeline.offsets[session]
    if not 1 <= request_index <= timeline.offsets[session + 1] - first:
        raise IndexError(f"request {request_index} out of range "
                         f"1..{timeline.offsets[session + 1] - first}")
    row = first + request_index - 1
    recorded = len(trace.uncached)
    if row > recorded:
        raise IndexError(f"row {row} sent before row {recorded}")
    if row == recorded:
        n = layout.lengths[request_index - 1]
        limit = layout.explicit_limit
        if limit is None or not trace.explicit_breakpoints:
            limit = n
        segments = layout.segment_contents if trace.opportunistic_segments else ()
        cached, write = access(trace.store, layout.template[:n], limit,
                               timeline.time_s[row], min(layout.stop, n), segments)
        trace.uncached.append(n - cached)
        trace.cached_read.append(cached)
        trace.cache_write.append(write)
    return CallRecord(trace, row)


def replay_session(trace: CacheTrace, session: int, layout: SessionLayout) -> None:
    """Send every API call of the timeline's session ``session``, laid out
    under the trace's mode, through ``trace``, once for one condition.
    Per-call tracing reads the session's index as ``session_seed``."""
    offsets = trace.timeline.offsets
    for r in range(1, offsets[session + 1] - offsets[session] + 1):
        replay_call(trace, session, layout, r, session_seed=session)


def price_condition(trace: CacheTrace, policy: ProviderPolicy,
                    latency_model: LatencyModel) -> ConditionRun:
    """The (policy, trace's mode) condition's results, once every session
    has been replayed through ``trace``: every call priced by ``policy``'s
    own rates and timed by ``latency_model`` in one pass. A noise factor,
    cost or TTFT, or a session's total of them, that is not finite is a
    ``ValueError`` naming the policy and mode.

    The noise stream is derived from (latency seed, policy, mode), so
    conditions stay independent no matter how many run or in what order.
    """
    timeline, mode = trace.timeline, trace.mode
    usage = trace.usage
    noise = np.random.Generator(np.random.PCG64(
        derive_seed(latency_model.seed, "noise", policy.name, mode.value)))

    def not_finite(what: str) -> ValueError:
        return ValueError(f"policy {policy.name!r} under mode {mode.value!r}: {what} is "
                          "not finite; lower its prices or latency parameters")

    with np.errstate(over="ignore", invalid="ignore"):
        scaled = latency_model.noise_sigma * noise.standard_normal(len(timeline.time_s))
        try:
            factors = np.array([math.exp(x) for x in scaled.tolist()])
        except OverflowError:
            raise not_finite("a noise factor") from None
        cost = price_call(usage, policy)
        ttft = latency_model.mean_ttft_ms(usage) * factors
    for what, column in (("a noise factor", factors), ("a cost", cost), ("a TTFT", ttft)):
        if not np.isfinite(column).all():
            raise not_finite(what)
    cost, ttft = cost.tolist(), ttft.tolist()

    w, offsets = timeline.warmup_sessions, timeline.offsets
    k = offsets[w]
    sessions = list(zip(offsets, offsets[1:]))
    session_cost = [left_sum(cost[start:end]) for start, end in sessions]
    session_ttft = [left_sum(ttft[start:end]) / (end - start) for start, end in sessions[w:]]
    warmup_cost = left_sum(session_cost[:w])
    if not all(map(math.isfinite, (warmup_cost, *session_cost, *session_ttft))):
        raise not_finite("a session's total cost or mean TTFT")
    return ConditionRun(
        policy_name=policy.name, mode=mode, **timeline.shared, **trace.shared,
        cost_usd=cost[k:], ttft_ms=ttft[k:],
        session_cost_usd=session_cost[w:], session_ttft_ms=session_ttft,
        warmup=WarmupLedger(policy.name, mode.value, w,
                            sum(trace.cache_write[:k]), warmup_cost))
