"""Session replay: one cache trace per set of cache rules, then, once
every mode is replayed, one pricing pass per condition.

A run replays the same transcripts under every (policy, mode) condition,
and each per-call fact is computed once, at the level it depends on:

* The run's :class:`Timeline` holds what depends only on the transcripts:
  each call's send time and output tokens, as read-only arrays, and each
  session's id and first row. Simulated time starts at 0 s, and each
  call advances it by the gap between its transcript's timestamps to the
  next request (to the final message after the last call), so each
  session starts where the one before it ended; transcripts hold only
  finite, non-decreasing timestamps, the timeline rejects a clock that
  ends a session past ``MAX_CLOCK_S`` (half the largest float, the bound
  a generated workload keeps), and the store rejects a time that is not
  finite or goes back. This one clock is every store's time, so no
  condition keeps a clock of its own.
* A :class:`CacheTrace` holds what depends on the mode and the cache
  rules (:attr:`~cachesim.policies.ProviderPolicy.cache_rules`): one fresh
  store, and each call's uncached, cached-read and cache-write tokens as
  columns: lists while the mode's sessions are replayed, then read-only
  ``int64`` arrays (:meth:`CacheTrace.finish`, which also releases the
  store). Policies whose rules are equal share one trace per mode
  (gpt-4o and gpt-5.2 do), whatever their prices.
* :func:`price_condition` is the one pass per condition over what
  depends on the condition itself, made once every mode of the run is
  replayed: it converts the trace's columns to float for this pass
  alone, so one condition's float columns are alive at a time, prices
  them by the condition's own policy (:func:`price_call`) and models
  time-to-first-token by its :class:`~cachesim.config.LatencyModel` as

      ttft = (base + per_uncached * uncached + per_cached * cached
              + per_write * write) * exp(sigma * z)

  with ``z`` drawn from a seeded per-condition stream. Token conservation
  holds on every call: uncached + cached reads equals the flattened prompt
  length, so pricing reads a tiered schedule's prompt size from the usage
  columns alone.

Each session is flattened once per mode into a
:class:`~cachesim.strategies.SessionLayout`, which holds every fact about
its requests that the strategy decides and depends on no policy. A call
sends its request's prompt as the first ``length`` tokens of the
session's template (with a placeholder in each breaker slot), so all of
a session's requests share one array and the store compares each stored
edge with it at most once. It cuts the layout's first breaker slot to the prompt's
length and takes the layout's explicit breakpoint as its cacheable limit
under a breakpoint-style policy (the whole prompt otherwise). It then
reads from and writes to the trace's store in one access, passing the
layout's serialized breaker-free segments along to an
opportunistic-segments store; the store applies every cache rule of its
policy (see :mod:`cachesim.engine`).

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
tracing wraps: a run makes one call of it per condition and API call.
It names the call's session by one keyword, ``session_seed``, the
session's index in the timeline, under the name the tracer reads.

Warmup sessions are the first ones replayed, to prime the store; their
rows are excluded from evaluation and their cache writes and cost are
reported in a separate ledger. A :class:`ConditionRun` holds the
timeline's and the trace's evaluation columns by reference, shared with
every other condition of the run and of the trace; only its cost and
TTFT columns and session totals are its own. Every per-call column is a
read-only 1-D numpy array (``int64`` token counts, ``float64`` cost,
TTFT and send time), 8 bytes a call rather than a boxed Python number
and a list slot; the session-level columns are lists of Python
numbers.

``tests/reference.py`` restates a whole condition one request at a time,
with real breaker ids, a plain-list cache and plain-Python pricing, and
the tests compare the two call for call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .config import MAX_CLOCK_S, LatencyModel, StrategyMode
from .engine import CacheStore, access
from .policies import CacheMode, ProviderPolicy, UsageRecord
from .seeding import derive_seed
from .stats import left_sum
from .strategies import SessionLayout
from .workload import SessionTranscript


@dataclass(frozen=True)
class WarmupLedger:
    """What one condition's warmup sessions wrote to the cache and cost."""

    policy: str
    mode: str
    sessions: int
    write_tokens: int
    cost_usd: float


@dataclass(frozen=True, eq=False)
class ConditionRun:
    """Evaluation results for one (policy, mode) condition, as columns, plus
    its warmup ledger.

    Evaluation session ``i`` is ``session_ids[i]``; its calls, in request
    order, are rows ``offsets[i]`` up to ``offsets[i + 1]`` of the per-call
    columns, read-only 1-D arrays (token counts as ``int64``; cost, TTFT
    and send time as ``float64``; ``.tolist()`` gives Python numbers).
    ``session_cost_usd`` and ``session_ttft_ms`` hold each session's total
    cost and mean TTFT, summed once, left to right. Every column but the
    cost and TTFT ones may be shared with other conditions of the same run,
    so treat the lists as read-only too.

    Runs compare equal when every field is equal, array columns by value
    (a column may also be a list of the same numbers); a run holds lists
    and arrays, so it is not hashable.
    """

    policy_name: str
    mode: StrategyMode
    session_ids: list[str]
    offsets: list[int]
    uncached: np.ndarray
    cached_read: np.ndarray
    cache_write: np.ndarray
    output: np.ndarray
    cost_usd: np.ndarray
    ttft_ms: np.ndarray
    time_s: np.ndarray
    session_cost_usd: list[float]
    session_ttft_ms: list[float]
    warmup: WarmupLedger

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConditionRun):
            return NotImplemented
        for field in fields(self):
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            if isinstance(mine, np.ndarray) or isinstance(theirs, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True


def _frozen(values: list, dtype) -> np.ndarray:
    """``values`` as a read-only 1-D array of ``dtype``."""
    column = np.array(values, dtype=dtype)
    column.setflags(write=False)
    return column


class Timeline:
    """What every condition of a run shares, computed once from the
    transcripts: each call's send time (``time_s``, ``float64``) and output
    tokens (``output``, ``int64``) as read-only arrays, one row per call in
    replay order, warmup sessions first; session ``s`` is rows
    ``offsets[s]`` up to ``offsets[s + 1]``.
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
        self.time_s = _frozen(time_s, np.float64)
        self.output = _frozen(output, np.int64)
        self.offsets = offsets
        k = offsets[warmup_sessions]
        # The evaluation rows, held by reference by every ConditionRun.
        self.shared = dict(
            session_ids=[t.session_id for t in transcripts[warmup_sessions:]],
            offsets=[offset - k for offset in offsets[warmup_sessions:]],
            output=self.output[k:], time_s=self.time_s[k:])


_TOKEN_COLUMNS = ("uncached", "cached_read", "cache_write")


class CacheTrace:
    """One mode's cache outcomes under one set of cache rules: a fresh store
    built for ``policy`` (whose rules alone it reads) and each call's
    ``uncached``, ``cached_read`` and ``cache_write`` tokens, by row of
    ``timeline``, as the store served them: lists that replay appends to,
    until :meth:`finish` turns them into arrays."""

    def __init__(self, timeline: Timeline, mode: StrategyMode,
                 policy: ProviderPolicy) -> None:
        self.timeline = timeline
        self.mode = mode
        self.store: CacheStore | None = CacheStore(policy)
        self.explicit_breakpoints = policy.mode is CacheMode.EXPLICIT_BREAKPOINTS
        self.opportunistic_segments = policy.opportunistic_segments
        self.uncached: list[int] = []
        self.cached_read: list[int] = []
        self.cache_write: list[int] = []

    def finish(self) -> None:
        """Once every session has been replayed, release the store, turn
        the token lists into read-only ``int64`` arrays, one column at a
        time so that no column is held as both, and take from them the
        evaluation rows (``shared``) that every ConditionRun of the trace
        holds by reference. A finished trace takes no more calls."""
        self.store = None
        for name in _TOKEN_COLUMNS:
            setattr(self, name, _frozen(getattr(self, name), np.int64))
        k = self.timeline.offsets[self.timeline.warmup_sessions]
        self.shared = {name: getattr(self, name)[k:] for name in _TOKEN_COLUMNS}


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
        return UsageRecord(int(trace.uncached[row]), int(trace.cached_read[row]),
                           int(trace.cache_write[row]), int(trace.timeline.output[row]))


def replay_call(trace: CacheTrace, layout: SessionLayout, request_index: int, *,
                session_seed: int) -> CallRecord:
    """Send API call ``request_index`` of session ``session_seed``, the
    session's index in the timeline, laid out by
    :func:`~cachesim.strategies.session_layout` under the trace's mode,
    through ``trace``, and return its record.

    The first condition of the trace to send the call runs it through the
    trace's store, at the timeline's send time, and appends its tokens to
    the trace's column lists; every later one touches neither. Calls reach
    the store in row order. Every condition gets a record of the same row,
    so the same usage, of Python ints. Per-call tracing reads
    ``session_seed`` by name."""
    timeline = trace.timeline
    first = timeline.offsets[session_seed]
    if not 1 <= request_index <= timeline.offsets[session_seed + 1] - first:
        raise IndexError(f"request {request_index} out of range "
                         f"1..{timeline.offsets[session_seed + 1] - first}")
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
        cached, write = access(trace.store, layout.template, limit, timeline.time_s.item(row),
                               min(layout.stop, n), segments, length=n)
        trace.uncached.append(n - cached)
        trace.cached_read.append(cached)
        trace.cache_write.append(write)
    return CallRecord(trace, row)


def replay_session(trace: CacheTrace, session: int, layout: SessionLayout) -> None:
    """Send every API call of the timeline's session ``session``, laid out
    under the trace's mode, through ``trace``, once for one condition."""
    offsets = trace.timeline.offsets
    for r in range(1, offsets[session + 1] - offsets[session] + 1):
        replay_call(trace, layout, r, session_seed=session)


def price_call(usage: UsageRecord, policy: ProviderPolicy) -> np.ndarray:
    """Price API calls in USD, one per entry of ``usage``'s columns (numpy
    arrays of token counts).

    Each usage component is billed at its per-token rate. For tiered
    schedules the tier is selected per call from the whole prompt size,
    ``uncached_input + cached_read``, and the tier-2 rates then apply to
    every component of that call. Storage charges are not included here.
    """
    p = policy.prices
    in_rate, read_rate, out_rate = p.input_per_mtok, p.cached_read_per_mtok, p.output_per_mtok
    if p.tier_boundary_tokens is not None:
        tiered = usage.uncached_input + usage.cached_read > p.tier_boundary_tokens
        in_rate = np.where(tiered, p.tier2_input_per_mtok, in_rate)
        read_rate = np.where(tiered, p.tier2_cached_read_per_mtok, read_rate)
        out_rate = np.where(tiered, p.tier2_output_per_mtok, out_rate)
    write_rate = p.cache_write_per_mtok or 0.0
    total = (usage.uncached_input * in_rate
             + usage.cached_read * read_rate
             + usage.cache_write * write_rate
             + usage.output * out_rate)
    return total / 1e6


def price_condition(trace: CacheTrace, policy: ProviderPolicy,
                    latency_model: LatencyModel) -> ConditionRun:
    """The (policy, trace's mode) condition's results, once every session
    has been replayed through ``trace`` and it is finished
    (:meth:`CacheTrace.finish`): every call priced by ``policy``'s
    own rates and timed by ``latency_model`` in one pass. A noise factor,
    cost or TTFT, or a session's total of them, that is not finite is a
    ``ValueError`` naming the policy and mode.

    The noise stream is derived from (latency seed, policy, mode), so
    conditions stay independent no matter how many run or in what order.
    """
    timeline, mode = trace.timeline, trace.mode
    # Float usage columns for this pass alone, so that at most one
    # condition's are alive at a time.
    usage = UsageRecord(*(column.astype(np.float64) for column in (
        trace.uncached, trace.cached_read, trace.cache_write, timeline.output)))
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
    cost.setflags(write=False)
    ttft.setflags(write=False)

    # Session sums run left to right over Python floats; the lists live
    # only for this pass.
    w, offsets = timeline.warmup_sessions, timeline.offsets
    k = offsets[w]
    sessions = list(zip(offsets, offsets[1:]))
    costs, ttfts = cost.tolist(), ttft.tolist()
    session_cost = [left_sum(costs[start:end]) for start, end in sessions]
    session_ttft = [left_sum(ttfts[start:end]) / (end - start) for start, end in sessions[w:]]
    warmup_cost = left_sum(session_cost[:w])
    if not all(map(math.isfinite, (warmup_cost, *session_cost, *session_ttft))):
        raise not_finite("a session's total cost or mean TTFT")
    return ConditionRun(
        policy_name=policy.name, mode=mode, **timeline.shared, **trace.shared,
        cost_usd=cost[k:], ttft_ms=ttft[k:],
        session_cost_usd=session_cost[w:], session_ttft_ms=session_ttft,
        warmup=WarmupLedger(policy.name, mode.value, w,
                            int(trace.cache_write[:k].sum()), warmup_cost))
