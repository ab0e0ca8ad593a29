"""Plain references the tests hold the replay path against.

Each restates one piece of :func:`cachesim.run_condition` on its own,
sharing no code with the session layouts, the radix-tree engine or the
segment memo of the replay path:

* :class:`Prompt`, :func:`apply_strategy`, :func:`breaker_token` and
  :func:`flatten` build one request's prompt message by message, with a
  real, fresh breaker id derived from (session seed, request, position)
  in every breaker slot, where :func:`session_breaker_seed` derives a
  session's seed from its id; :func:`flat_length` is its length. They
  referee :func:`cachesim.session_layout`.
* :func:`oracle_access` serves a prompt from a plain list of
  :class:`OracleEntry` values, comparing token by token; it referees
  :func:`cachesim.access`. Its entries keep both their creation and
  last-use times and pick the one a policy's expiry rule runs from, so
  the oracle does not lean on the engine's single expiry reference.
* :func:`listed` gives a :class:`~cachesim.ConditionRun` with its per-call
  columns as lists, so two runs compare field for field with ``==``.
* :func:`reference_condition` replays a whole (policy, mode) condition
  one API call at a time through the two above and its own segment
  memo, then prices and times each call with :func:`reference_price`
  and :func:`reference_ttft`, plain-Python restatements of the rate
  table and the latency formula, with the same per-condition noise
  stream, so comparing it with ``run_condition``, call for call, catches
  an error in how the replay's pieces compose or in the column pricer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from cachesim import (CacheMode, ConditionRun, LatencyModel, Message, ProviderPolicy,
                      Role, SessionTranscript, StrategyMode, UsageRecord, derive_seed)
from cachesim.replay import WarmupLedger
from cachesim.tokens import RESERVED_TOKEN_FLOOR


def flat_length(messages: Sequence[Message]) -> int:
    """Length of the flattened token sequence: payloads plus one framing token each."""
    return sum(len(m.tokens) for m in messages) + len(messages)


@dataclass(frozen=True)
class Prompt:
    """An ordered message list plus optional explicit cache boundaries.

    ``breakpoints`` are flattened token positions marking where a
    breakpoint-style provider may end its cached prefix. They must be
    strictly increasing and no larger than the flattened length.
    """

    messages: tuple[Message, ...]
    breakpoints: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        total = flat_length(self.messages)
        prev = -1
        for bp in self.breakpoints:
            if bp <= prev:
                raise ValueError("breakpoints must be strictly increasing")
            if bp < 0 or bp > total:
                raise ValueError(f"breakpoint {bp} outside prompt of {total} tokens")
            prev = bp

    def flat_length(self) -> int:
        return flat_length(self.messages)


def flatten(prompt: Prompt | Sequence[Message]) -> np.ndarray:
    """Flatten messages into one read-only token array.

    Each message contributes its role framing token followed by its
    payload. Deterministic: equal message lists flatten identically, and
    any difference in roles or tokens shows up at the first point of
    divergence.
    """
    messages = prompt.messages if isinstance(prompt, Prompt) else prompt
    parts = [np.empty(0, dtype=np.uint64)]
    for m in messages:
        parts += [np.array([m.role.value], dtype=np.uint64), m.tokens]
    flat = np.concatenate(parts)
    flat.setflags(write=False)
    return flat


def session_breaker_seed(session_id: str) -> int:
    """The seed of a session's breaker ids, derived from its id: sessions
    with distinct ids (every caller's are) never share a breaker id."""
    return derive_seed(0, "breakers", session_id)


def breaker_token(session_seed: int, request_index: int, position_index: int) -> int:
    """Token id for one breaker instance.

    Fully determined by its coordinates; changing the request index
    changes every breaker in the prompt. Never collides with the
    reserved framing-token band.
    """
    raw = derive_seed(session_seed, "breaker", request_index, position_index)
    return raw if raw >= RESERVED_TOKEN_FLOOR else raw + RESERVED_TOKEN_FLOOR


def _breaker(session_seed: int, request_index: int, position_index: int) -> Message:
    token = np.array([breaker_token(session_seed, request_index, position_index)],
                     dtype=np.uint64)
    token.setflags(write=False)
    return Message(Role.BREAKER, token)


def _check_messages(msgs: tuple[Message, ...]) -> None:
    if not msgs or msgs[0].role is not Role.SYSTEM:
        raise ValueError("prompt must start with a system message")
    for m in msgs[1:]:
        if m.role is Role.SYSTEM:
            raise ValueError("prompt must contain exactly one system message")
        if m.role is Role.BREAKER:
            raise ValueError("breakers are injected by the strategy, not by workloads")


def apply_strategy(messages: Sequence[Message], mode: StrategyMode,
                   request_index: int, session_seed: int,
                   policy_mode: CacheMode) -> Prompt:
    """Insert breakers and set cache boundaries for one request.

    ``messages`` must start with exactly one system message and contain
    no breakers of their own. Breakpoint positions are only attached for
    ``CacheMode.EXPLICIT_BREAKPOINTS`` policies; automatic providers
    ignore them.
    """
    msgs = tuple(messages)
    _check_messages(msgs)

    explicit = policy_mode is CacheMode.EXPLICIT_BREAKPOINTS
    system = msgs[0]
    after_system = 1 + len(system.tokens)

    if mode is StrategyMode.NO_CACHE:
        out = (_breaker(session_seed, request_index, 0),) + msgs
        breakpoints: tuple[int, ...] = ()
    elif mode is StrategyMode.FULL_CONTEXT:
        out = msgs
        breakpoints = (flat_length(msgs),) if explicit else ()
    elif mode is StrategyMode.SYSTEM_PROMPT:
        out = (system, _breaker(session_seed, request_index, 0)) + msgs[1:]
        breakpoints = (after_system,) if explicit else ()
    elif mode is StrategyMode.EXCLUDE_TOOL_RESULTS:
        parts: list[Message] = [system, _breaker(session_seed, request_index, 0)]
        position = 1
        for m in msgs[1:]:
            parts.append(m)
            if m.role is Role.TOOL_RESULT:
                parts.append(_breaker(session_seed, request_index, position))
                position += 1
        out = tuple(parts)
        breakpoints = (after_system,) if explicit else ()
    else:
        raise ValueError(f"unknown strategy mode: {mode!r}")

    return Prompt(out, breakpoints)


@dataclass
class OracleEntry:
    """One entry of the oracle's cache, with both of its timestamps;
    ``ids`` holds ``tokens`` as a list, which the oracle compares."""

    tokens: np.ndarray
    created_at: float
    last_used_at: float
    ids: list[int] = field(repr=False)

    def expires_from(self, policy: ProviderPolicy) -> float:
        """The time the entry's TTL runs from: its last use under a
        refresh-on-read policy, its creation otherwise."""
        return self.last_used_at if policy.refresh_on_read else self.created_at


def oracle_access(entries: Iterable[OracleEntry], prompt: np.ndarray,
                  cacheable_limit: int, now: float,
                  policy: ProviderPolicy) -> tuple[int, int, list[OracleEntry]]:
    """Reference for :func:`cachesim.access` over a plain list of entries.

    Returns ``(read, write, entries_after)``. The given entries are left
    untouched: ``entries_after`` holds copies, in insertion order, with
    the refresh applied and the new entry, if any, appended.
    """
    if cacheable_limit < 0 or cacheable_limit > len(prompt):
        raise ValueError(
            f"cacheable_limit {cacheable_limit} outside prompt of {len(prompt)} tokens")
    live = [replace(entry) for entry in entries
            if now - entry.expires_from(policy) <= policy.ttl_seconds]
    # Read: the first live entry with the longest common prefix, compared
    # token by token, is the one a refresh touches. No comparison runs past
    # the longest live entry, so only the prompt's ids up to there are read.
    tokens = prompt[:max((len(entry.ids) for entry in live), default=0)].tolist()
    best = 0
    hit: OracleEntry | None = None
    for entry in live:
        n = 0
        for a, b in zip(tokens, entry.ids):
            if a != b:
                break
            n += 1
        if n > best:
            best, hit = n, entry
    g = policy.granularity_tokens
    read = best // g * g
    if read < policy.min_cache_tokens:
        read = 0
    elif policy.refresh_on_read:
        hit.last_used_at = now
    w = cacheable_limit // g * g
    if w < policy.min_cache_tokens or w <= read:
        return read, 0, live
    head = prompt[:w].tolist()
    kept = [entry for entry in live
            if not (len(entry.ids) <= w and entry.ids == head[:len(entry.ids)])]
    kept.append(OracleEntry(tokens=prompt[:w], created_at=now, last_used_at=now, ids=head))
    return read, w - read, kept


def _segment_reads(prompt: Prompt, prefix_end: int, granularity: int,
                   seen: set[tuple[int, ...]]) -> int:
    """Extra cached tokens under opportunistic segments, and record the
    prompt's segments in ``seen``.

    A segment is a non-empty run of messages between breakers, flattened:
    the run after the last breaker, which no breaker closes, is none. One
    seen verbatim in an earlier call, and starting at or after the cached
    prefix, adds its length rounded down to the granularity.
    """
    segments = []
    run: list = []
    start = position = 0
    for m in prompt.messages:
        if m.role is Role.BREAKER:
            if run:
                segments.append((start, tuple(flatten(run).tolist())))
            run = []
            start = position + 1 + len(m.tokens)
        else:
            run.append(m)
        position += 1 + len(m.tokens)
    extra = sum(len(tokens) // granularity * granularity
                for start, tokens in segments if start >= prefix_end and tokens in seen)
    seen.update(tokens for _, tokens in segments)
    return extra


# The per-call columns of a ConditionRun, in per_call.csv's order.
CALL_COLUMNS = ("uncached", "cached_read", "cache_write", "output",
                "cost_usd", "ttft_ms", "time_s")


def listed(run: ConditionRun) -> ConditionRun:
    """``run`` with each per-call column that is an array as a list of
    Python numbers, the form :func:`reference_condition` builds, so that
    two runs compare field for field with ``==``."""
    return replace(run, **{name: getattr(run, name).tolist() for name in CALL_COLUMNS
                           if isinstance(getattr(run, name), np.ndarray)})


def reference_price(usage: UsageRecord, policy: ProviderPolicy, prompt_total: int) -> float:
    """One call's price in USD: every component at its per-token rate, the
    tier picked from the whole prompt size (boundary exclusive)."""
    p = policy.prices
    tiered = p.tier_boundary_tokens is not None and prompt_total > p.tier_boundary_tokens
    in_rate = p.tier2_input_per_mtok if tiered else p.input_per_mtok
    read_rate = p.tier2_cached_read_per_mtok if tiered else p.cached_read_per_mtok
    out_rate = p.tier2_output_per_mtok if tiered else p.output_per_mtok
    write_rate = p.cache_write_per_mtok or 0.0
    return (usage.uncached_input * in_rate + usage.cached_read * read_rate
            + usage.cache_write * write_rate + usage.output * out_rate) / 1e6


def reference_ttft(latency: LatencyModel, usage: UsageRecord, z: float) -> float:
    """One call's time to first token under noise draw ``z``."""
    mean = (latency.base_ms + latency.per_uncached_token_ms * usage.uncached_input
            + latency.per_cached_token_ms * usage.cached_read
            + latency.per_write_token_ms * usage.cache_write)
    return mean * math.exp(latency.noise_sigma * z)


def reference_condition(transcripts: Sequence[SessionTranscript], mode: StrategyMode,
                        policy: ProviderPolicy, latency: LatencyModel,
                        warmup: int = 0) -> ConditionRun:
    """The :class:`~cachesim.ConditionRun` that ``run_condition`` must
    return, with its per-call columns as lists (see :func:`listed`)."""
    noise = np.random.Generator(np.random.PCG64(
        derive_seed(latency.seed, "noise", policy.name, mode.value)))
    entries: list = []
    seen: set | None = set() if policy.opportunistic_segments else None
    now = 0.0
    sessions = []
    for tr in transcripts:
        calls = []
        n = (len(tr.messages) - 1) // 2
        for r in range(1, n + 1):
            prompt = apply_strategy(tr.messages[:2 * r], mode, r,
                                    session_breaker_seed(tr.session_id),
                                    policy.mode)
            flat = flatten(prompt)
            if policy.mode is CacheMode.EXPLICIT_BREAKPOINTS:
                limit = prompt.breakpoints[-1] if prompt.breakpoints else 0
            else:
                limit = len(flat)
            read, write, entries = oracle_access(entries, flat, limit, now, policy)
            if seen is not None:
                read += _segment_reads(prompt, read, policy.granularity_tokens, seen)
            usage = UsageRecord(uncached_input=len(flat) - read, cached_read=read,
                                cache_write=write, output=len(tr.messages[2 * r].tokens))
            cost = reference_price(usage, policy, len(flat))
            ttft = reference_ttft(latency, usage, noise.standard_normal())
            calls.append((*usage, cost, ttft, now))
            # Call r is sent at its newest input message; the last call's
            # gap runs to the final message.
            end = tr.timestamps[2 * r + 1] if r < n else tr.timestamps[-1]
            now += end - tr.timestamps[2 * r - 1]
        sessions.append((tr.session_id, calls))

    def left_sum(values: Iterable[float]) -> float:
        total = 0.0
        for value in values:
            total += value
        return total

    # A call is (uncached, cached_read, cache_write, output, cost, ttft, time).
    session_costs = [left_sum(call[4] for call in calls) for _, calls in sessions]
    warm, evaluated = sessions[:warmup], sessions[warmup:]
    ledger = WarmupLedger(policy.name, mode.value, warmup,
                          sum(call[2] for _, calls in warm for call in calls),
                          left_sum(session_costs[:warmup]))
    rows = [call for _, calls in evaluated for call in calls]
    return ConditionRun(
        policy_name=policy.name, mode=mode,
        session_ids=[session_id for session_id, _ in evaluated],
        offsets=[0, *accumulate(len(calls) for _, calls in evaluated)],
        **{name: list(column) for name, column in zip(CALL_COLUMNS, zip(*rows))},
        session_cost_usd=session_costs[warmup:],
        session_ttft_ms=[left_sum(call[5] for call in calls) / len(calls)
                         for _, calls in evaluated],
        warmup=ledger)
