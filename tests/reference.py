"""End-to-end reference replay, built only from the plain references.

:func:`reference_condition` replays one (policy, mode) condition the way
:func:`cachesim.run_condition` is specified to, one API call at a time:

1. :func:`~cachesim.apply_strategy` inserts the request's breakers, each a
   real, fresh id derived from (session seed, request, position);
2. :func:`~cachesim.flatten` builds the prompt's token ids anew;
3. :func:`~cachesim.oracle_access` serves it from a plain list of entries;
4. :func:`~cachesim.price_call` and the latency model turn the usage into
   cost and TTFT, with the same per-condition noise stream.

It shares no code with the session layouts, the radix-tree engine or the
segment memo of the replay path, so comparing the two, call for call,
catches an error in how those pieces compose.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from cachesim import (CacheMode, CallResult, ConditionRun, LatencyModel, Prompt,
                      ProviderPolicy, Role, SessionResult, SessionTranscript,
                      StrategyMode, UsageRecord, apply_strategy, derive_seed, flatten,
                      oracle_access, price_call)
from cachesim.replay import WarmupLedger


def _segment_reads(prompt: Prompt, prefix_end: int, granularity: int,
                   seen: set[tuple[int, ...]]) -> int:
    """Extra cached tokens under opportunistic segments, and record the
    prompt's segments in ``seen``.

    A segment is a non-empty run of messages between breakers, flattened.
    One seen verbatim in an earlier call, and starting at or after the
    cached prefix, adds its length rounded down to the granularity. A
    prompt without breakers has no segments.
    """
    if not any(m.role is Role.BREAKER for m in prompt.messages):
        return 0
    segments = []
    run: list = []
    start = position = 0
    for m in prompt.messages:
        if m.role is Role.BREAKER:
            if run:
                segments.append((start, tuple(flatten(run).to_list())))
            run = []
            start = position + 1 + len(m.tokens)
        else:
            run.append(m)
        position += 1 + len(m.tokens)
    if run:
        segments.append((start, tuple(flatten(run).to_list())))
    extra = sum(len(tokens) // granularity * granularity
                for start, tokens in segments if start >= prefix_end and tokens in seen)
    seen.update(tokens for _, tokens in segments)
    return extra


def reference_condition(transcripts: Sequence[SessionTranscript], mode: StrategyMode,
                        policy: ProviderPolicy, latency: LatencyModel,
                        warmup: int = 0) -> ConditionRun:
    """The :class:`~cachesim.ConditionRun` that ``run_condition`` must return."""
    noise = np.random.Generator(np.random.PCG64(
        derive_seed(latency.seed, "noise", policy.name, mode.value)))
    entries: list = []
    seen: set | None = set() if policy.opportunistic_segments else None
    now = 0.0
    sessions = []
    for tr in transcripts:
        calls = []
        n = tr.num_requests
        for r in range(1, n + 1):
            prompt = apply_strategy(tr.request_messages(r), mode, r, tr.session_seed,
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
                                cache_write=write, output=tr.output_tokens(r))
            cost = price_call(usage, policy, prompt_total_tokens=len(flat))
            ttft = latency.mean_ttft_ms(usage) * math.exp(
                latency.noise_sigma * noise.standard_normal())
            calls.append(CallResult(request_index=r, usage=usage, cost_usd=cost,
                                    ttft_ms=ttft, time_s=now))
            end = tr.request_time(r + 1) if r < n else tr.duration_s
            now += end - tr.request_time(r)
        sessions.append(SessionResult(session_id=tr.session_id, calls=tuple(calls)))

    warm = sessions[:warmup]
    ledger = WarmupLedger(policy.name, mode.value, warmup,
                          sum(s.total_cache_write for s in warm),
                          sum((s.total_cost_usd for s in warm), 0.0))
    return ConditionRun(policy_name=policy.name, mode=mode,
                        sessions=tuple(sessions[warmup:]), warmup=ledger)
