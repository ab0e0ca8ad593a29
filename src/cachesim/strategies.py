"""Cache-boundary strategies.

A strategy is a deterministic prompt transformation applied per request
before the call goes through the cache. Boundaries are controlled with
breaker messages: single fresh tokens that differ on every request, so
no prefix beyond a breaker can ever match a previous request.

Four strategies are provided, one per
:class:`~cachesim.config.StrategyMode` (which lives with the config
that names it):

* ``no-cache`` - a fresh breaker in front of the system prompt,
  guaranteeing full recomputation every request (the baseline).
* ``full-context`` - no breakers; the provider caches as much as it
  can. Breakpoint-style providers get a boundary at the end of the
  prompt.
* ``system-prompt`` - a fresh breaker right after the system message;
  only the system prompt is reusable across requests. Breakpoint-style
  providers get a boundary at the end of the system message.
* ``exclude-tool-results`` - fresh breakers after the system message
  and after every tool result. Under strict prefix matching this reads
  identically to ``system-prompt``; the extra boundaries only matter to
  providers that reuse repeated interior segments (the per-policy
  ``opportunistic_segments`` toggle, which the policy's cache store
  applies to the layout's segments).

Within a session, request ``r`` sends the first ``2r`` messages, so every
strategy's output for request ``r`` is a token prefix of its output for
any later request, except for the breaker ids, which are fresh per
request. A fresh breaker's only effect is that no cached prefix can reach
past it, so the cache needs its position, never its id (see
:mod:`cachesim.engine`). Replay therefore flattens each session once per
strategy: :func:`session_layout` builds one read-only template of the
last request, with a placeholder in every breaker slot, and records
everything a request needs that the strategy decides: each request's
length, the first breaker slot, the explicit breakpoint and the
segments, the breaker-free runs that a breaker closes. Request ``r`` is
then the template's first ``lengths[r - 1]`` tokens, and no other module
knows where or how wide a breaker is: replay hands the first breaker
slot and the segments to the cache store as they are, and the store
applies its policy's rules to them. A layout depends on no policy, so a
run builds one per (session, mode) and shares it across the mode's
policies; it serializes its segments' contents on first use, for an
opportunistic-segments store, and keeps them for every later request and
store.

The tests hold the layout against a plain per-request reference in
``tests/reference.py``: ``apply_strategy`` followed by ``flatten`` builds
one request's prompt on its own, message by message, with real breaker
ids from ``breaker_token``, as ``oracle_access`` there does for the cache
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import StrategyMode
from .tokens import Role
from .workload import SessionTranscript


@dataclass(frozen=True, eq=False)
class SessionLayout:
    """One session's flattened prompts under one strategy.

    ``template`` is the last request's flattened prompt with
    ``_BREAKER_PLACEHOLDER`` in every breaker slot; request ``r`` sends its
    first ``lengths[r - 1]`` tokens. ``stop`` is the template's first
    breaker slot (its length when it has none): a request reads and stores
    nothing from ``min(stop, length)`` on. ``explicit_limit`` is where a
    breakpoint-style provider ends its cacheable prefix: ``None`` for the
    whole prompt, 0 for nothing, and the end of the system message for
    the selective strategies. ``segments`` are the template's non-empty
    breaker-free runs that a breaker closes, as ``(start, end)`` ranges in
    ascending order; a request's segments are those that end below its
    length, since a breaker always falls whole inside one request. The
    run after the last breaker is no segment, so ``no-cache`` and
    ``full-context`` layouts have none.
    """

    template: np.ndarray
    lengths: tuple[int, ...]
    stop: int
    explicit_limit: int | None
    segments: tuple[tuple[int, int], ...]

    @cached_property
    def segment_contents(self) -> tuple[tuple[int, bytes], ...]:
        """Each segment's start and its tokens' bytes, serialized on first
        use and then shared by every request and store that reads them."""
        return tuple((a, self.template[a:b].tobytes()) for a, b in self.segments)


# Role values, the framing ids, start at 1, so no flattened prompt carries this id.
_BREAKER_PLACEHOLDER = 0
_BREAKER_PART = np.array([Role.BREAKER.value, _BREAKER_PLACEHOLDER], dtype=np.uint64)
_TAG_ARRAYS = {role: np.array([role.value], dtype=np.uint64) for role in Role}


def session_layout(transcript: SessionTranscript, mode: StrategyMode) -> SessionLayout:
    """Flatten all of ``transcript``'s requests under ``mode`` at once.

    The template is built with a single concatenation and is read-only.
    """
    if not isinstance(mode, StrategyMode):
        raise ValueError(f"unknown strategy mode: {mode!r}")
    msgs = transcript.messages[:-1]  # the last request sends all but the final answer

    after_system = mode is StrategyMode.SYSTEM_PROMPT or mode is StrategyMode.EXCLUDE_TOOL_RESULTS
    after_results = mode is StrategyMode.EXCLUDE_TOOL_RESULTS
    # A breaker is its framing token, which ends a segment, then its id.
    if mode is StrategyMode.NO_CACHE:
        parts, size, stop = [_BREAKER_PART], 2, 1
    else:
        parts, size, stop = [], 0, None
    starts, ends, lengths = [size], [], []
    for i, m in enumerate(msgs):
        parts.append(_TAG_ARRAYS[m.role])
        parts.append(m.tokens)
        size += 1 + m.tokens.size
        if (after_system and i == 0) or (after_results and m.role is Role.TOOL_RESULT):
            parts.append(_BREAKER_PART)
            ends.append(size)
            if stop is None:
                stop = size + 1
            size += 2
            starts.append(size)
        if i % 2:
            lengths.append(size)

    template = np.concatenate(parts)
    template.setflags(write=False)
    if mode is StrategyMode.FULL_CONTEXT:
        explicit_limit = None
    elif mode is StrategyMode.NO_CACHE:
        explicit_limit = 0
    else:
        explicit_limit = 1 + msgs[0].tokens.size
    segments = tuple((a, b) for a, b in zip(starts, ends) if b > a)
    return SessionLayout(template, tuple(lengths), size if stop is None else stop,
                         explicit_limit, segments)
