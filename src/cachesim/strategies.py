"""Cache-boundary strategies.

A strategy is a deterministic prompt transformation applied per request
before the call goes through the cache. Boundaries are controlled with
breaker messages: single fresh tokens that differ on every request, so
no prefix beyond a breaker can ever match a previous request.

Four strategies are provided:

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
  providers that reuse repeated interior segments (see the per-policy
  ``opportunistic_segments`` toggle).

Within a session, request ``r`` sends the first ``2r`` messages, so every
strategy's output for request ``r`` is a token prefix of its output for
any later request, except for the breaker ids, which are fresh per
request. A fresh breaker's only effect is that no cached prefix can reach
past it, so the cache needs its position, never its id (see
:mod:`cachesim.engine`). Replay therefore flattens each session once per
condition: :func:`session_layout` builds one read-only template of the
last request, with a placeholder in every breaker slot, and
:func:`request_prompt` serves request ``r`` as a zero-copy view of a
prefix of it, together with the position of its first breaker.

The tests hold the layout against a plain per-request reference in
``tests/reference.py``: ``apply_strategy`` followed by ``flatten`` builds
one request's prompt on its own, message by message, with real breaker
ids from ``breaker_token``, as ``oracle_access`` there does for the cache
engine.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .policies import CacheMode
from .tokens import ROLE_TAG_IDS, Message, Role


class StrategyMode(Enum):
    NO_CACHE = "no-cache"
    FULL_CONTEXT = "full-context"
    SYSTEM_PROMPT = "system-prompt"
    EXCLUDE_TOOL_RESULTS = "exclude-tool-results"


def _check_messages(msgs: tuple[Message, ...]) -> None:
    if not msgs or msgs[0].role is not Role.SYSTEM:
        raise ValueError("prompt must start with a system message")
    for m in msgs[1:]:
        if m.role is Role.SYSTEM:
            raise ValueError("prompt must contain exactly one system message")
        if m.role is Role.BREAKER:
            raise ValueError("breakers are injected by the strategy, not by workloads")


class SessionLayout(NamedTuple):
    """One session's flattened prompts under one strategy.

    ``template`` is the last request's flattened prompt with
    ``_BREAKER_PLACEHOLDER`` in every breaker slot; request ``r`` sends its
    first ``lengths[r - 1]`` tokens. ``slots`` are the template's breaker
    slot positions in ascending order; request ``r`` holds those below
    ``lengths[r - 1]``, since a breaker and its framing token always fall
    in the same request. ``system_end`` is the flattened length of the
    system message, where the selective strategies put their breakpoint.
    """

    mode: StrategyMode
    template: np.ndarray
    lengths: tuple[int, ...]
    slots: tuple[int, ...]
    system_end: int


# Tag ids start at 1, so no flattened prompt ever carries this id.
_BREAKER_PLACEHOLDER = 0
_BREAKER_PART = np.array([ROLE_TAG_IDS[Role.BREAKER], _BREAKER_PLACEHOLDER], dtype=np.uint64)
_TAG_ARRAYS = {role: np.array([tag], dtype=np.uint64) for role, tag in ROLE_TAG_IDS.items()}


def session_layout(messages: Sequence[Message], num_requests: int,
                   mode: StrategyMode) -> SessionLayout:
    """Flatten a session's ``num_requests`` requests under ``mode`` at once.

    Request ``r`` (1-based) sends ``messages[:2 * r]``, which must start
    with the one system message of the session and hold no breakers. The
    template is built with a single concatenation and is read-only.
    """
    msgs = tuple(messages[:2 * num_requests])
    if num_requests < 1 or len(msgs) < 2 * num_requests:
        raise ValueError(f"{len(messages)} messages cannot hold {num_requests} requests")
    if not isinstance(mode, StrategyMode):
        raise ValueError(f"unknown strategy mode: {mode!r}")
    _check_messages(msgs)

    after_system = mode is StrategyMode.SYSTEM_PROMPT or mode is StrategyMode.EXCLUDE_TOOL_RESULTS
    after_results = mode is StrategyMode.EXCLUDE_TOOL_RESULTS
    if mode is StrategyMode.NO_CACHE:
        parts, size, slots = [_BREAKER_PART], 2, [1]
    else:
        parts, size, slots = [], 0, []
    lengths = []
    for i, m in enumerate(msgs):
        parts.append(_TAG_ARRAYS[m.role])
        parts.append(m.tokens)
        size += 1 + m.tokens.size
        if (after_system and i == 0) or (after_results and m.role is Role.TOOL_RESULT):
            parts.append(_BREAKER_PART)
            slots.append(size + 1)
            size += 2
        if i % 2:
            lengths.append(size)

    template = np.concatenate(parts)
    template.setflags(write=False)
    return SessionLayout(mode, template, tuple(lengths), tuple(slots),
                         1 + len(msgs[0].tokens))


def request_prompt(layout: SessionLayout, request_index: int,
                   policy_mode: CacheMode) -> tuple[np.ndarray, int, int]:
    """Request ``request_index``'s flattened prompt, its cacheable limit and
    the position of its first breaker.

    The prompt is a read-only, zero-copy view of the template, so it holds
    ``_BREAKER_PLACEHOLDER`` where a prompt built for this request alone
    holds a fresh breaker id, and equals it everywhere else. The first
    breaker's position is ``stop`` (the prompt's length when it has none):
    the cache reads and stores nothing from there on, so the breaker ids
    never reach the result. The limit is the last breakpoint under a
    breakpoint-style policy (0 when there is none) and the whole prompt
    otherwise.
    """
    if not 1 <= request_index <= len(layout.lengths):
        raise IndexError(
            f"request {request_index} out of range 1..{len(layout.lengths)}")
    n = layout.lengths[request_index - 1]
    stop = min(layout.slots[0], n) if layout.slots else n

    mode = layout.mode
    if policy_mode is not CacheMode.EXPLICIT_BREAKPOINTS or mode is StrategyMode.FULL_CONTEXT:
        limit = n
    elif mode is StrategyMode.NO_CACHE:
        limit = 0
    else:
        limit = layout.system_end
    return layout.template[:n], limit, stop
