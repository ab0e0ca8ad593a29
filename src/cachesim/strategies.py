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
request. Replay therefore flattens each session once per condition:
:func:`session_layout` builds one read-only template of the last
request, with a placeholder in every breaker slot, and
:func:`request_prompt` serves request ``r`` as a prefix of it. Without
breakers the prefix is a zero-copy view; otherwise it is a copy with
request ``r``'s breaker ids written in.

:func:`apply_strategy` followed by :func:`~cachesim.tokens.flatten`
builds one request's prompt from scratch, message by message. It is the
plain reference that the tests hold the layout against, as
:func:`~cachesim.engine.oracle_access` is for the cache engine.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .policies import CacheMode
from .seeding import derive_seed
from .tokens import (_TAG_ARRAYS, ROLE_TAG_IDS, Message, Prompt, Role, TokenSeq,
                     RESERVED_TOKEN_FLOOR, flat_length)


class StrategyMode(Enum):
    NO_CACHE = "no-cache"
    FULL_CONTEXT = "full-context"
    SYSTEM_PROMPT = "system-prompt"
    EXCLUDE_TOOL_RESULTS = "exclude-tool-results"


def breaker_token(session_seed: int, request_index: int, position_index: int) -> int:
    """Token id for one breaker instance.

    Fully determined by its coordinates; changing the request index
    changes every breaker in the prompt. Never collides with the
    reserved framing-token band.
    """
    raw = derive_seed(session_seed, "breaker", request_index, position_index)
    return raw if raw >= RESERVED_TOKEN_FLOOR else raw + RESERVED_TOKEN_FLOOR


def _breaker(session_seed: int, request_index: int, position_index: int) -> Message:
    token = breaker_token(session_seed, request_index, position_index)
    return Message(Role.BREAKER, TokenSeq([token]))


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


class SessionLayout(NamedTuple):
    """One session's flattened prompts under one strategy.

    ``template`` is the last request's flattened prompt with
    ``_BREAKER_PLACEHOLDER`` in every breaker slot; request ``r`` sends its
    first ``lengths[r - 1]`` tokens, with breakers at the first
    ``breakers[r - 1]`` positions of ``slots``. ``system_end`` is the
    flattened length of the system message, where the selective
    strategies put their breakpoint.
    """

    mode: StrategyMode
    template: np.ndarray
    lengths: tuple[int, ...]
    breakers: tuple[int, ...]
    slots: tuple[int, ...]
    system_end: int


# Tag ids start at 1, so no flattened prompt ever carries this id.
_BREAKER_PLACEHOLDER = 0
_BREAKER_PART = np.array([ROLE_TAG_IDS[Role.BREAKER], _BREAKER_PLACEHOLDER], dtype=np.uint64)


def session_layout(messages: Sequence[Message], num_requests: int,
                   mode: StrategyMode) -> SessionLayout:
    """Flatten a session's ``num_requests`` requests under ``mode`` at once.

    Request ``r`` (1-based) sends ``messages[:2 * r]``; the messages must
    satisfy :func:`apply_strategy`'s rules. The template is built with a
    single concatenation and is read-only.
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
        parts, slots, size = [_BREAKER_PART], [1], 2
    else:
        parts, slots, size = [], [], 0
    lengths = []
    breakers = []
    for i, m in enumerate(msgs):
        ids = m.tokens.ids
        parts.append(_TAG_ARRAYS[m.role])
        parts.append(ids)
        size += 1 + ids.size
        if (after_system and i == 0) or (after_results and m.role is Role.TOOL_RESULT):
            parts.append(_BREAKER_PART)
            slots.append(size + 1)
            size += 2
        if i % 2:
            lengths.append(size)
            breakers.append(len(slots))

    template = np.concatenate(parts)
    template.setflags(write=False)
    return SessionLayout(mode, template, tuple(lengths), tuple(breakers), tuple(slots),
                         1 + len(msgs[0].tokens))


def request_prompt(layout: SessionLayout, request_index: int, session_seed: int,
                   policy_mode: CacheMode) -> tuple[TokenSeq, int]:
    """Request ``request_index``'s flattened prompt and its cacheable limit.

    Equal, token for token, to ``flatten(apply_strategy(...))`` for the
    same request. The limit is the last breakpoint of that prompt under a
    breakpoint-style policy (0 when it has none) and the whole prompt
    otherwise. The returned ids are read-only: a view of the template
    when the request has no breakers, a patched copy when it has.
    """
    if not 1 <= request_index <= len(layout.lengths):
        raise IndexError(
            f"request {request_index} out of range 1..{len(layout.lengths)}")
    n = layout.lengths[request_index - 1]
    k = layout.breakers[request_index - 1]
    ids = layout.template[:n]
    if k:
        ids = ids.copy()
        for j, slot in enumerate(layout.slots[:k]):
            ids[slot] = breaker_token(session_seed, request_index, j)
        ids.setflags(write=False)

    mode = layout.mode
    if policy_mode is not CacheMode.EXPLICIT_BREAKPOINTS or mode is StrategyMode.FULL_CONTEXT:
        limit = n
    elif mode is StrategyMode.NO_CACHE:
        limit = 0
    else:
        limit = layout.system_end
    return TokenSeq._wrap(ids), limit
