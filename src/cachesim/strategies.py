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
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from .policies import CacheMode
from .seeding import derive_seed
from .tokens import Message, Prompt, Role, TokenSeq, RESERVED_TOKEN_FLOOR, flat_length


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
    return Message(Role.BREAKER, TokenSeq([token]), origin_turn=request_index)


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
    if not msgs or msgs[0].role is not Role.SYSTEM:
        raise ValueError("prompt must start with a system message")
    if any(m.role is Role.SYSTEM for m in msgs[1:]):
        raise ValueError("prompt must contain exactly one system message")
    if any(m.role is Role.BREAKER for m in msgs):
        raise ValueError("breakers are injected by the strategy, not by workloads")

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
