"""Synthetic multi-turn agent sessions.

A generated session is one research-agent conversation: a system prompt
shared by every session, a per-session unique question, ``tool_calls``
rounds of (assistant tool invocation, tool result), and a final answer.
Request ``r`` of a session sends every message up to and including the
previous turn's tool result, so consecutive requests grow append-only:
each request's flattened prompt is a strict token prefix of the next
one before any strategy is applied. A :class:`SessionTranscript` checks
this message layout and finite, non-decreasing timestamps with a finite
span when it is built, so the strategies and replay rely on both without checking again;
:meth:`SessionTranscript.requests` gives replay each call's output length
and its gap to the next call in one pass.

The system prompt is one token stream of its own. Every later message
of a session is the next slice of one stream per session, seeded by
``derive_seed(spec.seed, "session", s)`` for session ``s``, so a session
costs one seed derivation and one synthesis. A transcript keeps no seed:
replay leaves breaker slots as placeholders, so nothing downstream
needs one.

Two caps keep every allocation bounded. Per-message token counts are at
most ``MAX_TOKEN_COUNT`` (2**20, a whole million-token context), and the
tokens one run synthesizes (the system prompt plus every session's
stream, warmup sessions included) at most ``MAX_RUN_TOKENS`` (2**24,
128 MiB of ``uint64`` ids); :class:`WorkloadSpec` checks the second for
its own sessions and the experiment config for the sessions plus
warmup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .checks import is_finite_number, is_int, is_seed
from .errors import TranscriptValidationError
from .seeding import derive_seed
from .tokens import Message, Role, synth_tokens

MAX_TOKEN_COUNT = 2**20
MAX_RUN_TOKENS = 2**24


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of the synthetic sessions; token counts are calibration knobs.

    Each per-message token count is an integer in [1, ``MAX_TOKEN_COUNT``],
    and ``sessions`` sessions may synthesize at most ``MAX_RUN_TOKENS``
    tokens (see :meth:`run_tokens`).
    """

    system_prompt_tokens: int = 10_000
    question_tokens: int = 150
    tool_calls: int = 10
    tool_call_tokens: int = 200
    tool_result_tokens: int = 1_500
    reasoning_tokens_per_turn: int = 150
    final_answer_tokens: int = 1_000
    inter_call_gap_seconds: float = 5.0
    sessions: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        ranges = {
            "system_prompt_tokens": (1, MAX_TOKEN_COUNT),
            "question_tokens": (1, MAX_TOKEN_COUNT),
            "tool_calls": (0, None),
            "tool_call_tokens": (1, MAX_TOKEN_COUNT),
            "tool_result_tokens": (1, MAX_TOKEN_COUNT),
            "reasoning_tokens_per_turn": (1, MAX_TOKEN_COUNT),
            "final_answer_tokens": (1, MAX_TOKEN_COUNT),
            "sessions": (1, None),
        }
        for name, (floor, ceiling) in ranges.items():
            value = getattr(self, name)
            if not is_int(value) or value < floor:
                raise ValueError(f"{name} must be an integer >= {floor}, got {value!r}")
            if ceiling is not None and value > ceiling:
                raise ValueError(f"{name} must be at most {ceiling}, got {value!r}")
        if not is_seed(self.seed):
            raise ValueError(
                f"workload seed must be an integer in [0, 2**64), got {self.seed!r}")
        gap = self.inter_call_gap_seconds
        if not is_finite_number(gap) or gap < 0:
            raise ValueError(f"inter_call_gap_seconds must be finite and >= 0, got {gap!r}")
        if self.run_tokens(self.sessions) > MAX_RUN_TOKENS:
            raise ValueError(self.too_many_tokens(self.sessions, f"sessions={self.sessions}"))

    def run_tokens(self, sessions: int) -> int:
        """The tokens :func:`generate` synthesizes for ``sessions`` sessions
        of this shape: the shared system prompt plus one stream per session."""
        turn = self.reasoning_tokens_per_turn + self.tool_call_tokens + self.tool_result_tokens
        return self.system_prompt_tokens + sessions * (
            self.question_tokens + self.tool_calls * turn + self.final_answer_tokens)

    def too_many_tokens(self, sessions: int, counted: str) -> str:
        """Why ``sessions`` sessions, counted as ``counted``, are too many."""
        return (f"{counted}: {sessions} sessions with tool_calls={self.tool_calls} would "
                f"synthesize {self.run_tokens(sessions)} tokens, more than "
                f"MAX_RUN_TOKENS={MAX_RUN_TOKENS}")


@dataclass(frozen=True)
class SessionTranscript:
    """One session's ordered messages with per-message timestamps in seconds.

    Replay reads only the differences between timestamps, so a session's
    first timestamp may be any finite time. Library callers may build
    transcripts in code; every check below runs on each one.

    Message layout: system, question, then (assistant turn, tool result)
    pairs, then the final answer.
    """

    session_id: str
    messages: tuple[Message, ...]
    timestamps: tuple[float, ...]

    def __post_init__(self) -> None:
        msgs = self.messages
        if len(msgs) < 3 or len(msgs) % 2 == 0:
            raise TranscriptValidationError(
                f"session {self.session_id}: expected system, question, "
                f"(turn, result) pairs and a final answer, got {len(msgs)} messages")
        if len(self.timestamps) != len(msgs):
            raise TranscriptValidationError(
                f"session {self.session_id}: one timestamp per message required")
        if msgs[0].role is not Role.SYSTEM or msgs[1].role is not Role.HUMAN:
            raise TranscriptValidationError(
                f"session {self.session_id}: must open with system then human")
        for i in range(2, len(msgs) - 1, 2):
            if msgs[i].role not in (Role.AI, Role.TOOL_CALL):
                raise TranscriptValidationError(
                    f"session {self.session_id}: message {i} must be an assistant turn")
            if msgs[i + 1].role is not Role.TOOL_RESULT:
                raise TranscriptValidationError(
                    f"session {self.session_id}: message {i + 1} must be a tool result")
        if msgs[-1].role is not Role.AI:
            raise TranscriptValidationError(
                f"session {self.session_id}: final message must be the assistant answer")
        stamps = self.timestamps
        if not all(map(is_finite_number, stamps)):
            raise TranscriptValidationError(
                f"session {self.session_id}: timestamps must be finite numbers")
        if any(later < earlier for earlier, later in zip(stamps, stamps[1:])):
            raise TranscriptValidationError(
                f"session {self.session_id}: timestamps must be non-decreasing")
        # Replay advances one clock across sessions by these differences, so
        # an infinite one would make every later call's time infinite.
        if not math.isfinite(stamps[-1] - stamps[0]):
            raise TranscriptValidationError(
                f"session {self.session_id}: timestamps must span a finite time")

    def requests(self) -> Iterator[tuple[int, float]]:
        """Each API call's output length and the time from when it is sent
        to when the next call is (to the final message after the last
        call), in order.

        Call ``r`` (1-based) sends ``messages[:2 * r]`` at the timestamp of
        the newest of them and produces ``messages[2 * r]``.
        """
        msgs, stamps = self.messages, self.timestamps
        last = len(msgs) - 1
        for i in range(1, last, 2):
            yield len(msgs[i + 1].tokens), stamps[min(i + 2, last)] - stamps[i]


def generate(spec: WorkloadSpec) -> list[SessionTranscript]:
    """Generate ``spec.sessions`` deterministic transcripts.

    Fully determined by the spec: the system prompt is shared across
    sessions, questions are unique per session, and each session yields
    ``tool_calls + 1`` API requests spaced ``inter_call_gap_seconds``
    apart.
    """
    system = synth_tokens(spec.system_prompt_tokens, derive_seed(spec.seed, "system"))
    gap = spec.inter_call_gap_seconds
    turn_tokens = spec.reasoning_tokens_per_turn + spec.tool_call_tokens

    # Each session's messages after the system prompt, as (role, token
    # count), then as (role, start, end) slices of one stream per session.
    shape = [(Role.HUMAN, spec.question_tokens)]
    times = [0.0, 0.0]
    for k in range(1, spec.tool_calls + 1):
        shape.append((Role.AI, turn_tokens))
        shape.append((Role.TOOL_RESULT, spec.tool_result_tokens))
        times.extend([k * gap, k * gap])
    shape.append((Role.AI, spec.final_answer_tokens))
    times.append((spec.tool_calls + 1) * gap)
    timestamps = tuple(times)
    spans, total = [], 0
    for role, count in shape:
        spans.append((role, total, total + count))
        total += count

    transcripts = []
    for s in range(spec.sessions):
        stream = synth_tokens(total, derive_seed(spec.seed, "session", s))
        transcripts.append(SessionTranscript(
            session_id=f"s{s:03d}",
            messages=(Message(Role.SYSTEM, system),
                      *(Message(role, stream[start:end]) for role, start, end in spans)),
            timestamps=timestamps,
        ))
    return transcripts
