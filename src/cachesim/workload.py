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

The system prompt is one token stream of its own, and one
:class:`~cachesim.tokens.Message` that every transcript of a run shares,
so its tokens are checked once per run. Every later message
of a session is the next slice of one stream per session, seeded by
``derive_seed(spec.seed, "session", s)`` for session ``s``, so a session
costs one seed derivation and one synthesis. A transcript keeps no seed:
replay leaves breaker slots as placeholders, so nothing downstream
needs one.

Three caps keep every allocation bounded. Per-message token counts are
at most ``MAX_TOKEN_COUNT`` (2**20, a whole million-token context), the
tokens one run synthesizes (the system prompt plus every session's
stream) at most ``MAX_RUN_TOKENS`` (2**24, 128 MiB of ``uint64`` ids),
and its sessions at most ``MAX_RUN_SESSIONS`` (2**16).
:class:`~cachesim.config.WorkloadSpec` checks all three, and that the
run's simulated time stays finite; the experiment config checks the
run's sessions, warmup included, by building the spec that
:func:`generate` runs. The spec and its caps live in
:mod:`cachesim.config`, which loads without numpy; this module builds
token streams, so it imports numpy through :mod:`cachesim.tokens`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .checks import is_finite_number
from .config import WorkloadSpec
from .errors import TranscriptValidationError
from .seeding import derive_seed
from .tokens import Message, Role, synth_tokens


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
    system = Message(Role.SYSTEM,
                     synth_tokens(spec.system_prompt_tokens, derive_seed(spec.seed, "system")))
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
            messages=(system,
                      *(Message(role, stream[start:end]) for role, start, end in spans)),
            timestamps=timestamps,
        ))
    return transcripts
