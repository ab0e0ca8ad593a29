"""Synthetic multi-turn agent sessions and transcript files.

A generated session is one research-agent conversation: a system prompt
shared by every session, a per-session unique question, ``tool_calls``
rounds of (assistant tool invocation, tool result), and a final answer.
Request ``r`` of a session sends every message up to and including the
previous turn's tool result, so consecutive requests grow append-only:
each request's flattened prompt is a strict token prefix of the next
one before any strategy is applied. A :class:`SessionTranscript` checks
this message layout and finite, non-decreasing timestamps when it is
built, so the strategies and replay rely on both without checking again;
:meth:`SessionTranscript.requests` gives replay each call's output length
and its gap to the next call in one pass.

Transcripts can round-trip through a JSONL file (one message per line)
so recorded agent logs can be replayed instead of synthetic ones:

    {"session_id": "s000", "role": "system", "tokens": [...],
     "timestamp_s": 0.0}

``tokens`` carries explicit token ids, integers from
``RESERVED_TOKEN_FLOOR`` up to 2**64 - 1 (lower ids are reserved for
framing); a ``token_count`` integer is accepted instead, in which case
ids are synthesized deterministically from (session_id, line_number).
A ``token_count`` is at most ``MAX_TOKEN_COUNT`` (2**20, a whole
million-token context), so a stray number in a log cannot make ingest
allocate without bound; a :class:`WorkloadSpec` caps its per-message
token counts the same way. ``session_id`` must be a JSON string and
``timestamp_s`` a finite JSON number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .checks import is_finite_number, is_int, is_seed
from .errors import TranscriptParseError, TranscriptValidationError
from .seeding import derive_seed
from .tokens import RESERVED_TOKEN_FLOOR, Message, Role, synth_token_streams, synth_tokens

MAX_TOKEN_COUNT = 2**20

@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of the synthetic sessions; token counts are calibration knobs.

    Each per-message token count is an integer in [1, ``MAX_TOKEN_COUNT``].
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


@dataclass(frozen=True)
class SessionTranscript:
    """One session's ordered messages with per-message timestamps in seconds.

    Replay reads only the differences between timestamps, so a session's
    first timestamp may be any finite time (ingest rebases it to 0).

    Message layout: system, question, then (assistant turn, tool result)
    pairs, then the final answer. ``session_seed`` would derive the
    session's breaker ids, which replay never needs (it leaves breaker
    slots as placeholders); it is excluded from equality so that
    transcripts survive a file round-trip unchanged.
    """

    session_id: str
    messages: tuple[Message, ...]
    timestamps: tuple[float, ...]
    session_seed: int = field(compare=False, default=0)

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
        if not all(map(math.isfinite, stamps)):
            raise TranscriptValidationError(
                f"session {self.session_id}: timestamps must be finite")
        if any(later < earlier for earlier, later in zip(stamps, stamps[1:])):
            raise TranscriptValidationError(
                f"session {self.session_id}: timestamps must be non-decreasing")

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
    # count, seed labels), synthesized in one pass per session.
    shape = [(Role.HUMAN, spec.question_tokens, ("question",))]
    times = [0.0, 0.0]
    for k in range(1, spec.tool_calls + 1):
        shape.append((Role.AI, turn_tokens, ("assistant", k)))
        shape.append((Role.TOOL_RESULT, spec.tool_result_tokens, ("tool-result", k)))
        times.extend([k * gap, k * gap])
    shape.append((Role.AI, spec.final_answer_tokens, ("final",)))
    times.append((spec.tool_calls + 1) * gap)
    timestamps = tuple(times)
    counts = [count for _, count, _ in shape]

    transcripts = []
    for s in range(spec.sessions):
        session_seed = derive_seed(spec.seed, "session", s)
        streams = synth_token_streams(
            counts, [derive_seed(session_seed, *labels) for _, _, labels in shape])
        transcripts.append(SessionTranscript(
            session_id=f"s{s:03d}",
            messages=(Message(Role.SYSTEM, system),
                      *(Message(role, tokens) for (role, _, _), tokens in zip(shape, streams))),
            timestamps=timestamps,
            session_seed=session_seed,
        ))
    return transcripts


_ROLE_BY_NAME = {role.value: role for role in Role}


def export_transcripts(transcripts: Sequence[SessionTranscript], path: str | Path) -> None:
    """Write transcripts as JSONL, one message per line, with explicit token ids."""
    with open(path, "w", encoding="utf-8") as fh:
        for tr in transcripts:
            for message, stamp in zip(tr.messages, tr.timestamps):
                fh.write(json.dumps({
                    "session_id": tr.session_id,
                    "role": message.role.value,
                    "tokens": message.tokens.tolist(),
                    "timestamp_s": stamp,
                }))
                fh.write("\n")


def ingest(path: str | Path) -> list[SessionTranscript]:
    """Read transcripts from a JSONL file written by :func:`export_transcripts`
    or assembled from real agent logs.

    Lines carrying only a ``token_count`` get deterministic synthetic
    ids derived from (session_id, line_number). Malformed lines raise
    :class:`TranscriptParseError` with their line number; sessions that
    violate the transcript invariants raise
    :class:`TranscriptValidationError`.
    """
    per_session: dict[str, list[tuple[Message, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TranscriptParseError(line_number, f"invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise TranscriptParseError(line_number, "expected a JSON object")
            try:
                session_id = record["session_id"]
                role_name = record["role"]
                stamp = record["timestamp_s"]
            except KeyError as exc:
                raise TranscriptParseError(line_number, f"missing field {exc.args[0]!r}") from exc
            if not isinstance(session_id, str):
                raise TranscriptParseError(
                    line_number, f"session_id must be a string, got {session_id!r}")
            if not is_finite_number(stamp):
                raise TranscriptParseError(
                    line_number, f"timestamp_s must be a finite number, got {stamp!r}")
            role = _ROLE_BY_NAME.get(role_name) if isinstance(role_name, str) else None
            if role is None:
                raise TranscriptParseError(line_number, f"unknown role {role_name!r}")
            if "tokens" in record:
                ids = record["tokens"]
                if not isinstance(ids, list) or not ids:
                    raise TranscriptParseError(line_number, "tokens must be a non-empty list")
                for token in ids:
                    # bool is an int subclass; ids below the floor are framing tags.
                    if type(token) is not int or not RESERVED_TOKEN_FLOOR <= token < 2**64:
                        raise TranscriptParseError(
                            line_number, f"token ids must be integers in "
                            f"[{RESERVED_TOKEN_FLOOR}, 2**64), got {token!r}")
                tokens = np.array(ids, dtype=np.uint64)
                tokens.setflags(write=False)
            elif "token_count" in record:
                count = record["token_count"]
                if not is_int(count) or not 1 <= count <= MAX_TOKEN_COUNT:
                    raise TranscriptParseError(
                        line_number, f"token_count must be an integer in [1, {MAX_TOKEN_COUNT}], "
                        f"got {count!r}")
                tokens = synth_tokens(count, derive_seed(0, "ingest", session_id, line_number))
            else:
                raise TranscriptParseError(line_number, "need either tokens or token_count")
            per_session.setdefault(session_id, []).append(
                (Message(role, tokens), float(stamp)))

    transcripts = []
    for session_id, rows in per_session.items():
        stamps = [stamp for _, stamp in rows]
        base = stamps[0]
        transcripts.append(SessionTranscript(
            session_id=session_id,
            messages=tuple(m for m, _ in rows),
            timestamps=tuple(stamp - base for stamp in stamps),
            session_seed=derive_seed(0, "transcript", session_id),
        ))

    questions = set()
    for tr in transcripts:
        key = tr.messages[1].tokens.tobytes()
        if key in questions:
            raise TranscriptValidationError(
                f"session {tr.session_id}: question duplicates another session's")
        questions.add(key)
    return transcripts
