"""Session generation, closed-form token accounting, and transcript checks."""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import pytest

import numpy as np

from cachesim import (Message, Role, SessionTranscript, TranscriptValidationError,
                      WorkloadSpec, derive_seed, generate, synth_tokens)
from cachesim.config import MAX_RUN_TOKENS, MAX_TOKEN_COUNT
from reference import flat_length, flatten


def small_spec(**overrides) -> WorkloadSpec:
    base = dict(system_prompt_tokens=200, question_tokens=30, tool_calls=3,
                tool_call_tokens=10, tool_result_tokens=50,
                reasoning_tokens_per_turn=15, final_answer_tokens=25,
                inter_call_gap_seconds=5.0, sessions=4, seed=77)
    base.update(overrides)
    return WorkloadSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(system_prompt_tokens=0)
    with pytest.raises(ValueError):
        small_spec(tool_calls=-1)
    with pytest.raises(ValueError):
        small_spec(sessions=0)


@pytest.mark.parametrize("field", [
    "system_prompt_tokens", "question_tokens", "tool_call_tokens", "tool_result_tokens",
    "reasoning_tokens_per_turn", "final_answer_tokens"])
def test_spec_caps_per_message_token_counts(field):
    """Each per-message token count is capped at ``MAX_TOKEN_COUNT``, so no
    spec asks ``generate`` for an allocation without bound."""
    assert getattr(small_spec(**{field: MAX_TOKEN_COUNT}), field) == MAX_TOKEN_COUNT
    with pytest.raises(ValueError, match=f"{field} must be at most {MAX_TOKEN_COUNT}"):
        small_spec(**{field: MAX_TOKEN_COUNT + 1})


def test_spec_caps_the_tokens_one_run_synthesizes():
    """The system prompt plus every session's stream is capped at
    ``MAX_RUN_TOKENS``, checked when the spec is built (nothing here is
    generated)."""
    spec = small_spec(tool_result_tokens=MAX_TOKEN_COUNT, sessions=5)
    at_cap = MAX_RUN_TOKENS - spec.run_tokens() + spec.system_prompt_tokens
    assert replace(spec, system_prompt_tokens=at_cap).run_tokens() == MAX_RUN_TOKENS
    with pytest.raises(ValueError, match="sessions=5: .* more than MAX_RUN_TOKENS"):
        replace(spec, system_prompt_tokens=at_cap + 1)


def test_zero_tool_calls_is_one_request():
    transcripts = generate(small_spec(tool_calls=0))
    assert all(len(list(t.requests())) == 1 for t in transcripts)
    assert all(len(t.messages) == 3 for t in transcripts)


def test_three_tool_calls_make_four_requests():
    transcript = generate(small_spec(tool_calls=3))[0]
    assert len(list(transcript.requests())) == 4
    last_input = transcript.messages[:8]
    assert sum(1 for m in last_input if m.role is Role.TOOL_RESULT) == 3


def test_main_study_shape():
    spec = WorkloadSpec(system_prompt_tokens=10_000, tool_calls=10, sessions=40, seed=1)
    transcripts = generate(spec)
    assert len(transcripts) == 40
    assert sum(len(list(t.requests())) for t in transcripts) == 440


def test_request_prefix_growth():
    transcript = generate(small_spec())[0]
    for r in range(1, len(list(transcript.requests()))):
        shorter = transcript.messages[:2 * r]
        longer = transcript.messages[:2 * (r + 1)]
        assert longer[:len(shorter)] == shorter
        assert len(longer) > len(shorter)
        flat_short = flatten(list(shorter))
        flat_long = flatten(list(longer))
        assert np.array_equal(flat_long[:len(flat_short)], flat_short)


def test_closed_form_token_count():
    spec = small_spec()
    transcript = generate(spec)[0]
    turn = spec.reasoning_tokens_per_turn + spec.tool_call_tokens + spec.tool_result_tokens
    for r in range(1, len(list(transcript.requests())) + 1):
        msgs = transcript.messages[:2 * r]
        expected = (spec.system_prompt_tokens + spec.question_tokens
                    + (r - 1) * turn + len(msgs))
        assert flat_length(msgs) == expected


def test_output_tokens_come_from_spec():
    spec = small_spec()
    transcript = generate(spec)[0]
    per_turn = spec.reasoning_tokens_per_turn + spec.tool_call_tokens
    outputs = [output for output, _ in transcript.requests()]
    assert outputs == [per_turn] * 3 + [spec.final_answer_tokens]


def test_shared_system_unique_questions():
    transcripts = generate(small_spec(sessions=6))
    systems = {t.messages[0].tokens.tobytes() for t in transcripts}
    questions = {t.messages[1].tokens.tobytes() for t in transcripts}
    assert len(systems) == 1
    assert len(questions) == 6


def test_generated_messages_are_their_own_streams():
    """The system prompt is ``synth_tokens`` of its own seed; every later
    message of session ``s`` is the next slice of one stream seeded by the
    session's seed, in message order."""
    spec = small_spec()
    turn = spec.reasoning_tokens_per_turn + spec.tool_call_tokens
    counts = ([spec.question_tokens] + [turn, spec.tool_result_tokens] * spec.tool_calls
              + [spec.final_answer_tokens])
    ends = np.cumsum(counts)
    system = synth_tokens(spec.system_prompt_tokens, derive_seed(spec.seed, "system"))
    for s, transcript in enumerate(generate(spec)):
        stream = synth_tokens(sum(counts), derive_seed(spec.seed, "session", s))
        expected = [system] + [stream[end - count:end] for count, end in zip(counts, ends)]
        assert len(transcript.messages) == len(expected)
        for message, tokens in zip(transcript.messages, expected):
            assert np.array_equal(message.tokens, tokens)
            assert not message.tokens.flags.writeable


def test_request_timing():
    spec = small_spec(inter_call_gap_seconds=2.5)
    transcript = generate(spec)[0]
    assert transcript.timestamps[1::2] == (0.0, 2.5, 5.0, 7.5)  # each call's newest input
    assert [gap for _, gap in transcript.requests()] == [2.5] * 4
    assert transcript.timestamps[-1] == 10.0


@pytest.mark.parametrize("root, labels", [
    (0, ()), (0, ("system",)), (2**64 - 1, ("session", 3)), (2**64 - 1, ()),
    (77, ("noise", "gpt-4o", "full-context")), (5, (1, "1", -2)),
    (123, ("Sitzung", "caf\u00e9", "\u03c4\u03b1\u03c5", "\U0001f600")),
])
def test_derive_seed_is_blake2b_of_its_path(root, labels):
    """A child seed is the little-endian 8-byte BLAKE2b digest of the
    root's 8 little-endian bytes, then each label's UTF-8 text followed by
    0x1f: the value ``hashlib.blake2b`` gives for the same input."""
    h = hashlib.blake2b(digest_size=8)
    h.update(root.to_bytes(8, "little"))
    for label in labels:
        h.update(str(label).encode("utf-8"))
        h.update(b"\x1f")
    assert derive_seed(root, *labels) == int.from_bytes(h.digest(), "little")


def test_generate_is_deterministic():
    assert generate(small_spec()) == generate(small_spec())
    a = generate(small_spec(seed=1))[0]
    b = generate(small_spec(seed=2))[0]
    assert a.messages[0] != b.messages[0]


_VALID_ROLES = (Role.SYSTEM, Role.HUMAN, Role.TOOL_CALL, Role.TOOL_RESULT, Role.AI)


def _transcript(roles, stamps=None) -> SessionTranscript:
    messages = tuple(Message(role, synth_tokens(3, i)) for i, role in enumerate(roles))
    if stamps is None:
        stamps = tuple(float(i) for i in range(len(roles)))
    return SessionTranscript("a", messages, stamps)


@pytest.mark.parametrize("roles, stamps, reason", [
    (_VALID_ROLES, (0.0, 1.0, 2.0, 3.0), "one timestamp per message"),
    (_VALID_ROLES, (0.0, 1.0, 2.0, 3.0, 4.0, 5.0), "one timestamp per message"),
    ((Role.SYSTEM, Role.HUMAN, Role.TOOL_RESULT, Role.TOOL_RESULT, Role.AI), None,
     "message 2 must be an assistant turn"),
    ((Role.SYSTEM, Role.HUMAN, Role.TOOL_CALL, Role.AI, Role.AI), None,
     "message 3 must be a tool result"),
    ((Role.SYSTEM, Role.HUMAN, Role.AI, Role.TOOL_RESULT, Role.TOOL_RESULT), None,
     "final message must be the assistant answer"),
    ((Role.HUMAN, Role.HUMAN, Role.AI), None, "must open with system then human"),
    ((Role.SYSTEM, Role.HUMAN), None, "expected system, question"),
])
def test_transcript_rejects_broken_sessions(roles, stamps, reason):
    """A transcript built in code runs every session check: layout, role
    order, one finite, non-decreasing timestamp per message."""
    _transcript(_VALID_ROLES)  # with a tool-call turn, the unbroken session builds
    with pytest.raises(TranscriptValidationError, match=f"session a: .*{reason}"):
        _transcript(roles, stamps)


# A transcript a library caller builds in code is checked as the simulator
# takes it in, the same as a generated one.

def _minimal_rows() -> tuple[Message, ...]:
    return (Message(Role.SYSTEM, synth_tokens(10, 1)), Message(Role.HUMAN, synth_tokens(5, 2)),
            Message(Role.AI, synth_tokens(7, 3)))


def test_transcript_minimal_session():
    transcript = SessionTranscript("a", _minimal_rows(), (0.0, 0.0, 1.0))
    assert list(transcript.requests()) == [(7, 1.0)]
    assert [len(m.tokens) for m in transcript.messages] == [10, 5, 7]


def test_transcript_synthesized_ids_are_deterministic():
    """The same rows build equal transcripts."""
    a = SessionTranscript("a", _minimal_rows(), (0.0, 0.0, 1.0))
    b = SessionTranscript("a", _minimal_rows(), (0.0, 0.0, 1.0))
    assert a == b


def test_transcript_rejects_non_monotonic_timestamps():
    with pytest.raises(TranscriptValidationError, match="session a: .*non-decreasing"):
        SessionTranscript("a", _minimal_rows(), (5.0, 4.0, 6.0))


def test_transcript_rejects_timestamps_that_overflow_when_rebased():
    """Each stamp is finite, but the gap between them is not; replay adds
    the gaps to one clock, which would make every later session's time
    infinite."""
    with pytest.raises(TranscriptValidationError, match="session a: .*finite"):
        SessionTranscript("a", _minimal_rows(), (-1e308, 0.0, 1e308))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_transcript_rejects_non_finite_timestamps(bad):
    with pytest.raises(TranscriptValidationError, match="session a: .*finite"):
        _transcript(_VALID_ROLES, (0.0, 1.0, bad, 3.0, 4.0))


def test_transcript_rejects_broken_role_pattern():
    with pytest.raises(TranscriptValidationError, match="session a: .*system then human"):
        _transcript((Role.SYSTEM, Role.AI, Role.AI))
