"""Session generation, closed-form token accounting, and transcript files."""

from __future__ import annotations

import json
import math

import pytest

import numpy as np

from cachesim import (Role, TranscriptParseError, TranscriptValidationError,
                      WorkloadSpec, derive_seed, export_transcripts, generate, ingest,
                      synth_tokens)
from cachesim.workload import MAX_TOKEN_COUNT
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
    """Each per-message token count is capped at ``MAX_TOKEN_COUNT``, as
    ``ingest`` caps a ``token_count``, so no spec asks ``generate`` for an
    allocation without bound."""
    assert getattr(small_spec(**{field: MAX_TOKEN_COUNT}), field) == MAX_TOKEN_COUNT
    with pytest.raises(ValueError, match=f"{field} must be at most {MAX_TOKEN_COUNT}"):
        small_spec(**{field: MAX_TOKEN_COUNT + 1})


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
    """``generate`` synthesizes each session's messages in one pass; every
    message still equals ``synth_tokens`` of its count and seed labels."""
    spec = small_spec()
    turn = spec.reasoning_tokens_per_turn + spec.tool_call_tokens
    for s, transcript in enumerate(generate(spec)):
        session_seed = derive_seed(spec.seed, "session", s)
        expected = [(spec.system_prompt_tokens, derive_seed(spec.seed, "system")),
                    (spec.question_tokens, derive_seed(session_seed, "question"))]
        for k in range(1, spec.tool_calls + 1):
            expected.append((turn, derive_seed(session_seed, "assistant", k)))
            expected.append((spec.tool_result_tokens,
                             derive_seed(session_seed, "tool-result", k)))
        expected.append((spec.final_answer_tokens, derive_seed(session_seed, "final")))
        assert transcript.session_seed == session_seed
        assert len(transcript.messages) == len(expected)
        for message, (count, seed) in zip(transcript.messages, expected):
            assert np.array_equal(message.tokens, synth_tokens(count, seed))
            assert not message.tokens.flags.writeable


def test_request_timing():
    spec = small_spec(inter_call_gap_seconds=2.5)
    transcript = generate(spec)[0]
    assert transcript.timestamps[1::2] == (0.0, 2.5, 5.0, 7.5)  # each call's newest input
    assert [gap for _, gap in transcript.requests()] == [2.5] * 4
    assert transcript.timestamps[-1] == 10.0


def test_generate_is_deterministic():
    assert generate(small_spec()) == generate(small_spec())
    a = generate(small_spec(seed=1))[0]
    b = generate(small_spec(seed=2))[0]
    assert a.messages[0] != b.messages[0]


def test_round_trip_through_jsonl(tmp_path):
    transcripts = generate(small_spec())
    path = tmp_path / "sessions.jsonl"
    export_transcripts(transcripts, path)
    assert ingest(path) == transcripts


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert ingest(path) == []


def test_ingest_minimal_session(tmp_path):
    path = tmp_path / "one.jsonl"
    rows = [
        {"session_id": "a", "role": "system", "token_count": 10, "timestamp_s": 0.0},
        {"session_id": "a", "role": "human", "token_count": 5, "timestamp_s": 0.0},
        {"session_id": "a", "role": "ai", "token_count": 7, "timestamp_s": 1.0},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    transcripts = ingest(path)
    assert len(transcripts) == 1
    assert len(list(transcripts[0].requests())) == 1
    assert [len(m.tokens) for m in transcripts[0].messages] == [10, 5, 7]


def test_ingest_synthesized_ids_are_deterministic(tmp_path):
    path = tmp_path / "one.jsonl"
    rows = [
        {"session_id": "a", "role": "system", "token_count": 10, "timestamp_s": 0.0},
        {"session_id": "a", "role": "human", "token_count": 5, "timestamp_s": 0.0},
        {"session_id": "a", "role": "ai", "token_count": 7, "timestamp_s": 1.0},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert ingest(path) == ingest(path)


def test_ingest_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"session_id": "a", "role": "system", "token_count": 3, "timestamp_s": 0}\n'
                    'not json\n')
    with pytest.raises(TranscriptParseError) as err:
        ingest(path)
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("record, reason", [
    ({"role": "system", "token_count": 3, "timestamp_s": 0}, "session_id"),
    ({"session_id": "a", "token_count": 3, "timestamp_s": 0}, "role"),
    ({"session_id": "a", "role": "wizard", "token_count": 3, "timestamp_s": 0}, "role"),
    ({"session_id": "a", "role": "system", "timestamp_s": 0}, "tokens"),
    ({"session_id": "a", "role": "system", "token_count": 0, "timestamp_s": 0}, "token_count"),
    ({"session_id": "a", "role": "system", "token_count": 2**20 + 1, "timestamp_s": 0},
     "token_count"),
    ({"session_id": "a", "role": "system", "token_count": True, "timestamp_s": 0}, "token_count"),
    ({"session_id": "a", "role": "system", "token_count": 3.0, "timestamp_s": 0}, "token_count"),
    ({"session_id": "a", "role": "system", "token_count": 3, "timestamp_s": "0"}, "timestamp_s"),
    ({"session_id": "a", "role": "system", "token_count": 3, "timestamp_s": [0]}, "timestamp_s"),
    ({"session_id": "a", "role": "system", "token_count": 3, "timestamp_s": 10**400},
     "timestamp_s"),
    ({"session_id": "a", "role": ["system"], "token_count": 3, "timestamp_s": 0}, "role"),
    ({"session_id": 1, "role": "system", "token_count": 3, "timestamp_s": 0}, "session_id"),
])
def test_ingest_rejects_malformed_records(tmp_path, record, reason):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(TranscriptParseError, match=reason):
        ingest(path)


def test_ingest_rejects_non_monotonic_timestamps(tmp_path):
    rows = [
        {"session_id": "a", "role": "system", "token_count": 10, "timestamp_s": 5.0},
        {"session_id": "a", "role": "human", "token_count": 5, "timestamp_s": 4.0},
        {"session_id": "a", "role": "ai", "token_count": 7, "timestamp_s": 6.0},
    ]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(TranscriptValidationError, match="session a: .*non-decreasing"):
        ingest(path)


def test_ingest_rejects_timestamps_that_overflow_when_rebased(tmp_path):
    """Each stamp is finite, but rebasing to the first one makes the last
    infinite, which would make every later session's time infinite."""
    rows = [{"session_id": "a", "role": role, "token_count": 4, "timestamp_s": stamp}
            for role, stamp in zip(("system", "human", "ai"), (-1e308, 0.0, 1e308))]
    path = tmp_path / "far.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(TranscriptValidationError, match="session a: .*finite"):
        ingest(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ingest_rejects_non_finite_timestamps(tmp_path, bad):
    roles = ("system", "human", "tool-call", "tool-result", "ai")
    rows = [{"session_id": "a", "role": role, "token_count": 4, "timestamp_s": stamp}
            for role, stamp in zip(roles, (0.0, 1.0, bad, 3.0, 4.0))]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(TranscriptParseError) as err:
        ingest(path)
    assert err.value.line_number == 3


@pytest.mark.parametrize("bad", [1.5, 100.0, True, 6, 63, -1, 2**64])
def test_ingest_rejects_bad_token_ids(tmp_path, bad):
    rows = [
        {"session_id": "a", "role": "system", "tokens": [100, 101], "timestamp_s": 0.0},
        {"session_id": "a", "role": "human", "tokens": [200, bad], "timestamp_s": 0.0},
        {"session_id": "a", "role": "ai", "tokens": [300], "timestamp_s": 1.0},
    ]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(TranscriptParseError) as err:
        ingest(path)
    assert err.value.line_number == 2


def test_ingest_rejects_duplicate_questions(tmp_path):
    rows = []
    for sid in ("a", "b"):
        rows += [
            {"session_id": sid, "role": "system", "tokens": [100, 101], "timestamp_s": 0.0},
            {"session_id": sid, "role": "human", "tokens": [200, 201], "timestamp_s": 0.0},
            {"session_id": sid, "role": "ai", "tokens": [300], "timestamp_s": 1.0},
        ]
    path = tmp_path / "dup.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(TranscriptValidationError):
        ingest(path)


def test_ingest_rejects_broken_role_pattern(tmp_path):
    rows = [
        {"session_id": "a", "role": "system", "token_count": 4, "timestamp_s": 0.0},
        {"session_id": "a", "role": "ai", "token_count": 4, "timestamp_s": 0.0},
        {"session_id": "a", "role": "ai", "token_count": 4, "timestamp_s": 1.0},
    ]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    with pytest.raises(TranscriptValidationError):
        ingest(path)
