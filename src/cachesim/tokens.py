"""Token-level prompt model.

Sessions are represented as sequences of opaque 64-bit token ids, never
text. Prefix equality over those ids is the only thing the cache cares
about, and counts are the only thing pricing cares about, so no real
tokenizer is involved. Synthetic token streams are derived from seeds
with a counter-based generator, which makes them reproducible and gives
the stream property: the first ``n`` tokens of a stream never change
when more tokens are drawn from it.

Flattening a prompt prepends one fixed framing token per message (one
reserved id per role), so a flattened prompt is ``sum(message lengths)
+ message count`` tokens long. Token ids below ``RESERVED_TOKEN_FLOOR``
are reserved for framing; synthesized content ids never fall in that
band, so framing tokens can always be told apart from content.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .seeding import MASK64


class Role(Enum):
    SYSTEM = "system"
    HUMAN = "human"
    AI = "ai"
    TOOL_CALL = "tool-call"
    TOOL_RESULT = "tool-result"
    BREAKER = "breaker"


ROLE_TAG_IDS: dict[Role, int] = {
    Role.SYSTEM: 1,
    Role.HUMAN: 2,
    Role.AI: 3,
    Role.TOOL_CALL: 4,
    Role.TOOL_RESULT: 5,
    Role.BREAKER: 6,
}

# Ids below this are reserved for role framing tokens.
RESERVED_TOKEN_FLOOR = 64

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4B9B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


class TokenSeq:
    """Immutable ordered sequence of opaque token ids.

    Backed by a read-only uint64 array; slicing returns views, so taking
    prefixes of large sequences is cheap.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: Iterable[int] | np.ndarray):
        arr = np.array(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.uint64)
        if arr.ndim != 1:
            raise ValueError("token ids must form a one-dimensional sequence")
        arr.setflags(write=False)
        self._ids = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "TokenSeq":
        """Wrap an existing uint64 array without copying. Internal."""
        seq = object.__new__(cls)
        seq._ids = arr
        return seq

    @property
    def ids(self) -> np.ndarray:
        """Read-only uint64 view of the token ids."""
        return self._ids

    def __len__(self) -> int:
        return int(self._ids.size)

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = self._ids[index]
            view.setflags(write=False)
            return TokenSeq._wrap(view)
        return int(self._ids[index])

    def __iter__(self) -> Iterator[int]:
        return (int(x) for x in self._ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenSeq):
            return NotImplemented
        return self._ids.size == other._ids.size and bool(np.array_equal(self._ids, other._ids))

    def __hash__(self) -> int:
        return hash((self._ids.size, self._ids.tobytes()))

    def __repr__(self) -> str:
        head = ", ".join(str(int(x)) for x in self._ids[:4])
        tail = ", ..." if self._ids.size > 4 else ""
        return f"TokenSeq([{head}{tail}], len={self._ids.size})"

    def prefix(self, n: int) -> "TokenSeq":
        """First ``n`` tokens as a zero-copy view."""
        return self[:n]

    def to_list(self) -> list[int]:
        return [int(x) for x in self._ids]

    @staticmethod
    def concat(parts: Sequence["TokenSeq"]) -> "TokenSeq":
        if not parts:
            return EMPTY_SEQ
        arr = np.concatenate([p._ids for p in parts])
        arr.setflags(write=False)
        return TokenSeq._wrap(arr)


EMPTY_SEQ = TokenSeq(np.empty(0, dtype=np.uint64))


def synth_tokens(count: int, stream_seed: int) -> TokenSeq:
    """Generate ``count`` deterministic tokens from ``stream_seed``.

    Counter-based (SplitMix64 over an index counter), so the result for
    a given (count, seed) is stable across runs and platforms, and
    ``synth_tokens(n, s)`` is always a prefix of ``synth_tokens(m, s)``
    for n <= m. Distinct seeds disagree at the first token except with
    vanishing probability.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(stream_seed & MASK64) + idx * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    z = z ^ (z >> np.uint64(31))
    floor = np.uint64(RESERVED_TOKEN_FLOOR)
    z = np.where(z < floor, z + floor, z)
    z.setflags(write=False)
    return TokenSeq._wrap(z)


@dataclass(frozen=True)
class Message:
    """One chat message: a role plus its token payload."""

    role: Role
    tokens: TokenSeq

    def __post_init__(self) -> None:
        if not isinstance(self.role, Role):
            raise ValueError(f"role must be a Role, got {self.role!r}")
        if len(self.tokens) == 0:
            raise ValueError("message tokens must be non-empty")


def flat_length(messages: Sequence[Message]) -> int:
    """Length of the flattened token sequence: payloads plus one framing token each."""
    return sum(len(m.tokens) for m in messages) + len(messages)


@dataclass(frozen=True)
class Prompt:
    """An ordered message list plus optional explicit cache boundaries.

    ``breakpoints`` are flattened token positions marking where a
    breakpoint-style provider may end its cached prefix. They must be
    strictly increasing and no larger than the flattened length.
    """

    messages: tuple[Message, ...]
    breakpoints: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        total = flat_length(self.messages)
        prev = -1
        for bp in self.breakpoints:
            if bp <= prev:
                raise ValueError("breakpoints must be strictly increasing")
            if bp < 0 or bp > total:
                raise ValueError(f"breakpoint {bp} outside prompt of {total} tokens")
            prev = bp

    def flat_length(self) -> int:
        return flat_length(self.messages)


_TAG_ARRAYS = {role: np.array([tag], dtype=np.uint64) for role, tag in ROLE_TAG_IDS.items()}
for _a in _TAG_ARRAYS.values():
    _a.setflags(write=False)


def flatten(prompt: Prompt | Sequence[Message]) -> TokenSeq:
    """Flatten messages into one token sequence.

    Each message contributes its role framing token followed by its
    payload. Deterministic: equal message lists flatten identically, and
    any difference in roles or tokens shows up at the first point of
    divergence.
    """
    messages = prompt.messages if isinstance(prompt, Prompt) else prompt
    if not messages:
        return EMPTY_SEQ
    parts: list[np.ndarray] = []
    for m in messages:
        parts.append(_TAG_ARRAYS[m.role])
        parts.append(m.tokens.ids)
    arr = np.concatenate(parts)
    arr.setflags(write=False)
    return TokenSeq._wrap(arr)
