"""Token-level prompt model.

A token sequence is a read-only, one-dimensional ``uint64`` numpy array
of opaque token ids, never text; slices of it are read-only views.
Prefix equality over those ids is the only thing the cache cares about,
and counts are the only thing pricing cares about, so no real tokenizer
is involved. Synthetic token streams are derived from seeds with a
counter-based generator, which makes them reproducible and gives the
stream property: the first ``n`` tokens of a stream never change when
more tokens are drawn from it. A generated session draws all of its
messages after the system prompt as consecutive slices of one stream
(see :func:`cachesim.workload.generate`).

A flattened prompt (see :func:`cachesim.strategies.session_layout`)
puts one fixed framing token in front of each message, its role's
value (a :class:`Role` is its framing id, 1 to 6), so it is
``sum(message lengths) + message count`` tokens long. Token ids below
``RESERVED_TOKEN_FLOOR`` are reserved for framing: synthesized content
ids never fall in that band and :class:`Message` rejects any that do, so
framing tokens can always be told apart from content.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .seeding import MASK64


class Role(Enum):
    """A message's role; its value is the role's framing token id."""

    SYSTEM = 1
    HUMAN = 2
    AI = 3
    TOOL_CALL = 4
    TOOL_RESULT = 5
    BREAKER = 6


# Ids below this are reserved for role framing tokens.
RESERVED_TOKEN_FLOOR = 64

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4B9B9)
_MIX_B = np.uint64(0x94D049BB133111EB)

# Every stream synth_tokens has returned that is still alive, by id. Its
# ids are above the floor by construction, so a Message over the stream or
# a slice of it skips the floor check; the map holds no stream alive.
_STREAMS: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def synth_tokens(count: int, stream_seed: int) -> np.ndarray:
    """Generate ``count`` deterministic tokens from ``stream_seed``.

    Counter-based (SplitMix64 over an index counter), so the result for
    a given (count, seed) is stable across runs and platforms, and
    ``synth_tokens(n, s)`` is always a prefix of ``synth_tokens(m, s)``
    for n <= m. Distinct seeds disagree at the first token except with
    vanishing probability.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    # In place, so that a long stream needs one temporary array at a time.
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(stream_seed & MASK64)
    z ^= z >> np.uint64(30)
    z *= _MIX_A
    z ^= z >> np.uint64(27)
    z *= _MIX_B
    z ^= z >> np.uint64(31)
    z[z < RESERVED_TOKEN_FLOOR] += np.uint64(RESERVED_TOKEN_FLOOR)
    z.setflags(write=False)
    _STREAMS[id(z)] = z
    return z


@dataclass(frozen=True, eq=False)
class Message:
    """One chat message: a role plus its token payload, a non-empty,
    read-only, one-dimensional ``uint64`` array of content ids, none
    below ``RESERVED_TOKEN_FLOOR``. Ids are checked against the floor
    unless the array is a stream from :func:`synth_tokens`, or a slice of
    one (its ``base``), which is above the floor by construction; the
    check assumes such a view keeps the stream's ``uint64`` ids whole.

    Messages compare equal when their roles and token ids are equal.
    """

    role: Role
    tokens: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.role, Role):
            raise ValueError(f"role must be a Role, got {self.role!r}")
        tokens = self.tokens
        if (not isinstance(tokens, np.ndarray) or tokens.dtype != np.uint64
                or tokens.ndim != 1 or tokens.flags.writeable):
            raise ValueError("message tokens must be a read-only 1-D uint64 array")
        if tokens.size == 0:
            raise ValueError("message tokens must be non-empty")
        base = tokens if tokens.base is None else tokens.base
        if _STREAMS.get(id(base)) is not base and tokens.min() < RESERVED_TOKEN_FLOOR:
            raise ValueError(f"message token ids must be >= {RESERVED_TOKEN_FLOOR}; "
                             "lower ids are reserved for role framing")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return self.role is other.role and np.array_equal(self.tokens, other.tokens)
