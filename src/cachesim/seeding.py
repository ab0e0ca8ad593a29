"""Deterministic seed derivation.

Every random-looking value in the simulator (synthetic tokens, breaker
ids, latency noise) flows from explicit 64-bit seeds. Child seeds are
derived by hashing the parent seed together with a path of labels, so
streams stay independent: adding a new experiment condition or session
never perturbs the seeds of existing ones.

The hash is BLAKE2b from CPython's ``_blake2`` module, the very
constructor ``hashlib.blake2b`` names. Importing ``hashlib`` would also
load ``_hashlib`` and OpenSSL's libcrypto (about 3.4 MB of resident
memory), which no seed needs.
"""

from __future__ import annotations

from _blake2 import blake2b

MASK64 = (1 << 64) - 1


def derive_seed(root: int, *labels: object) -> int:
    """Derive a child seed from ``root`` and a label path.

    Labels are stringified, so strings and integers may be mixed freely.
    The same (root, labels) always yields the same 64-bit value. A root
    outside [0, 2**64) is rejected, never reduced to a seed it is not.
    """
    if not 0 <= root <= MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {root!r}")
    h = blake2b(digest_size=8)
    h.update(root.to_bytes(8, "little"))
    for label in labels:
        h.update(str(label).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")
