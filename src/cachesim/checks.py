"""Type checks shared by the input validators.

JSON has one number type, so a value that should be a count can arrive
as a float (``2.5``, or ``1e400``, which loads as infinity) or a bool
(``true``, which Python treats as the int 1). The validators reject
such values instead of coercing them.
"""

from __future__ import annotations

import math


def is_int(value: object) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_seed(value: object) -> bool:
    """True for an int, not a bool, in [0, 2**64): a 64-bit seed."""
    return is_int(value) and 0 <= value < 1 << 64


def is_finite_number(value: object) -> bool:
    """True for an int or float, not a bool, that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False
