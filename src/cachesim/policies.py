"""Provider caching policies and token pricing.

Each policy bundles one provider/model's caching rules (minimum
cacheable tokens, block granularity, TTL, refresh behavior, caching
mode) with its price schedule. Four built-in policies ship with the
simulator, priced in USD per million tokens:

| policy            | input | output | cached read | cache write | min tokens |
|-------------------|-------|--------|-------------|-------------|------------|
| gpt-4o            | 2.50  | 10.00  | 1.25        | ---         | 1024       |
| gpt-5.2           | 1.75  | 14.00  | 0.175       | ---         | 1024       |
| claude-sonnet-4.5 | 3.00  | 15.00  | 0.30        | 3.75        | 1024       |
| gemini-2.5-pro    | 1.25  | 10.00  | 0.125       | ---         | 4096       |

gemini-2.5-pro switches to 2.50 / 15.00 / 0.250 for calls whose prompt
exceeds 200K tokens. It also lists $4.50 per million tokens per hour of
cache storage (``storage_per_mtok_hour``); the policy table shows that
rate, but no simulated cost includes it, since storage is billed per
hour held, not per call.

Defaults that providers do not publish precisely (block granularity,
TTL, TTL refresh on read) are documented assumptions: granularity 128
for automatic policies, 1 for breakpoint policies; TTL 300 s;
refresh-on-read only for claude-sonnet-4.5. To change them, derive a
policy with :func:`dataclasses.replace` or give an inline policy object
in the config.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .checks import is_finite_number, is_int


class CacheMode(Enum):
    """How a provider decides what becomes cacheable."""

    AUTOMATIC = "automatic"
    EXPLICIT_BREAKPOINTS = "explicit-breakpoints"


_REQUIRED_RATES = ("input_per_mtok", "output_per_mtok", "cached_read_per_mtok")


@dataclass(frozen=True)
class PriceSchedule:
    """USD-per-million-token rates for one model.

    Tier-2 rates, when present, apply to calls whose total prompt size
    exceeds ``tier_boundary_tokens``. Absent write/storage rates mean
    the provider does not bill that component. Every rate given must be
    a finite number >= 0 and the boundary an integer.
    """

    input_per_mtok: float
    output_per_mtok: float
    cached_read_per_mtok: float
    cache_write_per_mtok: float | None = None
    storage_per_mtok_hour: float | None = None
    tier_boundary_tokens: int | None = None
    tier2_input_per_mtok: float | None = None
    tier2_output_per_mtok: float | None = None
    tier2_cached_read_per_mtok: float | None = None

    def __post_init__(self) -> None:
        for name in ("input_per_mtok", "output_per_mtok", "cached_read_per_mtok",
                     "cache_write_per_mtok", "storage_per_mtok_hour",
                     "tier2_input_per_mtok", "tier2_output_per_mtok",
                     "tier2_cached_read_per_mtok"):
            value = getattr(self, name)
            if value is None and name not in _REQUIRED_RATES:
                continue
            if not is_finite_number(value) or value < 0:
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.tier_boundary_tokens is not None and not is_int(self.tier_boundary_tokens):
            raise ValueError(
                f"tier_boundary_tokens must be an integer, got {self.tier_boundary_tokens!r}")
        if self.cached_read_per_mtok >= self.input_per_mtok:
            raise ValueError("cached reads must be cheaper than uncached input")
        tier2 = (self.tier2_input_per_mtok, self.tier2_output_per_mtok,
                 self.tier2_cached_read_per_mtok)
        if self.tier_boundary_tokens is not None and any(v is None for v in tier2):
            raise ValueError("tiered schedules need all tier-2 rates")


class UsageRecord(NamedTuple):
    """Token accounting, mirroring provider usage blocks: one call's
    counts, or many calls' as numpy columns (see :func:`price_call`)."""

    uncached_input: int
    cached_read: int
    cache_write: int
    output: int


@dataclass(frozen=True)
class ProviderPolicy:
    """One provider/model's caching rules plus its price schedule.

    The name is a string, token counts are integers, the TTL is finite
    and positive, and the two flags are booleans. ``opportunistic_segments`` is rejected on an
    explicit-breakpoints policy, where it would have no effect.
    """

    name: str
    min_cache_tokens: int
    granularity_tokens: int
    ttl_seconds: float
    refresh_on_read: bool
    mode: CacheMode
    prices: PriceSchedule
    # When on, automatic policies may also reuse repeated interior
    # segments between breaker boundaries (idealized; off by default).
    opportunistic_segments: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"policy name must be a string, got {self.name!r}")
        for name in ("granularity_tokens", "min_cache_tokens"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.granularity_tokens < 1:
            raise ValueError("granularity_tokens must be >= 1")
        if self.min_cache_tokens < self.granularity_tokens:
            raise ValueError("min_cache_tokens must be >= granularity_tokens")
        ttl = self.ttl_seconds
        if not is_finite_number(ttl) or ttl <= 0:
            raise ValueError(f"ttl_seconds must be finite and positive, got {ttl!r}")
        for name in ("refresh_on_read", "opportunistic_segments"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.opportunistic_segments and self.mode is CacheMode.EXPLICIT_BREAKPOINTS:
            raise ValueError(
                "opportunistic_segments applies only to automatic-mode policies, "
                "not to explicit-breakpoints mode")

    @property
    def cache_rules(self) -> tuple:
        """Every field a cache store or replay reads, and nothing else:
        policies with equal rules read and write the same tokens on every
        call, whatever their prices, so replay keeps one cache trace per
        set of rules."""
        return (self.min_cache_tokens, self.granularity_tokens, self.ttl_seconds,
                self.refresh_on_read, self.mode, self.opportunistic_segments)


def builtin_policies() -> list[ProviderPolicy]:
    """The four built-in policies."""
    return [
        ProviderPolicy(
            name="gpt-4o", min_cache_tokens=1024, granularity_tokens=128,
            ttl_seconds=300.0, refresh_on_read=False, mode=CacheMode.AUTOMATIC,
            prices=PriceSchedule(2.50, 10.00, 1.25),
        ),
        ProviderPolicy(
            name="gpt-5.2", min_cache_tokens=1024, granularity_tokens=128,
            ttl_seconds=300.0, refresh_on_read=False, mode=CacheMode.AUTOMATIC,
            prices=PriceSchedule(1.75, 14.00, 0.175),
        ),
        ProviderPolicy(
            name="claude-sonnet-4.5", min_cache_tokens=1024, granularity_tokens=1,
            ttl_seconds=300.0, refresh_on_read=True, mode=CacheMode.EXPLICIT_BREAKPOINTS,
            prices=PriceSchedule(3.00, 15.00, 0.30, cache_write_per_mtok=3.75),
        ),
        ProviderPolicy(
            name="gemini-2.5-pro", min_cache_tokens=4096, granularity_tokens=128,
            ttl_seconds=300.0, refresh_on_read=False, mode=CacheMode.AUTOMATIC,
            prices=PriceSchedule(
                1.25, 10.00, 0.125,
                storage_per_mtok_hour=4.50,
                tier_boundary_tokens=200_000,
                tier2_input_per_mtok=2.50,
                tier2_output_per_mtok=15.00,
                tier2_cached_read_per_mtok=0.250,
            ),
        ),
    ]


def builtin_policy(name: str) -> ProviderPolicy:
    """Look up one built-in policy by name."""
    for policy in builtin_policies():
        if policy.name == name:
            return policy
    known = ", ".join(p.name for p in builtin_policies())
    raise KeyError(f"unknown policy {name!r}; built-ins are: {known}")


def price_call(usage: UsageRecord, policy: ProviderPolicy) -> np.ndarray:
    """Price API calls in USD, one per entry of ``usage``'s columns (numpy
    arrays of token counts).

    Each usage component is billed at its per-token rate. For tiered
    schedules the tier is selected per call from the whole prompt size,
    ``uncached_input + cached_read``, and the tier-2 rates then apply to
    every component of that call. Storage charges are not included here.
    """
    p = policy.prices
    in_rate, read_rate, out_rate = p.input_per_mtok, p.cached_read_per_mtok, p.output_per_mtok
    if p.tier_boundary_tokens is not None:
        tiered = usage.uncached_input + usage.cached_read > p.tier_boundary_tokens
        in_rate = np.where(tiered, p.tier2_input_per_mtok, in_rate)
        read_rate = np.where(tiered, p.tier2_cached_read_per_mtok, read_rate)
        out_rate = np.where(tiered, p.tier2_output_per_mtok, out_rate)
    write_rate = p.cache_write_per_mtok or 0.0
    total = (usage.uncached_input * in_rate
             + usage.cached_read * read_rate
             + usage.cache_write * write_rate
             + usage.output * out_rate)
    return total / 1e6


# --- JSON schema -------------------------------------------------------------
#
# One policy object (``cachesim.config.to_json`` writes it from the
# dataclass fields; ``policy_from_dict`` reads and validates it):
# {
#   "name": str, "min_cache_tokens": int, "granularity_tokens": int,
#   "ttl_seconds": float, "refresh_on_read": bool,
#   "mode": "automatic" | "explicit-breakpoints",
#   "opportunistic_segments": bool (optional, default false; only for
#                             "automatic" mode),
#   "prices": {
#     "input_per_mtok": float, "output_per_mtok": float,
#     "cached_read_per_mtok": float,
#     "cache_write_per_mtok": float | null,
#     "storage_per_mtok_hour": float | null,
#     "tier_boundary_tokens": int | null,
#     "tier2_input_per_mtok": float | null,
#     "tier2_output_per_mtok": float | null,
#     "tier2_cached_read_per_mtok": float | null
#   }
# }
# Config files list such objects inline among their policies. A missing
# required key or any key not listed above, in the policy or in its
# prices, is rejected with its name, and so are a name that is not a
# string, a mode other than the two above, a TTL or rate that is not a
# finite number (or is a bool), a negative rate, a token count that is
# not an integer, a non-boolean flag, and opportunistic segments on an
# explicit-breakpoints policy.

def policy_from_dict(data: dict) -> ProviderPolicy:
    """Build a policy from its JSON object: the object's keys are
    :class:`ProviderPolicy`'s fields, with ``mode`` and ``prices`` given in
    their JSON form."""
    try:
        return ProviderPolicy(**{**data, "mode": CacheMode(data["mode"]),
                                 "prices": PriceSchedule(**data["prices"])})
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed policy document: {exc}") from exc
