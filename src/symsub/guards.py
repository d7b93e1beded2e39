"""Size caps shared by every module that materializes dense objects or large exact powers."""

from __future__ import annotations

import os
from fractions import Fraction

DEFAULT_MAX_DIM = 2**14
PERMUTATION_ENUMERATION_CAP = 9  # largest n for which all of S_n is listed
PARTITION_COUNT_CAP = 10**6      # most partitions of n that are listed
MATCHING_ENUMERATION_CAP = 6     # largest n for which matchings of [2n] are listed
POWER_BITS_CAP = 2**26           # most bits, n * max(bit_length), of an exact power x^n

_max_dim_override: int | None = None


class DimensionGuardError(ValueError):
    """Raised when a requested dense object exceeds the configured size cap."""


def max_dim() -> int:
    """Current cap on the side length of dense operators."""
    if _max_dim_override is not None:
        return _max_dim_override
    env = os.environ.get("SYMSUB_MAX_DIM")
    if env:
        return int(env)
    return DEFAULT_MAX_DIM


def set_max_dim(value: int | None) -> None:
    """Override the operator size cap; None restores the default/env value."""
    global _max_dim_override
    if value is not None and value < 1:
        raise ValueError("max dim must be positive")
    _max_dim_override = value


def guard_dimension(dim: int, what: str = "operator") -> None:
    if dim > max_dim():
        raise DimensionGuardError(
            f"refusing to materialize {what} of dimension {dim} "
            f"(cap {max_dim()}; raise via set_max_dim, --max-dim or SYMSUB_MAX_DIM)"
        )


def guard_permutations(n: int) -> None:
    if n > PERMUTATION_ENUMERATION_CAP:
        raise DimensionGuardError(
            f"refusing to enumerate S_{n} ({n}! elements; cap n <= {PERMUTATION_ENUMERATION_CAP})"
        )


def guard_partitions(n: int) -> None:
    """Refuse n whose partition count p(n) exceeds PARTITION_COUNT_CAP.

    Counts p(0), p(1), ... by Euler's pentagonal recurrence and stops at the
    first count above the cap (p never decreases), so even a huge n is
    refused at once."""
    counts = [1]
    for m in range(1, n + 1):
        value, k = 0, 1
        while (pent := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            value += sign * counts[m - pent]
            if pent + k <= m:
                value += sign * counts[m - pent - k]
            k += 1
        if value > PARTITION_COUNT_CAP:
            raise DimensionGuardError(
                f"refusing to enumerate the partitions of {n} "
                f"(more than the cap {PARTITION_COUNT_CAP}: p({m}) = {value})"
            )
        counts.append(value)


def guard_matchings(n: int) -> None:
    if n > MATCHING_ENUMERATION_CAP:
        raise DimensionGuardError(
            f"refusing to enumerate perfect matchings of [2*{n}] "
            f"((2n-1)!! elements; cap n <= {MATCHING_ENUMERATION_CAP})"
        )


def guard_power_bits(x: Fraction, n: int) -> None:
    """Refuse the exact power x^n when n times the longer of x's numerator and
    denominator exceeds POWER_BITS_CAP bits."""
    bits = n * max(x.numerator.bit_length(), x.denominator.bit_length())
    if bits > POWER_BITS_CAP:
        raise DimensionGuardError(
            f"refusing to compute an exact power of about {bits} bits "
            f"(exponent {n}; cap {POWER_BITS_CAP} bits)"
        )
