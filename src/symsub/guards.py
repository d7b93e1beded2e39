"""Size caps shared by every module that materializes dense objects or large exact powers."""

from __future__ import annotations

import os
from fractions import Fraction
from math import log2

DEFAULT_MAX_DIM = 2**14
PERMUTATION_ENUMERATION_CAP = 9  # largest n for which all of S_n is listed
PARTITION_ENUMERATION_CAP = 60   # largest n whose partitions are listed: p(60) <= 10**6 < p(61)
TYPE_ENUMERATION_CAP = 2**22     # most occupation counts, sym_dim(d, n) * d, in one list of types
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
    if not env:
        return DEFAULT_MAX_DIM
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"SYMSUB_MAX_DIM must be a positive integer, got {env!r}")
    return value


def set_max_dim(value: int | None) -> None:
    """Override the operator size cap; None restores the default/env value."""
    global _max_dim_override
    if value is not None and value < 1:
        raise ValueError("max dim must be positive")
    _max_dim_override = value


def _size(value: int) -> str:
    """value in digits, or as about 2^b when it has more than 20 of them."""
    return str(value) if value < 10**20 else f"about 2^{round(log2(value))}"


def guard_dimension(dim: int, what: str = "operator") -> None:
    if dim > max_dim():
        raise DimensionGuardError(
            f"refusing to materialize {what} of dimension {_size(dim)} "
            f"(cap {max_dim()}; raise via set_max_dim, --max-dim or SYMSUB_MAX_DIM)"
        )


def _guard_enumeration(n: int, cap: int, what: str, size: str) -> None:
    if n > cap:
        raise DimensionGuardError(f"refusing to enumerate {what} ({size}; cap n <= {cap})")


def guard_permutations(n: int) -> None:
    _guard_enumeration(n, PERMUTATION_ENUMERATION_CAP, f"S_{n}", f"{n}! elements")


def guard_partitions(n: int) -> None:
    _guard_enumeration(n, PARTITION_ENUMERATION_CAP, f"the partitions of {n}", "more than 10**6 of them")


def guard_types(d: int, n: int, count: int) -> None:
    """Refuse to list the count = sym_dim(d, n) types of (d, n) when they hold
    more than TYPE_ENUMERATION_CAP occupation counts."""
    if count * d > TYPE_ENUMERATION_CAP:
        raise DimensionGuardError(
            f"refusing to enumerate the {_size(count)} types of (d, n) = ({d}, {n}) "
            f"({_size(count * d)} occupation counts; cap {TYPE_ENUMERATION_CAP})"
        )


def guard_matchings(n: int) -> None:
    _guard_enumeration(n, MATCHING_ENUMERATION_CAP, f"perfect matchings of [2*{n}]", "(2n-1)!! elements")


def guard_power_bits(x: Fraction, n: int) -> None:
    """Refuse the exact power x^n when n times the longer of x's numerator and
    denominator exceeds POWER_BITS_CAP bits."""
    bits = n * max(x.numerator.bit_length(), x.denominator.bit_length())
    if bits > POWER_BITS_CAP:
        raise DimensionGuardError(
            f"refusing to compute an exact power of up to {_size(bits)} bits "
            f"(exponent {_size(n)}; cap {POWER_BITS_CAP} bits)"
        )
