"""Exact combinatorics: binomials, symmetric-subspace dimensions, hypergeometric
clone/measure-and-prepare coefficients, Jacobi polynomials, and the rational
normalization of real unit-vector moments.

Everything here is exact.  Coefficients are Python ints or ``fractions.Fraction``
(arbitrary precision, always in lowest terms); floating point never enters.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import comb, factorial

from .guards import guard_partitions, guard_types


class TypeVector:
    """Occupation counts (t_1, ..., t_d) of a length-n string over a d-letter alphabet.

    Immutable, equal and hashed by its entries, and weak-referenceable.  A
    plain slotted class rather than a frozen dataclass: declaring a dataclass
    imports ``dataclasses`` and, through it, ``inspect``, ``ast`` and ``dis``,
    12 modules and about 9 ms of every cold ``import symsub;
    symsub.sym_dim(...)`` (69 → 60 ms on CPython 3.11, 2 vCPUs).
    """

    __slots__ = ("entries", "__weakref__")

    def __init__(self, entries: tuple[int, ...]):
        if len(entries) == 0:
            raise ValueError("type vector needs at least one entry")
        if any(t < 0 for t in entries):
            raise ValueError("occupation counts must be nonnegative")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not __setattr__
        return TypeVector, (self.entries,)

    def __repr__(self):
        return f"TypeVector(entries={self.entries!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash((self.entries,))

    @property
    def d(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b); zero outside 0 <= b <= a."""
    if a < 0:
        raise ValueError("a must be nonnegative")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def multinomial(n: int, t: TypeVector | Sequence[int]) -> int:
    """n! / (t_1! ... t_d!) for occupation counts summing to n."""
    counts = tuple(t)
    if sum(counts) != n:
        raise ValueError(f"occupation counts sum to {sum(counts)}, expected {n}")
    out = factorial(n)
    for c in counts:
        out //= factorial(c)
    return out


def sym_dim(d: int, n: int) -> int:
    """Dimension C(d+n-1, n) of the symmetric subspace of n systems of dimension d."""
    if d < 1:
        raise ValueError("d must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(d + n - 1, n)


def enumerate_types(d: int, n: int) -> list[TypeVector]:
    """All occupation vectors for (d, n), ordered lexicographically descending in t_1.

    This ordering is the column order of every type-basis matrix in the package.
    The guard refuses a list of more than TYPE_ENUMERATION_CAP occupation counts
    before any type is built.  A loop: a recursion one level per letter hit
    Python's recursion limit near d = 1000.
    """
    if d < 1:
        raise ValueError("d must be positive")
    guard_types(d, n, sym_dim(d, n))
    counts = [n] + [0] * (d - 1)
    out = [TypeVector(tuple(counts))]
    while counts[-1] < n:  # the last type is (0, ..., 0, n)
        # the successor: take one from the last nonzero count before t_d, and
        # put it with t_d in the slot after it
        j = d - 2
        while counts[j] == 0:
            j -= 1
        last, counts[-1] = counts[-1], 0
        counts[j] -= 1
        counts[j + 1] = last + 1
        out.append(TypeVector(tuple(counts)))
    return out


def conjugation_fixed_dimension(d: int, n: int) -> int:
    """(1/n!) sum_pi d^(2 cycles(pi)), the commutant dimension of the
    conjugation action of S_n on n copies of the d x d matrix algebra.

    Summed over cycle types: each partition lambda of n, with m_i parts equal
    to i, stands for the n!/z_lambda permutations with z_lambda =
    prod_i i^m_i m_i!, each with l(lambda) = sum_i m_i cycles.  Listing the
    partitions keeps this an independent check of the closed form
    sym_dim(d**2, n)."""
    guard_partitions(n)
    n_fact = factorial(n)
    total = _cycle_type_sum(n_fact, [(d * d) ** length for length in range(n + 1)], n, n, 0, 1)
    quotient, remainder = divmod(total, n_fact)
    if remainder:
        raise ArithmeticError("commutant dimension sum not divisible by n!")
    return quotient


def _cycle_type_sum(n_fact: int, powers: list[int], remaining: int, largest: int, length: int, z: int) -> int:
    """sum of n!/z_lambda * powers[l(lambda)] over the partitions lambda that complete the
    parts chosen so far (length of them, z their z-factor) with parts of size <= largest;
    parts of size 1 close each one.  Not a closure: a self-calling closure is a reference cycle."""
    total = n_fact // (z * factorial(remaining)) * powers[length + remaining]
    for part in range(min(largest, remaining), 1, -1):
        z_part = z
        for m in range(1, remaining // part + 1):
            z_part *= part * m
            total += _cycle_type_sum(n_fact, powers, remaining - m * part, part - 1, length + m, z_part)
    return total


def mp_clone_coefficient(d: int, n: int, k: int, s: int) -> Fraction:
    """Hypergeometric weight C(n,s) C(d+k-1,k-s) / C(d+n+k-1,k).

    These weights mix "trace down to s copies, clone back up to k" channels into
    the optimal n-to-k measure-and-prepare channel; they sum to one over s=0..k.
    """
    return Fraction(binomial(n, s) * binomial(d + k - 1, k - s), binomial(d + n + k - 1, k))


def _mp_clone_weights(d: int, n: int, k: int) -> list[int]:
    """The integer weights a_s = C(n,s) C(d+k-1,k-s), s = 0..k."""
    return [binomial(n, s) * binomial(d + k - 1, k - s) for s in range(k + 1)]


def _homogeneous_sum(weights: list[int], p: int, q: int) -> int:
    """sum_s weights[s] p^s q^(k-s) by integer Horner, k = len(weights) - 1."""
    acc, power = 0, 1
    for w in weights:
        acc = acc * q + w * power
        power *= p
    return acc


def mp_clone_polynomial(d: int, n: int, k: int, x: Fraction | int) -> Fraction:
    """Evaluate sum_s mp_clone_coefficient(d,n,k,s) * x**s exactly.

    With x = p/q the sum is sum_s a_s p^s q^(k-s) / (C(d+n+k-1,k) q^k) with the
    integer weights a_s = C(n,s) C(d+k-1,k-s); the numerator is summed in
    integers and reduced once.
    """
    if k < 0:  # the empty sum
        return Fraction(0)
    xf = Fraction(x)
    p, q = xf.numerator, xf.denominator
    acc = _homogeneous_sum(_mp_clone_weights(d, n, k), p, q)
    return Fraction(acc, binomial(d + n + k - 1, k) * q**k)


def _jacobi_numerator(alpha: int, beta: int, k: int, big_p: int, q: int) -> tuple[int, int]:
    """(N_k, D_k) with P_k^(alpha,beta)(P/q) = N_k / (q^k D_k), for k >= 0 and
    any integers P, q != 0.

    Step j of the three-term recurrence carries p_j = N_j / (q^j D_j) with an
    integer N_j, homogeneous of degree j in (P, q), and D_j the product of the
    recurrence denominators so far.  Raises ValueError at integer parameters
    where a recurrence denominator vanishes (only possible for
    alpha + beta <= -2).
    """
    if k == 0:
        return 1, 1
    n_prev, n_cur = 1, 2 * (alpha + 1) * q + (alpha + beta + 2) * (big_p - q)
    den, last = 2, 2  # D_1 and its last factor
    for j in range(2, k + 1):
        c = 2 * j + alpha + beta
        denom = 2 * j * (j + alpha + beta) * (c - 2)
        if denom == 0:
            raise ValueError(
                f"three-term recurrence singular at step {j} for (alpha, beta)=({alpha}, {beta})"
            )
        lin = (c - 1) * (alpha**2 - beta**2) * q + (c - 2) * (c - 1) * c * big_p
        tail = 2 * (j + alpha - 1) * (j + beta - 1) * c * last * q * q
        n_prev, n_cur = n_cur, lin * n_cur - tail * n_prev
        den, last = den * denom, denom
    return n_cur, den


def jacobi_polynomial(alpha: int, beta: int, k: int, y: Fraction | int) -> Fraction:
    """Jacobi polynomial P_k^(alpha,beta)(y) by the three-term recurrence, exactly.

    The integer numerator and denominator come from ``_jacobi_numerator`` and
    the result is reduced once.  Raises ValueError at integer parameters where
    the recurrence denominator vanishes (only possible for alpha + beta <= -2).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    yf = Fraction(y)
    q = yf.denominator
    num, den = _jacobi_numerator(alpha, beta, k, yf.numerator, q)
    return Fraction(num, q**k * den)


JACOBI_CHECK_POINTS = (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(-1, 3), Fraction(7, 5))


def mp_polynomial_jacobi_identity(d: int, n: int, k: int, points=JACOBI_CHECK_POINTS) -> bool:
    """Exact check that the coefficient polynomial has the Jacobi form
    M_k(x) = (x-1)^k / C(d+n+k-1, k) * P_k^(n-k, d-1)((x+1)/(x-1))
    at the given rational points (x = 1 is excluded by the default set).

    With x = p/q, M_k(x) = acc / (C(d+n+k-1, k) q^k) with
    acc = sum_s a_s p^s q^(k-s) (see ``mp_clone_polynomial``).  Left unreduced,
    y = (p+q)/(p-q) gives P_k(y) = N_k / ((p-q)^k D_k) by the recurrence, so
    (x-1)^k = (p-q)^k / q^k, q^k and the binomial all cancel and each point is
    the one integer equation acc D_k == N_k(p+q, p-q).  The weights a_s are
    computed once per call.
    """
    weights = None
    for x in points:
        xf = Fraction(x)
        p, q = xf.numerator, xf.denominator
        if k >= 0:  # for k < 0, M_k is the empty sum
            if weights is None:
                weights = _mp_clone_weights(d, n, k)
                norm = binomial(d + n + k - 1, k)
            acc = _homogeneous_sum(weights, p, q)
            if norm == 0:  # only when d + n <= 0: M_k(x) is acc / 0
                raise ZeroDivisionError(f"Fraction({acc}, 0)")
        if p == q:
            (xf + 1) / (xf - 1)  # y is undefined at x = 1: raises ZeroDivisionError
        if k < 0:
            raise ValueError("k must be nonnegative")
        num, den = _jacobi_numerator(n - k, d - 1, k, p + q, p - q)
        if acc * den != num:
            return False
    return True


def real_moment_ratio(d: int, n: int) -> Fraction:
    """Exact value of 1 / (d (d+2) (d+4) ... (d+2n-2)).

    This is the half-integer Gamma-function ratio that normalizes the n-th
    tensor-power moment of a real unit vector against the real Gaussian moment;
    it telescopes to a rational, so no floating-point Gamma is needed.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    prod = 1
    for i in range(n):
        prod *= d + 2 * i
    return Fraction(1, prod)


def rising_factorial_dim(d: int, n: int) -> Fraction:
    """d(d+1)...(d+n-1)/n!, the product form of sym_dim; kept for cross-checks.

    Stepped over the shorter of the two equal products, (n+1)...(n+d-1)/(d-1)!,
    as v (m+j) / j with m = max(n, d-1), so it takes min(n, d-1) steps.  Each
    partial value is the binomial C(m+j, j) <= sym_dim(d, n): the division is
    exact and, under the type cap, every partial value fits in 22 bits.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    m, v = max(n, d - 1), 1
    for j in range(1, min(n, d - 1) + 1):
        v = v * (m + j) // j
    return Fraction(v)
