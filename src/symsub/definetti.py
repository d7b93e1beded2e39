"""Finite de Finetti error bounds and the exponential-decomposition coefficient
recursion that inverts the measure-and-prepare expansion.

Notation used in this module, for fixed (d, n, k) with k <= n:

* A_s = clone_{k-s -> k} o tr_{n-(k-s)}   ("trace down to k-s copies, clone up")
* B_s = clone_{k-s -> k} o MP_{n -> k-s}
* M_{j,s} = mp_clone_coefficient(d, n, j, s)

The expansion B_r = sum_{s >= r} T[r][s] A_s with T[r][s] = M_{k-r, k-s} (a
reindexed instance of the measure-and-prepare identity composed with a cloner)
is inverted step by step: after r steps, A_0 = sum_{s<r} x_s B_s +
sum_{s>=r} y_s^(r) A_s with exact rational coefficients.  At r = k the leftover
term A_k equals B_k (both reduce to "trace everything, prepare the normalized
symmetric state"), giving the clean form
tr_{n-k} = sum_s x_s clone_{k-s -> k} o MP_{n -> k-s}.

The inversion is solved in integers.  T factors as D_row^-1 V D_col with
D_row[r] = C(d+n+k-r-1, k-r), D_col[s] = C(n, k-s) and the unit upper-triangular
integer matrix V[r][s] = C(d-1+k-r, s-r), which does not depend on n.  With the
integer row w = e_0 V^-1,
x_s = w_s C(d+n+k-s-1, k-s) / C(n, k) and
y_s^(r) = delta_{s0} - C(n, k-s) sum_{s'<r} w_{s'} V[s'][s] / C(n, k) for s >= r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

from .exactcomb import binomial, mp_clone_coefficient, sym_dim

if TYPE_CHECKING:
    import numpy as np

    from .channels import Superoperator

# numpy and the channels load inside the three dense functions at the end, so
# the exact part of this module imports without them


def definetti_epsilon(d: int, n: int, k: int) -> Fraction:
    """The de Finetti error coefficient k(d+k)/(n+d); meaningful when <= 1."""
    if k < 0 or n < 0 or d < 1:
        raise ValueError("invalid arguments")
    return Fraction(k * (d + k), n + d)


def definetti_delta(d: int, n: int, k: int) -> Fraction:
    """The recursion's contraction parameter k(d+k)/n."""
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(k * (d + k), n)


@dataclass(frozen=True)
class DeFinettiCoefficients:
    """Exact coefficients after r inversion steps.

    x[s] multiplies B_s for s < r; y[s - r] multiplies A_s for s = r..k.
    """

    d: int
    n: int
    k: int
    r: int
    delta: Fraction
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


def exp_definetti_coefficients(d: int, n: int, k: int, r: int) -> DeFinettiCoefficients:
    """Run the inversion recursion for r steps, exactly.

    Base case r=0 is A_0 = 1 * A_0.  Each step replaces the leading A_r term,
    using A_r = B_r / M_{k-r,k-r} - sum_{s>r} (M_{k-r,k-s}/M_{k-r,k-r}) A_s.
    The steps are the forward substitution w_s = delta_{s0} - sum_{s'<s} w_{s'} V[s'][s]
    on the integer system w V = e_0 (module docstring); acc[s] holds the sum
    over the rows substituted so far, and each row of V is stepped as
    C(m, j+1) = C(m, j) (m-j) / (j+1) with m = d-1+k-s'.
    """
    if not (0 <= r <= k <= n):
        raise ValueError("need 0 <= r <= k <= n")
    if d < 1:
        raise ValueError("d must be positive")
    acc = [0] * (k + 1)
    w: list[int] = []
    for row in range(r):
        w_row = (row == 0) - acc[row]
        w.append(w_row)
        m, v = d - 1 + k - row, 1
        for j in range(k - row):
            v = v * (m - j) // (j + 1)
            acc[row + 1 + j] += w_row * v
    c_nk = binomial(n, k)
    return DeFinettiCoefficients(
        d=d, n=n, k=k, r=r,
        delta=definetti_delta(d, n, k),
        x=tuple(Fraction(w_s * binomial(d + n + k - s - 1, k - s), c_nk) for s, w_s in enumerate(w)),
        y=tuple(Fraction((s == 0) * c_nk - binomial(n, k - s) * acc[s], c_nk) for s in range(r, k + 1)),
    )


def exp_definetti_full_coefficients(d: int, n: int, k: int) -> tuple[Fraction, ...]:
    """Coefficients x_0..x_k of tr_{n-k} = sum_s x_s clone_{k-s->k} o MP_{n->k-s}.

    Runs the recursion to r = k; the final leftover weight y_k^(k) multiplies
    A_k = B_k, so it becomes x_k.
    """
    c = exp_definetti_coefficients(d, n, k, k)
    return c.x + (c.y[0],)


def exp_definetti_identity_check(d: int, n: int, k: int, r: int) -> bool:
    """Exact verification that the r-step coefficients reproduce A_0 when every
    B_s is expanded back into the A basis, B_s = sum_{t>=s} M_{k-s,k-t} A_t.

    M_{k-s,k-t} = C(n, k-t) C(d+k-s-1, t-s) / C(d+n+k-s-1, k-s) by its defining
    binomials.  Each x_s / C(d+n+k-s-1, k-s) and each y_t is reduced and put
    over one common denominator L, so L times the coefficient of every A_t is
    an integer sum, compared with L e_0.
    """
    c = exp_definetti_coefficients(d, n, k, r)
    heads = [xs / binomial(d + n + k - s - 1, k - s) for s, xs in enumerate(c.x)]
    common = lcm(*(f.denominator for f in heads + list(c.y)))
    acc = [0] * (k + 1)
    for s, head in enumerate(heads):
        scaled = head.numerator * (common // head.denominator)
        for t in range(s, k + 1):
            acc[t] += scaled * binomial(d + k - s - 1, t - s)
    acc = [a * binomial(n, k - t) for t, a in enumerate(acc)]
    for t, yt in enumerate(c.y, start=r):
        acc[t] += yt.numerator * (common // yt.denominator)
    return acc == [common] + [0] * k


@dataclass(frozen=True)
class CoefficientBoundsReport:
    applicable: bool
    x_details: tuple[tuple[int, Fraction, Fraction, bool], ...]
    y_details: tuple[tuple[int, Fraction, Fraction, bool], ...]
    truncation_tail: Fraction

    @property
    def passed(self) -> bool:
        return not self.applicable or all(ok for *_, ok in self.x_details + self.y_details)


def check_coefficient_bounds(c: DeFinettiCoefficients) -> CoefficientBoundsReport:
    """Exact comparisons |x_s| <= (2 delta)^s / (1 - delta), |y_s| <= 2^r delta^s.

    Reported as not-applicable when delta >= 1.  The truncation tail
    sum_{s >= r} |y_s^(r)| is reported as a diagnostic of the dropped terms; no
    claim is made that it equals any diamond-norm error.
    """
    delta = c.delta
    tail = sum((abs(v) for v in c.y), Fraction(0))
    if delta >= 1:
        return CoefficientBoundsReport(applicable=False, x_details=(), y_details=(), truncation_tail=tail)
    x_details = []
    for s, xs in enumerate(c.x):
        bound = (2 * delta) ** s / (1 - delta)
        x_details.append((s, abs(xs), bound, abs(xs) <= bound))
    y_details = []
    for offset, ys in enumerate(c.y):
        s = c.r + offset
        bound = Fraction(2) ** c.r * delta**s
        y_details.append((s, abs(ys), bound, abs(ys) <= bound))
    return CoefficientBoundsReport(
        applicable=True, x_details=tuple(x_details), y_details=tuple(y_details), truncation_tail=tail
    )


def _exp_definetti_entries(d: int, n: int, k: int):
    """tr_{n-k}, a generator of the terms x_s clone_{k-s->k} o MP_{n->k-s} as entry lists,
    and the two sides."""
    from .channels import _clone_entries, _compose_entries, _mp_entries, _trace_entries

    lhs = _trace_entries(d, n, k)
    coeffs = exp_definetti_full_coefficients(d, n, k)
    terms = ((xs, _compose_entries(_mp_entries(d, n, k - s), _clone_entries(d, k - s, s))) for s, xs in enumerate(coeffs))
    return lhs, terms, sym_dim(d, k), sym_dim(d, n)


def exp_definetti_sides(d: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """tr_{n-k} and sum_s x_s clone_{k-s->k} o MP_{n->k-s} on symmetric
    coordinates, as superoperator matrices."""
    from .channels import _identity_sides

    return _identity_sides(*_exp_definetti_entries(d, n, k))


def verify_exp_definetti(d: int, n: int, k: int) -> float:
    """Frobenius residual of the exact inversion identity at r = k, from the summed entry lists.

    The identity is pure linear algebra in the channel coefficients, so it
    holds for every k <= n, including delta >= 1.
    """
    from .channels import _identity_residual

    return _identity_residual(*_exp_definetti_entries(d, n, k))


def mp_remainder_channel_sym(d: int, n: int, k: int) -> tuple[Fraction, Superoperator]:
    """Split MP_{n->k} = (1-eps) tr_{n-k} + eps N with eps = 1 - M_{k,k};
    returns (eps, N) on symmetric coordinates.  N is completely positive and
    trace preserving there, which is the content of the two-term de Finetti
    decomposition."""
    import numpy as np

    from .channels import Superoperator, mp_channel_sym, trace_channel_sym

    m_kk = mp_clone_coefficient(d, n, k, k)
    eps = 1 - m_kk
    mp = mp_channel_sym(d, n, k)
    tr = trace_channel_sym(d, n, k)
    if eps == 0:
        return eps, Superoperator(np.zeros_like(mp.matrix), mp.in_dims, mp.out_dims)
    remainder = (mp.matrix - float(m_kk) * tr.matrix) / float(eps)
    return eps, Superoperator(remainder, mp.in_dims, mp.out_dims)
