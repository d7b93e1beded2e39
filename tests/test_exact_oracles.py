"""The integer forms of the exact-coefficient layer against the Fraction forms
they replace.

``exp_definetti_coefficients`` gives the de Finetti inversion in closed form,
x_s = (-1)^s C(d-1+k, s) C(d+n+k-s-1, k-s) / C(n, k); ``mp_clone_polynomial``
and ``f_overlap`` sum their numerators by integer Horner over one common
denominator; and ``jacobi_polynomial`` carries integer numerators through the
three-term recurrence.  Each oracle below is the earlier Fraction form,
normalising after every term; the library must return an equal Fraction (and
raise the same ValueError) on every input, including the d = 1, k = 0, r = 0,
r = k and n = k edges and the points x in {0, 1, -1, p/q}.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsub.channels import estimation_fidelity, f_overlap
from symsub.definetti import (
    exp_definetti_coefficients,
    exp_definetti_full_coefficients,
    exp_definetti_identity_check,
)
from symsub.exactcomb import (
    binomial,
    jacobi_polynomial,
    mp_clone_coefficient,
    mp_clone_polynomial,
    mp_polynomial_jacobi_identity,
)

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

POINTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-7, 3), Fraction(13, 11), 2, -3)


# ---------------------------------------------------------------------------
# oracles: the Fraction forms, one normalisation per term
# ---------------------------------------------------------------------------

def _inversion_by_fractions(d, n, k, r):
    """(x, y) after r steps of A_r = B_r / M_{k-r,k-r} - sum_{s>r} (M_{k-r,k-s}/M_{k-r,k-r}) A_s."""
    y = [Fraction(0)] * (k + 1)
    y[0] = Fraction(1)
    x = []
    for step in range(r):
        head = y[step]
        m_diag = mp_clone_coefficient(d, n, k - step, k - step)
        x.append(head / m_diag)
        for s in range(step + 1, k + 1):
            y[s] -= head * mp_clone_coefficient(d, n, k - step, k - s) / m_diag
        y[step] = Fraction(0)
    return tuple(x), tuple(y[r:])


def _mp_clone_polynomial_by_fractions(d, n, k, x):
    xf = Fraction(x)
    acc = Fraction(0)
    power = Fraction(1)
    for s in range(k + 1):
        acc += mp_clone_coefficient(d, n, k, s) * power
        power *= xf
    return acc


def _f_overlap_by_fractions(d, n, k, x):
    if k < 0:  # the empty sum, before any binomial
        return Fraction(0)
    xf = Fraction(x)
    acc = Fraction(0)
    power = Fraction(1)
    denom = binomial(n + k, k)
    for s in range(k + 1):
        acc += Fraction(binomial(k, s) * binomial(n, s), denom) * power
        power *= xf
    return estimation_fidelity(d, n, k) * acc


def _jacobi_by_fractions(alpha, beta, k, y):
    if k < 0:
        raise ValueError("k must be nonnegative")
    yf = Fraction(y)
    p_prev = Fraction(1)
    if k == 0:
        return p_prev
    p_cur = Fraction(alpha + 1) + Fraction(alpha + beta + 2) * (yf - 1) / 2
    for j in range(2, k + 1):
        c = 2 * j + alpha + beta
        denom = 2 * j * (j + alpha + beta) * (c - 2)
        if denom == 0:
            raise ValueError(
                f"three-term recurrence singular at step {j} for (alpha, beta)=({alpha}, {beta})"
            )
        lin = Fraction((c - 1) * (alpha**2 - beta**2)) + Fraction((c - 2) * (c - 1) * c) * yf
        p_next = (lin * p_cur - Fraction(2 * (j + alpha - 1) * (j + beta - 1) * c) * p_prev) / denom
        p_prev, p_cur = p_cur, p_next
    return p_cur


def _outcome(fn, *args):
    """The value, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _assert_inversion_matches(d, n, k, r):
    c = exp_definetti_coefficients(d, n, k, r)
    x, y = _inversion_by_fractions(d, n, k, r)
    assert (c.x, c.y) == (x, y)
    assert all(type(v) is Fraction for v in c.x + c.y)


# ---------------------------------------------------------------------------
# the de Finetti inversion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "d,n,k",
    [(1, 5, 3), (1, 1, 1), (1, 4, 0), (4, 10, 0), (3, 6, 6), (2, 3, 3), (5, 7, 7), (3, 20, 7), (2, 60, 12)],
)
def test_inversion_edges_match_fraction_recursion(d, n, k):
    for r in range(k + 1):
        _assert_inversion_matches(d, n, k, r)


@pytest.mark.parametrize("d,n,k", [(3, 1000, 80), (2, 20000, 30)])
def test_inversion_large_cases_match_fraction_recursion(d, n, k):
    for r in sorted({0, 1, k // 2, k}):
        _assert_inversion_matches(d, n, k, r)


def test_full_coefficients_match_and_close_the_identity():
    for d, n, k in [(1, 3, 3), (2, 5, 0), (2, 9, 4), (3, 8, 8), (4, 12, 5)]:
        x, y = _inversion_by_fractions(d, n, k, k)
        assert exp_definetti_full_coefficients(d, n, k) == x + y
        assert exp_definetti_identity_check(d, n, k, k)


def test_inversion_first_coefficient_closed_form():
    # x_0 = 1 / M_{k,k} = C(d+n+k-1, k) / C(n, k)
    for d, n, k in [(1, 4, 4), (3, 1000, 80), (2, 100000, 40)]:
        c = exp_definetti_coefficients(d, n, k, k)
        assert c.x[0] == Fraction(comb(d + n + k - 1, k), comb(n, k))


def test_inversion_range_errors_unchanged():
    for args in [(2, 4, 5, 1), (2, 4, 3, 4), (2, 4, 3, -1), (0, 4, 3, 1)]:
        with pytest.raises(ValueError):
            exp_definetti_coefficients(*args)
    with pytest.raises(ValueError, match="n must be positive"):
        exp_definetti_coefficients(2, 0, 0, 0)


@DERANDOMIZED
@given(
    d=st.integers(1, 5),
    n=st.integers(1, 60),
    k=st.integers(0, 20),
    r=st.integers(0, 20),
)
def test_inversion_property(d, n, k, r):
    k = min(k, n)
    _assert_inversion_matches(d, n, k, min(r, k))


def test_alternating_binomial_row_solves_the_unit_triangular_system():
    # w V = e_0 in integers, with V[r][s] = C(D-r, s-r) and w_s = (-1)^s C(D, s), D = d-1+k
    for d in range(1, 7):
        for k in range(41):
            top = d - 1 + k
            w = [(-1) ** s * comb(top, s) for s in range(k + 1)]
            row = [sum(w[r] * comb(top - r, s - r) for r in range(s + 1)) for s in range(k + 1)]
            assert row == [1] + [0] * k, (d, k)


@pytest.mark.parametrize(
    "n,k", [(1, 0), (1, 1), (3, 3), (5, 2), (7, 7), (9, 4), (20, 7), (40, 12)]
)
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_scaled_coefficients_are_the_closed_form_integers(d, n, k):
    top, c_nk = d - 1 + k, comb(n, k)
    for r in range(k + 1):
        c = exp_definetti_coefficients(d, n, k, r)
        assert [c_nk * xs for xs in c.x] == [
            (-1) ** s * comb(top, s) * comb(d + n + k - s - 1, k - s) for s in range(r)
        ]
        if r == 0:
            expected_y = [c_nk] + [0] * k
        else:
            expected_y = [(-1) ** r * comb(n, k - s) * comb(top, s) * comb(s - 1, r - 1) for s in range(r, k + 1)]
        assert [c_nk * ys for ys in c.y] == expected_y


# ---------------------------------------------------------------------------
# the two coefficient polynomials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,n,k", [(1, 0, 0), (1, 3, 3), (2, 0, 4), (2, 5, 0), (3, 4, 4), (4, 9, 6), (5, 30, 15)])
def test_polynomials_edges_match_fraction_loops(d, n, k):
    for x in POINTS:
        assert mp_clone_polynomial(d, n, k, x) == _mp_clone_polynomial_by_fractions(d, n, k, x)
        assert f_overlap(d, n, k, x) == _f_overlap_by_fractions(d, n, k, x)


def test_polynomials_at_one_are_normalisations():
    for d, n, k in [(1, 2, 2), (2, 7, 3), (3, 5, 9)]:
        assert mp_clone_polynomial(d, n, k, 1) == 1
        assert f_overlap(d, n, k, 1) == estimation_fidelity(d, n, k)


def test_polynomials_negative_k_and_bad_arguments_unchanged():
    for d, n, k in [(2, 3, -1), (1, 0, -1), (2, 0, -2), (2, 1, -3), (2, 1, -2), (2, -1, 2), (0, 3, 2)]:
        for x in (Fraction(1, 3), -1):
            assert _outcome(mp_clone_polynomial, d, n, k, x) == _outcome(_mp_clone_polynomial_by_fractions, d, n, k, x)
            assert _outcome(f_overlap, d, n, k, x) == _outcome(_f_overlap_by_fractions, d, n, k, x)


_rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 30))


@DERANDOMIZED
@given(d=st.integers(1, 5), n=st.integers(0, 30), k=st.integers(0, 15), x=_rationals)
def test_polynomials_property(d, n, k, x):
    assert mp_clone_polynomial(d, n, k, x) == _mp_clone_polynomial_by_fractions(d, n, k, x)
    assert f_overlap(d, n, k, x) == _f_overlap_by_fractions(d, n, k, x)


# ---------------------------------------------------------------------------
# the Jacobi recurrence
# ---------------------------------------------------------------------------

def test_jacobi_grid_matches_fraction_recurrence_including_singular_steps():
    singular = 0
    for alpha in range(-3, 12):
        for beta in range(-3, 6):
            for k in range(-1, 9):
                for y in POINTS:
                    expected = _outcome(_jacobi_by_fractions, alpha, beta, k, y)
                    assert _outcome(jacobi_polynomial, alpha, beta, k, y) == expected
                    singular += isinstance(expected, tuple) and "singular" in expected[1]
    assert singular > 0  # the grid reaches the recurrence's zero denominators


def test_jacobi_singular_step_message():
    with pytest.raises(ValueError, match=r"singular at step 2 for \(alpha, beta\)=\(-1, -1\)"):
        jacobi_polynomial(-1, -1, 3, Fraction(1, 2))
    with pytest.raises(ValueError, match="k must be nonnegative"):
        jacobi_polynomial(1, 1, -1, 0)


@DERANDOMIZED
@given(alpha=st.integers(-3, 40), beta=st.integers(-3, 6), k=st.integers(0, 11), y=_rationals)
def test_jacobi_property(alpha, beta, k, y):
    assert _outcome(jacobi_polynomial, alpha, beta, k, y) == _outcome(_jacobi_by_fractions, alpha, beta, k, y)


@DERANDOMIZED
@given(d=st.integers(1, 5), n=st.integers(1, 25), k=st.integers(0, 12), x=_rationals)
def test_jacobi_form_of_the_coefficient_polynomial(d, n, k, x):
    k = min(k, n)
    if x != 1:
        assert mp_polynomial_jacobi_identity(d, n, k, (x,))


# ---------------------------------------------------------------------------
# the inversion identity check
# ---------------------------------------------------------------------------

def _identity_check_by_fractions(c):
    """Expand every B_s = sum_{t>=s} M_{k-s,k-t} A_t of the coefficients c back
    into the A basis in Fractions and compare with A_0."""
    d, n, k, r = c.d, c.n, c.k, c.r
    acc = [Fraction(0)] * (k + 1)
    for s, xs in enumerate(c.x):
        for t in range(s, k + 1):
            acc[t] += xs * mp_clone_coefficient(d, n, k - s, k - t)
    for s in range(r, k + 1):
        acc[s] += c.y[s - r]
    return acc == [Fraction(1)] + [Fraction(0)] * k


IDENTITY_GRID = (
    [(d, n, k, r) for d, n, k in [(2, 4, 1), (2, 5, 3), (3, 6, 2), (2, 8, 4), (4, 5, 2)] for r in range(k + 1)]
    + [(d, n, k, k) for d, n, k in [(1, 3, 3), (2, 5, 0), (2, 9, 4), (3, 8, 8), (4, 12, 5)]]
    + [(1, 5, 3, 0), (1, 1, 1, 1), (3, 20, 7, 3), (2, 60, 12, 12), (3, 5000, 200, 200)]
)


@pytest.mark.parametrize("d,n,k,r", IDENTITY_GRID)
def test_identity_check_matches_fraction_expansion(d, n, k, r):
    c = exp_definetti_coefficients(d, n, k, r)
    assert exp_definetti_identity_check(d, n, k, r) is _identity_check_by_fractions(c) is True


@pytest.mark.parametrize("field,index", [("x", 0), ("x", -1), ("y", 0), ("y", -1)])
def test_identity_check_rejects_a_perturbed_coefficient(monkeypatch, field, index):
    import dataclasses

    from symsub import definetti

    d, n, k, r = 3, 20, 6, 3
    good = exp_definetti_coefficients(d, n, k, r)
    values = list(getattr(good, field))
    values[index] += Fraction(1, 10**30)
    bad = dataclasses.replace(good, **{field: tuple(values)})
    monkeypatch.setattr(definetti, "exp_definetti_coefficients", lambda *args: bad)
    assert definetti.exp_definetti_identity_check(d, n, k, r) is _identity_check_by_fractions(bad) is False


# ---------------------------------------------------------------------------
# the Jacobi form as one integer equation
# ---------------------------------------------------------------------------

def _jacobi_identity_by_fractions(d, n, k, points):
    """The Fraction form: both sides evaluated and reduced, then compared."""
    for x in points:
        xf = Fraction(x)
        lhs = mp_clone_polynomial(d, n, k, xf)
        y = (xf + 1) / (xf - 1)
        rhs = (xf - 1) ** k * jacobi_polynomial(n - k, d - 1, k, y) / binomial(d + n + k - 1, k)
        if lhs != rhs:
            return False
    return True


def test_jacobi_identity_grid_matches_fraction_form_including_every_edge():
    # k < 0, x = 1, singular recurrences, negative n and d <= 0, one point at a
    # time (so each edge decides the outcome) and all points in both orders
    kinds = set()
    point_sets = [(x,) for x in POINTS] + [POINTS, POINTS[::-1], ()]
    for d in range(-2, 5):
        for n in range(-2, 7):
            for k in range(-2, 8):
                for points in point_sets:
                    expected = _outcome(_jacobi_identity_by_fractions, d, n, k, points)
                    assert _outcome(mp_polynomial_jacobi_identity, d, n, k, points) == expected, (d, n, k, points)
                    kinds.add(expected if expected is True else expected[1].split(" ")[0])
    # every edge is reached: k < 0, n < 0, a singular step, a vanishing
    # normalisation (d + n <= 0) and y = (x+1)/(x-1) at x = 1
    assert {"k", "a", "three-term", "Fraction(0,"} <= kinds and True in kinds and len(kinds) == 6


@pytest.mark.parametrize("d,n,k", [(2, 4, 2), (3, 9, 5), (4, 25, 9), (3, 5000, 40)])
def test_jacobi_identity_rejects_one_perturbed_weight(monkeypatch, d, n, k):
    from symsub import exactcomb

    weights = exactcomb._mp_clone_weights

    def perturbed(*args):
        w = weights(*args)
        w[len(w) // 2] += 1
        return w

    assert mp_polynomial_jacobi_identity(d, n, k)
    monkeypatch.setattr(exactcomb, "_mp_clone_weights", perturbed)
    assert mp_polynomial_jacobi_identity(d, n, k) is False


@pytest.mark.parametrize("d,n,k", [(2, 4, 2), (3, 9, 5), (4, 25, 9), (3, 5000, 40)])
def test_jacobi_identity_rejects_swapped_alpha_beta(monkeypatch, d, n, k):
    from symsub import exactcomb

    numerator = exactcomb._jacobi_numerator
    monkeypatch.setattr(
        exactcomb, "_jacobi_numerator", lambda alpha, beta, *rest: numerator(beta, alpha, *rest)
    )
    assert mp_polynomial_jacobi_identity(d, n, k) is False
