"""Exact combinatorics checks, all in rational arithmetic."""

from fractions import Fraction

import pytest

from symsub.exactcomb import (
    TypeVector,
    binomial,
    enumerate_types,
    jacobi_polynomial,
    mp_clone_coefficient,
    mp_clone_polynomial,
    multinomial,
    real_moment_ratio,
    rising_factorial_dim,
    sym_dim,
)


def test_binomial_values():
    assert binomial(3, 2) == 3
    assert binomial(5, 0) == 1
    assert binomial(10, 5) == 252
    assert binomial(4, -1) == 0
    assert binomial(4, 7) == 0


def test_binomial_symmetry():
    for a in range(0, 20):
        for b in range(0, a + 1):
            assert binomial(a, b) == binomial(a, a - b)


def test_multinomial_values():
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(3, (3, 0)) == 1
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(5, TypeVector((2, 2, 1))) == 30


def test_multinomial_rejects_mismatch():
    with pytest.raises(ValueError):
        multinomial(4, (1, 1))


def test_sym_dim_values():
    assert sym_dim(2, 2) == 3
    assert sym_dim(7, 0) == 1
    assert sym_dim(2, 3) == 4
    for d in range(1, 7):
        for n in range(0, 9):
            assert Fraction(sym_dim(d, n)) == rising_factorial_dim(d, n)


def test_enumerate_types_order_and_count():
    assert [t.entries for t in enumerate_types(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert [t.entries for t in enumerate_types(1, 5)] == [(5,)]
    units = enumerate_types(3, 1)
    assert [t.entries for t in units] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for d in range(1, 5):
        for n in range(0, 7):
            types = enumerate_types(d, n)
            assert len(types) == sym_dim(d, n)
            assert len(set(t.entries for t in types)) == len(types)
            assert all(t.total == n and t.d == d for t in types)


def test_mp_clone_coefficient_values():
    assert mp_clone_coefficient(2, 2, 1, 0) == Fraction(1, 2)
    assert mp_clone_coefficient(2, 2, 1, 1) == Fraction(1, 2)
    assert mp_clone_coefficient(2, 1, 1, 0) == Fraction(2, 3)
    assert mp_clone_coefficient(2, 1, 1, 1) == Fraction(1, 3)


def test_mp_clone_coefficients_sum_to_one():
    for d in range(1, 13):
        for n in range(1, 13):
            for k in range(0, 13):
                total = sum(mp_clone_coefficient(d, n, k, s) for s in range(k + 1))
                assert total == 1, (d, n, k)


def test_mp_clone_diagonal_form_and_lower_bound():
    for d in range(1, 9):
        for n in range(1, 13):
            for k in range(0, min(n, 8) + 1):
                m_kk = mp_clone_coefficient(d, n, k, k)
                assert m_kk == Fraction(binomial(n, k), binomial(d + n + k - 1, k))
                lower = 1 - Fraction(k * (d + k), n + d)
                if lower <= 1:
                    assert m_kk >= lower, (d, n, k)


def test_mp_clone_polynomial():
    assert mp_clone_polynomial(3, 4, 2, 1) == 1
    assert mp_clone_polynomial(5, 3, 0, Fraction(7, 2)) == 1
    assert mp_clone_polynomial(2, 1, 1, 0) == Fraction(2, 3)


def test_jacobi_low_orders():
    for alpha in range(0, 4):
        for beta in range(0, 4):
            for y in (Fraction(0), Fraction(1, 3), Fraction(-2), Fraction(5, 2)):
                assert jacobi_polynomial(alpha, beta, 0, y) == 1
                closed = Fraction(alpha + 1) + Fraction(alpha + beta + 2) * (y - 1) / 2
                assert jacobi_polynomial(alpha, beta, 1, y) == closed


def test_jacobi_singular_parameters_raise():
    with pytest.raises(ValueError):
        jacobi_polynomial(-2, -1, 3, Fraction(1, 2))


def test_jacobi_form_of_coefficient_polynomial():
    from symsub.exactcomb import mp_polynomial_jacobi_identity

    for d, n, k in [(2, 4, 2), (3, 3, 3), (1, 5, 4), (4, 2, 5)]:
        assert mp_polynomial_jacobi_identity(d, n, k)
    # holds above the diagonal too, wherever the recurrence is nonsingular
    assert mp_polynomial_jacobi_identity(2, 1, 2)


def test_real_moment_ratio():
    assert real_moment_ratio(5, 0) == 1
    assert real_moment_ratio(2, 1) == Fraction(1, 2)
    assert real_moment_ratio(3, 2) == Fraction(1, 15)
    assert real_moment_ratio(4, 3) == Fraction(1, 4 * 6 * 8)


def test_enumerate_types_frees_its_list_without_the_collector():
    # a self-calling closure kept the list in a reference cycle: at (64, 2)
    # 1.38 MB stayed allocated until the garbage collector ran.  What stays
    # now is held by the interpreter's free lists, about 46 kB.
    import gc
    import tracemalloc
    import weakref

    enumerate_types(64, 2)
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        types = enumerate_types(64, 2)
        assert len(types) == sym_dim(64, 2)
        first = weakref.ref(types[0])
        del types
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert first() is None
    assert after - before < 2**18
