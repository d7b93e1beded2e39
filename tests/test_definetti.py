"""Coefficient recursion and exact-inversion identity checks."""

from fractions import Fraction

import numpy as np
import pytest

from symsub.channels import min_choi_eigenvalue, unvec, vec
from symsub.definetti import (
    check_coefficient_bounds,
    definetti_delta,
    definetti_epsilon,
    exp_definetti_coefficients,
    exp_definetti_full_coefficients,
    exp_definetti_identity_check,
    exp_definetti_sides,
    mp_remainder_channel_sym,
    verify_exp_definetti,
)
from symsub.exactcomb import mp_clone_coefficient, sym_dim
from symsub.randomness import RngStream
from symsub.tensorspace import type_isometry


def test_epsilon_values():
    assert definetti_epsilon(2, 100, 1) == Fraction(3, 102)
    assert definetti_epsilon(5, 40, 0) == 0
    assert definetti_delta(2, 4, 1) == Fraction(3, 4)


def test_one_minus_diagonal_below_epsilon():
    for d in range(1, 13):
        for n in range(1, 13):
            for k in range(0, n + 1):
                eps = definetti_epsilon(d, n, k)
                if eps <= 1:
                    m_kk = mp_clone_coefficient(d, n, k, k)
                    assert 1 - m_kk <= eps, (d, n, k)


def test_recursion_base_case():
    c = exp_definetti_coefficients(3, 5, 2, 0)
    assert c.x == ()
    assert c.y == (Fraction(1), Fraction(0), Fraction(0))


def test_recursion_hand_case_2_4_1():
    c = exp_definetti_coefficients(2, 4, 1, 1)
    assert c.x == (Fraction(3, 2),)
    assert c.y == (Fraction(-1, 2),)
    assert c.delta == Fraction(3, 4)
    full = exp_definetti_full_coefficients(2, 4, 1)
    assert full == (Fraction(3, 2), Fraction(-1, 2))
    # |x_0| = 3/2 <= 1/(1 - 3/4) = 4
    report = check_coefficient_bounds(c)
    assert report.applicable and report.passed
    assert report.x_details[0][2] == Fraction(4)


def test_recursion_rejects_bad_ranges():
    with pytest.raises(ValueError):
        exp_definetti_coefficients(2, 3, 4, 0)
    with pytest.raises(ValueError):
        exp_definetti_coefficients(2, 4, 2, 3)


def test_exact_inversion_identity_all_r():
    for d, n, k in [(2, 4, 1), (2, 5, 3), (3, 6, 2), (2, 8, 4), (4, 5, 2)]:
        for r in range(k + 1):
            assert exp_definetti_identity_check(d, n, k, r), (d, n, k, r)


def test_coefficient_bounds_small_delta():
    c = exp_definetti_coefficients(2, 100, 1, 1)
    report = check_coefficient_bounds(c)
    assert report.applicable
    assert report.passed
    assert c.delta == Fraction(3, 100)
    assert abs(c.x[0]) <= 1 / (1 - c.delta)


def test_coefficient_bounds_not_applicable_when_delta_large():
    c = exp_definetti_coefficients(2, 3, 2, 2)
    assert c.delta >= 1
    report = check_coefficient_bounds(c)
    assert not report.applicable
    assert report.passed


def test_bounds_vacuous_at_r0():
    report = check_coefficient_bounds(exp_definetti_coefficients(2, 50, 2, 0))
    assert report.passed


@pytest.mark.parametrize("d,n,k", [(2, 4, 1), (2, 3, 1), (2, 5, 5), (3, 4, 2), (2, 4, 0)])
def test_inversion_identity_residual(d, n, k):
    assert verify_exp_definetti(d, n, k) <= 1e-10


def test_trace_down_recovers_pure_state():
    # tr_3 phi**4 = (3/2) MP_{4->1}(phi**4) - (1/2) I/2, recovered exactly
    gen = RngStream(17).generator()
    v = gen.standard_normal(2) + 1j * gen.standard_normal(2)
    v /= np.linalg.norm(v)
    w = v
    for _ in range(3):
        w = np.kron(w, v)
    v4 = type_isometry(2, 4).entries
    v1 = type_isometry(2, 1).entries
    wc = v4.conj().T @ w
    _, rhs = exp_definetti_sides(2, 4, 1)
    out_c = unvec(rhs @ vec(np.outer(wc, wc.conj())), (2, 2))
    out = v1 @ out_c @ v1.conj().T
    assert np.abs(out - np.outer(v, v.conj())).max() <= 1e-10


@pytest.mark.parametrize("d,n,k", [(2, 4, 1), (2, 6, 2), (3, 4, 1)])
def test_mp_splits_into_trace_plus_cptp_remainder(d, n, k):
    eps, remainder = mp_remainder_channel_sym(d, n, k)
    assert 0 < eps < 1
    assert min_choi_eigenvalue(remainder) >= -1e-10
    gen = RngStream(23).generator()
    dim = sym_dim(d, n)
    x = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    out = unvec(remainder.matrix @ vec(rho), (sym_dim(d, k), sym_dim(d, k)))
    assert abs(np.trace(out).real - 1) <= 1e-10


@pytest.mark.parametrize("d,n,k", [(2, 10, 4), (2, 30, 5)])
def test_inversion_identity_beyond_dense_cap(d, n, k):
    # d^(n+k) = 2^14 and 2^35: at and far above the default side cap
    assert verify_exp_definetti(d, n, k) <= 1e-10


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2)])
def test_mp_remainder_at_k_zero_has_epsilon_zero_and_a_zero_remainder(d, n):
    # M_{0,0} = 1: measure-and-prepare to no copies is the full trace
    from symsub.channels import mp_channel_sym

    eps, remainder = mp_remainder_channel_sym(d, n, 0)
    assert eps == 0
    mp = mp_channel_sym(d, n, 0)
    assert (remainder.in_dims, remainder.out_dims) == (mp.in_dims, mp.out_dims)
    assert remainder.matrix.dtype == np.float64 and not remainder.matrix.any()
