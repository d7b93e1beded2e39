"""Moment-method checks: exact overlap moments, product-overlap estimation,
tail bounds and the corollary experiments."""

from fractions import Fraction

import numpy as np
import pytest

from symsub.concentration import (
    MultiPartition,
    ProductFreeReport,
    experiment_product_free,
    experiment_schmidt_tail,
    mu_exact,
    multiqubit_bound_closed_form,
    multiqubit_bound_expression,
    nu_max,
    product_state_threshold,
    smooth_gap_bound,
    tail_bound,
    tail_bound_term,
)
from symsub.exactcomb import sym_dim
from symsub.randomness import RngStream, random_projector
from symsub.tensorspace import Operator

PART22 = MultiPartition((2, 2))


def _pure_op(v: np.ndarray, dims) -> Operator:
    return Operator(np.outer(v, v.conj()), dims, dims)


def _random_psd(dim: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return x @ x.conj().T / dim


def test_mu_identity_is_one():
    ident = Operator(np.eye(4), (2, 2), (2, 2))
    for n in (1, 2, 3):
        assert abs(mu_exact(ident, PART22, n) - 1) <= 1e-12
    ident6 = Operator(np.eye(6), (2, 3), (2, 3))
    assert abs(mu_exact(ident6, MultiPartition((2, 3)), 2) - 1) <= 1e-12


def test_mu_single_party_rank_formula():
    part = MultiPartition((5,))
    proj = random_projector(5, 2, RngStream(1))
    for n in (1, 2, 3):
        got = mu_exact(proj, part, n)
        want = Fraction(sym_dim(2, n), sym_dim(5, n))
        assert abs(got - float(want)) <= 1e-12


def test_mu_maximally_entangled_first_moment():
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert abs(mu_exact(_pure_op(phi, (2, 2)), PART22, 1) - 0.25) <= 1e-12


def test_mu_homogeneity():
    mat = _random_psd(4, 2)
    op = Operator(mat, (2, 2), (2, 2))
    for n in (1, 2, 3):
        base = mu_exact(op, PART22, n)
        for x in (0.5, 2.0):
            scaled = mu_exact(Operator(x * mat, (2, 2), (2, 2)), PART22, n)
            assert abs(scaled - x**n * base) <= 1e-10 * max(1.0, abs(base) * x**n)


def test_mu_monotonicity():
    for seed in range(10):
        a = _random_psd(4, 100 + seed)
        c = _random_psd(4, 200 + seed)
        mu_a = mu_exact(Operator(a, (2, 2), (2, 2)), PART22, 2)
        mu_b = mu_exact(Operator(a + c, (2, 2), (2, 2)), PART22, 2)
        assert mu_a <= mu_b + 1e-12


def test_mu_lower_bound_by_best_product_overlap():
    # mu(P) >= nu(P)^n / prod C(d_i+n-1, n); nu_max only underestimates nu,
    # so the inequality must hold for the estimate too
    for seed in range(20):
        proj = random_projector(4, 2, RngStream(300 + seed))
        op = Operator(proj.entries, (2, 2), (2, 2))
        nu = nu_max(op, PART22, restarts=8, stream=RngStream(400 + seed))
        for n in (1, 2, 3):
            denom = sym_dim(2, n) ** 2
            assert mu_exact(op, PART22, n) >= nu**n / denom - 1e-10


def test_nu_product_state_is_one():
    v = np.kron(np.array([1, 0]), np.array([0.6, 0.8]))
    assert abs(nu_max(_pure_op(v, (2, 2)), PART22) - 1) <= 1e-12


def test_nu_maximally_entangled():
    d = 3
    phi = np.zeros(d * d)
    phi[:: d + 1] = 1 / np.sqrt(d)
    got = nu_max(_pure_op(phi, (d, d)), MultiPartition((d, d)))
    assert abs(got - 1 / d) <= 1e-12


def test_nu_ascent_agrees_with_schmidt_value():
    # rank-2 operator built from one dominant pure state: ascent must find at
    # least the dominant state's best product overlap; for the pure state
    # itself the exact path equals the squared top Schmidt coefficient
    gen = np.random.default_rng(7)
    psi = gen.standard_normal(6) + 1j * gen.standard_normal(6)
    psi /= np.linalg.norm(psi)
    part = MultiPartition((2, 3))
    exact = float(np.linalg.svd(psi.reshape(2, 3), compute_uv=False)[0] ** 2)
    assert abs(nu_max(_pure_op(psi, (2, 3)), part) - exact) <= 1e-12
    # force the ascent path with a genuinely rank-2 operator
    other = gen.standard_normal(6) + 1j * gen.standard_normal(6)
    other -= np.vdot(psi, other) * psi
    other /= np.linalg.norm(other)
    mat = np.outer(psi, psi.conj()) + 0.05 * np.outer(other, other.conj())
    got = nu_max(Operator(mat, (2, 3), (2, 3)), part, restarts=16, stream=RngStream(5))
    assert got >= exact - 1e-9


def test_nu_three_qubit_known_values():
    # GHZ: best product overlap 1/2; W: best product overlap 4/9.
    # Three parties, so only the alternating ascent path is available.
    part = MultiPartition((2, 2, 2))
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    got = nu_max(_pure_op(ghz, (2, 2, 2)), part, restarts=8, stream=RngStream(31))
    assert abs(got - 0.5) <= 1e-9
    w = np.zeros(8)
    w[1] = w[2] = w[4] = 1 / np.sqrt(3)
    got = nu_max(_pure_op(w, (2, 2, 2)), part, restarts=8, stream=RngStream(32))
    assert abs(got - 4 / 9) <= 1e-9


def test_nu_rejects_non_hermitian():
    mat = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        nu_max(Operator(np.kron(mat, np.eye(2)), (2, 2), (2, 2)), PART22)


def test_tail_bound_small_values():
    result = tail_bound(PART22, 1, 1, n_max=4)
    values = dict(result.per_n)
    assert values[1] == 1
    assert values[2] == Fraction(9, 10)
    assert values[3] == Fraction(4, 5)
    assert values[4] == Fraction(5, 7)
    assert result.n_star == 4


def test_tail_bound_closed_form_dims22_r1():
    # exact simplification: 6(n+1)/((n+2)(n+3)) at gamma = 1
    for n in (1, 5, 16, 64):
        term = tail_bound_term(PART22, 1, Fraction(1), n)
        assert term == Fraction(6 * (n + 1), (n + 2) * (n + 3))


def test_tail_bound_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        tail_bound_term(PART22, 1, Fraction(0), 3)


def test_tail_bound_rejects_nmax_below_one():
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            tail_bound(PART22, 1, 1, n_max=n_max)
    assert tail_bound(PART22, 1, 1, n_max=1).per_n == ((1, Fraction(1)),)


def test_tail_bound_at_schmidt_parameters():
    # dims=(d,d), r=1, gamma=(16/(e d)) e^eps, n=d gives a bound below e^(-d eps)
    from math import e, exp

    for d, eps in [(8, 0.3), (16, 0.2), (16, 0.5)]:
        gamma = Fraction(16.0 / (e * d) * exp(eps))
        term = tail_bound_term(MultiPartition((d, d)), 1, gamma, d)
        assert float(term) <= exp(-d * eps), (d, eps)


def test_product_state_threshold():
    assert product_state_threshold(PART22, 1) is True
    assert product_state_threshold(PART22, 2) is False
    assert product_state_threshold(MultiPartition((2, 3)), 2) is True


def test_smooth_gap_d2():
    result = smooth_gap_bound(2, 1)
    assert result.rank == 1
    assert result.n == 64
    assert result.gamma == Fraction(63, 64)
    assert result.satisfied
    assert result.bound <= Fraction(1, 4)


def test_smooth_gap_d3_exact_value():
    # the single-n term at d=3, x=1 evaluates to about 0.69, far above 3^-3;
    # the near-critical-rank threshold claim does not hold at this size
    result = smooth_gap_bound(3, 1)
    assert result.rank == 4 and result.n == 6561
    independent = tail_bound_term(
        MultiPartition((3, 3)), 4, 1 - Fraction(1, 6561), 6561
    )
    assert result.bound == independent
    assert 0.69 < float(result.bound) < 0.70
    assert not result.satisfied


def test_smooth_gap_monotone_in_x():
    # larger x: rank decreases, gamma increases toward 1 - 1/d^2
    r2 = smooth_gap_bound(3, 2)
    r1 = smooth_gap_bound(3, 1)
    assert r2.rank < r1.rank
    assert r2.gamma < r1.gamma  # n shrinks with x, so 1 - 1/n moves away from 1


def test_smooth_gap_rejects_rank_below_one():
    with pytest.raises(ValueError):
        smooth_gap_bound(2, 3)


def test_multiqubit_bound_expression_matches_closed_form():
    for k, eps in [(8, 0.5), (6, 0.25), (10, 0.5), (12, 1.0)]:
        expr = multiqubit_bound_expression(k, eps)
        closed = multiqubit_bound_closed_form(k, eps)
        assert abs(expr - closed) <= 1e-12 * closed
    assert multiqubit_bound_closed_form(8, 0.5) == pytest.approx(1.0)


def test_schmidt_tail_d2_support():
    report = experiment_schmidt_tail(2, 1000, 0.2, RngStream(20))
    # two Schmidt values summing to one: top one always in [1/2, 1]
    assert report.mean_top_schmidt >= 0.5
    assert 0 <= report.fraction <= 1


def test_schmidt_tail_threshold_above_one_gives_zero():
    # 16/(e d) e^eps >= 1 for d=2, eps=0: overlap can never exceed 1
    report = experiment_schmidt_tail(2, 500, 0.0, RngStream(21))
    assert report.threshold >= 1.0
    assert report.exceedances == 0


def test_schmidt_tail_d16():
    report = experiment_schmidt_tail(16, 2000, 0.2, RngStream(22))
    assert report.passed
    # Marchenko-Pastur scale: mean top Schmidt value near 4/d
    assert report.mean_top_schmidt < 2.5 * (4 / 16)


@pytest.mark.parametrize(
    "d,samples,epsilon,message",
    [
        (4, 0, 0.2, "samples must be positive"),
        (4, -3, 0.2, "samples must be positive"),
        (0, 100, 0.2, "d must be positive"),
        (4, 100, float("nan"), "epsilon must be non-negative"),
        (4, 100, -1.0, "epsilon must be non-negative"),
        (4, 100, -1e-300, "epsilon must be non-negative"),
    ],
)
def test_schmidt_tail_refuses_out_of_range_arguments(d, samples, epsilon, message):
    with pytest.raises(ValueError, match=message):
        experiment_schmidt_tail(d, samples, epsilon, RngStream(24))


def test_schmidt_tail_traced_peak_is_one_block_of_real_parts():
    # numpy reports its buffers to tracemalloc; whole complex blocks peaked at
    # about 12 MiB here, one float block of real parts is 2 MiB
    import tracemalloc

    experiment_schmidt_tail(16, 10, 0.2, RngStream(25))  # first-call imports and caches
    tracemalloc.start()
    try:
        experiment_schmidt_tail(16, 3000, 0.2, RngStream(25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 1024 * 16**2 + 2 * 2**20


def test_product_free_experiment():
    part = MultiPartition((2, 3))
    report = experiment_product_free(part, 2, restarts=8, stream=RngStream(23), trials=5)
    assert report.threshold_met
    assert report.trials == 5
    assert report.passed
    assert report.max_overlap < 1 - 1e-3


def test_product_free_threshold_not_met():
    report = experiment_product_free(PART22, 3, restarts=4, stream=RngStream(24), trials=5)
    assert not report.threshold_met
    assert report.trials == 0
    assert report.overlaps == ()


def test_product_free_pass_rule_is_the_tail_statement():
    part = MultiPartition((2, 3))
    bound = tail_bound(part, 2, Fraction(999, 1000), n_max=600).bound
    common = dict(dims=(2, 3), rank=2, threshold_met=True, trials=10)
    one = ProductFreeReport(overlaps=(0.9995,) + (0.5,) * 9, max_overlap=0.9995, **common)
    assert one.exceedances == 1 and one.bound == bound and one.passed
    # 2/10 exceeds the 0.179 bound; an overlap below gamma does not count
    two = ProductFreeReport(overlaps=(0.9995, 1.0, 0.9989) + (0.5,) * 7, max_overlap=1.0, **common)
    assert two.exceedances == 2 and not two.passed


def test_tail_bound_rejects_rank_outside_one_to_total():
    for rank in (0, 5, 9):
        with pytest.raises(ValueError, match=r"need 1 <= rank <= prod\(dims\)"):
            tail_bound_term(PART22, rank, Fraction(1), 3)
    with pytest.raises(ValueError, match=r"need 1 <= rank <= prod\(dims\)"):
        tail_bound(PART22, 9, 1, n_max=3)
    # rank = D is allowed: the rank and total factors cancel
    assert tail_bound_term(PART22, 4, Fraction(1), 3) == sym_dim(2, 3) ** 2
