"""Channel-family checks: trace preservation, complete positivity, fidelities,
composition laws, and the measure-and-prepare exchange identity."""

from fractions import Fraction

import numpy as np
import pytest

from symsub.channels import (
    apply,
    chiribella_coefficient_identity,
    clone_channel,
    clone_channel_sym,
    compose,
    compress_superoperator,
    estimation_fidelity,
    f_overlap,
    identity_superoperator,
    kraus_superoperator,
    min_choi_eigenvalue,
    mp_channel,
    mp_channel_sym,
    projection_superoperator,
    trace_channel,
    trace_channel_sym,
    unvec,
    vec,
    verify_chiribella,
)
from symsub.exactcomb import mp_clone_coefficient, sym_dim
from symsub.randomness import RngStream, haar_state_batch, haar_unitary
from symsub.tensorspace import Operator, type_isometry


def _pure(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _haar_vec(d: int, seed: int) -> np.ndarray:
    return haar_state_batch(d, RngStream(seed).generator(), 1)[0]


def _symmetric_density(d: int, n: int, seed: int) -> Operator:
    """Random density matrix supported on the symmetric subspace."""
    v = type_isometry(d, n).entries
    dim = v.shape[1]
    gen = RngStream(seed).generator()
    x = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    rho_c = x @ x.conj().T
    rho_c /= np.trace(rho_c).real
    return Operator(v @ rho_c @ v.conj().T, (d,) * n, (d,) * n)


def test_vec_unvec_roundtrip_and_sandwich():
    gen = np.random.default_rng(0)
    a = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    b = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    x = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    assert np.abs(unvec(vec(x)) - x).max() == 0.0
    lhs = vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ vec(x)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_compose_identity_and_apply():
    s = trace_channel(2, 2, 1)
    ident = identity_superoperator((2, 2))
    assert np.abs(compose(ident, s).matrix - s.matrix).max() == 0.0
    rho = Operator(np.eye(4) / 4, (2, 2), (2, 2))
    out = apply(s, rho)
    assert np.abs(out.entries - np.eye(2) / 2).max() <= 1e-14


def test_trace_channel_on_product_input():
    d, n, k = 2, 3, 1
    v = _haar_vec(d, 1)
    w = v
    for _ in range(n - 1):
        w = np.kron(w, v)
    rho = Operator(_pure(w), (d,) * n, (d,) * n)
    out = apply(trace_channel(d, n, k), rho)
    assert np.abs(out.entries - _pure(v)).max() <= 1e-12
    full = apply(trace_channel(d, n, n), rho)
    assert np.abs(full.entries - rho.entries).max() == 0.0
    scalar = apply(trace_channel(d, n, 0), rho)
    assert abs(scalar.entries[0, 0] - 1) <= 1e-12


def test_clone_k0_is_projection():
    d, n = 2, 2
    s = clone_channel(d, n, 0)
    assert np.abs(s.matrix - projection_superoperator(d, n).matrix).max() <= 1e-12
    rho = _symmetric_density(d, n, 2)
    out = apply(s, rho)
    assert np.abs(out.entries - rho.entries).max() <= 1e-12


def test_clone_fidelity_1_to_2():
    v = _haar_vec(2, 3)
    out = apply(clone_channel(2, 1, 1), Operator(_pure(v), (2,), (2,)))
    target = _pure(np.kron(v, v))
    fidelity = np.trace(target @ out.entries).real
    assert abs(fidelity - 2 / 3) <= 1e-12


@pytest.mark.parametrize("d,n,k", [(2, 2, 1), (2, 2, 2), (3, 1, 1)])
def test_clone_and_mp_trace_preservation(d, n, k):
    clone = clone_channel(d, n, k)
    mp = mp_channel(d, n, k)
    for seed in range(10):
        rho = _symmetric_density(d, n, seed)
        assert abs(apply(clone, rho).trace() - 1) <= 1e-12
        assert abs(apply(mp, rho).trace() - 1) <= 1e-12


def test_mp_1_to_1_mixture():
    # MP(phi) = M_11 phi + M_10 I/2 with weights 1/3 and 2/3 at d = 2
    v = _haar_vec(2, 4)
    out = apply(mp_channel(2, 1, 1), Operator(_pure(v), (2,), (2,)))
    expected = _pure(v) / 3 + np.eye(2) / 3
    assert np.abs(out.entries - expected).max() <= 1e-12
    fidelity = np.trace(_pure(v) @ out.entries).real
    assert abs(fidelity - 2 / 3) <= 1e-12


def test_mp_k0_is_trace_functional():
    d, n = 2, 2
    s = mp_channel(d, n, 0)
    rho = _symmetric_density(d, n, 5)
    out = apply(s, rho)
    assert out.entries.shape == (1, 1)
    assert abs(out.entries[0, 0] - 1) <= 1e-12


@pytest.mark.parametrize("d,n,k", [(2, 2, 1), (2, 2, 2), (3, 1, 1)])
def test_mp_fidelity_equals_dimension_ratio(d, n, k):
    mp = mp_channel(d, n, k)
    want = float(estimation_fidelity(d, n, k))
    for seed in range(10):
        v = _haar_vec(d, 100 + seed)
        w_in = v
        for _ in range(n - 1):
            w_in = np.kron(w_in, v)
        w_out = v
        for _ in range(k - 1):
            w_out = np.kron(w_out, v)
        out = apply(mp, Operator(_pure(w_in), (d,) * n, (d,) * n))
        got = np.trace(_pure(w_out) @ out.entries).real
        assert abs(got - want) <= 1e-10


def test_clone_composition_law():
    d = 2
    lhs = compose(clone_channel(d, 1, 1), clone_channel(d, 2, 1))
    rhs = clone_channel(d, 1, 2)
    assert np.linalg.norm(lhs.matrix - rhs.matrix) <= 1e-10
    lhs2 = compose(clone_channel(d, 1, 2), clone_channel(d, 3, 1))
    rhs2 = clone_channel(d, 1, 3)
    assert np.linalg.norm(lhs2.matrix - rhs2.matrix) <= 1e-10


def test_estimation_fidelity_values():
    assert estimation_fidelity(2, 1, 1) == Fraction(2, 3)
    assert estimation_fidelity(5, 3, 0) == 1
    assert estimation_fidelity(2, 2, 1) == Fraction(3, 4)


def test_f_overlap_values():
    assert f_overlap(2, 1, 1, 1) == Fraction(2, 3)
    x = Fraction(1, 3)
    assert f_overlap(2, 1, 1, x) == (1 + x) / 3
    for d, n, k in [(2, 2, 1), (3, 1, 2), (2, 3, 3)]:
        assert f_overlap(d, n, k, 1) == estimation_fidelity(d, n, k)


@pytest.mark.parametrize("d,n,k", [(2, 2, 1), (2, 2, 2), (3, 1, 1)])
def test_f_overlap_matches_channel(d, n, k):
    mp = mp_channel(d, n, k)
    for seed in range(10):
        a = _haar_vec(d, 200 + seed)
        b = _haar_vec(d, 300 + seed)
        wa = a
        for _ in range(n - 1):
            wa = np.kron(wa, a)
        wb = b
        for _ in range(k - 1):
            wb = np.kron(wb, b)
        out = apply(mp, Operator(_pure(wa), (d,) * n, (d,) * n))
        got = np.trace(_pure(wb) @ out.entries).real
        x = Fraction(float(abs(np.vdot(a, b)) ** 2))
        assert abs(got - float(f_overlap(d, n, k, x))) <= 1e-10


def test_f_overlap_unitary_covariance():
    d, n, k = 2, 2, 1
    mp = mp_channel(d, n, k)

    def fidelity(a, b):
        wa = np.kron(a, a)
        out = apply(mp, Operator(_pure(wa), (d,) * n, (d,) * n))
        return np.trace(_pure(b) @ out.entries).real

    a = _haar_vec(d, 7)
    b = _haar_vec(d, 8)
    base = fidelity(a, b)
    for seed in range(10):
        u = haar_unitary(d, RngStream(400 + seed)).entries
        assert abs(fidelity(u @ a, u @ b) - base) <= 1e-10


def test_chiribella_coefficient_identity_grid():
    for d in range(1, 11):
        for n in range(1, 11):
            for k in range(0, min(n, 6) + 1):
                for s in range(k + 1):
                    assert chiribella_coefficient_identity(d, n, k, s), (d, n, k, s)


@pytest.mark.parametrize(
    "d,n,k", [(2, 2, 1), (2, 3, 2), (3, 2, 1), (2, 4, 2), (3, 2, 2), (4, 2, 1)]
)
def test_chiribella_residual_both_representations(d, n, k):
    assert verify_chiribella(d, n, k, "full") <= 1e-10
    assert verify_chiribella(d, n, k, "sym") <= 1e-10


@pytest.mark.parametrize("d,n,k", [(2, 2, 1), (2, 3, 2), (3, 2, 2)])
def test_representations_report_identical_residuals(d, n, k):
    # both identity sides factor through the symmetric block, so the compressed
    # residual equals the projected full-space residual; make the residual
    # nonzero by perturbing one mixture weight and compare
    from symsub.channels import chiribella_sides, projection_superoperator

    def perturbed_residual(representation):
        if representation == "sym":
            lhs = mp_channel_sym(d, n, k).matrix
            build = lambda s: compose(trace_channel_sym(d, n, s), clone_channel_sym(d, s, k - s))
        else:
            proj = projection_superoperator(d, n)
            lhs = compose(proj, mp_channel(d, n, k)).matrix
            build = lambda s: compose(proj, compose(trace_channel(d, n, s), clone_channel(d, s, k - s)))
        rhs = np.zeros_like(lhs)
        for s in range(0, min(n, k) + 1):
            weight = float(mp_clone_coefficient(d, n, k, s)) + (1e-3 if s == 1 else 0.0)
            rhs += weight * build(s).matrix
        return np.linalg.norm(lhs - rhs)

    full = perturbed_residual("full")
    sym = perturbed_residual("sym")
    assert abs(full - sym) <= 1e-10 * full


def test_compressed_channels_match_full():
    d, n, k = 2, 2, 1
    mp_comp = compress_superoperator(mp_channel(d, n, k), d, n, k)
    assert np.abs(mp_channel_sym(d, n, k).matrix - mp_comp.matrix).max() <= 1e-13
    clone_comp = compress_superoperator(clone_channel(d, n, k), d, n, n + k)
    assert np.abs(clone_channel_sym(d, n, k).matrix - clone_comp.matrix).max() <= 1e-13
    proj = projection_superoperator(d, 3)
    tr_comp = compress_superoperator(compose(proj, trace_channel(d, 3, 1)), d, 3, 1)
    assert np.abs(trace_channel_sym(d, 3, 1).matrix - tr_comp.matrix).max() <= 1e-13


def test_compressed_channel_action_matches_full():
    d, n, k = 2, 3, 2
    v_in = type_isometry(d, n).entries
    v_out = type_isometry(d, k).entries
    rho = _symmetric_density(d, n, 11)
    rho_c = Operator(v_in.conj().T @ rho.entries @ v_in, (sym_dim(d, n),), (sym_dim(d, n),))
    full_out = apply(mp_channel(d, n, k), rho).entries
    comp_out = apply(mp_channel_sym(d, n, k), rho_c).entries
    assert np.abs(v_out @ comp_out @ v_out.conj().T - full_out).max() <= 1e-12


@pytest.mark.parametrize("d,n,k", [(2, 2, 1), (2, 3, 2), (3, 2, 1)])
def test_channels_completely_positive_on_symmetric_support(d, n, k):
    assert min_choi_eigenvalue(mp_channel_sym(d, n, k)) >= -1e-10
    assert min_choi_eigenvalue(clone_channel_sym(d, n, k)) >= -1e-10
    assert min_choi_eigenvalue(trace_channel_sym(d, n, k)) >= -1e-10


def test_complete_positivity_sweep():
    # every channel family, on symmetric support, across a grid of sizes
    for d in range(2, 8):
        for n in range(1, 8):
            for k in range(1, 8):
                if d ** (n + k) > 128:
                    continue
                assert min_choi_eigenvalue(mp_channel_sym(d, n, k)) >= -1e-10, (d, n, k)
                assert min_choi_eigenvalue(clone_channel_sym(d, n, k)) >= -1e-10, (d, n, k)
                if k <= n:
                    assert min_choi_eigenvalue(trace_channel_sym(d, n, k)) >= -1e-10, (d, n, k)


def test_trace_preservation_sweep():
    # on symmetric coordinates, trace preservation is the exact linear
    # condition S^dag vec(I_out) = vec(I_in)
    for d in range(2, 8):
        for n in range(1, 9):
            for k in range(1, 9):
                if d ** (n + k) > 256:
                    continue
                for s in (mp_channel_sym(d, n, k), clone_channel_sym(d, n, k)):
                    lhs = s.matrix.conj().T @ vec(np.eye(s.out_dim))
                    assert np.abs(lhs - vec(np.eye(s.in_dim))).max() <= 1e-12, (d, n, k)


def test_choi_matrix_convention():
    # kraus map rho -> K rho K^dag must give choi sum |K e_p><K e_q| x |e_p><e_q|
    gen = np.random.default_rng(9)
    k = gen.standard_normal((3, 2)) + 1j * gen.standard_normal((3, 2))
    s = kraus_superoperator([k], (2,), (3,))
    from symsub.channels import choi_matrix

    direct = np.zeros((6, 6), dtype=complex)
    for p in range(2):
        for q in range(2):
            unit = np.zeros((2, 2))
            unit[p, q] = 1.0
            direct += np.kron(k @ unit @ k.conj().T, unit)
    assert np.abs(choi_matrix(s) - direct).max() <= 1e-12


def test_mismatched_dimensions_raise():
    with pytest.raises(ValueError):
        compose(trace_channel(2, 3, 1), trace_channel(2, 3, 1))
    with pytest.raises(ValueError):
        apply(trace_channel(2, 3, 1), Operator(np.eye(4), (2, 2), (2, 2)))


def test_type_basis_channels_match_compressed_full_grid():
    # the *_sym channels are built from type-basis amplitudes; the full-space
    # constructors compressed through the type isometry are the reference.
    # The full cloner's superoperator has d^(2(n+k)) * d^(2n) entries; the
    # grid cases above 2^22 entries (64 MiB) are left to the mp and trace
    # comparisons.
    grid = [
        (d, n, k)
        for d in range(2, 8)
        for n in range(1, 8)
        for k in range(1, 8)
        if d ** (n + k) <= 128
    ]
    edges = [(1, 3, 2), (2, 0, 3), (3, 0, 1), (2, 3, 0), (3, 2, 0)]
    for d, n, k in grid + edges:
        mp_ref = compress_superoperator(mp_channel(d, n, k), d, n, k)
        assert np.abs(mp_channel_sym(d, n, k).matrix - mp_ref.matrix).max() <= 1e-13, (d, n, k)
        if d ** (2 * (n + k) + 2 * n) <= 2**22:
            clone_ref = compress_superoperator(clone_channel(d, n, k), d, n, n + k)
            assert np.abs(clone_channel_sym(d, n, k).matrix - clone_ref.matrix).max() <= 1e-13, (d, n, k)
        if k <= n:
            tr_ref = compress_superoperator(trace_channel(d, n, k), d, n, k)
            assert np.abs(trace_channel_sym(d, n, k).matrix - tr_ref.matrix).max() <= 1e-13, (d, n, k)


def test_chiribella_sym_beyond_dense_cap():
    # d^(n+k) = 2^40, far above the default side cap of 2^14; the sym channels
    # never build an object of that side
    assert verify_chiribella(2, 20, 20, "sym") <= 1e-10


def test_sym_channels_guard_their_own_size():
    from symsub.guards import DimensionGuardError, set_max_dim

    # 21 x 21 symmetric coordinates on each side: 441 <= 512 passes, even
    # though d^(n+k) = 2^40 would not
    set_max_dim(512)
    try:
        assert mp_channel_sym(2, 20, 20).matrix.shape == (21**2, 21**2)
        with pytest.raises(DimensionGuardError):
            clone_channel_sym(2, 20, 20)  # 41 x 21 = 861 > 512
        with pytest.raises(DimensionGuardError):
            trace_channel_sym(2, 40, 20)  # 21 x 41 = 861 > 512
    finally:
        set_max_dim(None)
