"""Operator-level checks: permutation representation, projector constructions,
matchings, partial trace, commutant dimensions, span ranks."""

import numpy as np
import pytest

from symsub.exactcomb import sym_dim
from symsub.guards import DimensionGuardError
from symsub.randomness import RngStream
from symsub.tensorspace import (
    Matching,
    Operator,
    Permutation,
    all_permutations,
    conjugation_fixed_dimension,
    enumerate_matchings,
    frobenius_distance,
    matching_from_permutation,
    matching_operator,
    operator_from_json,
    operator_tensor,
    operator_to_json,
    partial_trace,
    permutation_operator,
    sym_projector_enumerated,
    sym_projector_group,
    tensor_power_span_rank,
    type_isometry,
)

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)


def test_permutation_identity_and_swap():
    ident = permutation_operator(3, Permutation.identity(2))
    assert np.array_equal(ident.entries, np.eye(9))
    swap = permutation_operator(2, Permutation((1, 0)))
    assert np.array_equal(swap.entries.real, SWAP)


def test_permutation_action_on_basis():
    # slot content moves to its image: |x0 x1 x2> -> |y> with y[pi(l)] = x[l]
    pi = Permutation((1, 2, 0))
    op = permutation_operator(2, pi)
    x = (1, 0, 1)
    src = np.zeros(8)
    src[int("".join(map(str, x)), 2)] = 1
    y = [0, 0, 0]
    for slot, img in enumerate(pi.images):
        y[img] = x[slot]
    dst = np.zeros(8)
    dst[int("".join(map(str, y)), 2)] = 1
    assert np.array_equal(op.entries @ src, dst)


def test_permutation_homomorphism():
    gen = np.random.default_rng(0)
    for d, n in [(2, 3), (3, 3), (2, 4)]:
        for _ in range(20):
            p1 = Permutation(tuple(gen.permutation(n)))
            p2 = Permutation(tuple(gen.permutation(n)))
            lhs = permutation_operator(d, p1.compose(p2))
            rhs = permutation_operator(d, p1) @ permutation_operator(d, p2)
            assert np.abs(lhs.entries - rhs.entries).max() <= 1e-12


def test_sym_projector_small_cases():
    p22 = sym_projector_group(2, 2)
    assert frobenius_distance(p22, (np.eye(4) + SWAP) / 2) <= 1e-14
    assert abs(p22.trace().real - 3) < 1e-12
    for d in (2, 3, 5):
        p = sym_projector_group(d, 1)
        assert np.array_equal(p.entries.real, np.eye(d))
    assert abs(sym_projector_group(2, 3).trace().real - 4) < 1e-12


def test_sym_projector_matches_literal_enumeration():
    for d, n in [(2, 2), (2, 3), (3, 3), (2, 5), (3, 4), (4, 3)]:
        cascade = sym_projector_group(d, n)
        literal = sym_projector_enumerated(d, n)
        assert np.array_equal(cascade.entries, literal.entries), (d, n)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 4), (3, 3), (4, 2), (2, 7)])
def test_sym_projector_properties(d, n):
    mat = sym_projector_group(d, n).entries
    assert np.abs(mat - mat.conj().T).max() <= 1e-12
    assert np.linalg.norm(mat @ mat - mat) <= 1e-10
    assert abs(np.trace(mat).real - sym_dim(d, n)) <= 1e-8
    gen = np.random.default_rng(1)
    for _ in range(5):
        pi = Permutation(tuple(gen.permutation(n)))
        pmat = permutation_operator(d, pi).entries
        assert np.abs(pmat @ mat - mat).max() <= 1e-12
        assert np.abs(mat @ pmat - mat).max() <= 1e-12


def test_type_isometry_columns_2_2():
    v = type_isometry(2, 2).entries
    cols = {
        0: np.array([1, 0, 0, 0]),
        1: np.array([0, 1, 1, 0]) / np.sqrt(2),
        2: np.array([0, 0, 0, 1]),
    }
    for idx, expected in cols.items():
        assert np.abs(v[:, idx] - expected).max() <= 1e-15


@pytest.mark.parametrize("d,n", [(2, 2), (2, 6), (3, 4), (4, 3), (5, 2)])
def test_type_isometry_is_isometry_onto_projector(d, n):
    v = type_isometry(d, n).entries
    assert np.linalg.norm(v.conj().T @ v - np.eye(sym_dim(d, n))) <= 1e-12
    proj = sym_projector_group(d, n).entries
    assert np.linalg.norm(v @ v.conj().T - proj) <= 1e-12


def test_enumerate_matchings_counts():
    assert [m.pairs for m in enumerate_matchings(1)] == [((0, 1),)]
    assert len(enumerate_matchings(2)) == 3
    assert len(enumerate_matchings(3)) == 15
    assert len(enumerate_matchings(5)) == 945
    with pytest.raises(DimensionGuardError):
        enumerate_matchings(7)


def test_matching_validation():
    with pytest.raises(ValueError):
        Matching(((0, 1), (1, 2)))


def test_matching_operator_identity_pairing():
    for d, n in [(2, 2), (3, 2), (2, 3)]:
        ident = matching_from_permutation(Permutation.identity(n))
        op = matching_operator(d, n, ident)
        assert np.array_equal(op.entries.real, np.eye(d**n))


def test_matching_operator_brute_force_d2_n1():
    # strings (i0, i1) with i0 == i1 contribute |i0><i1|: the identity
    op = matching_operator(2, 1, Matching(((0, 1),)))
    brute = np.zeros((2, 2))
    for i0 in range(2):
        for i1 in range(2):
            if i0 == i1:
                brute[i0, i1] += 1
    assert np.array_equal(op.entries.real, brute)


def test_matching_sum_n2_closed_form():
    # sum of the three pairings times d^-2 is (I + SWAP)/d^2 + |Phi><Phi|/d
    for d in (2, 3, 4):
        total = sum(matching_operator(d, 2, m).entries for m in enumerate_matchings(2))
        swap = permutation_operator(d, Permutation((1, 0))).entries
        phi = np.zeros(d * d)
        phi[:: d + 1] = 1 / np.sqrt(d)
        closed = (np.eye(d * d) + swap) / d**2 + np.outer(phi, phi) / d
        assert np.abs(total / d**2 - closed).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matching_from_permutation_reproduces_operator(n):
    d = 2
    for pi in all_permutations(n):
        lhs = matching_operator(d, n, matching_from_permutation(pi))
        rhs = permutation_operator(d, pi)
        assert np.array_equal(lhs.entries, rhs.entries), pi


def test_partial_trace():
    gen = np.random.default_rng(2)
    a = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    b = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    op = operator_tensor(Operator(a, (3,), (3,)), Operator(b, (4,), (4,)))
    assert partial_trace(op, (0, 1)) is op
    full = partial_trace(op, ())
    assert abs(full.entries[0, 0] - np.trace(a) * np.trace(b)) <= 1e-12
    first = partial_trace(op, (0,))
    assert np.abs(first.entries - a * np.trace(b)).max() <= 1e-12
    second = partial_trace(op, (1,))
    assert np.abs(second.entries - b * np.trace(a)).max() <= 1e-12
    assert abs(first.trace() - op.trace()) <= 1e-12


def test_partial_trace_index_errors():
    op = Operator(np.eye(4), (2, 2), (2, 2))
    with pytest.raises(IndexError):
        partial_trace(op, (2,))


def test_conjugation_fixed_dimension():
    assert conjugation_fixed_dimension(2, 1) == 4
    assert conjugation_fixed_dimension(3, 1) == 9
    assert conjugation_fixed_dimension(2, 2) == 10  # (16 + 4) / 2
    for d in (2, 3):
        for n in range(1, 6):
            assert conjugation_fixed_dimension(d, n) == sym_dim(d * d, n), (d, n)


def test_tensor_power_span_rank():
    assert tensor_power_span_rank(2, 1, 10, RngStream(3)) == 4
    assert tensor_power_span_rank(2, 2, 20, RngStream(3)) == 9
    assert tensor_power_span_rank(2, 3, 30, RngStream(3)) == 16
    with pytest.raises(ValueError):
        tensor_power_span_rank(2, 2, 5, RngStream(3))


def test_operator_json_roundtrip():
    gen = np.random.default_rng(4)
    mat = gen.standard_normal((4, 2)) + 1j * gen.standard_normal((4, 2))
    op = Operator(mat, (2, 2), (2,))
    back = operator_from_json(operator_to_json(op))
    assert back.row_dims == op.row_dims and back.col_dims == op.col_dims
    assert np.abs(back.entries - op.entries).max() == 0.0


def test_dimension_guard():
    with pytest.raises(DimensionGuardError):
        sym_projector_group(2, 15)


def _type_isometry_by_rows(d, n):
    """Reference: the row-by-row loop the vectorized builder replaced."""
    from symsub.exactcomb import enumerate_types, multinomial
    from symsub.tensorspace import _index_digits

    types = enumerate_types(d, n)
    col_of = {t.entries: c for c, t in enumerate(types)}
    norms = {t.entries: 1.0 / np.sqrt(multinomial(n, t)) for t in types}
    digits = _index_digits(d, n)
    mat = np.zeros((d**n, len(types)), dtype=complex)
    for row in range(d**n):
        t = tuple(int((digits[row] == a).sum()) for a in range(d))
        mat[row, col_of[t]] = norms[t]
    return mat


@pytest.mark.parametrize("d,n", [(2, 10), (3, 6), (64, 2), (1, 5), (1, 0), (3, 0), (5, 3)])
def test_type_isometry_matches_row_loop(d, n):
    from symsub.tensorspace import _type_isometry_matrix

    assert np.array_equal(_type_isometry_matrix(d, n), _type_isometry_by_rows(d, n))


def _symmetrizer_by_fancy_index(d, n):
    """Reference: the int64 coset cascade with one fancy-indexed copy per term."""
    from symsub.tensorspace import _transposition_index_map

    mat = np.eye(d, dtype=np.int64)
    for m in range(2, n + 1):
        base = np.kron(mat, np.eye(d, dtype=np.int64))
        total = base.copy()
        for j in range(m - 1):
            total += base[:, _transposition_index_map(d, m, j, m - 1)]
        mat = total
    return mat


@pytest.mark.parametrize("d,n", [(2, 10), (3, 6), (4, 4)])
def test_symmetrizer_matches_reference_cascade(d, n):
    from symsub.tensorspace import _symmetrizer_int

    got = _symmetrizer_int(d, n)
    assert got.dtype == np.int32
    assert np.array_equal(got, _symmetrizer_by_fancy_index(d, n))


def test_symmetrizer_dtype_holds_n_factorial():
    from math import factorial

    from symsub.tensorspace import _symmetrizer_int

    # at d = 1 the single entry is n! itself: 12! fits int32, 13! does not
    small, large = _symmetrizer_int(1, 12), _symmetrizer_int(1, 13)
    assert small.dtype == np.int32 and small[0, 0] == factorial(12)
    assert large.dtype == np.int64 and large[0, 0] == factorial(13)


def test_tensor_power_span_rank_at_n0():
    # the empty tensor power is the scalar 1: one operator, rank sym_dim(d, 0)**2 = 1
    from symsub.tensorspace import _tensor_power_rows

    v = np.arange(6, dtype=complex).reshape(3, 2)
    assert np.array_equal(_tensor_power_rows(v, 0), np.ones((3, 1), dtype=complex))
    assert np.array_equal(_tensor_power_rows(v, 1), v)
    for d in (1, 2, 3):
        assert tensor_power_span_rank(d, 0, 6, RngStream(3)) == 1


def test_dense_builders_hold_nothing_after_release():
    import tracemalloc

    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        iso = type_isometry(64, 2)  # 4096 x 2080 float64, 65 MiB
        proj = sym_projector_group(3, 7)  # 2187 x 2187 float64, 36.5 MiB
        assert iso.entries.nbytes + proj.entries.nbytes > 100 * 2**20
        del iso, proj
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 2**20


@pytest.mark.parametrize("build", [sym_projector_group, type_isometry])
def test_dense_builder_results_are_private(build):
    first = build(3, 3)
    expected = first.entries.copy()
    assert first.entries.flags.writeable
    first.entries[:] = 7.0
    assert np.array_equal(build(3, 3).entries, expected)
