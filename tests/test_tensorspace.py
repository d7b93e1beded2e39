"""Operator-level checks: permutation representation, projector constructions,
matchings, partial trace, commutant dimensions, span ranks."""

import numpy as np
import pytest

from symsub.exactcomb import enumerate_types, sym_dim
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
    from symsub.tensorspace import type_isometry

    assert np.array_equal(type_isometry(d, n).entries, _type_isometry_by_rows(d, n))


def _symmetrizer_by_fancy_index(d, n):
    """Reference: the int64 coset cascade S_m = (S_{m-1} (x) I) (I + sum_j T_{j,m}),
    one fancy-indexed copy per transposition term."""
    mat = np.eye(d, dtype=np.int64)
    for m in range(2, n + 1):
        base = np.kron(mat, np.eye(d, dtype=np.int64))
        total = base.copy()
        for j in range(m - 1):
            total += base[:, np.arange(d**m).reshape((d,) * m).swapaxes(j, m - 1).reshape(-1)]
        mat = total
    return mat


@pytest.mark.parametrize("d,n", [(2, 10), (3, 6), (4, 4)])
def test_symmetrizer_matches_reference_cascade(d, n):
    from math import factorial

    got = sym_projector_group(d, n).entries
    assert np.array_equal(got, _symmetrizer_by_fancy_index(d, n) / factorial(n))


def test_symmetrizer_at_d1_is_one():
    # the single entry is n!/n!, also where n! outgrows int32 (13) and int64 (25)
    for n in (0, 12, 13, 25):
        assert np.array_equal(sym_projector_group(1, n).entries, np.ones((1, 1)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", range(9))
def test_type_rank_counts_enumerate_types_in_order(d, n):
    from symsub.tensorspace import _type_rank

    rows = np.array([t.entries for t in enumerate_types(d, n)])
    assert np.array_equal(_type_rank(rows, n), np.arange(sym_dim(d, n)))


def test_symmetrizer_3_7_traced_peak_under_48_mib():
    # the coset cascade peaked at 75 MiB; the type build holds the 36.5 MiB
    # result and one type's block indices at a time, 36.6 MiB in all
    import tracemalloc

    sym_projector_group(2, 2)  # first-call imports
    tracemalloc.start()
    try:
        proj = sym_projector_group(3, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert proj.entries.shape == (2187, 2187)
    assert peak < 48 * 2**20


def test_tensor_power_span_rank_at_n0():
    # the empty tensor power is the scalar 1: one operator, rank sym_dim(d, 0)**2 = 1
    from symsub.tensorspace import _tensor_power_rows

    v = np.arange(6, dtype=complex).reshape(3, 2)
    assert np.array_equal(_tensor_power_rows(v, 0), np.ones((3, 1), dtype=complex))
    assert np.array_equal(_tensor_power_rows(v, 1), v)
    for d in (1, 2, 3):
        assert tensor_power_span_rank(d, 0, 6, RngStream(3)) == 1


def _dense_span_rows(d, n, samples, stream):
    # the d^(2n)-wide rows kron(conj(phi^(x n)), phi^(x n)) on the draws tensor_power_span_rank makes
    z = stream.generator().standard_normal((samples, 2, d))
    rows = []
    for v in z[:, 0] + 1j * z[:, 1]:
        v = v / np.linalg.norm(v)
        w = np.ones(1, dtype=complex)
        for _ in range(n):
            w = np.kron(w, v)
        rows.append(np.kron(w.conj(), w))
    return np.array(rows)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_span_rows_in_type_coordinates_keep_the_dense_singular_values(monkeypatch, d, n):
    # V (x) V maps the type-coordinate rows onto the dense rows, so the SVD sees the same spectrum
    samples = sym_dim(d, n) ** 2 + 20
    seen = []
    svd = np.linalg.svd

    def spy(rows, **kwargs):
        seen.append(rows)
        return svd(rows, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    assert tensor_power_span_rank(d, n, samples, RngStream(4, d * 10 + n)) == sym_dim(d, n) ** 2
    monkeypatch.undo()
    (rows,) = seen
    assert rows.shape == (samples, sym_dim(d, n) ** 2)
    dense = _dense_span_rows(d, n, samples, RngStream(4, d * 10 + n))
    got, expected = svd(rows, compute_uv=False), svd(dense, compute_uv=False)
    assert np.abs(got - expected[: len(got)]).max() <= 1e-12
    assert np.abs(expected[len(got):]).max(initial=0.0) <= 1e-12


def test_span_rank_is_full_wherever_the_rows_are_small():
    # every (d, n) with d^n <= 128 (the default cap's reach) and sym_dim^2 <= 441
    cases = [
        (d, n) for d in range(1, 22) for n in range(8)
        if d**n <= 128 and sym_dim(d, n) ** 2 <= 441
    ]
    assert len(cases) == 61
    wrong = {
        (d, n): rank for d, n in cases
        if (rank := tensor_power_span_rank(d, n, sym_dim(d, n) ** 2 + 20, RngStream(9, d * 10 + n)))
        != sym_dim(d, n) ** 2
    }
    assert wrong == {}


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


def test_symmetrizer_3_7_traced_peak_under_38_mib():
    # the 2187 x 2187 float64 result is 36.5 MiB; a boolean mask of the same
    # side beside it took the peak to 41.1 MiB
    import tracemalloc

    sym_projector_group(2, 2)  # first-call imports
    tracemalloc.start()
    try:
        proj = sym_projector_group(3, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert proj.entries.shape == (2187, 2187)
    assert peak < 38 * 2**20


@pytest.mark.parametrize("d,n", [(2, 5), (3, 4), (4, 3)])
def test_index_map_rows_match_permutation_product(d, n):
    # P(pi) moves row x to row t[x] exactly, so verify psym's invariance residual
    # P(pi) mat - mat is mat - mat[t] with its rows reordered by t
    from symsub.tensorspace import permutation_index_map

    mat = sym_projector_group(d, n).entries + np.arange((d**n) ** 2).reshape(d**n, d**n)
    for pi in all_permutations(n):
        t = permutation_index_map(d, pi)
        dense = permutation_operator(d, pi).entries @ mat - mat
        assert np.array_equal(dense[t], mat - mat[t])


def _matchings_by_closure(n):
    # the enumeration as it was written before, with a self-calling closure
    out = []

    def rec(unmatched, acc):
        if not unmatched:
            out.append(Matching(acc))
            return
        first, rest = unmatched[0], unmatched[1:]
        for pos, partner in enumerate(rest):
            rec(rest[:pos] + rest[pos + 1:], acc + ((first, partner),))

    rec(tuple(range(2 * n)), ())
    return out


@pytest.mark.parametrize("n", range(7))
def test_enumerate_matchings_keeps_its_order(n):
    assert enumerate_matchings(n) == _matchings_by_closure(n)


def test_enumerate_matchings_frees_its_list_without_the_collector():
    # a self-calling closure kept the list in a reference cycle: the 10395
    # matchings of [2*6] stayed allocated until the garbage collector ran
    import gc
    import weakref

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        matchings = enumerate_matchings(6)
        assert len(matchings) == 10395
        first = weakref.ref(matchings[0])
        del matchings
        assert first() is None
    finally:
        if was_enabled:
            gc.enable()


def test_all_permutations_refuses_past_its_cap():
    from symsub.guards import PERMUTATION_ENUMERATION_CAP
    from symsub.tensorspace import all_permutations

    with pytest.raises(DimensionGuardError, match=r"refusing to enumerate S_10 \(10! elements; cap n <= 9\)"):
        all_permutations(PERMUTATION_ENUMERATION_CAP + 1)
