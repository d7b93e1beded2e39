"""Dtype contract of the dense builders: real operators are float64, sampled
ones complex128, and the real values are the ones the complex builds held."""

import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from symsub.exactcomb import multinomial, real_moment_ratio, sym_dim
from symsub.randomness import (
    RngStream,
    _matching_sum,
    complex_gaussian_moment_operator,
    haar_moment_operator,
    haar_state,
    haar_state_batch,
    haar_unitary,
    mc_tensor_power_mean,
    random_projector,
    real_gaussian_moment_operator,
    real_unit_batch,
    real_unit_moment_operator,
)
from symsub.tensorspace import (
    Operator,
    Permutation,
    _index_digits,
    _symmetrizer_int,
    all_permutations,
    enumerate_matchings,
    matching_operator,
    operator_from_json,
    operator_to_json,
    partial_trace,
    permutation_operator,
    sym_projector_enumerated,
    sym_projector_group,
    type_isometry,
)

DN = [(d, n) for d in range(1, 5) for n in range(0, 6)]



def reversal_operator(d, n):
    return permutation_operator(d, Permutation(tuple(reversed(range(n)))))


def last_matching_operator(d, n):
    return matching_operator(d, n, enumerate_matchings(n)[-1])


REAL_BUILDERS = [
    sym_projector_group,
    sym_projector_enumerated,
    type_isometry,
    reversal_operator,
    last_matching_operator,
    haar_moment_operator,
    complex_gaussian_moment_operator,
    real_gaussian_moment_operator,
    real_unit_moment_operator,
]


@pytest.mark.parametrize("build", REAL_BUILDERS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("d,n", [(1, 3), (2, 0), (2, 3), (3, 2)])
def test_real_builders_return_float64(build, d, n):
    assert build(d, n).entries.dtype == np.float64


def test_sampled_operators_are_complex128():
    stream = RngStream(41)
    assert haar_unitary(3, stream).entries.dtype == np.complex128
    assert random_projector(4, 2, stream).entries.dtype == np.complex128
    assert haar_state(3, stream).entries.dtype == np.complex128
    for sampler in (haar_state_batch, real_unit_batch):
        est = mc_tensor_power_mean(lambda gen, m: sampler(2, gen, m), 2, 50, stream)
        assert est.mean.entries.dtype == np.complex128


@pytest.mark.parametrize(
    "entries",
    [[[1, 0], [0, 1]], [[True, False], [False, True]], [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]],
)
def test_operator_from_non_complex_input_is_float64(entries):
    op = Operator(np.array(entries), (2,), (2,))
    assert op.entries.dtype == np.float64
    assert np.array_equal(op.entries, np.array(entries, dtype=float))


def test_operator_keeps_complex_and_holds_float64_without_copy():
    assert Operator(np.eye(2) * 1j, (2,), (2,)).entries.dtype == np.complex128
    mat = np.eye(2)
    assert Operator(mat, (2,), (2,)).entries is mat


def test_partial_trace_of_a_real_operator_stays_real():
    proj = sym_projector_group(2, 3)
    for keep in ([], [0], [0, 2]):
        assert partial_trace(proj, keep).entries.dtype == np.float64
    assert abs(partial_trace(proj, []).entries[0, 0] - 4.0) <= 1e-12


def _old_symmetric_projector(d, n):
    """The complex build: integer symmetrizer cast to complex, then divided."""
    if n == 0 or d == 1:
        return np.ones((1, 1), dtype=complex)
    return _symmetrizer_int(d, n).astype(complex) / factorial(n)


def _old_type_isometry(d, n):
    """The complex build: a zero complex matrix with 1/sqrt(M(n, t)) at each
    string's type column."""
    rows, cols = np.nonzero(type_isometry(d, n).entries)
    mat = np.zeros((d**n, sym_dim(d, n)), dtype=complex)
    for row, col in zip(rows, cols):
        t = np.bincount(_index_digits(d, n)[row], minlength=d)
        mat[row, col] = 1.0 / np.sqrt(multinomial(n, t.tolist()))
    return mat


OLD_EXPRESSIONS = {
    sym_projector_group: _old_symmetric_projector,
    sym_projector_enumerated: lambda d, n: (
        sum(permutation_operator(d, pi).entries for pi in all_permutations(n)) / factorial(n)
    ).astype(complex),
    type_isometry: _old_type_isometry,
    complex_gaussian_moment_operator: lambda d, n: _old_symmetric_projector(d, n) * (factorial(n) / d**n),
    real_gaussian_moment_operator: lambda d, n: (_matching_sum(d, n) / d**n).astype(complex),
    real_unit_moment_operator: lambda d, n: (_matching_sum(d, n) * float(real_moment_ratio(d, n))).astype(complex),
}


@pytest.mark.parametrize("build", list(OLD_EXPRESSIONS), ids=lambda b: b.__name__)
@pytest.mark.parametrize("d,n", DN)
def test_real_builders_equal_their_complex_builds(build, d, n):
    new = build(d, n).entries
    old = OLD_EXPRESSIONS[build](d, n)
    assert np.array_equal(new.astype(complex), old)
    assert np.signbit(new).tolist() == np.signbit(old.real).tolist()


@pytest.mark.parametrize("d,n", DN)
def test_permutation_and_matching_operators_hold_exact_zeros_and_ones(d, n):
    for pi in all_permutations(n)[:6]:
        assert set(np.unique(permutation_operator(d, pi).entries)) <= {0.0, 1.0}
    for matching in enumerate_matchings(n)[:6]:
        assert set(np.unique(matching_operator(d, n, matching).entries)) <= {0.0, 1.0}


@pytest.mark.parametrize("d,n", DN)
def test_haar_moment_operator_within_one_ulp_of_its_complex_build(d, n):
    # numpy divides complex by multiplying with the reciprocal, so the complex
    # build rounded four times; the real quotient rounds twice
    new = haar_moment_operator(d, n).entries
    assert np.array_equal(new, sym_projector_group(d, n).entries / sym_dim(d, n))
    old = _old_symmetric_projector(d, n) / sym_dim(d, n)
    assert np.all(np.abs(new - old.real) <= np.spacing(new))
    assert not old.imag.any()


@pytest.mark.parametrize("d,n", [(2, 6), (2, 8), (3, 5), (3, 6), (4, 5)])
def test_symmetric_projector_entries_are_correctly_rounded(d, n):
    # the complex build rounded a * (1/n!), which misses a/n! at (2, 6) and (3, 6)
    counts = _symmetrizer_int(d, n)
    proj = sym_projector_group(d, n).entries
    for a in np.unique(counts):
        assert np.all(proj[counts == a] == float(Fraction(int(a), factorial(n))))


def test_type_isometry_64_2_traced_peak_under_80_mib():
    # the complex build peaked at 133 MiB: a 130 MiB result plus scratch
    type_isometry(2, 2)  # first-call imports
    tracemalloc.start()
    try:
        iso = type_isometry(64, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iso.entries.nbytes == 4096 * 2080 * 8
    assert peak < 80 * 2**20


def test_real_operator_json_round_trip_stays_float64():
    op = type_isometry(3, 3)
    back = operator_from_json(operator_to_json(op))
    assert back.entries.dtype == np.float64
    assert (back.row_dims, back.col_dims) == (op.row_dims, op.col_dims)
    assert np.array_equal(back.entries, op.entries)


def test_json_with_one_imaginary_part_is_complex():
    data = operator_to_json(Operator(np.eye(2), (2,), (2,)))
    data["entries"][1][1] = -0.5
    back = operator_from_json(data)
    assert back.entries.dtype == np.complex128
    assert back.entries[0, 1] == -0.5j and back.entries[1, 1] == 1.0
