"""Dtype contract of the dense builders: real operators and channels are
float64, sampled ones complex128, and the real values are the ones the
complex builds held."""

import tracemalloc
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from symsub.channels import (
    _clone_entries,
    _mp_entries,
    _trace_entries,
    apply,
    chiribella_sides,
    clone_channel,
    clone_channel_sym,
    compress_superoperator,
    identity_superoperator,
    kraus_superoperator,
    mp_channel,
    mp_channel_sym,
    projection_superoperator,
    trace_channel,
    trace_channel_sym,
)
from symsub.definetti import exp_definetti_sides, mp_remainder_channel_sym
from symsub.exactcomb import mp_clone_coefficient, multinomial, real_moment_ratio, sym_dim
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
    all_permutations,
    enumerate_matchings,
    matching_operator,
    operator_from_json,
    operator_tensor,
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


def _symmetrizer_counts(d, n):
    """Exact integer symmetrizer sum_pi P(pi) by the coset cascade
    S_m = (S_{m-1} (x) I) (I + sum_j T_{j,m})."""
    mat = np.eye(d, dtype=np.int64)
    for m in range(2, n + 1):
        base = np.kron(mat, np.eye(d, dtype=np.int64))
        total = base.copy()
        for j in range(m - 1):
            total += base[:, np.arange(d**m).reshape((d,) * m).swapaxes(j, m - 1).reshape(-1)]
        mat = total
    return mat


def _old_symmetric_projector(d, n):
    """The complex build: integer symmetrizer cast to complex, then divided."""
    if n == 0 or d == 1:
        return np.ones((1, 1), dtype=complex)
    return _symmetrizer_counts(d, n).astype(complex) / factorial(n)


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
    counts = _symmetrizer_counts(d, n)
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


# ---------------------------------------------------------------------------
# superoperators follow the same rule
# ---------------------------------------------------------------------------

DNK = [(d, n, k) for d in range(1, 4) for n in range(1, 4) for k in range(1, 4) if d ** (n + k) <= 81]

CHANNEL_BUILDERS = {
    "clone_channel_sym": clone_channel_sym,
    "mp_channel_sym": mp_channel_sym,
    "trace_channel_sym": lambda d, n, k: trace_channel_sym(d, n, min(n, k)),
    "clone_channel": clone_channel,
    "mp_channel": mp_channel,
    "trace_channel": lambda d, n, k: trace_channel(d, n, min(n, k)),
    "projection_superoperator": lambda d, n, k: projection_superoperator(d, n),
    "compress_superoperator": lambda d, n, k: compress_superoperator(clone_channel(d, n, k), d, n, n + k),
    "identity_superoperator": lambda d, n, k: identity_superoperator((d, n)),
    "mp_remainder_channel_sym": lambda d, n, k: mp_remainder_channel_sym(d, n, min(n, k))[1],
}


@pytest.mark.parametrize("name", list(CHANNEL_BUILDERS))
@pytest.mark.parametrize("d,n,k", [(1, 2, 1), (2, 2, 1), (2, 3, 2), (3, 2, 2)])
def test_channel_builders_return_float64(name, d, n, k):
    assert CHANNEL_BUILDERS[name](d, n, k).matrix.dtype == np.float64


@pytest.mark.parametrize("representation", ["sym", "full"])
def test_identity_sides_are_float64(representation):
    for side in chiribella_sides(2, 3, 2, representation):
        assert side.dtype == np.float64
    for side in exp_definetti_sides(2, 3, 2):
        assert side.dtype == np.float64


def test_complex_kraus_map_and_complex_input_stay_complex128():
    k = np.array([[1.0, 0.5j], [0.0, 1.0], [0.25, -1j]])
    s = kraus_superoperator([k], (2,), (3,))
    assert s.matrix.dtype == np.complex128
    assert np.array_equal(s.matrix, np.kron(k.conj(), k))
    mixed = kraus_superoperator([k.real, k], (2,), (3,))
    assert mixed.matrix.dtype == np.complex128
    channel = trace_channel(2, 2, 1)
    rho = Operator(np.array([[0.5, 0.25j], [-0.25j, 0.5]]), (2,), (2,))
    assert apply(channel, operator_tensor(rho, rho)).entries.dtype == np.complex128
    assert apply(channel, operator_tensor(rho, rho)).entries[0, 1] == 0.25j
    real_rho = Operator(np.eye(4) / 4, (2, 2), (2, 2))
    assert apply(channel, real_rho).entries.dtype == np.float64


def _old_kraus_sum(kraus, dout, din):
    """The complex build: each Kraus operator cast to complex, summed in complex."""
    acc = np.zeros((dout * dout, din * din), dtype=complex)
    for op in kraus:
        k = np.asarray(op, dtype=complex)
        acc += np.kron(k.conj(), k)
    return acc


def _old_clone_channel(d, n, k):
    pi = sym_projector_group(d, n + k).entries
    root = np.sqrt(float(Fraction(sym_dim(d, n), sym_dim(d, n + k))))
    return _old_kraus_sum([root * pi[:, a :: d**k] for a in range(d**k)], d ** (n + k), d**n)


def _old_trace_channel(d, n, k):
    eye = np.eye(d**n)
    return _old_kraus_sum([eye[b :: d ** (n - k)] for b in range(d ** (n - k))], d**k, d**n)


def _old_mp_channel(d, n, k):
    tensor = sym_projector_group(d, n + k).entries.astype(complex).reshape(d**n, d**k, d**n, d**k)
    c = float(Fraction(sym_dim(d, n), sym_dim(d, n + k)))
    return c * tensor.transpose(3, 1, 0, 2).reshape(d ** (2 * k), d ** (2 * n))


def _old_scatter(entries, dout, din):
    """The complex build: one scatter into a zero complex matrix."""
    out, inp, values = entries
    mat = np.zeros((dout * dout, din * din), dtype=complex)
    mat[out, inp] = values
    return mat


OLD_CHANNELS = {
    "clone_channel_sym": (clone_channel_sym, lambda d, n, k: _old_scatter(_clone_entries(d, n, k), sym_dim(d, n + k), sym_dim(d, n))),
    "mp_channel_sym": (mp_channel_sym, lambda d, n, k: _old_scatter(_mp_entries(d, n, k), sym_dim(d, k), sym_dim(d, n))),
    "trace_channel_sym": (trace_channel_sym, lambda d, n, k: _old_scatter(_trace_entries(d, n, k), sym_dim(d, k), sym_dim(d, n))),
    "clone_channel": (clone_channel, _old_clone_channel),
    "mp_channel": (mp_channel, _old_mp_channel),
    "trace_channel": (trace_channel, _old_trace_channel),
}


@pytest.mark.parametrize("name", list(OLD_CHANNELS))
@pytest.mark.parametrize("d,n,k", DNK)
def test_channels_equal_their_complex_builds(name, d, n, k):
    if name.startswith("trace") and k > n:
        k = n
    build, old_build = OLD_CHANNELS[name]
    new, old = build(d, n, k).matrix, old_build(d, n, k)
    assert np.array_equal(new.astype(complex), old)
    assert np.signbit(new).tolist() == np.signbit(old.real).tolist()


@pytest.mark.parametrize("d,n", [(1, 2), (2, 1), (2, 3), (3, 2)])
def test_projection_and_identity_superoperators_equal_their_complex_builds(d, n):
    pi = sym_projector_group(d, n).entries.astype(complex)
    assert np.array_equal(projection_superoperator(d, n).matrix.astype(complex), np.kron(pi.T, pi))
    assert np.array_equal(identity_superoperator((d, n)).matrix.astype(complex), np.eye((d * n) ** 2, dtype=complex))


@pytest.mark.parametrize("d,n,k", [dnk for dnk in DNK if dnk[2] <= dnk[1]])
def test_mp_remainder_within_one_ulp_of_its_complex_build(d, n, k):
    # numpy divides complex by multiplying with the reciprocal; the real
    # quotient is correctly rounded
    m_kk = mp_clone_coefficient(d, n, k, k)
    new = mp_remainder_channel_sym(d, n, k)[1].matrix
    if m_kk == 1:
        assert not new.any()
        return
    mp, tr = mp_channel_sym(d, n, k).matrix, trace_channel_sym(d, n, k).matrix
    assert np.array_equal(new, (mp - float(m_kk) * tr) / float(1 - m_kk))
    old = (mp.astype(complex) - float(m_kk) * tr.astype(complex)) / float(1 - m_kk)
    assert np.all(np.abs(new - old.real) <= np.spacing(np.abs(new)))
    assert not old.imag.any()


def _matching_loop(d, n):
    # Wick's sum written out: every perfect matching's operator, added in enumeration order
    acc = None
    for matching in enumerate_matchings(n):
        term = matching_operator(d, n, matching).entries
        acc = term if acc is None else acc + term
    return acc


def _assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@pytest.mark.parametrize("d,n", DN + [(1, 6), (2, 6)])
def test_matching_sum_is_the_matching_loop_bit_for_bit(d, n):
    acc = _matching_loop(d, n)
    _assert_same_bits(_matching_sum(d, n), acc)
    _assert_same_bits(real_gaussian_moment_operator(d, n).entries, acc / d**n)
    _assert_same_bits(real_unit_moment_operator(d, n).entries, acc * float(real_moment_ratio(d, n)))


@pytest.mark.parametrize("d,n", [(2, 7), (2, 8), (2, 9), (2, 10), (3, 7), (8, 4)])
def test_matching_sum_beyond_the_matching_cap_keeps_its_exact_traces(d, n):
    # tr sum_M sigma_M = d (d+2) ... (d+2n-2), and tracing out the last copy
    # leaves (d + 2n - 2) times the sum for n - 1, both in exact integer floats
    acc = _matching_sum(d, n)
    assert np.trace(acc) == np.prod([d + 2 * i for i in range(n)], dtype=float)
    traced = partial_trace(Operator(acc, (d,) * n, (d,) * n), range(n - 1)).entries
    assert np.array_equal(traced, (d + 2 * n - 2) * _matching_sum(d, n - 1))
