"""Basis-index maps taken from numpy's row-major layout, against the
digit-and-place-value arithmetic and the embedding matrices they replace.

Each oracle below is the earlier hand-written form; the library must agree
with it exactly (``np.array_equal``), including the d = 1 and n = 0/1 edges.
"""

from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import exp, factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsub.channels import clone_channel, kraus_superoperator, trace_channel
from symsub.concentration import MultiPartition, experiment_schmidt_tail, mu_exact
from symsub.exactcomb import real_moment_ratio, sym_dim
from symsub.randomness import (
    CHUNK_BYTES,
    RngStream,
    haar_state_batch,
    real_gaussian_moment_operator,
    real_unit_moment_operator,
)
from symsub.tensorspace import (
    Operator,
    Permutation,
    _index_digits,
    _transposition_index_map,
    enumerate_matchings,
    matching_operator,
    permutation_index_map,
    sym_projector_group,
    tensor_power_span_rank,
)

DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=60)


# ---------------------------------------------------------------------------
# oracles: the digit arithmetic
# ---------------------------------------------------------------------------

def _digits_by_division(d, n):
    idx = np.arange(d**n)
    digits = np.empty((d**n, n), dtype=np.int64)
    for pos in range(n):
        digits[:, n - 1 - pos] = (idx // d**pos) % d
    return digits


def _place_values(d, n):
    return np.array([d ** (n - 1 - m) for m in range(n)], dtype=np.int64)


def _permutation_map_by_digits(d, images):
    n = len(images)
    digits = _digits_by_division(d, n)
    out_digits = np.empty_like(digits)
    out_digits[:, list(images)] = digits
    return out_digits @ _place_values(d, n)


def _transposition_map_by_digits(d, n, i, j):
    digits = _digits_by_division(d, n)
    digits[:, [i, j]] = digits[:, [j, i]]
    return digits @ _place_values(d, n)


def _matching_matrix_by_digits(d, n, matching):
    dim = d**n
    free = _digits_by_division(d, n)
    full = np.empty((dim, 2 * n), dtype=np.int64)
    for pair_idx, (a, b) in enumerate(matching.pairs):
        full[:, a] = free[:, pair_idx]
        full[:, b] = free[:, pair_idx]
    pv = _place_values(d, n)
    mat = np.zeros((dim, dim))
    mat[full[:, :n] @ pv, full[:, n:] @ pv] = 1.0
    return mat


def _interleave_map(dims, n):
    """sigma with W|copy-major x> = |system-major sigma(x)> for n copies."""
    k = len(dims)
    total = prod(dims) ** n
    radices_copy = list(dims) * n
    digits = np.empty((total, n * k), dtype=np.int64)
    rem = np.arange(total)
    for pos in reversed(range(n * k)):
        digits[:, pos] = rem % radices_copy[pos]
        rem //= radices_copy[pos]
    radices_sys = [dims[i] for i in range(k) for _ in range(n)]
    pv = np.ones(n * k, dtype=np.int64)
    for pos in reversed(range(n * k - 1)):
        pv[pos] = pv[pos + 1] * radices_sys[pos + 1]
    sigma = np.zeros(total, dtype=np.int64)
    for i in range(k):
        for c in range(n):
            sigma += digits[:, c * k + i] * pv[i * n + c]
    return sigma


def _mu_exact_by_interleave_map(op, dims, n):
    total = prod(dims)
    moments = [sym_projector_group(d, n).entries / sym_dim(d, n) for d in dims]
    kq = reduce(np.kron, moments)
    sigma = _interleave_map(dims, n)
    tensor = kq[np.ix_(sigma, sigma)].reshape((total,) * n + (total,) * n)
    for step in range(n):
        tensor = np.tensordot(op, tensor, axes=([1, 0], [0, n - step]))
    return float(complex(tensor).real)


def _symmetrizer_by_digits(d, n):
    mat = np.eye(d, dtype=np.int64)
    for m in range(2, n + 1):
        base = np.kron(mat, np.eye(d, dtype=np.int64))
        total = base.copy()
        for j in range(m - 1):
            total += base[:, _transposition_map_by_digits(d, m, j, m - 1)]
        mat = total
    return mat


# ---------------------------------------------------------------------------
# oracles: the embedding-matrix Kraus operators
# ---------------------------------------------------------------------------

def _clone_kraus_by_embedding(d, n, k):
    pi = sym_projector_group(d, n + k).entries
    root = np.sqrt(float(Fraction(sym_dim(d, n), sym_dim(d, n + k))))
    dn, dk = d**n, d**k
    kraus = []
    for a in range(dk):
        embed = np.zeros((dn * dk, dn))
        embed[a::dk, :] = np.eye(dn)
        kraus.append(root * (pi @ embed))
    return kraus


def _trace_kraus_by_kron(d, n, k):
    dk, dr = d**k, d ** (n - k)
    kraus = []
    for b in range(dr):
        eb = np.zeros((1, dr))
        eb[0, b] = 1.0
        kraus.append(np.kron(np.eye(dk), eb))
    return kraus


def _dims(d, n):
    return (d,) * n if n > 0 else (1,)


# ---------------------------------------------------------------------------
# tensorspace index maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_index_digits_match_division(d, n):
    digits = _index_digits(d, n)
    assert digits.shape == (d**n, n)
    assert np.array_equal(digits, _digits_by_division(d, n))
    assert not digits.flags.writeable


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_permutation_maps_match_place_values(d, n):
    for images in permutations(range(n)):
        got = permutation_index_map(d, Permutation(images))
        assert np.array_equal(got, _permutation_map_by_digits(d, images)), images


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_transposition_maps_match_place_values(d, n):
    for i in range(n):
        for j in range(n):
            got = _transposition_index_map(d, n, i, j)
            assert np.array_equal(got, _transposition_map_by_digits(d, n, i, j)), (i, j)


@DERANDOMIZED
@given(d=st.integers(1, 3), images=st.integers(0, 5).flatmap(lambda n: st.permutations(range(n))))
def test_permutation_map_property(d, images):
    got = permutation_index_map(d, Permutation(images))
    assert np.array_equal(got, _permutation_map_by_digits(d, images))


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (2, 4), (3, 3), (1, 3), (2, 1)])
def test_matching_operators_match_place_values(d, n):
    for matching in enumerate_matchings(n):
        got = matching_operator(d, n, matching).entries
        assert np.array_equal(got, _matching_matrix_by_digits(d, n, matching)), matching.pairs


@pytest.mark.parametrize("d,n", [(2, 5), (2, 8), (3, 4), (4, 3)])
def test_sym_projector_matches_digit_cascade(d, n):
    expected = _symmetrizer_by_digits(d, n).astype(complex) / factorial(n)
    assert np.array_equal(sym_projector_group(d, n).entries, expected)


# ---------------------------------------------------------------------------
# matching sums, tensor-power rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,n", [(2, 2), (3, 2), (2, 3)])
def test_real_moment_operators_match_matching_loop(d, n):
    acc = None
    for matching in enumerate_matchings(n):
        term = matching_operator(d, n, matching).entries
        acc = term if acc is None else acc + term
    assert np.array_equal(real_gaussian_moment_operator(d, n).entries, acc / d**n)
    expected = acc * float(real_moment_ratio(d, n))
    assert np.array_equal(real_unit_moment_operator(d, n).entries, expected)


def _span_rank_by_kron_loop(d, n, samples, stream):
    gen = stream.generator()
    rows = np.empty((samples, d ** (2 * n)), dtype=complex)
    for i in range(samples):
        v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
        v /= np.linalg.norm(v)
        w = v
        for _ in range(n - 1):
            w = np.kron(w, v)
        rows[i] = np.kron(w.conj(), w)
    return rows, int(np.sum(np.linalg.svd(rows, compute_uv=False) > 1e-8))


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2)])
def test_span_rank_matches_kron_loop(d, n):
    samples = sym_dim(d, n) ** 2 + 20
    for seed in range(10):
        for stream in (RngStream(seed), RngStream(seed, 1), RngStream(8, d * 10 + n)):
            _, expected = _span_rank_by_kron_loop(d, n, samples, stream)
            assert tensor_power_span_rank(d, n, samples, stream) == expected == sym_dim(d, n) ** 2


def test_span_rank_rows_match_kron_loop_to_rounding():
    from symsub.tensorspace import _tensor_power_rows

    d, n, samples = 3, 3, 8
    rows, _ = _span_rank_by_kron_loop(d, n, samples, RngStream(5))
    z = RngStream(5).generator().standard_normal((samples, 2, d))
    v = z[:, 0] + 1j * z[:, 1]
    w = _tensor_power_rows(v / np.linalg.norm(v, axis=1, keepdims=True), n)
    got = (w.conj()[:, :, None] * w[:, None, :]).reshape(samples, -1)
    assert np.abs(got - rows).max() <= 1e-14


# ---------------------------------------------------------------------------
# mu_exact without the interleave map
# ---------------------------------------------------------------------------

def _random_hermitian(dim, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


@pytest.mark.parametrize(
    "dims,n",
    [((2, 2), 1), ((2, 2), 2), ((2, 2), 3), ((2, 2), 4), ((2, 2), 5),
     ((2, 3), 2), ((2, 3), 3), ((3, 2), 2), ((2, 2, 2), 2), ((3,), 3), ((1, 2), 3)],
)
def test_mu_exact_matches_interleave_map(dims, n):
    op = _random_hermitian(prod(dims), seed=sum(dims) * 10 + n)
    got = mu_exact(Operator(op, dims, dims), MultiPartition(dims), n)
    assert got == _mu_exact_by_interleave_map(op, dims, n)


@DERANDOMIZED
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda ds: prod(ds) <= 6),
    n=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_mu_exact_property(dims, n, seed):
    dims = tuple(dims)
    op = _random_hermitian(prod(dims), seed)
    got = mu_exact(Operator(op, dims, dims), MultiPartition(dims), n)
    assert got == _mu_exact_by_interleave_map(op, dims, n)


# ---------------------------------------------------------------------------
# full-space channels without embedding matrices
# ---------------------------------------------------------------------------

CHANNEL_CASES = [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (3, 2, 1),
                 (2, 2, 0), (2, 0, 2), (1, 3, 2), (2, 3, 1), (2, 0, 0)]


@pytest.mark.parametrize("d,n,k", CHANNEL_CASES)
def test_clone_channel_matches_embedding_kraus(d, n, k):
    kraus = _clone_kraus_by_embedding(d, n, k)
    expected = kraus_superoperator(kraus, _dims(d, n), _dims(d, n + k))
    assert np.array_equal(clone_channel(d, n, k).matrix, expected.matrix)


@pytest.mark.parametrize("d,n,k", CHANNEL_CASES)
def test_trace_channel_matches_kron_kraus(d, n, k):
    n, k = n + k, n  # keep k of n + k copies
    expected = kraus_superoperator(_trace_kraus_by_kron(d, n, k), _dims(d, n), _dims(d, k))
    assert np.array_equal(trace_channel(d, n, k).matrix, expected.matrix)


# ---------------------------------------------------------------------------
# Schmidt-tail blocks
# ---------------------------------------------------------------------------

def test_schmidt_tail_matches_literal_block_loop():
    d, samples, epsilon, stream = 3, 2500, 0.3, RngStream(31)
    threshold = 16.0 / (np.e * d) * exp(epsilon)
    exceed, top_sum, done, block = 0, 0.0, 0, 0
    while done < samples:
        size = min(1024, samples - done)
        psi = haar_state_batch(d * d, stream.block_generator(block), size)
        lam = np.linalg.svd(psi.reshape(size, d, d), compute_uv=False)[:, 0] ** 2
        exceed += int(np.sum(lam >= threshold))
        top_sum += float(lam.sum())
        done += size
        block += 1
    report = experiment_schmidt_tail(d, samples, epsilon, stream)
    assert report.exceedances == exceed
    assert report.mean_top_schmidt == top_sum / samples


@pytest.mark.parametrize("d", [1, 2, 16, 32])
@pytest.mark.parametrize(
    "samples",
    [lambda c: 1, lambda c: c - 1, lambda c: c + 1, lambda c: 1024, lambda c: 1025],
    ids=["one", "chunk-1", "chunk+1", "block", "block+1"],
)
def test_streamed_schmidt_tail_matches_whole_block_svd(d, samples):
    samples = samples(max(1, CHUNK_BYTES // (16 * d * d)))
    epsilon, stream = 0.05, RngStream(32, d)
    threshold = 16.0 / (np.e * d) * exp(epsilon)
    exceed, top_sum = 0, 0.0
    for block, start in enumerate(range(0, samples, 1024)):
        size = min(1024, samples - start)
        psi = haar_state_batch(d * d, stream.block_generator(block), size)
        lam = np.linalg.svd(psi.reshape(size, d, d), compute_uv=False)[:, 0] ** 2
        exceed += int(np.sum(lam >= threshold))
        top_sum += float(lam.sum())
    report = experiment_schmidt_tail(d, samples, epsilon, stream)
    assert (report.samples, report.threshold) == (samples, threshold)
    assert report.exceedances == exceed
    assert report.mean_top_schmidt == top_sum / samples
