"""The type-basis channels as entry lists: the identity verifiers sum weighted
entry lists and never build a dense superoperator; the dense matrices the
constructors and the ``*_sides`` functions return are one scatter of the same
entries."""

import json
import tracemalloc
from math import sqrt

import numpy as np
import pytest

from symsub.channels import (
    _clone_entries,
    _trace_entries,
    _type_split,
    chiribella_sides,
    clone_channel,
    clone_channel_sym,
    compose,
    mp_channel,
    mp_channel_sym,
    projection_superoperator,
    trace_channel,
    trace_channel_sym,
    verify_chiribella,
)
from symsub.cli import main
from symsub.definetti import exp_definetti_full_coefficients, exp_definetti_sides, verify_exp_definetti
from symsub.exactcomb import enumerate_types, mp_clone_coefficient, multinomial, sym_dim

SMALL = [(d, n, k) for d in range(1, 5) for n in range(0, 5) for k in range(0, 6)]


def _pairs_sharing(key):
    """Oracle: all ordered pairs (i, j) of positions with key[i] == key[j],
    grouped by key, as the dense build listed them."""
    order = np.argsort(key, kind="stable")
    bounds = np.flatnonzero(np.diff(key[order])) + 1
    left, right = [], []
    for group in np.split(order, bounds):
        left.append(np.repeat(group, group.size))
        right.append(np.tile(group, group.size))
    return np.concatenate(left), np.concatenate(right)


def _pair_superoperator(out_rows, out_cols, in_rows, in_cols, values, dout, din):
    """Oracle: the dense build the entry lists replaced, kept literally."""
    mat = np.zeros((dout * dout, din * din), dtype=complex)
    mat[out_rows + out_cols * dout, in_rows + in_cols * din] = values
    return mat


def _clone_oracle(d, n, k):
    din, dout = sym_dim(d, n), sym_dim(d, n + k)
    w, a, b, amp = _type_split(d, n, k)
    i, j = _pairs_sharing(b)
    c = din / dout
    return _pair_superoperator(w[i], w[j], a[i], a[j], c * amp[i] * amp[j], dout, din)


def _mp_oracle(d, n, k):
    din, dout = sym_dim(d, n), sym_dim(d, k)
    w, a, b, amp = _type_split(d, n, k)
    i, j = _pairs_sharing(w)
    c = din / sym_dim(d, n + k)
    return _pair_superoperator(b[j], b[i], a[i], a[j], c * amp[i] * amp[j], dout, din)


def _trace_oracle(d, n, k):
    din, dout = sym_dim(d, n), sym_dim(d, k)
    w, a, b, amp = _type_split(d, k, n - k)
    i, j = _pairs_sharing(b)
    return _pair_superoperator(a[i], a[j], w[i], w[j], amp[i] * amp[j], dout, din)


def _type_split_by_dict(d, p, q):
    """Oracle: the split with each summed type looked up in a dict over enumerate_types."""
    wholes = enumerate_types(d, p + q)
    col_of = {t.entries: c for c, t in enumerate(wholes)}
    m_whole = [multinomial(p + q, t) for t in wholes]
    firsts = [(t.entries, multinomial(p, t)) for t in enumerate_types(d, p)]
    seconds = [(t.entries, multinomial(q, t)) for t in enumerate_types(d, q)]
    w_idx, a_idx, b_idx, amp = [], [], [], []
    for ia, (a, ma) in enumerate(firsts):
        for ib, (b, mb) in enumerate(seconds):
            col = col_of[tuple(x + y for x, y in zip(a, b))]
            w_idx.append(col)
            a_idx.append(ia)
            b_idx.append(ib)
            amp.append(sqrt(ma * mb / m_whole[col]))
    return np.array(w_idx), np.array(a_idx), np.array(b_idx), np.array(amp)


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("p", range(6))
@pytest.mark.parametrize("q", range(6))
def test_type_split_matches_dict_lookup(d, p, q):
    for got, want in zip(_type_split(d, p, q), _type_split_by_dict(d, p, q)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("d,n,k", SMALL)
def test_sym_channels_match_pair_superoperator_build(d, n, k):
    # the dense cloner at (4,4,5) alone is 950 MiB; compare it, and the
    # other two cloners of n = 4 past 2^24 entries, through the residual
    # tests only
    if (sym_dim(d, n + k) * sym_dim(d, n)) ** 2 <= 2**24:
        assert np.array_equal(clone_channel_sym(d, n, k).matrix, _clone_oracle(d, n, k))
    assert np.array_equal(mp_channel_sym(d, n, k).matrix, _mp_oracle(d, n, k))
    if k <= n:
        assert np.array_equal(trace_channel_sym(d, n, k).matrix, _trace_oracle(d, n, k))


@pytest.mark.parametrize("d,n,k", SMALL)
def test_chiribella_residual_matches_densified_sides(d, n, k):
    lhs, rhs = chiribella_sides(d, n, k)
    assert np.array_equal(lhs, mp_channel_sym(d, n, k).matrix)
    # the joined entry lists against the dense product of the same channels
    dense = np.zeros_like(rhs)
    for s in range(min(n, k) + 1):
        term = compose(trace_channel_sym(d, n, s), clone_channel_sym(d, s, k - s))
        dense += float(mp_clone_coefficient(d, n, k, s)) * term.matrix
    assert np.abs(rhs - dense).max() <= 1e-13
    residual = verify_chiribella(d, n, k)
    assert abs(residual - np.linalg.norm(lhs - rhs)) <= 1e-13
    assert residual <= 1e-10


@pytest.mark.parametrize("d,n,k", [(2, 2, 1), (2, 3, 2), (2, 4, 2), (3, 2, 1), (3, 2, 2), (4, 2, 1)])
def test_full_residual_matches_literal_dense_sum(d, n, k):
    # the full oracle keeps its dense sum: one buffer, terms added in s order
    lhs = mp_channel(d, n, k).matrix
    rhs = np.zeros(lhs.shape, dtype=lhs.dtype)
    for s in range(min(n, k) + 1):
        rhs += float(mp_clone_coefficient(d, n, k, s)) * compose(trace_channel(d, n, s), clone_channel(d, s, k - s)).matrix
    proj = projection_superoperator(d, n).matrix
    assert verify_chiribella(d, n, k, "full") == float(np.linalg.norm(lhs @ proj - rhs @ proj))


@pytest.mark.parametrize("d,n,k", [dnk for dnk in SMALL if 1 <= dnk[1] and dnk[2] <= dnk[1]])
def test_exp_definetti_residual_matches_densified_sides(d, n, k):
    lhs, rhs = exp_definetti_sides(d, n, k)
    assert np.array_equal(lhs, trace_channel_sym(d, n, k).matrix)
    dense = np.zeros_like(rhs)
    for s, xs in enumerate(exp_definetti_full_coefficients(d, n, k)):
        term = compose(mp_channel_sym(d, n, k - s), clone_channel_sym(d, k - s, s))
        dense += float(xs) * term.matrix
    assert np.abs(rhs - dense).max() <= 1e-13
    residual = verify_exp_definetti(d, n, k)
    assert abs(residual - np.linalg.norm(lhs - rhs)) <= 1e-13
    assert residual <= 1e-10


@pytest.mark.parametrize("d,k,message", [(1, 0, "n must be positive"), (3, 0, "n must be positive"),
                                         (2, 1, "need 0 <= k <= n"), (4, 3, "need 0 <= k <= n")])
def test_exp_definetti_at_n0_raises(d, k, message):
    with pytest.raises(ValueError, match=message):
        verify_exp_definetti(d, 0, k)


@pytest.mark.parametrize("d,n,k", [(2, 3, 4), (3, 2, 5)])
def test_exp_definetti_k_above_n_raises(d, n, k):
    with pytest.raises(ValueError, match="need 0 <= k <= n"):
        verify_exp_definetti(d, n, k)


def test_chiribella_beyond_dense_reach_stays_small():
    # one dense side of (4,6,6) has 84^4 complex entries, 760 MiB
    tracemalloc.start()
    try:
        residual = verify_chiribella(4, 6, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual <= 1e-10
    assert peak < 128 * 2**20


def test_exp_definetti_beyond_dense_reach():
    assert verify_exp_definetti(4, 8, 4) <= 1e-10


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "chiribella", "--d", "4", "--n", "6", "--k", "6"],
        ["verify", "expdefinetti", "--d", "4", "--n", "8", "--k", "4"],
    ],
)
def test_cli_verifies_beyond_dense_reach(capsys, argv):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["verdict"] == "pass"


def test_chiribella_sums_one_term_at_a_time():
    # holding every composed term at once peaked near 89 MiB at (3, 10, 10)
    tracemalloc.start()
    try:
        residual = verify_chiribella(3, 10, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual <= 1e-10
    assert peak < 48 * 2**20


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("k", range(6))
def test_clone_entries_are_the_scaled_trace_entries_swapped(d, n, k):
    # Werner's cloner is c times the adjoint of tr_{n+k -> n} on symmetric inputs
    out, inp, values = _clone_entries(d, n, k)
    tr_out, tr_in, tr_values = _trace_entries(d, n + k, n)
    assert np.array_equal(out, tr_in) and np.array_equal(inp, tr_out)
    c = sym_dim(d, n) / sym_dim(d, n + k)
    assert np.allclose(values, c * tr_values, rtol=1e-15, atol=0)


@pytest.mark.parametrize("d,n,k", [(d, n, k) for d in range(1, 4) for n in range(4) for k in range(4)
                                   if d ** (n + k) <= 27])
def test_full_cloner_is_scaled_projected_trace_adjoint(d, n, k):
    # c Pi (rho (x) I^k) Pi: the adjoint of the partial trace, then the projection
    c = sym_dim(d, n) / sym_dim(d, n + k)
    adjoint = projection_superoperator(d, n + k).matrix @ trace_channel(d, n + k, n).matrix.T
    assert np.abs(clone_channel(d, n, k).matrix - c * adjoint).max() <= 1e-14


def test_clone_entries_refuse_negative_k():
    with pytest.raises(ValueError, match="need k >= 0"):
        _clone_entries(2, 3, -1)
    with pytest.raises(ValueError, match="need k >= 0"):
        clone_channel_sym(2, 3, -4)
