"""The vectorised multinomial table behind every type-basis builder.

``_multinomials`` must give the exact M(n, t) of ``exactcomb.multinomial``, as
Python ints, and every builder that reads it must produce the same bytes as the
one-type-at-a-time loops it replaced, which the byte-pin test keeps as its oracle.
"""

import numpy as np
import pytest

import symsub.channels as channels
from symsub.channels import _clone_entries, _mp_entries, _trace_entries
from symsub.exactcomb import enumerate_types, multinomial, sym_dim
from symsub.tensorspace import _multinomials, _string_types, _type_rank, sym_projector_group, type_isometry


def _table(d, n):
    return np.array([t.entries for t in enumerate_types(d, n)])


@pytest.mark.parametrize("d", range(1, 7))
def test_multinomials_match_exactcomb_row_by_row(d):
    for n in range(13):
        types = _table(d, n)
        got = _multinomials(types, n)
        assert got.shape == (len(types),)
        assert all(type(m) is int for m in got)
        assert got.tolist() == [multinomial(n, t) for t in enumerate_types(d, n)]


def test_multinomials_at_n0_and_d1():
    assert _multinomials(_table(4, 0), 0).tolist() == [1]
    assert _multinomials(_table(1, 9), 9).tolist() == [1]
    assert _multinomials(_table(1, 0), 0).tolist() == [1]


def test_multinomials_stay_exact_past_int64():
    types = _table(2, 70)
    got = _multinomials(types, 70)
    assert got.tolist() == [multinomial(70, t) for t in enumerate_types(2, 70)]
    assert max(got) == multinomial(70, (35, 35)) > 2**63


def _projector_by_loop(d, n):
    mat = np.zeros((d**n, d**n))
    cols, types = _string_types(d, n)
    for col, t in enumerate(types.tolist()):
        mat[np.ix_(cols == col, cols == col)] = 1 / multinomial(n, t)
    return mat


def _isometry_by_loop(d, n):
    mat = np.zeros((d**n, sym_dim(d, n)))
    cols, types = _string_types(d, n)
    norms = np.array([1.0 / np.sqrt(multinomial(n, t)) for t in types.tolist()])
    mat[np.arange(d**n), cols] = norms[cols]
    return mat


def _type_split_by_loop(d, p, q):
    firsts, seconds = enumerate_types(d, p), enumerate_types(d, q)
    a_idx = np.repeat(np.arange(len(firsts)), len(seconds))
    b_idx = np.tile(np.arange(len(seconds)), len(firsts))
    rows = np.array([t.entries for t in firsts])[a_idx] + np.array([t.entries for t in seconds])[b_idx]
    w_idx = _type_rank(rows, p + q)
    m_a, m_b, m_w = (np.array([multinomial(m, t) for t in types], dtype=object)
                     for m, types in ((p, firsts), (q, seconds), (p + q, enumerate_types(d, p + q))))
    amp = np.sqrt((m_a[a_idx] * m_b[b_idx] / m_w[w_idx]).astype(float))
    return w_idx, a_idx, b_idx, amp


def _channel_entry_bytes():
    """The entry lists the three *_sym channels scatter, which fix their matrices
    (whose dense form reaches 1.2 GB at (d, n, k) = (4, 5, 4))."""
    out = []
    for d in range(1, 5):
        for n in range(6):
            for k in range(5):
                lists = [_clone_entries(d, n, k), _mp_entries(d, n, k)]
                if k <= n:
                    lists.append(_trace_entries(d, n, k))
                out.extend(array.tobytes() for entries in lists for array in entries)
    return out


def test_builders_keep_the_bytes_of_the_scalar_loops(monkeypatch):
    for d in range(1, 5):
        for n in range(6):
            assert sym_projector_group(d, n).entries.tobytes() == _projector_by_loop(d, n).tobytes()
            assert type_isometry(d, n).entries.tobytes() == _isometry_by_loop(d, n).tobytes()
    assert type_isometry(64, 2).entries.tobytes() == _isometry_by_loop(64, 2).tobytes()
    vectorised = _channel_entry_bytes()
    monkeypatch.setattr(channels, "_type_split", _type_split_by_loop)
    assert _channel_entry_bytes() == vectorised
