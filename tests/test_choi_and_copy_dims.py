"""The Choi matrix as an axis shuffle of the superoperator matrix, against the
loop over din^2 Kronecker products it replaces, and the dims of the empty
tensor power n = 0.

As in ``test_index_layout.py``, the oracle is the earlier hand-written form and
the library must agree with it exactly (``np.array_equal``).
"""

import numpy as np
import pytest

from symsub.channels import (
    choi_matrix,
    clone_channel_sym,
    kraus_superoperator,
    min_choi_eigenvalue,
    mp_channel_sym,
    trace_channel_sym,
    unvec,
)
from symsub.randomness import real_gaussian_moment_operator, real_unit_moment_operator
from symsub.tensorspace import (
    Matching,
    Permutation,
    matching_operator,
    permutation_operator,
    sym_projector_enumerated,
    sym_projector_group,
    type_isometry,
)


def _choi_by_kron_loop(s):
    """sum_{pq} T(E_pq) (x) E_pq, one Kronecker product per matrix unit."""
    din, dout = s.in_dim, s.out_dim
    choi = np.zeros((dout * din, dout * din), dtype=complex)
    for p in range(din):
        for q in range(din):
            block = unvec(s.matrix[:, p + q * din], (dout, dout))
            unit = np.zeros((din, din))
            unit[p, q] = 1.0
            choi += np.kron(block, unit)
    return choi


def _kraus_2_to_3():
    gen = np.random.default_rng(9)
    k = gen.standard_normal((3, 2)) + 1j * gen.standard_normal((3, 2))
    return kraus_superoperator([k], (2,), (3,))


CHOI_CASES = [(2, 2, 1), (2, 3, 2), (3, 2, 2), (2, 1, 3)]
CHANNELS = [
    pytest.param(clone_channel_sym, id="clone"),
    pytest.param(mp_channel_sym, id="mp"),
    pytest.param(lambda d, n, k: trace_channel_sym(d, n + k, n), id="trace"),
]


@pytest.mark.parametrize("d,n,k", CHOI_CASES)
@pytest.mark.parametrize("build", CHANNELS)
def test_choi_matches_kron_loop_on_sym_channels(build, d, n, k):
    s = build(d, n, k)
    assert np.array_equal(choi_matrix(s), _choi_by_kron_loop(s))


def test_choi_matches_kron_loop_on_kraus_map():
    s = _kraus_2_to_3()
    choi = choi_matrix(s)
    assert choi.shape == (6, 6) and choi.dtype == complex
    assert np.array_equal(choi, _choi_by_kron_loop(s))
    assert min_choi_eigenvalue(s) >= -1e-12  # a Kraus map is completely positive


# ---------------------------------------------------------------------------
# n = 0: the one-dimensional empty tensor power
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
def test_empty_permutation_and_matching_operators_are_one_by_one(d):
    for op in (permutation_operator(d, Permutation(())), matching_operator(d, 0, Matching(()))):
        assert op.entries.shape == (1, 1)
        assert op.row_dims == op.col_dims == (1,)
        assert op.entries[0, 0] == 1.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_n0_builders_share_the_empty_dims(d):
    for op in (
        sym_projector_group(d, 0),
        sym_projector_enumerated(d, 0),
        real_gaussian_moment_operator(d, 0),
        real_unit_moment_operator(d, 0),
    ):
        assert op.row_dims == op.col_dims == (1,)
        assert np.array_equal(op.entries, np.ones((1, 1)))
    iso = type_isometry(d, 0)
    assert iso.row_dims == iso.col_dims == (1,)
