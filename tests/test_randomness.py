"""Sampler determinism and Monte Carlo agreement with exact moment formulas.

Statistical assertions use five empirical standard errors; per-check false
alarm probability is below 1e-6.
"""

import numpy as np
import pytest

from symsub.randomness import (
    CHUNK_BYTES,
    RngStream,
    complex_gaussian_moment_operator,
    gaussian_batch,
    gaussian_vector,
    haar_moment_operator,
    haar_state,
    haar_state_batch,
    haar_state_chunks,
    haar_unitary,
    mc_projector_moment,
    mc_real_unit_moment,
    mc_tensor_power_mean,
    projector_moment_exact,
    random_projector,
    real_gaussian_moment_operator,
    real_unit_batch,
    real_unit_moment_operator,
)
from symsub.tensorspace import frobenius_distance

N = 100_000


def test_stream_determinism():
    a = mc_projector_moment(4, 1, 2, 20_000, RngStream(seed=9, stream_id=2))
    b = mc_projector_moment(4, 1, 2, 20_000, RngStream(seed=9, stream_id=2))
    assert a == b
    c = mc_projector_moment(4, 1, 2, 20_000, RngStream(seed=9, stream_id=3))
    assert a.mean != c.mean


def test_haar_state_norm_and_scalar_case():
    psi = haar_state(6, RngStream(0))
    assert abs(np.linalg.norm(psi.entries) - 1) <= 1e-14
    scalar = haar_state(1, RngStream(0))
    assert abs(abs(scalar.entries[0, 0]) - 1) <= 1e-14


def test_haar_state_first_moment():
    d = 4
    batch = haar_state_batch(d, RngStream(1).generator(), N)
    mean = batch.conj().T @ batch / N
    assert np.linalg.norm(mean - np.eye(d) / d) <= 5 / np.sqrt(N)


def test_haar_unitary_unitarity_and_phase():
    u = haar_unitary(5, RngStream(2)).entries
    assert np.abs(u.conj().T @ u - np.eye(5)).max() <= 1e-12
    u1 = haar_unitary(1, RngStream(3)).entries
    assert abs(abs(u1[0, 0]) - 1) <= 1e-14


def test_haar_unitary_first_moment_twirl():
    d = 3
    x = np.diag([1.0, 2.0, 3.0])
    trials = N
    gen = RngStream(4).generator()
    z = (gen.standard_normal((trials, d, d)) + 1j * gen.standard_normal((trials, d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    u = q * (diag / np.abs(diag))[:, None, :]
    mean = np.einsum("mij,jk,mlk->il", u, x, u.conj()) / trials
    target = np.trace(x) * np.eye(d) / d
    assert np.linalg.norm(mean - target) <= 5 * np.linalg.norm(x) / np.sqrt(trials)


def test_gaussian_normalization():
    for field in ("real", "complex"):
        v = gaussian_batch(5, field, RngStream(5).generator(), N)
        norms = np.sum(np.abs(v) ** 2, axis=1)
        assert abs(norms.mean() - 1) <= 5 * norms.std() / np.sqrt(N)


def test_gaussian_fourth_norm_moment():
    # E |x|^4 = (1 + 1/d) for complex Gaussians normalized to E<v|v> = 1
    d = 4
    v = gaussian_batch(d, "complex", RngStream(6).generator(), 2 * N)
    x4 = np.linalg.norm(v, axis=1) ** 4
    assert abs(x4.mean() - (1 + 1 / d)) <= 5 * x4.std() / np.sqrt(2 * N)


def test_real_gaussian_scalar_second_moment():
    v = gaussian_batch(1, "real", RngStream(7).generator(), N)
    sq = v[:, 0] ** 2
    assert abs(sq.mean() - 1.0) <= 5 * sq.std() / np.sqrt(N)


def test_gaussian_vector_rejects_unknown_field():
    with pytest.raises(ValueError):
        gaussian_vector(3, "quaternion", RngStream(0))


def test_random_projector_properties():
    p = random_projector(7, 3, RngStream(8)).entries
    assert np.abs(p - p.conj().T).max() <= 1e-12
    assert np.abs(p @ p - p).max() <= 1e-12
    assert abs(np.trace(p).real - 3) <= 1e-12
    full = random_projector(4, 4, RngStream(9)).entries
    assert np.abs(full - np.eye(4)).max() <= 1e-12
    with pytest.raises(ValueError):
        random_projector(4, 5, RngStream(0))


def test_rank_one_projector_matches_haar_state_moment():
    # tr(Pi phi)^n for rank-1 Pi has the same law as |<psi|0>|^2n
    est = mc_projector_moment(4, 1, 2, N, RngStream(10))
    exact = float(projector_moment_exact(4, 1, 2))
    assert abs(est.mean - exact) <= 5 * est.stderr


def test_projector_moment_endpoints():
    assert projector_moment_exact(6, 6, 3) == 1
    assert float(projector_moment_exact(5, 2, 1)) == pytest.approx(2 / 5)
    est = mc_projector_moment(5, 2, 1, 50_000, RngStream(11))
    assert abs(est.mean - 0.4) <= 5 * est.stderr


def test_mean_power_haar():
    est = mc_tensor_power_mean(lambda g, m: haar_state_batch(2, g, m), 2, N, RngStream(12))
    exact = haar_moment_operator(2, 2)
    r = frobenius_distance(est.mean, exact)
    assert r <= 5 * est.frob_stderr
    assert r <= 0.02


def test_mean_power_complex_gaussian():
    est = mc_tensor_power_mean(lambda g, m: gaussian_batch(2, "complex", g, m), 2, N, RngStream(13))
    exact = complex_gaussian_moment_operator(2, 2)
    r = frobenius_distance(est.mean, exact)
    assert r <= 5 * est.frob_stderr
    assert r <= 0.02


def test_mean_power_real_gaussian():
    est = mc_tensor_power_mean(lambda g, m: gaussian_batch(3, "real", g, m), 2, N, RngStream(14))
    exact = real_gaussian_moment_operator(3, 2)
    r = frobenius_distance(est.mean, exact)
    assert r <= 5 * est.frob_stderr
    assert r <= 0.02


def test_real_unit_moment():
    est = mc_real_unit_moment(3, 2, N, RngStream(15))
    exact = real_unit_moment_operator(3, 2)
    r = frobenius_distance(est.mean, exact)
    assert r <= 5 * est.frob_stderr
    assert r <= 0.02


def test_real_unit_first_moment_is_normalized_identity():
    est = mc_real_unit_moment(3, 1, 50_000, RngStream(16))
    assert frobenius_distance(est.mean, np.eye(3) / 3) <= 5 * est.frob_stderr


def test_real_unit_moment_d1():
    est = mc_real_unit_moment(1, 2, 1000, RngStream(17))
    assert abs(est.mean.entries[0, 0] - 1) <= 1e-14


def test_haar_moment_operator_normalization():
    op = haar_moment_operator(3, 2)
    assert abs(np.trace(op.entries).real - 1) <= 1e-12
    gauss = complex_gaussian_moment_operator(3, 2)
    assert abs(np.trace(gauss.entries).real - (1 + 1 / 3)) <= 1e-12


@pytest.mark.parametrize("d,count", [(1, 1), (2, 7), (16, 1024), (256, 300)])
def test_haar_state_batch_bit_identical_to_sum_expression(d, count):
    # the in-place builder must reproduce (x + 1j*y) / norm bit for bit, so
    # every seeded estimate and report stays unchanged
    gen = RngStream(31, d).generator()
    z = gen.standard_normal((count, d)) + 1j * gen.standard_normal((count, d))
    want = z / np.linalg.norm(z, axis=1, keepdims=True)
    got = haar_state_batch(d, RngStream(31, d).generator(), count)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_mean_power_at_n0_is_the_scalar_one():
    est = mc_tensor_power_mean(lambda g, m: haar_state_batch(3, g, m), 0, 100, RngStream(12))
    assert est.mean.row_dims == est.mean.col_dims == (1,)
    assert np.array_equal(est.mean.entries, np.ones((1, 1)))
    assert est.frob_stderr == 0.0
    assert frobenius_distance(est.mean, haar_moment_operator(3, 0)) == 0.0


@pytest.mark.parametrize("d", [1, 16, 1024, 16384])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_haar_state_chunks_bit_identical_to_batch(d, extra):
    # counts one row short of, at and past a whole number of chunks
    rows = max(1, CHUNK_BYTES // (16 * d))
    count = 2 * rows + extra
    want = haar_state_batch(d, RngStream(32, d).block_generator(0), count)
    starts, chunks = [], []
    for start, chunk in haar_state_chunks(d, RngStream(32, d).block_generator(0), count, np.empty((count, d))):
        assert len(chunk) <= rows
        starts.append(start)
        chunks.append(chunk.copy())
    assert starts == list(range(0, count, rows))
    got = np.concatenate(chunks)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_haar_state_chunks_fill_a_larger_real_buffer():
    real = np.full((50, 9), np.nan)
    got = np.concatenate([c.copy() for _, c in haar_state_chunks(9, RngStream(33).generator(), 40, real)])
    assert got.tobytes() == haar_state_batch(9, RngStream(33).generator(), 40).tobytes()
    assert np.isnan(real[40:]).all()


def _haar_sampler(gen, m):
    return haar_state_batch(2, gen, m)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: mc_projector_moment(4, 1, 2, 0, RngStream(0)), "total must be positive"),
        (lambda: mc_projector_moment(4, 1, 2, -5, RngStream(0)), "total must be positive"),
        (lambda: mc_projector_moment(4, 1, -1, 100, RngStream(0)), "n must be non-negative"),
        (lambda: mc_tensor_power_mean(_haar_sampler, 2, 0, RngStream(0)), "total must be positive"),
        (lambda: mc_tensor_power_mean(_haar_sampler, -1, 100, RngStream(0)), "n must be non-negative"),
        (lambda: mc_real_unit_moment(3, 2, 0, RngStream(0)), "total must be positive"),
    ],
)
def test_estimators_refuse_empty_runs_and_negative_powers(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# the tensor-power mean's standard error, against the per-entry formula
# ---------------------------------------------------------------------------

def _per_entry_mean_and_stderr(sampler, n, total, stream):
    """The per-entry estimator over the same blocks: a second table of
    E |x_a|^2 |x_b|^2, each entry's variance clipped at 0, then summed."""
    from symsub.randomness import _blocks
    from symsub.tensorspace import _tensor_power_rows

    dim = sampler(stream.block_generator(0), 1).shape[1] ** n
    s1 = np.zeros((dim, dim), dtype=complex)
    s2 = np.zeros((dim, dim))
    for block, size in _blocks(total):
        rows = _tensor_power_rows(sampler(stream.block_generator(block), size), n)
        s1 += rows.T @ rows.conj()
        abs_sq = np.abs(rows) ** 2
        s2 += np.einsum("ma,mb->ab", abs_sq, abs_sq)
    mean = s1 / total
    var = np.maximum(s2 / total - np.abs(mean) ** 2, 0.0)
    return mean, float(np.sqrt(var.sum() / total))


SAMPLERS = {
    "haar": haar_state_batch,
    "real-unit": real_unit_batch,
    "real-gaussian": lambda d, gen, m: gaussian_batch(d, "real", gen, m),
    "complex-gaussian": lambda d, gen, m: gaussian_batch(d, "complex", gen, m),
}


@pytest.mark.parametrize("kind", list(SAMPLERS))
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_frob_stderr_equals_the_per_entry_sum(kind, d, n):
    # sum_ab Var(x_a conj(x_b)) = E ||v||^(4n) - ||mean||_F^2; 1500 draws make two blocks
    sampler = lambda gen, m: SAMPLERS[kind](d, gen, m)  # noqa: E731
    stream = RngStream(61, 10 * d + n)
    est = mc_tensor_power_mean(sampler, n, 1500, stream)
    mean, want = _per_entry_mean_and_stderr(sampler, n, 1500, stream)
    assert est.mean.entries.tobytes() == mean.tobytes()
    if n == 0:
        assert est.frob_stderr == want == 0.0
    elif d == 1 and kind in ("haar", "real-unit"):
        # |x| = 1: the exact variance is 0, and both sums are rounding noise
        assert est.frob_stderr <= 1e-9 and want <= 1e-9
    else:
        assert want > 0
        assert est.frob_stderr == pytest.approx(want, rel=1e-13, abs=0)


def test_haar_moment_operator_writes_its_projector_once():
    import tracemalloc

    tracemalloc.start()
    try:
        op = haar_moment_operator(2, 10)  # 8 MiB of float64 at side 1024
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.entries.shape == (1024, 1024)
    assert peak < 10 * 2**20


@pytest.mark.parametrize("field", ["real", "complex"])
def test_gaussian_vector_is_the_first_row_of_a_batch(field):
    v = gaussian_vector(3, field, RngStream(62))
    assert v.row_dims == (3,) and v.col_dims == (1,)
    want = gaussian_batch(3, field, RngStream(62).generator(), 1)[0]
    assert np.array_equal(v.entries[:, 0], want)
