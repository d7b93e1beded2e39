"""The restart-batched product-overlap ascent against the per-restart form it
replaces, and the projector moment's Beta-law draw against Haar states."""

import numpy as np
import pytest

from symsub.concentration import MultiPartition, nu_max
from symsub.randomness import (
    RngStream,
    _blocks,
    haar_state_batch,
    mc_projector_moment,
    projector_moment_exact,
    random_projector,
)
from symsub.tensorspace import Operator


def _phase_fix(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    for entry in v:
        if abs(entry) > tol:
            return v * (entry.conjugate() / abs(entry))
    return v


def _ascent_per_restart(op, part, restarts, iters, stream, tol=1e-12):
    """The ascent one restart at a time, planning every contraction afresh."""
    dims = part.dims
    k = part.parties
    tensor = op.entries.reshape(dims + dims)
    gen = stream.generator()

    row_letters = [chr(ord("a") + i) for i in range(k)]
    col_letters = [chr(ord("A") + i) for i in range(k)]
    base = "".join(row_letters) + "".join(col_letters)

    def environment(vectors, j):
        operands = [tensor]
        script = [base]
        for i in range(k):
            if i == j:
                continue
            operands.append(vectors[i].conj())
            script.append(row_letters[i])
            operands.append(vectors[i])
            script.append(col_letters[i])
        subscript = ",".join(script) + "->" + row_letters[j] + col_letters[j]
        return np.einsum(subscript, *operands, optimize=True)

    best = -np.inf
    for _ in range(max(1, restarts)):
        vectors = []
        for d in dims:
            v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
            vectors.append(v / np.linalg.norm(v))
        value = -np.inf
        for _ in range(iters):
            previous = value
            for j in range(k):
                env = environment(vectors, j)
                evals, evecs = np.linalg.eigh((env + env.conj().T) / 2.0)
                vectors[j] = _phase_fix(evecs[:, -1])
                value = float(evals[-1])
            if value - previous <= tol:
                break
        best = max(best, value)
    return best


CASES = [((2, 3), 2), ((2, 2, 2), 3), ((3, 3), 4), ((2, 4), 3)]


def _projector(dims, rank, seed):
    part = MultiPartition(dims)
    proj = random_projector(part.total, rank, RngStream(seed, 7))
    return Operator(proj.entries, dims, dims), part


@pytest.mark.parametrize("restarts", [1, 8, 32])
@pytest.mark.parametrize("dims,rank", CASES)
def test_batched_ascent_matches_per_restart(dims, rank, restarts):
    for seed in range(2):
        op, part = _projector(dims, rank, 600 + seed)
        stream = RngStream(700 + seed)
        want = _ascent_per_restart(op, part, restarts, 200, stream)
        got = nu_max(op, part, restarts=restarts, stream=stream)
        assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("dims,rank", CASES)
def test_batched_ascent_single_sweep(dims, rank):
    op, part = _projector(dims, rank, 610)
    stream = RngStream(710)
    want = _ascent_per_restart(op, part, 8, 1, stream)
    got = nu_max(op, part, restarts=8, iters=1, stream=stream)
    assert abs(got - want) <= 1e-12


def _moment_from_haar_states(dim, rank, n, total, stream):
    acc1 = 0.0
    acc2 = 0.0
    for block, size in _blocks(total):
        psi = haar_state_batch(dim, stream.block_generator(block), size)
        powered = np.sum(np.abs(psi[:, :rank]) ** 2, axis=1) ** n
        acc1 += float(powered.sum())
        acc2 += float((powered**2).sum())
    mean = acc1 / total
    return mean, float(np.sqrt(max(acc2 / total - mean**2, 0.0) / total))


def _two_sample_z(dim, rank, n, total, est, mean, var):
    """z scores of the differences of two independent estimates' means and
    sample variances of X = overlap^n, each difference over its standard
    deviation from the exact raw moments E X^j = projector_moment_exact(dim, rank, j n)."""
    m1, m2, m3, m4 = (float(projector_moment_exact(dim, rank, j * n)) for j in (1, 2, 3, 4))
    sigma2 = m2 - m1**2
    mu4 = m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4
    z_mean = (est.mean - mean) / np.sqrt(2 * sigma2 / total)
    z_var = (est.stderr**2 * total - var) / np.sqrt(2 * (mu4 - sigma2**2) / total)
    return z_mean, z_var


@pytest.mark.parametrize("dim,rank,n", [(64, 8, 3), (4, 1, 2), (8, 2, 2)])
def test_projector_moment_matches_haar_states(dim, rank, n):
    # the estimator draws each overlap from its Beta(rank, dim - rank) law, so it
    # matches the Haar-state loop in law, not in its numbers: a two-sample test
    # on independent streams at |z| <= 5, a false-alarm rate of about 6e-7 a
    # statistic (normal approximation), 1e-5 over the 18 here
    for seed in range(3):
        mean, stderr = _moment_from_haar_states(dim, rank, n, 5000, RngStream(seed, 2))
        est = mc_projector_moment(dim, rank, n, 5000, RngStream(seed, 1))
        assert est.samples == 5000
        z_mean, z_var = _two_sample_z(dim, rank, n, 5000, est, mean, stderr**2 * 5000)
        assert abs(z_mean) <= 5
        assert abs(z_var) <= 5
