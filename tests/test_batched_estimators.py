"""The restart-batched product-overlap ascent and the real-arithmetic projector
moment against the per-restart and complex-array forms they replace."""

import numpy as np
import pytest

from symsub.concentration import MultiPartition, nu_max
from symsub.randomness import (
    RngStream,
    _blocks,
    haar_state_batch,
    mc_projector_moment,
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


@pytest.mark.parametrize("dim,rank,n", [(64, 8, 3), (4, 1, 2), (8, 2, 2)])
def test_projector_moment_matches_haar_states(dim, rank, n):
    # the complex path rounds each overlap its own way (a fused multiply-add
    # in the norm, a reciprocal in the division), so equality is to rounding
    for seed in range(3):
        stream = RngStream(seed, 1)
        mean, stderr = _moment_from_haar_states(dim, rank, n, 5000, stream)
        est = mc_projector_moment(dim, rank, n, 5000, stream)
        assert est.samples == 5000
        assert abs(est.mean - mean) <= 1e-14 * mean
        assert abs(est.stderr - stderr) <= 1e-12 * stderr
