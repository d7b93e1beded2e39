"""Seeded sampling of Haar states, Haar unitaries, Gaussian vectors and random
projectors, plus Monte Carlo estimators that cross-check the exact moment
formulas.

Reproducibility contract: an estimator consumes samples in blocks of
``BLOCK_SIZE``; block b of a run draws from the generator seeded by
``SeedSequence(entropy=seed, spawn_key=(stream_id, b))``.  Identical
(seed, stream_id) therefore reproduce bit-identical estimates, and blocks can
be farmed out in parallel as long as the reduction keeps block order.

Draw order of a block of Haar states: all of the block's real parts first, row
by row, then its imaginary parts in the same row order.  ``Generator`` fills
arrays element by element, so ``haar_state_chunks`` can draw the imaginary
parts one chunk of rows at a time and still reproduce ``haar_state_batch``
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator

import numpy as np

from .exactcomb import real_moment_ratio, sym_dim
from .guards import guard_dimension
from .tensorspace import (
    Operator,
    _tensor_power_rows,
    copy_dims,
    enumerate_matchings,
    matching_operator,
    sym_projector_group,
)

BLOCK_SIZE = 1024
# bytes of complex rows in one chunk of haar_state_chunks; drawing and
# normalizing a chunk holds about 3.5 times this at its peak
CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )

    def block_generator(self, block: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, block))
        )

    def split(self, index: int) -> "RngStream":
        """Independent substream; use distinct indices for parallel work."""
        return RngStream(seed=self.seed, stream_id=(self.stream_id << 16) ^ (index + 1))


def _blocks(total: int) -> Iterator[tuple[int, int]]:
    block = 0
    done = 0
    while done < total:
        size = min(BLOCK_SIZE, total - done)
        yield block, size
        block += 1
        done += size


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def haar_state_batch(d: int, gen: np.random.Generator, count: int) -> np.ndarray:
    """(count, d) array of Haar-random unit vectors (normalized complex Gaussians).

    The draws go straight into one complex array and are normalized in place;
    the result is bit-identical to ``(x + 1j*y) / norm`` on the same draws.
    """
    z = np.empty((count, d), dtype=complex)
    z.real = gen.standard_normal((count, d))
    z.imag = gen.standard_normal((count, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def haar_state_chunks(
    d: int, gen: np.random.Generator, count: int, real: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """The rows of ``haar_state_batch(d, gen, count)``, bit for bit, as
    ``(start, rows)`` chunks of at most ``CHUNK_BYTES`` bytes each (one row
    when a row is larger).

    All ``count`` real parts are drawn first, into the float buffer ``real`` of
    at least ``count`` rows of ``d``; then each chunk's imaginary parts.  The
    yielded rows live in one buffer that the next chunk overwrites.
    """
    rows = max(1, CHUNK_BYTES // (16 * d))
    real = gen.standard_normal(out=real[:count])
    imag = np.empty((min(rows, count), d))
    z = np.empty(imag.shape, dtype=complex)
    for start in range(0, count, rows):
        m = min(rows, count - start)
        gen.standard_normal(out=imag[:m])
        chunk = z[:m]
        chunk.real = real[start : start + m]
        chunk.imag = imag[:m]
        chunk /= np.linalg.norm(chunk, axis=1, keepdims=True)
        yield start, chunk


def gaussian_batch(d: int, field: str, gen: np.random.Generator, count: int) -> np.ndarray:
    """(count, d) i.i.d. Gaussian vectors normalized so E <v|v> = 1."""
    if field == "complex":
        z = gen.standard_normal((count, d)) + 1j * gen.standard_normal((count, d))
        return z / np.sqrt(2 * d)
    if field == "real":
        return gen.standard_normal((count, d)) / np.sqrt(d)
    raise ValueError("field must be 'real' or 'complex'")


def real_unit_batch(d: int, gen: np.random.Generator, count: int) -> np.ndarray:
    z = gen.standard_normal((count, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def haar_state(d: int, stream: RngStream) -> Operator:
    """A single Haar-random unit column vector."""
    if d < 1:
        raise ValueError("d must be positive")
    v = haar_state_batch(d, stream.generator(), 1)[0]
    return Operator(v.reshape(d, 1), (d,), (1,))


def gaussian_vector(d: int, field: str, stream: RngStream) -> Operator:
    v = gaussian_batch(d, field, stream.generator(), 1)[0]
    return Operator(v.reshape(d, 1), (d,), (1,))


def haar_unitary(d: int, stream: RngStream) -> Operator:
    """Haar-random unitary: QR of a Ginibre matrix with the R-diagonal phases
    divided out (without the phase fix the factorization is not Haar)."""
    if d < 1:
        raise ValueError("d must be positive")
    gen = stream.generator()
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return Operator(q * phases, (d,), (d,))


def random_projector(dim: int, rank: int, stream: RngStream) -> Operator:
    """U^dag Pi_0 U for Haar U and Pi_0 the projector on the first ``rank`` axes."""
    if not 1 <= rank <= dim:
        raise ValueError("need 1 <= rank <= dim")
    u = haar_unitary(dim, stream).entries
    mat = u.conj().T[:, :rank] @ u[:rank, :]
    return Operator(mat, (dim,), (dim,))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixEstimate:
    """Empirical mean matrix with an aggregate (Frobenius) standard error."""

    mean: Operator
    frob_stderr: float
    samples: int


@dataclass(frozen=True)
class ScalarEstimate:
    mean: float
    stderr: float
    samples: int


def _check_counts(n: int, total: int) -> None:
    if n < 0:
        raise ValueError("n must be non-negative")
    if total < 1:
        raise ValueError("total must be positive")


def mc_tensor_power_mean(
    sampler: Callable[[np.random.Generator, int], np.ndarray],
    n: int,
    total: int,
    stream: RngStream,
) -> MatrixEstimate:
    """Empirical mean of |v><v|^(x n) over ``total`` draws from ``sampler``.

    sampler(gen, m) must return an (m, d) array of vectors.
    """
    _check_counts(n, total)
    first = sampler(stream.block_generator(0), 1)
    d = first.shape[1]
    dim = d**n
    guard_dimension(dim)
    s1 = np.zeros((dim, dim), dtype=complex)
    s2 = np.zeros((dim, dim))
    for block, size in _blocks(total):
        vectors = sampler(stream.block_generator(block), size)
        rows = _tensor_power_rows(vectors, n)
        s1 += rows.T @ rows.conj()
        abs_sq = np.abs(rows) ** 2
        s2 += np.einsum("ma,mb->ab", abs_sq, abs_sq)
    mean = s1 / total
    var = np.maximum(s2 / total - np.abs(mean) ** 2, 0.0)
    stderr = float(np.sqrt(var.sum() / total))
    return MatrixEstimate(Operator(mean, copy_dims(d, n), copy_dims(d, n)), stderr, total)


def mc_projector_moment(dim: int, rank: int, n: int, total: int, stream: RngStream) -> ScalarEstimate:
    """Empirical mean of (tr Pi phi)^n over random rank-``rank`` projectors Pi,
    with phi the fixed pure state |0><0|.

    tr(U^dag Pi_0 U |0><0|) is the squared norm of the first ``rank`` entries of
    the first column of U, and that column is itself a Haar unit vector, so the
    draw reduces to Haar states.  With the draws of ``haar_state_batch``,
    x + iy, the overlap is sum_{j<rank} |z_j|^2 / sum_j |z_j|^2, computed in
    real arithmetic without forming the normalized complex vectors.
    """
    if not 1 <= rank <= dim:
        raise ValueError("need 1 <= rank <= dim")
    _check_counts(n, total)
    acc1 = 0.0
    acc2 = 0.0
    for block, size in _blocks(total):
        gen = stream.block_generator(block)
        sq = np.square(gen.standard_normal((size, dim)))
        sq += np.square(gen.standard_normal((size, dim)))
        overlap = sq[:, :rank].sum(axis=1) / sq.sum(axis=1)
        powered = overlap**n
        acc1 += float(powered.sum())
        acc2 += float((powered**2).sum())
    mean = acc1 / total
    var = max(acc2 / total - mean**2, 0.0)
    return ScalarEstimate(mean, float(np.sqrt(var / total)), total)


def mc_real_unit_moment(d: int, n: int, total: int, stream: RngStream) -> MatrixEstimate:
    """Empirical mean of gamma^(x n) over real unit vectors gamma."""
    return mc_tensor_power_mean(lambda gen, m: real_unit_batch(d, gen, m), n, total, stream)


# ---------------------------------------------------------------------------
# exact reference moments
# ---------------------------------------------------------------------------

def haar_moment_operator(d: int, n: int) -> Operator:
    """E phi^(x n) = Pi_sym / sym_dim(d, n) for Haar unit vectors."""
    proj = sym_projector_group(d, n)
    return Operator(proj.entries / sym_dim(d, n), proj.row_dims, proj.col_dims)


def complex_gaussian_moment_operator(d: int, n: int) -> Operator:
    """E v^(x n) = (n!/d^n) Pi_sym for complex Gaussians with E vv^dag = I/d."""
    proj = sym_projector_group(d, n)
    scale = factorial(n) / d**n
    return Operator(proj.entries * scale, proj.row_dims, proj.col_dims)


def _matching_sum(d: int, n: int) -> np.ndarray:
    """sum over perfect matchings M of [2n] of sigma_M, as a dense matrix."""
    guard_dimension(d**n)
    acc = None
    for matching in enumerate_matchings(n):
        term = matching_operator(d, n, matching).entries
        acc = term if acc is None else acc + term
    return acc


def real_gaussian_moment_operator(d: int, n: int) -> Operator:
    """E v^(x n) = d^-n sum over perfect matchings of sigma_M (Wick's theorem)."""
    return Operator(_matching_sum(d, n) / d**n, copy_dims(d, n), copy_dims(d, n))


def real_unit_moment_operator(d: int, n: int) -> Operator:
    """E gamma^(x n) for real unit vectors: the matching sum times the exact
    rational 1/(d(d+2)...(d+2n-2))."""
    return Operator(_matching_sum(d, n) * float(real_moment_ratio(d, n)), copy_dims(d, n), copy_dims(d, n))


def projector_moment_exact(dim: int, rank: int, n: int) -> Fraction:
    """E (tr Pi phi)^n = C(rank+n-1, n) / C(dim+n-1, n), independent of phi."""
    return Fraction(sym_dim(rank, n), sym_dim(dim, n))
