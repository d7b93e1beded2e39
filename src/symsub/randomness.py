"""Seeded sampling of Haar states, Haar unitaries, Gaussian vectors and random
projectors, plus Monte Carlo estimators that cross-check the exact moment
formulas.

Reproducibility contract: an estimator consumes samples in blocks of
``BLOCK_SIZE``; block b of a run draws from the generator seeded by
``SeedSequence(entropy=seed, spawn_key=(stream_id, b))``.  Identical
(seed, stream_id) therefore reproduce bit-identical estimates.  The Schmidt
tail and the projector moment run their blocks through ``_block_sums``, on up
to two threads, and add the blocks' partial sums in block order, so the
results are bit-identical whatever the CPU count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import factorial
from operator import add
from typing import Callable, Iterator

import numpy as np

from .exactcomb import real_moment_ratio, sym_dim
from .guards import guard_dimension
from .tensorspace import Operator, _string_types, _tensor_power_rows, copy_dims, sym_projector_group

BLOCK_SIZE = 1024
# bytes of complex rows in one chunk buffer of _block_sums; drawing and reducing
# a chunk holds about 2 times this at its peak, buffer included
CHUNK_BYTES = 1 << 18
# split indices; index + 1 must fit the 16 bits split gives it
SPLIT_LIMIT = (1 << 16) - 1
# threads that run the blocks of _map_blocks: the calling thread and one helper
SLOTS = 2


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
        """Independent substream; use distinct indices for parallel work.

        The index lands in the low 16 bits of the new stream id, so indices
        outside ``0 <= index < SPLIT_LIMIT`` would reach another stream's
        substreams (``RngStream(7).split(65536)`` would be
        ``RngStream(7, 1).split(0)``) and are refused.  Accepted indices can
        still give a root stream's id: ``RngStream(7).split(0)`` is ``RngStream(7, 1)``.
        """
        if not 0 <= index < SPLIT_LIMIT:
            raise ValueError(f"split index must be in [0, {SPLIT_LIMIT}), got {index}")
        return RngStream(seed=self.seed, stream_id=(self.stream_id << 16) ^ (index + 1))


def _blocks(total: int) -> Iterator[tuple[int, int]]:
    for block, done in enumerate(range(0, total, BLOCK_SIZE)):
        yield block, min(BLOCK_SIZE, total - done)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _map_blocks(fn: Callable, total: int, scratch: Callable[[], object]) -> list:
    """``[fn(block, size, buffers) for block, size in _blocks(total)]``, in
    block order; ``_block_sums`` runs its blocks through it.

    With more than one block and more than one usable CPU, the calling thread
    runs the even blocks and one helper thread the odd ones; otherwise every
    block runs on the calling thread.  Every block a thread runs gets that
    thread's ``buffers``, made by ``scratch()`` on the calling thread, so the
    helper allocates only what ``fn`` itself makes and its malloc arena keeps
    little.  An exception in either thread stops both after their current
    block and re-raises here; a helper that cannot start leaves its blocks to
    the calling thread.

    ``SLOTS`` is two, not one per CPU, for two measured reasons: the helper
    raised peak RSS by about 1.1 MB on a monte-carlo benchmark sweep and by
    1.7 MB on ``symsub mc schmidt --d 16``, and the traced peak of
    ``experiment_schmidt_tail(32, 3000, ...)``, which a test holds to 2 MiB,
    read at most 1.54 MiB over 400 runs with two slots; each further slot
    would add its 0.51 MiB of scratch buffers at d = 32, and its transients.
    """
    blocks = list(_blocks(total))
    results: list = [None] * len(blocks)
    errors: list[BaseException] = []

    def run(first: int, step: int, buffers: object) -> None:
        try:
            for i in range(first, len(blocks), step):
                if errors:
                    return
                results[i] = fn(*blocks[i], buffers)
        except BaseException as exc:  # re-raised below, on the calling thread
            errors.append(exc)

    helper = None
    if len(blocks) > 1 and _usable_cpus() > 1:
        helper = threading.Thread(target=run, args=(1, SLOTS, scratch()), daemon=True)
        try:
            helper.start()
        except RuntimeError:  # no thread to be had
            helper = None
    try:
        run(0, 1 if helper is None else SLOTS, scratch())
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]
    return results


def _block_sums(width: int, total: int, stream: RngStream, per_row: Callable, sums: Callable) -> tuple:
    """Block-order totals of ``sums`` over the blocks of ``total`` rows of
    ``width`` complex entries, run through ``_map_blocks``.

    Each thread holds a chunk buffer of ``min(chunk_rows(width), BLOCK_SIZE,
    total)`` rows and a value buffer of ``min(BLOCK_SIZE, total)``.  Block b
    walks its rows a chunk at a time: ``per_row(gen, chunk)`` draws into the
    chunk from ``stream.block_generator(b)`` and returns one value a row, and
    ``sums`` reduces the block's values on its thread.  ``Generator`` fills
    arrays element by element, so the chunks draw the whole block's bits.
    """
    rows = min(chunk_rows(width), BLOCK_SIZE, total)

    def scratch() -> tuple[np.ndarray, np.ndarray]:
        return np.empty((rows, width), dtype=complex), np.empty(min(BLOCK_SIZE, total))

    def one_block(block: int, size: int, buffers: tuple[np.ndarray, np.ndarray]) -> tuple:
        chunk, values = buffers
        gen = stream.block_generator(block)
        for start in range(0, size, rows):
            part = chunk[: min(rows, size - start)]
            values[start : start + len(part)] = per_row(gen, part)
        return sums(values[:size])

    return tuple(reduce(add, column) for column in zip(*_map_blocks(one_block, total, scratch)))


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def haar_state_batch(d: int, gen: np.random.Generator, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """(count, d) array of Haar-random unit vectors (normalized complex Gaussians),
    each entry's real then imaginary part drawn straight into the complex array:
    bit for bit ``(x[..., 0] + 1j*x[..., 1]) / norm`` for ``x = gen.standard_normal((count, d, 2))``.

    Given ``out``, a C-contiguous complex buffer of at least ``count`` rows of
    ``d``, the states are drawn into its first ``count`` rows and those rows
    are returned; the rows past them are left untouched.
    """
    z = np.empty((count, d), dtype=complex) if out is None else out[:count]
    gen.standard_normal(out=z.view(float))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


def chunk_rows(d: int) -> int:
    """Rows of length ``d`` in ``CHUNK_BYTES`` of complex entries, at least one."""
    return max(1, CHUNK_BYTES // (16 * d))


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
    guard_dimension(d)
    gen = stream.generator()
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return Operator(q * phases, (d,), (d,))


def random_projector(dim: int, rank: int, stream: RngStream) -> Operator:
    """U^dag Pi_0 U for Haar U and Pi_0 the projector on the first ``rank`` axes;
    ``haar_unitary`` refuses a ``dim`` above the dense cap."""
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
    """Empirical mean matrix of samples x x^dag with its aggregate (Frobenius)
    standard error sqrt(sum_ab Var(x_a conj(x_b)) / samples)."""

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

    The mean is the one dense table.  With x = v^(x n), the variances sum to
    E ||v||^(4n) - ||E x x^dag||_F^2, each >= 0 by Cauchy-Schwarz, so one clip
    of the sum at 0 absorbs all rounding and keeps n = 0 at 0.0.

    The blocks run on the calling thread only: a call is tens of milliseconds
    of ``zgemm`` work, and running the five power means of the monte-carlo
    benchmark on a helper thread raised peak RSS by 0.7 MB and left 0.35 MB
    held after the thread ended (measured on a 2-CPU VM with OpenBLAS).  Nor
    did a helper save time: over 10 alternating monte-carlo runs the threaded
    power means read 1.179 s median against 1.170 s serial, faster in 5 of 10.
    """
    _check_counts(n, total)
    fourth = 0.0  # sum of ||v^(x n)||^4 = ||v||^(4n) over the draws
    for block, size in _blocks(total):
        vectors = sampler(stream.block_generator(block), size)
        if block == 0:  # d is read off the first block, so the cap is checked once it is drawn
            d = vectors.shape[1]
            guard_dimension(d**n)
            mean = np.zeros((d**n, d**n), dtype=complex)
        rows = _tensor_power_rows(vectors, n)
        mean += rows.T @ rows.conj()
        fourth += float(np.sum(np.linalg.norm(vectors, axis=1) ** (4 * n)))
    mean /= total
    var = max(fourth / total - np.vdot(mean, mean).real, 0.0)
    stderr = float(np.sqrt(var / total))
    return MatrixEstimate(Operator(mean, copy_dims(d, n), copy_dims(d, n)), stderr, total)


def mc_projector_moment(dim: int, rank: int, n: int, total: int, stream: RngStream) -> ScalarEstimate:
    """Empirical mean of (tr Pi phi)^n over random rank-``rank`` projectors Pi,
    with phi the fixed pure state |0><0|.

    tr(U^dag Pi_0 U |0><0|) is the squared norm of the first ``rank`` entries of
    the first column of U, and that column is itself a Haar unit vector, so the
    draw reduces to Haar states.  A row of ``haar_state_batch`` draws holds each
    entry's real and imaginary parts in turn, so the overlap is the sum of the
    row's first 2 rank squared draws over the sum of all 2 dim, in real
    arithmetic on the real view of each chunk of ``_block_sums``.
    """
    if not 1 <= rank <= dim:
        raise ValueError("need 1 <= rank <= dim")
    _check_counts(n, total)
    guard_dimension(dim, "sample rows")  # a chunk holds at least one row of dim

    def overlaps(gen: np.random.Generator, chunk: np.ndarray) -> np.ndarray:
        sq = chunk.view(float)
        np.square(gen.standard_normal(out=sq), out=sq)
        return sq[:, : 2 * rank].sum(axis=1) / sq.sum(axis=1)

    def moments(overlap: np.ndarray) -> tuple[float, float]:
        powered = overlap**n
        return float(powered.sum()), float((powered**2).sum())

    acc1, acc2 = _block_sums(dim, total, stream, overlaps, moments)
    mean = acc1 / total
    return ScalarEstimate(mean, float(np.sqrt(max(acc2 / total - mean**2, 0.0) / total)), total)


def mc_real_unit_moment(d: int, n: int, total: int, stream: RngStream) -> MatrixEstimate:
    """Empirical mean of gamma^(x n) over real unit vectors gamma."""
    return mc_tensor_power_mean(lambda gen, m: real_unit_batch(d, gen, m), n, total, stream)


# ---------------------------------------------------------------------------
# exact reference moments
# ---------------------------------------------------------------------------

def haar_moment_operator(d: int, n: int) -> Operator:
    """E phi^(x n) = Pi_sym / sym_dim(d, n) for Haar unit vectors."""
    proj = sym_projector_group(d, n)
    np.divide(proj.entries, sym_dim(d, n), out=proj.entries)
    return proj


def complex_gaussian_moment_operator(d: int, n: int) -> Operator:
    """E v^(x n) = (n!/d^n) Pi_sym for complex Gaussians with E vv^dag = I/d."""
    proj = sym_projector_group(d, n)
    np.multiply(proj.entries, factorial(n) / d**n, out=proj.entries)
    return proj


def _matching_sum(d: int, n: int) -> np.ndarray:
    """sum over perfect matchings M of [2n] of sigma_M, as a dense matrix, read off the string types.

    Strings x and y are compatible with (m_a - 1)!! matchings for each letter a
    that they hold m_a times between them, so entry [x, y] is
    R[t, t'] = prod_a (t_a + t'_a - 1)!! for their types t and t', and 0 when
    some t_a + t'_a is odd.  Every factor and partial product is an integer of
    at most (2n-1)!!, so the floats are the exact counts while that is below
    2^53 (n <= 15), as the enumerated sum's were.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    guard_dimension(d**n)
    mat = np.empty((d**n, d**n))  # first: numpy refuses an oversized side before d**n string types are read
    cols, types = _string_types(d, n)
    pairings = np.zeros(2 * n + 1)  # pairings[m] = (m - 1)!!, the perfect matchings of m slots
    pairings[::2] = np.cumprod(np.r_[1.0, np.arange(1, 2 * n, 2)])
    table = np.ones((len(types), len(types)))
    for c in types.T:  # letter by letter: pairs where neither type holds it keep pairings[0] = 1
        used = np.flatnonzero(c)
        table[used] *= pairings[c[used, None] + c]
        table[np.ix_(c == 0, used)] *= pairings[c[used]]
    return np.take(table[cols], cols, axis=1, out=mat)


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
