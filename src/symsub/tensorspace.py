"""Dense operators on multi-subsystem tensor spaces.

Conventions used throughout:

* Subsystems are 0-indexed and ordered; composite basis index
  ``x = sum_m x_m * prod(dims[m+1:])`` (first factor most significant,
  matching ``numpy.kron`` and numpy's C-order ``reshape``, from which every
  basis-index map here is derived).
* A permutation ``pi`` acts by moving the content of tensor slot ``l`` to slot
  ``pi(l)``, i.e. ``P(pi)|x_0,...,x_{n-1}> = |y>`` with ``y[pi(l)] = x[l]``.
  This makes ``P`` a homomorphism: ``P(pi1 o pi2) = P(pi1) P(pi2)``.
* "Trace out the last subsystems" is the pinned reading of reduced channels;
  on permutation-symmetric inputs any other choice agrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as iter_permutations
from math import factorial, prod
from typing import Iterable

import numpy as np

from .exactcomb import conjugation_fixed_dimension  # noqa: F401  re-exported
from .exactcomb import binomial, sym_dim
from .guards import guard_dimension, guard_matchings, guard_permutations


def _dense(values) -> np.ndarray:
    """The dtype of every dense matrix: ``complex128`` for complex input, ``float64`` for any other."""
    return np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)


@dataclass(frozen=True)
class Operator:
    """Dense matrix tagged with row/column subsystem dimensions; its dtype follows ``_dense``."""

    entries: np.ndarray
    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self):
        mat = _dense(self.entries)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "row_dims", tuple(int(d) for d in self.row_dims))
        object.__setattr__(self, "col_dims", tuple(int(d) for d in self.col_dims))
        if not self.row_dims or not self.col_dims:
            raise ValueError("subsystem dimension lists must be nonempty")
        if mat.shape != (prod(self.row_dims), prod(self.col_dims)):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dims "
                f"{self.row_dims} x {self.col_dims}"
            )

    @property
    def row_dim(self) -> int:
        return prod(self.row_dims)

    @property
    def col_dim(self) -> int:
        return prod(self.col_dims)

    def trace(self) -> complex:
        if self.row_dims != self.col_dims:
            raise ValueError("trace requires square subsystem structure")
        return complex(np.trace(self.entries))

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.col_dims != other.row_dims:
            raise ValueError(f"dimension mismatch: {self.col_dims} vs {other.row_dims}")
        return Operator(self.entries @ other.entries, self.row_dims, other.col_dims)


def operator_tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with concatenated subsystem lists."""
    return Operator(np.kron(a.entries, b.entries), a.row_dims + b.row_dims, a.col_dims + b.col_dims)


def frobenius_distance(a: Operator | np.ndarray, b: Operator | np.ndarray) -> float:
    am = a.entries if isinstance(a, Operator) else np.asarray(a)
    bm = b.entries if isinstance(b, Operator) else np.asarray(b)
    return float(np.linalg.norm(am - bm))


def operator_to_json(op: Operator) -> dict:
    """JSON form: subsystem dims plus row-major [re, im] entry pairs."""
    flat = [[float(z.real), float(z.imag)] for z in op.entries.ravel(order="C")]
    return {"row_dims": list(op.row_dims), "col_dims": list(op.col_dims), "entries": flat}


def operator_from_json(data: dict) -> Operator:
    """Inverse of operator_to_json; real (float64) when every imaginary part is 0."""
    row_dims = tuple(data["row_dims"])
    col_dims = tuple(data["col_dims"])
    pairs = np.array(data["entries"], dtype=float).reshape(-1, 2)
    flat = pairs.view(complex)[:, 0] if pairs[:, 1].any() else pairs[:, 0]
    return Operator(flat.reshape(prod(row_dims), prod(col_dims)), row_dims, col_dims)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1}; images[i] is the image of slot i."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(int(i) for i in self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"{self.images} is not a permutation")

    @property
    def n(self) -> int:
        return len(self.images)

    def compose(self, other: "Permutation") -> "Permutation":
        """self o other (other applied first)."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))


def all_permutations(n: int) -> list[Permutation]:
    guard_permutations(n)
    return [Permutation(images) for images in iter_permutations(range(n))]


def copy_dims(d: int, n: int) -> tuple[int, ...]:
    """Subsystem dims of (C^d)^(x n); n = 0 is the one-dimensional empty tensor power."""
    return (d,) * n or (1,)


def _index_grid(d: int, n: int) -> np.ndarray:
    """Composite basis indices of (C^d)^(x n) on n axes of length d: the
    C-order layout fixes the first factor as most significant."""
    return np.arange(d**n).reshape((d,) * n)


def _index_digits(d: int, n: int) -> np.ndarray:
    """(d**n, n) array of big-endian base-d digits of 0..d**n-1; read-only."""
    digits = np.indices((d,) * n).reshape(n, d**n).T
    digits.setflags(write=False)
    return digits


def permutation_index_map(d: int, pi: Permutation) -> np.ndarray:
    """Index map t with P(pi)|x> = |t[x]> on the composite basis of (C^d)^(x n)."""
    return _index_grid(d, pi.n).transpose(pi.images).reshape(-1)


def permutation_operator(d: int, pi: Permutation) -> Operator:
    """The 0/1 matrix permuting tensor factors of (C^d)^(x n) by pi."""
    n = pi.n
    dim = d**n
    guard_dimension(dim)
    mat = np.zeros((dim, dim))
    mat[permutation_index_map(d, pi), np.arange(dim)] = 1.0
    return Operator(mat, copy_dims(d, n), copy_dims(d, n))


# ---------------------------------------------------------------------------
# symmetric projector, two ways
# ---------------------------------------------------------------------------

def _type_rank(counts: np.ndarray, n: int) -> np.ndarray:
    """Column of each type row (d letter counts summing to n) in enumerate_types order.

    At slot i the types sharing the row's prefix with more letters there come
    first, C(d-i-2+g, g-1) of them when g letters are left after slot i.
    """
    d = counts.shape[1]
    cols, left = np.zeros(len(counts), dtype=np.int64), np.full(len(counts), n)
    for i in range(d - 1):
        left -= counts[:, i]
        cols += np.array([binomial(d - i - 2 + g, g - 1) for g in range(n + 1)])[left]
    return cols


def _string_types(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each string's type column in enumerate_types order, and the (sym_dim, d) table of types."""
    dim, strings = d**n, np.arange(d**n)
    counts = np.zeros((dim, d), dtype=np.int64)  # counts[x, a]: letters a in string x
    for m in range(n):
        counts[strings, strings // d**m % d] += 1
    cols = _type_rank(counts, n)
    types = np.zeros((sym_dim(d, n), d), dtype=np.int64)
    types[cols] = counts
    return cols, types


def _multinomials(types: np.ndarray, n: int) -> np.ndarray:
    """Exact M(n, t) = n! / (t_1! ... t_d!) of every row t of an (S, d) count table,
    as an object array of Python ints: one object-array product, no loop over the rows."""
    factorials = np.array([factorial(m) for m in range(n + 1)], dtype=object)
    return factorials[n] // factorials[types].prod(axis=1)


def sym_projector_group(d: int, n: int) -> Operator:
    """Group-average projector (1/n!) sum_pi P(pi) onto the symmetric subspace.

    Read off the string types: the group average is sum_t |t><t| over the type
    states, so entry [x, y] is 1/M(n, t) when strings x and y share type t and 0
    otherwise.  1/M(n, t), a correctly rounded quotient of Python ints, fills each type's block.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    guard_dimension(d**n)
    mat = np.zeros((d**n, d**n))  # first: numpy refuses an oversized side before d**n string types are read
    cols, types = _string_types(d, n)
    for col, m in enumerate(_multinomials(types, n)):
        mat[np.ix_(cols == col, cols == col)] = 1 / m
    return Operator(mat, copy_dims(d, n), copy_dims(d, n))


def sym_projector_enumerated(d: int, n: int) -> Operator:
    """Literal group average by enumerating S_n; cross-check for small n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    guard_dimension(d**n)
    guard_permutations(n)
    dim = d**n
    acc = np.zeros((dim, dim))
    cols = np.arange(dim)
    for pi in all_permutations(n):
        acc[permutation_index_map(d, pi), cols] += 1.0
    return Operator(acc / factorial(n), copy_dims(d, n), copy_dims(d, n))


def type_isometry(d: int, n: int) -> Operator:
    """Isometry V whose columns are unit-normalized type states.

    Columns follow the enumerate_types order: string x holds 1/sqrt(M(n, t)) in
    the column of its type t, so each column has unit norm, V^dag V = I on
    sym_dim(d, n) coordinates and V V^dag is the symmetric projector.
    """
    guard_dimension(d**n)
    mat = np.zeros((d**n, sym_dim(d, n)))  # first, for the same reason as in sym_projector_group
    cols, types = _string_types(d, n)
    norms = 1.0 / np.sqrt(_multinomials(types, n).astype(float))
    mat[np.arange(d**n), cols] = norms[cols]
    return Operator(mat, copy_dims(d, n), (sym_dim(d, n),))


# ---------------------------------------------------------------------------
# perfect matchings and their index-identification operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matching:
    """A perfect matching of {0, ..., 2n-1} as sorted disjoint pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple(sorted((min(a, b), max(a, b)) for a, b in self.pairs))
        object.__setattr__(self, "pairs", norm)
        flat = [x for pair in norm for x in pair]
        if sorted(flat) != list(range(2 * len(norm))):
            raise ValueError(f"{self.pairs} is not a perfect matching of [0, {2*len(norm)})")

    @property
    def n(self) -> int:
        return len(self.pairs)


def enumerate_matchings(n: int) -> list[Matching]:
    """All (2n-1)!! perfect matchings of {0,...,2n-1}, deterministic order."""
    guard_matchings(n)
    return _append_matchings([], tuple(range(2 * n)), ())


def _append_matchings(out: list[Matching], unmatched: tuple[int, ...], acc: tuple[tuple[int, int], ...]) -> list[Matching]:
    """Append each matching that extends the pairs acc by pairing up unmatched; return out.
    Not a closure: a self-calling closure keeps out alive in a reference cycle."""
    if not unmatched:
        out.append(Matching(acc))
    else:
        first, rest = unmatched[0], unmatched[1:]
        for pos, partner in enumerate(rest):
            _append_matchings(out, rest[:pos] + rest[pos + 1:], acc + ((first, partner),))
    return out


def matching_from_permutation(pi: Permutation) -> Matching:
    """The pairing {(pi(m), n+m)} whose matching operator equals P(pi)."""
    n = pi.n
    return Matching(tuple((pi.images[m], n + m) for m in range(n)))


def matching_index_pairs(d: int, matching: Matching) -> tuple[np.ndarray, np.ndarray]:
    """The d**n (row, column) pairs of the strings i in [d]^{2n} compatible with M,
    row i_0..i_{n-1} and column i_n..i_{2n-1}: the 1 entries of sigma_M, as two 1-D arrays."""
    n = matching.n
    pair_of = np.empty(2 * n, dtype=np.int64)  # the pair holding each slot
    for pair_idx, pair in enumerate(matching.pairs):
        pair_of[list(pair)] = pair_idx
    slot_digits = _index_digits(d, n)[:, pair_of]  # each slot takes its pair's free digit
    grid = _index_grid(d, n)
    # at n = 0 the grid is 0-d and so is each lookup; reshape keeps the one pair 1-D
    return grid[tuple(slot_digits[:, :n].T)].reshape(-1), grid[tuple(slot_digits[:, n:].T)].reshape(-1)


def matching_operator(d: int, n: int, matching: Matching) -> Operator:
    """sigma_M = sum over strings i in [d]^{2n} compatible with M of
    |i_0..i_{n-1}><i_n..i_{2n-1}|, where compatible means equal within pairs."""
    if matching.n != n:
        raise ValueError("matching size does not match n")
    dim = d**n
    guard_dimension(dim)
    mat = np.zeros((dim, dim))
    mat[matching_index_pairs(d, matching)] = 1.0
    return Operator(mat, copy_dims(d, n), copy_dims(d, n))


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def partial_trace(op: Operator, keep: Iterable[int]) -> Operator:
    """Trace out every subsystem not listed in keep (0-based, order preserved)."""
    if op.row_dims != op.col_dims:
        raise ValueError("partial trace requires row_dims == col_dims")
    dims = op.row_dims
    m = len(dims)
    keep_list = sorted(set(int(i) for i in keep))
    if keep_list and (keep_list[0] < 0 or keep_list[-1] >= m):
        raise IndexError(f"keep indices out of range for {m} subsystems")
    if len(keep_list) == m:
        return op
    if not keep_list:
        return Operator(np.trace(op.entries).reshape(1, 1), (1,), (1,))
    tensor = op.entries.reshape(dims + dims)
    traced = [i for i in range(m) if i not in keep_list]
    for count, idx in enumerate(traced):
        row_axis = idx - count
        col_axis = row_axis + (m - count)
        tensor = np.trace(tensor, axis1=row_axis, axis2=col_axis)
    kept_dims = tuple(dims[i] for i in keep_list)
    dim = prod(kept_dims)
    return Operator(tensor.reshape(dim, dim), kept_dims, kept_dims)


def _tensor_power_rows(vectors: np.ndarray, n: int) -> np.ndarray:
    """Row-wise n-fold Kronecker power: (m, d) -> (m, d**n)."""
    if n == 0:
        return np.ones((vectors.shape[0], 1), dtype=vectors.dtype)
    out = vectors
    for _ in range(n - 1):
        out = (out[:, :, None] * vectors[:, None, :]).reshape(out.shape[0], -1)
    return out


def tensor_power_span_rank(d: int, n: int, samples: int, stream) -> int:
    """Numerical rank of the span of sampled tensor-power projectors phi^(x n).

    Stacks vec(a a^dag) for Haar-random phi, a = V^T phi^(x n) its type amplitudes: V (x) V
    maps these sym_dim**2-wide rows onto the d**(2n)-wide |phi><phi|^(x n) and keeps every
    singular value.  Counts those above 1e-8; the expected answer is sym_dim(d, n)**2.
    """
    needed = sym_dim(d, n) ** 2 + 5
    if samples < needed:
        raise ValueError(f"need at least {needed} samples for (d, n)=({d}, {n})")
    # the cap stays on the d**(2n) width: past it the frame of tensor powers is ill conditioned
    # (its last singular value is 7.3e-8 at (2, 20)) and the 1e-8 count is not known to hold
    guard_dimension(d ** (2 * n), "span rows")
    z = stream.generator().standard_normal((samples, 2, d))
    v = z[:, 0] + 1j * z[:, 1]
    w = _tensor_power_rows(v / np.linalg.norm(v, axis=1, keepdims=True), n)
    a = w @ type_isometry(d, n).entries
    rows = (a.conj()[:, :, None] * a[:, None, :]).reshape(samples, -1)  # column-stacked |a><a|
    svals = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(svals > 1e-8))
