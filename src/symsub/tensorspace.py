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
from .exactcomb import binomial, multinomial, sym_dim
from .guards import DimensionGuardError, guard_dimension, guard_matchings, guard_permutations


@dataclass(frozen=True)
class Operator:
    """Dense matrix tagged with row/column subsystem dimensions: ``complex128``
    for complex input and ``float64`` for any other (ints, bools, floats,
    ``Fraction``s), so a real operator takes half the bytes of a complex one."""

    entries: np.ndarray
    row_dims: tuple[int, ...]
    col_dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex if np.iscomplexobj(self.entries) else float)
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

def _transposition_index_map(d: int, n: int, i: int, j: int) -> np.ndarray:
    return _index_grid(d, n).swapaxes(i, j).reshape(-1)


def _symmetrizer_int(d: int, n: int) -> np.ndarray:
    """Unnormalized symmetrizer sum_pi P(pi) with exact integer entries.

    Computed by the left-coset cascade S_m = (S_{m-1} (x) I) (I + sum_j T_{j,m}),
    which reproduces the full group sum without enumerating S_n.  Entries are
    bounded by n!, so they are held in int32 up to n = 12 and in int64 above,
    which covers every n whose d**n (d >= 2) could pass the size guard; d = 1
    is handled by the caller and n > 20 refused outright.
    """
    if n > 20:
        raise DimensionGuardError("symmetrizer entries would overflow int64 beyond n = 20")
    dtype = np.int32 if factorial(n) <= np.iinfo(np.int32).max else np.int64
    mat = np.eye(d, dtype=dtype)
    for m in range(2, n + 1):
        base = np.kron(mat, np.eye(d, dtype=dtype))
        # each coset term is a column gather of base into one reused buffer
        total = np.take(base, _transposition_index_map(d, m, 0, m - 1), axis=1)
        total += base
        gathered = np.empty_like(base)
        for j in range(1, m - 1):
            np.take(base, _transposition_index_map(d, m, j, m - 1), axis=1, out=gathered)
            total += gathered
        mat = total
    return mat


def sym_projector_group(d: int, n: int) -> Operator:
    """Group-average projector (1/n!) sum_pi P(pi) onto the symmetric subspace."""
    guard_dimension(d**n)
    if n == 0 or d == 1:
        mat = np.ones((1, 1))
    else:
        mat = np.divide(_symmetrizer_int(d, n), factorial(n))
    return Operator(mat, copy_dims(d, n), copy_dims(d, n))


def sym_projector_enumerated(d: int, n: int) -> Operator:
    """Literal group average by enumerating S_n; cross-check for small n."""
    guard_dimension(d**n)
    guard_permutations(n)
    dim = d**n
    acc = np.zeros((dim, dim))
    cols = np.arange(dim)
    for pi in all_permutations(n):
        acc[permutation_index_map(d, pi), cols] += 1.0
    return Operator(acc / factorial(n), copy_dims(d, n), copy_dims(d, n))


def _type_isometry_matrix(d: int, n: int) -> np.ndarray:
    guard_dimension(d**n)
    dim, strings = d**n, np.arange(d**n)
    counts = np.zeros((dim, d), dtype=np.int64)  # counts[x, a]: letters a in string x
    for m in range(n):
        counts[strings, strings // d**m % d] += 1
    # column of each string's type in enumerate_types order: at slot i the types sharing
    # the prefix with more letters there come first, C(d-i-2+g, g-1) of them (g left after i)
    cols, left = np.zeros(dim, dtype=np.int64), np.full(dim, n)
    for i in range(d - 1):
        left -= counts[:, i]
        cols += np.array([binomial(d - i - 2 + g, g - 1) for g in range(n + 1)])[left]
    types = np.zeros((sym_dim(d, n), d), dtype=np.int64)
    types[cols] = counts
    norms = np.array([1.0 / np.sqrt(multinomial(n, t)) for t in types.tolist()])
    mat = np.zeros((dim, len(types)))
    mat[strings, cols] = norms[cols]
    return mat


def type_isometry(d: int, n: int) -> Operator:
    """Isometry V whose columns are unit-normalized type states.

    Columns follow the enumerate_types order; V^dag V = I on sym_dim(d, n)
    coordinates and V V^dag is the symmetric projector.  Note the normalization
    is 1/sqrt(multinomial) per string so each column has unit norm.
    """
    return Operator(_type_isometry_matrix(d, n), copy_dims(d, n), (sym_dim(d, n),))


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
    out: list[Matching] = []

    def rec(unmatched: tuple[int, ...], acc: tuple[tuple[int, int], ...]):
        if not unmatched:
            out.append(Matching(acc))
            return
        first, rest = unmatched[0], unmatched[1:]
        for pos, partner in enumerate(rest):
            rec(rest[:pos] + rest[pos + 1:], acc + ((first, partner),))

    rec(tuple(range(2 * n)), ())
    return out


def matching_from_permutation(pi: Permutation) -> Matching:
    """The pairing {(pi(m), n+m)} whose matching operator equals P(pi)."""
    n = pi.n
    return Matching(tuple((pi.images[m], n + m) for m in range(n)))


def matching_operator(d: int, n: int, matching: Matching) -> Operator:
    """sigma_M = sum over strings i in [d]^{2n} compatible with M of
    |i_0..i_{n-1}><i_n..i_{2n-1}|, where compatible means equal within pairs."""
    if matching.n != n:
        raise ValueError("matching size does not match n")
    dim = d**n
    guard_dimension(dim)
    pair_of = np.empty(2 * n, dtype=np.int64)  # the pair holding each slot
    for pair_idx, pair in enumerate(matching.pairs):
        pair_of[list(pair)] = pair_idx
    slot_digits = _index_digits(d, n)[:, pair_of]  # each slot takes its pair's free digit
    grid = _index_grid(d, n)
    rows = grid[tuple(slot_digits[:, :n].T)]
    cols = grid[tuple(slot_digits[:, n:].T)]
    mat = np.zeros((dim, dim))
    mat[rows, cols] = 1.0
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

    Stacks vectorized |phi><phi|^(x n) for Haar-random phi and counts singular
    values above 1e-8; the span of these operators is the full operator space
    of the symmetric subspace, so the expected answer is sym_dim(d, n)**2.
    """
    needed = sym_dim(d, n) ** 2 + 5
    if samples < needed:
        raise ValueError(f"need at least {needed} samples for (d, n)=({d}, {n})")
    dim = d**n
    # each row holds a vectorized dim x dim operator: cap that width like a
    # superoperator's side product
    guard_dimension(dim * dim, "span rows")
    z = stream.generator().standard_normal((samples, 2, d))
    v = z[:, 0] + 1j * z[:, 1]
    w = _tensor_power_rows(v / np.linalg.norm(v, axis=1, keepdims=True), n)
    rows = (w.conj()[:, :, None] * w[:, None, :]).reshape(samples, dim * dim)  # column-stacked |w><w|
    svals = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(svals > 1e-8))
