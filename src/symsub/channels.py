"""Superoperator algebra and the three channel families built from the
symmetric projector: optimal cloning, optimal measure-and-prepare, and
partial trace, plus verification of the identity relating them.

Vectorization is column-stacking throughout: vec(A) stacks the columns of A,
so vec(AXB) = (B^T (x) A) vec(X) and a Kraus map sums conj(K) (x) K.

Every channel here is a real map, so its matrix is ``float64``.  The ``*_sym``
constructors return each channel on symmetric-subspace coordinates (sym_dim-sided,
exactly its action on symmetric inputs, where the channel definitions are pinned),
densified by one scatter from a real entry list (out_flat, in_flat, value) of
type-basis multinomial amplitudes; no d^n-sided object is built.  On symmetric inputs
the cloner n -> n+k is c = sym_dim(d,n)/sym_dim(d,n+k) times the adjoint of the partial
trace tr_{n+k -> n}, so one split-and-join builds both lists.  The identity verifiers
run there by default and never densify: a composition joins one list's output index
to the next one's input index, the weighted terms are summed by np.unique + bincount,
and the residual is the norm of the summed entries, with no BLAS call.  The plain
constructors return the same channels on the full embedded space (d^n coordinates).
They, ``projection_superoperator`` and ``compress_superoperator`` are the oracle: the
tests compare the ``*_sym`` channels against the compressed full-space ones, and
``chiribella_sides(..., "full")`` checks the identity on the embedded space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import prod

import numpy as np

from .exactcomb import _homogeneous_sum, binomial, enumerate_types, mp_clone_coefficient, sym_dim
from .guards import guard_dimension
from .tensorspace import Operator, _dense, _multinomials, _type_rank, copy_dims, sym_projector_group, type_isometry


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(matrix).T.reshape(-1)


def unvec(vector: np.ndarray, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Inverse of vec; square by default."""
    v = np.asarray(vector).reshape(-1)
    if shape is None:
        side = int(round(np.sqrt(v.size)))
        shape = (side, side)
    return v.reshape(shape[1], shape[0]).T


@dataclass(frozen=True)
class Superoperator:
    """Dense matrix acting on column-stacked operators; its dtype follows ``_dense``."""

    matrix: np.ndarray
    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]

    def __post_init__(self):
        mat = _dense(self.matrix)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "in_dims", tuple(int(d) for d in self.in_dims))
        object.__setattr__(self, "out_dims", tuple(int(d) for d in self.out_dims))
        if mat.shape != (self.out_dim**2, self.in_dim**2):
            raise ValueError(
                f"superoperator shape {mat.shape} does not match dims "
                f"{self.out_dims} <- {self.in_dims}"
            )

    @property
    def in_dim(self) -> int:
        return prod(self.in_dims)

    @property
    def out_dim(self) -> int:
        return prod(self.out_dims)


def identity_superoperator(dims: tuple[int, ...]) -> Superoperator:
    dim = prod(dims)
    return Superoperator(np.eye(dim * dim), dims, dims)


def kraus_superoperator(kraus_ops, in_dims, out_dims) -> Superoperator:
    """Assemble sum_i conj(K_i) (x) K_i."""
    din, dout = prod(in_dims), prod(out_dims)
    ops = [np.asarray(op) for op in kraus_ops]
    acc = np.zeros((dout * dout, din * din), dtype=np.result_type(float, *ops))
    for k in ops:
        acc += np.kron(k.conj(), k)
    return Superoperator(acc, tuple(in_dims), tuple(out_dims))


def compose(first: Superoperator, then: Superoperator) -> Superoperator:
    """Pipeline composition: apply ``first``, then ``then``."""
    if first.out_dims != then.in_dims:
        raise ValueError(f"dimension mismatch: {first.out_dims} vs {then.in_dims}")
    return Superoperator(then.matrix @ first.matrix, first.in_dims, then.out_dims)


def apply(s: Superoperator, rho: Operator) -> Operator:
    if rho.row_dims != s.in_dims or rho.col_dims != s.in_dims:
        raise ValueError(f"operator dims {rho.row_dims} do not match channel input {s.in_dims}")
    out = unvec(s.matrix @ vec(rho.entries), (s.out_dim, s.out_dim))
    return Operator(out, s.out_dims, s.out_dims)


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Choi matrix sum_{pq} T(E_pq) (x) E_pq; PSD iff the map is completely positive.

    Column p + q*din of the matrix is vec(T(E_pq)), whose entry a + b*dout is
    T(E_pq)[a, b]; the Choi entry [(a, p), (b, q)] is that number, so the Choi
    matrix is an axis shuffle of the superoperator matrix.
    """
    din, dout = s.in_dim, s.out_dim
    return s.matrix.reshape(dout, dout, din, din).transpose(1, 3, 0, 2).reshape(dout * din, dout * din)


def min_choi_eigenvalue(s: Superoperator) -> float:
    choi = choi_matrix(s)
    return float(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)[0])


def _guard_superoperator(out_dim: int, in_dim: int) -> None:
    # a superoperator matrix holds out_dim^2 * in_dim^2 entries; cap its side
    # product like an operator side so memory stays within the same budget
    guard_dimension(out_dim * in_dim, "superoperator")


def projection_superoperator(d: int, n: int) -> Superoperator:
    """rho -> Pi_sym rho Pi_sym on the full n-copy space."""
    _guard_superoperator(d**n, d**n)
    pi = sym_projector_group(d, n).entries
    return Superoperator(np.kron(pi.T, pi), copy_dims(d, n), copy_dims(d, n))


# ---------------------------------------------------------------------------
# the three channel families, full-space representation
# ---------------------------------------------------------------------------

def clone_channel(d: int, n: int, k: int) -> Superoperator:
    """Optimal n -> n+k cloner: rho -> c Pi (rho (x) I^k) Pi with
    c = estimation_fidelity(d, n, k); trace preserving on symmetric inputs."""
    _guard_superoperator(d ** (n + k), d**n)
    pi = sym_projector_group(d, n + k).entries
    dk = d**k
    root = np.sqrt(float(estimation_fidelity(d, n, k)))
    kraus = [root * pi[:, a::dk] for a in range(dk)]  # Pi (I (x) |a>)
    return kraus_superoperator(kraus, copy_dims(d, n), copy_dims(d, n + k))


def mp_channel(d: int, n: int, k: int) -> Superoperator:
    """Optimal n -> k measure-and-prepare channel
    rho -> c tr_n [ Pi_sym^{(d, n+k)} (rho (x) I^k) ] with the single projector
    of the defining formula (the sandwiched variant is a different channel:
    it is the k-copy marginal of the cloner, with strictly larger fidelity).
    """
    _guard_superoperator(d**k, d**n)
    pi = sym_projector_group(d, n + k).entries
    dn, dk = d**n, d**k
    tensor = pi.reshape(dn, dk, dn, dk)
    # out[u, v] = c * sum_{b, b'} Pi[(b,u), (b',v)] rho[b', b]; as a matrix on
    # column-stacked inputs this is an axis shuffle of Pi.
    mat = float(estimation_fidelity(d, n, k)) * tensor.transpose(3, 1, 0, 2).reshape(dk * dk, dn * dn)
    return Superoperator(mat, copy_dims(d, n), copy_dims(d, k))


def trace_channel(d: int, n: int, k: int) -> Superoperator:
    """Keep the first k of n subsystems, trace out the last n-k."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    _guard_superoperator(d**k, d**n)
    dr, eye = d ** (n - k), np.eye(d**n)
    kraus = [eye[b::dr] for b in range(dr)]  # I (x) <b|
    return kraus_superoperator(kraus, copy_dims(d, n), copy_dims(d, k))


# ---------------------------------------------------------------------------
# the same channels on symmetric-subspace coordinates, built in the type basis
# ---------------------------------------------------------------------------

def _type_split(d: int, p: int, q: int):
    """Amplitudes of each type state of p+q copies split over the first p and
    the last q copies, |w> = sum_{a+b=w} A |a>|b> with
    A = sqrt(M(p,a) M(q,b) / M(p+q,w)) and M the multinomial.

    Returns four flat arrays over the nonzero amplitudes, a-major: the column
    of w in enumerate_types(d, p+q), ranked from the summed rows a + b, of a in
    enumerate_types(d, p), of b in enumerate_types(d, q), and A itself.
    """
    firsts, seconds = (np.array([t.entries for t in enumerate_types(d, m)]) for m in (p, q))
    a_idx = np.repeat(np.arange(len(firsts)), len(seconds))
    b_idx = np.tile(np.arange(len(seconds)), len(firsts))
    rows = firsts[a_idx] + seconds[b_idx]
    w_idx = _type_rank(rows, p + q)
    joined = np.empty((sym_dim(d, p + q), d), dtype=rows.dtype)
    joined[w_idx] = rows  # every type of p + q copies is some a + b
    m_a, m_b, m_w = _multinomials(firsts, p), _multinomials(seconds, q), _multinomials(joined, p + q)
    # each quotient is an exact big-int ratio, correctly rounded; it is at most 1
    amp = np.sqrt((m_a[a_idx] * m_b[b_idx] / m_w[w_idx]).astype(float))
    return w_idx, a_idx, b_idx, amp


def _join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All position pairs (p, q) with left[p] == right[q], grouped by p."""
    order = np.argsort(right, kind="stable")
    lo = np.searchsorted(right, left, "left", sorter=order)
    counts = np.searchsorted(right, left, "right", sorter=order) - lo
    p = np.repeat(np.arange(left.size), counts)
    # the m-th pair of the run of p takes the (lo[p] + m)-th key of sorted right
    return p, order[np.arange(p.size) + np.repeat(lo + counts - np.cumsum(counts), counts)]


def _scatter(entries, dout: int, din: int) -> Superoperator:
    """Densify an entry list by one scatter; an entry maps |in_row><in_col| to value
    |out_row><out_col| at out_flat = out_row + out_col * dout, in_flat = in_row + in_col * din."""
    out, inp, values = entries
    mat = np.zeros((dout * dout, din * din))
    mat[out, inp] = values
    return Superoperator(mat, (din,), (dout,))


def _clone_entries(d: int, n: int, k: int):
    if k < 0:
        raise ValueError("need k >= 0")
    out, inp, values = _trace_entries(d, n + k, n, float(estimation_fidelity(d, n, k)))
    return inp, out, values


def _mp_entries(d: int, n: int, k: int):
    din, dout = sym_dim(d, n), sym_dim(d, k)
    _guard_superoperator(dout, din)
    w, a, b, amp = _type_split(d, n, k)
    i, j = _join(w, w)
    return b[j] + b[i] * dout, a[i] + a[j] * din, float(estimation_fidelity(d, n, k)) * amp[i] * amp[j]


def _trace_entries(d: int, n: int, k: int, scale: float = 1.0):
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    din, dout = sym_dim(d, n), sym_dim(d, k)
    _guard_superoperator(dout, din)
    w, a, b, amp = _type_split(d, k, n - k)
    i, j = _join(b, b)
    return a[i] + a[j] * dout, w[i] + w[j] * din, scale * amp[i] * amp[j]


def clone_channel_sym(d: int, n: int, k: int) -> Superoperator:
    """The optimal n -> n+k cloner on symmetric coordinates: c = estimation_fidelity(d, n, k)
    times the adjoint of the partial trace tr_{n+k -> n}, whose entry list it reuses swapped.
    Its Kraus operators K_b |t> = sqrt(c M(n,t) / M(n+k,t+b)) |t+b>, with multiplicity
    M(k,b), depend only on the type b of the k added copies."""
    return _scatter(_clone_entries(d, n, k), sym_dim(d, n + k), sym_dim(d, n))


def mp_channel_sym(d: int, n: int, k: int) -> Superoperator:
    """The optimal n -> k measure-and-prepare channel on symmetric coordinates:
    |t><t'| -> c sum_b sqrt(M(n,t) M(n,t') M(k,b) M(k,u)) / M(n+k,t+b) |u><b|
    with u = t + b - t' >= 0."""
    return _scatter(_mp_entries(d, n, k), sym_dim(d, k), sym_dim(d, n))


def trace_channel_sym(d: int, n: int, k: int) -> Superoperator:
    """Partial trace of the last n-k copies on symmetric coordinates.

    Its Kraus operators depend only on the type v of the traced copies:
    K_v |t> = sqrt(M(k,t-v) / M(n,t)) |t-v>, with multiplicity M(n-k,v).
    """
    return _scatter(_trace_entries(d, n, k), sym_dim(d, k), sym_dim(d, n))


def compress_superoperator(s: Superoperator, d: int, n_in: int, n_out: int) -> Superoperator:
    """Conjugate a full-space channel into symmetric coordinates on both ends."""
    v_in = type_isometry(d, n_in).entries
    v_out = type_isometry(d, n_out).entries
    left = np.kron(v_out.T, v_out.conj().T)
    right = np.kron(v_in.conj(), v_in)
    return Superoperator(left @ s.matrix @ right, (sym_dim(d, n_in),), (sym_dim(d, n_out),))


# ---------------------------------------------------------------------------
# exact scalar forms and the channel identity
# ---------------------------------------------------------------------------

def estimation_fidelity(d: int, n: int, k: int) -> Fraction:
    """Optimal estimation / measure-and-prepare fidelity sym_dim(d,n)/sym_dim(d,n+k)."""
    return Fraction(sym_dim(d, n), sym_dim(d, n + k))


def f_overlap(d: int, n: int, k: int, x: Fraction | int) -> Fraction:
    """Exact fidelity polynomial f(x) = c sum_s C(k,s)C(n,s)/C(n+k,k) x^s with
    c = sym_dim(d,n)/sym_dim(d,n+k); equals tr[beta^(x k) MP(alpha^(x n))] at
    x = |<alpha|beta>|^2."""
    if k < 0:  # the empty sum
        return Fraction(0)
    xf = Fraction(x)
    p, q = xf.numerator, xf.denominator
    denom = binomial(n + k, k)
    acc = _homogeneous_sum([binomial(k, s) * binomial(n, s) for s in range(k + 1)], p, q)
    fidelity = estimation_fidelity(d, n, k)
    return Fraction(fidelity.numerator * acc, fidelity.denominator * denom * q**k)


def chiribella_coefficient_identity(d: int, n: int, k: int, s: int) -> bool:
    """Exact check that the hypergeometric weight in f_overlap, rescaled by the
    cloner fidelities, is mp_clone_coefficient(d, n, k, s)."""
    lhs = (
        Fraction(sym_dim(d, n) * sym_dim(d, k), sym_dim(d, n + k) * sym_dim(d, s))
        * Fraction(binomial(k, s) * binomial(n, s), binomial(n + k, k))
    )
    return lhs == mp_clone_coefficient(d, n, k, s)


def _compose_entries(first, then):
    """Entry list of then o first: first's output index joined to then's input index."""
    p, q = _join(first[0], then[1])
    return then[0][q], first[1][p], first[2][p] * then[2][q]


def _sum_entries(terms, din: int):
    """Sum of weight * entries over (weight, entries) terms, one entry per distinct index pair.

    Terms are folded in one at a time, so only the running sum and one term are held;
    bincount adds in reading order, so the sums equal one pass over all the terms."""
    keys, values = np.empty(0, dtype=np.int64), np.empty(0)
    for weight, (out, inp, v) in terms:
        keys, inverse = np.unique(np.concatenate([keys, out * din * din + inp]), return_inverse=True)
        values = np.bincount(inverse, weights=np.concatenate([values, float(weight) * v]), minlength=keys.size)
    return *np.divmod(keys, din * din), values


def _identity_sides(lhs, terms, dout: int, din: int):
    """Dense matrices of lhs and of sum_s weight_s term_s."""
    return _scatter(lhs, dout, din).matrix, _scatter(_sum_entries(terms, din), dout, din).matrix


def _identity_residual(lhs, terms, dout: int, din: int) -> float:
    """Frobenius norm of lhs - sum_s weight_s term_s, from the summed entries (no BLAS call)."""
    values = _sum_entries(chain([(1, lhs)], ((-w, e) for w, e in terms)), din)[2]
    return float(np.sqrt(np.square(values).sum()))


def _chiribella_entries(d: int, n: int, k: int):
    """MP_{n->k}, a generator of the terms M_{k,s} clone_{s->k} o tr_{n-s} as entry lists,
    and the two sides."""
    lhs = _mp_entries(d, n, k)
    terms = ((mp_clone_coefficient(d, n, k, s), _compose_entries(_trace_entries(d, n, s), _clone_entries(d, s, k - s)))
             for s in range(min(n, k) + 1))
    return lhs, terms, sym_dim(d, k), sym_dim(d, n)


def chiribella_sides(d: int, n: int, k: int, representation: str = "sym"):
    """Build both sides of the measure-and-prepare expansion
    MP_{n->k} = sum_s M_{k,s} clone_{s->k} o tr_{n-s} as superoperator matrices,
    restricted to symmetric inputs.

    representation: "sym" (symmetric coordinates, from summed entry lists) or
    "full", the oracle on the embedded space, where the dense compositions are
    summed and both sides are right-multiplied once by the symmetric-input
    projection (composition is linear, so this equals projecting every piece).
    """
    if representation == "sym":
        return _identity_sides(*_chiribella_entries(d, n, k))
    if representation != "full":
        raise ValueError(f"unknown representation {representation!r}")
    lhs = mp_channel(d, n, k).matrix
    rhs = sum(float(mp_clone_coefficient(d, n, k, s)) * compose(trace_channel(d, n, s), clone_channel(d, s, k - s)).matrix
              for s in range(min(n, k) + 1))
    proj = projection_superoperator(d, n).matrix
    return lhs @ proj, rhs @ proj


def verify_chiribella(d: int, n: int, k: int, representation: str = "sym") -> float:
    """Frobenius residual between the two sides of the channel identity; also
    asserts the exact rational coefficient identity for every s."""
    for s in range(k + 1):
        if not chiribella_coefficient_identity(d, n, k, s):
            raise ArithmeticError(f"exact coefficient identity fails at (d,n,k,s)=({d},{n},{k},{s})")
    if representation == "sym":
        return _identity_residual(*_chiribella_entries(d, n, k))
    lhs, rhs = chiribella_sides(d, n, k, representation)
    return float(np.linalg.norm(lhs - rhs))
