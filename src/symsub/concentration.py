"""Moment-method concentration for random subspaces: exact tensor-power moments
of projector overlaps, best-product-state overlap estimation, and the tail
bounds they imply, with the desk-scale corollary experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import exp, inf, log, log2, prod
from typing import TYPE_CHECKING

from .exactcomb import sym_dim
from .guards import POWER_BITS_CAP, DimensionGuardError, guard_dimension, guard_power_bits

if TYPE_CHECKING:
    from .randomness import RngStream
    from .tensorspace import Operator

# numpy, randomness and tensorspace load inside the dense and sampling
# functions, so MultiPartition and the exact tail bounds import without them

ASCENT_TOL = 1e-12  # nu_max drops a restart once a sweep gains at most this


@dataclass(frozen=True)
class MultiPartition:
    """Subsystem dimensions d_1..d_k of a k-party space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")

    @property
    def total(self) -> int:
        return prod(self.dims)

    @property
    def parties(self) -> int:
        return len(self.dims)


def _partition_operator(op: Operator, part: MultiPartition) -> Operator:
    """op with the partition's subsystem dims; a flat square operator of side
    part.total is relabelled, any other mismatch raises."""
    from .tensorspace import Operator

    dims = part.dims
    if op.row_dims == op.col_dims and op.row_dim == part.total and len(op.row_dims) != part.parties:
        op = Operator(op.entries, dims, dims)
    if op.row_dims != dims or op.col_dims != dims:
        raise ValueError(f"operator dims {op.row_dims} do not match partition {dims}")
    return op


def mu_exact(op: Operator, part: MultiPartition, n: int) -> float:
    """n-th moment E (tr P (phi_1 x ... x phi_k))^n over independent Haar
    product states, evaluated exactly via per-system Haar moments.

    Equals tr[P^(x n) W^dag ((x)_i Pi_sym^(d_i,n)/sym_dim) W] with W the
    copy/system interleaving permutation; W enters only as an axis transpose and
    P^(x n) is contracted one copy at a time.  The peak memory is the real
    moment matrix of side total**n, the transposed copy the first contraction
    makes and, for a complex P, that copy cast to complex.
    """
    import numpy as np

    from .randomness import haar_moment_operator

    if n < 0:
        raise ValueError("n must be nonnegative")
    op = _partition_operator(op, part)
    dims = part.dims
    total = part.total
    guard_dimension(total**n, "moment matrix")
    moments = [haar_moment_operator(d, n).entries for d in dims]
    # the kron is system-major, one axis per (system i, copy c) at i*n + c;
    # a single transpose regroups rows and columns copy-major at c*k + i
    order = [i * n + c for c in range(n) for i in range(part.parties)]
    tensor = reduce(np.kron, moments).reshape(tuple(d for d in dims for _ in range(n)) * 2)
    tensor = tensor.transpose(order + [len(order) + a for a in order]).reshape((total,) * n + (total,) * n)
    pm = op.entries
    for step in range(n):
        tensor = np.tensordot(pm, tensor, axes=([1, 0], [0, n - step]))
    value = complex(tensor)
    return float(value.real)


# ---------------------------------------------------------------------------
# best product-state overlap
# ---------------------------------------------------------------------------

def _bipartite_rank_one_nu(op: Operator, part: MultiPartition, tol: float) -> float | None:
    """Exact nu for k=2 and P = lambda |psi><psi|: lambda times the squared top
    Schmidt coefficient of psi."""
    import numpy as np

    if part.parties != 2:
        return None
    evals, evecs = np.linalg.eigh(op.entries)
    top = evals[-1]
    if top <= 0 or np.any(np.abs(evals[:-1]) > tol * max(1.0, top)):
        return None
    psi = evecs[:, -1].reshape(part.dims)
    s = np.linalg.svd(psi, compute_uv=False)
    return float(top * s[0] ** 2)


def nu_max(
    op: Operator,
    part: MultiPartition,
    restarts: int = 32,
    iters: int = 200,
    stream: RngStream | None = None,
) -> float:
    """Best overlap max tr[P (phi_1 x ... x phi_k)] over product states.

    Alternating eigenvector ascent (a lower bound in general): hold all but
    one party fixed, replace that party's vector by the top eigenvector of its
    environment, sweep until converged; best over random restarts, all run as
    one batch.  Party j's environment, P contracted with the other parties'
    vectors, is two matrix products: the Kronecker product w of those vectors
    (one row per restart) times P viewed with the other parties' column axes
    as rows, then w's conjugate times that.  For two parties and a rank-one
    PSD operator the exact value is returned via the Schmidt decomposition.
    """
    import numpy as np

    from .randomness import RngStream

    op = _partition_operator(op, part)
    dims = part.dims
    if np.abs(op.entries - op.entries.conj().T).max() > 1e-10:
        raise ValueError("nu_max requires a Hermitian operator")
    exact = _bipartite_rank_one_nu(op, part, 1e-10)
    if exact is not None:
        return exact

    k = part.parties
    if k == 1:
        return float(np.linalg.eigh(op.entries)[0][-1])
    # the vectors are complex: cast a real P once, not in every matrix product
    tensor = op.entries.astype(complex, copy=False).reshape(dims + dims)
    restarts = max(1, restarts)
    stream = stream or RngStream(seed=0)
    # every restart's start vectors, in the order a per-restart loop draws them
    draws = stream.generator().standard_normal((restarts, 2 * sum(dims)))
    offsets = np.cumsum((0,) + dims) * 2
    vectors = []
    for d, o in zip(dims, offsets):
        v = draws[:, o : o + d] + 1j * draws[:, o + d : o + 2 * d]
        vectors.append(v / np.linalg.norm(v, axis=1, keepdims=True))

    # views[j]: rows are the other parties' column axes, columns are (row j,
    # other rows, column j); the restart axis leads w, so BLAS does the D^2
    # product (a restart-last layout or one unplanned einsum is far slower)
    rests = [[i for i in range(k) if i != j] for j in range(k)]
    views = [
        tensor.transpose([*(k + i for i in rest), j, *rest, k + j]).reshape(part.total // dims[j], -1)
        for j, rest in enumerate(rests)
    ]

    # alternating ascent; a restart leaves `active` at the sweep that gains <= ASCENT_TOL
    values = np.full(restarts, -np.inf)
    active = np.arange(restarts)
    for _ in range(iters):
        previous = values[active]
        for j in range(k):
            w = reduce(lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(len(a), -1),
                       (vectors[i][active] for i in rests[j]))
            half = (w @ views[j]).reshape(active.size, dims[j], -1, dims[j])
            env = (w.conj()[:, None, None, :] @ half)[:, :, 0, :]
            evals, evecs = np.linalg.eigh((env + env.conj().swapaxes(1, 2)) / 2.0)
            vectors[j][active] = evecs[:, :, -1]
            values[active] = evals[:, -1]
        active = active[values[active] - previous > ASCENT_TOL]
        if active.size == 0:
            break
    return float(values.max())


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailBoundResult:
    gamma: Fraction
    n_star: int
    bound: Fraction
    per_n: tuple[tuple[int, Fraction], ...]


def tail_bound_term(part: MultiPartition, rank: int, gamma: Fraction, n: int) -> Fraction:
    """C(rank+n-1,n) prod_i C(d_i+n-1,n) / (gamma^n C(D+n-1,n)), exactly."""
    g = Fraction(gamma)
    if g <= 0:
        raise ValueError("gamma must be positive")
    if not 1 <= rank <= part.total:
        raise ValueError("need 1 <= rank <= prod(dims)")
    guard_power_bits(g, n)
    num = sym_dim(rank, n)
    for d in part.dims:
        num *= sym_dim(d, n)
    return Fraction(num) / (g**n * sym_dim(part.total, n))


def tail_bound(part: MultiPartition, rank: int, gamma, n_max: int = 64) -> TailBoundResult:
    """Minimize the moment tail bound over n = 1..n_max in exact rationals.

    Bounds Pr[nu(Pi) >= gamma] for a Haar-random rank-``rank`` projector.
    Floats passed as gamma are converted exactly (binary expansion).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    g = Fraction(gamma)
    per = tuple((n, tail_bound_term(part, rank, g, n)) for n in range(1, n_max + 1))
    best_n, best = min(per, key=lambda term: term[1])  # the first n of least bound
    return TailBoundResult(gamma=g, n_star=best_n, bound=best, per_n=per)


def product_state_threshold(part: MultiPartition, rank: int) -> bool:
    """True iff D > rank + sum_i (d_i - 1), the regime where a random rank-r
    subspace almost surely contains no product state; a rank outside 1..D is refused."""
    if not 1 <= rank <= part.total:
        raise ValueError("need 1 <= rank <= prod(dims)")
    return part.total > rank + sum(d - 1 for d in part.dims)


@dataclass(frozen=True)
class SmoothGapResult:
    d: int
    x: int
    rank: int
    n: int
    gamma: Fraction
    bound: Fraction
    threshold: Fraction
    satisfied: bool


def smooth_gap_bound(d: int, x: int) -> SmoothGapResult:
    """Near-critical-rank tail evaluation on C^d (x) C^d.

    rank = d^2 - 2(d-1) - x, n = d^(2 + 2d/x), gamma = 1 - 1/n; evaluates the
    single-n tail term exactly and compares it against d^-d.  Once n passes
    2^1023 (from d = 80 at x = 1) it is refused before the float power
    d^(2 + 2d/x) would overflow: gamma^n alone then has more than 2^1023 bits.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    rank = d * d - 2 * (d - 1) - x
    if rank < 1:
        raise ValueError(f"rank {rank} < 1 for (d, x)=({d}, {x})")
    exponent = 2 + 2 * d / x
    log2_n = exponent * log2(d)
    if log2_n >= 1023:
        raise DimensionGuardError(
            f"refusing the tail term at n = {d}^{exponent:g}, about 2^{log2_n:.0f}: gamma^n would have "
            f"more than 2^1023 bits (cap {POWER_BITS_CAP} bits)"
        )
    n = int(round(d**exponent))
    gamma = 1 - Fraction(1, n)
    part = MultiPartition((d, d))
    bound = tail_bound_term(part, rank, gamma, n)
    threshold = Fraction(1, d**d)
    return SmoothGapResult(
        d=d, x=x, rank=rank, n=n, gamma=gamma,
        bound=bound, threshold=threshold, satisfied=bound <= threshold,
    )


def multiqubit_bound_expression(k: int, eps: float) -> float:
    """The k-qubit tail bound after substituting n = k/eps and
    gamma = k^(1+2 eps) 2^-k / e into the moment bound:
    (k/eps)^k (k/(e eps))^(k/eps) e^(k/eps) / k^(k(2+1/eps))."""
    n = k / eps
    log_value = (
        k * (log(k) - log(eps))
        + n * (log(k) - 1.0 - log(eps))
        + n
        - k * (2.0 + 1.0 / eps) * log(k)
    )
    return exp(log_value)


def multiqubit_bound_closed_form(k: int, eps: float) -> float:
    """(eps^-(1+1/eps) / k)^k, the simplified form of the expression above."""
    return exp(k * (-(1.0 + 1.0 / eps) * log(eps) - log(k)))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchmidtTailReport:
    d: int
    samples: int
    epsilon: float
    threshold: float
    exceedances: int
    fraction: float
    bound: float
    mean_top_schmidt: float

    @property
    def passed(self) -> bool:
        return self.fraction <= self.bound


def experiment_schmidt_tail(d: int, samples: int, epsilon: float, stream: RngStream) -> SchmidtTailReport:
    """Sample Haar states on C^d (x) C^d and compare the empirical tail of the
    largest squared Schmidt coefficient against the bound
    Pr[lambda_max >= (16/(e d)) e^eps] <= e^(-d eps).

    Drawn a chunk at a time by ``randomness._block_sums``, the report is
    bit-identical to SVDs of whole ``haar_state_batch`` blocks.
    """
    import numpy as np

    from .randomness import _block_sums, haar_state_batch

    if d < 1:
        raise ValueError("d must be positive")
    if samples < 1:
        raise ValueError("samples must be positive")
    if not epsilon >= 0:  # also refuses nan; epsilon = 0 gives the trivial bound 1
        raise ValueError("epsilon must be non-negative")
    guard_dimension(d * d)
    try:
        threshold = 16.0 / (np.e * d) * exp(epsilon)
    except OverflowError:  # no squared Schmidt coefficient (at most 1) reaches it
        threshold = inf

    def top_schmidt(gen: np.random.Generator, chunk: np.ndarray) -> np.ndarray:
        psi = haar_state_batch(d * d, gen, len(chunk), out=chunk)
        return np.square(np.linalg.svd(psi.reshape(-1, d, d), compute_uv=False)[:, 0])

    def tail(lam: np.ndarray) -> tuple[int, float]:
        return int(np.sum(lam >= threshold)), float(lam.sum())

    exceed, top_sum = _block_sums(d * d, samples, stream, top_schmidt, tail)
    return SchmidtTailReport(
        d=d, samples=samples, epsilon=epsilon, threshold=threshold,
        exceedances=exceed, fraction=exceed / samples, bound=exp(-d * epsilon),
        mean_top_schmidt=top_sum / samples,
    )


PRODUCT_FREE_GAMMA = Fraction(999, 1000)
PRODUCT_FREE_NMAX = 600


@dataclass(frozen=True)
class ProductFreeReport:
    dims: tuple[int, ...]
    rank: int
    threshold_met: bool
    trials: int
    overlaps: tuple[float, ...]
    max_overlap: float

    @property
    def exceedances(self) -> int:
        """Trials whose estimated overlap reached PRODUCT_FREE_GAMMA (nu_max is
        a lower bound, so each one is a genuine exceedance)."""
        return sum(v >= PRODUCT_FREE_GAMMA for v in self.overlaps)

    @cached_property
    def bound(self) -> Fraction:
        """tail_bound on Pr[nu(P) >= PRODUCT_FREE_GAMMA], minimized over
        n <= PRODUCT_FREE_NMAX."""
        return tail_bound(MultiPartition(self.dims), self.rank, PRODUCT_FREE_GAMMA, PRODUCT_FREE_NMAX).bound

    @property
    def passed(self) -> bool:
        """True when the fraction of trials with nu >= PRODUCT_FREE_GAMMA is at
        most the moment tail bound, or vacuously when the dimension threshold
        fails and no claim is made."""
        if not self.threshold_met:
            return True
        return self.exceedances <= self.bound * self.trials


def experiment_product_free(
    part: MultiPartition,
    rank: int,
    restarts: int,
    stream: RngStream,
    trials: int = 20,
) -> ProductFreeReport:
    """Draw random rank-r projectors and estimate their best product overlap.

    When the dimension-counting threshold holds, the share of trials whose
    overlap reaches PRODUCT_FREE_GAMMA is expected to stay within the moment
    tail bound.  When it does not hold, the report says so and makes no
    claim.  A rank outside 1..prod(dims), fewer than one trial or a trial count
    past the stream split limit is refused before the first draw."""
    from .randomness import random_projector

    if trials < 1:
        raise ValueError("trials must be positive")
    met = product_state_threshold(part, rank)  # checks rank before any draw
    restart_base = max(trials, 10_000)  # restart streams start past every projector stream
    last = restart_base + trials - 1
    try:  # refused before the first trial, not after the others
        stream.split(last)
    except ValueError as exc:
        raise ValueError(f"{trials} trials take stream split index {last}: {exc}") from None
    overlaps: list[float] = []
    if met:
        for t in range(trials):
            proj = random_projector(part.total, rank, stream.split(t))
            overlaps.append(nu_max(proj, part, restarts=restarts, stream=stream.split(restart_base + t)))
    return ProductFreeReport(
        dims=part.dims, rank=rank, threshold_met=met, trials=trials if met else 0,
        overlaps=tuple(overlaps), max_overlap=max(overlaps) if overlaps else 0.0,
    )
