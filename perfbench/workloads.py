"""The benchmark's four workloads, as lists of checked tasks.

A task calls public symsub entry points through the ``Library`` handle of
``spans.py`` and compares the output with an exact or pinned reference:
``Fraction`` equality, a closed form computed here with ``math.comb``, a
pinned value or residue, a pinned tolerance, a five-standard-error gate, or
an independent grid bracket.  A task raises ``WrongOutput`` when the output
disagrees with its reference; any other exception (``MemoryError``, a guard
refusal, a command that exits non-zero) counts as a failed task.  References
are kept cheap next to the calls they check (pinned residues, a sample of a
table), so the benchmark's own arithmetic does not hide a change in the
program's time.

The size "bench" is the ladder the benchmark times and "smoke" the smallest
rung of every list.  The seed picks rational points, gammas, random states
and the order of the CLI commands; the ladder itself is the same for every
seed.  No task pre-builds an object (a projector, an isometry) that the entry
point it checks builds for itself.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

import symsub
from symsub import MultiPartition, Operator, RngStream
from symsub import randomness as _randomness  # samplers handed to the estimators

TOL = 1e-10  # residual tolerance, the CLI's default
MC_GATE = 5.0  # Monte Carlo gate, in standard errors
CLI_TIMEOUT_S = 120


class WrongOutput(Exception):
    """The output disagrees with its reference."""


class CommandFailed(Exception):
    """A CLI command exited non-zero."""


def expect(ok, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


def show(q: Fraction) -> str:
    """An exact value as the CLI serialises it.  str() would raise past
    Python's 4300-digit limit on int-to-str conversion."""
    if q.numerator.bit_length() > 12000 or q.denominator.bit_length() > 12000:
        return format(float(q), ".17g")
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# closed forms, computed here rather than by symsub
# ---------------------------------------------------------------------------

def sym_dim(d: int, n: int) -> int:
    return math.comb(d + n - 1, n)


def multinomial(n: int, counts) -> int:
    out = math.factorial(n)
    for c in counts:
        out //= math.factorial(c)
    return out


def mp_weight(d: int, n: int, k: int, s: int) -> Fraction:
    """M_{k,s}(d, n) in its exchange-identity form, which differs from the
    hypergeometric form exactcomb evaluates."""
    return Fraction(sym_dim(d, n) * sym_dim(d, k), sym_dim(d, n + k) * sym_dim(d, s)) * Fraction(
        math.comb(k, s) * math.comb(n, s), math.comb(n + k, k)
    )


def tail_term(dims: tuple[int, ...], rank: int, gamma: Fraction, n: int) -> Fraction:
    num = sym_dim(rank, n) * math.prod(sym_dim(d, n) for d in dims)
    return Fraction(num) / (gamma**n * sym_dim(math.prod(dims), n))


def rational_points(rng: random.Random, count: int) -> tuple[Fraction, ...]:
    """Points p/q with q a fixed prime and q < |p| < 2q: already in lowest
    terms and never 1, so every seed gives operands of the same size."""
    primes = (7, 11, 13, 17, 19, 23, 29)[:count]
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(q + 1, 2 * q - 1), q) for q in primes)


# ---------------------------------------------------------------------------
# exact-sweep: Fraction and big-int work, no dense operator
# ---------------------------------------------------------------------------

RESIDUE_PRIME = (1 << 61) - 1
DIGEST_BASE = 1_000_003


def digest(values) -> int:
    """A polynomial hash of a sequence of Fractions modulo RESIDUE_PRIME: pins
    an exact table at the cost of a few small-int operations per entry."""
    h = 0
    for q in values:
        h = ((h * DIGEST_BASE + q.numerator) * DIGEST_BASE + q.denominator) % RESIDUE_PRIME
    return h


# smooth_gap_bound(d, x): the bound as a float, and its numerator and
# denominator modulo RESIDUE_PRIME.  Pinned once after checking the bound
# against the closed form tail_term((d, d), rank, 1 - 1/n, n), which costs as
# much as the call.  The by-design acceptance failure at (3, 1) is checked
# against its value (about 0.6936), not against the paper's threshold.
SMOOTH_GAP_PINNED = {
    (2, 1): (0.24164011777024286, 17039360, 114444950903380220),
    (3, 1): (0.6935521033912855, 464549314707550635, 1611441331713363584),
    (4, 2): (1.1453170217923605, 1819259085373922740, 1297763636893619306),
    (5, 2): (5.490594261099662, 2287176991415648693, 1489463600958595856),
}

EXACT_LADDER = {
    "bench": {
        "definetti": [(3, 1000, 80, True), (3, 5000, 200, False), (2, 20000, 30, True)],
        "tail_nmax": 600,
        "tails": [((2, 3), 2, 300), ((3, 3), 3, 200)],
        "smooth_gap": [(2, 1), (3, 1), (4, 2), (5, 2)],
        "coefficient_grid": (range(2, 6), range(1, 61), range(1, 16), 49524771027999288),
        "jacobi_grid": (range(2, 5), range(1, 26), range(1, 10)),
        "f_overlap_grid": (range(2, 6), range(1, 31), range(1, 11)),
    },
    "smoke": {
        "definetti": [(2, 50, 5, True), (2, 400, 3, True)],
        "tail_nmax": 64,
        "tails": [((2, 3), 2, 20)],
        "smooth_gap": [(2, 1), (3, 1)],
        "coefficient_grid": (range(2, 3), range(1, 4), range(1, 3), 904118557363157590),
        "jacobi_grid": (range(2, 3), range(1, 4), range(1, 3)),
        "f_overlap_grid": (range(2, 3), range(1, 4), range(1, 3)),
    },
}


def _definetti_task(d, n, k, with_identity):
    def task(lib):
        c = lib.definetti.exp_definetti_coefficients(d, n, k, k)
        expect(c.delta == Fraction(k * (d + k), n), "delta != k(d+k)/n")
        expect(c.x[0] == 1 / mp_weight(d, n, k, k), "x_0 != 1/M_kk")
        bounds = lib.definetti.check_coefficient_bounds(c)
        expect(bounds.applicable == (c.delta < 1), "bounds applicability")
        expect(bounds.passed, "coefficient bounds")
        if with_identity:
            expect(lib.definetti.exp_definetti_identity_check(d, n, k, k), "inversion identity")

    return task


def _acceptance_tail_task(nmax):
    """The by-design acceptance failure: the exact values, not the threshold."""

    def task(lib):
        res = lib.concentration.tail_bound(MultiPartition((2, 2)), 1, Fraction(1), nmax)
        expect(
            all(v.numerator * (n + 2) * (n + 3) == 6 * (n + 1) * v.denominator for n, v in res.per_n),
            "tail bound != 6(n+1)/((n+2)(n+3))",
        )
        expect(res.n_star == nmax and res.bound == res.per_n[-1][1], "minimum not at n_max")

    return task


def _tail_task(dims, rank, gamma, nmax):
    def task(lib):
        res = lib.concentration.tail_bound(MultiPartition(dims), rank, gamma, nmax)
        expect(res.gamma == gamma and [n for n, _ in res.per_n] == list(range(1, nmax + 1)), "tail table shape")
        n_best, best = min(res.per_n, key=lambda item: item[1])
        expect(res.n_star == n_best and res.bound == best, "tail minimum")
        for n in sorted({1, nmax // 2, nmax, n_best}):  # the closed form on a sample of the table
            expect(res.per_n[n - 1][1] == tail_term(dims, rank, gamma, n), f"tail term at n={n}")

    return task


def _smooth_gap_task(d, x):
    def task(lib):
        res = lib.concentration.smooth_gap_bound(d, x)
        rank = d * d - 2 * (d - 1) - x
        n = int(round(d ** (2 + 2 * d / x)))
        expect(res.rank == rank and res.n == n and res.gamma == 1 - Fraction(1, n), "rank, n or gamma")
        value, num, den = SMOOTH_GAP_PINNED[(d, x)]
        expect(abs(float(res.bound) / value - 1) <= 1e-12, "bound != pinned value")
        q = res.bound
        expect(q.numerator % RESIDUE_PRIME == num and q.denominator % RESIDUE_PRIME == den, "bound != pinned residue")

    return task


def _coefficient_grid_task(ds, ns, ks, pinned_digest):
    """M_{k,s}(d, n) over the grid, against the digest of the whole table.
    The digest was pinned once after checking every entry against mp_weight
    and every row for summing to one."""

    def task(lib):
        values = [lib.exactcomb.mp_clone_coefficient(d, n, k, s) for d in ds for n in ns for k in ks for s in range(k + 1)]
        expect(digest(values) == pinned_digest, "mp_clone_coefficient table != pinned digest")

    return task


def _jacobi_grid_task(ds, ns, ks, points):
    def task(lib):
        for d in ds:
            for n in ns:
                for k in ks:
                    if k <= n:
                        expect(lib.exactcomb.mp_polynomial_jacobi_identity(d, n, k, points), "Jacobi form")

    return task


F_OVERLAP_STRIDE = 10  # the polynomial reference on every 10th grid point


def _f_overlap_grid_task(ds, ns, ks, points):
    """f(1) against the estimation fidelity everywhere; the full polynomial
    sum_s M_{k,s} dim(s)/dim(k) x^s on a fixed sample of the grid."""

    def task(lib):
        grid = [(d, n, k) for d in ds for n in ns for k in ks]
        for index, (d, n, k) in enumerate(grid):
            values = [lib.channels.f_overlap(d, n, k, x) for x in points]
            fidelity = Fraction(sym_dim(d, n), sym_dim(d, n + k))
            expect(lib.channels.f_overlap(d, n, k, 1) == fidelity, "f(1) != estimation fidelity")
            if index % F_OVERLAP_STRIDE == 0:
                weights = [mp_weight(d, n, k, s) * Fraction(sym_dim(d, s), sym_dim(d, k)) for s in range(k + 1)]
                refs = [sum((w * x**s for s, w in enumerate(weights)), Fraction(0)) for x in points]
                expect(values == refs, "f_overlap")

    return task


def exact_sweep(size: str, seed: int):
    ladder = EXACT_LADDER[size]
    rng = random.Random(seed)
    tasks = [(f"definetti{(d, n, k)}", _definetti_task(d, n, k, ident)) for d, n, k, ident in ladder["definetti"]]
    tasks.append((f"tail_acceptance(nmax={ladder['tail_nmax']})", _acceptance_tail_task(ladder["tail_nmax"])))
    for dims, rank, nmax in ladder["tails"]:
        gamma = Fraction(rng.randint(81, 100), 101)  # 101 is prime: same size for every seed
        tasks.append((f"tail{dims}", _tail_task(dims, rank, gamma, nmax)))
    tasks += [(f"smooth_gap{(d, x)}", _smooth_gap_task(d, x)) for d, x in ladder["smooth_gap"]]
    tasks.append(("coefficient_grid", _coefficient_grid_task(*ladder["coefficient_grid"])))
    tasks.append(("jacobi_grid", _jacobi_grid_task(*ladder["jacobi_grid"], rational_points(rng, 5))))
    tasks.append(("f_overlap_grid", _f_overlap_grid_task(*ladder["f_overlap_grid"], rational_points(rng, 3))))
    return tasks


# ---------------------------------------------------------------------------
# dense-ladder: tensorspace, channels and definetti verifiers on dense operators
# ---------------------------------------------------------------------------

# Ordered so that some rungs are the first to touch a projector size and
# others reuse one built earlier in the same process.
DENSE_LADDER = {
    "bench": [
        ("projector", (3, 6)),
        ("isometry", (64, 2)),
        ("channels", (2, 4, 4)),
        ("chiribella_sym", (2, 5, 5)),
        ("chiribella_sym", (3, 3, 3)),
        ("chiribella_sym", (3, 4, 3)),
        *[("chiribella_full", dnk) for dnk in [(2, 2, 1), (2, 3, 2), (2, 4, 2), (3, 2, 1), (3, 2, 2), (4, 2, 1)]],
        ("projector", (2, 10)),
        ("channels", (2, 5, 5)),
        ("expdefinetti", (2, 6, 4)),
        ("expdefinetti", (3, 4, 3)),
        ("expdefinetti", (2, 7, 4)),
    ],
    "smoke": [
        ("projector", (2, 3)),
        ("isometry", (4, 2)),
        ("channels", (2, 2, 1)),
        ("chiribella_sym", (2, 2, 1)),
        ("chiribella_full", (2, 2, 1)),
        ("expdefinetti", (2, 3, 1)),
    ],
}


def _haar_vector(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    return v / np.linalg.norm(v)


def _power_coords(lib, psi: np.ndarray, n: int) -> np.ndarray:
    """psi^(x n) in the type basis: <t|psi^(x n)> = sqrt(M(n,t)) prod_a psi_a^t_a."""
    types = lib.exactcomb.enumerate_types(len(psi), n)
    out = np.empty(len(types), dtype=complex)
    for i, t in enumerate(types):
        counts = tuple(t)
        out[i] = math.sqrt(multinomial(n, counts)) * np.prod(psi ** np.array(counts))
    return out


def _act(matrix: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a superoperator matrix to a column-stacked density matrix."""
    side = math.isqrt(matrix.shape[0])
    return (matrix @ rho.reshape(-1, order="F")).reshape(side, side, order="F")


def _projector_task(d, n):
    def task(lib):
        proj = lib.tensorspace.sym_projector_group(d, n).entries
        iso = lib.tensorspace.type_isometry(d, n).entries
        expect(iso.shape == (d**n, sym_dim(d, n)), "isometry shape")
        expect(abs(np.trace(proj).real - sym_dim(d, n)) <= 1e-8, "trace != sym_dim")
        expect(np.linalg.norm(iso @ iso.conj().T - proj) <= TOL, "V V^dag != group average")

    return task


def _isometry_task(d, n):
    def task(lib):
        iso = lib.tensorspace.type_isometry(d, n).entries
        expect(iso.shape == (d**n, sym_dim(d, n)), "isometry shape")
        # one type per string: columns have disjoint supports, so unit
        # column norms make V an isometry
        expect(((iso != 0).sum(axis=1) == 1).all(), "a string in two types")
        expect(np.abs(np.linalg.norm(iso, axis=0) - 1).max() <= 1e-12, "column norms")

    return task


def _channels_task(d, n, k, seed):
    def task(lib):
        gen = np.random.default_rng(seed)
        psi = _haar_vector(gen, d)
        c = float(Fraction(sym_dim(d, n), sym_dim(d, n + k)))
        cases = [  # entry point, copies in, copies out, fidelity on psi^(x n)
            ("mp_channel_sym", lib.channels.mp_channel_sym(d, n, k), n, k, c),
            ("clone_channel_sym", lib.channels.clone_channel_sym(d, n, k), n, n + k, c),
            ("trace_channel_sym", lib.channels.trace_channel_sym(d, n + k, k), n + k, k, 1.0),
        ]
        for name, channel, n_in, n_out, fidelity in cases:
            dim_in, dim_out = sym_dim(d, n_in), sym_dim(d, n_out)
            expect(channel.matrix.shape == (dim_out**2, dim_in**2), f"{name} shape")
            x_in = _power_coords(lib, psi, n_in)
            out = _act(channel.matrix, np.outer(x_in, x_in.conj()))
            x_out = _power_coords(lib, psi, n_out)
            expect(abs(np.trace(out) - 1) <= TOL, f"{name} not trace preserving on a pure input")
            expect(abs(np.vdot(x_out, out @ x_out) - fidelity) <= TOL, f"{name} fidelity")
            g = gen.standard_normal((dim_in, dim_in)) + 1j * gen.standard_normal((dim_in, dim_in))
            mixed = g @ g.conj().T
            out = _act(channel.matrix, mixed / np.trace(mixed))
            expect(abs(np.trace(out) - 1) <= TOL, f"{name} not trace preserving on a mixed input")

    return task


def _chiribella_task(d, n, k, representation):
    def task(lib):
        residual = lib.channels.verify_chiribella(d, n, k, representation)
        expect(residual <= TOL, "exchange identity residual")

    return task


def _expdefinetti_task(d, n, k):
    def task(lib):
        expect(lib.definetti.verify_exp_definetti(d, n, k) <= TOL, "inversion identity residual")

    return task


def dense_ladder(size: str, seed: int):
    tasks = []
    for index, (kind, params) in enumerate(DENSE_LADDER[size]):
        if kind == "projector":
            task = _projector_task(*params)
        elif kind == "isometry":
            task = _isometry_task(*params)
        elif kind == "channels":
            task = _channels_task(*params, seed=[seed, index])
        elif kind == "chiribella_sym":
            task = _chiribella_task(*params, "sym")
        elif kind == "chiribella_full":
            task = _chiribella_task(*params, "full")
        else:
            task = _expdefinetti_task(*params)
        tasks.append((f"{kind}{params}", task))
    return tasks


# ---------------------------------------------------------------------------
# monte-carlo: seeded randomness and concentration sampling
# ---------------------------------------------------------------------------

MC_LADDER = {
    "bench": {
        "projector_moment": (64, 8, 3, 200_000),
        "power_mean_samples": 100_000,
        "schmidt": (32, 4000, 0.2),
        "product_free": ((2, 3), 2, 32, 8),
        "span_rank": [(2, 3), (3, 2)],
        "mu_samples": 20_000,
    },
    "smoke": {
        "projector_moment": (4, 1, 2, 2_000),
        "power_mean_samples": 2_000,
        "schmidt": (4, 200, 0.2),
        "product_free": ((2, 3), 2, 2, 1),
        "span_rank": [(2, 2)],
        "mu_samples": 2_000,
    },
}

# (sampler kind, d, n, exact moment operator in symsub.randomness)
POWER_MEANS = [
    ("haar", 2, 3, "haar_moment_operator"),
    ("haar", 3, 2, "haar_moment_operator"),
    ("real-unit", 3, 2, "real_unit_moment_operator"),
    ("gaussian-real", 3, 2, "real_gaussian_moment_operator"),
    ("gaussian-complex", 2, 3, "complex_gaussian_moment_operator"),
]


def _sampler(kind: str, d: int):
    if kind == "haar":
        return lambda gen, m: _randomness.haar_state_batch(d, gen, m)
    field = kind.split("-")[1]
    return lambda gen, m: _randomness.gaussian_batch(d, field, gen, m)


def _projector_moment_task(dim, rank, n, samples, stream):
    def task(lib):
        est = lib.randomness.mc_projector_moment(dim, rank, n, samples, stream)
        exact = Fraction(sym_dim(rank, n), sym_dim(dim, n))
        expect(est.samples == samples, "sample count")
        expect(abs(est.mean - float(exact)) <= MC_GATE * est.stderr, "moment outside 5 stderr")

    return task


def _power_mean_task(kind, d, n, exact_name, samples, stream):
    def task(lib):
        if kind == "real-unit":
            est = lib.randomness.mc_real_unit_moment(d, n, samples, stream)
        else:
            est = lib.randomness.mc_tensor_power_mean(_sampler(kind, d), n, samples, stream)
        exact = getattr(lib.randomness, exact_name)(d, n)
        residual = np.linalg.norm(est.mean.entries - exact.entries)
        expect(est.samples == samples, "sample count")
        expect(residual <= MC_GATE * est.frob_stderr, "mean tensor power outside 5 stderr")

    return task


def _schmidt_task(d, samples, eps, stream):
    def task(lib):
        rep = lib.concentration.experiment_schmidt_tail(d, samples, eps, stream)
        expect(rep.samples == samples and rep.fraction <= rep.bound, "Schmidt tail above its bound")
        expect(abs(rep.threshold - 16 / (math.e * d) * math.exp(eps)) <= 1e-12, "Schmidt threshold")
        expect(1 / d - 1e-12 <= rep.mean_top_schmidt <= 1 + 1e-12, "mean top Schmidt coefficient")

    return task


BLOCH_GRID = 1000  # Fibonacci points on the Bloch sphere of the qubit party


def _qubit_grid(points: int) -> np.ndarray:
    """States (cos(t/2), e^{ip} sin(t/2)) at a Fibonacci lattice of Bloch
    vectors; every Bloch vector lies within an angle sqrt(4 pi / points) of
    one of them (the measured covering radius is 0.77 of that)."""
    i = np.arange(points)
    z = 1 - (2 * i + 1) / points
    phase = np.exp(1j * i * math.pi * (3 - math.sqrt(5)))
    return np.stack([np.sqrt((1 + z) / 2), phase * np.sqrt((1 - z) / 2)], axis=1)


def _product_free_task(dims, rank, restarts, trials, stream):
    """Brackets every trial's nu_max by an independent grid search.

    Trial t draws its projector P from stream.split(t).  For a qubit state a,
    the best overlap over the other party is the top eigenvalue f(a) of
    (<a| x 1) P (|a> x 1).  The grid maximum g is reached by a product state,
    so the ascent, which claims the maximum, returns at least g.  Moving a
    through a Bloch angle h from the maximiser lowers f by at most sin^2(h/2),
    so nu_max <= g + sin^2(h/2) with h the grid's covering radius."""
    assert len(dims) == 2 and dims[0] == 2, "the grid covers a qubit first party"
    grid = _qubit_grid(BLOCH_GRID)
    slack = math.sin(math.sqrt(4 * math.pi / BLOCH_GRID) / 2) ** 2

    def task(lib):
        part = MultiPartition(dims)
        rep = lib.concentration.experiment_product_free(part, rank, restarts, stream, trials=trials)
        met = math.prod(dims) > rank + sum(d - 1 for d in dims)
        expect(rep.threshold_met == met and met, "dimension threshold")
        expect(len(rep.overlaps) == trials, "trial count")
        for t, overlap in enumerate(rep.overlaps):
            proj = _randomness.random_projector(part.total, rank, stream.split(t)).entries
            contracted = np.einsum("ma,aibj,mb->mij", grid.conj(), proj.reshape(dims + dims), grid)
            g = np.linalg.eigvalsh(contracted)[:, -1].max()
            expect(g - 1e-9 <= overlap <= g + slack, f"trial {t}: nu_max {overlap:.6f} outside [{g:.6f}, +{slack:.4f}]")

    return task


def _span_rank_task(d, n, stream):
    def task(lib):
        rank = lib.tensorspace.tensor_power_span_rank(d, n, sym_dim(d, n) ** 2 + 20, stream)
        expect(rank == sym_dim(d, n) ** 2, "span rank != sym_dim^2")

    return task


def _mu_exact_task(samples, stream, seed):
    """mu_exact on a random rank-2 projector of C^2 (x) C^2: n = 1 against r/D
    exactly, n = 3 against an independent sampled estimate."""

    def task(lib):
        part = MultiPartition((2, 2))
        proj = lib.randomness.random_projector(4, 2, stream).entries
        op = Operator(proj, (2, 2), (2, 2))
        expect(abs(lib.concentration.mu_exact(op, part, 1) - 0.5) <= TOL, "mu_1 != r/D")
        mu3 = lib.concentration.mu_exact(op, part, 3)
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((samples, 2)) + 1j * gen.standard_normal((samples, 2))
        b = gen.standard_normal((samples, 2)) + 1j * gen.standard_normal((samples, 2))
        phi = (a[:, :, None] * b[:, None, :]).reshape(samples, 4)
        phi /= np.linalg.norm(phi, axis=1, keepdims=True)
        cubes = np.einsum("mi,ij,mj->m", phi.conj(), proj, phi).real ** 3
        expect(abs(mu3 - cubes.mean()) <= MC_GATE * cubes.std() / math.sqrt(samples), "mu_3 outside 5 stderr")

    return task


def monte_carlo(size: str, seed: int):
    ladder = MC_LADDER[size]
    streams = (RngStream(seed, stream_id) for stream_id in range(1, 1000))
    tasks = [("projector_moment", _projector_moment_task(*ladder["projector_moment"], next(streams)))]
    for kind, d, n, exact_name in POWER_MEANS:
        task = _power_mean_task(kind, d, n, exact_name, ladder["power_mean_samples"], next(streams))
        tasks.append((f"power_mean_{kind}{(d, n)}", task))
    tasks.append(("schmidt_tail", _schmidt_task(*ladder["schmidt"], next(streams))))
    # nu_max's ascent converges in a number of steps that depends on the draw:
    # across seeds the same 8 trials took 0.46-0.79 s.  A fixed stream keeps
    # that out of wall_s; every other stream follows the seed.
    tasks.append(("product_free", _product_free_task(*ladder["product_free"], RngStream(0, 1000))))
    tasks += [(f"span_rank{dn}", _span_rank_task(*dn, next(streams))) for dn in ladder["span_rank"]]
    tasks.append(("mu_exact", _mu_exact_task(ladder["mu_samples"], next(streams), seed)))
    return tasks


# ---------------------------------------------------------------------------
# cli-readme: the README's commands, each a fresh `symsub` process
# ---------------------------------------------------------------------------

def _readme_commands():
    """(argv, pinned check values, pinned table column) for each README command.

    `mc productfree --dims 2,3 --r 2` exits 1 at its default seed; it stays in
    the list and counts as a failed task."""
    per_n = [format(float(Fraction(6 * (n + 1), (n + 2) * (n + 3))), ".17g") for n in range(1, 65)]
    return [
        ("dims --d 2 --n 3", {"sym_dim": 4, "type_count": 4}, None),
        ("coeffs --d 2 --n 4 --k 2", {"coefficients_sum_to_one": "1/1"},
         ("mp_clone_coefficients", 1, [show(mp_weight(2, 4, 2, s)) for s in range(3)])),
        ("verify psym --d 2 --n 3", {}, None),
        ("verify spans --d 2 --n 2", {"span_rank": sym_dim(2, 2) ** 2}, None),
        ("verify commutant-dim --d 2 --n 4", {"commutant_dimension": sym_dim(4, 4)}, None),
        ("verify chiribella --d 2 --n 2 --k 1", {"exact_coefficient_identity": True}, None),
        ("verify jacobi --d 3 --n 4 --k 2", {"jacobi_form_identity": True}, None),
        ("verify wick --field real --d 3 --n 2", {}, None),
        ("verify expdefinetti --d 2 --n 4 --k 1", {}, None),
        ("definetti eps --d 2 --n 100 --k 1", {"epsilon": "1/34"}, None),
        ("definetti coeffs --d 2 --n 4 --k 1", {"exact_inversion_identity": True, "delta": "3/4"},
         ("coefficients", 2, ["3/2", "-1/2"])),
        ("bound tail --dims 2,2 --r 1 --gamma 1 --nmax 64 --format csv",
         {"minimizing_n": "64", "min_bound": "65/737"}, ("per_n", 1, per_n)),
        ("bound smoothgap --d 2 --x 1",
         {"rank": 1, "gamma": "63/64", "bound_value": show(tail_term((2, 2), 1, Fraction(63, 64), 64))}, None),
        ("mc moment --D 4 --r 1 --n 2", {}, None),
        ("mc schmidt --d 16 --eps 0.2 --samples 10000", {}, None),
        ("mc productfree --dims 2,3 --r 2", {"dimension_threshold_met": True}, None),
        ("mc meanpower --dist haar --d 2 --n 2", {}, None),
    ]


def _parse_report(stdout: str, is_csv: bool):
    """(verdict, {check: actual}, {table: rows}) from a JSON or CSV report."""
    if not is_csv:
        doc = json.loads(stdout)
        tables = {name: t["rows"] for name, t in doc.get("tables", {}).items()}
        return doc["verdict"], {c["name"]: c["actual"] for c in doc["checks"]}, tables
    verdict, checks, tables = None, {}, {}
    for row in csv.reader(io.StringIO(stdout)):
        if row[0] == "verdict":
            verdict = row[1]
        elif row[0] == "check":
            checks[row[1]] = row[3]
        elif row[0] != "table":
            tables.setdefault(row[0], []).append(row[1:])
    if verdict is None:
        raise ValueError("CSV report without a verdict line")
    return verdict, checks, tables


def _cli_task(argv: str, pinned: dict, table):
    def task(lib):
        src = os.path.dirname(os.path.dirname(os.path.abspath(symsub.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        with lib.tracer.span("cli.subprocess"):
            proc = subprocess.run(
                [sys.executable, "-m", "symsub.cli", *argv.split()],
                capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S,
            )
            if proc.returncode != 0:
                lib.tracer.counters["cli.exit_nonzero"] += 1
            verdict, checks, tables = _parse_report(proc.stdout, "--format csv" in argv)
        for name, value in pinned.items():
            expect(checks.get(name) == value, f"{argv}: check {name}")
        if table is not None:
            name, column, values = table
            expect([row[column] for row in tables.get(name, [])] == values, f"{argv}: table {name}")
        if proc.returncode != 0:
            raise CommandFailed(f"{argv}: exit {proc.returncode}, verdict {verdict}")
        expect(verdict == "pass", f"{argv}: exit 0 with verdict {verdict}")

    return task


def cli_readme(size: str, seed: int):
    commands = _readme_commands()
    random.Random(seed).shuffle(commands)
    return [(f"cli {argv}", _cli_task(argv, pinned, table)) for argv, pinned, table in commands]


def tasks(workload: str, size: str, seed: int):
    builders = {
        "exact-sweep": exact_sweep,
        "dense-ladder": dense_ladder,
        "monte-carlo": monte_carlo,
        "cli-readme": cli_readme,
    }
    return builders[workload](size, seed)
