"""Batch verification front-end.

Each subcommand runs one family of checks and prints a machine-readable report
(JSON by default, CSV for tabular data with --format csv).  Exit status: 0 when
every check passes, 1 on any failed check, 2 on usage errors and on values the
library rejects as out of range, 3 when a dimension guard refuses the
requested size.

Every command is declared once, in ``_COMMANDS``: its path, help text, handler
and report params.  Its flags are the params found in ``_FLAGS`` (plus any
extra ones), so a flag's range and default are also written once.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import exactcomb
from .guards import DimensionGuardError, guard_matchings, set_max_dim

if TYPE_CHECKING:
    from .randomness import RngStream

# every other module loads inside the handlers that use it: the exact commands
# never import numpy, and dims, coeffs, verify jacobi and verify commutant-dim
# never import dataclasses (concentration and definetti declare dataclasses)

SCHEMA_VERSION = 1


def _fmt(value):
    if isinstance(value, Fraction):
        # huge exact rationals (tail bounds at large n) fall back to floats
        if value.numerator.bit_length() > 12000 or value.denominator.bit_length() > 12000:
            return format(float(value), ".17g")
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


class Report:
    def __init__(self, command: str, tol_scale: float = 1.0):
        self.command = command
        self.tol_scale = tol_scale
        self.params: dict = {}
        self.checks: list[dict] = []
        self.tables: dict[str, list] = {}
        self.start = time.monotonic()

    def check(self, name: str, expected, actual, tolerance=None, passed=None) -> bool:
        if passed is None:
            passed = expected == actual
        entry = {
            "name": name,
            "expected": _fmt(expected),
            "actual": _fmt(actual),
            "tolerance": _fmt(tolerance),
            "pass": bool(passed),
        }
        self.checks.append(entry)
        return bool(passed)

    def within(self, name: str, actual, tolerance: float, expected=0.0) -> bool:
        """Residual check: passes when |actual - expected| <= tolerance * tol_scale."""
        tol = tolerance * self.tol_scale
        return self.check(name, expected, actual, tolerance=tol, passed=abs(actual - expected) <= tol)

    def table(self, name: str, header: list[str], rows) -> None:
        self.tables[name] = {"header": header, "rows": [[_fmt(v) for v in row] for row in rows]}

    @property
    def verdict(self) -> str:
        return "pass" if all(c["pass"] for c in self.checks) else "fail"

    def emit(self, fmt: str) -> int:
        elapsed_ms = int((time.monotonic() - self.start) * 1000)
        if fmt == "csv":
            import csv

            out = csv.writer(sys.stdout, lineterminator="\n")
            for name, table in self.tables.items():
                out.writerow(["table", name, *table["header"]])
                out.writerows([name, *map(str, row)] for row in table["rows"])
            out.writerows(["check", *map(str, c.values())] for c in self.checks)
            out.writerow(["verdict", self.verdict])
        else:
            doc = {
                "schema": SCHEMA_VERSION,
                "command": self.command,
                "params": self.params,
                "checks": self.checks,
                "verdict": self.verdict,
                "elapsed_ms": elapsed_ms,
            }
            if self.tables:
                doc["tables"] = self.tables
            print(json.dumps(doc, indent=2))
        return 0 if self.verdict == "pass" else 1


def _stream(args) -> RngStream:
    from .randomness import RngStream

    return RngStream(seed=args.seed)


def _parse_dims(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


# ---------------------------------------------------------------------------
# command handlers: each adds its checks and tables to the report main opened
# ---------------------------------------------------------------------------

def cmd_dims(args, rep: Report) -> None:
    count = len(exactcomb.enumerate_types(args.d, args.n))  # its guard refuses before any count below
    value = exactcomb.sym_dim(args.d, args.n)
    rep.check("sym_dim", value, value)
    rep.check("rising_factorial_form", Fraction(value), exactcomb.rising_factorial_dim(args.d, args.n))
    rep.check("type_count", value, count)


def cmd_coeffs(args, rep: Report) -> None:
    coeffs = [exactcomb.mp_clone_coefficient(args.d, args.n, args.k, s) for s in range(args.k + 1)]
    rep.table("mp_clone_coefficients", ["s", "coefficient"], list(enumerate(coeffs)))
    rep.check("coefficients_sum_to_one", Fraction(1), sum(coeffs, Fraction(0)))


def cmd_verify_psym(args, rep: Report) -> None:
    import numpy as np

    from . import tensorspace

    mat = tensorspace.sym_projector_group(args.d, args.n).entries
    rep.within("trace", float(np.trace(mat).real), 1e-8, expected=exactcomb.sym_dim(args.d, args.n))
    # one scratch matrix tmp takes every residual below, so the peak is two projectors; mat is
    # float64, so mat.T is its adjoint
    tmp = np.matmul(mat, mat)
    rep.within("idempotence_frobenius", float(np.linalg.norm(np.subtract(tmp, mat, out=tmp))), 1e-10)
    rep.within("hermiticity_max_entry", float(np.abs(np.subtract(mat, mat.T, out=tmp), out=tmp).max()), 1e-12)
    iso = tensorspace.type_isometry(args.d, args.n).entries
    np.matmul(iso, iso.T, out=tmp)
    rep.within("type_basis_agreement_frobenius", float(np.linalg.norm(np.subtract(tmp, mat, out=tmp))), 1e-12)
    gen = _stream(args).generator()
    # P(pi) moves row x of mat to row t[x], t its index map, so P(pi) mat - mat holds the rows of mat - mat[t];
    # t permutes the rows, so mode="clip" changes no index and spares numpy a buffered copy of out
    worst = 0.0
    for _ in range(10):
        t = tensorspace.permutation_index_map(args.d, tensorspace.Permutation(gen.permutation(args.n)))
        np.take(mat, t, axis=0, out=tmp, mode="clip")
        worst = max(worst, float(np.abs(np.subtract(mat, tmp, out=tmp), out=tmp).max()))
    rep.within("permutation_invariance_max_entry", worst, 1e-12)


def cmd_verify_spans(args, rep: Report) -> None:
    from . import tensorspace

    expected = exactcomb.sym_dim(args.d, args.n) ** 2
    samples = expected + 20 if args.samples is None else args.samples
    rep.check("span_rank", expected, tensorspace.tensor_power_span_rank(args.d, args.n, samples, _stream(args)))


def cmd_verify_commutant(args, rep: Report) -> None:
    got = exactcomb.conjugation_fixed_dimension(args.d, args.n)
    rep.check("commutant_dimension", exactcomb.sym_dim(args.d**2, args.n), got)


def cmd_verify_chiribella(args, rep: Report) -> None:
    from . import channels

    try:  # verify_chiribella asserts the exact coefficient identity before it takes the residual
        residual = channels.verify_chiribella(args.d, args.n, args.k, args.representation)
    except ArithmeticError:
        residual = None
    if rep.check("exact_coefficient_identity", True, residual is not None):
        rep.within("channel_identity_frobenius", residual, 1e-10)


def cmd_verify_jacobi(args, rep: Report) -> None:
    rep.check("jacobi_form_identity", True, exactcomb.mp_polynomial_jacobi_identity(args.d, args.n, args.k))


def cmd_verify_wick(args, rep: Report) -> None:
    import numpy as np

    from . import randomness, tensorspace

    if args.field == "complex":
        exact = randomness.complex_gaussian_moment_operator(args.d, args.n)
    else:
        guard_matchings(args.n)  # keeps the n <= 6 cap: it bounds the n! loop of the check below
        exact = randomness.real_gaussian_moment_operator(args.d, args.n)
        dim, worst = args.d**args.n, 0.0
        for pi in tensorspace.all_permutations(args.n):
            # both operators are 0/1 matrices, equal (max entry 0) iff they hold the same (row, col) pairs
            rows, cols = tensorspace.matching_index_pairs(args.d, tensorspace.matching_from_permutation(pi))
            same = np.array_equal(np.sort(rows * dim + cols),
                                  np.sort(tensorspace.permutation_index_map(args.d, pi) * dim + np.arange(dim)))
            worst = max(worst, 0.0 if same else 1.0)
        rep.within("matching_vs_permutation_max_entry", worst, 0.0)
    est = randomness.mc_tensor_power_mean(
        lambda gen, m: randomness.gaussian_batch(args.d, args.field, gen, m),
        args.n, args.samples, _stream(args),
    )
    rep.within("gaussian_moment_frobenius", tensorspace.frobenius_distance(est.mean, exact), 5 * est.frob_stderr)


def cmd_definetti_eps(args, rep: Report) -> None:
    from . import definetti

    eps = definetti.definetti_epsilon(args.d, args.n, args.k)
    rep.check("epsilon", eps, eps)
    rep.check("epsilon_at_most_one", True, eps <= 1, passed=True)  # informational flag
    m_kk = exactcomb.mp_clone_coefficient(args.d, args.n, args.k, args.k)
    if eps <= 1:
        rep.check("one_minus_diagonal_below_epsilon", True, 1 - m_kk <= eps)


def cmd_definetti_coeffs(args, rep: Report) -> None:
    from . import definetti

    if args.r is None:
        args.r = args.k
    coeffs = definetti.exp_definetti_coefficients(args.d, args.n, args.k, args.r)
    bounds = definetti.check_coefficient_bounds(coeffs)
    rows = []
    for kind, values, first, details in (
        ("x", coeffs.x, 0, bounds.x_details), ("y", coeffs.y, args.r, bounds.y_details)
    ):
        for i, value in enumerate(values):
            bound, ok = details[i][2:] if bounds.applicable else ("", "n/a")
            rows.append([first + i, kind, value, bound, ok])
    rep.table("coefficients", ["s", "kind", "value", "bound", "pass"], rows)
    rep.check("exact_inversion_identity", True, definetti.exp_definetti_identity_check(args.d, args.n, args.k, args.r))
    rep.check("delta", coeffs.delta, coeffs.delta)
    rep.check("truncation_tail_abs_sum", bounds.truncation_tail, bounds.truncation_tail)
    if bounds.applicable:
        rep.check("coefficient_bounds", True, bounds.passed)


def cmd_verify_expdefinetti(args, rep: Report) -> None:
    from . import definetti

    rep.within("inversion_identity_frobenius", definetti.verify_exp_definetti(args.d, args.n, args.k), 1e-10)


def cmd_bound_tail(args, rep: Report) -> None:
    from . import concentration

    part = concentration.MultiPartition(_parse_dims(args.dims))
    result = concentration.tail_bound(part, args.r, args.gamma, args.nmax)
    rep.table("per_n", ["n", "bound"], [[n, float(v)] for n, v in result.per_n])
    rep.check("all_terms_positive", True, all(v > 0 for _, v in result.per_n))
    rep.check("minimizing_n", result.n_star, result.n_star)
    rep.check("min_bound", result.bound, result.bound)


def cmd_bound_smoothgap(args, rep: Report) -> None:
    from . import concentration

    result = concentration.smooth_gap_bound(args.d, args.x)
    rep.check("rank", result.rank, result.rank)
    rep.check("gamma", result.gamma, result.gamma)
    rep.check("bound_below_d_to_minus_d", True, result.satisfied, tolerance=result.threshold, passed=result.satisfied)
    rep.check("bound_value", result.bound, result.bound)


def cmd_mc_moment(args, rep: Report) -> None:
    from . import randomness

    est = randomness.mc_projector_moment(args.D, args.r, args.n, args.samples, _stream(args))
    exact = float(randomness.projector_moment_exact(args.D, args.r, args.n))
    z = abs(est.mean - exact) / est.stderr if est.stderr > 0 else 0.0
    rep.within("estimate", est.mean, 5 * est.stderr, expected=exact)
    rep.within("z_score", z, 5.0)


def cmd_mc_schmidt(args, rep: Report) -> None:
    from . import concentration

    result = concentration.experiment_schmidt_tail(args.d, args.samples, args.eps, _stream(args))
    rep.check("exceedance_fraction", 0.0, result.fraction, tolerance=result.bound, passed=result.passed)
    rep.check("mean_top_schmidt", result.mean_top_schmidt, result.mean_top_schmidt)
    rep.check("threshold", result.threshold, result.threshold)


def cmd_mc_productfree(args, rep: Report) -> None:
    from . import concentration

    part = concentration.MultiPartition(_parse_dims(args.dims))
    result = concentration.experiment_product_free(part, args.r, args.restarts, _stream(args), trials=args.trials)
    rep.check("dimension_threshold_met", result.threshold_met, result.threshold_met)
    if result.threshold_met:
        bound = float(result.bound)
        gamma = concentration.PRODUCT_FREE_GAMMA
        rep.check("gamma", gamma, gamma)
        rep.check("trials_at_or_above_gamma", result.exceedances, result.exceedances)
        rep.check("tail_bound", bound, bound)
        rep.check("exceedance_fraction", 0.0, Fraction(result.exceedances, result.trials),
                  tolerance=bound, passed=result.passed)
        rep.check("max_product_overlap", result.max_overlap, result.max_overlap)


def cmd_mc_meanpower(args, rep: Report) -> None:
    from . import randomness, tensorspace

    if args.dist == "haar":
        sampler = lambda gen, m: randomness.haar_state_batch(args.d, gen, m)
        exact = randomness.haar_moment_operator(args.d, args.n)
    else:
        sampler = lambda gen, m: randomness.real_unit_batch(args.d, gen, m)
        exact = randomness.real_unit_moment_operator(args.d, args.n)
    est = randomness.mc_tensor_power_mean(sampler, args.n, args.samples, _stream(args))
    rep.within("mean_power_frobenius", tensorspace.frobenius_distance(est.mean, exact), 5 * est.frob_stderr)
    if args.dump_operator:
        rep.table("mean_operator", ["json"], [[json.dumps(tensorspace.operator_to_json(est.mean))]])


# ---------------------------------------------------------------------------
# flag and command tables
# ---------------------------------------------------------------------------

def _int_at_least(low: int, what: str):
    """argparse type: an integer >= low; anything else is a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    parse.__name__ = what  # argparse names the type in its error message
    return parse


_positive_int = _int_at_least(1, "positive integer")
_nonnegative_int = _int_at_least(0, "nonnegative integer")


def _positive_fraction(text: str) -> Fraction:
    """argparse type: a positive rational such as 9/10 or 0.9."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 9/10 or 0.9, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive rational, got {text!r}")
    return value


def _positive_finite_float(text: str) -> float:
    """argparse type: a positive finite float such as 1e-3 (not 0, inf or nan)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number like 2 or 1e-3, got {text!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


# the argparse settings of every command flag, declared once
_FLAGS = {
    "d": dict(type=_positive_int, required=True),
    "n": dict(type=_nonnegative_int, required=True),
    "k": dict(type=_nonnegative_int, required=True),
    "D": dict(type=_positive_int, required=True),
    "r": dict(type=_positive_int, required=True),
    "x": dict(type=_positive_int, required=True),
    "nmax": dict(type=_positive_int, default=64),
    "restarts": dict(type=_positive_int, default=32),
    "trials": dict(type=_positive_int, default=20),
    "dims": dict(type=str, required=True, help="comma-separated subsystem dimensions"),
    "gamma": dict(type=_positive_fraction, required=True, help="overlap threshold (rational like 9/10 or decimal)"),
    "eps": dict(type=_positive_finite_float, required=True),
    "field": dict(choices=("real", "complex"), required=True),
    "dist": dict(choices=("haar", "real-unit"), required=True),
    "representation": dict(choices=("sym", "full"), default="sym"),
    "dump-operator": dict(action="store_true", help="embed the mean operator as JSON"),
}


class _Command(NamedTuple):
    path: str
    summary: str
    handler: Callable
    params: str  # report params in report order; those in _FLAGS are the command's flags
    extra_flags: str = ""  # flags that are not report params
    overrides: dict | None = None  # flag -> argparse settings replacing its _FLAGS entry


_GROUPS = {
    "verify": "identity checks",
    "definetti": "de Finetti error coefficients",
    "bound": "tail bounds",
    "mc": "Monte Carlo experiments",
}

_COMMANDS = (
    _Command("dims", "symmetric subspace dimension and type-count identities", cmd_dims, "d n"),
    _Command("coeffs", "hypergeometric clone/measure-and-prepare coefficient table", cmd_coeffs, "d n k"),
    _Command("verify psym", "group-average projector: trace, idempotence, type-basis agreement",
             cmd_verify_psym, "d n"),
    _Command("verify spans", "tensor powers span the operator space of the symmetric subspace",
             cmd_verify_spans, "d n seed"),
    _Command("verify commutant-dim", "commutant dimension of the permutation action equals sym_dim(d^2, n)",
             cmd_verify_commutant, "d n"),
    _Command("verify chiribella", "Chiribella's identity: measure-and-prepare as a clone/trace mixture",
             cmd_verify_chiribella, "d n k representation"),
    _Command("verify jacobi", "Jacobi-polynomial form of the coefficient polynomial, exactly",
             cmd_verify_jacobi, "d n k"),
    _Command("verify wick", "Gaussian tensor-power moments against Wick/matching formulas",
             cmd_verify_wick, "field d n samples seed"),
    _Command("verify expdefinetti", "exact inversion: trace-down equals the signed clone/measure mixture",
             cmd_verify_expdefinetti, "d n k"),
    _Command("definetti eps", "two-term de Finetti error coefficient k(d+k)/(n+d)", cmd_definetti_eps, "d n k"),
    _Command("definetti coeffs", "exponential-decomposition coefficient recursion with exact bounds",
             cmd_definetti_coeffs, "d n k r",
             overrides={"r": dict(type=_nonnegative_int, default=None, help="inversion steps (default k)")}),
    _Command("bound tail", "moment tail bound per n for a random rank-r projector", cmd_bound_tail,
             "dims r gamma nmax"),
    _Command("bound smoothgap", "near-critical-rank single-n tail evaluation", cmd_bound_smoothgap, "d x"),
    _Command("mc moment", "projector overlap moment against the exact ratio", cmd_mc_moment,
             "D r n samples seed"),
    _Command("mc schmidt", "largest-Schmidt-coefficient tail of random bipartite states", cmd_mc_schmidt,
             "d eps samples seed"),
    _Command("mc productfree", "random subspaces below the product-state dimension threshold",
             cmd_mc_productfree, "dims r restarts trials seed"),
    _Command("mc meanpower", "tensor-power mean of unit vectors against the exact operator",
             cmd_mc_meanpower, "dist d n samples seed", extra_flags="dump-operator"),
)


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags accepted before or after the subcommand; the subparser
    copies use SUPPRESS defaults so they never clobber values parsed earlier."""
    default = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--seed", type=_nonnegative_int, default=default(0), help="random seed for all sampling")
    parser.add_argument("--samples", type=_positive_int, default=default(None),
                        help="Monte Carlo sample count (default 100000; verify spans: sym_dim^2 + 20)")
    parser.add_argument("--tol-scale", type=_positive_finite_float, default=default(1.0),
                        help="multiply default tolerances")
    parser.add_argument("--max-dim", type=_positive_int, default=default(None),
                        help="override the dense-operator size cap")
    parser.add_argument("--format", choices=("json", "csv"), default=default("json"), help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsub",
        description="Verify symmetric-subspace identities: projectors, cloning and "
        "measure-and-prepare channels, de Finetti coefficient recursions, Gaussian "
        "moment formulas, and moment-method tail bounds.",
    )
    _add_global_options(parser, suppress=False)
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for spec in _COMMANDS:
        *group, name = spec.path.split()
        if group and group[0] not in groups:  # verify, definetti, bound, mc: made on first use
            groups[group[0]] = top.add_parser(group[0], help=_GROUPS[group[0]]).add_subparsers(
                dest="sub", required=True
            )
        p = (groups[group[0]] if group else top).add_parser(name, help=spec.summary)
        overrides = spec.overrides or {}
        for flag in [f for f in spec.params.split() if f in _FLAGS] + spec.extra_flags.split():
            p.add_argument(f"--{flag}", **overrides.get(flag, _FLAGS[flag]))
        _add_global_options(p, suppress=True)
        p.set_defaults(spec=spec)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = args.spec
    if args.samples is None and "samples" in spec.params.split():  # verify spans picks its own default
        args.samples = 100_000
    report = Report(spec.path, args.tol_scale)
    if args.max_dim is not None:
        set_max_dim(args.max_dim)
    try:
        spec.handler(args, report)
    except (DimensionGuardError, MemoryError) as exc:  # an allocation numpy refuses is a size refusal
        print(f"dimension guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"symsub: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.max_dim is not None:
            set_max_dim(None)
    # read after the handler, which may resolve a param (the default r)
    report.params = {name: _fmt(getattr(args, name)) for name in spec.params.split()}
    return report.emit(args.format)


if __name__ == "__main__":
    sys.exit(main())
