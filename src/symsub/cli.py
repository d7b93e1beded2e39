"""Batch verification front-end.

Each subcommand runs one family of checks and prints a machine-readable report
(JSON by default, CSV for tabular data with --format csv).  Exit status: 0 when
every check passes, 1 on any failed check, 2 on usage errors and on values the
library rejects as out of range, 3 when a dimension guard refuses the
requested size.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import channels, concentration, definetti, exactcomb, randomness, tensorspace
from .guards import DimensionGuardError, set_max_dim

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
    def __init__(self, command: str, params: dict):
        self.command = command
        self.params = {k: _fmt(v) for k, v in params.items()}
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

    def table(self, name: str, header: list[str], rows: list[list]) -> None:
        self.tables[name] = {"header": header, "rows": [[_fmt(v) for v in row] for row in rows]}

    @property
    def verdict(self) -> str:
        return "pass" if all(c["pass"] for c in self.checks) else "fail"

    def emit(self, fmt: str) -> int:
        elapsed_ms = int((time.monotonic() - self.start) * 1000)
        if fmt == "csv":
            lines = []
            for name, table in self.tables.items():
                lines.append(",".join(["table", name] + table["header"]))
                for row in table["rows"]:
                    lines.append(",".join(str(v) for v in [name] + row))
            for c in self.checks:
                lines.append(
                    f"check,{c['name']},{c['expected']},{c['actual']},{c['tolerance']},{c['pass']}"
                )
            lines.append(f"verdict,{self.verdict}")
            print("\n".join(lines))
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


def _tol(args, default: float) -> float:
    return default * args.tol_scale


def _stream(args, offset: int = 0) -> randomness.RngStream:
    return randomness.RngStream(seed=args.seed, stream_id=offset)


def _parse_dims(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def cmd_dims(args) -> Report:
    rep = Report("dims", {"d": args.d, "n": args.n})
    value = exactcomb.sym_dim(args.d, args.n)
    rep.check("sym_dim", value, value)
    rep.check("rising_factorial_form", Fraction(value), exactcomb.rising_factorial_dim(args.d, args.n))
    rep.check("type_count", value, len(exactcomb.enumerate_types(args.d, args.n)))
    return rep


def cmd_coeffs(args) -> Report:
    rep = Report("coeffs", {"d": args.d, "n": args.n, "k": args.k})
    rows = []
    total = Fraction(0)
    for s in range(args.k + 1):
        m = exactcomb.mp_clone_coefficient(args.d, args.n, args.k, s)
        total += m
        rows.append([s, m])
    rep.table("mp_clone_coefficients", ["s", "coefficient"], rows)
    rep.check("coefficients_sum_to_one", Fraction(1), total)
    return rep


def cmd_verify_psym(args) -> Report:
    rep = Report("verify psym", {"d": args.d, "n": args.n})
    proj = tensorspace.sym_projector_group(args.d, args.n)
    mat = proj.entries
    trace_tol = _tol(args, 1e-8)
    rep.check(
        "trace", exactcomb.sym_dim(args.d, args.n), float(np.trace(mat).real),
        tolerance=trace_tol,
        passed=abs(np.trace(mat).real - exactcomb.sym_dim(args.d, args.n)) <= trace_tol,
    )
    idem = float(np.linalg.norm(mat @ mat - mat))
    rep.check("idempotence_frobenius", 0.0, idem, tolerance=_tol(args, 1e-10), passed=idem <= _tol(args, 1e-10))
    herm = float(np.abs(mat - mat.conj().T).max())
    rep.check("hermiticity_max_entry", 0.0, herm, tolerance=_tol(args, 1e-12), passed=herm <= _tol(args, 1e-12))
    iso = tensorspace.type_isometry(args.d, args.n)
    diff = float(np.linalg.norm(iso.entries @ iso.entries.conj().T - mat))
    rep.check("type_basis_agreement_frobenius", 0.0, diff, tolerance=_tol(args, 1e-12), passed=diff <= _tol(args, 1e-12))
    gen = _stream(args).generator()
    worst = 0.0
    for _ in range(10):
        images = tuple(gen.permutation(args.n))
        pmat = tensorspace.permutation_operator(args.d, tensorspace.Permutation(images)).entries
        worst = max(worst, float(np.abs(pmat @ mat - mat).max()))
    rep.check("permutation_invariance_max_entry", 0.0, worst, tolerance=_tol(args, 1e-12), passed=worst <= _tol(args, 1e-12))
    return rep


def cmd_verify_spans(args) -> Report:
    rep = Report("verify spans", {"d": args.d, "n": args.n, "seed": args.seed})
    expected = exactcomb.sym_dim(args.d, args.n) ** 2
    samples = args.samples if args.samples_given else expected + 20
    rank = tensorspace.tensor_power_span_rank(args.d, args.n, samples, _stream(args))
    rep.check("span_rank", expected, rank)
    return rep


def cmd_verify_commutant(args) -> Report:
    rep = Report("verify commutant-dim", {"d": args.d, "n": args.n})
    got = tensorspace.conjugation_fixed_dimension(args.d, args.n)
    rep.check("commutant_dimension", exactcomb.sym_dim(args.d**2, args.n), got)
    return rep


def cmd_verify_chiribella(args) -> Report:
    rep = Report("verify chiribella", {"d": args.d, "n": args.n, "k": args.k, "representation": args.representation})
    exact_ok = all(
        channels.chiribella_coefficient_identity(args.d, args.n, args.k, s) for s in range(args.k + 1)
    )
    rep.check("exact_coefficient_identity", True, exact_ok)
    residual = channels.verify_chiribella(args.d, args.n, args.k, args.representation)
    tol = _tol(args, 1e-10)
    rep.check("channel_identity_frobenius", 0.0, residual, tolerance=tol, passed=residual <= tol)
    return rep


def cmd_verify_jacobi(args) -> Report:
    rep = Report("verify jacobi", {"d": args.d, "n": args.n, "k": args.k})
    rep.check(
        "jacobi_form_identity", True,
        exactcomb.mp_polynomial_jacobi_identity(args.d, args.n, args.k),
    )
    return rep


def cmd_verify_wick(args) -> Report:
    rep = Report(
        "verify wick",
        {"field": args.field, "d": args.d, "n": args.n, "samples": args.samples, "seed": args.seed},
    )
    if args.field == "complex":
        exact = randomness.complex_gaussian_moment_operator(args.d, args.n)
    else:
        exact = randomness.real_gaussian_moment_operator(args.d, args.n)
        worst = 0.0
        for pi in tensorspace.all_permutations(args.n):
            matching = tensorspace.matching_from_permutation(pi)
            diff = np.abs(
                tensorspace.matching_operator(args.d, args.n, matching).entries
                - tensorspace.permutation_operator(args.d, pi).entries
            ).max()
            worst = max(worst, float(diff))
        rep.check("matching_vs_permutation_max_entry", 0.0, worst, tolerance=0.0, passed=worst == 0.0)
    est = randomness.mc_tensor_power_mean(
        lambda gen, m: randomness.gaussian_batch(args.d, args.field, gen, m),
        args.n, args.samples, _stream(args),
    )
    residual = tensorspace.frobenius_distance(est.mean, exact)
    tol = 5 * est.frob_stderr * args.tol_scale
    rep.check("gaussian_moment_frobenius", 0.0, residual, tolerance=tol, passed=residual <= tol)
    return rep


def cmd_definetti_eps(args) -> Report:
    rep = Report("definetti eps", {"d": args.d, "n": args.n, "k": args.k})
    eps = definetti.definetti_epsilon(args.d, args.n, args.k)
    rep.check("epsilon", eps, eps)
    rep.check("epsilon_at_most_one", True, eps <= 1, passed=True)  # informational flag
    m_kk = exactcomb.mp_clone_coefficient(args.d, args.n, args.k, args.k)
    if eps <= 1:
        rep.check("one_minus_diagonal_below_epsilon", True, 1 - m_kk <= eps)
    return rep


def cmd_definetti_coeffs(args) -> Report:
    r = args.r if args.r is not None else args.k
    rep = Report("definetti coeffs", {"d": args.d, "n": args.n, "k": args.k, "r": r})
    coeffs = definetti.exp_definetti_coefficients(args.d, args.n, args.k, r)
    bounds = definetti.check_coefficient_bounds(coeffs)
    rows = []
    for s, xs in enumerate(coeffs.x):
        if bounds.applicable:
            _, absval, bound, ok = bounds.x_details[s]
            rows.append([s, "x", xs, bound, ok])
        else:
            rows.append([s, "x", xs, "", "n/a"])
    for offset, ys in enumerate(coeffs.y):
        s = r + offset
        if bounds.applicable:
            _, absval, bound, ok = bounds.y_details[offset]
            rows.append([s, "y", ys, bound, ok])
        else:
            rows.append([s, "y", ys, "", "n/a"])
    rep.table("coefficients", ["s", "kind", "value", "bound", "pass"], rows)
    rep.check("exact_inversion_identity", True, definetti.exp_definetti_identity_check(args.d, args.n, args.k, r))
    rep.check("delta", coeffs.delta, coeffs.delta)
    rep.check("truncation_tail_abs_sum", bounds.truncation_tail, bounds.truncation_tail)
    if bounds.applicable:
        rep.check("coefficient_bounds", True, bounds.passed)
    return rep


def cmd_verify_expdefinetti(args) -> Report:
    rep = Report("verify expdefinetti", {"d": args.d, "n": args.n, "k": args.k})
    residual = definetti.verify_exp_definetti(args.d, args.n, args.k)
    tol = _tol(args, 1e-10)
    rep.check("inversion_identity_frobenius", 0.0, residual, tolerance=tol, passed=residual <= tol)
    return rep


def cmd_bound_tail(args) -> Report:
    part = concentration.MultiPartition(_parse_dims(args.dims))
    rep = Report("bound tail", {"dims": args.dims, "r": args.r, "gamma": args.gamma, "nmax": args.nmax})
    result = concentration.tail_bound(part, args.r, args.gamma, args.nmax)
    rep.table("per_n", ["n", "bound"], [[n, float(v)] for n, v in result.per_n])
    rep.check("all_terms_positive", True, all(v > 0 for _, v in result.per_n))
    rep.check("minimizing_n", result.n_star, result.n_star)
    rep.check("min_bound", result.bound, result.bound)
    return rep


def cmd_bound_smoothgap(args) -> Report:
    rep = Report("bound smoothgap", {"d": args.d, "x": args.x})
    result = concentration.smooth_gap_bound(args.d, args.x)
    rep.check("rank", result.rank, result.rank)
    rep.check("gamma", result.gamma, result.gamma)
    rep.check(
        "bound_below_d_to_minus_d", True, result.satisfied,
        tolerance=_fmt(result.threshold),
        passed=result.satisfied,
    )
    rep.check("bound_value", result.bound, result.bound)
    return rep


def cmd_mc_moment(args) -> Report:
    rep = Report(
        "mc moment",
        {"D": args.D, "r": args.r, "n": args.n, "samples": args.samples, "seed": args.seed},
    )
    est = randomness.mc_projector_moment(args.D, args.r, args.n, args.samples, _stream(args))
    exact = randomness.projector_moment_exact(args.D, args.r, args.n)
    z = abs(est.mean - float(exact)) / est.stderr if est.stderr > 0 else 0.0
    rep.check("estimate", float(exact), est.mean, tolerance=5 * est.stderr * args.tol_scale,
              passed=abs(est.mean - float(exact)) <= 5 * est.stderr * args.tol_scale)
    rep.check("z_score", 0.0, z, tolerance=5.0 * args.tol_scale, passed=z <= 5.0 * args.tol_scale)
    return rep


def cmd_mc_schmidt(args) -> Report:
    rep = Report("mc schmidt", {"d": args.d, "eps": args.eps, "samples": args.samples, "seed": args.seed})
    result = concentration.experiment_schmidt_tail(args.d, args.samples, args.eps, _stream(args))
    rep.check("exceedance_fraction", 0.0, result.fraction, tolerance=result.bound, passed=result.passed)
    rep.check("mean_top_schmidt", result.mean_top_schmidt, result.mean_top_schmidt)
    rep.check("threshold", result.threshold, result.threshold)
    return rep


def cmd_mc_productfree(args) -> Report:
    part = concentration.MultiPartition(_parse_dims(args.dims))
    rep = Report(
        "mc productfree",
        {"dims": args.dims, "r": args.r, "restarts": args.restarts, "trials": args.trials, "seed": args.seed},
    )
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
    return rep


def cmd_mc_meanpower(args) -> Report:
    rep = Report(
        "mc meanpower",
        {"dist": args.dist, "d": args.d, "n": args.n, "samples": args.samples, "seed": args.seed},
    )
    if args.dist == "haar":
        sampler = lambda gen, m: randomness.haar_state_batch(args.d, gen, m)
        exact = randomness.haar_moment_operator(args.d, args.n)
    else:
        sampler = lambda gen, m: randomness.real_unit_batch(args.d, gen, m)
        exact = randomness.real_unit_moment_operator(args.d, args.n)
    est = randomness.mc_tensor_power_mean(sampler, args.n, args.samples, _stream(args))
    residual = tensorspace.frobenius_distance(est.mean, exact)
    tol = 5 * est.frob_stderr * args.tol_scale
    rep.check("mean_power_frobenius", 0.0, residual, tolerance=tol, passed=residual <= tol)
    if args.dump_operator:
        rep.table(
            "mean_operator",
            ["json"],
            [[json.dumps(tensorspace.operator_to_json(est.mean))]],
        )
    return rep


# ---------------------------------------------------------------------------
# parser
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


# the range of every integer flag that commands share, declared once
_INT_FLAGS = {
    "d": _positive_int, "n": _nonnegative_int, "k": _nonnegative_int,
    "D": _positive_int, "r": _positive_int, "x": _positive_int,
    "nmax": _positive_int, "restarts": _positive_int, "trials": _positive_int,
}


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags accepted before or after the subcommand; the subparser
    copies use SUPPRESS defaults so they never clobber values parsed earlier."""
    default = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--seed", type=int, default=default(0), help="random seed for all sampling")
    parser.add_argument("--samples", type=_positive_int, default=default(100_000), help="Monte Carlo sample count")
    parser.add_argument("--tol-scale", type=float, default=default(1.0), help="multiply default tolerances")
    parser.add_argument("--max-dim", type=int, default=default(None), help="override the dense-operator size cap")
    parser.add_argument("--format", choices=("json", "csv"), default=default("json"), help="report format")


def _command(group, name: str, summary: str, handler, required: str = "", **defaults) -> argparse.ArgumentParser:
    """Register one subcommand with its required one-letter integer flags
    (from "dnkDrx"), its integer flags with a default, and the global options."""
    p = group.add_parser(name, help=summary)
    for flag in required:
        p.add_argument(f"--{flag}", type=_INT_FLAGS[flag], required=True)
    for flag, default in defaults.items():
        p.add_argument(f"--{flag}", type=_INT_FLAGS[flag], default=default)
    _add_global_options(p, suppress=True)
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsub",
        description="Verify symmetric-subspace identities: projectors, cloning and "
        "measure-and-prepare channels, de Finetti coefficient recursions, Gaussian "
        "moment formulas, and moment-method tail bounds.",
    )
    _add_global_options(parser, suppress=False)

    sub = parser.add_subparsers(dest="group", required=True)
    _command(sub, "dims", "symmetric subspace dimension and type-count identities", cmd_dims, "dn")
    _command(sub, "coeffs", "hypergeometric clone/measure-and-prepare coefficient table", cmd_coeffs, "dnk")

    verify = sub.add_parser("verify", help="identity checks").add_subparsers(dest="sub", required=True)
    _command(verify, "psym", "group-average projector: trace, idempotence, type-basis agreement",
             cmd_verify_psym, "dn")
    _command(verify, "spans", "tensor powers span the operator space of the symmetric subspace",
             cmd_verify_spans, "dn")
    _command(verify, "commutant-dim", "commutant dimension of the permutation action equals sym_dim(d^2, n)",
             cmd_verify_commutant, "dn")
    p = _command(verify, "chiribella", "Chiribella's identity: measure-and-prepare as a clone/trace mixture",
                 cmd_verify_chiribella, "dnk")
    p.add_argument("--representation", choices=("auto", "full", "sym"), default="auto")
    _command(verify, "jacobi", "Jacobi-polynomial form of the coefficient polynomial, exactly",
             cmd_verify_jacobi, "dnk")
    p = _command(verify, "wick", "Gaussian tensor-power moments against Wick/matching formulas",
                 cmd_verify_wick, "dn")
    p.add_argument("--field", choices=("real", "complex"), required=True)
    _command(verify, "expdefinetti", "exact inversion: trace-down equals the signed clone/measure mixture",
             cmd_verify_expdefinetti, "dnk")

    df = sub.add_parser("definetti", help="de Finetti error coefficients").add_subparsers(dest="sub", required=True)
    _command(df, "eps", "two-term de Finetti error coefficient k(d+k)/(n+d)", cmd_definetti_eps, "dnk")
    p = _command(df, "coeffs", "exponential-decomposition coefficient recursion with exact bounds",
                 cmd_definetti_coeffs, "dnk")
    p.add_argument("--r", type=_nonnegative_int, default=None, help="inversion steps (default k)")

    bound = sub.add_parser("bound", help="tail bounds").add_subparsers(dest="sub", required=True)
    p = _command(bound, "tail", "moment tail bound per n for a random rank-r projector", cmd_bound_tail,
                 "r", nmax=64)
    p.add_argument("--dims", type=str, required=True, help="comma-separated subsystem dimensions")
    p.add_argument("--gamma", type=_positive_fraction, required=True,
                   help="overlap threshold (rational like 9/10 or decimal)")
    _command(bound, "smoothgap", "near-critical-rank single-n tail evaluation", cmd_bound_smoothgap, "dx")

    mc = sub.add_parser("mc", help="Monte Carlo experiments").add_subparsers(dest="sub", required=True)
    _command(mc, "moment", "projector overlap moment against the exact ratio", cmd_mc_moment, "Drn")
    p = _command(mc, "schmidt", "largest-Schmidt-coefficient tail of random bipartite states", cmd_mc_schmidt, "d")
    p.add_argument("--eps", type=float, required=True)
    p = _command(mc, "productfree", "random subspaces below the product-state dimension threshold",
                 cmd_mc_productfree, "r", restarts=32, trials=20)
    p.add_argument("--dims", type=str, required=True)
    p = _command(mc, "meanpower", "tensor-power mean of unit vectors against the exact operator",
                 cmd_mc_meanpower, "dn")
    p.add_argument("--dist", choices=("haar", "real-unit"), required=True)
    p.add_argument("--dump-operator", action="store_true", help="embed the mean operator as JSON")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.samples_given = any(tok == "--samples" or tok.startswith("--samples=") for tok in argv)
    if args.max_dim is not None:
        set_max_dim(args.max_dim)
    try:
        report = args.handler(args)
    except DimensionGuardError as exc:
        print(f"dimension guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"symsub: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.max_dim is not None:
            set_max_dim(None)
    return report.emit(args.format)


if __name__ == "__main__":
    sys.exit(main())
