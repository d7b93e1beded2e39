"""Every command of the command table: its report names the command's path
and lists its params in the declared order; params report what ran (the
representation, the default inversion steps)."""

import json
import shlex
from pathlib import Path

import pytest

from symsub import cli
from symsub.channels import chiribella_sides
from symsub.cli import main

# one small argv per command, with the report params in report order
COMMANDS = [
    ("dims --d 2 --n 2", "dims", "d n"),
    ("coeffs --d 2 --n 2 --k 1", "coeffs", "d n k"),
    ("verify psym --d 2 --n 2", "verify psym", "d n"),
    ("verify spans --d 2 --n 1", "verify spans", "d n seed"),
    ("verify commutant-dim --d 2 --n 2", "verify commutant-dim", "d n"),
    ("verify chiribella --d 2 --n 1 --k 1", "verify chiribella", "d n k representation"),
    ("verify jacobi --d 2 --n 2 --k 1", "verify jacobi", "d n k"),
    ("verify wick --field complex --d 2 --n 1 --samples 2000", "verify wick", "field d n samples seed"),
    ("verify expdefinetti --d 2 --n 2 --k 1", "verify expdefinetti", "d n k"),
    ("definetti eps --d 2 --n 10 --k 1", "definetti eps", "d n k"),
    ("definetti coeffs --d 2 --n 4 --k 1", "definetti coeffs", "d n k r"),
    ("bound tail --dims 2,2 --r 1 --gamma 1 --nmax 4", "bound tail", "dims r gamma nmax"),
    ("bound smoothgap --d 2 --x 1", "bound smoothgap", "d x"),
    ("mc moment --D 4 --r 1 --n 1 --samples 2000", "mc moment", "D r n samples seed"),
    ("mc schmidt --d 4 --eps 0.3 --samples 500", "mc schmidt", "d eps samples seed"),
    ("mc productfree --dims 2,2 --r 3 --restarts 2 --trials 1", "mc productfree", "dims r restarts trials seed"),
    ("mc meanpower --dist haar --d 2 --n 1 --samples 2000", "mc meanpower", "dist d n samples seed"),
]


def _json_run(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_every_command_has_a_case():
    assert sorted(path for _, path, _ in COMMANDS) == sorted(spec.path for spec in cli._COMMANDS)
    assert len(COMMANDS) == 17


@pytest.mark.parametrize("argv,path,params", COMMANDS, ids=[path for _, path, _ in COMMANDS])
def test_report_names_path_and_params_in_order(capsys, argv, path, params):
    code, doc = _json_run(capsys, argv.split())
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["command"] == path
    assert list(doc["params"]) == params.split()
    assert list(doc) == ["schema", "command", "params", "checks", "verdict", "elapsed_ms"] + (
        ["tables"] if "tables" in doc else []
    )


def test_definetti_coeffs_reports_resolved_r(capsys):
    _, doc = _json_run(capsys, ["definetti", "coeffs", "--d", "2", "--n", "6", "--k", "3"])
    assert doc["params"]["r"] == 3
    _, doc = _json_run(capsys, ["definetti", "coeffs", "--d", "2", "--n", "6", "--k", "3", "--r", "1"])
    assert doc["params"]["r"] == 1


@pytest.mark.parametrize(
    "extra,ran",
    [([], "sym"), (["--representation", "sym"], "sym")],
)
def test_chiribella_reports_resolved_representation(capsys, extra, ran):
    _, doc = _json_run(capsys, ["verify", "chiribella", "--d", "2", "--n", "2", "--k", "1", *extra])
    assert doc["params"]["representation"] == ran


def test_chiribella_auto_resolves_to_sym_beyond_full_cap(capsys):
    # the default runs sym, also where a full-space superoperator would hold 2^(2(n+k)) = 2^24 entries
    code, doc = _json_run(capsys, ["verify", "chiribella", "--d", "2", "--n", "6", "--k", "6"])
    assert code == 0 and doc["params"]["representation"] == "sym"


def test_unknown_representation_raises():
    with pytest.raises(ValueError, match="unknown representation"):
        chiribella_sides(2, 2, 1, "dense")


@pytest.mark.parametrize(
    "argv",
    [
        "verify psym --d 2 --n 0",
        "verify wick --field real --d 2 --n 0 --samples 1000",
        "mc meanpower --dist real-unit --d 2 --n 0 --samples 1000",
    ],
)
def test_empty_tensor_power_commands_pass(capsys, argv):
    code, doc = _json_run(capsys, argv.split())
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["params"]["n"] == 0


def test_tol_scale_scales_every_residual_tolerance(capsys):
    _, base = _json_run(capsys, ["verify", "psym", "--d", "2", "--n", "2"])
    _, scaled = _json_run(capsys, ["--tol-scale", "4", "verify", "psym", "--d", "2", "--n", "2"])
    for a, b in zip(base["checks"], scaled["checks"]):
        assert float(b["tolerance"]) == 4 * float(a["tolerance"])


def test_readme_command_block_has_one_parsing_line_per_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = next(b for b in readme.split("```")[1::2] if b.startswith("\nsymsub "))
    lines = block.strip().splitlines()
    assert all(line.startswith("symsub ") for line in lines)
    parser = cli.build_parser()
    paths = [parser.parse_args(shlex.split(line)[1:]).spec.path for line in lines]
    assert sorted(paths) == sorted(spec.path for spec in cli._COMMANDS)
