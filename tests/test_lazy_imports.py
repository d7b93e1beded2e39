"""The exact layer runs without numpy, and the package loads lazily.

``import symsub`` imports no submodule; each exported name resolves on first
access.  The exact commands of the CLI, and the modules they use (exactcomb,
guards, definetti, concentration), must run in an interpreter where numpy
cannot be imported at all: the subprocess below sets
``sys.modules["numpy"] = None``, so any import of numpy raises ImportError.
The cold path, ``import symsub; symsub.sym_dim(...)``, and the commands that
use only exactcomb likewise run with ``dataclasses`` blocked.
"""

import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import symsub
from symsub import exactcomb, tensorspace
from symsub.cli import main
from symsub.guards import PARTITION_ENUMERATION_CAP, DimensionGuardError, guard_partitions

SRC = os.path.dirname(os.path.dirname(os.path.abspath(symsub.__file__)))

EXACT_COMMANDS = [
    "dims --d 2 --n 3",
    "coeffs --d 2 --n 4 --k 2",
    "verify jacobi --d 3 --n 4 --k 2",
    "verify commutant-dim --d 2 --n 4",
    "definetti eps --d 2 --n 100 --k 1",
    "definetti coeffs --d 2 --n 4 --k 1",
    "bound tail --dims 2,2 --r 1 --gamma 1 --nmax 64 --format csv",
    "bound smoothgap --d 2 --x 1",
]

# commands that load only exactcomb and guards
EXACTCOMB_COMMANDS = EXACT_COMMANDS[:4]

# run in a fresh interpreter, with modules blocked by _python; prints one JSON object
RUN_COMMANDS = """
import contextlib, io, json, sys
import symsub
value = symsub.sym_dim(2, 3)
cold_modules = sorted(m for m in sys.modules if m.startswith("symsub."))
from symsub.cli import main
runs = {}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv.split())
    runs[argv] = [code, out.getvalue()]
dense = sorted(m for m in ("tensorspace", "channels", "randomness") if "symsub." + m in sys.modules)
print(json.dumps({
    "sym_dim": value, "runs": runs, "dense_modules": dense, "cold_modules": cold_modules,
    "symsub_modules": sorted(m for m in sys.modules if m.startswith("symsub.")),
}))
"""

# prepended by _python: refuses to run if a blocked module is already loaded
BLOCK = """
import sys
preloaded = [m for m in {blocked!r} if m in sys.modules]
if preloaded:
    sys.exit("preloaded at startup: " + ", ".join(preloaded))
for m in {blocked!r}:
    sys.modules[m] = None  # any import of m now raises ImportError
"""


def _python(program: str, *args: str, blocked: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """Run program in a fresh interpreter on this source tree, with each module
    in blocked made unimportable; skips the test if the interpreter already
    imported one of them at startup (through site, say)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if blocked:
        program = BLOCK.format(blocked=list(blocked)) + program
    proc = subprocess.run(
        [sys.executable, "-c", program, *args], capture_output=True, text=True, env=env, timeout=120
    )
    if proc.returncode == 1 and proc.stderr.startswith("preloaded at startup: "):
        pytest.skip(proc.stderr.strip())
    return proc


def _mask_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


def test_exact_commands_run_without_numpy(capsys):
    proc = _python(RUN_COMMANDS, json.dumps(EXACT_COMMANDS), blocked=("numpy",))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["sym_dim"] == 4
    assert result["dense_modules"] == []
    for argv in EXACT_COMMANDS:
        code, out = result["runs"][argv]
        # the same report as in this process, where numpy is importable
        assert main(argv.split()) == 0
        assert code == 0, argv
        assert _mask_elapsed(out) == _mask_elapsed(capsys.readouterr().out), argv


def test_cold_path_and_exactcomb_commands_run_without_dataclasses(capsys):
    program = RUN_COMMANDS + (
        "types = symsub.enumerate_types(2, 2)\n"
        "print(json.dumps([[t.entries, t.d, t.total] for t in types] + [symsub.TypeVector((1, 2)).total]))\n"
    )
    proc = _python(program, json.dumps(EXACTCOMB_COMMANDS), blocked=("dataclasses",))
    assert proc.returncode == 0, proc.stderr
    report, types = proc.stdout.splitlines()
    result = json.loads(report)
    assert result["sym_dim"] == 4
    assert result["cold_modules"] == ["symsub.exactcomb", "symsub.guards"]
    assert result["symsub_modules"] == ["symsub.cli", "symsub.exactcomb", "symsub.guards"]
    assert json.loads(types) == [[[2, 0], 2, 2], [[1, 1], 2, 2], [[0, 2], 2, 2], 3]
    for argv in EXACTCOMB_COMMANDS:
        code, out = result["runs"][argv]
        assert main(argv.split()) == 0
        assert code == 0, argv
        assert _mask_elapsed(out) == _mask_elapsed(capsys.readouterr().out), argv


def test_blocked_module_raises_import_error():
    proc = _python("import dataclasses", blocked=("dataclasses",))
    assert proc.returncode == 1 and "import of dataclasses halted" in proc.stderr


def test_import_symsub_loads_no_submodule():
    program = (
        "import sys; import symsub; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('symsub.'))); "
        "print([name for name in dir(symsub) if not name.startswith('_')] == symsub.__all__); "
        "channels = symsub.channels; "
        "print(channels is sys.modules['symsub.channels'], 'numpy' in sys.modules)"
    )
    proc = _python(program)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "True", "True True"]


# the package exports as they were imported eagerly: module -> names
EXPORTS = {
    "exactcomb": [
        "TypeVector", "binomial", "enumerate_types", "jacobi_polynomial", "mp_clone_coefficient",
        "mp_clone_polynomial", "mp_polynomial_jacobi_identity", "multinomial", "real_moment_ratio", "sym_dim",
    ],
    "guards": ["DimensionGuardError", "max_dim", "set_max_dim"],
    "tensorspace": [
        "Matching", "Operator", "Permutation", "conjugation_fixed_dimension", "enumerate_matchings",
        "matching_from_permutation", "matching_operator", "operator_from_json", "operator_tensor",
        "operator_to_json", "partial_trace", "permutation_operator", "sym_projector_group",
        "tensor_power_span_rank", "type_isometry",
    ],
    "channels": [
        "Superoperator", "apply", "choi_matrix", "clone_channel", "clone_channel_sym", "compose",
        "estimation_fidelity", "f_overlap", "mp_channel", "mp_channel_sym", "trace_channel",
        "trace_channel_sym", "verify_chiribella",
    ],
    "definetti": [
        "DeFinettiCoefficients", "check_coefficient_bounds", "definetti_epsilon", "exp_definetti_coefficients",
        "exp_definetti_full_coefficients", "verify_exp_definetti",
    ],
    "randomness": [
        "RngStream", "gaussian_vector", "haar_state", "haar_unitary", "mc_projector_moment",
        "mc_real_unit_moment", "mc_tensor_power_mean", "random_projector",
    ],
    "concentration": [
        "MultiPartition", "TailBoundResult", "experiment_product_free", "experiment_schmidt_tail", "mu_exact",
        "nu_max", "product_state_threshold", "smooth_gap_bound", "tail_bound",
    ],
}


def test_package_surface_unchanged():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 64
    # the 64 names and the 7 submodules, as the eager package listed them
    assert symsub.__all__ == sorted(names + list(EXPORTS))
    public = [name for name in dir(symsub) if not name.startswith("_")]
    assert public == sorted(public) and set(public) - set(symsub.__all__) <= {"cli"}  # cli once imported
    for module, module_names in EXPORTS.items():
        assert getattr(symsub, module) is importlib.import_module(f"symsub.{module}")
        for name in module_names:
            assert getattr(symsub, name) is getattr(importlib.import_module(f"symsub.{module}"), name), name
    assert symsub.conjugation_fixed_dimension is exactcomb.conjugation_fixed_dimension
    namespace = {}
    exec("from symsub import *", namespace)
    assert set(symsub.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        symsub.not_a_name
    with pytest.raises(ImportError):
        exec("from symsub import not_a_name", {})


# ---------------------------------------------------------------------------
# the commutant dimension over cycle types
# ---------------------------------------------------------------------------

def _commutant_by_permutations(d, n):
    """(1/n!) sum over every pi in S_n of d^(2 cycles(pi)), by enumeration."""
    from itertools import permutations
    from math import factorial

    total = 0
    for images in permutations(range(n)):
        seen, cycles = [False] * n, 0
        for start in range(n):
            if not seen[start]:
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j], j = True, images[j]
        total += d ** (2 * cycles)
    assert total % factorial(n) == 0
    return total // factorial(n)


@pytest.mark.parametrize("n", range(8))
def test_commutant_dimension_matches_permutation_enumeration(n):
    for d in (1, 2, 3, 5):
        assert exactcomb.conjugation_fixed_dimension(d, n) == _commutant_by_permutations(d, n), (d, n)


def test_commutant_dimension_beyond_the_permutation_cap():
    assert tensorspace.conjugation_fixed_dimension is exactcomb.conjugation_fixed_dimension
    for d, n in [(2, 10), (3, 20), (7, 35), (2, 50)]:
        assert exactcomb.conjugation_fixed_dimension(d, n) == exactcomb.sym_dim(d * d, n), (d, n)
    with pytest.raises(DimensionGuardError, match="partitions of 61"):
        exactcomb.conjugation_fixed_dimension(2, 61)
    with pytest.raises(DimensionGuardError, match="partitions of 1000000000"):
        exactcomb.conjugation_fixed_dimension(2, 10**9)


def test_partition_cap_is_the_largest_n_with_at_most_a_million_partitions():
    counts = [1] + [0] * (PARTITION_ENUMERATION_CAP + 1)
    for part in range(1, len(counts)):
        for m in range(part, len(counts)):
            counts[m] += counts[m - part]
    assert counts[PARTITION_ENUMERATION_CAP] <= 10**6 < counts[PARTITION_ENUMERATION_CAP + 1]
    guard_partitions(PARTITION_ENUMERATION_CAP)  # admitted; 61 is refused above


def test_commutant_command_above_n9_and_partition_guard(capsys):
    assert main(["verify", "commutant-dim", "--d", "2", "--n", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"][0]["actual"] == exactcomb.sym_dim(4, 12)
    assert main(["verify", "commutant-dim", "--d", "2", "--n", "61"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "dimension guard" in captured.err
