"""The README's library tour runs as written, and each expression line gives
the value its comment states."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library tour"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under '## Library tour'"
    return match.group(1)


def _run_tour() -> dict[str, object]:
    """Execute the block statement by statement; map the source of each bare
    expression statement to its value."""
    source = _tour_block()
    namespace: dict[str, object] = {}
    values: dict[str, object] = {}
    for node in ast.parse(source).body:
        text = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[text] = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README", "exec"), namespace)
    return values


def test_library_tour_values_match_its_comments():
    values = _run_tour()
    checks = {
        "ss.sym_dim(2, 3)": lambda v: v == 4,
        "ss.mp_clone_coefficient(2, 4, 1, 1)": lambda v: v == Fraction(2, 3),
        "ss.estimation_fidelity(2, 1, 1)": lambda v: v == Fraction(2, 3),
        "ss.verify_chiribella(2, 3, 2)": lambda v: 0 <= v < 1e-12,
        "ss.exp_definetti_full_coefficients(2, 4, 1)": lambda v: v == (Fraction(3, 2), Fraction(-1, 2)),
        "ss.verify_exp_definetti(2, 4, 1)": lambda v: 0 <= v < 1e-12,
        "ss.mc_projector_moment(4, 1, 2, 100_000, stream)": lambda v: abs(v.mean - 0.1) <= 5 * v.stderr,
        "ss.tail_bound(part, 1, Fraction(1), n_max=64)": lambda v: (v.n_star, v.bound) == (64, Fraction(65, 737)),
    }
    # a line added to the tour needs a check here
    assert set(values) == set(checks)
    for text, ok in checks.items():
        assert ok(values[text]), (text, values[text])
