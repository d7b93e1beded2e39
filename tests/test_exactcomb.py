"""Exact combinatorics checks, all in rational arithmetic."""

from fractions import Fraction

import pytest

from symsub.exactcomb import (
    TypeVector,
    binomial,
    enumerate_types,
    jacobi_polynomial,
    mp_clone_coefficient,
    mp_clone_polynomial,
    multinomial,
    real_moment_ratio,
    rising_factorial_dim,
    sym_dim,
)


def test_binomial_values():
    assert binomial(3, 2) == 3
    assert binomial(5, 0) == 1
    assert binomial(10, 5) == 252
    assert binomial(4, -1) == 0
    assert binomial(4, 7) == 0


def test_binomial_symmetry():
    for a in range(0, 20):
        for b in range(0, a + 1):
            assert binomial(a, b) == binomial(a, a - b)


def test_multinomial_values():
    assert multinomial(2, (1, 1)) == 2
    assert multinomial(3, (3, 0)) == 1
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(5, TypeVector((2, 2, 1))) == 30


def test_multinomial_rejects_mismatch():
    with pytest.raises(ValueError):
        multinomial(4, (1, 1))


def test_sym_dim_values():
    assert sym_dim(2, 2) == 3
    assert sym_dim(7, 0) == 1
    assert sym_dim(2, 3) == 4
    for d in range(1, 7):
        for n in range(0, 9):
            assert Fraction(sym_dim(d, n)) == rising_factorial_dim(d, n)


def test_enumerate_types_order_and_count():
    assert [t.entries for t in enumerate_types(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert [t.entries for t in enumerate_types(1, 5)] == [(5,)]
    units = enumerate_types(3, 1)
    assert [t.entries for t in units] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for d in range(1, 5):
        for n in range(0, 7):
            types = enumerate_types(d, n)
            assert len(types) == sym_dim(d, n)
            assert len(set(t.entries for t in types)) == len(types)
            assert all(t.total == n and t.d == d for t in types)


def test_mp_clone_coefficient_values():
    assert mp_clone_coefficient(2, 2, 1, 0) == Fraction(1, 2)
    assert mp_clone_coefficient(2, 2, 1, 1) == Fraction(1, 2)
    assert mp_clone_coefficient(2, 1, 1, 0) == Fraction(2, 3)
    assert mp_clone_coefficient(2, 1, 1, 1) == Fraction(1, 3)


def test_mp_clone_coefficients_sum_to_one():
    for d in range(1, 13):
        for n in range(1, 13):
            for k in range(0, 13):
                total = sum(mp_clone_coefficient(d, n, k, s) for s in range(k + 1))
                assert total == 1, (d, n, k)


def test_mp_clone_diagonal_form_and_lower_bound():
    for d in range(1, 9):
        for n in range(1, 13):
            for k in range(0, min(n, 8) + 1):
                m_kk = mp_clone_coefficient(d, n, k, k)
                assert m_kk == Fraction(binomial(n, k), binomial(d + n + k - 1, k))
                lower = 1 - Fraction(k * (d + k), n + d)
                if lower <= 1:
                    assert m_kk >= lower, (d, n, k)


def test_mp_clone_polynomial():
    assert mp_clone_polynomial(3, 4, 2, 1) == 1
    assert mp_clone_polynomial(5, 3, 0, Fraction(7, 2)) == 1
    assert mp_clone_polynomial(2, 1, 1, 0) == Fraction(2, 3)


def test_jacobi_low_orders():
    for alpha in range(0, 4):
        for beta in range(0, 4):
            for y in (Fraction(0), Fraction(1, 3), Fraction(-2), Fraction(5, 2)):
                assert jacobi_polynomial(alpha, beta, 0, y) == 1
                closed = Fraction(alpha + 1) + Fraction(alpha + beta + 2) * (y - 1) / 2
                assert jacobi_polynomial(alpha, beta, 1, y) == closed


def test_jacobi_singular_parameters_raise():
    with pytest.raises(ValueError):
        jacobi_polynomial(-2, -1, 3, Fraction(1, 2))


def test_jacobi_form_of_coefficient_polynomial():
    from symsub.exactcomb import mp_polynomial_jacobi_identity

    for d, n, k in [(2, 4, 2), (3, 3, 3), (1, 5, 4), (4, 2, 5)]:
        assert mp_polynomial_jacobi_identity(d, n, k)
    # holds above the diagonal too, wherever the recurrence is nonsingular
    assert mp_polynomial_jacobi_identity(2, 1, 2)


def test_real_moment_ratio():
    assert real_moment_ratio(5, 0) == 1
    assert real_moment_ratio(2, 1) == Fraction(1, 2)
    assert real_moment_ratio(3, 2) == Fraction(1, 15)
    assert real_moment_ratio(4, 3) == Fraction(1, 4 * 6 * 8)


def test_enumerate_types_frees_its_list_without_the_collector():
    # a self-calling closure kept the list in a reference cycle: at (64, 2)
    # 1.38 MB stayed allocated until the garbage collector ran.  What stays
    # now is held by the interpreter's free lists, about 46 kB.
    import gc
    import tracemalloc
    import weakref

    enumerate_types(64, 2)
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        types = enumerate_types(64, 2)
        assert len(types) == sym_dim(64, 2)
        first = weakref.ref(types[0])
        del types
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert first() is None
    assert after - before < 2**18


def test_type_vector_equality_hash_and_iteration():
    t = TypeVector((2, 0, 1))
    assert t == TypeVector((2, 0, 1)) and hash(t) == hash(TypeVector((2, 0, 1)))
    assert t != TypeVector((1, 0, 2)) and len({t, TypeVector((2, 0, 1)), TypeVector((0, 2, 1))}) == 2
    assert t != (2, 0, 1) and (2, 0, 1) != t  # equal only to another TypeVector
    assert t.entries == (2, 0, 1) and t.d == 3 and t.total == 3
    assert list(t) == [2, 0, 1] and len(t) == 3
    assert repr(t) == "TypeVector(entries=(2, 0, 1))"
    assert multinomial(3, t) == 3 == multinomial(3, t.entries)
    with pytest.raises(ValueError, match="sum to 3, expected 4"):
        multinomial(4, t)


def test_type_vector_is_immutable_and_weakly_referenceable():
    import copy
    import pickle
    import weakref

    t = TypeVector((1, 1))
    with pytest.raises(AttributeError):
        t.entries = (2, 0)
    with pytest.raises(AttributeError):
        t.extra = 1
    with pytest.raises(AttributeError):
        del t.entries
    assert t.entries == (1, 1)
    ref = weakref.ref(t)
    assert ref() is t
    assert copy.copy(t) == t and copy.deepcopy(t) == t and pickle.loads(pickle.dumps(t)) == t
    del t
    assert ref() is None


def test_type_vector_validation_messages():
    with pytest.raises(ValueError, match="^type vector needs at least one entry$"):
        TypeVector(())
    with pytest.raises(ValueError, match="^occupation counts must be nonnegative$"):
        TypeVector((1, -1))


def test_enumerate_types_refuses_a_list_over_the_cap_before_building_it():
    # every input here just over the cap would build at most a few hundred MB
    # without the guard: a failing guard fails the test, not the machine
    import time

    from symsub.guards import TYPE_ENUMERATION_CAP, DimensionGuardError, guard_types

    # the largest list in the tests, (64, 2), is far inside the cap
    assert sym_dim(64, 2) * 64 <= TYPE_ENUMERATION_CAP
    half = TYPE_ENUMERATION_CAP // 2
    guard_types(2, half - 1, half)  # exactly the cap: admitted
    with pytest.raises(DimensionGuardError, match=r"refusing to enumerate the 59132290782430712 types"):
        guard_types(30, 30, sym_dim(30, 30))
    start = time.perf_counter()
    with pytest.raises(DimensionGuardError, match=rf"types of \(d, n\) = \(2, {half}\) .*cap {TYPE_ENUMERATION_CAP}"):
        enumerate_types(2, half)
    with pytest.raises(DimensionGuardError, match=r"the 1 types of \(d, n\) = \(8388608, 0\)"):
        enumerate_types(2 * TYPE_ENUMERATION_CAP, 0)  # one type, but of 2^23 counts
    assert time.perf_counter() - start < 1.0
    assert enumerate_types(7, 0) == [TypeVector((0,) * 7)]


def test_dims_command_exits_3_on_an_oversized_type_list(capsys):
    # (2049, 1), just over the cap, stands for dims --d 30 --n 30, which
    # unguarded would list 5.9e16 types
    from symsub.cli import main

    assert main(["dims", "--d", "2049", "--n", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dimension guard: refusing to enumerate the 2049 types of (d, n) = (2049, 1)")
    assert main(["dims", "--d", "2048", "--n", "1"]) == 0  # exactly the cap
    assert '"actual": 2048' in capsys.readouterr().out


def test_enumerate_types_lists_a_thousand_letters_without_recursing():
    # a recursion one level per letter stopped at d ~ 1000 with RecursionError
    types = enumerate_types(1500, 1)
    assert [t.entries.index(1) for t in types] == list(range(1500))
    with pytest.raises(ValueError, match="n must be nonnegative"):
        enumerate_types(3, -1)


def test_conjugation_fixed_dimension_leaves_no_cyclic_garbage():
    # a self-calling closure left 7 objects in a reference cycle on every call
    import gc

    from symsub.exactcomb import conjugation_fixed_dimension

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert conjugation_fixed_dimension(3, 6) == sym_dim(9, 6)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_dims_command_refuses_a_long_type_list_before_its_factorial(capsys):
    # rising_factorial_dim once computed factorial(n), and at n = 2^21 that ran for
    # minutes before the type-list guard was reached; it now takes min(n, d - 1) steps
    import json
    import time

    from symsub.cli import main

    start = time.perf_counter()
    assert main(["dims", "--d", "2", "--n", "2097152"]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dimension guard: refusing to enumerate the 2097153 types of (d, n) = (2, 2097152)")
    assert main(["dims", "--d", "2", "--n", "3"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [
        {"name": "sym_dim", "expected": 4, "actual": 4, "tolerance": None, "pass": True},
        {"name": "rising_factorial_form", "expected": "4/1", "actual": "4/1", "tolerance": None, "pass": True},
        {"name": "type_count", "expected": 4, "actual": 4, "tolerance": None, "pass": True},
    ]


def test_rising_factorial_dim_equals_the_product_over_n_factorial():
    from math import factorial

    for d in range(1, 40):
        num = 1
        for n in range(60):
            assert rising_factorial_dim(d, n) == Fraction(num, factorial(n)), (d, n)
            num *= d + n
    assert rising_factorial_dim(2, 2**21 - 2) == 2**21 - 1
    assert rising_factorial_dim(1, 10**12) == 1
    for d, n, message in [(0, 5, "d must be positive"), (-3, 2, "d must be positive"), (2, -1, "n must be nonnegative")]:
        with pytest.raises(ValueError, match=message):
            sym_dim(d, n)
        with pytest.raises(ValueError, match=message):
            rising_factorial_dim(d, n)


def test_dims_command_finishes_at_d_one_and_a_trillion_copies():
    # the product form built n! twice here; a timeout keeps a slow form from hanging the suite
    import json
    import os
    import subprocess
    import sys
    import time
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "symsub.cli", "dims", "--d", "1", "--n", "1000000000000"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert [(c["name"], c["actual"], c["pass"]) for c in checks] == [
        ("sym_dim", 1, True), ("rising_factorial_form", "1/1", True), ("type_count", 1, True)
    ]
