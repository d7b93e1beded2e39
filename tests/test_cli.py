"""Command-line interface contract: exit codes, schema, determinism, formats."""

import json

import pytest

from symsub.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json_run(capsys, argv):
    code, out, _ = _run(capsys, argv)
    return code, json.loads(out)


def test_verify_psym_passes(capsys):
    code, doc = _json_run(capsys, ["verify", "psym", "--d", "2", "--n", "3"])
    assert code == 0
    assert doc["schema"] == 1
    assert doc["verdict"] == "pass"
    names = {c["name"] for c in doc["checks"]}
    assert "trace" in names and "type_basis_agreement_frobenius" in names
    trace = next(c for c in doc["checks"] if c["name"] == "trace")
    assert trace["expected"] == 4


def test_verify_chiribella_passes(capsys):
    code, doc = _json_run(capsys, ["verify", "chiribella", "--d", "2", "--n", "2", "--k", "1"])
    assert code == 0
    assert doc["verdict"] == "pass"


@pytest.mark.parametrize("fail_at", [None, 1])
def test_chiribella_coefficient_identity_runs_once_and_a_failure_is_reported(capsys, monkeypatch, fail_at):
    from symsub import channels

    real, calls = channels.chiribella_coefficient_identity, []

    def identity(d, n, k, s):
        calls.append(s)
        return s != fail_at and real(d, n, k, s)

    monkeypatch.setattr(channels, "chiribella_coefficient_identity", identity)
    code, doc = _json_run(capsys, ["verify", "chiribella", "--d", "2", "--n", "2", "--k", "2"])
    exact = next(c for c in doc["checks"] if c["name"] == "exact_coefficient_identity")
    if fail_at is None:
        assert code == 0 and exact["pass"] and calls == [0, 1, 2]
    else:
        assert code == 1 and doc["verdict"] == "fail" and calls == [0, 1]
        assert doc["checks"] == [exact] and exact["actual"] is False


def test_verify_jacobi_and_commutant(capsys):
    code, _ = _json_run(capsys, ["verify", "jacobi", "--d", "3", "--n", "4", "--k", "2"])
    assert code == 0
    code, _ = _json_run(capsys, ["verify", "commutant-dim", "--d", "2", "--n", "3"])
    assert code == 0


def test_dims_and_coeffs(capsys):
    code, doc = _json_run(capsys, ["dims", "--d", "3", "--n", "2"])
    assert code == 0 and doc["checks"][0]["actual"] == 6
    code, doc = _json_run(capsys, ["coeffs", "--d", "2", "--n", "2", "--k", "1"])
    assert code == 0
    rows = doc["tables"]["mp_clone_coefficients"]["rows"]
    assert rows == [[0, "1/2"], [1, "1/2"]]


def test_definetti_commands(capsys):
    code, doc = _json_run(capsys, ["definetti", "eps", "--d", "2", "--n", "100", "--k", "1"])
    assert code == 0
    eps = next(c for c in doc["checks"] if c["name"] == "epsilon")
    assert eps["actual"] == "3/102".replace("3/102", "1/34")  # reduced form
    code, doc = _json_run(capsys, ["definetti", "coeffs", "--d", "2", "--n", "4", "--k", "1"])
    assert code == 0
    rows = doc["tables"]["coefficients"]["rows"]
    assert rows[0][:3] == [0, "x", "3/2"]
    code, _ = _json_run(capsys, ["verify", "expdefinetti", "--d", "2", "--n", "4", "--k", "1"])
    assert code == 0


def test_bound_tail_csv(capsys):
    code, out, _ = _run(
        capsys,
        ["--format", "csv", "bound", "tail", "--dims", "2,2", "--r", "1", "--gamma", "1", "--nmax", "8"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("table,per_n,n,bound")
    assert lines[-1] == "verdict,pass"
    assert len([l for l in lines if l.startswith("per_n,")]) == 8


def test_bound_smoothgap_exit_reflects_threshold(capsys):
    code, doc = _json_run(capsys, ["bound", "smoothgap", "--d", "2", "--x", "1"])
    assert code == 0 and doc["verdict"] == "pass"
    code, doc = _json_run(capsys, ["bound", "smoothgap", "--d", "3", "--x", "1"])
    assert code == 1 and doc["verdict"] == "fail"


def test_mc_commands(capsys):
    code, doc = _json_run(
        capsys, ["--samples", "20000", "--seed", "5", "mc", "moment", "--D", "4", "--r", "1", "--n", "2"]
    )
    assert code == 0
    code, doc = _json_run(
        capsys, ["--samples", "2000", "--seed", "5", "mc", "schmidt", "--d", "8", "--eps", "0.3"]
    )
    assert code == 0
    code, doc = _json_run(
        capsys,
        ["--seed", "5", "mc", "productfree", "--dims", "2,2", "--r", "3", "--trials", "2"],
    )
    assert code == 0
    assert doc["checks"][0]["actual"] is False  # threshold not met, no claim


def test_mc_schmidt_overflowing_threshold_is_inf(capsys):
    # e^1000 overflows a float: the threshold is inf, nothing reaches it, and
    # the bound e^(-4000) underflows to 0
    code, out, err = _run(capsys, ["mc", "schmidt", "--d", "4", "--eps", "1000", "--samples", "100"])
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 0 and err == ""
    assert checks["threshold"]["actual"] == "inf"
    assert checks["exceedance_fraction"]["actual"] == "0"
    assert checks["exceedance_fraction"]["tolerance"] == "0"


def test_mc_meanpower_and_wick(capsys):
    code, _ = _json_run(
        capsys,
        ["--samples", "20000", "--seed", "2", "mc", "meanpower", "--dist", "haar", "--d", "2", "--n", "2"],
    )
    assert code == 0
    code, _ = _json_run(
        capsys,
        ["--samples", "20000", "--seed", "2", "verify", "wick", "--field", "real", "--d", "2", "--n", "2"],
    )
    assert code == 0


def test_seeded_reports_are_identical(capsys):
    argv = ["--samples", "5000", "--seed", "11", "mc", "moment", "--D", "4", "--r", "1", "--n", "2"]
    _, doc_a = _json_run(capsys, argv)
    _, doc_b = _json_run(capsys, argv)
    doc_a.pop("elapsed_ms")
    doc_b.pop("elapsed_ms")
    assert doc_a == doc_b


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "nonsense"])
    assert err.value.code == 2


def test_guard_violation_exits_3(capsys):
    code, out, err = _run(capsys, ["verify", "psym", "--d", "2", "--n", "20"])
    assert code == 3
    assert "dimension guard" in err


def test_max_dim_flag_allows_override(capsys):
    code, _, err = _run(capsys, ["--max-dim", "32", "verify", "psym", "--d", "2", "--n", "6"])
    assert code == 3
    code, _, _ = _run(capsys, ["--max-dim", "64", "verify", "psym", "--d", "2", "--n", "6"])
    assert code == 0


def test_tol_scale_tightens_gates(capsys):
    # a statistical residual cannot beat a 1e-12-scaled five-sigma gate
    argv = ["--samples", "20000", "--seed", "5", "--tol-scale", "1e-12",
            "verify", "wick", "--field", "complex", "--d", "2", "--n", "2"]
    code, doc = _json_run(capsys, argv)
    assert code == 1 and doc["verdict"] == "fail"


def test_spans_accepts_equals_form_samples(capsys):
    code, doc = _json_run(capsys, ["verify", "spans", "--d", "2", "--n", "2", "--samples=30"])
    assert code == 0
    assert doc["checks"][0]["actual"] == 9


def test_max_dim_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SYMSUB_MAX_DIM", "32")
    code, _, err = _run(capsys, ["verify", "psym", "--d", "2", "--n", "6"])
    assert code == 3
    monkeypatch.setenv("SYMSUB_MAX_DIM", "64")
    code, _, _ = _run(capsys, ["verify", "psym", "--d", "2", "--n", "6"])
    assert code == 0


def test_expdefinetti_at_dense_cap_passes(capsys):
    # d^(n+k) = 2^14; the type-basis channels keep this at symmetric size
    code, doc = _json_run(capsys, ["verify", "expdefinetti", "--d", "2", "--n", "10", "--k", "4"])
    assert code == 0 and doc["verdict"] == "pass"


def test_sym_request_over_superoperator_guard_exits_3(capsys):
    # 462 x 462 symmetric coordinates exceed the 2^14 superoperator cap
    argv = ["verify", "chiribella", "--d", "6", "--n", "6", "--k", "6", "--representation", "sym"]
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert "dimension guard" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--d", "0", "--n", "2"],
        ["bound", "tail", "--dims", "2,2", "--r", "1", "--gamma", "abc"],
        ["bound", "tail", "--dims", "2,2", "--r", "1", "--gamma", "0"],
        ["mc", "moment", "--D", "4", "--r", "1", "--n", "2", "--samples", "0"],
        ["--samples", "-5", "mc", "moment", "--D", "4", "--r", "1", "--n", "2"],
        ["verify", "chiribella", "--d", "2", "--n", "2", "--k", "-1"],
        ["--max-dim", "0", "dims", "--d", "2", "--n", "1"],
        ["--max-dim", "-5", "dims", "--d", "2", "--n", "1"],
        ["dims", "--d", "2", "--n", "1", "--max-dim", "0"],
        ["--tol-scale", "-1", "verify", "psym", "--d", "2", "--n", "2"],
        ["--tol-scale", "nan", "verify", "psym", "--d", "2", "--n", "2"],
        ["--tol-scale", "inf", "verify", "psym", "--d", "2", "--n", "2"],
        ["--tol-scale", "0", "verify", "psym", "--d", "2", "--n", "2"],
        ["verify", "psym", "--d", "2", "--n", "2", "--tol-scale", "abc"],
        ["mc", "schmidt", "--d", "4", "--eps", "-1", "--samples", "100"],
        ["mc", "schmidt", "--d", "4", "--eps", "inf", "--samples", "100"],
        ["mc", "schmidt", "--d", "4", "--eps", "nan", "--samples", "100"],
        ["mc", "schmidt", "--d", "4", "--eps", "0", "--samples", "100"],
        ["verify", "chiribella", "--d", "2", "--n", "2", "--k", "1", "--representation", "auto"],
    ],
)
def test_bad_input_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["mc", "moment", "--D", "0", "--r", "1", "--n", "2"],
        ["bound", "tail", "--dims", "2,2", "--r", "0", "--gamma", "1"],
        ["bound", "tail", "--dims", "2,2", "--r", "1", "--gamma", "1", "--nmax", "0"],
        ["bound", "smoothgap", "--d", "2", "--x", "0"],
        ["mc", "productfree", "--dims", "2,3", "--r", "2", "--trials", "-1"],
        ["mc", "productfree", "--dims", "2,3", "--r", "2", "--restarts", "0"],
        ["definetti", "coeffs", "--d", "2", "--n", "4", "--k", "1", "--r", "-1"],
    ],
)
def test_integer_flag_ranges_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["definetti", "coeffs", "--d", "2", "--n", "2", "--k", "5"],
        ["verify", "expdefinetti", "--d", "2", "--n", "2", "--k", "5"],
        ["mc", "moment", "--D", "4", "--r", "5", "--n", "2"],
        ["bound", "tail", "--dims", "2,0", "--r", "1", "--gamma", "1"],
    ],
)
def test_library_range_errors_exit_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("symsub: error: ") and err.count("\n") == 1


def test_productfree_readme_example_passes_on_tail_statement(capsys):
    code, doc = _json_run(capsys, ["mc", "productfree", "--dims", "2,3", "--r", "2"])
    checks = {c["name"]: c for c in doc["checks"]}
    assert code == 0 and doc["verdict"] == "pass"
    assert checks["gamma"]["actual"] == "999/1000"
    # two of the 20 seed-0 trials reach gamma, within the 0.179 tail bound
    assert checks["trials_at_or_above_gamma"]["actual"] == 2
    assert checks["exceedance_fraction"]["actual"] == "1/10"
    assert abs(float(checks["tail_bound"]["actual"]) - 0.17926587835493518) <= 1e-15
    assert float(checks["max_product_overlap"]["actual"]) >= 999 / 1000


def test_productfree_rank_above_total_exits_2(capsys):
    code, out, err = _run(capsys, ["mc", "productfree", "--dims", "2,3", "--r", "7"])
    assert code == 2 and out == ""
    assert err == "symsub: error: need 1 <= rank <= prod(dims)\n"


def test_bound_tail_rank_above_total_exits_2(capsys):
    code, out, err = _run(capsys, ["bound", "tail", "--dims", "2,2", "--r", "9", "--gamma", "1", "--nmax", "3"])
    assert code == 2 and out == ""
    assert err == "symsub: error: need 1 <= rank <= prod(dims)\n"
    code, doc = _json_run(capsys, ["bound", "tail", "--dims", "2,2", "--r", "4", "--gamma", "1", "--nmax", "3"])
    assert code == 0 and doc["tables"]["per_n"]["rows"] == [[1, "4"], [2, "9"], [3, "16"]]


def test_spans_at_n0_reports_rank_one(capsys):
    code, doc = _json_run(capsys, ["verify", "spans", "--d", "2", "--n", "0"])
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["checks"] == [
        {"name": "span_rank", "expected": 1, "actual": 1, "tolerance": None, "pass": True}
    ]


def test_definetti_coeffs_large_case_pinned(capsys):
    code, doc = _json_run(capsys, ["definetti", "coeffs", "--d", "3", "--n", "1000", "--k", "80"])
    assert code == 0 and doc["verdict"] == "pass"
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["delta"]["actual"] == "166/25"
    assert checks["exact_inversion_identity"]["actual"] is True
    rows = doc["tables"]["coefficients"]["rows"]
    assert len(rows) == 81 and rows[-1][:2] == [80, "y"]  # x_0..x_79, then y_80
    assert rows[0] == [
        0, "x",
        "53349358317128502047214006022117091083432422685927793086501688173050548882340033276346327228756287354392"
        "/75738151782950200600710534949465215796564792496141056412036005761198449186419955347737599022616386975",
        "", "n/a",
    ]


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
def test_bad_max_dim_env_var_exits_2_naming_it(capsys, monkeypatch, value):
    # a cap the variable cannot hold is bad input, not a guard refusal at "cap 0"
    monkeypatch.setenv("SYMSUB_MAX_DIM", value)
    code, out, err = _run(capsys, ["verify", "psym", "--d", "2", "--n", "2"])
    assert code == 2 and out == ""
    assert err == f"symsub: error: SYMSUB_MAX_DIM must be a positive integer, got {value!r}\n"


def test_symmetrizer_beyond_int64_is_a_size_refusal(capsys):
    # 2^21 passes a raised side cap, but the 2^21-sided projector's first
    # allocation is refused by numpy at once, and that is a size refusal too
    code, out, err = _run(capsys, ["--max-dim", "3000000", "verify", "psym", "--d", "2", "--n", "21"])
    assert code == 3 and out == ""
    assert err == (
        "dimension guard: Unable to allocate 32.0 TiB for an array with shape "
        "(2097152, 2097152) and data type float64\n"
    )


def test_spans_beyond_memory_is_a_size_refusal(capsys):
    # 10^11 sampled vectors are refused at their first allocation
    code, out, err = _run(capsys, ["verify", "spans", "--d", "2", "--n", "2", "--samples", "100000000000"])
    assert code == 3 and out == ""
    assert err.startswith("dimension guard: Unable to allocate ")


def test_symmetrizer_refusal_comes_before_the_string_types(capsys):
    # the builders allocate before they read the types of 2^21 strings, which took 1.3 s
    import time

    start = time.perf_counter()
    code, out, err = _run(capsys, ["--max-dim", "3000000", "verify", "psym", "--d", "2", "--n", "21"])
    assert time.perf_counter() - start < 0.5
    assert code == 3 and out == ""
    assert err == (
        "dimension guard: Unable to allocate 32.0 TiB for an array with shape "
        "(2097152, 2097152) and data type float64\n"
    )


def _traced_peak(capsys, argv):
    import tracemalloc

    _run(capsys, argv[:2] + ["--d", "2", "--n", "2"])  # first-call imports
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    return code, peak


def test_verify_psym_holds_one_scratch_matrix(capsys):
    # the 1024-sided projector is 8 MiB; a fresh temporary per check took the peak to 25 MiB
    code, peak = _traced_peak(capsys, ["verify", "psym", "--d", "2", "--n", "10"])
    assert code == 0 and peak < 20 * 2**20


def test_verify_spans_rows_are_sym_dim_squared_wide(capsys):
    # 420 rows of 400 type-coordinate entries; the 4096-wide dense rows peaked at 27.5 MiB
    code, peak = _traced_peak(capsys, ["verify", "spans", "--d", "4", "--n", "3"])
    assert code == 0 and peak < 8 * 2**20


def test_verify_spans_keeps_its_cap_on_the_dense_width(capsys):
    # the rows are 81 wide at (2, 8), but the frame's reach is still capped at d^(2n) = 65536
    code, out, err = _run(capsys, ["verify", "spans", "--d", "2", "--n", "8"])
    assert code == 3 and out == ""
    assert err.startswith("dimension guard: refusing to materialize span rows of dimension 65536 (cap 16384;")


@pytest.mark.parametrize("flag", ["--sample", "--sampl"])
def test_abbreviated_samples_flag_is_the_samples_flag(capsys, flag):
    # argparse accepts an unambiguous prefix; the sample count must come from it too
    spans = ["verify", "spans", "--d", "2", "--n", "2"]
    short = _run(capsys, spans + [flag, "3"])
    assert short == _run(capsys, spans + ["--samples", "3"])
    assert short[0] == 2 and "need at least 14 samples" in short[2]
    code, doc = _json_run(capsys, spans + [flag, "30"])
    _, full = _json_run(capsys, spans + ["--samples", "30"])
    assert code == 0
    assert {**doc, "elapsed_ms": 0} == {**full, "elapsed_ms": 0}


def test_samples_default_is_resolved_per_command(capsys):
    # a command that reports its sample count samples 100000 times by default
    code, doc = _json_run(capsys, ["mc", "moment", "--D", "4", "--r", "2", "--n", "1"])
    assert code == 0 and doc["params"]["samples"] == 100000


def test_real_wick_check_keeps_the_matching_cap(capsys):
    # its matching-versus-permutation check builds n! pairs of dense operators
    code, out, err = _run(capsys, ["verify", "wick", "--field", "real", "--d", "2", "--n", "7"])
    assert code == 3 and out == ""
    assert err == (
        "dimension guard: refusing to enumerate perfect matchings of [2*7] "
        "((2n-1)!! elements; cap n <= 6)\n"
    )


def test_real_unit_meanpower_runs_past_the_matching_cap(capsys):
    argv = ["mc", "meanpower", "--dist", "real-unit", "--d", "2", "--n", "7", "--samples", "20000"]
    code, doc = _json_run(capsys, argv)
    assert code == 0 and doc["verdict"] == "pass"


@pytest.mark.parametrize("d", ["79", "80", "81"])
def test_bound_smoothgap_past_float_range_exits_3(capsys, d):
    code, out, err = _run(capsys, ["bound", "smoothgap", "--d", d, "--x", "1"])
    assert code == 3 and out == ""
    assert err.startswith("dimension guard: refusing ") and err.count("\n") == 1
    if d != "79":
        assert err.startswith(f"dimension guard: refusing the tail term at n = {d}^")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "psym", "--d", "1000", "--n", "1000"],
        ["dims", "--d", "1000", "--n", "1000"],
        ["bound", "smoothgap", "--d", "79", "--x", "1"],
    ],
)
def test_refusals_of_huge_sizes_print_one_short_line(capsys, argv):
    # the whole integers made lines of up to 3,129 characters
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("dimension guard: refusing ") and err.count("\n") == 1
    assert "about 2^" in err and len(err) < 200


def test_guard_messages_print_twenty_digits_in_full_and_more_as_a_power_of_two():
    from symsub.guards import DimensionGuardError, guard_dimension

    with pytest.raises(DimensionGuardError, match=r"of dimension 99999999999999999999 \(cap"):
        guard_dimension(10**20 - 1)
    with pytest.raises(DimensionGuardError, match=r"of dimension about 2\^66 \(cap"):
        guard_dimension(10**20)  # 2^66.4


def test_meanpower_dump_operator_is_the_estimate_of_the_same_stream(capsys):
    from symsub.randomness import RngStream, haar_state_batch, mc_tensor_power_mean
    from symsub.tensorspace import operator_from_json

    argv = ["mc", "meanpower", "--dist", "haar", "--d", "2", "--n", "2", "--samples", "3000", "--seed", "5",
            "--dump-operator"]
    code, doc = _json_run(capsys, argv)
    assert code == 0
    [[dumped]] = doc["tables"]["mean_operator"]["rows"]
    back = operator_from_json(json.loads(dumped))
    est = mc_tensor_power_mean(lambda gen, m: haar_state_batch(2, gen, m), 2, 3000, RngStream(5))
    assert back.row_dims == back.col_dims == (2, 2)
    assert back.entries.tobytes() == est.mean.entries.tobytes()
