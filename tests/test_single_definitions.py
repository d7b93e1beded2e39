"""Behaviour that rides on one shared definition: the CSV writer, the seed flag's
range, the enumeration refusals, the tensor-power mean's block draws and the
real Wick check's index-map comparison."""

import csv
import io
import json
import math

import pytest

from symsub.cli import main
from symsub.guards import DimensionGuardError, guard_matchings, guard_partitions, guard_permutations


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dumped_operator_is_one_csv_cell(capsys):
    argv = ["mc", "meanpower", "--dist", "haar", "--d", "2", "--n", "1", "--samples", "10", "--dump-operator"]
    code, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header, data = rows[0], rows[1]
    assert header == ["table", "mean_operator", "json"]
    # a table row is its name and one cell per header column
    assert data[0] == "mean_operator" and len(data) - 1 == len(header) - 2
    code, out, _ = _run(capsys, argv)
    assert code == 0
    [[cell]] = json.loads(out)["tables"]["mean_operator"]["rows"]
    assert data[1] == cell and json.loads(data[1]) == json.loads(cell)
    assert [row[0] for row in rows[2:]] == ["check", "verdict"] and len(rows[2]) == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--d", "2", "--n", "3", "--seed", "-1"],
        ["mc", "moment", "--D", "4", "--r", "1", "--n", "2", "--seed", "-1"],
        ["--seed", "-1", "mc", "moment", "--D", "4", "--r", "1", "--n", "2"],
    ],
)
def test_negative_seed_is_a_usage_error_naming_the_flag(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --seed: expected an integer >= 0, got '-1'" in captured.err


@pytest.mark.parametrize(
    "guard,cap,message",
    [
        (guard_permutations, 9, "refusing to enumerate S_10 (10! elements; cap n <= 9)"),
        (guard_partitions, 60, "refusing to enumerate the partitions of 61 (more than 10**6 of them; cap n <= 60)"),
        (guard_matchings, 6, "refusing to enumerate perfect matchings of [2*7] ((2n-1)!! elements; cap n <= 6)"),
    ],
)
def test_enumeration_refusals_keep_their_text(guard, cap, message):
    guard(cap)  # the cap itself is listed
    with pytest.raises(DimensionGuardError) as err:
        guard(cap + 1)
    assert str(err.value) == message


@pytest.mark.parametrize("total", [1, 1024, 1025, 2500])
def test_tensor_power_mean_draws_each_block_once(total):
    from symsub.randomness import BLOCK_SIZE, RngStream, haar_state_batch, mc_tensor_power_mean

    sizes = []

    def sampler(gen, m):
        sizes.append(m)
        return haar_state_batch(2, gen, m)

    est = mc_tensor_power_mean(sampler, 2, total, RngStream(3))
    assert len(sizes) == math.ceil(total / BLOCK_SIZE) and sum(sizes) == total
    assert est.mean.row_dims == (2, 2)


WICK = ["verify", "wick", "--field", "real", "--d", "2", "--n", "3", "--samples", "2000"]


def test_real_wick_check_fails_on_a_wrong_matching(capsys, monkeypatch):
    from symsub import tensorspace

    def shifted(pi):  # pairs slot pi(m) with column slot m + 1 (mod n): P(pi o shift), not P(pi)
        n = pi.n
        return tensorspace.Matching(tuple((pi.images[m], n + (m + 1) % n) for m in range(n)))

    monkeypatch.setattr(tensorspace, "matching_from_permutation", shifted)
    code, out, _ = _run(capsys, WICK)
    assert code == 1
    check = next(c for c in json.loads(out)["checks"] if c["name"] == "matching_vs_permutation_max_entry")
    assert check["actual"] == "1" and check["pass"] is False


def test_real_wick_check_builds_no_dense_operator(capsys, monkeypatch):
    from symsub import tensorspace

    def refuse(*args):
        raise AssertionError("the Wick check compares index maps")

    monkeypatch.setattr(tensorspace, "permutation_operator", refuse)
    monkeypatch.setattr(tensorspace, "matching_operator", refuse)
    code, out, _ = _run(capsys, WICK)
    assert code == 0
    check = next(c for c in json.loads(out)["checks"] if c["name"] == "matching_vs_permutation_max_entry")
    assert check["actual"] == "0" and check["pass"] is True
