"""Command-line behaviour: output shapes, exit codes, cache discipline."""

from __future__ import annotations

import csv
import decimal
import functools
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ncgram import cli, gram, partitions, tensor_model, tutte
from ncgram.cli import main
from ncgram.errors import BudgetError
from ncgram.polynomials import IntPolynomial
from ncgram.tutte import recursion_det


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--points", "4", "--class", "nc")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 15
    assert lines[-1] == "count 14"
    assert lines[0] == "0|4|0000"


def test_enumerate_empty(capsys):
    code, out, _ = run(capsys, "enumerate", "--points", "0", "--class", "nc")
    assert code == 0
    assert out.splitlines() == ["0|0|", "count 1"]


def test_enumerate_budget_admits_the_sizes_it_names():
    # NC(13) = 742,900, ALL(11) = 678,570 and NC2(26) = 742,900 are listed;
    # one point more (two for pairs) is refused
    for points, cls in ((13, "nc"), (11, "all"), (26, "nc2")):
        cls = cli._CLASS_BY_FLAG[cls]
        gram._check_class_budget(points, cls, cli.ENUMERATE_BUDGET)
        step = 2 if cls is partitions.PartitionClass.NONCROSSING_PAIRS else 1
        with pytest.raises(BudgetError):
            gram._check_class_budget(points + step, cls, cli.ENUMERATE_BUDGET)


@pytest.mark.parametrize(
    "argv, last",
    [
        (("gram", "--points", "41", "--class", "nc2", "--param", "4", "--det"), '"det": "1"'),
        (("enumerate", "--points", "41", "--class", "nc2"), "count 0"),
    ],
)
def test_odd_pair_classes_exit_at_once(capsys, argv, last):
    # NC2 at an odd point count is empty: its 0×0 Gram matrix has det 1,
    # and no prefix of the class is searched
    started = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert code == 0
    assert last in out


def test_enumerate_prints_as_the_generator_yields(capsys, monkeypatch):
    # the CLI streams the class; the list builder is never called
    def no_list(*args):
        raise AssertionError("the class was listed")

    # cli binds no list builder of its own, so patching partitions covers it
    assert not hasattr(cli, "enumerate_partitions")
    monkeypatch.setattr(partitions, "enumerate_partitions", no_list)
    code, out, _ = run(capsys, "enumerate", "--points", "5", "--class", "nc")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count 42"
    assert lines[:-1] == [p.to_text() for p in partitions.iter_partitions(5, cli._CLASS_BY_FLAG["nc"])]


def test_enumerate_pairs(capsys):
    code, out, _ = run(capsys, "enumerate", "--points", "6", "--class", "nc2")
    assert code == 0
    assert out.splitlines()[-1] == "count 5"


def test_unknown_class_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--points", "4", "--class", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("recursion", "--points", "4", "--param", "4", "--class", "all"),
        ("recursion", "--points", "4", "--param", "4", "--symbolic"),
        ("recursion", "--points", "4", "--param", "4", "--cache", "f"),
        ("enumerate", "--points", "4", "--param", "4"),
        ("enumerate", "--points", "4", "--format", "csv"),
        ("laws", "--class", "nc"),
        ("laws", "--cache", "f"),
    ],
)
def test_a_flag_the_command_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


# ---------------------------------------------------------------------------
# gram


def test_gram_det_json(capsys):
    code, out, _ = run(capsys, "gram", "--points", "2", "--class", "nc", "--param", "4", "--det")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 2, "class": "nc", "N_or_symbolic": 4, "det": "48"}


def test_gram_symbolic_det_coefficients(capsys):
    code, out, _ = run(capsys, "gram", "--points", "1", "--class", "nc", "--symbolic", "--det")
    assert code == 0
    assert json.loads(out)["det"] == [0, 1]


def test_gram_rank(capsys):
    code, out, _ = run(capsys, "gram", "--points", "4", "--class", "all", "--param", "2", "--rank")
    assert code == 0
    assert json.loads(out)["rank"] == 8


def test_gram_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "gram",
        "--points",
        "2",
        "--class",
        "nc",
        "--param",
        "4",
        "--det",
        "--format",
        "csv",
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "n,class,N_or_symbolic,det"
    assert row == "2,nc,4,48"


@pytest.mark.parametrize(
    "argv, nested",
    [
        (("recursion", "--points", "2", "--param", "4"), "trace"),
        (("laws",), "reports"),
    ],
)
def test_csv_nested_cells_are_quoted_json(capsys, argv, nested):
    # a list-of-dict cell holds commas; csv quotes it, and it reads back
    # as the value of the JSON output
    code, out, _ = run(capsys, *argv)
    assert code == 0
    expected = json.loads(out)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    header, row = csv.reader(out.splitlines())
    assert header == list(expected)
    assert len(row) == len(header)
    assert json.loads(row[header.index(nested)]) == expected[nested]


def test_gram_without_work_is_usage_error(capsys):
    code, _, err = run(capsys, "gram", "--points", "2", "--class", "nc", "--param", "4")
    assert code == 2
    assert "error" in err


def test_gram_symbolic_det_of_an_empty_class(capsys):
    # NC2 on an odd number of points is empty; its determinant is the
    # constant polynomial 1
    argv = ("gram", "--points", "3", "--class", "nc2", "--symbolic", "--det")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["det"] == [1]


def test_gram_rank_needs_numeric_parameter(capsys):
    code, _, _ = run(capsys, "gram", "--points", "2", "--class", "nc", "--symbolic", "--rank")
    assert code == 2


def test_gram_negative_points_rejected(capsys):
    code, _, _ = run(capsys, "gram", "--points", "-1", "--class", "nc", "--param", "4", "--det")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("gram", "--points", "9", "--param", "4", "--det"),
        ("gram", "--points", "9", "--param", "4", "--rank"),
        ("gram", "--points", "8", "--class", "all", "--param", "2", "--rank"),
        ("recursion", "--points", "9", "--param", "4", "--verify"),
    ],
)
def test_over_budget_jobs_exit_before_the_build(capsys, monkeypatch, argv):
    # 4862 (and Bell(8) = 4140) labels exceed the budget of 2000; the pair
    # loop must never start, so an exponent table or a single entry's
    # join labels computed by any matrix builder would fail the test.
    def no_pair_loop(*args):
        raise AssertionError("the Gram pair loop ran")

    monkeypatch.setattr(gram, "_exponent_table", no_pair_loop)
    monkeypatch.setattr(gram, "join_labels", no_pair_loop)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_over_budget_verify_exits_before_the_recursion(capsys, monkeypatch):
    # NC(10) has 16796 labels, past the budget of 2000: the direct route
    # cannot run, so the recursion must not run first either.
    def no_recursion(*args):
        raise AssertionError("the recursion ran")

    monkeypatch.setattr(cli, "recursion_trace", no_recursion)
    code, out, err = run(capsys, "recursion", "--points", "10", "--param", "4", "--verify")
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_recursion_of_ten_million_points_exits_from_small_counts(capsys, monkeypatch):
    # the Hadamard bound grows with the point count, so the first bound
    # past the budget refuses; C_{10^7} is never formed
    real_sizes = gram._class_sizes

    def small_sizes(points, cls):
        if points > 30:
            raise AssertionError(f"C_{points} was computed")
        return real_sizes(points, cls)

    monkeypatch.setattr(gram, "_class_sizes", small_sizes)
    started = time.perf_counter()
    code, out, err = run(capsys, "recursion", "--points", "10000000", "--param", "4")
    assert time.perf_counter() - started < 1
    assert code == 3
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("gram", "--points", "20", "--class", "all", "--param", "4", "--det"),
        ("gram", "--points", "14", "--param", "4", "--det"),
        ("gram", "--points", "14", "--symbolic", "--det"),
        ("gram", "--points", "30", "--class", "nc2", "--param", "4", "--rank"),
        ("recursion", "--points", "14", "--param", "4", "--verify"),
        ("gram", "--points", "2100", "--class", "all", "--param", "4", "--det"),
        ("gram", "--points", "8000", "--param", "4", "--det"),
        ("recursion", "--points", "8000", "--param", "4", "--verify"),
        ("enumerate", "--points", "20"),
        ("enumerate", "--points", "4000", "--class", "all"),
    ],
)
def test_over_budget_jobs_exit_before_any_enumeration(capsys, monkeypatch, argv):
    # the class is counted in closed form: Bell(20) ≈ 5·10^13 labels are
    # never listed, so an enumeration anywhere would fail the test; the
    # exit stays 3 for class sizes past str()'s 4300 digits; tutte lists
    # its strata by the one generator, which it binds by name
    def no_enumeration(*args):
        raise AssertionError("the labels were enumerated")

    for module in (partitions, gram):
        monkeypatch.setattr(module, "enumerate_partitions", no_enumeration)
    for module in (partitions, tutte):
        monkeypatch.setattr(module, "_enumerate", no_enumeration)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_over_budget_class_exits_at_once(capsys):
    # the Bell triangle up to 4000 points takes seconds to build; the
    # budget check stops at Bell(8) = 4140
    argv = ("gram", "--points", "4000", "--class", "all", "--param", "4", "--det")
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_over_budget_symbolic_det_exits_before_the_elimination(capsys):
    # NC(8) builds (1430 rows, under the dimension budget), but its one
    # substituted determinant would have 37.5M bits
    code, out, err = run(capsys, "gram", "--points", "8", "--symbolic", "--det")
    assert code == 3
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("job", ["--det", "--rank"])
def test_a_determinant_past_the_bit_budget_exits_before_any_label(capsys, monkeypatch, job):
    # |det| of NC(8) at N = 10^200 is bounded by N^6435, 4.3M bits, past
    # RECURSION_BIT_BUDGET: the elimination would run for hours. The bound
    # is a few small closed-form counts, so no label is listed.
    def no_enumeration(*args):
        raise AssertionError("the labels were enumerated")

    monkeypatch.setattr(gram, "enumerate_partitions", no_enumeration)
    started = time.perf_counter()
    code, out, err = run(capsys, "gram", "--points", "8", "--param", str(10**200), job)
    assert time.perf_counter() - started < 1
    assert code == 3
    assert out == ""
    assert "bits of the noncrossing determinant on 8 points" in err


def test_a_determinant_inside_the_bit_budget_still_runs(capsys):
    # NC(7) at N = 10^100 is bounded by 570K bits; both routes agree on it
    code, out, _ = run(capsys, "gram", "--points", "7", "--param", str(10**100), "--det")
    assert code == 0
    assert int(decimal.Decimal(json.loads(out)["det"])) == recursion_det(7, 10**100)


def test_over_budget_recursion_exits_at_once(capsys):
    # the Hadamard bound of det A(30, 0) at N = 4 has about 3.8·10^15 bits
    started = time.perf_counter()
    code, out, err = run(capsys, "recursion", "--points", "30", "--param", "4")
    assert time.perf_counter() - started < 1
    assert code == 3
    assert out == ""
    assert "budget" in err


# ---------------------------------------------------------------------------
# recursion


def test_recursion_base_case(capsys):
    code, out, _ = run(capsys, "recursion", "--points", "1", "--param", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["det"] == "4"
    assert payload["trace"] == [{"level_n": 1, "r": 0, "base_value": "4"}]


def test_recursion_verify_agrees(capsys):
    code, out, _ = run(capsys, "recursion", "--points", "4", "--param", "4", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["det"] == payload["direct"]


def test_recursion_prints_values_past_the_str_digit_limit(capsys):
    # the 9-point numerator has 9405 digits, past str()'s default 4300
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "recursion", "--points", "9", "--param", "4")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    num, _, den = json.loads(out)["det"].partition("/")
    value = Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den or "1")))
    assert value == recursion_det(9, 4)


def test_recursion_prints_trace_numbers_past_the_str_digit_limit(capsys):
    # three points at N = 10^2200 pass the bit budget (73k bits by the
    # Hadamard bound); the trace holds N² = 10^4400, of 4401 digits, and the
    # level-0 factor (N − 1)/N
    N = 10**2200
    code, out, err = run(capsys, "recursion", "--points", "3", "--param", str(N))
    assert code == 0, err
    payload = json.loads(out)
    bases = {step["level_n"]: step["base_value"] for step in payload["trace"] if "base_value" in step}
    assert len(bases[3]) == 4401 and bases[3] == "1" + "0" * 4400
    factors = [step["factor_beta"] for step in payload["trace"] if "factor_beta" in step]
    assert factors[0] == factors[1] == "9" * 2200 + "/1" + "0" * 2200
    value = int(decimal.Decimal(payload["det"]))
    assert value == recursion_det(3, N)


def test_recursion_rejects_parameter_three(capsys):
    code, _, err = run(capsys, "recursion", "--points", "4", "--param", "3")
    assert code == 2
    assert "N >= 4" in err


# ---------------------------------------------------------------------------
# laws


def test_laws_default_bounds_pass(capsys):
    code, out, _ = run(capsys, "laws")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    assert payload["N"] == 2
    names = [r["law"] for r in payload["reports"]]
    assert names[:3] == ["tensor", "involution", "composition"]
    assert all(r["cases"] > 0 for r in payload["reports"])


#: SHA-256 of `laws` stdout, JSON and CSV, for every admitted
#: (--param, --max-points) with N in 1..5 and max-points in 1..3; the rest
#: of that grid is refused with these messages on stderr.
_LAWS_DIGESTS = {
    (1, 1): (
        "857acb6d7370d49840ad6826400482dd44fbb229a5452400359ac054f28b14b9",
        "3227040a73e026d0dd0d6452c3ae00930cf0782e7ecd49ebcd527a492f1fa27a",
    ),
    (1, 2): (
        "fd40522550596fd1562453a67374540be95aa9557c4d884408502937795a436e",
        "094b5acaa76c31db6f5282138d80a1409cae751dfcaa494b3c8ac7d3c9ccc133",
    ),
    (1, 3): (
        "cffed91a2465202ac24b49fa52d6cd91a49e1a8aa3875aca44cc181cea51dbc1",
        "eea96eb4d86c68624ae2879ef830c9094d13f3ec9e3436eb2fc924be6eee48bf",
    ),
    (2, 1): (
        "58840f67757e9088bf5f07ae3bb6f5791327a6b9f156da189a39d081dd393c7b",
        "5dc2a01021b9aab42ebcccae2eb23dc81a0bc902718d18bd2ac87d9b6d575b70",
    ),
    (2, 2): (
        "dba3b74ec9280fc63c03b42f60a93a1fa56954deeddb465e649424aaa485ab0b",
        "f278f53678c916faab13b6eaed196b3a95044bf211523ce5c733d69e5c21e628",
    ),
    (3, 1): (
        "ac51143ee121954f9677a79409f1deefb8393bf1ad1da5d78e83f851bbea5f63",
        "41502fc273346f1c94db99a6d613169b6c0e423d301dc6e4d5848a20481dad73",
    ),
    (3, 2): (
        "e7ce79b17d8c1ab06342a6a2f615d286c2da7127bee20511b86e3a9ae47a1374",
        "ed60a31ed360ffbdcc48426c01401239fa9def97ff47bdd7afa16a89bf446333",
    ),
    (4, 1): (
        "8d67abef28cbe938cddfc3925420d18167698be4b51ff0284338af75f292cb1e",
        "92eb68d1b4969a26059bb5760e5892f0e632e93f06a80eb45cd1a96cee6c726c",
    ),
    (4, 2): (
        "736a917181bb2beb9f341de8bd5bed191d8687fd5fd96cc10036e0f557406e58",
        "9907b7fbc974197ba0b0ae494d4e1192e83db6a339bf221f7294e1d03f56ee0b",
    ),
    (5, 1): (
        "3a44c98e30594833494966e995db292244b813cdd2cec1a1277fcc2d404a8332",
        "6de9130305005a14d9a033038c5170906d2c8ec3a726485f2922a5e102756ab4",
    ),
}
_LAWS_REFUSALS = {
    (2, 3): "error: resource budget exceeded: law work 325870641 exceeds budget 100000000",
    (3, 3): "error: resource budget exceeded: law work over 877649124 exceeds budget 100000000",
    (4, 3): "error: resource budget exceeded: dense size of 4^12: over 1048576 exceeds budget 1000000",
    (5, 2): "error: resource budget exceeded: law work 116568996 exceeds budget 100000000",
    (5, 3): "error: resource budget exceeded: dense size of 5^12: over 1953125 exceeds budget 1000000",
}


@pytest.mark.parametrize("param, max_points", sorted(_LAWS_DIGESTS))
def test_laws_output_is_pinned(capsys, monkeypatch, param, max_points):
    # the CSV run reuses the functor-law reports of the JSON run
    monkeypatch.setattr(cli, "check_functor_laws", functools.cache(cli.check_functor_laws))
    argv = ["laws", "--param", str(param), "--max-points", str(max_points)]
    for fmt, digest in zip(("json", "csv"), _LAWS_DIGESTS[param, max_points]):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("param, max_points", sorted(_LAWS_REFUSALS))
def test_laws_refusals_are_pinned(capsys, param, max_points):
    argv = ["laws", "--param", str(param), "--max-points", str(max_points)]
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out, err) == (3, "", _LAWS_REFUSALS[param, max_points] + "\n")


@pytest.mark.parametrize("param, max_points", [(1000, 2), (2, 5), (2, 10**9)])
def test_over_budget_laws_exit_before_any_matrix(capsys, monkeypatch, param, max_points):
    # the largest shape, q ⊗ p on 4·max_points legs, is refused first; the
    # law checks read each map off `_support`, so neither builder may run
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(tensor_model, "matrix_of", no_matrix)
    monkeypatch.setattr(tensor_model, "_support", no_matrix)
    code, out, err = run(capsys, "laws", "--param", str(param), "--max-points", str(max_points))
    assert code == 3
    assert out == ""
    assert f"dense size of {param}^{4 * max_points}:" in err


@pytest.mark.parametrize("param, max_points", [(1, 4), (2, 4), (3, 3), (1, 10**9)])
def test_over_budget_law_work_exits_before_any_partition(capsys, monkeypatch, param, max_points):
    # these pass the dense budget but would run for minutes to hours; the
    # work is estimated from a few small Bell numbers, never Bell(2·10^9)
    def no_listing(*args):
        raise AssertionError("a partition was listed")

    real_count = tensor_model.count_partitions

    def small_count(points, cls):
        if points > 20:
            raise AssertionError(f"Bell({points}) was computed")
        return real_count(points, cls)

    monkeypatch.setattr(tensor_model, "_partitions_up_to", no_listing)
    monkeypatch.setattr(tensor_model, "count_partitions", small_count)
    started = time.perf_counter()
    code, out, err = run(capsys, "laws", "--param", str(param), "--max-points", str(max_points))
    assert time.perf_counter() - started < 1
    assert code == 3
    assert out == ""
    assert "law work" in err and "exceeds budget" in err


def test_law_work_budget_admits_the_documented_runs():
    # the README's and the benchmark's laws jobs run; N = 5 at 2 points
    # (5 s) and N = 2 at 3 points (18 s) are refused
    for param, max_points in ((2, 2), (3, 2), (4, 2), (1, 3), (3, 1), (2, 1)):
        tensor_model._check_law_work(param, max_points)
    for param, max_points in ((5, 2), (2, 3)):
        with pytest.raises(BudgetError, match="law work"):
            tensor_model._check_law_work(param, max_points)


# ---------------------------------------------------------------------------
# cache and determinism


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unusable_cache_path_is_a_usage_error_before_the_build(tmp_path, capsys, monkeypatch, where):
    def no_build(*args):
        raise AssertionError("the matrix was built")

    monkeypatch.setattr(cli, "build_gram", no_build)
    path = tmp_path / "missing" / "c.jsonl" if where == "missing directory" else tmp_path
    argv = ["gram", "--points", "3", "--param", "4", "--det", "--cache", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cache: ")


def test_output_is_byte_identical_and_cache_hits(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = [
        "gram",
        "--points",
        "3",
        "--class",
        "nc",
        "--param",
        "5",
        "--det",
        "--cache",
        str(cache),
    ]
    code1 = main(args)
    first = capsys.readouterr()
    code2 = main(args)
    second = capsys.readouterr()
    assert code1 == code2 == 0
    assert first.out == second.out
    assert "cache hit" in second.err
    lines = cache.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["key"] == "gram:nc:3:5"
    assert record["det"] == json.loads(first.out)["det"]
    assert isinstance(record["ts"], int)


def test_corrupted_trailing_cache_line_is_ignored(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"key":"gram:nc:2:4","det":"48","ts":1}\n{"key":"gram:nc:')
    code, out, err = run(
        capsys,
        "gram",
        "--points",
        "2",
        "--class",
        "nc",
        "--param",
        "4",
        "--det",
        "--cache",
        str(cache),
    )
    assert code == 0
    assert json.loads(out)["det"] == "48"
    assert "corrupted" in err
    assert "cache hit" in err


def test_cached_non_integer_determinant_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text('{"key": "gram:nc:4:4", "det": "oops"}\n')
    args = ["gram", "--points", "4", "--param", "4", "--det", "--cache", str(cache)]
    code, out, err = run(capsys, *args)
    assert code == 0
    assert json.loads(out)["det"] == str(recursion_det(4, 4))
    assert "corrupted" in err and "cache hit" not in err
    lines = cache.read_text().splitlines()
    assert len(lines) == 2 and json.loads(lines[1])["det"] == str(recursion_det(4, 4))
    code, replay, err = run(capsys, *args)
    assert code == 0 and replay == out and "cache hit" in err


def test_cache_append_is_one_write_per_entry(tmp_path, monkeypatch):
    cache = tmp_path / "cache.jsonl"
    writes = []
    real_write = os.write

    def counting_write(fd, data):
        writes.append(len(data))
        return real_write(fd, data)

    monkeypatch.setattr(cli.os, "write", counting_write)
    dets = ["1" * 9000, "2" * 9000]  # each line is longer than 8 KiB
    cli._append_cache(str(cache), "gram:nc:7:4", dets[0])
    cli._append_cache(str(cache), "gram:nc:7:5", dets[1])
    assert len(writes) == 2 and min(writes) > 8192
    assert cli._read_cache(str(cache)) == {"gram:nc:7:4": dets[0], "gram:nc:7:5": dets[1]}


def test_cache_ignores_symbolic_jobs(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code, _, _ = run(
        capsys,
        "gram",
        "--points",
        "2",
        "--class",
        "nc",
        "--symbolic",
        "--det",
        "--cache",
        str(cache),
    )
    assert code == 0
    assert not cache.exists()


# ---------------------------------------------------------------------------
# parser


def test_successive_calls_share_no_parsed_state(capsys):
    # the parser is built once per process; each call parses afresh
    assert cli._build_parser() is cli._build_parser()
    code, out, _ = run(capsys, "recursion", "--points", "3", "--param", "4", "--verify")
    assert code == 0
    assert json.loads(out)["status"] == "ok"
    code, out, _ = run(capsys, "recursion", "--points", "3", "--param", "4")
    assert code == 0
    assert set(json.loads(out)) == {"n", "N", "det", "trace"}
    code, out, _ = run(capsys, "gram", "--points", "3", "--param", "4", "--rank")
    assert code == 0
    assert json.loads(out) == {"n": 3, "class": "nc", "N_or_symbolic": 4, "rank": 5}


# ---------------------------------------------------------------------------
# optimised bytecode


def test_checks_survive_stripped_asserts():
    # under `python -O` every assert is gone; the kernel's exactness check,
    # the symbolic route's degree check and the recursion's cross-check
    # against the direct route are not
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def run_optimised(*argv):
        done = subprocess.run(
            [sys.executable, "-O", "-m", "ncgram.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    assert run_optimised("recursion", "--points", "6", "--param", "4", "--verify")["status"] == "ok"
    det = run_optimised("gram", "--points", "5", "--param", "4", "--det")["det"]
    assert int(det) == recursion_det(5, 4)
    coeffs = run_optimised("gram", "--points", "4", "--symbolic", "--det")["det"]
    for N in (4, 5):
        assert IntPolynomial(coeffs).evaluate(N) == recursion_det(4, N)


# ---------------------------------------------------------------------------
# the oldest supported Python

#: Runs each job of argv lists given as JSON through `main` in one process
#: and prints each exit status and stdout, as JSON.
_JOBS_SCRIPT = """
import contextlib, io, json, sys
from ncgram.cli import main
done = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    done.append([status, out.getvalue()])
print(json.dumps(done))
"""


def _interpreter(major: int, minor: int) -> str | None:
    """A `pythonX.Y` that runs as that version: the one on PATH, or else
    one that pyenv installed under $PYENV_ROOT/versions (pyenv's shim on
    PATH runs only the versions it is told to)."""
    name = f"python{major}.{minor}"
    found = [shutil.which(name)]
    if "PYENV_ROOT" in os.environ:
        versions = sorted(Path(os.environ["PYENV_ROOT"]).glob("versions/*/bin"))
        found += [shutil.which(name, path=str(folder)) for folder in versions]
    probe = "import sys; print(*sys.version_info[:2])"
    for executable in filter(None, found):
        done = subprocess.run([executable, "-c", probe], capture_output=True, text=True, timeout=60)
        if done.stdout.split() == [str(major), str(minor)]:
            return executable
    return None


def test_the_cli_prints_the_same_at_the_python_floor():
    # pyproject's requires-python is the oldest Python the package claims;
    # where that interpreter is installed, five jobs across the subcommands
    # print what they print on the running one
    root = Path(cli.__file__).resolve().parents[2]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.MULTILINE)
    assert found
    executable = _interpreter(int(found[1]), int(found[2]))
    if executable is None:
        pytest.skip(f"no working python{found[1]}.{found[2]} found")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    jobs = json.dumps([
        ["enumerate", "--points", "5"],
        ["gram", "--points", "4", "--param", "4", "--det"],
        ["gram", "--points", "3", "--symbolic", "--det"],
        ["recursion", "--points", "6", "--param", "5"],
        ["laws", "--param", "2", "--max-points", "1"],
    ])

    def run_jobs(python: str) -> list:
        done = subprocess.run(
            [python, "-c", _JOBS_SCRIPT, jobs], capture_output=True, text=True, env=env, timeout=300
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    at_floor, here = run_jobs(executable), run_jobs(sys.executable)
    assert [status for status, _ in here] == [0] * 5
    assert all(out for _, out in here)
    for (floor_status, floor_out), (status, out) in zip(at_floor, here):
        assert floor_status == status
        assert floor_out.encode() == out.encode()
