"""Command-line behaviour: output shapes, exit codes, cache discipline."""

from __future__ import annotations

import csv
import decimal
import json
import os
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

    for module in (partitions, cli):
        monkeypatch.setattr(module, "enumerate_partitions", no_list)
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
    # loop must never start, so an exponent table or a join closure
    # computed by any matrix builder would fail the test.
    def no_pair_loop(*args):
        raise AssertionError("the Gram pair loop ran")

    monkeypatch.setattr(gram, "_exponent_table", no_pair_loop)
    monkeypatch.setattr(gram, "join_closure", no_pair_loop)
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
    real_count = tutte.count_partitions

    def small_count(points, cls):
        if points > 30:
            raise AssertionError(f"C_{points} was computed")
        return real_count(points, cls)

    monkeypatch.setattr(tutte, "count_partitions", small_count)
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

    for module in (partitions, gram, cli):
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


@pytest.mark.parametrize("param, max_points", [(1000, 2), (2, 5), (2, 10**9)])
def test_over_budget_laws_exit_before_any_matrix(capsys, monkeypatch, param, max_points):
    # the largest shape, q ⊗ p on 4·max_points legs, is refused first
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(tensor_model, "matrix_of", no_matrix)
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
