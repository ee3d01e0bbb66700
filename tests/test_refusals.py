"""The refusals and plain reads that no other test reaches, one case each.

Each case takes the test's fixtures and returns a call with what it must
give: an exception type and its message, or the value (a status) it
returns when the expected type is None.
"""

from __future__ import annotations

import json
import runpy
import sys
import warnings

import pytest

from ncgram import cli, polynomials
from ncgram.errors import ShapeError
from ncgram.formulas import difrancesco_check, difrancesco_det, difrancesco_exponents
from ncgram.gram import build_gram
from ncgram.partitions import Partition, enumerate_partitions, is_noncrossing, refines
from ncgram.polynomials import IntPolynomial, beraha_bases, check_beraha_chebyshev_relation
from ncgram.tensor_model import express_in_bounded_basis, reconstruct, vector_of
from ncgram.tutte import F_r_value, build_A, build_B, component_shift, e_r, f_manip, recursion_trace

TWO_ROW = Partition.identity(1)  # one upper point joined to one lower point
ROW = Partition.from_lower_blocks(5, [[1, 3], [2, 4], [5]])  # in W(5, 1)


def _run_cli_as_main(monkeypatch):
    # `python -m ncgram.cli` runs the module under the name __main__, whose
    # guard exits with main's status; the module is already imported here
    monkeypatch.setattr(sys, "argv", ["ncgram", "enumerate", "--points", "2"])

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("ncgram.cli", run_name="__main__")

    return run, SystemExit, "0"


def _blank_cache_lines(tmp_path, capsys):
    path = tmp_path / "cache.jsonl"
    path.write_text("\n" + json.dumps({"key": "k", "det": "12"}) + "\n   \n", encoding="utf-8")

    def read():
        entries = cli._read_cache(str(path))
        return entries, capsys.readouterr().err

    return read, None, ({"k": "12"}, "")


def _short_cache_write(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    monkeypatch.setattr(cli.os, "write", lambda fd, data: len(data) - 1)
    monkeypatch.setattr(cli.time, "time", lambda: 0)
    size = len(json.dumps({"key": "k", "det": "12", "ts": 0}) + "\n")
    return (
        lambda: cli._append_cache(str(path), "k", "12"),
        OSError,
        f"cache: short write to {path} ({size - 1} of {size} bytes)",
    )


def _param_below_one(capsys):
    def run():
        status = cli.main(["gram", "--points", "3", "--param", "0"])
        return status, capsys.readouterr().err

    return run, None, (cli.EXIT_USAGE, "error: --param must be a positive integer\n")


def _planted_beraha_family(monkeypatch):
    # a wrong β_3 must show as a lemma violation at j = 3 alone
    beraha = polynomials.beraha
    monkeypatch.setattr(polynomials, "beraha", lambda j: beraha(j) + (j == 3))
    return (
        lambda: check_beraha_chebyshev_relation(5),
        None,
        {"checked": 5, "status": "lemma-violation", "failures": [3]},
    )


def _reconstruct_skips_zero(monkeypatch):
    # a zero coefficient adds nothing, not even its vector's support
    pair, singletons = Partition.pair(), Partition.singletons(2)
    return (
        lambda: reconstruct({pair: 0, singletons: 1}, 2),
        None,
        vector_of(singletons, 2).entries,
    )


def _count_refusals(name, call, what, least=0):
    """A bool, a float and the floor minus one, each refused by the count rule."""
    return {
        f"{name}-bool": lambda: (lambda: call(True), TypeError, f"{what} must be an int, not True"),
        f"{name}-float": lambda: (lambda: call(2.0), TypeError, f"{what} must be an int, not 2.0"),
        f"{name}-below-floor": lambda: (
            lambda: call(least - 1), ValueError, f"{what} must be at least {least}, not {least - 1}"
        ),
    }


CASES = {
    "cli-main-guard": _run_cli_as_main,
    "cli-cache-blank-lines": _blank_cache_lines,
    "cli-cache-short-write": _short_cache_write,
    "cli-param-below-one": _param_below_one,
    "gram-evaluate-integer-matrix": lambda: (
        lambda: build_gram(2, N=4).evaluate(4), ShapeError, "matrix is already over the integers"
    ),
    "gram-no-points": lambda: (
        lambda: build_gram(0), ValueError, "point count must be at least 1, not 0"
    ),
    "partition-negative-row": lambda: (
        lambda: Partition(-1, 1, ()), ValueError, "upper row size must be at least 0, not -1"
    ),
    "partition-negative-lower-row": lambda: (
        lambda: Partition(0, -1, ()), ValueError, "lower row size must be at least 0, not -1"
    ),
    "partition-enumerate-negative-points": lambda: (
        lambda: enumerate_partitions(-1), ValueError, "point count must be at least 0, not -1"
    ),
    # a float count once stopped in a sequence error in from_blocks and
    # one_block, and in a bare `range` in identity and singletons
    **_count_refusals(
        "partition-blocks-upper", lambda k: Partition.from_blocks(k, 0, []), "upper row size"
    ),
    **_count_refusals(
        "partition-blocks-lower", lambda l: Partition.from_blocks(0, l, []), "lower row size"
    ),
    **_count_refusals("partition-identity", Partition.identity, "row size"),
    **_count_refusals("partition-singletons", Partition.singletons, "point count"),
    **_count_refusals("partition-one-block", Partition.one_block, "point count"),
    "partition-lower-blocks-two-rows": lambda: (
        TWO_ROW.lower_blocks, ShapeError, "lower_blocks is only defined on (0, n) partitions"
    ),
    "partition-noncrossing-two-rows": lambda: (
        lambda: is_noncrossing(TWO_ROW), ShapeError, "crossing test is defined on (0, n) partitions"
    ),
    "partition-refines-shapes": lambda: (
        lambda: refines(TWO_ROW, Partition.singletons(2)), ShapeError, "refinement needs equal shapes"
    ),
    "partition-repr": lambda: (lambda: repr(Partition.pair()), None, "Partition('0|2|00')"),
    # True was read as index 1, and 1.0 stopped in a list index error
    "partition-blocks-bool-index": lambda: (
        lambda: Partition.from_blocks(0, 2, [[("lower", True), ("lower", 2)]]),
        TypeError,
        "lower index must be an int, not True",
    ),
    "partition-blocks-float-index": lambda: (
        lambda: Partition.from_blocks(0, 2, [[("lower", 1.0), ("lower", 2)]]),
        TypeError,
        "lower index must be an int, not 1.0",
    ),
    # a missing field and a digit past the alphabet once leaked unpacking
    # and str.index messages
    "partition-text-two-fields": lambda: (
        lambda: Partition.from_text("0|2"), ValueError, "not a partition text: '0|2'"
    ),
    "partition-text-bad-digit": lambda: (
        lambda: Partition.from_text("0|2|0Z"), ValueError, "not a partition text: '0|2|0Z'"
    ),
    "polynomial-inexact-in-loop": lambda: (
        # x over 2x: the leading quotient 1/2 is not an integer
        lambda: IntPolynomial([0, 1]).divexact(IntPolynomial([0, 2])),
        ValueError,
        "inexact polynomial division",
    ),
    "polynomial-repr": lambda: (lambda: repr(IntPolynomial([1, 0, -2])), None, "IntPolynomial([1, 0, -2])"),
    # X ** True once gave X, ** 2.0 and .shift(2.0) stopped in bare operand
    # and sequence errors, and a negative power or shift had its own text
    **_count_refusals("polynomial-power", IntPolynomial.x().__pow__, "exponent"),
    **_count_refusals("polynomial-shift", IntPolynomial.x().shift, "shift"),
    # a negative m once gave [], True gave [1], and 2.5 stopped in `range`
    **_count_refusals("beraha-bases", lambda m: beraha_bases(m, 4), "m"),
    "beraha-chebyshev-no-j": lambda: (
        lambda: check_beraha_chebyshev_relation(0), ValueError, "j_max must be at least 1, not 0"
    ),
    "beraha-chebyshev-bool-j": lambda: (
        lambda: check_beraha_chebyshev_relation(True), TypeError, "j_max must be an int, not True"
    ),
    "beraha-chebyshev-float-j": lambda: (
        lambda: check_beraha_chebyshev_relation(2.0), TypeError, "j_max must be an int, not 2.0"
    ),
    "formula-exponents-no-pairs": lambda: (
        lambda: difrancesco_exponents(0), ValueError, "pair count must be at least 1, not 0"
    ),
    "formula-det-no-pairs": lambda: (
        lambda: difrancesco_det(0, 4), ValueError, "pair count must be at least 1, not 0"
    ),
    "formula-check-no-pairs": lambda: (
        lambda: difrancesco_check(0, 4), ValueError, "pair count must be at least 1, not 0"
    ),
    "beraha-chebyshev-planted-failure": _planted_beraha_family,
    "tensor-vector-two-rows": lambda: (
        lambda: vector_of(TWO_ROW, 2), ShapeError, "vector form needs a partition with no upper points"
    ),
    "tensor-expansion-two-rows": lambda: (
        lambda: express_in_bounded_basis(TWO_ROW, 2),
        ShapeError,
        "expansion needs a partition with no upper points",
    ),
    "tensor-reconstruct-zero-coefficient": _reconstruct_skips_zero,
    "tutte-pair-two-rows": lambda: (
        lambda: e_r(TWO_ROW, TWO_ROW, 0, 4), ShapeError, "pair graphs need (0, n) partitions"
    ),
    "tutte-pair-point-counts": lambda: (
        lambda: e_r(Partition.singletons(2), Partition.singletons(3), 0, 4),
        ShapeError,
        "pair graphs need equal point counts",
    ),
    "tutte-level-matrix-no-points": lambda: (
        lambda: build_A(0, 0, 4), ValueError, "point count must be at least 1, not 0"
    ),
    "tutte-corner-matrix-no-points": lambda: (
        lambda: build_B(0, 0, 4), ValueError, "point count must be at least 1, not 0"
    ),
    "tutte-recursion-no-points": lambda: (
        lambda: recursion_trace(0, 4), ValueError, "point count must be at least 1, not 0"
    ),
    "tutte-rewire-two-rows": lambda: (
        lambda: f_manip(1, Partition.identity(2), 0),
        ShapeError,
        "manipulations are defined on (0, n) partitions",
    ),
    # True once rewired as i = 1, and 1.0 stopped in a bare `range`
    "tutte-rewire-bool-index": lambda: (
        lambda: f_manip(True, ROW, 0), TypeError, "i must be an int, not True"
    ),
    "tutte-rewire-float-index": lambda: (
        lambda: f_manip(1.0, ROW, 0), TypeError, "i must be an int, not 1.0"
    ),
    "tutte-shift-kind": lambda: (
        lambda: component_shift(ROW, ROW, 1, "h", 1), ValueError, "kind must be 'f' or 'g'"
    ),
    "tutte-column-row-stratum": lambda: (
        lambda: F_r_value(Partition.singletons(5), ROW, 1, 4),
        ValueError,
        "row partition is not in the level r stratum",
    ),
    "tutte-column-column-stratum": lambda: (
        lambda: F_r_value(ROW, Partition.singletons(5), 1, 4),
        ValueError,
        "column partition is not in the level r+1 stratum",
    ),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_each_refusal_gives_its_type_and_message(case, request):
    fixtures = case.__code__.co_varnames[: case.__code__.co_argcount]
    call, error, want = case(*(request.getfixturevalue(name) for name in fixtures))
    if error is None:
        assert call() == want
        return
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == want
