"""The one refusal rule: `refuse_past` steps a job's sizes up to the first
one past its budget; the one check of the loop parameter N; and the one
check of a count, index or level, `check_count`."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncgram.errors import BudgetError, check_count, refuse_past
from ncgram.formulas import difrancesco_check, difrancesco_det
from ncgram.gram import build_gram
from ncgram.partitions import Partition, PartitionClass
from ncgram.polynomials import beraha_nonzero_at
from ncgram.tensor_model import (
    DenseTensor,
    check_functor_laws,
    express_in_bounded_basis,
    matrix_of,
    reconstruct,
    vector_of,
)
from ncgram.tutte import F_r_value, build_A, build_B, e_r, recursion_det, recursion_trace


@given(
    st.lists(st.integers(0, 50), min_size=1).map(sorted),
    st.integers(0, 50),
    st.integers(-3, 3),
    st.integers(1, 3),
)
def test_refuses_exactly_when_the_last_size_passes_and_reads_no_further(sizes, budget, start, step):
    # sizes at the point counts start, start + step, …; the last is the job's
    steps = range(start, start + step * len(sizes), step)
    first = next((i for i, size in enumerate(sizes) if size > budget), None)
    read = []

    def size(k: int) -> int:
        i = (k - start) // step
        if first is not None and i > first:
            raise AssertionError("a size past the first one over the budget was read")
        read.append(i)
        return sizes[i]

    if sizes[-1] > budget:
        with pytest.raises(BudgetError) as refused:
            refuse_past(budget, "size", size, steps)
        message = str(refused.value)
        assert f"{sizes[first]} exceeds budget {budget}" in message
        assert ("over" in message) == (first < len(sizes) - 1)
    else:
        refuse_past(budget, "size", size, steps)
    assert read == list(range(len(sizes) if first is None else first + 1))


def test_a_single_size_is_the_job_own():
    refuse_past(10, "matrix size", lambda _: 10, range(1))
    with pytest.raises(BudgetError, match="^matrix size 11 exceeds budget 10$"):
        refuse_past(10, "matrix size", lambda _: 11, range(1))


_ONE_BLOCK = Partition.one_block(4)
_ROW = Partition.from_text("0|4|0100")  # in W(4, 2), a column F_r_value takes at r = 1

#: Every public function that takes N, called with N and otherwise valid
#: arguments that the function accepts at N = 4.
_TAKES_N = {
    "build_gram": lambda N: build_gram(2, PartitionClass.NONCROSSING, N),
    "e_r": lambda N: e_r(_ONE_BLOCK, _ONE_BLOCK, 0, N),
    "build_A": lambda N: build_A(3, 0, N),
    "build_B": lambda N: build_B(3, 0, N),
    "F_r_value": lambda N: F_r_value(_ONE_BLOCK, _ROW, 1, N),
    "recursion_det": lambda N: recursion_det(3, N),
    "recursion_trace": lambda N: recursion_trace(3, N),
    "difrancesco_det": lambda N: difrancesco_det(2, N),
    "difrancesco_check": lambda N: difrancesco_check(2, N),
    "beraha_nonzero_at": lambda N: beraha_nonzero_at(N, 4),
    "vector_of": lambda N: vector_of(Partition.pair(), N),
    "matrix_of": lambda N: matrix_of(Partition.pair(), N),
    "check_functor_laws": lambda N: check_functor_laws(N, 1),
    "express_in_bounded_basis": lambda N: express_in_bounded_basis(_ONE_BLOCK, N),
    "reconstruct": lambda N: reconstruct({}, N),
    "DenseTensor": lambda N: DenseTensor(N, 2, {}),
}


@pytest.mark.parametrize("name", sorted(_TAKES_N))
def test_every_entry_point_takes_an_integer_parameter_only(name):
    call = _TAKES_N[name]
    call(4)
    # 4.0 and 9/2 once passed the range checks and gave floats, rationals
    # or a misleading error; "4" failed on the comparison; True, an int
    # subclass, passed as N = 1
    for N in (4.0, 2.5, Fraction(9, 2), "4", True):
        with pytest.raises(ValueError, match="N must be an integer"):
            call(N)
    with pytest.raises(ValueError):
        call(0)


def test_law_checks_take_a_positive_integer_max_points_only():
    # True once ran the max-points-1 suite and reported "max_points": true,
    # and a float failed with a TypeError deep inside the budget checks
    assert check_functor_laws(2, 1)[0]["max_points"] == 1
    for max_points in (True, 1.0, 1.5, Fraction(3, 2), "1"):
        with pytest.raises(TypeError) as caught:
            check_functor_laws(2, max_points)
        assert str(caught.value) == f"max_points must be an int, not {max_points!r}"
    for max_points in (0, -1):
        with pytest.raises(ValueError) as caught:
            check_functor_laws(2, max_points)
        assert str(caught.value) == f"max_points must be at least 1, not {max_points}"


@pytest.mark.parametrize("value", [True, False, 2.0, 0.5, Fraction(2), "2", None])
def test_the_count_rule_refuses_every_value_that_is_not_an_int(value):
    # a bool is an int subclass, and 2.0 and Fraction(2) equal 2, but none
    # of them is a count
    for least in (0, 1, None):
        with pytest.raises(TypeError) as caught:
            check_count(value, "point count", least)
        assert str(caught.value) == f"point count must be an int, not {value!r}"


def test_the_count_rule_refuses_an_int_below_its_floor_only():
    for value in (0, 1, 5, 10**30):
        assert check_count(value, "point count") is None
    assert check_count(-(10**30), "level r", None) is None  # no floor
    for value, least in ((-1, 0), (0, 1), (-(10**30), 0), (4, 5)):
        with pytest.raises(ValueError) as caught:
            check_count(value, "leg count", least)
        assert str(caught.value) == f"leg count must be at least {least}, not {value}"
