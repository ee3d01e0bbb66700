"""The one refusal rule: `refuse_past` steps a job's sizes up to the first
one past its budget."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncgram.errors import BudgetError, refuse_past


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
