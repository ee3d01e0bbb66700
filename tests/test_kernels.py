"""Fraction-free elimination kernels, checked against rational Gaussian
elimination and through the exact-entry dispatch."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ncgram import kernels
from ncgram.gram import build_gram, determinant
from ncgram.kernels import det_bareiss, rank_echelon
from ncgram.partitions import PartitionClass


def det_by_fractions(rows: list[list[int]]) -> Fraction:
    """Plain Gaussian elimination over ℚ — the independent oracle."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return det


def rank_by_fractions(rows: list[list[int]]) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(rank + 1, m):
            factor = a[i][col] / a[rank][col]
            for j in range(col, n):
                a[i][j] -= factor * a[rank][j]
        rank += 1
    return rank


def random_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_known_small_determinants():
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[2, 0, 1], [1, 3, 2], [1, 1, 3]]) == 12
    assert det_bareiss([[1, 0], [0, 1]]) == 1


def test_singular_matrix_gives_zero():
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss([[0, 0], [0, 0]]) == 0
    # zero leading column forces a pivot search
    assert det_bareiss([[0, 1], [1, 0]]) == -1


def test_determinant_matches_rational_elimination():
    rng = random.Random(7)
    for n in range(1, 8):
        for _ in range(12):
            m = random_matrix(rng, n)
            expected = det_by_fractions([row[:] for row in m])
            assert expected.denominator == 1
            assert det_bareiss([row[:] for row in m]) == expected


def test_intermediate_values_stay_integral_on_large_entries():
    rng = random.Random(11)
    m = random_matrix(rng, 6, lo=-10**6, hi=10**6)
    expected = det_by_fractions([row[:] for row in m])
    assert det_bareiss([row[:] for row in m]) == expected


@st.composite
def symmetric_matrices(draw, max_size=8):
    """Small entries, so that pivots vanish part-way through elimination."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(st.sampled_from((-1, 0, 1, 2)))
    return a


@settings(max_examples=300)
@given(symmetric_matrices())
def test_symmetric_determinant_matches_rational_elimination(m):
    assert det_bareiss([row[:] for row in m]) == det_by_fractions(m)


def test_symmetric_zero_pivot_falls_back_to_row_swaps():
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    # the second pivot vanishes after one step
    assert det_bareiss([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == -1
    # the same, with a stale lower entry (2) that differs from the live one (1)
    assert det_bareiss([[1, 1, 1], [1, 1, 2], [1, 2, 1]]) == -1
    # singular: a vanishing pivot with a zero column below it
    assert det_bareiss([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == 0
    # singular: the last pivot vanishes, no fallback needed
    assert det_bareiss([[1, 1, 2], [1, 2, 3], [2, 3, 5]]) == 0


def test_symmetric_input_updates_only_the_upper_triangle():
    m = [[4, 1, 2], [1, 3, 0], [2, 0, 5]]
    work = [row[:] for row in m]
    assert det_bareiss(work) == det_by_fractions(m)
    assert [work[i][:i] for i in range(3)] == [m[i][:i] for i in range(3)]


def test_gram_row_swap_negates_through_the_general_path():
    # swapping two rows breaks the symmetry, so the swapped copy is
    # eliminated by the general kernel: an oracle for the symmetric one
    cases = [build_gram(n, PartitionClass.NONCROSSING, 4) for n in range(2, 7)]
    cases += [build_gram(n, PartitionClass.NONCROSSING, None) for n in range(2, 5)]
    for m in cases:
        swapped = [list(row) for row in m.entries]
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert det_bareiss(swapped) == -determinant(m)


def test_rank_echelon_matches_rational_elimination():
    rng = random.Random(13)
    for n in range(1, 7):
        for _ in range(10):
            m = random_matrix(rng, n, lo=-3, hi=3)
            assert rank_echelon([row[:] for row in m]) == rank_by_fractions(m)


def test_rank_of_structured_matrices():
    assert rank_echelon([[0, 0], [0, 0]]) == 0
    assert rank_echelon([[1, 2], [2, 4]]) == 1
    outer = [[i * j for j in range(1, 5)] for i in range(1, 5)]
    assert rank_echelon(outer) == 1
    # rank-2: sum of two independent outer products
    two = [[i * j + (i == j) for j in range(4)] for i in range(4)]
    assert rank_by_fractions(two) == rank_echelon([row[:] for row in two])


def test_backend_dispatch_agrees_with_pure_python():
    rng = random.Random(17)
    for n in (3, 5, 7):
        m = random_matrix(rng, n)
        assert kernels.det_exact([row[:] for row in m]) == det_bareiss([row[:] for row in m])
        assert kernels.rank_exact([row[:] for row in m]) == rank_echelon([row[:] for row in m])


def test_reported_backend_is_consistent():
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        expected = "python"
    else:
        expected = "python+gmpy2"
    assert kernels.INTEGER_BACKEND == expected
