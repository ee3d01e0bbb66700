"""The elimination kernel, checked against rational Gaussian elimination
and against the two Bareiss kernels it replaced, kept here as oracles."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgram import kernels
from ncgram.gram import build_gram, determinant
from ncgram.kernels import det_exact, eliminate, rank_exact
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


# ---------------------------------------------------------------------------
# The package's earlier kernels, kept unchanged as oracles for `eliminate`.
# They run over any ring with exact //, so `det_bareiss` also gives the
# symbolic determinant directly over ℤ[X].


def det_bareiss(rows):
    """Determinant by Bareiss one-step fraction-free elimination.

    Mutates ``rows`` (pass a fresh copy). Every division is exact.

    Symmetric input (checked once, entry for entry) stays symmetric in the
    trailing block while no rows are swapped, so each step updates only
    the entries on or above the diagonal and reads the multiplier a_ik
    from the pivot row as a_ki; the lower triangle goes stale. On a zero
    pivot the trailing upper triangle is mirrored into the lower one once,
    and elimination continues on the general path, which pivots by row
    swap. Other input takes the general path from the start.
    """
    n = len(rows)
    if n == 0:
        return 1
    symmetric = all(
        rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n)
    )
    sign = 1
    prev = None  # becomes the previous pivot after the first sweep
    for k in range(n - 1):
        if not rows[k][k]:
            if symmetric:
                for i in range(k + 1, n):
                    ri = rows[i]
                    for j in range(k, i):
                        ri[j] = rows[j][i]
                symmetric = False
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0 * rows[k][k]
        pivot = rows[k][k]
        rk = rows[k]
        for i in range(k + 1, n):
            ri = rows[i]
            if symmetric:
                aik, lo = rk[i], i
            else:
                aik, lo = ri[k], k + 1
            if aik:
                if prev is None:
                    for j in range(lo, n):
                        ri[j] = pivot * ri[j] - aik * rk[j]
                else:
                    for j in range(lo, n):
                        ri[j] = (pivot * ri[j] - aik * rk[j]) // prev
            else:
                if prev is None:
                    for j in range(lo, n):
                        ri[j] = pivot * ri[j]
                else:
                    for j in range(lo, n):
                        ri[j] = (pivot * ri[j]) // prev
        prev = pivot
    d = rows[n - 1][n - 1]
    return d if sign > 0 else -d


def rank_echelon(rows):
    """Rank by fraction-free row echelon reduction (column-skipping Bareiss).

    Mutates ``rows`` (pass a fresh copy).
    """
    m = len(rows)
    if m == 0:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = None
    row = 0
    for col in range(ncols):
        if row >= m:
            break
        piv = -1
        for i in range(row, m):
            if rows[i][col]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != row:
            rows[row], rows[piv] = rows[piv], rows[row]
        pivot = rows[row][col]
        rk = rows[row]
        for i in range(row + 1, m):
            ri = rows[i]
            aic = ri[col]
            if aic:
                if prev is None:
                    for j in range(col + 1, ncols):
                        ri[j] = pivot * ri[j] - aic * rk[j]
                else:
                    for j in range(col + 1, ncols):
                        ri[j] = (pivot * ri[j] - aic * rk[j]) // prev
                ri[col] = 0 * aic
            else:
                if prev is None:
                    for j in range(col + 1, ncols):
                        ri[j] = pivot * ri[j]
                else:
                    for j in range(col + 1, ncols):
                        ri[j] = (pivot * ri[j]) // prev
        prev = pivot
        row += 1
        rank += 1
    return rank


def copy(rows):
    return [list(row) for row in rows]


def loop_det(rows):
    """The loop's determinant in input order, on a fresh copy."""
    return eliminate(copy(rows))[1]


def random_matrix(rng, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_known_small_determinants():
    assert det_exact([[5]]) == 5
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([[2, 0, 1], [1, 3, 2], [1, 1, 3]]) == 12
    assert det_exact([[1, 0], [0, 1]]) == 1
    assert det_exact([]) == 1
    assert rank_exact([]) == 0


def test_singular_matrix_gives_zero():
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([[0, 0], [0, 0]]) == 0
    # zero leading column forces a pivot search
    assert det_exact([[0, 1], [1, 0]]) == -1
    # a column without a pivot is skipped: rank 1, determinant 0
    assert eliminate([[0, 1], [0, 1]]) == (1, 0)
    assert eliminate([[1, 0], [1, 0]]) == (1, 0)


def test_determinant_matches_rational_elimination():
    rng = random.Random(7)
    for n in range(1, 8):
        for _ in range(12):
            m = random_matrix(rng, n)
            expected = det_by_fractions(m)
            assert expected.denominator == 1
            assert det_exact(m) == det_bareiss(copy(m)) == expected


def test_intermediate_values_stay_integral_on_large_entries():
    rng = random.Random(11)
    m = random_matrix(rng, 6, lo=-10**6, hi=10**6)
    assert det_exact(m) == det_by_fractions(m)


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
    assert loop_det(m) == det_exact(m) == det_by_fractions(m)


def test_symmetric_zero_pivot_falls_back_to_row_swaps():
    assert loop_det([[0, 1], [1, 0]]) == -1
    # the second pivot vanishes after one step
    assert loop_det([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == -1
    # the same, with a stale lower entry (2) that differs from the live one (1)
    assert loop_det([[1, 1, 1], [1, 1, 2], [1, 2, 1]]) == -1
    # singular: a vanishing pivot with a zero column below it
    assert eliminate([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == (1, 0)
    # singular: the last pivot vanishes, no fallback needed
    assert eliminate([[1, 1, 2], [1, 2, 3], [2, 3, 5]]) == (2, 0)


def test_symmetric_input_updates_only_the_upper_triangle():
    m = [[4, 1, 2], [1, 3, 0], [2, 0, 5]]
    work = copy(m)
    assert eliminate(work) == (3, det_by_fractions(m))
    assert [work[i][:i] for i in range(3)] == [m[i][:i] for i in range(3)]


def test_gram_row_swap_negates_through_the_general_path():
    # swapping two rows breaks the symmetry, so the swapped copy is
    # eliminated on the general path: an oracle for the symmetric one
    for n in range(2, 7):
        m = build_gram(n, PartitionClass.NONCROSSING, 4)
        swapped = copy(m.entries)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert loop_det(swapped) == -determinant(m)


def test_rank_echelon_matches_rational_elimination():
    rng = random.Random(13)
    for n in range(1, 7):
        for _ in range(10):
            m = random_matrix(rng, n, lo=-3, hi=3)
            assert rank_exact(m) == rank_echelon(copy(m)) == rank_by_fractions(m)


def test_rank_of_structured_matrices():
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([[1, 2], [2, 4]]) == 1
    outer = [[i * j for j in range(1, 5)] for i in range(1, 5)]
    assert rank_exact(outer) == 1
    # rank-2: sum of two independent outer products
    two = [[i * j + (i == j) for j in range(4)] for i in range(4)]
    assert rank_by_fractions(two) == rank_exact(two)
    assert rank_exact([[0, 1, 2], [0, 2, 4]]) == 1
    assert rank_exact([[0, 1], [0, 2], [1, 0]]) == 2


def test_backend_dispatch_agrees_with_pure_python():
    rng = random.Random(17)
    for n in (3, 5, 7):
        m = random_matrix(rng, n)
        assert det_exact(m) == det_bareiss(copy(m))
        assert rank_exact(m) == rank_echelon(copy(m))


@st.composite
def square_matrices(draw, max_size=7):
    """Symmetric or not, zero diagonals allowed; diagonal sizes spread from
    one to sixty bits, so that the diagonal order permutes the matrix."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    entries = st.one_of(
        st.sampled_from((-1, 0, 1, 2)), st.integers(min_value=-(2**60), max_value=2**60)
    )
    a = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                a[i][j] = a[j][i]
    return a


@settings(max_examples=300)
@given(square_matrices())
def test_ordered_determinant_matches_the_unordered_kernel(m):
    before = copy(m)
    got = det_exact(m)
    assert m == before  # the input is not touched
    assert got == det_bareiss(copy(m)) == det_by_fractions(m)


@st.composite
def mostly_rank_deficient_matrices(draw, max_size=6):
    """Square or rectangular, symmetric or not, entries mostly in {−1, 0, 1},
    so that zero pivots, skipped columns and rank deficiency are common."""
    m = draw(st.integers(min_value=1, max_value=max_size))
    n = m if draw(st.booleans()) else draw(st.integers(min_value=1, max_value=max_size))
    entries = st.one_of(
        st.sampled_from((-1, 0, 0, 1)), st.integers(min_value=-5, max_value=5)
    )
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if m == n and draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                a[i][j] = a[j][i]
    return a


@settings(max_examples=400)
@given(mostly_rank_deficient_matrices())
@example([[0, 1], [0, 1]])
@example([[1, 1, 1], [1, 1, 2], [1, 2, 1]])
@example([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
def test_one_loop_matches_both_replaced_kernels(m):
    before = copy(m)
    rank = rank_exact(m)
    assert rank == rank_echelon(copy(m)) == rank_by_fractions(m)
    if len(m) == len(m[0]):
        det = det_exact(m)
        assert det == det_bareiss(copy(m)) == det_by_fractions(m)
        assert (det != 0) == (rank == len(m))
    assert m == before  # the input is not touched


def test_ordered_gram_determinant_matches_the_unordered_kernel():
    for cls in PartitionClass:
        for n in range(1, 7):
            for N in (4, 5):
                m = build_gram(n, cls, N)
                assert determinant(m) == det_bareiss(copy(m.entries))
        for n in range(1, 5):
            m = build_gram(n, cls, None)
            assert determinant(m) == det_bareiss(copy(m.entries))


def test_ordered_determinant_leads_with_small_nonzero_pivots():
    # ascending bit length, ties (5 and 4, three bits each) in input order,
    # zeros last
    m = [[0, 1, 1, 1], [1, 2**40, 1, 1], [1, 1, 5, 1], [1, 1, 1, 4]]
    work = kernels._working_copy(m)
    assert [work[i][i] for i in range(4)] == [5, 4, 2**40, 0]
    assert work == [[m[i][j] for j in (2, 3, 1, 0)] for i in (2, 3, 1, 0)]


def test_rank_and_determinant_eliminate_the_same_ordered_copy(monkeypatch):
    # P·A·Pᵀ keeps the Gram matrix symmetric with its diagonal sorted; a
    # copy that permuted rows alone would be neither
    seen = []

    def spy(rows):
        seen.append(copy(rows))
        return eliminate(rows)

    monkeypatch.setattr(kernels, "eliminate", spy)
    m = build_gram(4, PartitionClass.ALL, 2)
    assert rank_exact(m.entries) == 8
    assert det_exact(m.entries) == 0
    ranked, det = seen
    assert ranked == det
    assert all(ranked[i][j] == ranked[j][i] for i in range(15) for j in range(i))
    diagonal = [ranked[i][i] for i in range(15)]
    assert diagonal == sorted(diagonal) != [m.entries[i][i] for i in range(15)]
    # rectangular input keeps its input order
    seen.clear()
    assert rank_exact(m.entries[:3]) == rank_by_fractions(m.entries[:3])
    assert seen == [copy(m.entries[:3])]


def test_reported_backend_is_consistent():
    try:
        import gmpy2  # noqa: F401
    except ImportError:
        expected = "python"
    else:
        expected = "python+gmpy2"
    assert kernels.INTEGER_BACKEND == expected
