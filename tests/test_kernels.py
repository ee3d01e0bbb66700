"""The elimination kernel, checked against rational Gaussian elimination,
against the two Bareiss kernels it replaced, against the dense-update loop
it replaced after them, against the row-swapping loop that every input
took before symmetric input took the upper-triangle loop, and against the
upper-triangle loop as it was before each pivot row's nonzero columns were
read once, all kept here as oracles."""

from __future__ import annotations

import random
import sys
from itertools import product
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgram import kernels
from ncgram.gram import build_gram, determinant
from ncgram.kernels import det_exact, eliminate, rank_exact
from ncgram.partitions import PartitionClass
from ncgram.polynomials import IntPolynomial, power_product
from ncgram.tutte import build_A, build_B


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
            if a[i][k]:
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
            if a[i][col]:
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


def eliminate_dense(rows) -> tuple[int, int]:
    """(rank, determinant) by the primitive-row loop `eliminate` replaced.

    Every row is divided by its content on input and after each update,
    and every update with a nonzero multiplier writes the whole trailing
    row, ((a_kk/g)·row_i − (a_ik/g)·row_k)/c. Mutates ``rows``.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    num = den = 1
    for i, ri in enumerate(rows):
        c = gcd(*ri)
        if c > 1:
            rows[i] = [x // c for x in ri]
            num *= c
    row = 0
    for col in range(ncols):
        if row == m:
            break
        for i in range(row, m):
            if rows[i][col]:
                break
        else:
            continue
        if i != row:
            rows[row], rows[i] = rows[i], rows[row]
            num = -num
        pivot = rows[row][col]
        num *= pivot
        tail = rows[row][col + 1 :]
        for ri in rows[row + 1 :]:
            aik = ri[col]
            if aik:
                g = gcd(pivot, aik)
                p, q = pivot // g, aik // g
                new = [p * x - q * y for x, y in zip(ri[col + 1 :], tail)]
                c = gcd(*new)
                if c > 1:
                    new = [x // c for x in new]
                    num *= c
                ri[col + 1 :] = new  # ri[col] is never read again
                den *= p
        row += 1
    if row < m or row < ncols:
        return row, 0
    det, rest = divmod(num, den)
    if rest:
        raise ArithmeticError("the elimination's scale does not divide its pivot product")
    return row, det


def eliminate_rows(rows) -> tuple[int, int]:
    """(rank, determinant) by the row-swapping loop with sparse pivot-row
    updates, which `eliminate` ran on every input before symmetric input
    took the upper-triangle loop; copied as it was. Mutates ``rows``."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    num = den = 1
    row = 0
    for col in range(ncols):
        if row == m:
            break
        for i in range(row, m):
            if rows[i][col]:
                break
        else:
            continue
        if i != row:
            rows[row], rows[i] = rows[i], rows[row]
            num = -num
        rk = rows[row]
        c = gcd(*rk[col:])  # the columns before col are zero or never read again
        if c > 1:
            rk[col:] = [x // c for x in rk[col:]]
            num *= c
        pivot = rk[col]
        num *= pivot
        tail = rk[col + 1 :]
        nonzero = [(j, y) for j, y in enumerate(tail, col + 1) if y]
        for ri in rows[row + 1 :]:
            aik = ri[col]
            if aik:
                g = gcd(pivot, aik)
                p, q = pivot // g, aik // g
                if p == 1:
                    for j, y in nonzero:
                        ri[j] -= q * y
                else:
                    new = [p * x - q * y for x, y in zip(ri[col + 1 :], tail)]
                    c = gcd(*new)
                    if c > 1:
                        new = [x // c for x in new]
                        num *= c
                    ri[col + 1 :] = new
                    den *= p
                # ri[col] is never read again
        row += 1
    if row < m or row < ncols:
        return row, 0
    det, rest = divmod(num, den)
    if rest:
        raise ArithmeticError("the elimination's scale does not divide its pivot product")
    return row, det


def eliminate_upper(rows) -> tuple[int, int] | None:
    """(rank, determinant) by the upper-triangle loop whose non-integral
    multipliers rewrote every stored column of the row, which `eliminate`
    ran on symmetric input before each pivot row's nonzero columns were
    read once; copied as it was. None at a zero pivot whose row is not
    zero; ``rows`` is left unchanged."""
    n = len(rows)
    rows = [list(row) for row in rows]
    scale = [1] * n  # d_i: row i holds d_i·S_i until it becomes the pivot row
    factors = []  # (pivot·content, 1) and (scale, −1) for each pivot
    for k, rk in enumerate(rows):
        c = gcd(*rk[k:])
        if not rk[k]:
            if c:
                return None
            continue  # a zero row and column: no pivot
        if c > 1:
            rk[k:] = [x // c for x in rk[k:]]
        pivot = rk[k]  # S_k[k] = pivot·c/scale[k]
        factors += (pivot * c, 1), (scale[k], -1)
        per = scale[k] * pivot
        nonzero = [(j, y) for j, y in enumerate(rk[k + 1 :], k + 1) if y]
        for t, (i, aki) in enumerate(nonzero):
            ri = rows[i]
            a = scale[i] * c * aki  # the multiplier is a/per
            q, r = divmod(a, per)
            if not r:
                for j, y in nonzero[t:]:
                    ri[j] -= q * y
                continue
            g = gcd(a, per)
            a, b = (a // g, per // g) if per > 0 else (-a // g, -per // g)
            new = [b * x - a * y for x, y in zip(ri[i:], rk[i:])]
            e = gcd(scale[i] * b, *new)
            if e > 1:
                new = [x // e for x in new]
            ri[i:] = new
            scale[i] = scale[i] * b // e
    rank = len(factors) // 2
    if rank < n:
        return rank, 0
    return n, power_product(factors)


def copy(rows):
    return [list(row) for row in rows]


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


@st.composite
def psd_products(draw, max_size=7):
    """Z·D·Zᵀ for an integer Z with at most as many columns as rows and a
    diagonal D ≥ 0: positive semidefinite, and singular whenever Z has fewer
    columns or D a zero, so zero pivots with zero rows are common."""
    m = draw(st.integers(min_value=1, max_value=max_size))
    r = draw(st.integers(min_value=1, max_value=m))
    z = [[draw(st.sampled_from((-2, -1, 0, 0, 1, 2))) for _ in range(r)] for _ in range(m)]
    d = [draw(st.sampled_from((0, 1, 2, 3, 4))) for _ in range(r)]
    return [[sum(zi[t] * d[t] * zj[t] for t in range(r)) for zj in z] for zi in z]


@st.composite
def zero_diagonal_matrices(draw, max_size=7):
    """Symmetric, indefinite as a rule: some diagonal entries are zero while
    their rows are not, so the upper-triangle loop may give up."""
    a = draw(symmetric_matrices(max_size))
    for i in draw(st.sets(st.integers(min_value=0, max_value=len(a) - 1), min_size=1)):
        a[i][i] = 0
    return a


@settings(max_examples=400)
@given(st.one_of(symmetric_matrices(), psd_products(), zero_diagonal_matrices()))
@example([[1, 2, 0, 1], [2, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
@example([[2, -1, -1, -1], [-1, -1, 0, -1], [-1, 0, -1, -1], [-1, -1, -1, -1]])
@example([[1, 1], [1, 1]])
@example([[0, 0], [0, 1]])
def test_symmetric_determinant_matches_rational_elimination(m):
    # in the first example the dense update at pivot 1 turns the last row to
    # zeros, whose content is 0, and the one at pivot 2 makes it nonzero
    # again; the second took a row to zeros in an earlier form of the loop
    before = copy(m)
    rank, det = eliminate(m)
    assert m == before  # the input is not touched
    assert (rank, det) == eliminate_rows(copy(m))
    assert rank == rank_by_fractions(m)
    assert det == det_by_fractions(m)


@settings(max_examples=400)
@given(st.one_of(symmetric_matrices(), psd_products(), zero_diagonal_matrices()))
@example([[1, 2, 0, 1], [2, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
@example([[5, 1], [1, 3]])
def test_each_loop_matches_the_loop_it_replaced(m):
    # the same (rank, det), or the same None where the upper-triangle loop
    # gives up; a non-integral multiplier scales the row and then takes the
    # sparse update of an integral one
    before = copy(m)
    assert kernels._eliminate_upper(m) == eliminate_upper(m)
    assert m == before
    assert kernels._eliminate_rows(copy(m)) == eliminate_rows(copy(m))


def test_package_matrices_match_the_loops_they_replaced():
    # every Gram matrix of every class and every level matrix A(n, r)
    # through 6 points at N = 1, …, 5; below N = 4 some level matrices give
    # the upper-triangle loop up, and `eliminate` takes the row swaps
    cases = [build_gram(n, cls, N).entries for cls in PartitionClass for n in range(1, 7) for N in range(1, 6)]
    cases += [build_A(n, r, N).entries for n in range(1, 7) for r in range(n) for N in range(1, 6)]
    fell = 0
    for m in cases:
        upper = eliminate_upper(m)
        assert kernels._eliminate_upper(m) == upper
        rows = eliminate_rows(copy(m))
        assert kernels._eliminate_rows(copy(m)) == rows
        assert eliminate(m) == (upper or rows)
        fell += upper is None
    assert fell


def test_symmetric_zero_pivot_falls_back_to_row_swaps():
    # a zero pivot whose row is not zero: the upper-triangle loop gives up,
    # and the row-swapping loop runs on the untouched input
    assert kernels._eliminate_upper([[0, 1], [1, 0]]) is None
    assert det_exact([[0, 1], [1, 0]]) == -1
    # the second pivot vanishes after one step
    assert kernels._eliminate_upper([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) is None
    assert det_exact([[1, 1, 0], [1, 1, 1], [0, 1, 1]]) == -1
    # the same, where the vanished pivot's row has a nonzero entry after it
    assert det_exact([[1, 1, 1], [1, 1, 2], [1, 2, 1]]) == -1
    # singular: a vanishing pivot with a zero row, which is skipped
    assert kernels._eliminate_upper([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == (1, 0)
    assert eliminate([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == (1, 0)
    # singular: the last pivot vanishes
    assert eliminate([[1, 1, 2], [1, 2, 3], [2, 3, 5]]) == (2, 0)


def test_gram_row_swap_negates_through_the_general_path():
    # swapping two rows negates the determinant, whichever pivots the
    # swapped copy meets; the copy is not symmetric, so the row-swapping
    # loop eliminates it
    for n in range(2, 7):
        m = build_gram(n, PartitionClass.NONCROSSING, 4)
        swapped = copy(m.entries)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        assert det_exact(swapped) == eliminate_rows(copy(swapped))[1] == -determinant(m)


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
    """Symmetric or not, zero diagonals allowed; entry sizes spread from
    one to sixty bits, so that multipliers and contents mix small and large."""
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


@st.composite
def sparse_matrices(draw, max_size=8):
    """Mostly zeros, like a Gram matrix's Schur complements in label order:
    square or rectangular, negative entries, small and sixty-bit ones, zero
    rows and columns, rows that combine earlier rows (rank deficiency), and
    a common factor."""
    m = draw(st.integers(min_value=1, max_value=max_size))
    n = m if draw(st.booleans()) else draw(st.integers(min_value=1, max_value=max_size))
    entries = st.one_of(
        st.just(0),
        st.just(0),
        st.just(0),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-(2**60), max_value=2**60),
    )
    a = [[draw(entries) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(min_value=1, max_value=m - 1), max_size=2)) if m > 1 else ():
        j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
        s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        a[i] = [s * x + t * y for x, y in zip(a[j], a[k])]
    for i in draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=2)):
        a[i] = [0] * n
    for j in draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=2)):
        for row in a:
            row[j] = 0
    c = draw(st.sampled_from((1, 1, -1, 4, 6)))
    return [[c * x for x in row] for row in a]


@settings(max_examples=400)
@given(sparse_matrices())
@example([[0, 0, 5], [0, 3, 0], [2, 0, 0]])
@example([[4, 0, 6], [0, 0, 0], [6, 0, 9]])
@example([[0, 2**60, 0], [0, 0, -(2**60)]])
def test_sparse_input_matches_bareiss_and_fractions(m):
    before = copy(m)
    rank, det = eliminate(copy(m))
    assert (rank, det) == eliminate_dense(copy(m))
    assert rank == rank_exact(m) == rank_echelon(copy(m)) == rank_by_fractions(m)
    if len(m) == len(m[0]):
        assert det == det_exact(m) == det_bareiss(copy(m)) == det_by_fractions(m)
        assert (det != 0) == (rank == len(m))
    else:
        assert det == 0
    assert m == before


def test_an_inexact_scale_raises(monkeypatch):
    # a wrong gcd of pivot 5 and multiplier 2 zeroes a_10 with the
    # multipliers (2, 1), which do not clear it: the tracked scale 5/2 is
    # then not an integer, and the loop raises instead of returning a value
    monkeypatch.setattr(kernels, "gcd", lambda *a: 2 if a == (5, 2) else gcd(*a))
    with pytest.raises(ArithmeticError, match="scale"):
        det_exact([[5, 1], [2, 1]])
    monkeypatch.undo()
    assert det_exact([[5, 1], [2, 1]]) == 3
    # the same in the upper-triangle loop: a wrong content 2 of the dense
    # update's new row [14] turns it into [7] at the scale 5 // 2 = 2, which
    # does not divide the pivot product 5·7
    monkeypatch.setattr(kernels, "gcd", lambda *a: 2 if a == (5, 14) else gcd(*a))
    with pytest.raises(ArithmeticError, match="scale"):
        det_exact([[5, 1], [1, 3]])
    monkeypatch.undo()
    assert det_exact([[5, 1], [1, 3]]) == 14


def test_ordered_gram_determinant_matches_the_unordered_kernel():
    for cls in PartitionClass:
        for n in range(1, 7):
            for N in (4, 5):
                m = build_gram(n, cls, N)
                assert determinant(m) == det_bareiss(copy(m.entries))
        for n in range(1, 5):
            m = build_gram(n, cls, None)
            if m.nrows:  # the empty one is pinned in test_gram
                x = IntPolynomial.x()
                assert determinant(m) == det_bareiss([[x**e for e in row] for row in m.entries])


# ---------------------------------------------------------------------------
# contents: every row is divided by its gcd, and the determinant keeps it


def undivided(rows) -> tuple[int, int]:
    """(rank, det) of the Bareiss oracles on the whole matrix, content and
    all; det is None unless the matrix is square."""
    square = len(rows) == len(rows[0])
    return rank_echelon(copy(rows)), det_bareiss(copy(rows)) if square else None


@st.composite
def scaled_matrices(draw, max_size=6):
    """(c, A): a square or rectangular A, symmetric or not, and a scale c,
    negative or zero included."""
    a = draw(mostly_rank_deficient_matrices(max_size))
    c = draw(st.one_of(st.integers(min_value=-12, max_value=12), st.sampled_from((2**40, 3**30))))
    return c, a


@settings(max_examples=300)
@given(scaled_matrices())
@example((4, [[1, 1], [1, 2]]))
@example((0, [[1, 2], [3, 4]]))
@example((-3, [[0, 1, 2], [1, 0, 1]]))
def test_content_is_divided_out_exactly(case):
    c, a = case
    scaled = [[c * x for x in row] for row in a]
    assert eliminate(copy(scaled)) == eliminate_dense(copy(scaled))
    rank, det = undivided(scaled)
    assert rank_exact(scaled) == rank == (rank_exact(a) if c else 0)
    if len(a) == len(a[0]):
        assert det_exact(scaled) == det == c ** len(a) * det_exact(a)


# ---------------------------------------------------------------------------
# the two update rules: a pivot that divides the multiplier updates only the
# pivot row's nonzero columns, any other pivot the whole trailing row


@st.composite
def lu_products(draw, max_size=7):
    """L·U, L unit lower triangular and U sparse upper triangular, so that
    in input order most pivots divide their multipliers; a few rows are
    then replaced by dense ones, whose multipliers they do not divide.
    Square or with extra columns; U's diagonal may hold zeros."""
    m = draw(st.integers(min_value=1, max_value=max_size))
    n = m + draw(st.integers(min_value=0, max_value=2))
    small = st.integers(min_value=-3, max_value=3)
    sparse = st.one_of(st.just(0), st.just(0), st.just(0), small)
    lower = [[1 if i == j else draw(small) if j < i else 0 for j in range(m)] for i in range(m)]
    upper = [
        [draw(st.sampled_from((1, 2, -3, 6, 0))) if i == j else draw(sparse) if j > i else 0 for j in range(n)]
        for i in range(m)
    ]
    a = [[sum(lower[i][t] * upper[t][j] for t in range(m)) for j in range(n)] for i in range(m)]
    dense = st.integers(min_value=-9, max_value=9)
    for i in draw(st.sets(st.integers(min_value=0, max_value=m - 1), max_size=2)):
        a[i] = [draw(dense) for _ in range(n)]
    return a


@settings(max_examples=300)
@given(lu_products())
@example([[1, 1, 0], [1, 3, 2], [0, 2, 6]])
@example([[2, 4, 0], [3, 1, 1], [4, 8, 6]])
def test_lu_products_match_the_dense_loop(m):
    # the second example takes the dense rule for its second row and the
    # sparse one for its third, at the same pivot
    rank, det = eliminate(copy(m))
    assert (rank, det) == eliminate_dense(copy(m))
    assert rank == rank_echelon(copy(m)) == rank_by_fractions(m)
    if len(m) == len(m[0]):
        assert det == det_bareiss(copy(m)) == det_by_fractions(m)


def test_a_content_reached_through_sparse_updates_only():
    # the first pivot 1 divides every multiplier, so the second row meets
    # only the sparse rule and arrives at the pivot as [·, 2, 2], content 2
    m = [[1, 1, 0], [1, 3, 2], [0, 2, 6]]
    assert eliminate(copy(m)) == eliminate_dense(copy(m)) == (3, 8)
    for c in (-3, 2**40):
        scaled = [[c * x for x in row] for row in m]
        assert eliminate(copy(scaled)) == eliminate_dense(copy(scaled)) == (3, 8 * c**3)
        assert det_bareiss(copy(scaled)) == 8 * c**3


def test_a_rectangular_rank_deficient_matrix_takes_both_rules():
    # the pivot 2 divides the second row's 4 (sparse, the row vanishes) but
    # not the 3 and 5 below it (dense); the last row is the sum of the
    # first and the third
    m = [[2, 0, 4, 6, 0], [4, 0, 8, 12, 0], [3, 1, 2, 0, 5], [5, 1, 6, 6, 5]]
    assert eliminate(copy(m)) == eliminate_dense(copy(m)) == (2, 0)
    assert rank_by_fractions(m) == rank_echelon(copy(m)) == 2
    transposed = [list(col) for col in zip(*m)]
    assert eliminate(copy(transposed)) == eliminate_dense(copy(transposed)) == (2, 0)


def test_gram_matrices_match_the_dense_loop():
    for cls in PartitionClass:
        for n in range(1, 7):
            for N in (2, 3, 4):
                m = build_gram(n, cls, N).entries
                assert eliminate(copy(m)) == eliminate_dense(copy(m))


def test_zero_empty_and_one_by_one_matrices():
    # zero rows are never divided by their content 0, and no column of a
    # zero matrix has a pivot
    for zero in ([[0]], [[0, 0], [0, 0]], [[0, 0, 0], [0, 0, 0]], [[0], [0], [0]]):
        assert eliminate(copy(zero)) == (0, 0)
        assert det_exact(zero) == 0
        assert rank_exact(zero) == 0
    assert eliminate([]) == (0, 1)
    assert det_exact([]) == 1
    assert rank_exact([]) == 0
    # rows without columns: rank 0 and no determinant
    assert eliminate([[], []]) == (0, 0)
    for x in (-6, -1, 1, 7, 2**70):
        assert eliminate([[x]]) == (1, x)
        assert det_exact([[x]]) == x
        assert rank_exact([[x]]) == 1


def test_negative_and_rectangular_input():
    assert det_exact([[-4, 2], [6, -8]]) == 20 == det_by_fractions([[-4, 2], [6, -8]])
    assert det_exact([[-3, -6], [-9, -3]]) == 9 - 54
    assert rank_exact([[2, 4, 6], [4, 8, 12]]) == 1
    assert rank_exact([[-6, 0, 3], [0, 9, 0]]) == 2
    assert det_exact([[2, 4, 6], [6, 8, 10]]) == 0  # not square


# ---------------------------------------------------------------------------
# the upper-triangle loop never gives up on a positive semidefinite matrix


@settings(max_examples=300)
@given(psd_products())
def test_positive_semidefinite_input_never_falls_back(m):
    # a zero diagonal entry of a positive semidefinite matrix has a zero row
    # and column, and every Schur complement is positive semidefinite again
    assert kernels._eliminate_upper(m) == (rank_by_fractions(m), det_by_fractions(m))


def test_package_matrices_take_no_row_swap(monkeypatch):
    # Every Gram matrix at an integer N ≥ 1 is Z·D·Zᵀ with D =
    # diag((N)_b(τ)) ≥ 0 (Lindström, Proc. AMS 1969), so it is positive
    # semidefinite and the upper-triangle loop never gives up on it; at
    # X = 2^B it is symmetric but not known to be semidefinite. That no
    # level matrix A(m, r) at N ∈ {4, 5} gives up was only observed, through
    # m = 8; at N ≤ 3 some do (the next test).
    grams = [
        build_gram(n, cls, N).entries for cls in PartitionClass for n in range(1, 7) for N in range(1, 6)
    ]
    levels = [build_A(n, r, N).entries for n in range(1, 8) for r in range(n) for N in (4, 5)]
    symbolic = [m for cls in PartitionClass for n in range(1, 7) if (m := build_gram(n, cls, None)).nrows]
    integer = grams + levels
    expected = [eliminate_rows(copy(m)) for m in integer]
    monkeypatch.setattr(kernels, "eliminate", lambda rows: eliminate_rows(copy(rows)))
    expected_symbolic = [determinant(m) for m in symbolic]
    monkeypatch.undo()

    def refuse(rows):
        raise AssertionError("the row-swapping loop ran on a package matrix")

    monkeypatch.setattr(kernels, "_eliminate_rows", refuse)
    assert [(rank_exact(m), det_exact(m)) for m in integer] == expected
    assert [determinant(m) for m in symbolic] == expected_symbolic


def test_level_matrices_below_four_take_the_row_swaps(monkeypatch):
    # at N ∈ {1, 2, 3}, 22 of the 126 matrices A(m, r) and B(m, r) with
    # m ≤ 6 have a zero pivot whose row is not zero, A(3, 1) at N = 1 the
    # first, and so have the NC Gram matrices of 5 and 6 points at N = −1:
    # the row-swapping loop gives their determinant and rank
    cases = {
        (build.__name__, m, r, N): build(m, r, N).entries
        for build in (build_A, build_B)
        for m in range(1, 7)
        for r in range(m)
        for N in (1, 2, 3)
    }
    for n in (5, 6):
        cases["gram", n, -1] = build_gram(n, PartitionClass.NONCROSSING, None).evaluate(-1).entries
    swapped = []
    rows_loop = kernels._eliminate_rows
    monkeypatch.setattr(kernels, "_eliminate_rows", lambda rows: swapped.append(rows) or rows_loop(rows))
    fell = set()
    for case, m in cases.items():
        swapped.clear()
        assert (rank_exact(m), det_exact(m)) == (rank_by_fractions(m), det_by_fractions(m))
        if swapped:
            fell.add(case)
    assert {("build_A", 3, 1, 1), ("gram", 5, -1), ("gram", 6, -1)} <= fell


def test_the_symmetry_test_decides_as_the_transposed_copy_did(monkeypatch):
    # symmetry was once decided against a full transposed copy; the lazy
    # row-by-column test must send the same inputs to the upper-triangle
    # loop: empty, rows without columns, non-square, ragged, symmetric and
    # not, as lists and as tuples
    def symmetric_by_copy(rows) -> bool:
        return list(map(tuple, rows)) == list(zip(*rows))

    cases = [[], [[]], [[], []], [[1, 2, 3], [2, 4, 5]], [[1, 2], [2, 4], [3, 5]]]
    cases += [[[1, 2], [2]], [[1], [1, 2]], [[1, 2, 3], [2, 4]]]
    cases += [[list(row[:3]), list(row[3:6]), list(row[6:])] for row in product((0, 1), repeat=9)]
    cases += [tuple(map(tuple, m)) for m in cases]
    upper_loop = kernels._eliminate_upper
    took = []
    monkeypatch.setattr(kernels, "_eliminate_upper", lambda rows: took.append(rows) or upper_loop(rows))
    monkeypatch.setattr(kernels, "_eliminate_rows", lambda rows: None)
    for rows in cases:
        took.clear()
        eliminate(rows)
        assert bool(took) == symmetric_by_copy(rows), rows
    assert sum(map(symmetric_by_copy, cases)) == 2 * (1 + 2**6)


def test_reported_backend_is_consistent():
    assert kernels.INTEGER_BACKEND == "python"


def test_each_loop_reaches_the_finish_once_per_full_rank_determinant(monkeypatch):
    # both loops hand their factors to `polynomials.power_product` once, at
    # full rank; a loop that gives up (the upper triangle at a zero pivot
    # whose row is not zero) or a matrix of lower rank never reaches it
    finish = kernels.power_product
    callers = []

    def spy(factors):
        callers.append(sys._getframe(1).f_code.co_name)
        return finish(factors)

    monkeypatch.setattr(kernels, "power_product", spy)
    gram = build_gram(5, PartitionClass.NONCROSSING, 4).entries
    swapped = [gram[1], gram[0], *gram[2:]]
    cases = [
        (gram, "_eliminate_upper"),  # symmetric
        (swapped, "_eliminate_rows"),  # not symmetric
        (build_A(4, 2, 2).entries, "_eliminate_rows"),  # N < 4: the upper loop falls back
    ]
    for rows, loop in cases:
        callers.clear()
        assert det_exact(rows) == det_by_fractions(rows) != 0
        assert callers == [loop]
    assert det_exact(swapped) == -det_exact(gram)
    singular = [
        build_gram(4, PartitionClass.ALL, 2).entries,  # symmetric, rank 8 of 15
        build_A(5, 2, 1).entries,  # falls back, rank 13 of 14
        [[1, 2], [2, 4]],
        [[1, 2], [3, 6]],
        [[1, 2, 3]],
    ]
    for rows in singular:
        callers.clear()
        assert det_exact(rows) == 0 and callers == []
