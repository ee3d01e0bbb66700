"""Fraction-free elimination kernels: Bareiss determinant and echelon rank.

Entries may be any exact ring elements supporting *, -, // (ints,
gmpy2.mpz, IntPolynomial), where // is exact division by construction of
the Bareiss recurrence. Everything is exact arithmetic over ℤ (or ℤ[X] for
polynomial entries).

Every Gram and level matrix is symmetric, and a Bareiss step without a
row swap keeps the trailing block symmetric. `det_bareiss` detects a
symmetric input and then updates only the upper triangle, about half the
big-integer work. A zero pivot would need a row swap, which breaks the
symmetry: the kernel then restores the lower triangle from the upper one
once and finishes on the general, row-swapping path.

gmpy2 is an optional accelerator: when it imports, plain-int matrices are
wrapped in mpz, which makes the O(n³) big-int multiplications inside
Bareiss several times faster. Inputs and outputs stay Python ints either
way, and polynomial entries skip the conversion.
"""

from __future__ import annotations

try:  # pragma: no cover - optional dependency
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover
    _mpz = None

INTEGER_BACKEND = "python" + ("+gmpy2" if _mpz is not None else "")


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


def _int_rows(rows) -> tuple[list[list], bool]:
    """Copy rows; wrap plain-int matrices in mpz when gmpy2 is around."""
    if _mpz is not None and rows and rows[0] and type(rows[0][0]) is int:
        return [[_mpz(x) for x in row] for row in rows], True
    return [list(row) for row in rows], False


def det_exact(rows):
    """Exact determinant. Accepts any exact-ring entries; returns int for ints."""
    work, wrapped = _int_rows(rows)
    d = det_bareiss(work)
    return int(d) if wrapped else d


def rank_exact(rows) -> int:
    """Exact rank over the fraction field of the entry ring."""
    work, _ = _int_rows(rows)
    return int(rank_echelon(work))
