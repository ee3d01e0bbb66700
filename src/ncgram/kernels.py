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

`det_exact` eliminates P·A·Pᵀ, where the permutation P sorts the
diagonal: nonzero entries ascending by size (bit length, or degree in
ℤ[X]), zero entries last, ties in input order. It is exact, since
det(P·A·Pᵀ) = det(P)²·det(A) = det(A), and it keeps a symmetric matrix
symmetric. By Sylvester's identity every entry after Bareiss step k is a
(k+1)×(k+1) minor of the input, so small pivots first keep the numbers
small while the trailing block is still large; on the 7-point Gram matrix,
whose diagonal is N^(block count), this halves the determinant time. A
zero pivot would force the general path, so zeros come last.

`rank_exact` keeps the input order. Its kernel takes rectangular input,
which has no diagonal to sort by. On square Gram matrices the same order gave no gain at 6
points, N = 2, and a gain at 7 points, N = 3 (14.7 → 9.1 s on a 2-core
Xeon), so ordering the rank kernel is a change of its own, measured on
the rank jobs.

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


def _int_rows(rows, order=None) -> tuple[list[list], bool]:
    """Copy rows, taking rows and columns in ``order`` when it is given;
    wrap plain-int matrices in mpz when gmpy2 is around."""
    wrap = _mpz is not None and rows and rows[0] and type(rows[0][0]) is int
    if order is None:
        order = range(len(rows[0])) if rows else ()
        picked = rows
    else:
        picked = [rows[i] for i in order]
    if wrap:
        return [[_mpz(row[j]) for j in order] for row in picked], True
    return [[row[j] for j in order] for row in picked], False


def _size(x) -> int:
    """Bit length of an integer, degree of a polynomial."""
    bit_length = getattr(x, "bit_length", None)
    return bit_length() if bit_length is not None else x.degree


def _diagonal_order(rows) -> list[int]:
    """Indices sorted by diagonal entry: nonzero ones ascending by size,
    zero ones last, ties in input order."""
    return sorted(
        range(len(rows)),
        key=lambda i: (0, _size(rows[i][i])) if rows[i][i] else (1, 0),
    )


def det_exact(rows):
    """Exact determinant. Accepts any exact-ring entries; returns int for ints.

    Eliminates P·A·Pᵀ, where the permutation P sorts the diagonal:
    nonzero entries ascending by size (bit length, or degree in ℤ[X]),
    zero entries last, ties in input order. This is exact, since
    det(P·A·Pᵀ) = det(P)²·det(A) = det(A), and P·A·Pᵀ is symmetric
    whenever A is, so `det_bareiss` keeps its symmetric path. Small pivots
    first keep the Bareiss intermediates, which are minors of the input,
    small while the trailing block is still large. The reordered copy is
    the only copy made; ``rows`` is left unchanged.
    """
    work, wrapped = _int_rows(rows, _diagonal_order(rows))
    d = det_bareiss(work)
    return int(d) if wrapped else d


def rank_exact(rows) -> int:
    """Exact rank over the fraction field of the entry ring.

    Eliminates in input order: rectangular input has no diagonal to sort
    by, so the order of `det_exact` does not apply (see the module notes).
    """
    work, _ = _int_rows(rows)
    return int(rank_echelon(work))
