"""The fraction-free elimination kernel: one Bareiss loop over ℤ.

`eliminate` is one column-skipping Bareiss loop (Math. Comp. 22, 1968)
that returns both the rank and the determinant; `det_exact` and
`rank_exact` are its two entry points. Every division in it is exact, so
everything is integer arithmetic. Symbolic determinants never reach this
module as polynomials: `gram.determinant` evaluates them at integers and
interpolates.

Every Gram and level matrix is symmetric, and a Bareiss step without a
row swap keeps the trailing block symmetric. The loop detects a symmetric
input and then updates only the upper triangle, about half the big-integer
work. A zero pivot would need a row swap, which breaks the symmetry: the
loop then restores the lower triangle from the upper one once and finishes
on the general, row-swapping path.

Square input is eliminated as P·A·Pᵀ, where the permutation P sorts the
diagonal: nonzero entries ascending by bit length, zero entries last, ties
in input order. The order is exact for both answers, since
det(P·A·Pᵀ) = det(P)²·det(A) = det(A) and rank(P·A·Pᵀ) = rank(A), and it
keeps a symmetric matrix symmetric. By Sylvester's identity every entry
after Bareiss step k is a (k+1)×(k+1) minor of the input, so small pivots
first keep the numbers small while the trailing block is still large; on
the 7-point Gram matrix, whose diagonal is N^(block count), this halves
the determinant time. A zero pivot would force the general path, so zeros
come last. Rectangular input has no diagonal and keeps its input order.

gmpy2 is an optional accelerator: when it imports, the working copy is
wrapped in mpz, which makes the O(n³) big-int multiplications several
times faster. Inputs and outputs stay Python ints either way.
"""

from __future__ import annotations

try:  # pragma: no cover - optional dependency
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover
    _mpz = None

INTEGER_BACKEND = "python" + ("+gmpy2" if _mpz is not None else "")


def eliminate(rows) -> tuple[int, int]:
    """(rank, determinant) by column-skipping Bareiss elimination.

    Mutates ``rows`` (pass a fresh copy). A column without a pivot is
    skipped; the determinant is sign × the last pivot when the input is
    square and of full rank, and 0 otherwise.

    Symmetric input (checked once, entry for entry) stays symmetric in the
    trailing block while no rows are swapped, so each step updates only
    the entries on or above the diagonal and reads the multiplier a_ik
    from the pivot row as a_ki; the lower triangle goes stale. On a zero
    pivot the trailing upper triangle is mirrored into the lower one once,
    and elimination continues on the general path, which pivots by row
    swap. Other input takes the general path from the start.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    symmetric = m == ncols and all(
        rows[i][j] == rows[j][i] for i in range(m) for j in range(i + 1, m)
    )
    sign = prev = 1
    row = 0
    for col in range(ncols):
        if row == m:
            break
        if not rows[row][col]:
            if symmetric:
                for i in range(row + 1, m):
                    ri = rows[i]
                    for j in range(row, i):
                        ri[j] = rows[j][i]
                symmetric = False
            for i in range(row + 1, m):
                if rows[i][col]:
                    rows[row], rows[i] = rows[i], rows[row]
                    sign = -sign
                    break
            else:
                continue
        rk = rows[row]
        pivot = rk[col]
        for i in range(row + 1, m):
            ri = rows[i]
            if symmetric:
                aik, lo = rk[i], i
            else:
                aik, lo = ri[col], col + 1
            if aik:
                for j in range(lo, ncols):
                    ri[j] = (pivot * ri[j] - aik * rk[j]) // prev
            else:
                for j in range(lo, ncols):
                    ri[j] = pivot * ri[j] // prev
        prev = pivot
        row += 1
    return row, (sign * prev if row == m == ncols else 0)


def _working_copy(rows) -> list[list]:
    """Copy of rows, as P·A·Pᵀ with the diagonal order when square, and
    in mpz when gmpy2 is around."""
    if rows and len(rows) == len(rows[0]):
        order = sorted(
            range(len(rows)),
            key=lambda i: (not rows[i][i], rows[i][i].bit_length()),
        )
        rows = [rows[i] for i in order]
    else:
        order = range(len(rows[0])) if rows else ()
    if _mpz is not None:
        return [[_mpz(row[j]) for j in order] for row in rows]
    return [[row[j] for j in order] for row in rows]


def det_exact(rows) -> int:
    """Exact determinant of an integer matrix; ``rows`` is left unchanged."""
    return int(eliminate(_working_copy(rows))[1])


def rank_exact(rows) -> int:
    """Exact rank over ℚ of an integer matrix; ``rows`` is left unchanged."""
    return eliminate(_working_copy(rows))[0]
