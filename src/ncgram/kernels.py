"""The exact elimination kernel: one primitive-row loop over ℤ.

`eliminate` returns both the rank and the determinant; `det_exact` and
`rank_exact` are its two entry points. Everything is integer arithmetic,
and symbolic determinants never reach this module as polynomials:
`gram.determinant` evaluates them at integers and interpolates.

Every row is kept primitive: it is divided by its content, the gcd of its
entries, first on input and again after each update. At pivot column k a
row i below the pivot row with a_ik = 0 is left untouched. Any other row
becomes, with g = gcd(a_kk, a_ik),

    row_i ← ((a_kk/g)·row_i − (a_ik/g)·row_k) / c

on the columns after k, where c is the content of the new row. Dividing a
row by c divides the determinant by c, and the update multiplies it by
(a_kk/g)/c, so once the matrix is triangular (with sign the parity of the
row swaps)

    det A = sign · ∏ pivots · ∏ c / ∏ (a_kk/g),

over every content c, the input's included. The loop carries the
numerator and the denominator as two integers and divides once at the
end; that division must be exact, and `ArithmeticError` is raised if it
is not. A column without a pivot is skipped, so the loop gives the rank
of any matrix, square or not; zero rows are never divided, and a zero or
empty matrix needs no special case.

Skipping zeros is what pays. Bareiss elimination (Math. Comp. 22, 1968)
divides by the previous pivot, so every step rescales every remaining
row, zero multiplier or not, and each entry grows with the step count.
Here a row grows only when it is updated, and the content division takes
back what the update did not need. Gram matrices, eliminated in label
order, are mostly zero below the pivot: on the 7-point Gram matrix at
N = 4 (429 rows), about 9,800 of the 91,806 row updates have a nonzero
multiplier, and the others cost nothing. On dense matrices the gcds make
this loop slower than Bareiss; it is a kernel for Gram and level
matrices.

All arithmetic is on Python ints; `INTEGER_BACKEND` names that backend
for benchmark records.
"""

from __future__ import annotations

from math import gcd

INTEGER_BACKEND = "python"


def eliminate(rows) -> tuple[int, int]:
    """(rank, determinant) by primitive-row elimination in input order.

    Mutates ``rows`` (pass a fresh copy). The determinant is 0 unless the
    input is square and of full rank.
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


def det_exact(rows) -> int:
    """Exact determinant of an integer matrix; ``rows`` is left unchanged."""
    return eliminate([list(row) for row in rows])[1]


def rank_exact(rows) -> int:
    """Exact rank over ℚ of an integer matrix; ``rows`` is left unchanged."""
    return eliminate([list(row) for row in rows])[0]
