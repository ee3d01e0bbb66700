"""The exact elimination kernel: one fraction-free loop over ℤ.

`eliminate` returns both the rank and the determinant; `det_exact` and
`rank_exact` are its two entry points. Everything is integer arithmetic,
and symbolic determinants never reach this module as polynomials:
`gram.determinant` evaluates one at X = 2^B and reads the coefficients
off the integer's digits.

Just before a row becomes the pivot row at column k, it is divided by its
content c, the gcd of its entries from column k on (the earlier ones are
zero or never read again). A row i below the pivot row with a_ik = 0 is
left untouched. Any other row is updated on the columns after k, with
g = gcd(a_kk, a_ik), p = a_kk/g and q = a_ik/g, by one of two rules:

- p = 1, the pivot divides the multiplier: row_i ← row_i − q·row_k, over
  the pivot row's nonzero columns only. The determinant does not change.
- p ≠ 1: row_i ← (p·row_i − q·row_k) / c' over every column, where c' is
  the content of the new row. This multiplies the determinant by p/c'.

Dividing the pivot row by c divides the determinant by c, so once the
matrix is triangular (with sign the parity of the row swaps)

    det A = sign · ∏ pivots · ∏ c · ∏ c' / ∏ p,

over every pivot content c and every dense update. The loop carries the
numerator and the denominator as two integers and divides once at the
end; that division must be exact, and `ArithmeticError` is raised if it
is not. A column without a pivot is skipped, so the loop gives the rank
of any matrix, square or not; zero rows are never divided, and a zero or
empty matrix needs no special case.

Why the entries stay small: let S_i be row i of the exact Schur
complement over ℚ at the current step. A sparse update maps a multiple
d_i·S_i of it to d_i·S_i' with the same d_i, and only a dense update
multiplies the row, by p. So each row stays d_i·S_i, with d_i changed
only by the dense updates and the content divisions: a row that has met
only sparse updates is its exact Schur-complement row, d_i = 1.

Skipping zeros is what pays. Bareiss elimination (Math. Comp. 22, 1968)
divides by the previous pivot, so every step rescales every remaining
row, zero multiplier or not, and each entry grows with the step count.
Gram matrices, eliminated in label order, are mostly zero below and to
the right of the pivot. On the 7-point Gram matrix at N = 4 (429 rows),
9,809 of the 91,806 row updates have a nonzero multiplier, and the
others cost nothing; 9,103 of those 9,809 have p = 1. The pivot rows'
tails hold 11% nonzeros, so the entries written fall from 2.69 million
(every update dense) to 0.67 million. The largest entry written has 56
bits either way. On dense matrices the gcds make this loop slower than
Bareiss; it is a kernel for Gram and level matrices.

All arithmetic is on Python ints; `INTEGER_BACKEND` names that backend
for benchmark records.
"""

from __future__ import annotations

from math import gcd

INTEGER_BACKEND = "python"


def eliminate(rows) -> tuple[int, int]:
    """(rank, determinant) by fraction-free elimination in input order.

    Mutates ``rows`` (pass a fresh copy). The determinant is 0 unless the
    input is square and of full rank.
    """
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


def det_exact(rows) -> int:
    """Exact determinant of an integer matrix; ``rows`` is left unchanged."""
    return eliminate([list(row) for row in rows])[1]


def rank_exact(rows) -> int:
    """Exact rank over ℚ of an integer matrix; ``rows`` is left unchanged."""
    return eliminate([list(row) for row in rows])[0]
