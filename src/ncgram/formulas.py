"""Closed-form determinant formulas for the pair-partition Gram matrix.

The determinant of the Gram matrix over noncrossing pair partitions on 2n
points is a direct Chebyshev product (hard cross-check: it must equal the
determinant found by exact elimination, `gram.determinant`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .gram import build_gram, determinant
from .partitions import PartitionClass
from .polynomials import chebyshev_dilated


def _binom(m: int, j: int) -> int:
    """C(m, j) with out-of-range indices giving 0."""
    if j < 0 or j > m:
        return 0
    return comb(m, j)


@dataclass(frozen=True)
class ExponentTable:
    """Chebyshev exponents a_{n,i} of the product formula, recorded verbatim."""

    n: int
    entries: dict[int, int]


def difrancesco_exponents(n: int) -> ExponentTable:
    """a_{n,i} = C(2n, n−i) − 2·C(2n, n−i−1) + C(2n, n−i−2), i = 1..n."""
    if n < 1:
        raise ValueError("n must be positive")
    return ExponentTable(
        n=n,
        entries={
            i: _binom(2 * n, n - i) - 2 * _binom(2 * n, n - i - 1) + _binom(2 * n, n - i - 2)
            for i in range(1, n + 1)
        },
    )


def difrancesco_det(n: int, N: int) -> Fraction:
    """∏_{i=1}^n U_i(N)^{a_{n,i}} — the closed form of the 2n-point pair Gram determinant.

    All U_i(N) are nonzero for N ≥ 2 (the roots lie in (−2, 2)), so
    negative exponents, were the table to produce any, stay well-defined.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if N < 2:
        raise ValueError("N must be at least 2")
    result = Fraction(1)
    for i, a in difrancesco_exponents(n).entries.items():
        if a:
            result *= Fraction(chebyshev_dilated(i).evaluate(N)) ** a
    return result


def difrancesco_check(n: int, N: int) -> dict:
    """Compare the closed form against the direct exact determinant."""
    direct = determinant(build_gram(2 * n, PartitionClass.NONCROSSING_PAIRS, N))
    formula = difrancesco_det(n, N)
    return {
        "n": n,
        "N": N,
        "direct": str(direct),
        "formula": str(formula),
        "match": formula == direct,
    }
