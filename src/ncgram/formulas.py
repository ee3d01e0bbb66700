"""Closed-form determinant formulas for the pair-partition Gram matrix.

The determinant of the Gram matrix over noncrossing pair partitions on 2n
points is a direct Chebyshev product (hard cross-check: it must equal the
determinant found by exact elimination, `gram.determinant`).
"""

from __future__ import annotations

from math import comb, log2

from .errors import check_parameter, refuse_past
from .gram import SYMBOLIC_BIT_BUDGET, _decimal_text, build_gram, determinant
from .partitions import PartitionClass
from .polynomials import chebyshev_dilated, power_product


def difrancesco_exponents(n: int) -> dict[int, int]:
    """a_{n,i} = C(2n, n−i) − 2·C(2n, n−i−1) + C(2n, n−i−2), i = 1..n,
    read as C(2n, n+i) − 2·C(2n, n+i+1) + C(2n, n+i+2), where a bottom
    index past 2n gives 0.

    Some are negative: a_{8,1} = −208, and a_{n,2} < 0 for 18 ≤ n ≤ 40
    (a_{18,2} = −31,635,810).
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = 2 * n
    return {i: comb(m, n + i) - 2 * comb(m, n + i + 1) + comb(m, n + i + 2) for i in range(1, n + 1)}


def difrancesco_det(n: int, N: int) -> int:
    """∏_{i=1}^n U_i(N)^{a_{n,i}} — the closed form of the 2n-point pair Gram determinant.

    The exponents can be negative (see `difrancesco_exponents`). All U_i(N)
    are nonzero for N ≥ 2 (the roots lie in (−2, 2)), and the product is
    the determinant of an integer matrix, so `power_product` divides
    exactly. Each odd U_i(N) is N times an integer, and N is pulled out
    first: its total exponent is positive and absorbs that of U_1 = N, so
    below 18 pairs nothing is left to divide by, and the budget below
    refuses every n past 13 at any N.

    A value of more than `gram.SYMBOLIC_BIT_BUDGET` bits, Σ a_{n′,i}·log₂U_i(N)
    at n′ = 1, 2, …, n pairs, is refused with BudgetError before any power
    is formed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_parameter(N, 2, "N must be at least 2")

    def bits(pairs: int) -> float:
        exponents = difrancesco_exponents(pairs).items()
        return sum(a * log2(chebyshev_dilated(i).evaluate(N)) for i, a in exponents)

    refuse_past(SYMBOLIC_BIT_BUDGET, "bits of the pair formula's value", bits, range(1, n + 1))
    exponents = difrancesco_exponents(n)
    powers = [(chebyshev_dilated(i).evaluate(N) // N ** (i % 2), a) for i, a in exponents.items()]
    return power_product([(N, sum(a for i, a in exponents.items() if i % 2)), *powers])


def difrancesco_check(n: int, N: int) -> dict:
    """Compare the closed form against the direct exact determinant."""
    direct = determinant(build_gram(2 * n, PartitionClass.NONCROSSING_PAIRS, N))
    formula = difrancesco_det(n, N)
    return {
        "n": n,
        "N": N,
        "direct": _decimal_text(direct),
        "formula": _decimal_text(formula),
        "match": formula == direct,
    }
