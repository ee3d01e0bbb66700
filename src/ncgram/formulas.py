"""Closed-form determinant formulas for the pair-partition Gram matrix.

The determinant of the Gram matrix over noncrossing pair partitions on 2n
points is Di Francesco's Chebyshev product ∏ U_i(N)^{a_{n,i}} (hard
cross-check: it must equal the determinant found by exact elimination,
`gram.determinant`). Up to a power of N it is the product of Tutte's
recursion read at N²: U_i(N) = N^{i mod 2}·c_{i+1}(N²), with c_k the
reversed Beraha values of `polynomials.beraha_bases`, so both closed
forms evaluate one family of bases.
"""

from __future__ import annotations

from math import comb, log2

from .errors import check_parameter, refuse_past
from .gram import SYMBOLIC_BIT_BUDGET, build_gram, determinant
from .partitions import PartitionClass
from .polynomials import _decimal_text, beraha_bases, power_product


def _check_pairs(n) -> None:
    """Refuse a pair count that is not an int; bools are not counts."""
    if type(n) is not int:
        raise TypeError(f"pair count must be an int, not {n!r}")


def difrancesco_exponents(n: int) -> dict[int, int]:
    """a_{n,i} = C(2n, n−i) − 2·C(2n, n−i−1) + C(2n, n−i−2), i = 1..n,
    read as C(2n, n+i) − 2·C(2n, n+i+1) + C(2n, n+i+2), where a bottom
    index past 2n gives 0.

    Some are negative: a_{8,1} = −208, and a_{n,2} < 0 for 18 ≤ n ≤ 40
    (a_{18,2} = −31,635,810).
    """
    _check_pairs(n)
    if n < 1:
        raise ValueError("n must be positive")
    m = 2 * n
    return {i: comb(m, n + i) - 2 * comb(m, n + i + 1) + comb(m, n + i + 2) for i in range(1, n + 1)}


def difrancesco_det(n: int, N: int) -> int:
    """∏_{i=1}^n U_i(N)^{a_{n,i}} — the closed form of the 2n-point pair Gram determinant.

    It is read at N² off the bases of Tutte's recursion: U_i(N) =
    N^{i mod 2}·c_{i+1}(N²) (`polynomials.check_beraha_chebyshev_relation`),
    so the product is N^{Σ_{odd i} a_{n,i}} = N^{C_n} times
    ∏ c_{i+1}(N²)^{a_{n,i}}, with every c_k from `polynomials.beraha_bases`.
    That is the fattening identity det G_NC2(2n)(N)·N^{C_n} =
    det G_NC(n)(N²) (Chen and Przytycki, Commun. Contemp. Math. 2008).
    The exponents can be negative (see `difrancesco_exponents`). Every
    base is positive for N ≥ 2, as the roots of c_k lie in [0, 4), and the
    product is the determinant of an integer matrix, so `power_product`
    divides exactly; below 18 pairs nothing is left to divide by, and the
    budget below refuses every n past 13 at any N.

    A value of more than `gram.SYMBOLIC_BIT_BUDGET` bits, Σ a·log₂base over
    the same (base, exponent) list at n′ = 1, 2, …, n pairs, is refused with
    BudgetError before any power is formed.
    """
    _check_pairs(n)
    check_parameter(N, 2, "N must be at least 2")

    def powers(pairs: int) -> list[tuple[int, int]]:
        a = difrancesco_exponents(pairs)  # a[i] raises c_{i+1}(N²), and N for odd i
        return [(N, sum(a[i] for i in a if i % 2)), *zip(beraha_bases(pairs + 1, N * N)[1:], a.values())]

    def bits(pairs: int) -> float:
        return sum(a * log2(base) for base, a in powers(pairs))

    refuse_past(SYMBOLIC_BIT_BUDGET, "bits of the pair formula's value", bits, range(1, n + 1))
    return power_product(powers(n))


def difrancesco_check(n: int, N: int) -> dict:
    """Compare the closed form against the direct exact determinant."""
    _check_pairs(n)
    direct = determinant(build_gram(2 * n, PartitionClass.NONCROSSING_PAIRS, N))
    formula = difrancesco_det(n, N)
    return {
        "n": n,
        "N": N,
        "direct": _decimal_text(direct),
        "formula": _decimal_text(formula),
        "match": formula == direct,
    }
