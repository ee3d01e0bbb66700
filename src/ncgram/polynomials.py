"""Exact univariate integer polynomials and the Beraha/Chebyshev families.

Everything here is exact: coefficients are Python ints, evaluations at
rationals return `fractions.Fraction` (re-exported as BigRational). No
floating point is used anywhere in the package.

The square-root relation between the two families is mechanized by the
substitution N = x², which turns it into a genuine polynomial identity
over ℤ — see `check_beraha_chebyshev_relation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

BigRational = Fraction


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
    def constant(cls, c: int) -> IntPolynomial:
        return cls((c,))

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
        if isinstance(other, int):
            other = IntPolynomial((other,))
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
        if e < 0:
            raise ValueError("negative exponent")
        result = IntPolynomial((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def shift(self, k: int) -> IntPolynomial:
        """Multiply by X^k."""
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

    # Fraction-free elimination divides by a previous pivot, which is exact
    # over any integral domain. The package eliminates over ℤ only; this
    # alias keeps the test suite's reference Bareiss kernel running over
    # ℤ[X], as an oracle for symbolic determinants found by interpolation.
    __floordiv__ = divexact

    def evaluate(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


_beraha_cache = [IntPolynomial(), IntPolynomial((1,))]  # β_0 = 0, β_1 = 1


def beraha(n: int) -> IntPolynomial:
    """Reversed Beraha polynomial β_n: β_{n+1} = β_n − X·β_{n−1}."""
    if n < 0:
        raise ValueError("n must be non-negative")
    x = IntPolynomial.x()
    while len(_beraha_cache) <= n:
        _beraha_cache.append(_beraha_cache[-1] - x * _beraha_cache[-2])
    return _beraha_cache[n]


_dilated_cache = [IntPolynomial((1,)), IntPolynomial.x()]  # U_0 = 1, U_1 = X


def chebyshev_dilated(n: int) -> IntPolynomial:
    """Dilated Chebyshev polynomial of the second kind: U_{n+1} = X·U_n − U_{n−1}.

    All roots lie in the open interval (−2, 2), hence U_n(v) ≠ 0 for
    integers |v| ≥ 2 — the fact the determinant formulas lean on.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    x = IntPolynomial.x()
    while len(_dilated_cache) <= n:
        _dilated_cache.append(x * _dilated_cache[-1] - _dilated_cache[-2])
    return _dilated_cache[n]


_classical_cache = [IntPolynomial((1,)), IntPolynomial((0, 2))]  # 𝒰_0 = 1, 𝒰_1 = 2X


def chebyshev_classical(n: int) -> IntPolynomial:
    """Classical second-kind Chebyshev 𝒰_n: 𝒰_{n+1} = 2X·𝒰_n − 𝒰_{n−1}.

    Satisfies 𝒰_n(cos t) = sin((n+1)t)/sin t and the dilation relation
    U_n(2x) = 𝒰_n(x).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    two_x = IntPolynomial((0, 2))
    while len(_classical_cache) <= n:
        _classical_cache.append(two_x * _classical_cache[-1] - _classical_cache[-2])
    return _classical_cache[n]


def check_beraha_chebyshev_relation(j_max: int) -> dict:
    """Verify N^s·β_j(1/N) = √N·U_{j−1}(√N) (j even) / U_{j−1}(√N) (j odd).

    Substituting N = x² clears every square root: for j = 2s the claim becomes
    x^{2s}·β_j(x^{−2}) = x·U_{j−1}(x), for j = 2s+1 it becomes
    x^{2s}·β_j(x^{−2}) = U_{j−1}(x). Since deg β_j ≤ s both left sides are
    polynomials in x; the check is exact coefficient equality.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
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


def beraha_nonzero_at(N: int, n_max: int) -> dict:
    """Evaluate β_n(1/N) exactly for 1 ≤ n ≤ n_max and report zeros.

    For N ≥ 4 a zero would violate the root lemma, so the report status is a
    violation; for smaller N the values are recorded as diagnostics only
    (e.g. β_6(1/3) = 0 exactly).
    """
    if N < 1:
        raise ValueError("N must be positive")
    z = Fraction(1, N)
    values = [beraha(n).evaluate(z) for n in range(1, n_max + 1)]
    zeros = [n for n, v in zip(range(1, n_max + 1), values) if v == 0]
    guaranteed = N >= 4
    return {
        "N": N,
        "n_max": n_max,
        "guaranteed": guaranteed,
        "zeros": zeros,
        "status": "lemma-violation" if (guaranteed and zeros) else "ok",
        "values": [str(v) for v in values],
    }
