"""Integer polynomials, reversed Beraha family, and the Chebyshev bridge."""

from __future__ import annotations

import sys
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncgram import polynomials
from ncgram.polynomials import (
    IntPolynomial,
    beraha,
    beraha_bases,
    beraha_nonzero_at,
    chebyshev_classical,
    chebyshev_dilated,
    check_beraha_chebyshev_relation,
    power_product,
)

X = IntPolynomial.x()

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)


def poly(*coeffs: int) -> IntPolynomial:
    return IntPolynomial(tuple(coeffs))


# ---------------------------------------------------------------------------
# ring arithmetic


def test_normalization_drops_leading_zeros():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert poly(0, 0).degree == -1
    assert not poly(0)
    assert poly(3).degree == 0


def test_arithmetic_small_cases():
    assert (X + 1) * (X - 1) == X**2 - 1
    assert (X + 2) ** 2 == X**2 + 4 * X + 4
    assert X**0 == poly(1)
    assert (X**2 - 1).evaluate(3) == 8
    assert poly(1, 1).shift(2) == poly(0, 0, 1, 1)


@given(coeff_lists, coeff_lists)
def test_product_evaluates_pointwise(a, b):
    p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
    for v in (-2, 0, 1, 3):
        assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)
        assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)


@given(coeff_lists, coeff_lists)
def test_divexact_inverts_multiplication(a, b):
    p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
    if q.is_zero():
        return
    assert (p * q).divexact(q) == p


def test_negative_shift_and_power_are_refused():
    # X^k for k < 0 is no polynomial, so neither a shift nor a power takes it
    for p in (poly(1, 2), poly(0)):
        with pytest.raises(ValueError):
            p.shift(-1)
        with pytest.raises(ValueError):
            p ** -1
    assert poly(1, 2).shift(0) == poly(1, 2)


def test_divexact_rejects_inexact():
    with pytest.raises(ValueError):
        (X**2 + 1).divexact(X + 1)
    with pytest.raises(ZeroDivisionError):
        X.divexact(poly(0))


def test_evaluate_at_fraction_is_exact():
    assert (X**2 - 1).evaluate(Fraction(1, 2)) == Fraction(-3, 4)


# ---------------------------------------------------------------------------
# the two polynomial families


# The three families as each was written before one recurrence helper
# extended them all, kept as oracles with caches of their own.

_oracle_beraha_cache = [IntPolynomial(), IntPolynomial((1,))]  # β_0 = 0, β_1 = 1


def beraha_by_loop(n: int) -> IntPolynomial:
    if n < 0:
        raise ValueError("n must be non-negative")
    x = IntPolynomial.x()
    while len(_oracle_beraha_cache) <= n:
        _oracle_beraha_cache.append(_oracle_beraha_cache[-1] - x * _oracle_beraha_cache[-2])
    return _oracle_beraha_cache[n]


_oracle_dilated_cache = [IntPolynomial((1,)), IntPolynomial.x()]  # U_0 = 1, U_1 = X


def chebyshev_dilated_by_loop(n: int) -> IntPolynomial:
    if n < 0:
        raise ValueError("n must be non-negative")
    x = IntPolynomial.x()
    while len(_oracle_dilated_cache) <= n:
        _oracle_dilated_cache.append(x * _oracle_dilated_cache[-1] - _oracle_dilated_cache[-2])
    return _oracle_dilated_cache[n]


_oracle_classical_cache = [IntPolynomial((1,)), IntPolynomial((0, 2))]  # 𝒰_0 = 1, 𝒰_1 = 2X


def chebyshev_classical_by_loop(n: int) -> IntPolynomial:
    if n < 0:
        raise ValueError("n must be non-negative")
    two_x = IntPolynomial((0, 2))
    while len(_oracle_classical_cache) <= n:
        _oracle_classical_cache.append(two_x * _oracle_classical_cache[-1] - _oracle_classical_cache[-2])
    return _oracle_classical_cache[n]


@pytest.mark.parametrize("descending", [True, False])
@pytest.mark.parametrize(
    "family, cache, oracle",
    [
        (beraha, "_beraha_cache", beraha_by_loop),
        (chebyshev_dilated, "_dilated_cache", chebyshev_dilated_by_loop),
        (chebyshev_classical, "_classical_cache", chebyshev_classical_by_loop),
    ],
)
def test_each_family_matches_its_loop_oracle(monkeypatch, family, cache, oracle, descending):
    # from a cache holding only P_0 and P_1: the first call extends it to
    # n = 60 at once when descending, one term a call when ascending
    monkeypatch.setattr(polynomials, cache, getattr(polynomials, cache)[:2])
    ns = range(60, -1, -1) if descending else range(61)
    assert [family(n) for n in ns] == [oracle(n) for n in ns]
    assert len(getattr(polynomials, cache)) == 61
    for call in (family, oracle):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            call(-1)


def test_beraha_first_values():
    assert beraha(0) == poly(0)
    assert beraha(1) == poly(1)
    assert beraha(2) == poly(1)
    assert beraha(3) == 1 - X
    assert beraha(4) == 1 - 2 * X
    assert beraha(5) == 1 - 3 * X + X**2
    assert beraha(6) == 1 - 4 * X + 3 * X**2


def test_beraha_recurrence_holds():
    for n in range(1, 40):
        assert beraha(n + 1) == beraha(n) - X * beraha(n - 1)


def test_beraha_six_vanishes_at_one_third():
    # the reason parameter 3 sits outside the theorem's scope
    assert beraha(6).evaluate(Fraction(1, 3)) == 0
    assert beraha(6).evaluate(Fraction(1, 4)) != 0


def test_chebyshev_dilated_first_values():
    assert chebyshev_dilated(0) == poly(1)
    assert chebyshev_dilated(1) == X
    assert chebyshev_dilated(2) == X**2 - 1
    assert chebyshev_dilated(3) == X**3 - 2 * X


def test_chebyshev_classical_first_values():
    assert chebyshev_classical(0) == poly(1)
    assert chebyshev_classical(1) == 2 * X
    assert chebyshev_classical(2) == 4 * X**2 - 1
    assert chebyshev_classical(3) == 8 * X**3 - 4 * X


def test_dilation_links_the_two_chebyshev_families():
    # U_n(2x) = 𝒰_n(x), checked coefficientwise via substitution X -> 2X
    for n in range(12):
        dilated = chebyshev_dilated(n)
        substituted = sum(
            (c * (2 * X) ** k for k, c in enumerate(dilated.coeffs)),
            poly(0),
        )
        assert substituted == chebyshev_classical(n)


def test_chebyshev_value_at_argument_one():
    # 𝒰_n(1) = n + 1, a standard closed form
    for n in range(20):
        assert chebyshev_classical(n).evaluate(1) == n + 1


def test_chebyshev_dilated_at_two():
    for n in range(15):
        assert chebyshev_dilated(n).evaluate(2) == n + 1


# ---------------------------------------------------------------------------
# the relation between Beraha and Chebyshev


def test_beraha_chebyshev_relation_is_exact():
    report = check_beraha_chebyshev_relation(30)
    assert report["status"] == "ok"
    assert report["failures"] == []
    assert report["checked"] == 30


def test_the_closed_form_bases_are_the_chebyshev_values_at_the_square():
    # U_i(x) = x^{i mod 2}·c_{i+1}(x²), with c_k the reversed Beraha values:
    # the pair formula reads Tutte's bases at N²; and c_1..c_4 by hand
    for x in (-3, 0, 1, 2, 5, 2**61 - 1, 10**20):
        bases = beraha_bases(51, x * x)
        assert len(bases) == 51
        for i in range(51):
            assert chebyshev_dilated(i).evaluate(x) == x ** (i % 2) * bases[i], (x, i)
    assert beraha_bases(4, 7) == [1, 1, 6, 5]
    assert beraha_bases(0, 7) == []


def _halved(i: int) -> IntPolynomial:
    """V_i, where U_i(x) = x^{i mod 2}·V_i(x²): U_i's coefficients at the
    powers of i's parity, read off `chebyshev_dilated`."""
    return IntPolynomial(chebyshev_dilated(i).coeffs[i % 2 :: 2])


def test_the_reversed_beraha_polynomials_are_the_halved_chebyshev_family():
    # c_k = X^{deg β_k}·β_k(1/X), with deg β_k = ⌊(k−1)/2⌋, is V_{k−1} as a
    # polynomial for k ≤ 50; and the values of `beraha_bases`, of degree at
    # most 24 in x, are V_{k−1}(x) at 26 points, so they are that polynomial
    for i in range(50):
        assert _halved(i).evaluate(X * X).shift(i % 2) == chebyshev_dilated(i), i
    for k in range(1, 51):
        assert beraha(k).degree == (k - 1) // 2
        assert IntPolynomial(beraha(k).coeffs[::-1]) == _halved(k - 1), k
    for x in range(26):
        assert beraha_bases(50, x) == [_halved(k - 1).evaluate(x) for k in range(1, 51)], x


def test_beraha_positive_at_quarter():
    report = beraha_nonzero_at(4, 50)
    assert report["status"] == "ok"
    assert report["zeros"] == []
    assert report["guaranteed"] is True


def test_beraha_zero_detected_for_small_parameter():
    report = beraha_nonzero_at(3, 10)
    assert report["guaranteed"] is False
    assert 6 in report["zeros"]


def test_beraha_values_are_written_past_the_digit_limit():
    # β_60(1/N) at N = 10^150 is c_60(N)/N^29 with a 4350-digit reduced
    # denominator, which str() refuses under the default 4300-digit limit;
    # each text must still be the numerator, "/" and the denominator of the
    # exact value
    N = 10**150
    values = beraha_nonzero_at(N, 60)["values"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for n, text in enumerate(values, 1):
            exact = beraha(n).evaluate(Fraction(1, N))
            num, slash, den = text.partition("/")
            assert Fraction(int(num), int(den) if slash else 1) == exact, n
            assert text == str(exact), n
        assert len(values) == 60 and len(values[-1].partition("/")[2]) == 4350
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# the exact finish of every determinant

signed_powers = st.lists(
    st.tuples(
        st.integers(min_value=-40, max_value=40).filter(bool)
        | st.sampled_from((2**61 - 1, -(3**40), 6**25)),
        st.integers(min_value=-3, max_value=3),
    ),
    max_size=12,
)


@given(signed_powers)
def test_the_finish_is_the_fraction_product_or_refuses(powers):
    # the balanced products of the positive and the negative powers,
    # divided once: the product over ℚ where it is an integer, and a
    # refusal naming the scale where it is not
    want = Fraction(1)
    for base, e in powers:
        want *= Fraction(base) ** e
    if want.denominator == 1:
        assert power_product(powers) == want
        assert power_product(iter(powers)) == want
    else:
        with pytest.raises(ArithmeticError, match="scale"):
            power_product(powers)


def test_the_finish_pairs_factors_of_any_count():
    # 0 to 9 factors of each sign: an odd count at some level of each tree
    for count in range(10):
        factors = [(k + 2, 1) for k in range(count)]
        assert power_product(factors) == factorial(count + 1)
        assert power_product(factors + [(k + 2, -1) for k in range(count)]) == 1
    assert power_product([(-1, 1)] * 3 + [(7, 2), (7, -1)]) == -7
    assert power_product([(5, 0), (0, 0)]) == 1


# bases ±odd·2^k, each drawn with an exponent up to ±2^12 and again with one
# that nearly cancels it, so that equal odd parts meet across the scale
odd_times_power_of_two = st.builds(
    lambda sign, odd, k: sign * (2 * odd + 1) << k,
    st.sampled_from((1, -1)),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=12),
)
nearly_cancelling_powers = st.lists(
    st.tuples(
        odd_times_power_of_two,
        st.integers(min_value=-(2**12), max_value=2**12),
        st.integers(min_value=-3, max_value=3),
    ),
    max_size=6,
).map(lambda drawn: [power for b, e, d in drawn for power in ((b, e), (b, d - e))])


raw_powers = st.lists(
    st.tuples(odd_times_power_of_two, st.integers(min_value=-(2**12), max_value=2**12)),
    max_size=3,
)


@given(nearly_cancelling_powers, raw_powers)
def test_the_chain_is_the_fraction_product_or_refuses(cancelling, raw):
    # the shift of the twos, the merge of equal odd parts and the
    # square-and-multiply chain give the product over ℚ where it is an
    # integer, and refuse where it is not
    powers = cancelling + raw
    want = Fraction(1)
    for base, e in powers:
        want *= Fraction(base) ** e
    if want.denominator == 1:
        assert power_product(powers) == want
    else:
        with pytest.raises(ArithmeticError, match="scale"):
            power_product(powers)


def test_a_zero_base_is_refused_below_and_gives_zero_above():
    # a zero base to a negative power divides by zero whatever else the
    # list holds; otherwise one to a positive power gives 0, and one to
    # the power 0 is ignored
    for powers in ([(0, 1), (0, -1)], [(0, -1), (0, 2)], [(0, -1)], [(3, 2), (0, -3), (2, 1)]):
        with pytest.raises(ZeroDivisionError):
            power_product(powers)
    assert power_product([(0, 2), (3, -1)]) == 0
    assert power_product([(0, 1), (5, 3)]) == 0
    assert power_product([(0, 0), (7, 1)]) == 7
    assert power_product([(-4, 3), (2, -6)]) == -1
    with pytest.raises(ArithmeticError, match="scale"):
        power_product([(2, 1), (3, -1)])


@pytest.mark.parametrize(
    "powers, want",
    [
        ([(3**100, 10**4), (3**100, 1 - 10**4)], 3**100),
        ([(2**64, 10**5), (2, 5 - 64 * 10**5)], 32),
    ],
    ids=["equal bases", "powers of two"],
)
def test_equal_bases_and_twos_cancel_before_any_power_is_formed(powers, want):
    # forming each power on its own peaked at 1133 KiB and 3749 KiB here
    tracemalloc.start()
    try:
        value = power_product(powers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == want
    assert peak < 64 * 2**10
