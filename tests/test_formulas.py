"""Closed-form pair-partition determinant formulas."""

from __future__ import annotations

import decimal
import time

import pytest

from ncgram import formulas
from ncgram.errors import BudgetError
from ncgram.formulas import (
    difrancesco_check,
    difrancesco_det,
    difrancesco_exponents,
)
from ncgram.gram import build_gram, determinant
from ncgram.partitions import Partition, PartitionClass, enumerate_partitions
from ncgram.polynomials import chebyshev_dilated, power_product

NC = PartitionClass.NONCROSSING
NC2 = PartitionClass.NONCROSSING_PAIRS


def difrancesco_parts(n: int, N: int) -> tuple[int, int]:
    """The product formula as the integers num and den: each
    U_i(N)^|a_{n,i}| raised on its own and multiplied into num, or into
    den where a_{n,i} < 0, one after another. The oracle for the balanced
    power product of `difrancesco_det`, which equals num/den."""
    num = den = 1
    for i, a in difrancesco_exponents(n).items():
        u = chebyshev_dilated(i).evaluate(N)
        if a > 0:
            num *= u**a
        elif a < 0:
            den *= u**-a
    return num, den


def test_exponent_table_small():
    assert difrancesco_exponents(1) == {1: 1}
    assert difrancesco_exponents(2) == {1: 2, 2: 1}
    # no exponent is negative below 8 pairs; from there on some are
    for n in range(1, 8):
        assert all(a >= 0 for a in difrancesco_exponents(n).values())


def test_negative_exponents_occur():
    assert difrancesco_exponents(8)[1] == -208
    assert difrancesco_exponents(18)[2] == -31_635_810
    assert all(difrancesco_exponents(n)[2] < 0 for n in range(18, 41))


def test_product_formula_matches_the_fraction_product():
    # value·den == num is value == num/den, as U_i(N) ≠ 0 for N ≥ 2; the
    # formula reads its bases at N², so odd and large N meet big integers
    cases = [(n, N) for n in range(1, 13) for N in (2, 3, 4, 5)]
    cases += [(n, N) for n in range(1, 7) for N in (7, 2**61 - 1, 10**20)]
    for n, N in cases:
        value = difrancesco_det(n, N)
        assert type(value) is int
        num, den = difrancesco_parts(n, N)
        assert value * den == num, (n, N)


def fat(p: Partition) -> Partition:
    """The pairing of 2n points that fattens p ∈ NC(n): point i becomes
    2i − 1 and 2i, and each block b_1 < … < b_k of p becomes the pairs
    {2b_j, 2b_{j+1} − 1}, cyclically."""
    pairs = [
        (2 * block[j], 2 * block[(j + 1) % len(block)] - 1)
        for block in p.lower_blocks()
        for j in range(len(block))
    ]
    return Partition.from_lower_blocks(2 * p.points, pairs)


def test_fattening_maps_the_loop_counts_of_nc_onto_nc2():
    # fat is a bijection NC(n) → NC2(2n) that does not keep enumeration
    # order, and loops(fat p, fat q) = 2·rl(q*, p) − b(p) − b(q) + n (Chen
    # and Przytycki, Commun. Contemp. Math. 2008); read off both symbolic
    # Gram matrices, with no closed form
    for n in range(1, 7):
        labels = enumerate_partitions(n, NC)
        where = {q: k for k, q in enumerate(enumerate_partitions(2 * n, NC2))}
        index = [where[fat(p)] for p in labels]
        assert sorted(index) == list(range(len(where))), n
        loops, fat_loops = build_gram(n, NC).entries, build_gram(2 * n, NC2).entries
        blocks = [p.block_count for p in labels]
        for a, (p_blocks, row) in enumerate(zip(blocks, loops)):
            for b, q_blocks in enumerate(blocks):
                want = 2 * row[b] - p_blocks - q_blocks + n
                assert fat_loops[index[a]][index[b]] == want, (n, a, b)


def test_the_pair_determinant_is_the_nc_determinant_at_the_square():
    # det G_NC2(2n)(N)·N^{C_n} = det G_NC(n)(N²), both by elimination: the
    # identity the pair formula's reading at N² rests on
    for n in range(1, 6):
        catalan = len(enumerate_partitions(n, NC))
        for N in (2, 3, 4, 5):
            pairs = determinant(build_gram(2 * n, NC2, N))
            assert pairs * N**catalan == determinant(build_gram(n, NC, N * N)), (n, N)


def test_power_product_divides_once_and_exactly():
    for N in (2, 4, 7):
        assert power_product([(N * N - 1, 1), (N - 1, -1)]) == N + 1
    assert power_product([]) == 1
    with pytest.raises(ArithmeticError):
        power_product([(2, 1), (3, -1)])


def test_product_formula_base_case():
    for N in (2, 3, 4, 7):
        assert difrancesco_det(1, N) == N


def test_product_formula_two_pairs_by_hand():
    # 2x2 pair matrix [[N², N], [N, N²]]: det = N²(N²−1) = U_1² · U_2
    for N in (2, 4, 5):
        assert difrancesco_det(2, N) == N**2 * (N**2 - 1)
        assert determinant(build_gram(4, NC2, N)) == N**2 * (N**2 - 1)


def test_formula_matches_direct_determinants():
    for n in range(1, 5):
        for N in (4, 5):
            report = difrancesco_check(n, N)
            assert report["match"] is True
            assert report["direct"] == report["formula"]


def test_check_reports_values_past_the_str_digit_limit(monkeypatch):
    # det NC2(16) at N = 4 has 6655 digits, past str()'s 4300; the direct
    # value is stood in for by the formula, so nothing is eliminated
    value = difrancesco_det(8, 4)
    monkeypatch.setattr(formulas, "build_gram", lambda *args: None)
    monkeypatch.setattr(formulas, "determinant", lambda matrix: value)
    report = difrancesco_check(8, 4)
    assert report["match"] is True
    assert report["direct"] == report["formula"] == str(decimal.Decimal(value))
    assert len(report["formula"]) == 6655


def test_formula_nonzero_for_parameter_at_least_two():
    for n in range(1, 6):
        for N in (2, 3, 4):
            assert difrancesco_det(n, N) != 0


def test_input_validation():
    with pytest.raises(ValueError):
        difrancesco_det(0, 4)
    with pytest.raises(ValueError):
        difrancesco_det(2, 1)


@pytest.mark.parametrize("n", [True, False, 2.0, 4.0, 0.5])
def test_a_pair_count_that_is_not_an_int_is_refused_before_any_work(n, monkeypatch):
    # difrancesco_det(True, 4) returned 4 and difrancesco_check(True, 4)
    # reported a match; difrancesco_det(2.0, 4) stopped in a `range`, and
    # difrancesco_check(2.0, 4) was refused for the point count 4.0
    def no_work(*args):
        raise AssertionError("work began before the pair count was checked")

    monkeypatch.setattr(formulas, "build_gram", no_work)
    monkeypatch.setattr(formulas, "beraha_bases", no_work)
    monkeypatch.setattr(formulas, "comb", no_work)
    refused = [
        lambda: difrancesco_exponents(n),
        lambda: difrancesco_det(n, 4),
        lambda: difrancesco_det(n, 1),  # before N's check too
        lambda: difrancesco_check(n, 4),
    ]
    for call in refused:
        with pytest.raises(TypeError) as caught:
            call()
        assert str(caught.value) == f"pair count must be an int, not {n!r}"


def test_the_pair_formula_is_refused_before_any_power_is_formed():
    # its bits, Σ a·log₂base over N^{C_n′} and each c_{i+1}(N²)^{a_{n′,i}},
    # which is Σ a_{n′,i}·log₂U_i(N), at n′ = 1, 2, … pairs: (12, 5) has
    # 5.7M and is admitted, (13, 4) 18.6M, past SYMBOLIC_BIT_BUDGET, and
    # (20, 4) about 2.5·10^11, which the powers would have taken to form
    assert difrancesco_det(12, 5).bit_length() == 5_677_002
    for n, over in ((13, ""), (20, "over "), (10**6, "over ")):
        started = time.perf_counter()
        with pytest.raises(BudgetError, match=f"pair formula's value {over}18560396"):
            difrancesco_det(n, 4)
        assert time.perf_counter() - started < 1
