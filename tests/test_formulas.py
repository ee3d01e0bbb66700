"""Closed-form pair-partition determinant formulas."""

from __future__ import annotations

import pytest

from ncgram.formulas import (
    difrancesco_check,
    difrancesco_det,
    difrancesco_exponents,
)
from ncgram.gram import build_gram, determinant
from ncgram.partitions import PartitionClass

NC2 = PartitionClass.NONCROSSING_PAIRS


def test_exponent_table_small():
    assert difrancesco_exponents(1).entries == {1: 1}
    assert difrancesco_exponents(2).entries == {1: 2, 2: 1}
    # row sums telescope: sum_i a_{n,i} counts nothing negative here
    for n in range(1, 8):
        assert all(a >= 0 for a in difrancesco_exponents(n).entries.values())


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


def test_formula_nonzero_for_parameter_at_least_two():
    for n in range(1, 6):
        for N in (2, 3, 4):
            assert difrancesco_det(n, N) != 0


def test_input_validation():
    with pytest.raises(ValueError):
        difrancesco_det(0, 4)
    with pytest.raises(ValueError):
        difrancesco_det(2, 1)
