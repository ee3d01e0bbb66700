"""Gram matrices of partition vectors: construction, determinant, rank."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ncgram.gram
from ncgram import kernels
from ncgram.errors import BudgetError, ShapeError
from ncgram.gram import (
    DET_DIMENSION_BUDGET,
    ExactMatrix,
    _powers,
    build_gram,
    determinant,
    rank,
)
from ncgram.kernels import det_exact, rank_exact
from ncgram.partitions import (
    Partition,
    PartitionClass,
    compose,
    count_partitions,
    enumerate_partitions,
    involution,
    iter_partitions,
    mirror,
)
from ncgram.polynomials import IntPolynomial, _decimal_text
from ncgram.tensor_model import inner_product, vector_of
from ncgram.tutte import build_A, build_B, recursion_det
from test_kernels import det_bareiss, rank_by_fractions

NC = PartitionClass.NONCROSSING
ALL = PartitionClass.ALL
X = IntPolynomial.x()


def entry_by_labels(m: ExactMatrix, p: Partition, q: Partition):
    return m.entry(m.row_labels.index(p), m.col_labels.index(q))


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_partitions(4, "nc2"),
        lambda: enumerate_partitions(5, "all"),
        lambda: iter_partitions(3, None),
        lambda: count_partitions(5, "all"),
        lambda: build_gram(4, "all"),
        lambda: build_gram(4, "all", 4),
    ],
    ids=["nc2", "all", "none", "count", "symbolic-gram", "gram"],
)
def test_a_class_given_as_anything_but_a_member_is_refused(call):
    # a string once fell through to another class: "nc2" listed NC(4),
    # "all" listed 42 partitions of 5 points against a count of 52, and
    # build_gram(4, "all") built the 14 NC rows
    with pytest.raises(TypeError, match="^partition class must be a PartitionClass, not "):
        call()


def test_two_point_matrix_by_hand():
    m = build_gram(2, NC, 4)
    pair = Partition.pair()
    sing = Partition.singletons(2)
    assert entry_by_labels(m, sing, sing) == 16
    assert entry_by_labels(m, pair, pair) == 4
    assert entry_by_labels(m, sing, pair) == 4
    assert entry_by_labels(m, pair, sing) == 4


def test_one_point_matrix():
    m = build_gram(1, NC, 7)
    assert m.entries == ((7,),)


def test_diagonal_counts_blocks():
    for n in range(1, 5):
        m = build_gram(n, ALL, 3)
        for i, p in enumerate(m.row_labels):
            assert m.entry(i, i) == 3**p.block_count


def test_symmetry():
    for n in range(1, 7):
        m = build_gram(n, NC, 5)
        for i in range(m.nrows):
            for j in range(i):
                assert m.entry(i, j) == m.entry(j, i)


def test_row_order_follows_enumeration():
    m = build_gram(3, NC, 2)
    assert list(m.row_labels) == enumerate_partitions(3, NC)
    assert m.row_labels == m.col_labels


def test_entries_match_dense_inner_products():
    for n in range(1, 5):
        for N in (2, 3, 4):
            m = build_gram(n, NC, N)
            vectors = [vector_of(p, N) for p in m.row_labels]
            for i, u in enumerate(vectors):
                for j, v in enumerate(vectors):
                    assert m.entry(i, j) == inner_product(u, v)


# ---------------------------------------------------------------------------
# determinant


def test_determinant_two_points():
    assert determinant(build_gram(2, NC, 4)) == 48
    assert determinant(build_gram(2, NC, None)) == X**3 - X**2


def test_eight_point_determinant_matches_the_recursion():
    # 1430 rows, the largest class under the elimination budget: the direct
    # route and Tutte's recursion agree one size past the symbolic tests
    assert determinant(build_gram(8, NC, 4)) == recursion_det(8, 4)


def test_determinant_identity_matrix():
    labels = tuple(enumerate_partitions(2, NC))
    eye = ExactMatrix(((1, 0), (0, 1)), labels, labels)
    assert determinant(eye) == 1


def test_symbolic_determinant_evaluates_to_integer_determinant():
    for n in range(1, 5):
        poly_det = determinant(build_gram(n, NC, None))
        for v in (2, 3, 4, 5):
            assert poly_det.evaluate(v) == determinant(build_gram(n, NC, v))


def symbolic_grams(max_points):
    """Every nonempty symbolic Gram matrix on at most max_points points."""
    for cls in PartitionClass:
        for n in range(1, max_points + 1):
            m = build_gram(n, cls, None)
            if m.nrows:
                yield m


def monomials(m: ExactMatrix) -> list[list[IntPolynomial]]:
    """A symbolic matrix over ℤ[X]: entry (i, j) is X to the exponent held there."""
    return [[X**e for e in row] for row in m.entries]


# ---------------------------------------------------------------------------
# symbolic determinants, and the interpolation oracle: the route the package
# used before one integer determinant at X = 2^B replaced it


def _interpolate_integer_poly(xs: list[int], ys: list[int]) -> IntPolynomial:
    """Newton divided-difference interpolation, checked to land in ℤ[X].

    At integer nodes every divided difference of a polynomial over ℤ is an
    integer (those of X^m are complete homogeneous symmetric polynomials
    in the nodes), so the table is built by exact integer division. An
    inexact division means the interpolant is not in ℤ[X]; when none
    occurs, the integer Newton form expands to a polynomial over ℤ.
    """
    count = len(xs)
    coef = list(ys)
    for j in range(1, count):
        for i in range(count - 1, j - 1, -1):
            coef[i], inexact = divmod(coef[i] - coef[i - 1], xs[i] - xs[i - j])
            if inexact:
                raise ArithmeticError("interpolation left ℤ[X]")
    poly = [coef[-1]]
    for k in range(count - 2, -1, -1):
        new = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] += c
            new[i] -= c * xs[k]
        new[0] += coef[k]
        poly = new
    return IntPolynomial(poly)


def det_by_unshifted_interpolation(m: ExactMatrix) -> IntPolynomial:
    """The matrix itself at the nodes 1, ..., D + 1, D = Σ_i max_j e_ij,
    interpolated."""
    bound = sum(max(row, default=0) for row in m.entries)
    xs = list(range(1, bound + 2))
    return _interpolate_integer_poly(xs, [determinant(m.evaluate(t)) for t in xs])


def det_by_interpolation(m: ExactMatrix) -> IntPolynomial:
    """X^(m·e_min) factored out, as the package does, and the rest
    interpolated: m fewer nodes for a Gram matrix than unshifted."""
    low = min((min(row, default=0) for row in m.entries), default=0)
    rest = tuple(tuple(e - low for e in row) for row in m.entries)
    shifted = ExactMatrix(rest, m.row_labels, m.col_labels, is_symbolic=True)
    return det_by_unshifted_interpolation(shifted).shift(m.nrows * low)


@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=8),
    st.lists(st.integers(min_value=-20, max_value=20), min_size=8, max_size=12, unique=True),
)
def test_interpolation_recovers_integer_polynomials(coeffs, xs):
    # any distinct integer nodes, in any order, at least degree + 1 of them
    p = IntPolynomial(coeffs)
    assert _interpolate_integer_poly(xs, [p.evaluate(x) for x in xs]) == p


def test_interpolation_outside_integer_polynomials_raises():
    # the interpolant of (1, 0), (2, 0), (3, 1) is (x - 1)(x - 2)/2
    with pytest.raises(ArithmeticError, match="ℤ"):
        _interpolate_integer_poly([1, 2, 3], [0, 0, 1])


def test_interpolation_route_matches_direct_polynomial_route():
    # the reference Bareiss kernel still runs over ℤ[X]: a second oracle,
    # beside interpolation, for the one substituted integer determinant
    for m in symbolic_grams(4):
        assert determinant(m) == det_by_interpolation(m) == det_bareiss(monomials(m))


def test_every_symbolic_gram_matrix_matches_the_interpolation_oracle():
    # coefficient for coefficient, every class through 6 points and the
    # pair class through 12 (132 rows)
    pairs = (build_gram(n, PartitionClass.NONCROSSING_PAIRS, None) for n in (8, 10, 12))
    for m in (*symbolic_grams(6), *pairs):
        assert determinant(m).coeffs == det_by_interpolation(m).coeffs


@st.composite
def symbolic_matrices(draw):
    """A symbolic matrix of size 1..7 with exponents 0..12; a drawn row is
    copied over another to make some of them singular. (The empty matrix,
    whose Bareiss determinant is the integer 1, is an empty pair class.)"""
    size = draw(st.integers(1, 7))
    row = st.lists(st.integers(0, 12), min_size=size, max_size=size)
    rows = draw(st.lists(row, min_size=size, max_size=size))
    if size > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, size - 1))] = rows[0]
    p = Partition.pair()
    return ExactMatrix(tuple(map(tuple, rows)), (p,) * size, (p,) * size, is_symbolic=True)


@given(symbolic_matrices())
def test_substitution_matches_both_oracles_on_random_matrices(m):
    assert determinant(m) == det_by_interpolation(m) == det_bareiss(monomials(m))


@pytest.mark.parametrize("size", range(1, 9))
def test_substitution_on_the_dft_exponents(size):
    # e_ij = i·j mod m: at m = 8 a coefficient of 1120 comes within two
    # bits of the digit bound 2^(B−1) = 2^13
    p = Partition.pair()
    rows = tuple(tuple(i * j % size for j in range(size)) for i in range(size))
    m = ExactMatrix(rows, (p,) * size, (p,) * size, is_symbolic=True)
    d = determinant(m)
    assert d == det_by_interpolation(m) == det_bareiss(monomials(m))
    if size == 8:
        assert max(map(abs, d.coeffs)) == 1120


def test_symbolic_determinant_eliminates_once(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return det_exact(rows)

    monkeypatch.setattr(kernels, "det_exact", counted)
    determinant(build_gram(5, NC, None))
    assert calls == [42]


def test_a_wrong_integer_determinant_raises(monkeypatch):
    # far more base-2^B digits than the Leibniz bound allows
    monkeypatch.setattr(kernels, "det_exact", lambda rows: 1 << 10_000)
    with pytest.raises(ArithmeticError, match="degree bound"):
        determinant(build_gram(3, NC, None))


def test_the_digit_split_round_trips_at_a_large_base(monkeypatch):
    # 400 rows give B = 1731 and exponents 1 + [i = j] give D = 400: any
    # D + 1 coefficients in [−2^(B−1), 2^(B−1)), both ends included, come
    # back from the integer determinant at X = 2^B, and a value with a
    # digit past D, either sign, raises
    size = 400
    B = (size**size).bit_length() // 2 + 2
    assert B == 1731
    labels = tuple(enumerate_partitions(7, ALL))[:size]
    m = ExactMatrix(
        tuple(tuple(1 + (i == j) for j in range(size)) for i in range(size)),
        labels,
        labels,
        is_symbolic=True,
    )
    rng = random.Random(20)
    half = 1 << (B - 1)
    coeffs = [-half, half - 1, 0, -1, 1] + [rng.randrange(-half, half) for _ in range(size - 4)]
    value = sum(c << (B * i) for i, c in enumerate(coeffs))
    monkeypatch.setattr(kernels, "det_exact", lambda rows: value)
    assert determinant(m) == IntPolynomial(coeffs).shift(size)
    for extra in (1 << (B * (size + 1)), -(1 << (B * (size + 1)))):
        monkeypatch.setattr(kernels, "det_exact", lambda rows: value + extra)
        with pytest.raises(ArithmeticError, match="degree bound"):
            determinant(m)


def test_symbolic_bit_budget_refuses_before_the_elimination(monkeypatch):
    def no_elimination(rows):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(kernels, "det_exact", no_elimination)
    # NC(4): 14 rows, B = 29, D = 21, so 638 bits
    monkeypatch.setattr(ncgram.gram, "SYMBOLIC_BIT_BUDGET", 637)
    with pytest.raises(BudgetError, match="bits 638 exceeds"):
        determinant(build_gram(4, NC, None))


@pytest.mark.parametrize("cls, top", [(NC, 10), (PartitionClass.NONCROSSING_PAIRS, 16), (ALL, 8)])
def test_block_totals_match_the_enumerated_classes(cls, top):
    # the class size and Σ_p b(p) in one closed-form pass; the Hadamard bit
    # bound of a numeric determinant multiplies the second by log₂N
    for points in range(top + 1):
        listed = enumerate_partitions(points, cls)
        blocks = sum(p.block_count for p in listed)
        assert ncgram.partitions._class_sizes(points, cls) == (len(listed), blocks)


def test_numeric_bit_budget_refuses_from_the_hadamard_bound():
    # NC(8): 6435 blocks in all, so N^6435 bounds |det|; ALL(7): 3263;
    # NC2(16): 11440. A bound just past the budget refuses, one just
    # inside it passes.
    budget = ncgram.gram.RECURSION_BIT_BUDGET
    cases = ((8, NC, 6435), (7, ALL, 3263), (16, PartitionClass.NONCROSSING_PAIRS, 11440))
    for points, cls, blocks in cases:
        inside = 1 << (budget // blocks)
        ncgram.gram._check_det_bits(points, cls, inside)
        what = f"bits of the {cls.value} determinant on {points} points"
        with pytest.raises(BudgetError, match=what):
            build_gram(points, cls, inside << 1)


def test_the_entry_read_counts_the_hadamard_row_bound(monkeypatch):
    # rows (−8, 1) and (0, 3): 4 + 2 bits by their largest entries, and
    # ⌈2·log₂2/2⌉ = 1 bit, taken as half the bit length of 2^2 rounded up: 2
    labels = tuple(enumerate_partitions(2, NC))
    m = ExactMatrix(((-8, 1), (0, 3)), labels, labels)
    monkeypatch.setattr(ncgram.gram, "RECURSION_BIT_BUDGET", 8)
    assert determinant(m) == -24 and rank(m) == 2
    monkeypatch.setattr(ncgram.gram, "RECURSION_BIT_BUDGET", 7)
    for eliminate in (determinant, rank):
        with pytest.raises(BudgetError, match="Hadamard bound: 8 exceeds budget 7"):
            eliminate(m)


def entry_bits_by_every_entry(m: ExactMatrix) -> int:
    """Hadamard's row bound in bits as `_check_entry_bits` once read it, off
    the absolute value of every entry of each row."""
    bits = sum(max(map(abs, row), default=0).bit_length() for row in m.entries)
    return bits + ((m.ncols**m.nrows).bit_length() + 1) // 2


@st.composite
def entry_matrices(draw, max_size=6):
    """Integer matrices of small and seventy-bit entries of either sign, with
    zero rows, rows of repeated values and rows whose entries all differ."""
    nrows = draw(st.integers(min_value=1, max_value=max_size))
    ncols = draw(st.integers(min_value=1, max_value=max_size))
    value = st.one_of(st.integers(min_value=-3, max_value=3), st.integers(min_value=-(2**70), max_value=2**70))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("zero", "distinct", "any")))
        if kind == "zero":
            rows.append((0,) * ncols)
        else:
            rows.append(tuple(draw(st.lists(value, min_size=ncols, max_size=ncols, unique=kind == "distinct"))))
    labels = tuple(map(Partition.singletons, range(max_size)))
    return ExactMatrix(tuple(rows), labels[:nrows], labels[:ncols])


@given(entry_matrices())
@example(ExactMatrix(((-8, 1), (0, 3)), *[tuple(enumerate_partitions(2, NC))] * 2))
def test_the_bit_check_refuses_exactly_where_every_entry_read_refused(m):
    # the bound read off each row's distinct values is the same integer:
    # admitted at a budget of that many bits, refused one bit below
    bits = entry_bits_by_every_entry(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ncgram.gram, "RECURSION_BIT_BUDGET", bits)
        ncgram.gram._check_entry_bits(m)
        patch.setattr(ncgram.gram, "RECURSION_BIT_BUDGET", bits - 1)
        with pytest.raises(BudgetError, match=f"Hadamard bound: {bits} exceeds budget {bits - 1}$"):
            ncgram.gram._check_entry_bits(m)


def test_the_budget_examples_keep_their_outcomes(monkeypatch):
    # the README's two entry-bound examples: A(7, 0) at 10^1000 refused, by
    # the same message, and B(7, 1) at 10^1000 admitted to the kernel
    monkeypatch.setattr(kernels, "det_exact", lambda rows: "eliminated")
    monkeypatch.setattr(kernels, "rank_exact", lambda rows: "eliminated")
    big = build_A(7, 0, 10**1000)
    bits, budget = entry_bits_by_every_entry(big), ncgram.gram.RECURSION_BIT_BUDGET
    with pytest.raises(BudgetError) as caught:
        determinant(big)
    assert str(caught.value) == f"bits of the matrix by its Hadamard bound: {bits} exceeds budget {budget}"
    admitted = build_B(7, 1, 10**1000)
    assert entry_bits_by_every_entry(admitted) <= budget
    assert rank(admitted) == "eliminated"


def test_every_door_to_the_kernel_checks_the_bits(monkeypatch):
    # build_gram refuses from the closed form; a level matrix or an
    # evaluated symbolic matrix at a huge N is refused from its entries,
    # before the elimination. B(7, 1) has 132 rows and a bound of 1.5M bits
    # at 10^1000, inside the budget, so it is taken at 10^3000 (4.6M bits).
    def no_elimination(rows):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(kernels, "det_exact", no_elimination)
    monkeypatch.setattr(kernels, "rank_exact", no_elimination)
    jobs = (
        lambda: determinant(build_A(7, 0, 10**1000)),
        lambda: rank(build_B(7, 1, 10**3000)),
        lambda: determinant(build_gram(7).evaluate(10**1000)),
    )
    for job in jobs:
        start = perf_counter()
        with pytest.raises(BudgetError, match="Hadamard bound"):
            job()
        assert perf_counter() - start < 1


def test_symbolic_matrix_rejects_negative_exponents():
    labels = tuple(enumerate_partitions(2, NC))
    with pytest.raises(ValueError, match="negative"):
        ExactMatrix(((-1, 0), (0, 1)), labels, labels, is_symbolic=True)
    # an integer matrix may hold any integer
    assert determinant(ExactMatrix(((-1, 0), (0, 1)), labels, labels)) == -1


def test_symbolic_determinant_is_monic_of_degree_total_blocks():
    # the diagonal product N^{Σ b(p)} is the one Leibniz term of top degree
    for m in symbolic_grams(5):
        d = determinant(m)
        assert d.degree == sum(p.block_count for p in m.row_labels)
        assert d.coeffs[-1] == 1


def test_symbolic_determinant_holds_off_the_interpolation_nodes():
    # the interpolation oracle's nodes are 1, ..., D + 1 for D at most the
    # Leibniz bound `top`; negative N and top + 2 lie outside them
    for m in symbolic_grams(4):
        d = determinant(m)
        top = sum(max(row) for row in m.entries)
        for N in (-2, -1, top + 2):
            assert d.evaluate(N) == determinant(m.evaluate(N))


def test_symbolic_five_point_determinant_matches_the_recursion():
    d = determinant(build_gram(5, NC, None))
    for N in (4, 5):
        assert d.evaluate(N) == recursion_det(5, N)


def test_shifted_interpolation_matches_the_unshifted_one():
    # coefficient for coefficient; every Gram exponent is at least 1, so
    # the shift removes one node per row from the oracle
    for m in symbolic_grams(5):
        assert min(min(row) for row in m.entries) == 1
        assert determinant(m).coeffs == det_by_unshifted_interpolation(m).coeffs
    empty = build_gram(3, PartitionClass.NONCROSSING_PAIRS, None)
    assert determinant(empty) == det_by_unshifted_interpolation(empty) == IntPolynomial([1])


def test_shift_keeps_a_matrix_with_exponent_zero_and_a_singular_one():
    labels = tuple(enumerate_partitions(2, NC))
    for entries in (((0, 2), (1, 3)), ((2, 2), (2, 2)), ((1, 3), (2, 1))):
        m = ExactMatrix(entries, labels, labels, is_symbolic=True)
        assert determinant(m) == det_by_unshifted_interpolation(m)
    assert determinant(ExactMatrix(((2, 2), (2, 2)), labels, labels, is_symbolic=True)).is_zero()
    # X^2·X^2 − X^4·X^3 = X^4 − X^7
    m = ExactMatrix(((2, 4), (3, 2)), labels, labels, is_symbolic=True)
    assert determinant(m) == IntPolynomial([0, 0, 0, 0, 1, 0, 0, -1])


def test_symbolic_six_point_determinant_matches_the_recursion():
    d = determinant(build_gram(6, NC, None))
    assert d.degree == sum(p.block_count for p in enumerate_partitions(6, NC))
    for N in (4, 5):
        assert d.evaluate(N) == recursion_det(6, N)


def test_leading_principal_minors_positive_for_large_parameter():
    for N in (4, 5):
        for n in range(1, 6):
            m = build_gram(n, NC, N)
            for k in range(1, m.nrows + 1):
                assert determinant(m.principal_submatrix(k)) > 0


def test_determinant_rejects_non_square():
    labels = tuple(enumerate_partitions(2, NC))
    with pytest.raises(ShapeError):
        determinant(ExactMatrix(((1, 2),), labels[:1], labels))


def test_build_refuses_over_budget_before_the_pair_loop(monkeypatch):
    def no_pair_loop(*args):
        raise AssertionError("the pair loop ran")

    # every pair is computed in the exponent table, by the join kernel
    monkeypatch.setattr(ncgram.gram, "_exponent_table", no_pair_loop)
    monkeypatch.setattr(ncgram.gram, "join_labels", no_pair_loop)
    assert len(enumerate_partitions(9, NC)) > DET_DIMENSION_BUDGET
    with pytest.raises(BudgetError):
        build_gram(9, NC, 4)
    with pytest.raises(BudgetError):
        build_gram(9, NC)


def test_determinant_budget():
    p = Partition.pair()
    size = DET_DIMENSION_BUDGET + 1
    row = (0,) * size
    big = ExactMatrix((row,) * size, (p,) * size, (p,) * size)
    with pytest.raises(BudgetError):
        determinant(big)


def _from_digits(text: str) -> int:
    """int(text) by halves, in time below quadratic: an oracle for values
    too long for str() or int() to convert in a test's time."""
    if len(text) <= 1000:
        return int(text)
    half = len(text) // 2
    return _from_digits(text[:half]) * 10 ** (len(text) - half) + _from_digits(text[half:])


def test_decimal_text_matches_str_at_any_length():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rng = random.Random(22)
        values = [0, 1, -1]
        values += [s * (10**k + d) for k in (1, 77, 78, 300, 5000) for s in (1, -1) for d in (-1, 1)]
        values += [s * rng.getrandbits(rng.randrange(1, 70_000)) for s in (1, -1) for _ in range(20)]
        for value in values:
            assert _decimal_text(value) == str(value)
        # a million digits, and the 473,251-digit det A(12, 0) at N = 4,
        # are checked by converting back, since str() takes seconds
        digits = str(rng.randrange(1, 10)) + "".join(rng.choices("0123456789", k=10**6 - 1))
        assert _decimal_text(-_from_digits(digits)) == "-" + digits
        value = recursion_det(12, 4)
        text = _decimal_text(value)
        assert len(text) == 473_251 and text[0] != "0" and int(text) == value
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    assert rank(build_gram(4, ALL, 2)) == 8
    labels = tuple(enumerate_partitions(2, NC))
    zero = ExactMatrix(((0, 0), (0, 0)), labels, labels)
    assert rank(zero) == 0


def test_full_rank_for_noncrossing_at_large_parameter():
    for n in range(1, 6):
        m = build_gram(n, NC, 4)
        assert rank(m) == m.nrows


def test_rank_requires_integer_mode():
    with pytest.raises(ShapeError):
        rank(build_gram(2, NC, None))


def stirling2(n: int, k: int) -> int:
    """S(n, k) by the recurrence S(n, k) = k·S(n−1, k) + S(n−1, k−1)."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_rank_below_the_threshold_is_the_stirling_sum():
    """For N ≤ 3 the NC vectors span what all partition vectors span, so the
    rank of G_NC(n)(N) is the number of partitions with at most N blocks.

    At N ≤ 3 the free quantum permutation group S_N^+ is the classical S_N
    (Wang, "Quantum symmetry groups of finite spaces", CMP 1998), so the
    noncrossing partitions span the same fixed-point spaces as all
    partitions with at most N blocks; checked through n = 7, and at N = 3
    through n = 8, where the rank is 1094 of 1430.
    """
    first_drop = {}
    for N in (1, 2, 3):
        for n in range(1, 8):
            m = build_gram(n, NC, N)
            r = rank(m)
            assert r == sum(stirling2(n, k) for k in range(1, N + 1))
            assert (determinant(m) == 0) == (r < m.nrows)
            if r < m.nrows:
                first_drop.setdefault(N, n)
    # the first drops are where U_2(1), U_3(√2) and U_5(√3) vanish
    assert first_drop == {1: 2, 2: 3, 3: 5}
    assert rank(build_gram(8, NC, 3)) == sum(stirling2(8, k) for k in range(1, 4)) == 1094


# ---------------------------------------------------------------------------
# the mirror split: an oracle that eliminates two blocks of half the size
#
# A loop count does not change when both partitions are relabelled alike,
# so a Gram matrix G on labels closed under the mirror σ (`mirror`, each
# row reversed) satisfies G[σi][σj] = G[i][j]. Let T₊ hold the
# orbit-indicator columns of σ (e_i for a fixed point, e_i + e_σi for a
# 2-orbit) and T₋ the columns e_i − e_σi, one per 2-orbit, k of them. T₊
# lies in the +1 and T₋ in the −1 eigenspace of the permutation P of σ,
# and PᵀGP = G, so uᵀGv = (Pu)ᵀG(Pv) = −uᵀGv for u in the one and v in
# the other: the cross blocks vanish and
#
#     Tᵀ·G·T = diag(M₊, 2·M₋),   M₊ = T₊ᵀ·G·T₊,   M₋[i][j] = G[i][j] − G[i][σj]
#
# over 2-orbit representatives i, j, since (e_i − e_σi)ᵀG(e_j − e_σj) =
# 2(G[i][j] − G[i][σj]) by invariance. T = [T₊ T₋] is square; up to the
# order of its rows and columns it is block diagonal, with a 1 for each
# fixed point and [[1, 1], [1, −1]], of determinant −2, for each 2-orbit,
# so det T = ±2^k. Hence
#
#     det G · 4^k = det M₊ · 2^k · det M₋,   so   det G = det M₊ · det M₋ / 2^k,
#
# and rank G = rank M₊ + rank M₋, as T is invertible over ℚ. σ is the
# identity, and then M₊ = G and M₋ is empty, unless the row and column
# labels are equal and distinct, their mirror images are labels again, and
# every entry is σ-invariant, which is checked entry by entry.


def label_mirror(m: ExactMatrix) -> tuple[int, ...]:
    """σ as a permutation of the indices: i ↦ the index of mirror(label i),
    or the identity where the split does not apply."""
    identity = tuple(range(m.nrows))
    labels = m.row_labels
    if labels != m.col_labels:
        return identity
    index = {p: i for i, p in enumerate(labels)}
    if len(index) < len(labels):
        return identity
    sigma = tuple(index.get(mirror(p), -1) for p in labels)
    if -1 in sigma:
        return identity
    rows = m.entries
    for row, s in zip(rows, sigma):
        image = rows[s]
        if [image[t] for t in sigma] != list(row):
            return identity
    return sigma


def mirror_blocks(rows, sigma: tuple[int, ...]):
    """(M₊, M₋); (rows, ()) when σ is the identity. The orbits of σ are
    listed by their smaller index, which represents a 2-orbit in M₋."""
    orbits = [(i, s) for i, s in enumerate(sigma) if i <= s]
    if len(orbits) == len(sigma):
        return rows, ()

    def orbit_sums(row) -> list:
        return [row[i] + row[s] if i < s else row[i] for i, s in orbits]

    plus = []
    for i, s in orbits:
        sums = orbit_sums(rows[i])
        if i < s:
            sums = [a + b for a, b in zip(sums, orbit_sums(rows[s]))]
        plus.append(sums)
    pairs = [(i, s) for i, s in orbits if i < s]
    minus = [[rows[i][j] - rows[i][t] for j, t in pairs] for i, _ in pairs]
    return plus, minus


def split_det(plus, minus) -> int:
    """det G = det M₊ · det M₋ / 2^k; the division is checked to be exact."""
    det, rest = divmod(det_exact(plus) * det_exact(minus), 2 ** len(minus))
    if rest:
        raise ArithmeticError("det M₊ · det M₋ is not a multiple of 2^k")
    return det


def split_rank(plus, minus) -> int:
    return rank_exact(plus) + rank_exact(minus)


def is_identity(sigma) -> bool:
    return list(sigma) == list(range(len(sigma)))


def test_gram_entries_are_mirror_invariant():
    for cls in PartitionClass:
        for n in range(1, 7):
            m = build_gram(n, cls, 3)
            index = {p: i for i, p in enumerate(m.row_labels)}
            sigma = [index[mirror(p)] for p in m.row_labels]
            for i in range(m.nrows):
                for j in range(m.nrows):
                    assert m.entry(sigma[i], sigma[j]) == m.entry(i, j)
            assert label_mirror(m) == tuple(sigma)


def test_split_matches_the_plain_kernel_on_every_class():
    for cls in PartitionClass:
        for n in range(1, 7):
            for N in range(1, 6):
                m = build_gram(n, cls, N)
                # up to two labels the mirror moves none; beyond, it moves some
                sigma = label_mirror(m)
                assert is_identity(sigma) == (m.nrows <= 2)
                blocks = mirror_blocks(m.entries, sigma)
                assert determinant(m) == split_det(*blocks)
                assert rank(m) == split_rank(*blocks)


@st.composite
def mirror_invariant_matrices(draw):
    """A symmetric integer matrix on NC(n) labels with G[σi][σj] = G[i][j]."""
    labels = tuple(enumerate_partitions(draw(st.integers(3, 5)), NC))
    sigma = [labels.index(mirror(p)) for p in labels]
    size = range(len(labels))
    if draw(st.booleans()):
        # Σ_u u·uᵀ + (u∘σ)(u∘σ)ᵀ over at most two u: singular
        vectors = draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=len(size), max_size=len(size)),
                max_size=2,
            )
        )
        rows = [
            [sum(u[i] * u[j] + u[sigma[i]] * u[sigma[j]] for u in vectors) for j in size]
            for i in size
        ]
    else:
        # one drawn value per class {(i, j), (j, i), (σi, σj), (σj, σi)}
        key = {
            (i, j): min((i, j), (j, i), (sigma[i], sigma[j]), (sigma[j], sigma[i]))
            for i in size
            for j in size
        }
        classes = sorted(set(key.values()))
        values = draw(st.lists(st.integers(-2, 2), min_size=len(classes), max_size=len(classes)))
        value = dict(zip(classes, values))
        rows = [[value[key[i, j]] for j in size] for i in size]
    return ExactMatrix(tuple(map(tuple, rows)), labels, labels), tuple(sigma)


@given(mirror_invariant_matrices())
def test_split_matches_the_plain_kernel_on_invariant_matrices(case):
    m, sigma = case
    assert label_mirror(m) == sigma
    blocks = mirror_blocks(m.entries, sigma)
    assert determinant(m) == split_det(*blocks)
    assert rank(m) == split_rank(*blocks)


def non_invariant_matrices():
    """Matrices the split must leave whole, each with the reason."""
    gram = build_gram(5, NC, 3)
    yield "principal submatrix", gram.principal_submatrix(30)
    for r in range(1, 5):
        yield f"A(5, {r})", build_A(5, r, 4)
    four = build_gram(4, NC, 3)
    rows = [list(row) for row in four.entries]
    rows[1][2] += 1
    rows[2][1] += 1
    perturbed = ExactMatrix(tuple(map(tuple, rows)), four.row_labels, four.col_labels)
    yield "one perturbed entry", perturbed
    p = Partition.pair()
    dup = ((2, 1, 1), (1, 2, 1), (1, 1, 2))
    yield "duplicate labels", ExactMatrix(dup, (p,) * 3, (p,) * 3)


@pytest.mark.parametrize("name, m", list(non_invariant_matrices()))
def test_non_invariant_matrices_are_not_split(name, m):
    assert is_identity(label_mirror(m)), name
    assert determinant(m) == det_bareiss([list(row) for row in m.entries])
    assert rank(m) == rank_by_fractions(m.entries)


def test_the_perturbed_case_splits_before_the_perturbation():
    m = build_gram(4, NC, 3)
    sigma = label_mirror(m)
    assert not is_identity(sigma)
    # the perturbed pair (1, 2) is not mapped onto itself by σ
    assert {(sigma[1], sigma[2]), (sigma[2], sigma[1])} != {(1, 2), (2, 1)}


def test_level_zero_matrix_splits():
    # A(n, 0) is the Gram matrix with its labels in strata order
    for n in range(3, 6):
        m = build_A(n, 0, 4)
        sigma = label_mirror(m)
        assert not is_identity(sigma)
        blocks = mirror_blocks(m.entries, sigma)
        assert determinant(m) == split_det(*blocks) == recursion_det(n, 4)


def test_split_refuses_an_inexact_division():
    # det M₊ · det M₋ = 1 is not a multiple of 2^1
    with pytest.raises(ArithmeticError, match="2\\^k"):
        split_det([[1]], [[1]])


def test_empty_shapes():
    p = Partition.pair()
    assert rank(ExactMatrix(((),), (p,), ())) == 0
    assert rank(ExactMatrix(((), ()), (p, p), ())) == 0
    assert rank(ExactMatrix((), (), (p,))) == 0
    assert determinant(ExactMatrix((), (), ())) == 1


# ---------------------------------------------------------------------------
# matrix plumbing


def test_shape_validation():
    labels = tuple(enumerate_partitions(2, NC))
    with pytest.raises(ShapeError):
        ExactMatrix(((1, 2), (3,)), labels, labels)
    with pytest.raises(ShapeError):
        ExactMatrix(((1, 2), (3, 4)), labels[:1], labels)


def test_evaluate_symbolic_matrix():
    m = build_gram(2, NC, None)
    assert m.evaluate(4).entries == build_gram(2, NC, 4).entries
    # any integer, of any sign, but only an integer
    assert [m.evaluate(N).entries for N in (-2, -1, 0)] == [
        ((-2, -2), (-2, 4)),
        ((-1, -1), (-1, 1)),
        ((0, 0), (0, 0)),
    ]
    for N in (2.5, Fraction(1, 2), "2"):
        with pytest.raises(ValueError, match="N must be an integer"):
            m.evaluate(N)


def test_powers_table_equals_the_powers_formed_one_by_one():
    # N^0..N^top, one multiplication each, behind every numeric matrix,
    # every evaluation and the substituted symbolic determinant
    for N in (-3, -1, 0, 1, 4, 10**50):
        for top in (0, 1, 2, 7):
            assert _powers(N, top) == [N**e for e in range(top + 1)]
    # the substitution reads X^(e − e_min) straight off the table, below
    # e_min too: det [[X³, X⁵], [X⁵, X³]] = X⁶ − X¹⁰
    labels = tuple(enumerate_partitions(2, NC))
    m = ExactMatrix(((3, 5), (5, 3)), labels, labels, is_symbolic=True)
    assert determinant(m) == IntPolynomial([0] * 6 + [1, 0, 0, 0, -1])
    assert determinant(m.principal_submatrix(1)) == IntPolynomial([0, 0, 0, 1])


def test_short_rows_are_read_as_tuples():
    # the powers are read one row per C call, which gives a bare entry, not
    # a tuple, for a row of one: every matrix of one row or none keeps the
    # tuple rows it had when each entry was read on its own
    for N in (3, 5):
        assert [build_gram(1, cls, N).entries for cls in PartitionClass] == [((N,),), ((N,),), ()]
        assert build_gram(2, PartitionClass.NONCROSSING_PAIRS, N).entries == ((N,),)
        # W(m, m − 1) is one partition, over itself N^⌈m/2⌉
        assert [build_A(m, m - 1, N).entries for m in range(1, 8)] == [
            ((N**e,),) for e in (1, 1, 2, 2, 3, 3, 4)
        ]
    one = build_gram(1, NC, None)
    assert one.entries == (b"\x01",)
    assert one.evaluate(-2).entries == ((-2,),)
    p = Partition.singletons(1)
    assert ExactMatrix(((4,),), (p,), (p,), is_symbolic=True).evaluate(-2).entries == ((16,),)
    empty = ExactMatrix((), (), (), is_symbolic=True).evaluate(5)
    assert empty.entries == () and not empty.is_symbolic


def test_every_row_of_a_built_matrix_is_a_tuple():
    built = [build_gram(n, cls, N) for cls in PartitionClass for n in range(1, 6) for N in (1, 4)]
    built += [build_A(n, r, 4) for n in range(1, 7) for r in range(n)]
    built += [build_B(n, r, 4) for n in range(2, 7) for r in range(n - 1)]
    built += [build_gram(n, cls, None).evaluate(-3) for cls in PartitionClass for n in range(1, 6)]
    for m in built:
        assert type(m.entries) is tuple
        assert all(type(row) is tuple for row in m.entries)
        assert all(type(e) is int for row in m.entries for e in row)


def test_symbolic_gram_matrix_holds_the_loop_count_exponents():
    # build_gram(n, cls, None) has the labels of every numeric Gram matrix,
    # the loop counts rl(q*, p) as entries, evaluates to the numeric matrix
    # at any N, and its determinant is a polynomial in ℤ[X]
    for cls in PartitionClass:
        for n in range(1, 6):
            m = build_gram(n, cls, None)
            assert m.is_symbolic
            assert m.row_labels == m.col_labels == tuple(enumerate_partitions(n, cls))
            for i, p in enumerate(m.row_labels):
                for j, q in enumerate(m.col_labels):
                    assert m.entry(i, j) == compose(involution(q), p).remaining_loops
            for N in (1, 2, 5):
                numeric = build_gram(n, cls, N)
                assert not numeric.is_symbolic
                assert m.evaluate(N) == numeric
            if n <= 4:
                d = determinant(m)
                assert isinstance(d, IntPolynomial)
                assert d.evaluate(3) == determinant(build_gram(n, cls, 3))
    # the pair ⊓ first, then the two singletons
    assert [list(row) for row in build_gram(2, NC, None).entries] == [[1, 1], [1, 2]]
    # an odd point count has no pair partitions: the empty determinant is
    # the constant polynomial 1, like every other symbolic determinant
    assert determinant(build_gram(3, PartitionClass.NONCROSSING_PAIRS, None)) == IntPolynomial([1])
