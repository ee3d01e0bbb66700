"""Gram matrices of partition vectors: construction, determinant, rank."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ncgram.gram
from ncgram.errors import BudgetError, ShapeError
from ncgram.gram import DET_DIMENSION_BUDGET, ExactMatrix, build_gram, determinant, rank
from ncgram.partitions import Partition, PartitionClass, enumerate_partitions
from ncgram.polynomials import IntPolynomial
from ncgram.tensor_model import inner_product, vector_of
from ncgram.tutte import recursion_det
from test_kernels import det_bareiss

NC = PartitionClass.NONCROSSING
ALL = PartitionClass.ALL
X = IntPolynomial.x()


def entry_by_labels(m: ExactMatrix, p: Partition, q: Partition):
    return m.entry(m.row_labels.index(p), m.col_labels.index(q))


# ---------------------------------------------------------------------------
# construction


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


def test_interpolation_route_matches_direct_polynomial_route():
    # the reference Bareiss kernel still runs over ℤ[X]: an oracle for the
    # interpolated polynomial
    for m in symbolic_grams(4):
        assert determinant(m) == det_bareiss([list(row) for row in m.entries])


def test_symbolic_determinant_is_monic_of_degree_total_blocks():
    # the diagonal product N^{Σ b(p)} is the one Leibniz term of top degree
    for m in symbolic_grams(5):
        d = determinant(m)
        assert d.degree == sum(p.block_count for p in m.row_labels)
        assert d.coeffs[-1] == 1


def test_symbolic_determinant_holds_off_the_interpolation_nodes():
    # the nodes are 1, ..., D + 1; negative N and D + 2 lie outside them
    for m in symbolic_grams(4):
        d = determinant(m)
        top = sum(max(e.degree for e in row) for row in m.entries)
        for N in (-2, -1, top + 2):
            assert d.evaluate(N) == determinant(m.evaluate(N))


def test_symbolic_five_point_determinant_matches_the_recursion():
    d = determinant(build_gram(5, NC, None))
    for N in (4, 5):
        assert d.evaluate(N) == recursion_det(5, N)


@given(
    st.lists(st.integers(min_value=-50, max_value=50), max_size=8),
    st.lists(st.integers(min_value=-20, max_value=20), min_size=8, max_size=12, unique=True),
)
def test_interpolation_recovers_integer_polynomials(coeffs, xs):
    # any distinct integer nodes, in any order, at least degree + 1 of them
    from ncgram.gram import _interpolate_integer_poly

    p = IntPolynomial(coeffs)
    assert _interpolate_integer_poly(xs, [p.evaluate(x) for x in xs]) == p


def test_interpolation_outside_integer_polynomials_raises():
    # the interpolant of (1, 0), (2, 0), (3, 1) is (x - 1)(x - 2)/2
    from ncgram.gram import _interpolate_integer_poly

    with pytest.raises(ArithmeticError, match="ℤ"):
        _interpolate_integer_poly([1, 2, 3], [0, 0, 1])


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

    monkeypatch.setattr(ncgram.gram, "PairForest", no_pair_loop)
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
