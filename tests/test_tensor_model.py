"""Dense tensor model: δ coefficients, partition vectors, functor laws,
and the block-bounded basis expansion."""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncgram import tensor_model
from ncgram.errors import BudgetError, ShapeError, check_parameter
from ncgram.partitions import (
    Corner,
    Partition,
    PartitionClass,
    compose,
    count_partitions,
    enumerate_partitions,
    involution,
    kernel,
    refines,
    rotate,
    tensor,
)
from ncgram.tensor_model import (
    check_functor_laws,
    delta_p,
    express_in_bounded_basis,
    inner_product,
    matrix_of,
    reconstruct,
    vector_of,
)

NC = PartitionClass.NONCROSSING
ALL = PartitionClass.ALL


# ---------------------------------------------------------------------------
# the block-list δ that the labelling generator replaced, kept as an oracle


def oracle_delta(p: Partition, i: tuple[int, ...], j: tuple[int, ...]) -> int:
    """1 iff every block's positions in i + j carry one label."""
    labels = i + j
    blocks: list[list[int]] = [[] for _ in range(p.block_count)]
    for pos, b in enumerate(p.rgs):
        blocks[b].append(pos)
    for positions in blocks:
        first = labels[positions[0]]
        for pos in positions[1:]:
            if labels[pos] != first:
                return 0
    return 1


def test_delta_matrices_and_vectors_match_oracle():
    # every partition with k, l ≤ 3 at N = 1, 2, 3: at most 3^6 entries each
    for p in tensor_model._partitions_up_to(3):
        for N in (1, 2, 3):
            uppers = list(product(range(1, N + 1), repeat=p.upper))
            lowers = list(product(range(1, N + 1), repeat=p.lower))
            want = [[oracle_delta(p, i, j) for i in uppers] for j in lowers]
            assert [[delta_p(p, i, j) for i in uppers] for j in lowers] == want, (p, N)
            assert matrix_of(p, N) == want, (p, N)
            if p.upper == 0:
                entries = vector_of(p, N).entries
                assert entries == {j: 1 for j, row in zip(lowers, want) if row[0]}, (p, N)


@st.composite
def labelled_partitions(draw):
    """A random (k, l) partition with k + l ≤ 8 and a labelling over [3]."""
    ids = draw(st.lists(st.integers(min_value=0, max_value=7), max_size=8))
    k = draw(st.integers(min_value=0, max_value=len(ids)))
    labels = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=len(ids), max_size=len(ids)))
    p = Partition(k, len(ids) - k, kernel(ids).rgs)
    return p, tuple(labels[:k]), tuple(labels[k:])


@given(labelled_partitions())
def test_delta_matches_oracle_random(case):
    p, i, j = case
    assert delta_p(p, i, j) == oracle_delta(p, i, j)


# ---------------------------------------------------------------------------
# delta coefficients


def worked_example_partition() -> Partition:
    # (3,5) shape: u1 alone; u2,u3 joined to l4; l1,l2,l5 together; l3 alone
    return Partition.from_blocks(
        3,
        5,
        [
            [("upper", 1)],
            [("upper", 2), ("upper", 3), ("lower", 4)],
            [("lower", 1), ("lower", 2), ("lower", 5)],
            [("lower", 3)],
        ],
    )


def test_delta_worked_example():
    p = worked_example_partition()
    assert delta_p(p, (5, 6, 6), (3, 3, 7, 6, 3)) == 1
    assert delta_p(p, (5, 6, 6), (3, 3, 7, 2, 8)) == 0


def test_delta_shape_and_label_validation():
    p = worked_example_partition()
    with pytest.raises(ShapeError):
        delta_p(p, (5, 6), (3, 3, 7, 6, 3))
    with pytest.raises(ValueError):
        delta_p(p, (5, 6, 0), (3, 3, 7, 6, 3))


@pytest.mark.parametrize("labels", [(1.5, 1.5), (True, True), (1, 1.0), (2, "2")])
def test_delta_refuses_labels_that_are_not_ints(labels):
    # (1.5, 1.5) and (True, True) labelled the pair constantly and gave 1
    with pytest.raises(ValueError, match="labels must be positive integers"):
        delta_p(Partition.pair(), (), labels)
    assert delta_p(Partition.pair(), (), (2, 2)) == 1


def test_delta_is_block_constancy():
    p = Partition.from_lower_blocks(3, [[1, 2], [3]])
    assert delta_p(p, (), (2, 2, 9)) == 1
    assert delta_p(p, (), (2, 3, 9)) == 0


def test_delta_invariant_under_rotation_relabelling():
    for m in (2, 3):
        for base in enumerate_partitions(1 + m, ALL):
            p = rotate(base, Corner.LOWER_LEFT_UP)  # a (1, m) partition
            q = rotate(p, Corner.UPPER_LEFT_DOWN)
            assert q == base
            for a in (1, 2):
                for idx in product((1, 2), repeat=m):
                    assert delta_p(p, (a,), idx) == delta_p(q, (), (a,) + idx)


# ---------------------------------------------------------------------------
# vectors and inner products


def test_pair_vector_is_diagonal():
    v = vector_of(Partition.pair(), 2)
    assert v.entries == {(1, 1): 1, (2, 2): 1}


def test_empty_partition_vector_is_scalar_one():
    v = vector_of(Partition.empty(), 3)
    assert v.entries == {(): 1}


def test_vector_support_size_counts_block_labellings():
    for n in range(1, 5):
        for N in (2, 3):
            for p in enumerate_partitions(n, ALL):
                assert len(vector_of(p, N).entries) == N**p.block_count


def test_vector_entries_are_delta_values():
    p = Partition.from_lower_blocks(3, [[1, 3], [2]])
    v = vector_of(p, 2)
    for idx in product((1, 2), repeat=3):
        assert v.entries.get(idx, 0) == delta_p(p, (), idx)


def test_inner_products_reproduce_loop_counts():
    for n in range(1, 5):
        for N in (2, 3, 4):
            ps = enumerate_partitions(n, NC)
            vectors = {p: vector_of(p, N) for p in ps}
            for p in ps:
                for q in ps:
                    loops = compose(involution(q), p).remaining_loops
                    assert inner_product(vectors[p], vectors[q]) == N**loops


def test_inner_product_shape_mismatch():
    with pytest.raises(ShapeError):
        inner_product(vector_of(Partition.pair(), 2), vector_of(Partition.pair(), 3))


def test_dense_budget_enforced():
    with pytest.raises(BudgetError):
        vector_of(Partition.one_block(6), 11)
    # a matrix counts the legs of both rows: 11^3 rows by 11^3 columns is
    # 11^6 > 10^6 entries, though each row alone is inside the budget
    p = Partition(3, 3, (0, 1, 2, 0, 1, 2))
    with pytest.raises(BudgetError, match="11\\^6"):
        matrix_of(p, 11)
    assert sum(map(sum, matrix_of(p, 10))) == 10**3


def test_dense_budget_refuses_from_small_powers():
    # N^0, N^1, … are stepped up to the first past the budget, so 3^(10^7),
    # a number of 4.8 million digits, is never formed
    started = time.perf_counter()
    with pytest.raises(BudgetError, match=r"dense size of 3\^10000000: over 1594323 exceeds"):
        tensor_model.DenseTensor(3, 10**7, {})
    assert time.perf_counter() - started < 0.1
    # the steps stop past 2^20, the first power of 2 over the budget
    with pytest.raises(BudgetError, match=r"2\^1000000000: over 1048576 exceeds"):
        tensor_model.DenseTensor(2, 10**9, {})
    # N = 1 never passes the budget, and takes a few steps at any leg count
    assert tensor_model.DenseTensor(1, 10**9, {}).legs == 10**9


def test_dense_tensor_refuses_a_negative_leg_count():
    # N^e for no e in the empty step range of −1 legs, so the budget check
    # alone let it through
    with pytest.raises(ValueError, match="leg count must be non-negative"):
        tensor_model.DenseTensor(2, -1, {})
    assert tensor_model.DenseTensor(2, 0, {}).legs == 0


@pytest.mark.parametrize("legs", [True, 1.5, 2.0, "2"])
def test_dense_tensor_refuses_a_leg_count_that_is_not_an_int(legs):
    # True passed as one leg, and 1.5 stopped in a bare TypeError of `range`
    with pytest.raises(TypeError, match=f"leg count must be an int, not {legs!r}"):
        tensor_model.DenseTensor(2, legs, {})


# ---------------------------------------------------------------------------
# matrices and functor laws


def test_identity_partition_gives_identity_matrix():
    for n in (1, 2):
        m = matrix_of(Partition.identity(n), 3)
        size = 3**n
        assert m == [[int(i == j) for j in range(size)] for i in range(size)]


def test_pair_matrix_is_diagonal_column():
    m = matrix_of(Partition.pair(), 2)
    assert m == [[1], [0], [0], [1]]


def test_composition_law_single_loop_case():
    # stacking the mirror cap on the cup closes one loop: N · T_∅ = T_cap T_cup
    cup = Partition.pair()
    cap = involution(cup)
    composed, loops = compose(cap, cup)
    assert composed == Partition.empty()
    assert loops == 1
    for N in (2, 3):
        product_matrix = [
            [sum(matrix_of(cap, N)[0][t] * matrix_of(cup, N)[t][0] for t in range(N**2))]
        ]
        assert product_matrix == [[N ** loops * matrix_of(composed, N)[0][0]]]


def test_functor_laws_exhaustive_small():
    for N in (2, 3):
        reports = check_functor_laws(N, 2 if N == 2 else 1)
        assert all(r["status"] == "pass" for r in reports)
        assert [r["law"] for r in reports] == ["tensor", "involution", "composition"]
        assert all(r["cases"] > 0 for r in reports)


def _swapped_tensor(p, q):
    return tensor(q, p)


def _identity_involution(p):
    return p


def _compose_with_extra_loop(t, s):
    composed, loops = compose(t, s)
    return composed, loops + 1


@pytest.mark.parametrize(
    "law, name, broken",
    [
        ("tensor", "tensor", _swapped_tensor),
        ("involution", "involution", _identity_involution),
        ("composition", "compose", _compose_with_extra_loop),
    ],
    ids=["tensor", "involution", "composition"],
)
def test_functor_laws_report_a_broken_operation(monkeypatch, law, name, broken):
    # the checker must be able to fail: break one diagram operation at a time
    monkeypatch.setattr(tensor_model, name, broken)
    reports = {r["law"]: r for r in check_functor_laws(2, 1)}
    assert reports[law]["status"] == "fail"
    assert list(reports[law]) == ["law", "N", "max_points", "cases", "status", "counterexample"]
    names = {"tensor": ["q", "p"], "involution": ["p"], "composition": ["q", "p", "loops"]}
    assert list(reports[law]["counterexample"]) == names[law]
    assert [r["status"] for r in reports.values() if r["law"] != law] == ["pass", "pass"]



# the dense law body that the support checks replaced, kept as their oracle


def _kron(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    out = []
    for ra in a:
        for rb in b:
            out.append([x * y for x in ra for y in rb])
    return out


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for ra in a:
        row = [0] * cols
        for t, x in enumerate(ra):
            if x:
                rb = b[t]
                for c in range(cols):
                    row[c] += x * rb[c]
        out.append(row)
    return out


def _transpose(a: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*a)] if a else []


def dense_functor_laws(N: int, max_points: int) -> list[dict]:
    """The three law reports from dense matrices. The diagram operations are
    looked up on `tensor_model`, so a test that breaks one there breaks it
    here too."""
    parts = tensor_model._partitions_up_to(max_points)
    mats = {p: matrix_of(p, N) for p in parts}
    composed = {(q, p): tensor_model.compose(q, p) for q in parts for p in parts if p.lower == q.upper}
    fixed = {"N": N, "max_points": max_points}
    return [
        tensor_model._run_law(
            "tensor",
            [dict(q=q, p=p) for q in parts for p in parts],
            lambda q, p: matrix_of(tensor_model.tensor(q, p), N) == _kron(mats[q], mats[p]),
            **fixed,
        ),
        tensor_model._run_law(
            "involution",
            [dict(p=p) for p in parts],
            lambda p: matrix_of(tensor_model.involution(p), N) == _transpose(mats[p]),
            **fixed,
        ),
        tensor_model._run_law(
            "composition",
            [dict(q=q, p=p, loops=loops) for (q, p), (_, loops) in composed.items()],
            lambda q, p, loops: _matmul(mats[q], mats[p])
            == [[N**loops * e for e in row] for row in matrix_of(composed[q, p][0], N)],
            **fixed,
        ),
    ]


@pytest.mark.parametrize(
    "name, broken",
    [
        (None, None),
        ("tensor", _swapped_tensor),
        ("involution", _identity_involution),
        ("compose", _compose_with_extra_loop),
    ],
    ids=["intact", "tensor", "involution", "composition"],
)
def test_support_laws_match_the_dense_oracle(monkeypatch, name, broken):
    if name is not None:
        monkeypatch.setattr(tensor_model, name, broken)
    for N, max_points in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]:
        got, want = check_functor_laws(N, max_points), dense_functor_laws(N, max_points)
        if N == 1 and name == "involution":
            # at N = 1 every map is the 1×1 matrix [[1]], so the dense
            # matrices cannot tell p from p*; the shape check can
            assert want[1]["status"] == "pass"
            assert got[1]["counterexample"] == {"p": "0|1|0"}
            got, want = got[::2], want[::2]
        assert got == want, (N, max_points)


def _upper_point_moved_down(p, q):
    """p ⊗ q with its last upper point made the first lower point."""
    t = tensor(p, q)
    return Partition(t.upper - 1, t.lower + 1, t.rgs) if t.upper else t


def _compose_upside_down(t, s):
    composed, loops = compose(t, s)
    return involution(composed), loops


@pytest.mark.parametrize(
    "law, name, broken, counterexample",
    [
        ("tensor", "tensor", _upper_point_moved_down, {"q": "0|0|", "p": "1|0|0"}),
        ("involution", "involution", _identity_involution, {"p": "0|1|0"}),
        ("composition", "compose", _compose_upside_down, {"q": "0|0|", "p": "1|0|0", "loops": 0}),
    ],
    ids=["tensor", "involution", "composition"],
)
def test_every_law_checks_the_shape(monkeypatch, law, name, broken, counterexample):
    # each mutant returns a partition of the wrong shape; at N = 1 every map
    # is the 1×1 matrix [[1]], so there only the shape shows the fault
    monkeypatch.setattr(tensor_model, name, broken)
    for N in (1, 2):
        reports = {r["law"]: r for r in check_functor_laws(N, 1)}
        assert reports[law]["status"] == "fail"
        assert reports[law]["counterexample"] == counterexample
    dense = {r["law"]: r["status"] for r in dense_functor_laws(1, 1)}
    assert dense[law] == "pass"
    assert {r["law"]: r["status"] for r in dense_functor_laws(2, 1)}[law] == "fail"


# the cell-set laws that the integer supports replaced, kept as their oracle


def _cells(p: Partition, N: int) -> frozenset[tuple[int, int]]:
    """The (row, col) of each nonzero entry of the map of p. Block b has a
    row weight, Σ N^(l−1−t) over its lower points t, and a column weight,
    Σ N^(k−1−t) over its upper points t; label v on it adds v − 1 times
    each, and each cell sums one label per block."""
    k, last = p.upper, p.points - 1
    rows, cols = [0] * p.block_count, [0] * p.block_count
    for pos, b in enumerate(p.rgs):
        if pos < k:
            cols[b] += N ** (k - 1 - pos)
        else:
            rows[b] += N ** (last - pos)
    cells = [(0, 0)]
    for row, col in zip(rows, cols):
        cells = [(r + v * row, c + v * col) for r, c in cells for v in range(N)]
    return frozenset(cells)


def cell_functor_laws(N: int, max_points: int) -> list[dict]:
    """The three law reports from the cell sets of `_cells`. The diagram
    operations are looked up on `tensor_model`, so a test that breaks one
    there breaks it here too."""
    check_parameter(N)
    parts = tensor_model._partitions_up_to(max_points)
    cells = {p: _cells(p, N) for p in parts}
    cols_of_row: dict[Partition, dict[int, list[int]]] = {p: {} for p in parts}
    for p in parts:
        for row, col in cells[p]:
            cols_of_row[p].setdefault(row, []).append(col)
    composed = {(q, p): tensor_model.compose(q, p) for q in parts for p in parts if p.lower == q.upper}

    def kron_holds(q: Partition, p: Partition) -> bool:
        t, rows, cols = tensor_model.tensor(q, p), N**p.lower, N**p.upper
        kron = {(a * rows + b, c * cols + d) for a, c in cells[q] for b, d in cells[p]}
        return (t.upper, t.lower) == (q.upper + p.upper, q.lower + p.lower) and _cells(t, N) == kron

    def transpose_holds(p: Partition) -> bool:
        t, transposed = tensor_model.involution(p), {(col, row) for row, col in cells[p]}
        return (t.upper, t.lower) == (p.lower, p.upper) and _cells(t, N) == transposed

    def product_holds(q: Partition, p: Partition, loops: int) -> bool:
        t = composed[q, p][0]
        counts = Counter((r, c) for r, mid in cells[q] for c in cols_of_row[p].get(mid, ()))
        scaled = dict.fromkeys(_cells(t, N), N**loops)
        return (t.upper, t.lower) == (p.upper, q.lower) and counts == scaled

    fixed = {"N": N, "max_points": max_points}
    return [
        tensor_model._run_law("tensor", [dict(q=q, p=p) for q in parts for p in parts], kron_holds, **fixed),
        tensor_model._run_law("involution", [dict(p=p) for p in parts], transpose_holds, **fixed),
        tensor_model._run_law(
            "composition",
            [dict(q=q, p=p, loops=loops) for (q, p), (_, loops) in composed.items()],
            product_holds,
            **fixed,
        ),
    ]


def _support_bits(support: int) -> list[int]:
    """The indices of the set bits of `support`, the lowest first."""
    return [i for i, digit in enumerate(reversed(f"{support:b}")) if digit == "1"]


def test_support_is_the_cell_set_at_any_strides():
    # bit for bit, for every partition with k, l ≤ 2 at N ≤ 4: at the
    # matrix's own strides, transposed, and spread out over a seed of two
    # bits, as the tensor and composition laws lay supports out
    for p in tensor_model._partitions_up_to(2):
        for N in range(1, 5):
            rows, cols = N**p.lower, N**p.upper
            cells = _cells(p, N)
            assert len(cells) == N**p.block_count
            support = tensor_model._support(p, N, cols, 1)
            assert {divmod(i, cols) for i in _support_bits(support)} == cells, (p, N)
            transposed = tensor_model._support(p, N, 1, rows)
            assert {divmod(i, rows)[::-1] for i in _support_bits(transposed)} == cells, (p, N)
            spread = tensor_model._support(p, N, 5 * cols, 5, seed=0b1001)
            want = sum(0b1001 << (5 * (r * cols + c)) for r, c in cells)
            assert spread == want, (p, N)


def test_matrix_of_is_written_from_the_cells():
    # every partition with at most 2 points per row at N ≤ 4 gives the
    # matrix that the cell sets wrote
    for p in tensor_model._partitions_up_to(2):
        for N in range(1, 5):
            want = [[0] * N**p.upper for _ in range(N**p.lower)]
            for row, col in _cells(p, N):
                want[row][col] = 1
            assert matrix_of(p, N) == want, (p, N)


def _compose_with_64_extra_loops(t, s):
    composed, loops = compose(t, s)
    return composed, loops + 64


def _compose_with_a_billion_extra_loops(t, s):
    composed, loops = compose(t, s)
    return composed, loops + 10**9


@pytest.mark.parametrize(
    "name, broken",
    [
        (None, None),
        ("tensor", _swapped_tensor),
        ("involution", _identity_involution),
        ("compose", _compose_with_extra_loop),
        ("compose", _compose_with_64_extra_loops),
    ],
    ids=["intact", "tensor", "involution", "composition", "composition-64"],
)
def test_support_laws_match_the_cell_oracle(monkeypatch, name, broken):
    if name is not None:
        monkeypatch.setattr(tensor_model, name, broken)
    for N in range(1, 5):
        for max_points in (1, 2):
            assert check_functor_laws(N, max_points) == cell_functor_laws(N, max_points), (N, max_points)


def test_composition_law_fails_past_every_lane_at_n_two(monkeypatch):
    # 2^64 extra exceeds every lane of the count sum, which holds at most
    # C_q ≤ 2^4; at N = 1 every power is 1 and the law holds
    monkeypatch.setattr(tensor_model, "compose", _compose_with_64_extra_loops)
    for max_points in (1, 2):
        assert check_functor_laws(1, max_points)[2]["status"] == "pass"
        report = check_functor_laws(2, max_points)[2]
        assert report["status"] == "fail"
        assert report["counterexample"]["loops"] >= 64


def test_composition_law_never_forms_a_huge_loop_power(monkeypatch):
    # N^(10^9) has 10^9 bits at N = 2; the law fails on the lane width alone
    monkeypatch.setattr(tensor_model, "compose", _compose_with_a_billion_extra_loops)
    started = time.perf_counter()
    reports = [check_functor_laws(N, 1)[2] for N in (2, 3, 4)]
    assert time.perf_counter() - started < 0.5
    assert [r["status"] for r in reports] == ["fail"] * 3
    assert all(r["counterexample"]["loops"] >= 10**9 for r in reports)
    assert check_functor_laws(1, 2) == cell_functor_laws(1, 2)


def _count_plus_one(points, cls):
    return count_partitions(points, cls) + 1


def _singletons_swapped(p):
    return Partition(p.lower, p.upper, tuple(range(p.points)))


def _left_factor_only(p, q):
    return p


def _never_refines(p, q):
    return False


@pytest.mark.parametrize(
    "law, name, broken",
    [
        ("enumeration-counts", "count_partitions", _count_plus_one),
        ("involution-squared", "involution", _singletons_swapped),
        ("text-roundtrip", "from_text", lambda text: Partition.empty()),
        ("identity-neutral", "compose", _compose_with_extra_loop),
        ("tensor-unit", "tensor", _left_factor_only),
        ("refinement-bounds", "refines", _never_refines),
    ],
    ids=["counts", "involution", "text", "identity", "tensor", "refinement"],
)
def test_partition_invariants_report_a_broken_operation(monkeypatch, law, name, broken):
    # each invariant must be able to fail, through the same runner as the
    # functor laws; the other five read none of the broken operations
    if name == "from_text":
        monkeypatch.setattr(Partition, name, staticmethod(broken))
    else:
        monkeypatch.setattr(tensor_model, name, broken)
    reports = {r["law"]: r for r in tensor_model._partition_invariants()}
    assert len(reports) == 6
    assert reports[law]["status"] == "fail"
    assert reports[law]["counterexample"]
    assert list(reports[law]) == ["law", "cases", "status", "counterexample"]
    assert [r["status"] for r in reports.values() if r["law"] != law] == ["pass"] * 5


def test_transpose_law_specific():
    p = worked_example_partition()
    q = involution(p)
    m = matrix_of(p, 2)
    mt = matrix_of(q, 2)
    assert [list(row) for row in zip(*m)] == mt


# ---------------------------------------------------------------------------
# block-bounded basis expansion


def test_expansion_trivial_when_blocks_fit():
    q = Partition.pair()
    assert express_in_bounded_basis(q, 2) == {q: Fraction(1)}


def test_expansion_reconstructs_exactly():
    for n in range(1, 5):
        for N in (2, 3):
            for q in enumerate_partitions(n, ALL):
                coeffs = express_in_bounded_basis(q, N)
                assert all(p.block_count <= N for p in coeffs)
                got = reconstruct(coeffs, N)
                want = vector_of(q, N).entries
                support = set(got) | set(want)
                for idx in support:
                    assert got.get(idx, 0) == want.get(idx, 0)


def test_expansion_coefficients_observed_integral():
    # integrality is proven by the Möbius form: each coefficient is a sum of
    # Möbius values μ(τ, p), so it is computed, and returned, as an int
    for n in range(7):
        for q in enumerate_partitions(n, ALL):
            for N in range(1, 5):
                for value in express_in_bounded_basis(q, N).values():
                    assert type(value) is int, (q, N, value)


def layered_expansion(q: Partition, N: int) -> dict[Partition, Fraction]:
    """Coefficients writing the vector of q over partitions with ≤ N blocks.

    Layer by layer from N blocks down to 1, each coarsening p ⪰ q gets
    α_p = 1 − Σ α_{p'} over the finer coarsenings p' already assigned.
    Partitions outside the returned mapping have coefficient 0. The
    combination satisfies Σ α_p · vector_of(p) = vector_of(q) exactly.
    """
    if q.upper != 0:
        raise ShapeError("expansion needs a partition with no upper points")
    check_parameter(N)
    if q.block_count <= N:
        return {q: Fraction(1)}
    coarsenings = [
        p
        for p in enumerate_partitions(q.points, PartitionClass.ALL)
        if p.block_count <= N and refines(q, p)
    ]
    alpha: dict[Partition, Fraction] = {}
    for blocks in range(N, 0, -1):
        for p in coarsenings:
            if p.block_count != blocks:
                continue
            finer_sum = sum(
                (c for prev, c in alpha.items() if refines(prev, p)),
                Fraction(0),
            )
            alpha[p] = 1 - finer_sum
    return alpha


def test_expansion_matches_the_layered_oracle():
    # the Bell filter and Fraction layer loop the Möbius form replaced, kept
    # as an oracle: same keys, same values on every q with n ≤ 6 at N ≤ 4
    cases = 0
    for n in range(7):
        for q in enumerate_partitions(n, ALL):
            for N in range(1, 5):
                assert express_in_bounded_basis(q, N) == layered_expansion(q, N), (q, N)
                cases += 1
    assert cases == 1116


def test_expansion_keys_are_the_bounded_coarsenings():
    # the groupings of q's blocks list exactly the Bell filter's coarsenings;
    # a q that fits in N blocks is its own expansion
    bell = enumerate_partitions(7, ALL)
    for q in bell:
        want = {p for p in bell if p.block_count <= 3 and refines(q, p)} if q.block_count > 3 else {q}
        assert set(express_in_bounded_basis(q, 3)) == want, q


def test_expansion_refuses_past_the_budget_before_any_grouping(monkeypatch):
    # Bell(12) = 4,213,597 groupings pass the budget and Bell(11) = 678,570
    # do not; a q within N blocks lists no grouping, so it is never refused
    class Listed(Exception):
        pass

    def no_groupings(*args):
        raise Listed

    monkeypatch.setattr(tensor_model, "iter_partitions", no_groupings)
    assert count_partitions(11) <= tensor_model.EXPANSION_BUDGET < count_partitions(12)
    twelve = Partition(0, 13, (0, *range(12)))
    for q in (Partition.singletons(12), Partition.singletons(10**4), twelve):
        with pytest.raises(BudgetError, match="groupings"):
            express_in_bounded_basis(q, 4)
    with pytest.raises(Listed):
        express_in_bounded_basis(Partition.singletons(11), 4)
    assert express_in_bounded_basis(Partition.singletons(12), 12) == {Partition.singletons(12): 1}


def test_reconstruct_refuses_mixed_shapes():
    # a pair and the 3-point singletons once summed into one dict of 2- and
    # 3-tuples
    with pytest.raises(ShapeError, match="different shapes"):
        reconstruct({Partition.pair(): 1, Partition.singletons(3): 1}, 2)
    assert reconstruct({Partition.pair(): 1, Partition.singletons(2): -1}, 2) == {(1, 2): -1, (2, 1): -1}
