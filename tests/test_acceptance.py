"""Acceptance suite: the eleven binding checks, all exact (zero tolerance).

Run with `pytest -v tests/test_acceptance.py` — one pass/fail line per
criterion.  Criterion 1 carries the bulk of the runtime (three exact
429×429 determinants at seven points); everything else is seconds.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ncgram.formulas import difrancesco_det
from ncgram.gram import build_gram, determinant, rank
from ncgram.partitions import (
    Partition,
    PartitionClass,
    compose,
    enumerate_partitions,
    involution,
    rotate,
    tensor,
)
from ncgram.partitions import Corner
from ncgram.polynomials import (
    beraha,
    beraha_nonzero_at,
    check_beraha_chebyshev_relation,
)
from ncgram.tensor_model import (
    check_functor_laws,
    express_in_bounded_basis,
    inner_product,
    matrix_of,
    reconstruct,
    vector_of,
)
from ncgram.tutte import (
    F_r_value,
    build_A,
    component_shift,
    e_r,
    f_manip,
    g_manip,
    has_r_flaw,
    recursion_det,
    w_stratum,
)

NC = PartitionClass.NONCROSSING
ALL = PartitionClass.ALL
NC2 = PartitionClass.NONCROSSING_PAIRS


def test_01_main_theorem_at_desk_scale():
    # det A(n,0,N) ≠ 0 for n = 1..7, N ∈ {4,5,6}, by direct exact elimination
    for N in (4, 5, 6):
        for n in range(1, 8):
            det = determinant(build_A(n, 0, N))
            assert det != 0, f"det A({n},0) vanished at N={N}"
    print("criterion 1: direct determinants nonzero up to 7 points — PASS")


def test_02_recursion_equals_direct_determinant():
    for N in (4, 5, 7):
        for n in range(1, 7):
            direct = determinant(build_gram(n, NC, N))
            assert recursion_det(n, N) == direct, f"recursion mismatch n={n} N={N}"
    print("criterion 2: recursion = direct determinant — PASS")


def test_03_base_case_matrix():
    for N in (4, 5):
        for n in range(1, 9):
            a = build_A(n, n - 1, N)
            assert a.entries == ((N ** ((n + 1) // 2),),), f"base case n={n} N={N}"
    print("criterion 3: top-stratum matrix equals its closed form — PASS")


def test_04_column_identity_exhaustive():
    N = 4
    z = Fraction(1, N)
    for n in range(3, 7):
        for r in range(1, n - 1):
            sign = -1 if r % 2 else 1
            beta_lo = beraha(r + 2).evaluate(z)
            beta_hi = beraha(r + 3).evaluate(z)
            for q in w_stratum(n, r + 1):
                for p in w_stratum(n, r):
                    lhs = sign * F_r_value(p, q, r, N)
                    rhs = beta_lo * e_r(p, q, r, N) - beta_hi * e_r(p, q, r + 1, N)
                    assert lhs == rhs, f"identity fails n={n} r={r}"
    print("criterion 4: two-sum column identity exhaustive at N=4 — PASS")


def test_05_component_shift_table_exhaustive():
    checked = 0
    for n in range(2, 7):
        for r in range(n - 1):
            s = r // 2
            g_limit = s if r % 2 == 0 else s + 1
            for q in w_stratum(n, r + 1):
                for p in w_stratum(n, r):
                    base = compose(involution(q), p).remaining_loops
                    for kind, limit in (("f", s + 1), ("g", g_limit)):
                        manip = f_manip if kind == "f" else g_manip
                        for i in range(1, limit + 1):
                            image = manip(i, q, r)
                            if has_r_flaw(p, image, r):
                                continue  # entry vanishes; table says nothing
                            try:
                                predicted = component_shift(p, q, r, kind, i)
                            except ValueError:
                                continue  # structure outside the case table
                            actual = compose(involution(image), p).remaining_loops - base
                            assert predicted == actual, (
                                f"shift table wrong at n={n} r={r} {kind}({i})"
                            )
                            checked += 1
    assert checked > 1000
    print(f"criterion 5: component-shift table vs recounts ({checked} cases) — PASS")


def test_06_gram_semantics_of_inner_products():
    for n in range(1, 5):
        for N in (2, 3, 4):
            ps = enumerate_partitions(n, NC)
            vecs = {p: vector_of(p, N) for p in ps}
            for p in ps:
                for q in ps:
                    loops = compose(involution(q), p).remaining_loops
                    assert inner_product(vecs[p], vecs[q]) == N**loops
    print("criterion 6: inner products = parameter^loops — PASS")


def _kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _matmul(a, b):
    return [
        [sum(x * b[t][c] for t, x in enumerate(row)) for c in range(len(b[0]))]
        for row in a
    ]


def test_07_functor_laws():
    # at parameter 2: every partition with up to two points per row
    reports = check_functor_laws(2, 2)
    assert all(rep["status"] == "pass" for rep in reports)

    # at parameter 3: every partition with up to two points in total
    N = 3
    small: list[Partition] = [Partition.empty()]
    for k, l in ((0, 1), (1, 0), (0, 2), (1, 1), (2, 0)):
        for base in enumerate_partitions(k + l, ALL):
            p = base
            for _ in range(k):
                p = rotate(p, Corner.LOWER_LEFT_UP)
            small.append(p)
    mats = {p: matrix_of(p, N) for p in small}
    for q in small:
        for p in small:
            assert matrix_of(tensor(q, p), N) == _kron(mats[q], mats[p])
    for p in small:
        assert matrix_of(involution(p), N) == [list(c) for c in zip(*mats[p])]
    for q in small:
        for p in small:
            if p.lower != q.upper:
                continue
            qp, loops = compose(q, p)
            scaled = [[N**loops * e for e in row] for row in matrix_of(qp, N)]
            assert scaled == _matmul(mats[q], mats[p])
    print("criterion 7: all three functor laws exhaustive — PASS")


def test_08_block_bounded_rank_and_basis():
    for n in range(1, 6):
        for N in (2, 3, 4):
            expected = sum(
                1 for p in enumerate_partitions(n, ALL) if p.block_count <= N
            )
            assert rank(build_gram(n, ALL, N)) == expected, f"rank n={n} N={N}"
    for n in range(1, 5):
        for N in (2, 3):
            for q in enumerate_partitions(n, ALL):
                if q.block_count <= N:
                    continue
                got = reconstruct(express_in_bounded_basis(q, N), N)
                want = vector_of(q, N).entries
                for idx in set(got) | set(want):
                    assert got.get(idx, 0) == want.get(idx, 0), f"basis n={n} N={N}"
    print("criterion 8: bounded-block rank and exact reconstruction — PASS")


def test_09_product_formula_equals_direct():
    for n in range(1, 6):
        for N in (4, 5):
            direct = determinant(build_gram(2 * n, NC2, N))
            assert difrancesco_det(n, N) == direct, f"formula n={n} N={N}"
    print("criterion 9: Chebyshev product formula = direct determinant — PASS")


def test_10_polynomial_relation_and_nonvanishing():
    relation = check_beraha_chebyshev_relation(30)
    assert relation["status"] == "ok" and relation["failures"] == []
    report = beraha_nonzero_at(4, 50)
    assert report["zeros"] == [] and report["status"] == "ok"
    print("criterion 10: polynomial bridge + nonvanishing at 1/4 — PASS")


def test_11_enumeration_counts():
    catalan = [1]
    for n in range(10):
        catalan.append(sum(catalan[i] * catalan[n - i] for i in range(n + 1)))
    bell = [1]
    for n in range(8):
        bell.append(sum(math.comb(n, j) * bell[j] for j in range(n + 1)))
    for n in range(11):
        assert len(enumerate_partitions(n, NC)) == catalan[n]
    for n in range(9):
        assert len(enumerate_partitions(n, ALL)) == bell[n]
    for n in range(7):
        assert len(enumerate_partitions(2 * n, NC2)) == catalan[n]
    print("criterion 11: enumeration counts vs recurrence oracles — PASS")
