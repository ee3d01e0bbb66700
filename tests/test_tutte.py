"""Strata, cut graphs, flaws, manipulations, structures, and the
determinant recursion."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncgram.gram import build_gram, determinant
from ncgram.partitions import Partition, PartitionClass, compose, enumerate_partitions, involution
from ncgram.tutte import (
    F_r_value,
    StructI,
    StructPair,
    StructZero,
    build_A,
    build_B,
    classify_structure,
    component_shift,
    cut_graph,
    e_r,
    f_manip,
    g_manip,
    has_r_flaw,
    in_W,
    in_Y,
    pair_graph,
    recursion_det,
    recursion_trace,
    w_stratum,
    y_stratum,
)

NC = PartitionClass.NONCROSSING


def lower(n, blocks):
    return Partition.from_lower_blocks(n, blocks)


def delete_point(p: Partition, d: int) -> Partition:
    """Remove lower point d and renumber — used by the reduction tests."""
    blocks = []
    for blk in p.lower_blocks():
        nb = [x - 1 if x > d else x for x in blk if x != d]
        if nb:
            blocks.append(nb)
    return Partition.from_lower_blocks(p.lower - 1, blocks)


def connectivity_oracle(p: Partition, q: Partition, keep_from: int):
    """Adjacency-list BFS components of the stacked graph, an independent
    check on the union-find route.  Vertical edges only for i >= keep_from."""
    n = p.lower
    adj: dict[int, set[int]] = {v: set() for v in range(2 * n)}

    def join(a, b):
        adj[a].add(b)
        adj[b].add(a)

    for blk in p.lower_blocks():
        for a, b in zip(blk, blk[1:]):
            join(a - 1, b - 1)
    for blk in q.lower_blocks():
        for a, b in zip(blk, blk[1:]):
            join(n + a - 1, n + b - 1)
    for i in range(keep_from, n + 1):
        join(i - 1, n + i - 1)

    seen: dict[int, int] = {}
    comp = 0
    for start in range(2 * n):
        if start in seen:
            continue
        stack = [start]
        seen[start] = comp
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen[w] = comp
                    stack.append(w)
        comp += 1
    return comp, seen


def oracle_flaw(p: Partition, q: Partition, r: int) -> bool:
    """The level-r flaw pattern read off the BFS components of the cut graph."""
    if r == 0:
        return False
    n, s = p.lower, r // 2
    _, seen = connectivity_oracle(p, q, s + 2)
    tops = [seen[i] for i in range(s + 1)]
    bots = [seen[n + i] for i in range(s + 1)]
    if len(set(tops)) < s + 1 or len(set(bots)) < s + 1:
        return True
    if any(seen[i] != seen[n + i] for i in range(s)):
        return True
    return r % 2 == 1 and seen[s] != seen[n + s]


def oracle_entry(p: Partition, q: Partition, r: int, N: int) -> int:
    """e_r(p, q) from the BFS oracle: 0 on a flaw, else N^(components)."""
    if oracle_flaw(p, q, r):
        return 0
    return N ** connectivity_oracle(p, q, 1)[0]


@st.composite
def partition_pairs(draw, max_points: int = 8):
    """Two random (0, n) partitions, any class, with a level r < n."""
    n = draw(st.integers(min_value=1, max_value=max_points))

    def partition() -> Partition:
        rgs, top = [], 0
        for _ in range(n):
            v = draw(st.integers(min_value=0, max_value=top))
            rgs.append(v)
            top = max(top, v + 1)
        return Partition(0, n, tuple(rgs))

    return partition(), partition(), draw(st.integers(min_value=0, max_value=n - 1))


# ---------------------------------------------------------------------------
# strata


def test_w_chain_is_decreasing():
    for n in range(1, 7):
        sets = [set(w_stratum(n, r)) for r in range(n + 1)]
        assert sets[0] == set(enumerate_partitions(n, NC))
        assert sets[n] == set()
        for r in range(n):
            assert sets[r + 1] <= sets[r]


def test_top_stratum_is_a_single_partition():
    for n in range(1, 9):
        assert len(w_stratum(n, n - 1)) == 1


def test_y_strata_partition_the_noncrossing_set():
    for n in range(1, 8):
        count = 0
        seen = set()
        for r in range(n):
            ys = y_stratum(n, r)
            count += len(ys)
            assert not (seen & set(ys))
            seen |= set(ys)
        assert seen == set(enumerate_partitions(n, NC))
        assert count == len(enumerate_partitions(n, NC))


def test_y_membership_characterization():
    # inside W(n,r): Y-membership reads off the block of the pivot point
    for n in range(1, 8):
        for r in range(n):
            s = r // 2
            for p in w_stratum(n, r):
                blocks = {i: blk for blk in p.lower_blocks() for i in blk}
                if r == 2 * s:
                    expected = len(blocks[s + 1]) == 1
                else:
                    expected = blocks[s + 1] is blocks[s + 2]
                assert in_Y(p, r) == expected


def test_w_membership_examples():
    assert in_W(lower(4, [[1, 3], [2], [4]]), 2)
    assert not in_W(lower(4, [[1, 2, 3], [4]]), 2)  # first two points share a block
    assert not in_W(lower(4, [[1], [2, 3], [4]]), 1)  # point 1 is a singleton
    assert in_W(lower(4, [[1, 4], [2, 3]]), 3)
    for p in enumerate_partitions(5, NC):
        assert in_W(p, 0)
        assert not in_W(p, 5)


# ---------------------------------------------------------------------------
# graphs, flaws, entries


def test_component_counts_match_bfs_oracle():
    for n in (2, 3, 4):
        ps = enumerate_partitions(n, NC)
        for p in ps:
            for q in ps:
                g = pair_graph(p, q)
                oracle_full, _ = connectivity_oracle(p, q, 1)
                assert g.component_count == oracle_full
                for r in range(n):
                    s = r // 2
                    h = cut_graph(p, q, r)
                    oracle_cut, _ = connectivity_oracle(p, q, s + 2)
                    assert h.component_count == oracle_cut


def test_loop_count_equals_pair_graph_components():
    for n in range(1, 5):
        ps = enumerate_partitions(n, NC)
        for p in ps:
            for q in ps:
                loops = compose(involution(q), p).remaining_loops
                assert pair_graph(p, q).component_count == loops


def test_flaw_against_connectivity_oracle():
    for n in (3, 4, 5):
        ps = enumerate_partitions(n, NC)
        for r in range(n):
            for p in ps:
                for q in ps:
                    assert has_r_flaw(p, q, r) == oracle_flaw(p, q, r)


@given(partition_pairs())
def test_kernel_loop_counts_match_oracle_on_random_pairs(pair):
    p, q, r = pair
    n, s = p.lower, r // 2
    full, _ = connectivity_oracle(p, q, 1)
    assert pair_graph(p, q).component_count == full
    assert compose(involution(q), p).remaining_loops == full
    assert cut_graph(p, q, r).component_count == connectivity_oracle(p, q, s + 2)[0]
    assert has_r_flaw(p, q, r) == oracle_flaw(p, q, r)
    assert e_r(p, q, r, 3) == oracle_entry(p, q, r, 3)


def test_level_matrices_match_oracle_entry_for_entry():
    N = 4
    for n in range(1, 7):
        for r in range(n):
            for build in (build_A, build_B):
                m = build(n, r, N)
                for i, p in enumerate(m.row_labels):
                    for j, q in enumerate(m.col_labels):
                        assert m.entry(i, j) == oracle_entry(p, q, r, N)


def test_level_matrix_lists_y_then_w():
    for n in range(1, 7):
        for r in range(n):
            labels = tuple(y_stratum(n, r) + w_stratum(n, r + 1))
            assert build_A(n, r, 4).row_labels == labels


def test_gram_matrices_match_oracle_entry_for_entry():
    N = 3
    for cls in PartitionClass:
        for n in range(1, 7):
            m = build_gram(n, cls, N)
            assert m.row_labels == tuple(enumerate_partitions(n, cls))
            for i, p in enumerate(m.row_labels):
                for j, q in enumerate(m.col_labels):
                    assert m.entry(i, j) == N ** connectivity_oracle(p, q, 1)[0]


def test_entry_examples():
    p = lower(3, [[1], [2, 3]])
    q = lower(3, [[1], [2], [3]])
    assert e_r(p, q, 0, 4) == 16
    assert e_r(p, q, 1, 4) == 0  # both pivots are singletons: no 1~1' path


def test_level_zero_matrix_is_the_gram_matrix():
    for n in range(1, 6):
        a = build_A(n, 0, 4)
        g = build_gram(n, NC, 4)
        index = {p: i for i, p in enumerate(g.row_labels)}
        for i, p in enumerate(a.row_labels):
            for j, q in enumerate(a.col_labels):
                assert a.entry(i, j) == g.entry(index[p], index[q])


def test_top_level_matrix_is_one_by_one():
    for n in range(1, 9):
        for N in (4, 5):
            a = build_A(n, n - 1, N)
            assert a.entries == ((N ** ((n + 1) // 2),),)


def test_b_matrix_reduces_to_previous_level():
    # deleting the pivot point maps Y(n,r) onto W(n-1, r') and divides
    # every entry by N exactly when r is even (the closed pivot loop)
    for n in range(2, 7):
        for r in range(n):
            ys = y_stratum(n, r)
            if not ys:
                continue
            s = r // 2
            if r == 0:
                d, target_r, factor = 1, 0, 5
            elif r % 2 == 0:
                d, target_r, factor = s + 1, r - 1, 5
            else:
                d, target_r, factor = s + 2, r - 1, 1
            images = [delete_point(p, d) for p in ys]
            assert sorted(images) == sorted(w_stratum(n - 1, target_r))
            b = build_B(n, r, 5)
            for i, p in enumerate(ys):
                for j, q in enumerate(ys):
                    reduced = e_r(images[i], images[j], target_r, 5)
                    assert b.entry(i, j) == factor * reduced


# ---------------------------------------------------------------------------
# manipulations


def test_f_and_g_worked_examples():
    q = lower(4, [[1, 3], [2], [4]])
    assert f_manip(1, q, 1) == lower(4, [[1, 2], [3], [4]])
    assert g_manip(1, q, 1) == lower(4, [[1, 2, 3], [4]])

    q2 = lower(4, [[1, 4], [2, 3]])
    assert f_manip(1, q2, 2) == lower(4, [[1, 3], [2], [4]])
    assert f_manip(2, q2, 2) == lower(4, [[1, 4], [2], [3]])
    assert g_manip(1, q2, 2) == lower(4, [[1, 3, 4], [2]])


def test_manipulations_land_in_coarser_stratum():
    for n in range(2, 7):
        for r in range(n - 1):
            s = r // 2
            g_limit = s if r % 2 == 0 else s + 1
            for q in w_stratum(n, r + 1):
                for i in range(1, s + 2):
                    assert in_W(f_manip(i, q, r), r)
                for i in range(1, g_limit + 1):
                    assert in_W(g_manip(i, q, r), r)


def test_f_block_count_change():
    for n in range(2, 6):
        for r in range(n - 1):
            s = r // 2
            for q in w_stratum(n, r + 1):
                for i in range(1, s + 2):
                    delta = f_manip(i, q, r).block_count - q.block_count
                    assert delta == (1 if r % 2 == 0 else 0)


def test_g_block_count_change():
    for n in range(2, 6):
        for r in range(n - 1):
            s = r // 2
            g_limit = s if r % 2 == 0 else s + 1
            for q in w_stratum(n, r + 1):
                for i in range(1, g_limit + 1):
                    delta = g_manip(i, q, r).block_count - q.block_count
                    assert delta == (0 if r % 2 == 0 else -1)


def test_manipulation_argument_validation():
    q = lower(4, [[1, 4], [2, 3]])
    with pytest.raises(ValueError):
        f_manip(3, q, 2)  # i beyond s+1
    with pytest.raises(ValueError):
        g_manip(2, q, 2)  # even level: g stops at s
    with pytest.raises(ValueError):
        f_manip(1, lower(4, [[1], [2], [3], [4]]), 1)  # q not in W(4,2)


# ---------------------------------------------------------------------------
# structures


def test_structure_worked_examples():
    q = lower(4, [[1, 3, 4], [2]])
    assert classify_structure(lower(4, [[1, 2], [3, 4]]), q, 1) == StructI(1)
    assert classify_structure(lower(4, [[1, 2, 3, 4]]), q, 1) == StructPair(1)


def test_structures_are_mutually_exclusive():
    # re-derive the match set independently and require at most one hit
    from ncgram.tutte import _candidate_patterns, _mentioned

    for n in range(2, 6):
        for r in range(n - 1):
            for q in w_stratum(n, r + 1):
                for p in w_stratum(n, r):
                    h = cut_graph(p, q, r)
                    mentioned = _mentioned(n, r)
                    grouping: dict[int, set[int]] = {}
                    for v in mentioned:
                        cid = h.ids[v]
                        grouping.setdefault(cid, set()).add(v)
                    induced = frozenset(frozenset(g) for g in grouping.values())
                    hits = [
                        tag
                        for tag, pattern in _candidate_patterns(n, r)
                        if pattern == induced
                    ]
                    assert len(hits) <= 1
                    got = classify_structure(p, q, r)
                    if hits:
                        assert got == hits[0]
                    else:
                        assert got is None


def test_nonzero_next_level_entry_forces_the_covering_structure():
    for n in range(2, 6):
        for r in range(n - 1):
            for q in w_stratum(n, r + 1):
                for p in w_stratum(n, r):
                    if e_r(p, q, r + 1, 5) != 0:
                        assert classify_structure(p, q, r) == StructZero()


def test_component_shift_matches_direct_recount():
    # the table predicts changes of the full stacked-graph loop count,
    # not of the cut graph
    for n in range(2, 6):
        for r in range(n - 1):
            s = r // 2
            g_limit = s if r % 2 == 0 else s + 1
            for q in w_stratum(n, r + 1):
                for p in w_stratum(n, r):
                    base = pair_graph(p, q).component_count
                    for kind, limit in (("f", s + 1), ("g", g_limit)):
                        manip = f_manip if kind == "f" else g_manip
                        for i in range(1, limit + 1):
                            image = manip(i, q, r)
                            if has_r_flaw(p, image, r):
                                with pytest.raises(ValueError):
                                    component_shift(p, q, r, kind, i)
                                continue
                            try:
                                predicted = component_shift(p, q, r, kind, i)
                            except ValueError:
                                continue  # pattern outside the case table
                            actual = pair_graph(p, image).component_count - base
                            assert predicted == actual


# ---------------------------------------------------------------------------
# the F_r identity and the recursion


def test_f_r_single_value():
    p = Partition.one_block(4)
    q = lower(4, [[1, 3, 4], [2]])
    assert F_r_value(p, q, 1, 4) == Fraction(-3)


def test_f_r_identity_small():
    z = Fraction(1, 4)
    from ncgram.polynomials import beraha

    for n in (4, 5):
        for r in range(1, n - 1):
            lhs_sign = -1 if r % 2 else 1
            for q in w_stratum(n, r + 1):
                for p in w_stratum(n, r):
                    lhs = lhs_sign * F_r_value(p, q, r, 4)
                    rhs = beraha(r + 2).evaluate(z) * e_r(p, q, r, 4) - beraha(
                        r + 3
                    ).evaluate(z) * e_r(p, q, r + 1, 4)
                    assert lhs == rhs


def test_recursion_hand_value():
    for N in (4, 5, 7):
        assert recursion_det(2, N) == N**3 - N**2


def test_recursion_matches_direct_determinant():
    for n in range(1, 5):
        for N in (4, 5):
            assert recursion_det(n, N) == determinant(build_gram(n, NC, N))


def test_recursion_rejects_small_parameter():
    with pytest.raises(ValueError, match="N >= 4"):
        recursion_det(3, 3)
    with pytest.raises(ValueError):
        recursion_det(0, 4)


def test_recursion_trace_shape():
    value, trace = recursion_trace(2, 4)
    assert value == 48
    base_steps = [t for t in trace if "base_value" in t]
    factor_steps = [t for t in trace if "factor_beta" in t]
    assert len(base_steps) == 2  # one per level
    assert all(t["B_case"] in {"odd", "even", "zero"} for t in factor_steps)
    assert factor_steps[0] == {
        "level_n": 2,
        "r": 0,
        "factor_beta": "3/4",
        "exponent": 1,
        "B_case": "zero",
    }
