"""Strata, cut graphs, flaws, manipulations, structures, and the
determinant recursion."""

from __future__ import annotations

import gc
import inspect
import random
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction
from itertools import accumulate
from math import comb, log2
from time import perf_counter, sleep

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncgram import tutte
from ncgram.errors import BudgetError, ShapeError
from ncgram.formulas import difrancesco_exponents
from ncgram.gram import (
    DET_DIMENSION_BUDGET,
    RECURSION_BIT_BUDGET,
    _exponent_table,
    build_gram,
    determinant,
)
from ncgram.partitions import (
    Partition,
    PartitionClass,
    block_masks,
    compose,
    enumerate_partitions,
    involution,
    join_labels,
    kernel,
    stacked_places,
)
from ncgram.polynomials import IntPolynomial, beraha, power_product
from ncgram.tutte import (
    F_r_value,
    _strata_counts,
    _structures,
    build_A,
    build_B,
    classify_structure,
    component_shift,
    e_r,
    f_manip,
    g_manip,
    has_r_flaw,
    in_W,
    in_Y,
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
    check on the join kernel.  Vertical edges only for i >= keep_from.
    Returns the component count and each node's component, p's point i
    at node i - 1 and q's at node n + i - 1."""
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


def kernel_labels(p: Partition, q: Partition, keep_from: int) -> tuple[int, ...]:
    """The join kernel's components of the stacked graph, read in the oracle's
    node order and numbered canonically: the first keep_from - 1 verticals
    are cut, so q's points there are nodes of their own."""
    n, cut = p.lower, keep_from - 1
    above, below = stacked_places(n, cut, False), stacked_places(n, cut, True)
    labels, _ = join_labels(block_masks(p.rgs, above), block_masks(q.rgs, below), [*above, *below])
    return labels


def oracle_labels(p: Partition, q: Partition, keep_from: int) -> tuple[int, ...]:
    """The BFS oracle's components, node by node, numbered canonically."""
    _, seen = connectivity_oracle(p, q, keep_from)
    return kernel([seen[v] for v in range(2 * p.lower)]).rgs


def oracle_entry(p: Partition, q: Partition, r: int, N: int) -> int:
    """e_r(p, q) from the BFS oracle: 0 on a flaw, else N^(components)."""
    if oracle_flaw(p, q, r):
        return 0
    return N ** connectivity_oracle(p, q, 1)[0]


def draw_partition(draw, n: int) -> Partition:
    """A random (0, n) partition of any class, drawn as a restricted-growth string."""
    rgs, top = [], 0
    for _ in range(n):
        v = draw(st.integers(min_value=0, max_value=top))
        rgs.append(v)
        top = max(top, v + 1)
    return Partition(0, n, tuple(rgs))


@st.composite
def partition_pairs(draw, max_points: int = 8):
    """Two random (0, n) partitions, any class, with a level r < n."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    return draw_partition(draw, n), draw_partition(draw, n), draw(st.integers(0, n - 1))


@st.composite
def partitions(draw, max_points: int = 10):
    """One random (0, n) partition, any class, the empty one included."""
    return draw_partition(draw, draw(st.integers(min_value=0, max_value=max_points)))


def oracle_in_W(p: Partition, r: int) -> bool:
    """The stratum test read off the definition, one level at a time.

    r = 2s: the s leftmost points are non-singletons and the s+1 leftmost
    lie in pairwise different blocks. r = 2s+1: the s+1 leftmost points are
    non-singletons in pairwise different blocks. r = 0 is no condition,
    r = n is empty.
    """
    n = p.points
    if r == 0:
        return True
    if r == n:
        return False
    rgs = p.rgs
    sizes: dict[int, int] = {}
    for b in rgs:
        sizes[b] = sizes.get(b, 0) + 1
    s = r // 2
    front = rgs[: s + 1]
    heavy = rgs[:s] if r % 2 == 0 else front
    return len(set(front)) == len(front) and all(sizes[b] >= 2 for b in heavy)


def stratum_level(p: Partition) -> int:
    """The largest r with p ∈ W(n,r), from one scan of the whole RGS.

    With a the number of leading points in pairwise different blocks and b
    the number of leading non-singletons, the level is 2a−1 if a ≤ b and
    2b otherwise (0 for the empty partition). The reference for the prefix
    rule of `in_W`: p ∈ W(n,r) iff r ≤ stratum_level(p).
    """
    rgs = p.rgs
    a = 0  # points 1..a lie in pairwise different blocks, block i-1 holding point i
    while a < len(rgs) and rgs[a] == a:
        a += 1
    later = set(rgs[a:])  # the blocks of points 1..a that are not singletons
    b = 0
    while b < a and b in later:
        b += 1
    return max(2 * a - 1, 0) if b == a else 2 * b


def prefix_in_W(p: Partition, r: int) -> bool:
    """The prefix test `in_W` answered every question with before it kept
    the last partition's level: rgs[s] = s, then the s + (r mod 2) blocks
    j < s + (r mod 2) looked for after position s. The oracle of the
    kernel the level replaced."""
    if r == 0:
        return True
    s = r // 2
    rgs = p.rgs
    if r == p.points or rgs[s] != s:
        return False
    rest = rgs[s + 1 :]
    return all(j in rest for j in range(s + r % 2))


def assert_strata_match_oracle(p: Partition) -> None:
    n = p.points
    member = [oracle_in_W(p, r) for r in range(n + 1)]
    assert [prefix_in_W(p, r) for r in range(n + 1)] == member
    assert stratum_level(p) == max(r for r in range(n + 1) if member[r])
    for r in range(n + 1):
        assert in_W(p, r) == member[r]
    for r in range(n):
        assert in_Y(p, r) == (member[r] and not member[r + 1]) == (stratum_level(p) == r)


def assert_every_order_matches_oracle(parts: list[Partition], seed: int) -> None:
    """`in_W` and `in_Y` against `oracle_in_W`, and `prefix_in_W` and
    `stratum_level` against it too, on every partition of one class at one
    point count, at every r: one pass each asking the levels ascending,
    descending and shuffled, so each partition's first question, the one
    that reads its level, falls at a different r, and one pass alternating
    the questions about two neighbours, so that every question reads a
    level."""
    n = parts[0].points
    members = []
    for p in parts:
        member = [oracle_in_W(p, r) for r in range(n + 1)]
        assert [prefix_in_W(p, r) for r in range(n + 1)] == member
        assert stratum_level(p) == max(r for r in range(n + 1) if member[r])
        members.append(member)
    rng = random.Random(seed)
    orders = [
        lambda n: range(n + 1),
        lambda n: range(n, -1, -1),
        lambda n: rng.sample(range(n + 1), n + 1),
    ]
    for order in orders:
        for p, member in zip(parts, members):
            levels = list(order(n))
            assert [in_W(p, r) for r in levels] == [member[r] for r in levels]
            below = [r for r in levels if r < n]
            assert [in_Y(p, r) for r in below] == [member[r] > member[r + 1] for r in below]
    for (p, member), (q, other) in zip(zip(parts, members), zip(parts[1:], members[1:])):
        for r in range(n + 1):
            assert in_W(p, r) == member[r]
            assert in_W(q, r) == other[r]


def catalan_triangle_w(n: int, r: int) -> int:
    """|W(n,r)| = (r+2)/(n+1) · C(2n−1−r, n−1−r) for 0 ≤ r < n."""
    numerator = (r + 2) * comb(2 * n - 1 - r, n - 1 - r)
    assert numerator % (n + 1) == 0
    return numerator // (n + 1)


# ---------------------------------------------------------------------------
# strata


def test_levels_match_oracle_on_every_noncrossing_partition():
    for n in range(12):
        assert_every_order_matches_oracle(enumerate_partitions(n, NC), n)


def test_levels_match_oracle_on_every_partition():
    # the level rule rests on the RGS normal form, not on noncrossing
    for n in range(9):
        assert_every_order_matches_oracle(enumerate_partitions(n, PartitionClass.ALL), 100 + n)


def test_strata_reject_partitions_with_an_upper_row():
    # the prefix test reads p.rgs, whose first positions are the upper row
    p = Partition(1, 3, (0, 1, 0, 2))
    for r in range(4):
        with pytest.raises(ShapeError):
            in_W(p, r)
        with pytest.raises(ShapeError):
            in_Y(p, r)


def test_the_level_memo_tells_partitions_apart_by_identity():
    # two objects with one RGS answer alike, and a two-row partition built
    # on a one-row partition's very RGS tuple is still refused
    one, other = Partition(0, 5, (0, 1, 0, 1, 2)), Partition(0, 5, (0, 1, 0, 1, 2))
    assert one == other and one is not other
    upper = Partition(1, 4, one.rgs)
    assert upper.rgs is one.rgs
    for r in range(6):
        assert in_W(one, r) == in_W(other, r) == in_W(one, r) == oracle_in_W(one, r)
        for _ in range(2):  # a refused partition is refused again at once
            with pytest.raises(ShapeError, match="strata are defined on"):
                in_W(upper, r)
        assert in_W(one, r) == oracle_in_W(one, r)
        with pytest.raises(ShapeError):
            in_Y(upper, min(r, 4))


def test_a_refused_question_leaves_later_answers_right():
    p = lower(6, [[1, 4], [2, 3], [5, 6]])  # level 3
    q = lower(6, [[1], [2, 3, 4, 5, 6]])  # level 0
    upper = Partition(1, 5, (0, 1, 0, 1, 2, 2))
    expected = {x: [oracle_in_W(x, r) for r in range(7)] for x in (p, q)}
    assert expected[p].count(True) == 4 and expected[q].count(True) == 1
    refusals = [
        (lambda: in_W(p, 7), ValueError, "stratum level r=7 out of range for n=6"),
        (lambda: in_W(q, -1), ValueError, "stratum level r=-1 out of range for n=6"),
        (lambda: in_W(upper, 2), ShapeError, "strata are defined on (0, n) partitions"),
        (lambda: in_Y(p, 6), ValueError, "stratum level r=6 out of range for n=6"),
    ]
    for call, error, message in refusals:
        for x in (p, q, p, p, q, q):
            with pytest.raises(error) as caught:
                call()
            assert str(caught.value) == message
            assert [in_W(x, r) for r in range(7)] == expected[x]
            with pytest.raises(error):
                call()  # refused again right after a hit
            assert [in_W(x, r) for r in range(6, -1, -1)] == expected[x][::-1]


def test_threads_sort_different_classes_at_once(monkeypatch):
    # the memo is one tuple, read once into a local and replaced whole; four
    # threads, more than the cores, and a level read that yields to another
    # thread before it reads put a thread switch inside every miss
    jobs = [enumerate_partitions(9, NC), enumerate_partitions(7, PartitionClass.ALL)]
    jobs += [enumerate_partitions(8, NC), enumerate_partitions(6, PartitionClass.ALL)]
    expected = [[stratum_level(p) for p in parts] for parts in jobs]
    found: list[list[int]] = [[] for _ in jobs]
    start = threading.Barrier(len(jobs))
    read = tutte._level

    def yielding_level(rgs):
        sleep(0)
        return read(rgs)

    monkeypatch.setattr(tutte, "_level", yielding_level)

    def sort(k: int) -> None:
        start.wait()
        for p in jobs[k]:
            found[k].append(sum(in_W(p, r) for r in range(1, p.points + 1)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sort, args=(k,)) for k in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == expected


def test_the_level_memo_keeps_only_the_last_partition_alive():
    enabled = gc.isenabled()
    gc.disable()
    try:
        first, second = Partition(0, 4, (0, 1, 0, 2)), Partition(0, 4, (0, 1, 2, 3))
        first_ref, second_ref = weakref.ref(first), weakref.ref(second)
        assert in_W(first, 1) and not in_W(second, 1)
        del first
        assert first_ref() is None  # freed by its count alone: no cycle holds it
        del second
        assert second_ref() is not None  # the memo holds the last partition asked about
        assert in_W(Partition(0, 3, (0, 1, 0)), 1)
        assert second_ref() is None
    finally:
        if enabled:
            gc.enable()


@given(partitions())
def test_levels_match_oracle_on_random_partitions(p):
    assert_strata_match_oracle(p)


def test_strata_reject_out_of_range_levels():
    with pytest.raises(ValueError):
        in_Y(Partition.empty(), 0)
    p = lower(3, [[1, 3], [2]])
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            in_W(p, bad)
        with pytest.raises(ValueError):
            w_stratum(3, bad)
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            in_Y(p, bad)
        with pytest.raises(ValueError):
            y_stratum(3, bad)


def strata_counts_by_enumeration(n: int) -> tuple[list[int], list[int]]:
    """(#W(n,r))_{r=0..n}, (#Y(n,r))_{r<n} by sorting every p ∈ NC(0,n)
    into its level: the oracle for the closed-form `_strata_counts`."""
    at_level = [0] * (n + 1)
    for p in enumerate_partitions(n, NC):
        at_level[stratum_level(p)] += 1
    return list(accumulate(reversed(at_level)))[::-1], at_level[:n]


def test_closed_form_strata_counts_match_the_enumeration():
    for n in range(1, 11):
        assert _strata_counts(n) == strata_counts_by_enumeration(n)


def test_strata_counts_follow_the_catalan_triangle():
    for n in range(1, 10):
        w_counts, y_counts = _strata_counts(n)
        assert w_counts == [catalan_triangle_w(n, r) for r in range(n)] + [0]
        below = [1] if n == 1 else [catalan_triangle_w(n - 1, max(r - 1, 0)) for r in range(n)]
        assert y_counts == below


def test_w_chain_is_decreasing():
    for n in range(1, 7):
        sets = [set(w_stratum(n, r)) for r in range(n + 1)]
        assert sets[0] == set(enumerate_partitions(n, NC))
        assert sets[n] == set()
        for r in range(n):
            assert sets[r + 1] <= sets[r]


def test_strata_walk_matches_the_filter_oracle():
    # the walk generates W(n,r) from its prefix; the oracle sorts every
    # p ∈ NC(0,n) into its level and keeps the enumeration order
    for n in range(11):
        ps = enumerate_partitions(n, NC)
        levels = [stratum_level(p) for p in ps]
        for r in range(n + 1):
            assert w_stratum(n, r) == [p for p, level in zip(ps, levels) if r <= level]
        for r in range(n):
            assert y_stratum(n, r) == [p for p, level in zip(ps, levels) if level == r]


def w_walk_oracle(n: int, r: int) -> list[Partition]:
    """W(n,r) by the stratum walk tutte once held beside the enumerator.

    With r = 2s or 2s+1, W(n,r) holds the noncrossing partitions whose RGS
    starts 0, 1, …, s and whose first u = s + (r mod 2) points are not
    singletons. From that prefix the walk follows the noncrossing rule,
    while u counts the bottom blocks that still wait for a second point: a
    point opens a block, or joins an open block b ≥ u−1, and joining
    b = u−1 meets that block. A branch with fewer points left than u is cut.
    """
    if n == 0:
        return [Partition.empty()]
    s = r // 2
    out = []
    todo = [(tuple(range(s + 1)), s + 1, tuple(range(s + 1)), s + r % 2)]
    while todo:
        prefix, blocks, stack, u = todo.pop()
        i = len(prefix)
        if u > n - i:
            continue
        if i == n:
            out.append(Partition(0, n, prefix))
            continue
        todo.append((prefix + (blocks,), blocks + 1, stack + (blocks,), u))
        for j in reversed(range(len(stack))):
            b = stack[j]
            if b < u - 1:
                break
            todo.append((prefix + (b,), blocks, stack[: j + 1], u - (b == u - 1)))
    return out


def test_strata_match_the_walk_oracle():
    # the one generator lists every stratum as the separate walk did, order
    # included; the level matrices are built where they have few rows
    for n in range(12):
        for r in range(n + 1):
            walk = w_walk_oracle(n, r)
            assert w_stratum(n, r) == walk
            if r == n:
                continue
            ys = [p for p in walk if stratum_level(p) == r]
            assert y_stratum(n, r) == ys
            if len(walk) <= 500:
                labels = tuple(ys + [p for p in walk if stratum_level(p) > r])
                a, b = build_A(n, r, 4), build_B(n, r, 4)
                assert a.row_labels == a.col_labels == labels
                assert b.row_labels == b.col_labels == tuple(ys)
    assert w_stratum(0, 0) == [Partition.empty()]
    assert [w_stratum(n, n) for n in range(1, 12)] == [[]] * 11


def test_the_top_level_matrix_of_thirty_points_lists_one_label():
    # #W(30, 29) = 1, and the walk reaches it without passing through the
    # C_30 ≈ 3.8·10^15 partitions of NC(0, 30)
    start = perf_counter()
    assert build_A(30, 29, 4).entries == ((4**15,),)
    assert perf_counter() - start < 1


def test_a_wide_top_level_builds_no_spread_table():
    # A(1000, 999) is one label on a cut graph of 1000 + 500 nodes: a
    # spread table per 8-bit chunk of its masks peaked at 14.6 MiB,
    # growing with the square of the width
    tracemalloc.start()
    try:
        entries = build_A(1000, 999, 4).entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entries == ((4**500,),)
    assert peak < 1 << 20


def test_a_level_entry_far_past_the_points_forms_its_powers_once_each():
    # the one entry of A(600, 599) is N^300; the powers up to N^300, the
    # block count of its one label, are one multiplication each, where each
    # power formed on its own took 14 s; the powers up to the point count,
    # N^600, peaked at 76 MiB, and those up to N^300 at 19 MiB (2-core AMD
    # EPYC)
    N = 10**1000
    start = perf_counter()
    tracemalloc.start()
    try:
        entries = build_A(600, 599, N).entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entries == ((N**300,),)
    assert perf_counter() - start < 10
    assert peak < 1 << 25


def test_no_level_entry_passes_the_block_counts_of_its_pair():
    # every entry is the flaw or the loop count rl(q*, p), at most
    # min(b(p), b(q)), so the powers a matrix forms stop at the largest
    # block count among its labels; checked on every level table W(n, r)
    # with n ≤ 8 and every class table with n ≤ 6
    tables = [(tuple(w_stratum(n, r)), n, r) for n in range(1, 9) for r in range(n)]
    tables += [
        (tuple(enumerate_partitions(n, cls)), n, 0)
        for n in range(1, 7)
        for cls in PartitionClass
    ]
    for labels, n, r in tables:
        table = _exponent_table(labels, n, r)
        blocks = [max(p.rgs) + 1 for p in labels]
        assert all(max(row) <= b for row, b in zip(table, blocks)), (n, r)
        assert all(max(col) <= b for col, b in zip(zip(*table), blocks)), (n, r)


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
                assert kernel_labels(p, q, 1) == oracle_labels(p, q, 1)
                for r in range(n):
                    s = r // 2
                    assert kernel_labels(p, q, s + 2) == oracle_labels(p, q, s + 2)


def test_loop_count_equals_pair_graph_components():
    for n in range(1, 5):
        ps = enumerate_partitions(n, NC)
        for p in ps:
            for q in ps:
                loops = compose(involution(q), p).remaining_loops
                assert connectivity_oracle(p, q, 1)[0] == loops


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
    s = r // 2
    full, _ = connectivity_oracle(p, q, 1)
    assert compose(involution(q), p).remaining_loops == full
    assert kernel_labels(p, q, 1) == oracle_labels(p, q, 1)
    assert kernel_labels(p, q, s + 2) == oracle_labels(p, q, s + 2)
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
    for n in range(1, 8):
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


def manip_oracle(kind: str, i: int, q: Partition, r: int) -> Partition:
    """f_manip and g_manip as first written, one loop each, both reading
    only q.rgs and skipping the argument checks: the oracle for the shared
    rewiring."""
    n, s = q.points, r // 2
    orig = q.rgs
    ids = list(orig)
    if kind == "f":
        for j in range(i, s + 1):
            ids[j - 1] = orig[j]
    else:
        if r % 2 == 1 and i == s + 1:
            target, source = orig[s], orig[s + 1]
            return kernel([target if b == source else b for b in orig])
        absorbed = orig[i]
        for pos, b in enumerate(orig):
            if b == absorbed:
                ids[pos] = orig[i - 1]
        for j in range(i + 1, s + 1):
            ids[j - 1] = orig[j]
    ids[s] = n if r % 2 == 0 else orig[s + 1]
    return kernel(ids)


def test_manipulations_match_the_oracle():
    for n in range(2, 9):
        for r in range(n - 1):
            s = r // 2
            g_limit = s if r % 2 == 0 else s + 1
            for q in w_stratum(n, r + 1):
                for i in range(1, s + 2):
                    assert f_manip(i, q, r) == manip_oracle("f", i, q, r)
                for i in range(1, g_limit + 1):
                    assert g_manip(i, q, r) == manip_oracle("g", i, q, r)


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
    assert classify_structure(lower(4, [[1, 2], [3, 4]]), q, 1) == (1,)
    assert classify_structure(lower(4, [[1, 2, 3, 4]]), q, 1) == (1, 2)


def mentioned_nodes(n: int, r: int) -> list[int]:
    """Cut-graph node indices of 1..s+1, then 1'..t' (t = s+1, or s+2 at odd r)."""
    s = r // 2
    primed_count = s + 2 if r % 2 == 1 else s + 1
    return [*range(s + 1), *(n + j for j in range(primed_count))]


def candidate_patterns(n: int, r: int):
    """(tag, grouping of the mentioned nodes) per structure of level r, each
    grouping a frozenset of frozensets of node indices: the structures as
    first written, the oracle for the label table `_structures`."""
    s = r // 2
    odd = r % 2 == 1

    def vert(j: int) -> frozenset[int]:
        return frozenset({j - 1, n + j - 1})

    def diag(j: int) -> frozenset[int]:
        return frozenset({j - 1, n + j})

    for i in range(1, s + 2):
        groups = [vert(j) for j in range(1, i)]
        groups.append(frozenset({n + i - 1}))
        groups += [diag(j) for j in range(i, s + 2 if odd else s + 1)]
        if not odd:
            groups.append(frozenset({s}))
        yield (i,), frozenset(groups)
    for i in range(1, s + 2 if odd else s + 1):
        groups = [vert(j) for j in range(1, i)]
        groups.append(frozenset({i - 1, n + i - 1, n + i}))
        groups += [diag(j) for j in range(i + 1, s + 2 if odd else s + 1)]
        if not odd:
            groups.append(frozenset({s}))
        yield (i, i + 1), frozenset(groups)
    groups = [vert(j) for j in range(1, s + 2)]
    if odd:
        groups.append(frozenset({n + s + 1}))
    yield (0,), frozenset(groups)


def matching_patterns(p: Partition, q: Partition, r: int) -> list:
    """The tags whose grouping equals the cut graph's on the mentioned nodes,
    read off the BFS oracle."""
    n = p.points
    _, seen = connectivity_oracle(p, q, r // 2 + 2)
    grouping: dict[int, set[int]] = {}
    for node in mentioned_nodes(n, r):
        grouping.setdefault(seen[node], set()).add(node)
    induced = frozenset(frozenset(group) for group in grouping.values())
    return [tag for tag, pattern in candidate_patterns(n, r) if pattern == induced]


def test_structures_are_mutually_exclusive():
    # one key per structure: s+1 of [i], s or s+1 of [i, i+1] and [0]; two
    # equal keys would merge silently in the dict
    for s in range(11):
        for odd in (False, True):
            assert len(_structures(s, odd)) == 2 * s + 2 + odd

    def pairs():
        for n in range(2, 6):  # every noncrossing pair
            ps = enumerate_partitions(n, NC)
            for r in range(n - 1):
                yield from ((p, q, r) for p in ps for q in ps)
        for r in range(5):  # the stratum pairs the case table is about
            yield from ((p, q, r) for q in w_stratum(6, r + 1) for p in w_stratum(6, r))

    for p, q, r in pairs():
        hits = matching_patterns(p, q, r)
        assert len(hits) <= 1
        assert classify_structure(p, q, r) == (hits[0] if hits else None)


def test_nonzero_next_level_entry_forces_the_covering_structure():
    for n in range(2, 6):
        for r in range(n - 1):
            for q in w_stratum(n, r + 1):
                for p in w_stratum(n, r):
                    if e_r(p, q, r + 1, 5) != 0:
                        assert classify_structure(p, q, r) == (0,)


def test_component_shift_matches_direct_recount():
    # the table predicts changes of the full stacked-graph loop count,
    # not of the cut graph
    for n in range(2, 6):
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
                                with pytest.raises(ValueError):
                                    component_shift(p, q, r, kind, i)
                                continue
                            try:
                                predicted = component_shift(p, q, r, kind, i)
                            except ValueError:
                                continue  # pattern outside the case table
                            actual = compose(involution(image), p).remaining_loops - base
                            assert predicted == actual


# ---------------------------------------------------------------------------
# the F_r identity and the recursion


def test_f_r_single_value():
    p = Partition.one_block(4)
    q = lower(4, [[1, 3, 4], [2]])
    assert F_r_value(p, q, 1, 4) == Fraction(-3)


def test_f_r_rejects_a_nonpositive_parameter():
    p = Partition.one_block(4)
    q = lower(4, [[1, 3, 4], [2]])
    for N in (0, -1):
        with pytest.raises(ValueError, match="N must be positive"):
            F_r_value(p, q, 1, N)


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
    # level 0 in stratum order, inside the bit budget read off its entries
    for N in (4, 2**64):
        assert recursion_det(7, N) == determinant(build_A(7, 0, N))


def test_recursion_rejects_small_parameter():
    with pytest.raises(ValueError, match="N >= 4"):
        recursion_det(3, 3)
    with pytest.raises(ValueError):
        recursion_det(0, 4)


def recursion_trace_top_down(n: int, N: int) -> tuple[Fraction, list[dict]]:
    """The recursion as first written, memoised top-down through a
    recursive closure: the oracle for the bottom-up `recursion_trace`."""
    z = Fraction(1, N)
    memo: dict[tuple[int, int], Fraction] = {}
    trace: list[dict] = []

    def level(m: int, r: int) -> Fraction:
        if (m, r) in memo:
            return memo[(m, r)]
        if r == m - 1:
            base = Fraction(N ** ((m + 1) // 2))
            trace.append({"level_n": m, "r": r, "base_value": str(base)})
            memo[(m, r)] = base
            return base
        w_counts, y_counts = _strata_counts(m)
        factor = beraha(r + 3).evaluate(z) / beraha(r + 2).evaluate(z)
        if r % 2 == 1:
            b_case, b_det = "odd", level(m - 1, r - 1)
        elif r > 0:
            b_case, b_det = "even", N ** y_counts[r] * level(m - 1, r - 1)
        else:
            b_case, b_det = "zero", N ** y_counts[0] * level(m - 1, 0)
        trace.append(
            {
                "level_n": m,
                "r": r,
                "factor_beta": str(factor),
                "exponent": w_counts[r + 1],
                "B_case": b_case,
            }
        )
        memo[(m, r)] = value = factor ** w_counts[r + 1] * b_det * level(m, r + 1)
        return value

    return level(n, 0), trace


def test_recursion_trace_matches_the_top_down_oracle():
    # value and step list, order included: the CLI prints both
    for n in range(1, 11):
        for N in (4, 5, 7, 9):
            assert recursion_trace(n, N) == recursion_trace_top_down(n, N)


def test_recursion_values_are_integers():
    for n in (1, 2, 5, 8):
        for N in (4, 9):
            assert type(recursion_det(n, N)) is int
            assert type(recursion_trace(n, N)[0]) is int


def test_recursion_exponents_match_the_pair_formula_exponents():
    # Two codes in exponent space: the recursion's power of
    # c_k = N^{deg β_k}·β_k(1/N) = V_{k-1}(N), where U_i(δ) = δ^{i mod 2}·V_i(δ²),
    # against Di Francesco's a_{n,i}. The power of N is C_n, that of V_i is
    # a_{n,i} for i ≥ 2, and V_1 = 1 (c_2) absorbs the rest.
    for n in range(1, 41):
        for levels, _ in tutte._level_exponents(n):
            exponents = levels[0]  # level(n, 0) once the walk ends
        a = difrancesco_exponents(n)
        catalan = comb(2 * n, n) // (n + 1)
        assert exponents[0] == catalan
        assert exponents[1] == 0
        assert [exponents[i + 1] for i in range(2, n + 1)] == [a[i] for i in range(2, n + 1)], n
        # the same power of N on the formula's side, from its odd U_i
        assert sum(a_i for i, a_i in a.items() if i % 2) == catalan


def test_every_level_of_the_recursion_equals_its_determinant():
    # the recursion is a chain over the levels: each vector it builds on
    # the way to det A(7, 0), multiplied out, is det A(m, r) by elimination,
    # and so is each step of the chain, with det B(m, r) eliminated too:
    # det A(m, r) = (c_{r+3}/(c_{r+2}·N^{1−r%2}))^{#W(m, r+1)} · det B(m, r)
    # · det A(m, r+1), and det B(m, r) = f^{#Y(m, r)} · det A(m−1, max(r−1, 0))
    # with f = 1 at odd r and N otherwise
    for N in (4, 5):
        # the bases formed here, not by recursion_trace: c_k is β_k reversed, at N
        bases = [N] + [IntPolynomial(beraha(k).coeffs[::-1]).evaluate(N) for k in range(1, 9)]
        A = {}
        for m, (levels, _) in enumerate(tutte._level_exponents(7), 1):
            assert len(levels) == m
            for r, exponents in enumerate(levels):
                A[m, r] = determinant(build_A(m, r, N))
                assert power_product(zip(bases, exponents)) == A[m, r], (m, r, N)
        steps = 0
        for m in range(2, 8):
            w_counts, y_counts = _strata_counts(m)
            for r in range(m - 1):
                B = determinant(build_B(m, r, N))
                ratio = Fraction(bases[r + 3], bases[r + 2] * N ** (1 - r % 2))
                assert A[m, r] == ratio ** w_counts[r + 1] * B * A[m, r + 1], (m, r, N)
                f = 1 if r % 2 else N
                assert B == f ** y_counts[r] * A[m - 1, max(r - 1, 0)], (m, r, N)
                steps += 1
        assert steps == 21


def test_the_walk_multiplied_out_over_the_integer_polynomials_is_the_gram_determinant():
    # Tutte's recursion as an identity in ℤ[X], not at sample points: the
    # walk's level-0 vector over X, c_1(X), …, c_{n+1}(X), its negative
    # powers divided out exactly, is the symbolic det G_NC(n) by elimination
    X = IntPolynomial.x()
    for n in range(1, 7):
        bases = [X] + [IntPolynomial(beraha(k).coeffs[::-1]) for k in range(1, n + 2)]
        for levels, _ in tutte._level_exponents(n):
            pass
        num = den = IntPolynomial((1,))
        for base, e in zip(bases, levels[0]):
            if e > 0:
                num *= base**e
            else:
                den *= base**-e
        assert num.divexact(den) == determinant(build_gram(n, NC, None)), n


def test_level_walk_holds_one_point_count():
    # the walk keeps level(m−1, ·) while it builds level(m, ·): to n = 200
    # its peak is some 5 MiB, where every level of every point count held
    # at once took 138 MiB
    tracemalloc.start()
    try:
        for count, (levels, _) in enumerate(tutte._level_exponents(200), 1):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == len(levels) == 200
    assert peak < 40 << 20


def test_level_walk_takes_no_parameter():
    # every exponent is a sum of strata counts, the same at any N
    assert list(inspect.signature(tutte._level_exponents).parameters) == ["n"]


def test_every_recursion_base_is_positive_from_four_on():
    # c_k, β_k with its coefficients reversed, is V_{k−1}, whose roots lie
    # in [0, 4): shifted to x + 4 every coefficient is positive, so by
    # Descartes' rule of signs no base of the recursion vanishes at N ≥ 4
    x_plus_4 = IntPolynomial.x() + 4
    for k in range(1, 202):
        shifted = IntPolynomial(beraha(k).coeffs[::-1]).evaluate(x_plus_4)
        assert shifted.coeffs and all(c > 0 for c in shifted.coeffs), k


def test_recursion_trace_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        result = recursion_trace(10, 4)
        del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_recursion_refuses_past_the_bit_budget_before_any_rational(monkeypatch):
    def no_rationals(*args):
        raise AssertionError("the recursion started")

    monkeypatch.setattr(tutte, "Fraction", no_rationals)
    monkeypatch.setattr("ncgram.polynomials.beraha", no_rationals)
    monkeypatch.setattr(tutte, "beraha_bases", no_rationals)
    for n, N in ((13, 4), (12, 9), (30, 4), (10**4, 5)):
        with pytest.raises(BudgetError):
            recursion_trace(n, N)


def test_recursion_bit_budget_admits_every_tested_job():
    # Σ b(p) over NC(0,n) is C_n·(n+1)/2 = C(2n, n)/2, so |det| ≤ N to that
    # power (Hadamard). The bound of every job in the tests and the
    # benchmark (n ≤ 10, N ≤ 7) and of (12, 4) lies inside the budget.
    for n in range(1, 11):
        assert 2 * sum(p.block_count for p in enumerate_partitions(n, NC)) == comb(2 * n, n)

    def bound(n: int, N: int) -> float:
        return comb(2 * n, n) / 2 * log2(N)

    assert bound(10, 7) < bound(12, 4) <= RECURSION_BIT_BUDGET < bound(13, 4)
    for N in (4, 7):
        assert recursion_det(8, N).numerator.bit_length() <= bound(8, N)


def test_level_matrices_refuse_past_the_budget_before_any_enumeration(monkeypatch):
    # #W(11, 0) = 58786 and #Y(11, 0) = 16796 rows are counted in closed
    # form, as is #W(8000, 0), a number of 4811 digits; listing a single
    # label, by a stratum or by the class, would fail the test. tutte
    # binds the generator by name, so it is patched there as well.
    def no_enumeration(*args):
        raise AssertionError("the labels were enumerated")

    monkeypatch.setattr(tutte, "_enumerate", no_enumeration)
    monkeypatch.setattr("ncgram.partitions._enumerate", no_enumeration)
    monkeypatch.setattr("ncgram.partitions.enumerate_partitions", no_enumeration)
    assert _strata_counts(11)[0][0] == 58786 and _strata_counts(11)[1][0] == 16796
    for n, r in ((11, 0), (11, 3), (8000, 0)):
        for build in (build_A, build_B):
            with pytest.raises(BudgetError, match="budget"):
                build(n, r, 4)


def test_level_matrices_refuse_ten_million_points_from_small_counts(monkeypatch):
    # #W(n, r) and #Y(n, r) grow with n, so the first count past the budget
    # refuses; no binomial of millions of points is formed
    real_count = tutte._w_count

    def small_count(n, r):
        if n > 30:
            raise AssertionError(f"#W({n}, {r}) was computed")
        return real_count(n, r)

    monkeypatch.setattr(tutte, "_w_count", small_count)
    for build in (build_A, build_B):
        for r in (0, 1, 5):
            started = perf_counter()
            with pytest.raises(BudgetError, match="over"):
                build(10**7, r, 4)
            assert perf_counter() - started < 1


def test_level_budget_refuses_exactly_the_levels_past_it():
    # the stepped refusal decides as the count at n itself would
    for n in range(1, 16):
        w_counts, y_counts = _strata_counts(n)
        for r in range(n):
            for corner, size in ((False, w_counts[r]), (True, y_counts[r])):
                if size > DET_DIMENSION_BUDGET:
                    with pytest.raises(BudgetError):
                        tutte._check_level_budget(n, r, corner)
                else:
                    tutte._check_level_budget(n, r, corner)


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


def test_every_level_check_keeps_its_bounds_and_message():
    # one range check serves every level argument; each caller passes its
    # own bounds, and the messages are the ones each check had inline
    q = lower(5, [[1, 4], [2, 5], [3]])
    p = lower(5, [[1, 3], [2, 4], [5]])
    refused = [
        (lambda: w_stratum(4, 5), "stratum level r=5 out of range for n=4"),
        (lambda: w_stratum(4, -1), "stratum level r=-1 out of range for n=4"),
        (lambda: y_stratum(4, 4), "stratum level r=4 out of range for n=4"),
        (lambda: in_Y(q, 5), "stratum level r=5 out of range for n=5"),
        (lambda: in_W(q, 6), "stratum level r=6 out of range for n=5"),
        (lambda: e_r(p, q, 5, 4), "flaw level r=5 out of range for n=5"),
        (lambda: build_A(5, 5, 4), "level level r=5 out of range for n=5"),
        (lambda: f_manip(1, q, 4), "manipulation level r=4 out of range for n=5"),
        (lambda: g_manip(1, q, -1), "manipulation level r=-1 out of range for n=5"),
        (lambda: classify_structure(p, q, 4), "structure level r=4 out of range for n=5"),
        (lambda: F_r_value(p, q, 0, 4), "column level r=0 out of range for n=5"),
        (lambda: F_r_value(p, q, 4, 4), "column level r=4 out of range for n=5"),
    ]
    for call, message in refused:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == message
    assert len(w_stratum(4, 4)) == 0 and w_stratum(4, 0) == enumerate_partitions(4, NC)
    assert classify_structure(p, q, 3) == classify_structure(p, q, 3)
    assert F_r_value(p, q, 1, 4) == F_r_value(p, q, 1, 4)


@pytest.mark.parametrize("points, bad", [(4.0, 1.0), (True, True)])
def test_every_level_check_refuses_a_level_that_is_not_an_int(points, bad):
    # the strata reach the generator past the checked constructor:
    # w_stratum(3.0, 1) once listed Partition('0|3.0|…') and build_A(3.0,
    # 1, 4) stopped in a `range` of the budget; in_W keeps its own check
    q = lower(5, [[1, 4], [2, 5], [3]])
    p = lower(5, [[1, 3], [2, 4], [5]])
    refused = [
        (lambda: w_stratum(points, 1), "stratum", points, 1),
        (lambda: w_stratum(4, bad), "stratum", 4, bad),
        (lambda: y_stratum(points, 0), "stratum", points, 0),
        (lambda: y_stratum(4, bad), "stratum", 4, bad),
        (lambda: in_Y(q, bad), "stratum", 5, bad),
        (lambda: e_r(p, q, bad, 4), "flaw", 5, bad),
        (lambda: has_r_flaw(p, q, bad), "flaw", 5, bad),
        (lambda: build_A(points, 1, 4), "level", points, 1),
        (lambda: build_A(4, bad, 4), "level", 4, bad),
        (lambda: build_B(points, 1, 4), "level", points, 1),
        (lambda: build_B(4, bad, 4), "level", 4, bad),
        (lambda: f_manip(1, q, bad), "manipulation", 5, bad),
        (lambda: g_manip(1, q, bad), "manipulation", 5, bad),
        (lambda: classify_structure(p, q, bad), "structure", 5, bad),
        (lambda: component_shift(p, q, bad, "f", 1), "manipulation", 5, bad),
        (lambda: F_r_value(p, q, bad, 4), "column", 5, bad),
    ]
    for call, what, n, r in refused:
        with pytest.raises(TypeError) as caught:
            call()
        assert str(caught.value) == f"{what} level needs int n and r, not n={n!r}, r={r!r}"
    assert w_stratum(4, 1) == [p for p in enumerate_partitions(4, NC) if in_W(p, 1)]


def test_the_trace_lists_each_point_count_ascending_then_its_base():
    # each m's steps come out of the descending walk that builds its
    # exponents, reversed: r = 0, 1, …, m − 2, then the base case at m − 1
    for N in (4, 5):
        _, trace = recursion_trace(9, N)
        assert [(t["level_n"], t["r"]) for t in trace] == [
            (m, r) for m in range(1, 10) for r in range(m)
        ]
        assert ["base_value" in t for t in trace] == [
            r == m - 1 for m in range(1, 10) for r in range(m)
        ]
