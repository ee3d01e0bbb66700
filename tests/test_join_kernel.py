"""The bitmask join kernel, checked against the union-find it replaced.

`block_forest`, `PairForest` and the forest versions of `compose` and of
the level-r entry are the package's earlier loop-count kernel, kept here
unchanged as oracles for `spreader`, `join_closure`, `join_labels` and
the bit-sliced exponent table. `_exponent_row`, the package's earlier
pair kernel, which read each component's terminals against a set of
allowed masks, is kept here unchanged as well: it checks the tables row
by row, and the label reads of `_pair_exponent`.
"""

from __future__ import annotations

import tracemalloc
from array import array
from typing import Sequence

from hypothesis import example, given
from hypothesis import strategies as st

import ncgram.gram
import ncgram.partitions
from ncgram.gram import _FLAW, _cut, _exponent_table, _pair_exponent
from ncgram.partitions import (
    Partition,
    PartitionClass,
    _canonical,
    compose,
    enumerate_partitions,
    join_closure,
    join_labels,
    spreader,
    stacked_places,
    stacked_spreader,
)
from ncgram.tutte import build_A, e_r, has_r_flaw, w_stratum

ALL = PartitionClass.ALL
NC = PartitionClass.NONCROSSING
NC2 = PartitionClass.NONCROSSING_PAIRS


# ---------------------------------------------------------------------------
# the union-find oracle


def block_forest(rgs: Sequence[int], offset: int = 0) -> list[int]:
    """One partition as a union-find forest: each point's parent is the
    first point of its block, with nodes numbered from `offset`."""
    first: dict[int, int] = {}
    return [first.setdefault(b, pos + offset) for pos, b in enumerate(rgs)]


class PairForest:
    """Union-find over the points of two partitions drawn one above the other.

    The nodes are the points of the upper partition followed by those of
    the lower one, each given as a `block_forest`, so the forest starts with
    one component per block. `glue` adds edges between the two rows and
    `components` counts what is left connected.
    """

    __slots__ = ("parent", "components")

    def __init__(self, upper: Sequence[int], lower: Sequence[int], blocks: int) -> None:
        self.parent = [*upper, *lower]
        self.components = blocks

    def find(self, x: int) -> int:
        """Root of node x, halving the path on the way."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def glue(self, first: int, second: int, count: int) -> None:
        """Join node first + i to node second + i for i = 0..count-1."""
        parent, find = self.parent, self.find
        for i in range(count):
            rx, ry = find(first + i), find(second + i)
            if rx != ry:
                parent[ry] = rx
                self.components -= 1


def oracle_compose(t: Partition, s: Partition) -> tuple[Partition, int]:
    """t ∘ s and its loop count, on the forest."""
    k, l, m = s.upper, s.lower, t.lower
    forest = PairForest(
        block_forest(s.rgs), block_forest(t.rgs, k + l), s.block_count + t.block_count
    )
    forest.glue(k, k + l, l)
    outer = [forest.find(x) for x in range(k)]
    outer += [forest.find(x) for x in range(k + l + l, k + l + l + m)]
    return Partition(k, m, _canonical(outer)), forest.components - len(set(outer))


def oracle_table(labels: Sequence[Partition], n: int, r: int) -> list[list[int]]:
    """The level-r exponent table on the forest, `_FLAW` on a flaw.

    The former single pass behind e_r, for the upper triangle of pairs:
    glue the cut graph, read the flaw pattern, glue the remaining
    verticals and count. Level 0 is the plain pair graph.
    """
    uppers = [block_forest(p.rgs) for p in labels]
    lowers = [block_forest(p.rgs, n) for p in labels]
    blocks = [p.block_count for p in labels]
    s = r // 2
    joined = s + r % 2
    size = len(labels)
    table = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(a, size):
            forest = PairForest(uppers[a], lowers[b], blocks[a] + blocks[b])
            forest.glue(s + 1, n + s + 1, n - s - 1)
            if r:
                tops = [forest.find(i) for i in range(s + 1)]
                bots = [forest.find(n + i) for i in range(s + 1)]
                if (
                    len(set(tops)) != s + 1
                    or len(set(bots)) != s + 1
                    or tops[:joined] != bots[:joined]
                ):
                    continue  # _FLAW
            forest.glue(0, n, s + 1)
            table[a][b] = table[b][a] = forest.components
    return table


# ---------------------------------------------------------------------------
# the kernel on arbitrary node sets

# 8/9 and 16/17 nodes lie on either side of one and two bytes of mask
WIDTHS = st.one_of(st.sampled_from([8, 9, 16, 17, 24]), st.integers(1, 24))


@st.composite
def rgs_of(draw, width: int) -> tuple[int, ...]:
    out, top = [], 0
    for _ in range(width):
        v = draw(st.integers(0, top))
        out.append(v)
        top = max(top, v + 1)
    return tuple(out)


@st.composite
def rgs_pairs(draw):
    width = draw(WIDTHS)
    return draw(rgs_of(width)), draw(rgs_of(width))


def block_masks(rgs: tuple[int, ...]) -> list[int]:
    """Each block of an RGS as a bitmask over its positions."""
    return [sum(1 << pos for pos, b in enumerate(rgs) if b == block) for block in set(rgs)]


def forest_components(first: tuple[int, ...], second: tuple[int, ...]) -> list[int]:
    """The join's components as masks, on the forest, lowest node first."""
    width = len(first)
    forest = PairForest(block_forest(first), block_forest(second, width), max(first) + max(second) + 2)
    forest.glue(0, width, width)
    masks: dict[int, int] = {}
    for x in range(width):
        root = forest.find(x)
        masks[root] = masks.get(root, 0) | 1 << x
    assert len(masks) == forest.components
    return sorted(masks.values(), key=lambda c: c & -c)


def forest_labels(
    first: tuple[int, ...], second: tuple[int, ...], nodes: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """The canonical labels of nodes by their components on the forest,
    and the number of components."""
    components = forest_components(first, second)
    index = [next(j for j, c in enumerate(components) if c >> node & 1) for node in nodes]
    return _canonical(index), len(components)


@given(rgs_pairs())
@example(((0,) * 8, tuple(range(8))))
@example((tuple(range(17)), (0,) * 17))
@example((tuple(i // 2 for i in range(16)), (0,) + tuple((i + 1) // 2 for i in range(15))))
@example(((0, *range(1, 15), 0), tuple(range(16))))
def test_join_labels_match_the_forest(pair):
    # labels of every node fix the components; the top half, read top
    # down, checks the canonical numbering of a subset in another order
    first, second = pair
    width = len(first)
    up, lo = spreader(first, range(width)), spreader(second, range(width))
    for nodes in (range(width), range(width - 1, width // 2 - 1, -1)):
        assert join_labels(up, lo, width, nodes) == forest_labels(first, second, nodes)


def test_join_labels_take_a_node_more_than_once():
    # glued points share a node in the stacked places, so the nodes of
    # both rows name each of those twice
    nodes = [*stacked_places(6, 2, False), *stacked_places(6, 2, True)]
    assert len(nodes) == 12 and len(set(nodes)) == 8
    first, second = (0, 1, 0, 2, 2, 1, 3, 1), (0, 0, 1, 2, 1, 3, 3, 4)
    up, lo = spreader(first, range(8)), spreader(second, range(8))
    assert join_labels(up, lo, 8, nodes) == forest_labels(first, second, nodes)


@given(rgs_pairs(), st.data())
def test_closure_is_the_union_of_the_components_met(pair, data):
    first, second = pair
    width = len(first)
    m = data.draw(st.integers(0, (1 << width) - 1))
    want = sum(c for c in forest_components(first, second) if c & m)
    up, lo = spreader(first, range(width)), spreader(second, range(width))
    assert join_closure(up, lo, m) == want


@given(rgs_pairs(), st.data())
def test_spread_is_the_union_of_the_blocks_met(pair, data):
    first, _ = pair
    width = len(first)
    m = data.draw(st.integers(0, (1 << width) - 1))
    assert spreader(first, range(width))(m) == sum(b for b in block_masks(first) if b & m)


def test_spread_treats_undrawn_nodes_as_singletons():
    # one block of two positions, drawn on nodes 0 and 2 of a wider mask
    spread = spreader((0, 0), (0, 2))
    for width in (4, 9, 16, 17, 25):
        assert spread(0b1) == spread(0b100) == 0b101
        assert spread(0b10) == 0b10
        assert spread(1 << (width - 1)) == 1 << (width - 1)
    assert spreader((), ())(0) == 0


# ---------------------------------------------------------------------------
# composition


@st.composite
def composable(draw):
    """s ∈ P(k, l) and t ∈ P(l, m), up to 24 nodes in the glued diagram."""
    k, l, m = (draw(st.integers(0, 8)) for _ in range(3))
    s = draw(rgs_of(k + l))
    t = draw(rgs_of(l + m))
    return Partition(l, m, t), Partition(k, l, s)


@given(composable())
@example((Partition(8, 8, tuple(range(8)) * 2), Partition(8, 8, (0,) * 16)))
@example((Partition(0, 0, ()), Partition(0, 0, ())))
def test_compose_matches_the_forest(shapes):
    t, s = shapes
    assert tuple(compose(t, s)) == oracle_compose(t, s)


# ---------------------------------------------------------------------------
# pair entries and level tables


def test_pair_entries_match_the_forest_exhaustively():
    # e_r and has_r_flaw on every pair of noncrossing partitions, every r
    for n in range(1, 6):
        labels = enumerate_partitions(n, NC)
        for r in range(n):
            want = oracle_table(labels, n, r)
            for a, p in enumerate(labels):
                for b, q in enumerate(labels):
                    assert has_r_flaw(p, q, r) == (want[a][b] == _FLAW)
                    assert e_r(p, q, r, 3) == (0 if want[a][b] == _FLAW else 3 ** want[a][b])


def _exponents(points: int, length: int) -> bytearray | array:
    """`length` zero exponents of at most `points`, a byte each below 256 points."""
    return bytearray(length) if points < 256 else array("H" if points < 1 << 16 else "Q", [0]) * length


def _exponent_row(up, lows, points: int, r: int) -> bytearray | array:
    """The exponents of one row partition p against a run of columns q.

    `up` is the `stacked_spreader` of p on top and `lows` are those of the
    columns below it, all with `_cut(r)` verticals cut. The exponent is
    the number of components of the pair graph of p over q, or `_FLAW` if
    the pair has a level-r flaw (`tutte.has_r_flaw`).

    The cut graph's components are walked lowest node first, so those that
    hold terminals (the ends of the cut verticals, nodes 0..2·cut−1) come
    first, and each component's terminals decide: none adds a component;
    exactly i and i′ (node cut + i), or at even r one end of the s+1
    vertical alone (s = r // 2), is allowed; any other set is a flaw.
    Glued back, the cut verticals leave a flawless pair's terminals in cut
    components, so its exponent is cut plus its terminal-free components.
    """
    cut = _cut(r)
    width = points + cut
    terminals = (1 << 2 * cut) - 1
    allowed = {1 << i | 1 << (cut + i) for i in range(cut)}
    if cut and not r % 2:  # the s+1 vertical may stay cut
        allowed |= {1 << (cut - 1), 1 << (2 * cut - 1)}
    row = _exponents(points, len(lows))
    for b, lo in enumerate(lows):
        rest = (1 << width) - 1
        count = cut
        while rest:
            component = join_closure(up, lo, rest & -rest)
            rest ^= component
            if not component & terminals:
                count += 1
            elif component & terminals not in allowed:
                break
        else:
            row[b] = count
    return row


def row_kernel_table(labels: Sequence[Partition], n: int, r: int) -> list:
    """The level-r table row by row on the pair kernel (`_exponent_row`),
    every pair of it, on plain spreaders."""
    cut = _cut(r)
    lows = [stacked_spreader(q, cut, True) for q in labels]
    return [_exponent_row(stacked_spreader(p, cut, False), lows, n, r) for p in labels]


def test_exponent_tables_match_the_forest_exhaustively():
    # every pair of NC(n), n ≤ 7, at every level, and at level 0, the
    # default and the plain pair graph of the Gram matrix, of ALL(n ≤ 6)
    # and NC2(n ≤ 12); all of them bit-sliced
    cases = [(NC, n, r) for n in range(1, 8) for r in range(n)]
    cases += [(ALL, n, 0) for n in range(1, 7)] + [(NC2, n, 0) for n in range(2, 13, 2)]
    for cls, n, r in cases:
        labels = tuple(enumerate_partitions(n, cls))
        want = [bytes(row) for row in oracle_table(labels, n, r)]
        assert list(_exponent_table(labels, n, r)) == want
        assert row_kernel_table(labels, n, r) == want
        if r == 0:
            assert list(_exponent_table(labels, n)) == want


def test_pair_labels_match_the_row_kernel_exhaustively():
    # the terminal labels of `_pair_exponent` against the allowed terminal
    # masks of `_exponent_row`, on every pair at every level
    cases = [(NC, n) for n in range(1, 7)] + [(ALL, n) for n in range(1, 6)]
    for cls, n in cases:
        labels = enumerate_partitions(n, cls)
        for r in range(n):
            want = [list(row) for row in row_kernel_table(labels, n, r)]
            assert [[_pair_exponent(p, q, r) for q in labels] for p in labels] == want, (cls, n, r)


def test_sliced_tables_match_the_pair_kernel_across_row_chunks():
    # ALL(7) has 877 rows of 880 bits, six chunks of 148 rows at most
    labels = tuple(enumerate_partitions(7, ALL))
    for r in (0, 3, 6):
        assert list(_exponent_table(labels, 7, r)) == row_kernel_table(labels, 7, r)


def test_wide_sliced_tables_match_both_oracles():
    # level 8 of 11 points is 16 nodes and level 10 is 17, where the row
    # chunks start to shrink with the square of the width: W(11, 8) and a
    # slice of NC(11), whose flaw patterns are mostly broken; W(12, 8) is
    # 350 rows on 17 nodes, two chunks
    stratum = tuple(w_stratum(11, 8))
    sliced = tuple(enumerate_partitions(11, NC)[::600])
    cases = ((stratum, 11, 8), (stratum, 11, 10), (sliced, 11, 8), (sliced, 11, 10))
    for labels, n, r in cases + ((tuple(w_stratum(12, 8)), 12, 8),):
        want = [bytes(row) for row in oracle_table(labels, n, r)]
        assert list(_exponent_table(labels, n, r)) == want
        assert row_kernel_table(labels, n, r) == want


def test_exponent_tables_on_either_side_of_a_lane_boundary():
    # level 168 of 170 points is 255 nodes and level 169 of 171 is 256,
    # both summed in 1-byte lanes, which are sized by the points; level 398
    # of 400 points is 600 nodes in 2-byte lanes, whose rows are 16-bit
    # arrays: a slice of each top stratum and the extreme partitions, at
    # the top level and at level 0
    for n, r in ((170, 168), (171, 169), (400, 398)):
        labels = (*w_stratum(n, r)[::20], Partition.singletons(n), Partition.one_block(n))
        for level in (r, 0):
            want = oracle_table(labels, n, level)
            table = _exponent_table(labels, n, level)
            assert {type(row) for row in table} == {bytes if n < 256 else array}
            assert [list(row) for row in table] == want
            assert [list(row) for row in row_kernel_table(labels, n, level)] == want


def test_root_counts_carry_across_the_bit_planes():
    # the one block over itself or over the singletons has n − 1 non-roots
    # at level 0, so at n = 2^k − 1, 2^k and 2^k + 1 the count in the bit
    # planes stops short of the top plane, fills every plane, and carries
    # into a new one; the top level r = n − 1 counts them on its cut graph
    for n in sorted({2**k + d for k in range(1, 8) for d in (-1, 0, 1)}):
        labels = (Partition.one_block(n), Partition.singletons(n))
        for r in (0, n - 1):
            want = [[_pair_exponent(p, q, r) for q in labels] for p in labels]
            assert [list(row) for row in _exponent_table(labels, n, r)] == want, (n, r)


def test_exponent_tables_of_65536_points_sum_in_4_byte_lanes():
    # the loop counts of the two extreme partitions are known in closed
    # form: n loops of the singletons over themselves and one otherwise,
    # and at level 1 every pair but one_block over itself is flawed
    n = 1 << 16
    labels = (Partition.singletons(n), Partition.one_block(n))
    for r, want in ((0, [[n, 1], [1, 1]]), (1, [[_FLAW, _FLAW], [_FLAW, 1]])):
        table = _exponent_table(labels, n, r)
        assert all(row.typecode == "I" for row in table)
        assert [list(row) for row in table] == want


def test_no_table_reaches_the_pair_kernel(monkeypatch):
    # every table is bit-sliced at any width, so a wide top level builds
    # with the pair kernel and the join closure both gone
    def no_pair_kernel(*args):
        raise AssertionError("a table was filled pair by pair")

    monkeypatch.setattr(ncgram.gram, "_pair_exponent", no_pair_kernel)
    monkeypatch.setattr(ncgram.partitions, "join_closure", no_pair_kernel)
    assert build_A(300, 298, 4).nrows == 300
    blocks = (range(600), [0] * 600, [i // 2 for i in range(600)])
    labels = tuple(Partition(0, 600, tuple(rgs)) for rgs in blocks)
    assert [list(row) for row in _exponent_table(labels, 600, 5)] == oracle_table(labels, 600, 5)


def test_exponent_table_of_no_labels_is_empty():
    for n, r in ((3, 0), (3, 2), (20, 0), (20, 19)):
        assert _exponent_table((), n, r) == ()


@st.composite
def labels_and_level(draw):
    """A list of (0, n) partitions, n ≤ 8, duplicates allowed, and r < n."""
    n = draw(st.integers(1, 8))
    labels = draw(st.lists(rgs_of(n), min_size=1, max_size=12))
    return tuple(Partition(0, n, rgs) for rgs in labels), n, draw(st.integers(0, n - 1))


@given(labels_and_level())
@example(((Partition.singletons(8),) * 2 + (Partition.one_block(8),), 8, 7))
def test_sliced_tables_match_the_pair_entries(case):
    labels, n, r = case
    want = [[_pair_exponent(p, q, r) for q in labels] for p in labels]
    assert [list(row) for row in _exponent_table(labels, n, r)] == want


def test_exponent_table_memory_is_bounded_by_the_row_chunks():
    # NC(8) at level 0: the 1430 × 1430 bytes of the table itself and the
    # masks of one chunk of rows, not a spread table per label; W(42, 39)
    # is 902 rows on 62 nodes, whose 62² masks shrink each chunk
    cases = ((tuple(enumerate_partitions(8, NC)), 8, 0), (tuple(w_stratum(42, 39)), 42, 39))
    for labels, n, r in cases:
        tracemalloc.start()
        try:
            _exponent_table(labels, n, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


def test_exponent_tables_hold_loop_counts_past_a_byte():
    # 300 singletons over themselves close 300 loops, more than a byte holds
    n = 300
    assert e_r(Partition.singletons(n), Partition.singletons(n), 0, 4) == 4**n
    # at level 0, 255 points make the widest table summed in 1-byte lanes,
    # which just hold 255 loops; 256 points take 2-byte lanes
    for n in (255, 256, 600):
        labels = (
            Partition.singletons(n),
            Partition.one_block(n),
            Partition(0, n, tuple(i // 2 for i in range(n))),
            Partition(0, n, (0, *range(1, n - 1), 0)),
        )
        for r in (0, 1, 2, 5):
            assert [list(row) for row in _exponent_table(labels, n, r)] == oracle_table(labels, n, r)
    # a flawless pair at 255 points and level 1, on 256 nodes: p = {1, 2}
    # plus singletons over itself makes 254 components, in a 1-byte lane
    pair = (Partition(0, 255, (0, 0, *range(1, 254))),)
    assert list(_exponent_table(pair, 255, 1)[0]) == [254]
    assert oracle_table(pair, 255, 1) == [[254]] == [list(row) for row in row_kernel_table(pair, 255, 1)]
    m = build_A(n, n - 1, 4)
    want = oracle_table(m.row_labels, n, n - 1)
    assert m.entries == tuple(tuple(0 if e == _FLAW else 4**e for e in row) for row in want)
