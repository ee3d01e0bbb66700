"""The bitmask join kernel, checked against the union-find it replaced.

`block_forest`, `PairForest` and the forest versions of `compose` and of
the level-r entry are the package's earlier loop-count kernel, kept here
unchanged as oracles for `spreader`, `tabulated`, `join_closure` and the
exponent table.
"""

from __future__ import annotations

from typing import Sequence

from hypothesis import example, given
from hypothesis import strategies as st

from ncgram.gram import _FLAW, _exponent_table
from ncgram.partitions import (
    Partition,
    PartitionClass,
    _canonical,
    compose,
    enumerate_partitions,
    join_closure,
    join_components,
    spreader,
    tabulated,
)
from ncgram.tutte import build_A, e_r, has_r_flaw

NC = PartitionClass.NONCROSSING


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

# 8/9 nodes cross the 8-bit chunk boundary of the spread tables, and 16/17
# the edge between two tables and the block-by-block spread of a wider mask
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


def spreaders(rgs: tuple[int, ...], width: int):
    """The spreader of rgs drawn on nodes 0..width-1, plain and tabulated."""
    spread = spreader(rgs, range(len(rgs)))
    return spread, tabulated(spread, width)


@given(rgs_pairs())
@example(((0,) * 8, tuple(range(8))))
@example((tuple(range(17)), (0,) * 17))
@example((tuple(i // 2 for i in range(16)), (0,) + tuple((i + 1) // 2 for i in range(15))))
@example(((0, *range(1, 15), 0), tuple(range(16))))
def test_join_components_match_the_forest(pair):
    first, second = pair
    width = len(first)
    want = forest_components(first, second)
    for up, lo in zip(spreaders(first, width), spreaders(second, width)):
        assert join_components(up, lo, width) == want


@given(rgs_pairs(), st.data())
def test_closure_is_the_union_of_the_components_met(pair, data):
    first, second = pair
    width = len(first)
    m = data.draw(st.integers(0, (1 << width) - 1))
    want = sum(c for c in forest_components(first, second) if c & m)
    for up, lo in zip(spreaders(first, width), spreaders(second, width)):
        assert join_closure(up, lo, m) == want


@given(rgs_pairs(), st.data())
def test_spread_is_the_union_of_the_blocks_met(pair, data):
    first, _ = pair
    width = len(first)
    m = data.draw(st.integers(0, (1 << width) - 1))
    want = sum(b for b in block_masks(first) if b & m)
    for spread in spreaders(first, width):
        assert spread(m) == want


def test_spread_treats_undrawn_nodes_as_singletons():
    # one block of two positions, drawn on nodes 0 and 2 of a wider mask
    for width in (4, 9, 16, 17, 25):
        plain = spreader((0, 0), (0, 2))
        for spread in (plain, tabulated(plain, width)):
            assert spread(0b1) == spread(0b100) == 0b101
            assert spread(0b10) == 0b10
            assert spread(1 << (width - 1)) == 1 << (width - 1)
    assert tabulated(spreader((), ()), 0)(0) == 0


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


def test_exponent_tables_match_the_forest_exhaustively():
    # every pair of NC(n), n ≤ 7, at every level; level 0, the default, is
    # the plain pair graph of the Gram matrix
    for n in range(1, 8):
        labels = tuple(enumerate_partitions(n, NC))
        for r in range(n):
            want = [bytes(row) for row in oracle_table(labels, n, r)]
            assert list(_exponent_table(labels, n, r)) == want
            if r == 0:
                assert list(_exponent_table(labels, n)) == want


def test_exponent_tables_hold_loop_counts_past_a_byte():
    # 300 singletons over themselves close 300 loops, more than a byte holds
    n = 300
    assert e_r(Partition.singletons(n), Partition.singletons(n), 0, 4) == 4**n
    n = 600
    labels = (
        Partition.singletons(n),
        Partition.one_block(n),
        Partition(0, n, tuple(i // 2 for i in range(n))),
        Partition(0, n, (0, *range(1, n - 1), 0)),
    )
    for r in (0, 1, 2, 5):
        assert [list(row) for row in _exponent_table(labels, n, r)] == oracle_table(labels, n, r)
    m = build_A(n, n - 1, 4)
    want = oracle_table(m.row_labels, n, n - 1)
    assert m.entries == tuple(tuple(0 if e == _FLAW else 4**e for e in row) for row in want)
