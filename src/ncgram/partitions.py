"""Two-row set partitions and their diagram operations.

A partition on (k, l) points divides the tagged point set

    u1 < u2 < ... < uk < l1 < l2 < ... < ll

(k points on an upper row, l points on a lower row) into non-empty disjoint
blocks. Drawn as a diagram, points of a block are joined by lines; the
operations below (horizontal concatenation, vertical composition with loop
removal, mirroring at either axis, corner rotations) are the usual
diagram-category operations.

Canonical form is a restricted-growth string (RGS) over the point order
above: position t carries the id of its block, ids numbered 0,1,2,... by
first occurrence. The RGS is unique per partition, hashes in O(1), and its
lexicographic order fixes the enumeration order everywhere in this package.

Two partitions drawn on one set of nodes (stacked in a pair graph, or
glued along a row in a composition) connect into the components of their
join, and every loop count in the package is a number of such
components. Blocks are bitmasks over the nodes. A `spreader` maps a mask
to the union of the blocks that meet it, block by block, and
`join_closure` grows a mask by the blocks of both partitions to a
fixpoint, which is one or more whole components. `join_labels` walks
the components and returns the canonical labels of the nodes asked for
and their count: every read of one pair (a composition, a single matrix
entry and its flaw, a structure) is that one call plus a lookup. Every
Gram and level table is filled by `gram`, all pairs at once, from the
node pairs each block joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import RotationUndefined, ShapeError

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_BYTES = bytes.maketrans(bytes(range(len(_DIGITS))), _DIGITS.encode())


class PartitionClass(Enum):
    ALL = "all"
    NONCROSSING = "noncrossing"
    NONCROSSING_PAIRS = "noncrossing_pairs"


class Corner(Enum):
    """The four corner rotations: the row an extremal point leaves, its side, its direction."""

    UPPER_RIGHT_DOWN = "upper_right_down"
    LOWER_RIGHT_UP = "lower_right_up"
    UPPER_LEFT_DOWN = "upper_left_down"
    LOWER_LEFT_UP = "lower_left_up"


class PointLabel(NamedTuple):
    row: str  # "upper" | "lower"
    index: int  # 1-based position within the row


def _canonical(labels: Iterable[int]) -> tuple[int, ...]:
    """Relabel arbitrary block ids by first occurrence: the RGS normal form."""
    seen: dict[int, int] = {}
    out = []
    for v in labels:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


@dataclass(frozen=True, order=True)
class Partition:
    """An immutable two-row set partition in RGS canonical form.

    The three fields live in slots, with no instance dict, and a partition
    can be weakly referenced. Slots are declared in the class body, not by
    the dataclass flag, which cannot add `__weakref__` before Python 3.11.
    A frozen slotted instance cannot be restored field by field, so it
    pickles and copies as a call of the checked constructor.
    """

    __slots__ = ("upper", "lower", "rgs", "__weakref__")

    upper: int
    lower: int
    rgs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.rgs, tuple):
            raise TypeError(f"RGS must be a tuple, not {type(self.rgs).__name__}")
        if type(self.upper) is not int or type(self.lower) is not int:
            raise TypeError(f"row sizes must be ints, not ({self.upper!r}, {self.lower!r})")
        if not {int}.issuperset(map(type, self.rgs)):
            raise TypeError(f"RGS entries must be ints, not {self.rgs!r}")
        if self.upper < 0 or self.lower < 0:
            raise ValueError("negative row size")
        if len(self.rgs) != self.upper + self.lower:
            raise ValueError("RGS length does not match point count")
        if self.rgs != _canonical(self.rgs):
            raise ValueError(f"RGS {self.rgs!r} is not in canonical form")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_blocks(
        cls, upper: int, lower: int, blocks: Iterable[Iterable[PointLabel | tuple[str, int]]]
    ) -> Partition:
        """Build from explicit blocks of (row, index) labels; must cover all points."""
        ids = [-1] * (upper + lower)
        rows = {"upper": (upper, 0), "lower": (lower, upper)}  # row -> (size, first position)
        for b, block in enumerate(blocks):
            for row, index in block:
                if row not in rows:
                    raise ValueError(f"unknown row {row!r}")
                size, first = rows[row]
                if not 1 <= index <= size:
                    raise ValueError(f"{row} index {index} out of range")
                pos = first + index - 1
                if ids[pos] != -1:
                    raise ValueError("blocks are not disjoint")
                ids[pos] = b
        if -1 in ids:
            raise ValueError("blocks do not cover all points")
        return cls(upper, lower, _canonical(ids))

    @classmethod
    def from_lower_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> Partition:
        """Build a (0, n) partition from blocks of 1-based point numbers."""
        return cls.from_blocks(0, n, [[("lower", i) for i in block] for block in blocks])

    @classmethod
    def from_text(cls, text: str) -> Partition:
        k, l, rgs = text.split("|")
        return cls(int(k), int(l), tuple(_DIGITS.index(c) for c in rgs))

    @classmethod
    def empty(cls) -> Partition:
        return cls(0, 0, ())

    @classmethod
    def identity(cls, n: int) -> Partition:
        """id^{⊗n} ∈ P(n,n): ui joined to li."""
        return cls(n, n, tuple(range(n)) + tuple(range(n)))

    @classmethod
    def pair(cls) -> Partition:
        """⊓ ∈ P(0,2): the two lower points joined."""
        return cls(0, 2, (0, 0))

    @classmethod
    def singletons(cls, n: int) -> Partition:
        """The all-singletons partition on (0, n)."""
        return cls(0, n, tuple(range(n)))

    @classmethod
    def one_block(cls, n: int) -> Partition:
        return cls(0, n, (0,) * n)

    # -- structure ---------------------------------------------------------

    @property
    def points(self) -> int:
        return self.upper + self.lower

    @property
    def block_count(self) -> int:
        return len(set(self.rgs))

    def lower_blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks of a (0, n) partition as 1-based point tuples."""
        if self.upper:
            raise ShapeError("lower_blocks is only defined on (0, n) partitions")
        groups: list[list[int]] = [[] for _ in range(self.block_count)]
        for pos, b in enumerate(self.rgs):
            groups[b].append(pos + 1)
        return tuple(tuple(g) for g in groups)

    def is_pair_partition(self) -> bool:
        sizes = [0] * self.block_count
        for b in self.rgs:
            sizes[b] += 1
        return all(s == 2 for s in sizes)

    def to_text(self) -> str:
        if self.rgs and max(self.rgs) >= len(_DIGITS):  # a canonical RGS numbers its blocks 0, 1, …
            raise ValueError("too many blocks for the text encoding")
        return f"{self.upper}|{self.lower}|{bytes(self.rgs).translate(_DIGIT_BYTES).decode()}"

    def __repr__(self) -> str:
        return f"Partition({self.to_text()!r})"

    def __reduce__(self) -> tuple:
        return Partition, (self.upper, self.lower, self.rgs)


_set_upper, _set_lower, _set_rgs = (
    Partition.upper.__set__, Partition.lower.__set__, Partition.rgs.__set__
)


def _generated(points: int, rgs: tuple[int, ...]) -> Partition:
    """A (0, points) partition from an RGS that is canonical by construction.

    For generator output only: it skips the dataclass `__init__` and the
    canonical-form check, which otherwise take most of the enumeration
    time. The result equals, and hashes as, `Partition(0, points, rgs)`.
    The slots are filled by their member descriptors, bound once above,
    which the frozen `__setattr__` does not guard: about 60 ns a call,
    against 100 ns for `object.__setattr__` by name (2-core Intel Xeon,
    Python 3.11).
    """
    p = object.__new__(Partition)
    _set_upper(p, 0)
    _set_lower(p, points)
    _set_rgs(p, rgs)
    return p


class Composition(NamedTuple):
    partition: Partition
    remaining_loops: int


def enumerate_partitions(
    points: int, cls: PartitionClass = PartitionClass.ALL
) -> list[Partition]:
    """All (0, points) partitions of the class, as a list in the order of
    `iter_partitions`."""
    return list(iter_partitions(points, cls))


def iter_partitions(
    points: int, cls: PartitionClass = PartitionClass.ALL
) -> Iterator[Partition]:
    """All (0, points) partitions of the class, in RGS-lexicographic order.

    One restricted-growth generator prunes while it builds, so no string
    outside the class is ever made. Each position joins a block that is
    still open, or opens a new one. The open blocks form a stack in
    opening order, and the class decides which of them a position may join:

    - ALL: any block, and every block stays open.
    - NONCROSSING: any block on the stack; joining it closes every block
      opened after it, since a later point in one of those would cross.
    - NONCROSSING_PAIRS: only the top of the stack, which then closes; a
      new block opens only while enough positions remain to close every
      open block.

    Block ids on the stack increase from bottom to top and a new block
    gets a larger id than all of them, so trying the choices in that order
    yields the RGS-lexicographic order of all Bell(points) strings, with
    the strings outside the class left out. Matrix labels and cache keys
    follow this order.
    """
    _check_class(points, cls)
    return _enumerate(points, cls, 0, 0)  # a generator: the checks above run at the call


def _check_class(points: int, cls: PartitionClass) -> None:
    """Refuse a negative point count, and a class that is not a `PartitionClass` member."""
    if points < 0:
        raise ValueError("negative point count")
    if not isinstance(cls, PartitionClass):
        raise TypeError(f"partition class must be a PartitionClass, not {cls!r}")


def _enumerate(
    points: int, cls: PartitionClass, opened: int, waiting: int
) -> Iterator[Partition]:
    """The generator of `iter_partitions`, started after the prefix
    0, 1, …, opened−1 with its bottom `waiting` blocks still singletons.

    A waiting block must take another point. `tutte` lists each stratum
    W(n,r) from such a start under the noncrossing rule: with u blocks
    waiting, a point joins an open block j ≥ u−1 or opens one, since
    joining a lower block would close block u−1 while it waits, and
    joining block u−1 ends its wait. The waiting blocks keep their places
    0..u−1 at the bottom of the stack, so the joins start at index u−1
    and need no test of block ids. In NC2 every open block waits for its
    second point, so the same rule lets a point join only the top of the
    stack. The waits make one cut, made where a branch is pushed:
    it goes on only while no more blocks wait than positions remain
    after it. With the start held to the same cut, and in NC2 to an even
    count of the positions left over, no branch ends empty-handed.
    """
    # Depth first over (prefix, blocks opened, open stack, blocks waiting);
    # each node's choices go on in descending order, so the smallest is
    # taken next and the partitions come out in RGS-lexicographic order.
    # At the last position each choice completes a partition, which is
    # yielded in place, smallest first, and never goes on the work list.
    # The work list holds at most points + 1 branches per position, so a
    # consumer that does not keep the partitions needs memory polynomial
    # in `points`, not in the size of the class.
    pairs, every = cls is PartitionClass.NONCROSSING_PAIRS, cls is PartitionClass.ALL
    start, free = tuple(range(opened)), points - opened - waiting  # positions no wait needs
    todo = [(start, opened, start, waiting)] if free >= 0 and not (pairs and free % 2) else []
    while todo:
        prefix, blocks, stack, waiting = todo.pop()
        i = len(prefix)
        if i == points:  # a complete start: every branch stops at the last position
            yield _generated(points, prefix)
            continue
        room = points - i - 1  # the positions after this one
        opens = waiting + pairs <= room
        # the open blocks this position may join: stack[low], ..., stack[top]
        if every:
            low, top = 0, len(stack) - 1
        else:
            low = waiting - 1 if waiting else 0
            # with no room to spare, only taking block u−1 off the wait fits
            top = low if waiting > room else len(stack) - 1
        if not room:  # the last position: each choice completes a partition
            for b in stack[low : top + 1]:
                yield _generated(points, prefix + (b,))
            if opens:
                yield _generated(points, prefix + (blocks,))
            continue
        if opens:
            todo.append((prefix + (blocks,), blocks + 1, stack + (blocks,), waiting + pairs))
        # joining stack[j] closes the blocks above it, and in NC2 itself; in ALL none closes
        for j in range(top, low - 1, -1):
            kept = stack if every else stack[: j + 1 - pairs]
            todo.append((prefix + (stack[j],), blocks, kept, waiting - (j < waiting)))


def count_partitions(points: int, cls: PartitionClass = PartitionClass.ALL) -> int:
    """len(enumerate_partitions(points, cls)) in closed form, enumerating
    nothing: the Bell number B_n for ALL, the Catalan number C_n for
    NONCROSSING, and C_{n/2} for NONCROSSING_PAIRS (0 at odd n)."""
    return _class_sizes(points, cls)[0]


def _class_sizes(points: int, cls: PartitionClass) -> tuple[int, int]:
    """The class's size and its block total Σ_p b(p), in one closed-form
    pass: C_k and C_k·(k+1)/2 for NONCROSSING, C_{k/2} and C_{k/2}·k/2
    for NONCROSSING_PAIRS, and for ALL B_k and B_{k+1} − B_k, both read
    off row k of the Bell triangle, which starts with B_k and ends with
    B_{k+1}. Every class budget reads it, at the point counts of `_steps`."""
    _check_class(points, cls)
    if cls is PartitionClass.NONCROSSING_PAIRS:
        count = 0 if points % 2 else _catalan(points // 2)
        return count, count * (points // 2)
    if cls is PartitionClass.NONCROSSING:
        count = _catalan(points)
        return count, count * (points + 1) // 2
    row = [1]
    for _ in range(points):
        row = list(accumulate(row, initial=row[-1]))
    return row[0], row[-1] - row[0]


def _steps(points: int, cls: PartitionClass) -> range:
    """The point counts 0, 1, 2, … up to `points`, 2 at a time for pairs."""
    step = 2 if cls is PartitionClass.NONCROSSING_PAIRS else 1
    return range(points % step, points + 1, step)


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def is_noncrossing(p: Partition) -> bool:
    """True iff no two blocks interleave as a < b < c < d with {a,c}, {b,d} split.

    One pass under the generator's rule, over the stack of open blocks: a
    new block is pushed, a block on the stack closes every block above
    it, and any other block is a crossing. (The O(n^4) quadruple
    definition is kept as a test oracle only.)
    """
    if p.upper:
        raise ShapeError("crossing test is defined on (0, n) partitions")
    stack: list[int] = []
    opened = 0
    for b in p.rgs:
        if b == opened:
            stack.append(b)
            opened += 1
        elif b in stack:
            del stack[stack.index(b) + 1 :]
        else:
            return False
    return True


def tensor(p: Partition, q: Partition) -> Partition:
    """Horizontal concatenation: q placed to the right of p."""
    off = p.block_count
    merged = (
        list(p.rgs[: p.upper])
        + [b + off for b in q.rgs[: q.upper]]
        + list(p.rgs[p.upper :])
        + [b + off for b in q.rgs[q.upper :]]
    )
    return Partition(p.upper + q.upper, p.lower + q.lower, _canonical(merged))


def involution(p: Partition) -> Partition:
    """Mirror at the horizontal axis: rows swap, left-right order preserved."""
    merged = list(p.rgs[p.upper :]) + list(p.rgs[: p.upper])
    return Partition(p.lower, p.upper, _canonical(merged))


def mirror(p: Partition) -> Partition:
    """Mirror at the vertical axis: each row reversed, rows kept.

    Point i of a row of length m goes to point m−1−i, so noncrossing
    partitions and pair partitions stay in their classes.
    """
    k = p.upper
    return Partition(p.upper, p.lower, _canonical(p.rgs[:k][::-1] + p.rgs[k:][::-1]))


def spreader(rgs: Sequence[int], place: Sequence[int]) -> Callable[[int], int]:
    """m ↦ the union of the blocks that meet m, one block at a time.

    The blocks are those of the canonical RGS `rgs`, with position pos
    drawn on node (bit) place[pos]; a node that no position is drawn on
    counts as a block of its own, so every node of m stays in the result.
    The blocks are disjoint, so adding one to m makes no other block meet m.
    """
    masks = [0] * (max(rgs) + 1 if rgs else 0)
    for node, b in zip(place, rgs):
        masks[b] |= 1 << node

    def spread(m: int) -> int:
        for block in masks:
            if block & m:
                m |= block
        return m

    return spread


def join_closure(up: Callable[[int], int], lo: Callable[[int], int], m: int) -> int:
    """The union of the components of the join of two partitions that meet m.

    This is the package's loop-count kernel for one pair at a time, and
    `join_labels` its one caller; no table runs on it. `up` and `lo` are
    the spreaders of two partitions drawn on one set of nodes.
    The mask grows by whole blocks of either partition until neither adds
    a node: then it is a union of blocks of both, which is a union of
    components of the join, and every node in it was reached from m.
    """
    m = lo(up(m))
    while (grown := up(m)) != m:
        m = lo(grown)
    return m


def join_labels(
    up: Callable[[int], int], lo: Callable[[int], int], width: int, nodes: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """The components of the join on nodes 0..width-1, walked lowest node
    first: the canonical (RGS) labels of `nodes`, in turn, by the
    component each lies in (a node may be named twice), and the number
    of components."""
    wanted = 0
    for node in nodes:
        wanted |= 1 << node
    index, count, rest = {}, 0, (1 << width) - 1
    while rest:
        component = join_closure(up, lo, rest & -rest)
        rest ^= component
        met = component & wanted
        while met:
            index[met & -met] = count
            met &= met - 1
        count += 1
    return _canonical(index[1 << node] for node in nodes), count


def stacked_places(points: int, cut: int, below: bool) -> list[int]:
    """The node of each point of a partition drawn below or above in a cut
    graph: one partition over another, each upper point joined to the
    lower point below it by a vertical, but for the first `cut` points.
    Their 2·cut ends, the terminals, are the lowest nodes: upper point
    i < cut is node i and lower point i node cut + i. Every other point
    i, upper glued to lower, is node cut + i, of points + cut nodes.
    """
    return [i if i < cut and not below else cut + i for i in range(points)]


def stacked_spreader(p: Partition, cut: int, below: bool) -> Callable[[int], int]:
    """The `spreader` of a (0, n) partition drawn in a cut graph, on the
    nodes of `stacked_places`."""
    return spreader(p.rgs, stacked_places(p.points, cut, below))


def compose(t: Partition, s: Partition) -> Composition:
    """Vertical composition t ∘ s (s on top), with loop count.

    s ∈ P(k, l), t ∈ P(l, m): the lower row of s is glued to the upper row of
    t. Components of the glued diagram containing no outer point are removed
    and counted as remaining loops.
    """
    if s.lower != t.upper:
        raise ShapeError(
            f"cannot compose ({t.upper},{t.lower}) after ({s.upper},{s.lower})"
        )
    k, l, m = s.upper, s.lower, t.lower
    # Nodes 0..k-1 are the upper row of s, k..k+l-1 the glued middle row
    # and k+l..k+l+m-1 the lower row of t.
    width = k + l + m
    up = spreader(s.rgs, range(k + l))
    lo = spreader(t.rgs, range(k, width))
    outer, count = join_labels(up, lo, width, (*range(k), *range(k + l, width)))
    return Composition(Partition(k, m, outer), count - len(set(outer)))


def rotate(p: Partition, corner: Corner) -> Partition:
    """Move one extremal point to the same side of the other row."""
    if not isinstance(corner, Corner):
        raise TypeError(f"corner must be a Corner, not {corner!r}")
    row, side, direction = corner.value.split("_")
    upper, lower = list(range(p.upper)), list(range(p.upper, p.points))
    source, target = (upper, lower) if row == "upper" else (lower, upper)
    if not source:
        raise RotationUndefined(f"no {row} point to rotate {direction}")
    if side == "right":
        target.append(source.pop())
    else:
        target.insert(0, source.pop(0))
    return Partition(len(upper), len(lower), _canonical(p.rgs[pos] for pos in upper + lower))


def kernel(labels: Sequence[int]) -> Partition:
    """ker(i): points share a block iff they carry the same label."""
    return Partition(0, len(labels), _canonical(labels))


def refines(p: Partition, q: Partition) -> bool:
    """p ⪯ q: every block of p is contained in a block of q."""
    if (p.upper, p.lower) != (q.upper, q.lower):
        raise ShapeError("refinement needs equal shapes")
    image: dict[int, int] = {}
    for pb, qb in zip(p.rgs, q.rgs):
        if image.setdefault(pb, qb) != qb:
            return False
    return True
