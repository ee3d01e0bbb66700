"""Exact Gram matrices of partition vectors, with determinant and rank.

The matrix indexed by a partition class has entry (p, q) = N^{rl(q*, p)},
where rl is the loop count of the composition q* ∘ p: the number of
components of the pair graph of p over q, which is the join p ∨ q. The
Gram matrix is level 0 of the level matrices of `tutte`: one exponent
table, `_exponent_table`, holds the loop counts at any level r (with a
flaw sentinel at r > 0), and one reader, `_table_matrix`, turns it into
every Gram and level matrix. The table is bit-sliced at any width (the
points plus the verticals cut at level r): each label is walked once for
the node pairs its blocks link, each pair of a chunk of rows is one bit
of a mask per linked node pair, vertex elimination over all nodes but
the cut verticals' ends connects the components of every pair at once,
and each pair's count of component roots is added up in bit planes and
read into a lane of 1, 2 or 4 bytes, by the point count, one read per
plane. A single entry, `_pair_exponent`, is one call of
`partitions.join_labels` on the same cut graph (`partitions.stacked_places`
places the nodes of both): the canonical labels of its terminals decide
the flaw, and the component count gives the exponent; it is also the
table's oracle in the tests. With N given, the entries are the integers
N^e, read one C call per row off one table of powers, `_powers`, which
forms N^0..N^top by one multiplication each, top the largest block count
among the labels, which no loop count passes; with N = None
the Gram matrix is symbolic, and its entries are the exponents e of the
monomials X^e.

Every elimination is the one exact integer kernel in `kernels`, so a
symbolic determinant is one integer determinant, at X = 2^B (Kronecker
substitution). Every entry of an m×m matrix is written X^e_min·X^(e − e_min),
with e_min its smallest exponent (1 for every Gram matrix, since every pair
graph has a component), so det = X^(m·e_min)·p(X) with p = det(X^(E − e_min)),
each entry read off the table of powers of X at its place e − e_min.
The degree of p is at most

    D = Σ_i max_j e_ij − m·e_min,

the Leibniz bound over the shifted exponents (every term of the Leibniz
expansion takes one entry from each row). On the unit circle every entry
X^e has modulus 1, so Hadamard's bound gives |p| ≤ m^(m/2) there, and each
coefficient of p, a Fourier coefficient on that circle, is at most m^(m/2)
in size. With B = bit_length(m^m)//2 + 2 that is below 2^(B−1), so the
balanced base-2^B digits of p(2^B), each in [−2^(B−1), 2^(B−1)), are the
coefficients of p; they are then shifted up by m·e_min. The digits are
read as B-bit slices of p(2^B) + 2^(B−1)·Σ_i 2^(B·i) in binary, which
takes time linear in its size. A value with more than D + 1 digits is
refused. The one integer has B·(D + 1) bits at most, which
`SYMBOLIC_BIT_BUDGET` caps.
No float is used but log₂N, which sizes the bit budget of a numeric
determinant.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from math import log2
from operator import itemgetter, mul, or_
from typing import Sequence

from . import kernels
from .errors import ShapeError, check_count, check_parameter, refuse_past
from .partitions import (
    Partition,
    PartitionClass,
    _class_sizes,
    _steps,
    block_masks,
    enumerate_partitions,
    join_labels,
    stacked_places,
)
from .polynomials import IntPolynomial

#: Hard cap on elimination size. It admits NC(8) (1430 rows) and refuses
#: NC(9) (4862). With the cap lifted, NC(9) at N = 4 took 1.1 s for the
#: exponent table and its powers and 6.8 s to eliminate, at a 407 MiB peak
#: resident set, and its 31,242-bit determinant equals `recursion_det(9, 4)`
#: (2-core AMD EPYC, Python 3.11): the cap is no longer set by the cost of
#: either layer, and a cost estimate should replace it. build_gram refuses
#: a matrix past the cap before computing any entry, since neither
#: determinant nor rank takes it.
DET_DIMENSION_BUDGET = 2000

#: Cap on the bits of the two largest integers the package forms: the one
#: integer a symbolic determinant eliminates, B·(D + 1) for m rows, with
#: B = bit_length(m^m)//2 + 2 and D the Leibniz degree bound, checked after
#: the exponent table is built; and the value of the pair formula
#: `formulas.difrancesco_det`, Σ a·log₂base over its (base, exponent) list,
#: N^{C_n} and each c_{i+1}(N²)^{a_{n,i}}, before any power is formed. It
#: admits NC(7) (2.4M bits), NC2(14) (4.8M), ALL(7) (10.2M) and the pair
#: formula at n ≤ 12 for N ≤ 5 (5.7M at most), and refuses NC(8) (37.5M),
#: NC2(16) (75M) and the pair formula at (13, 4) (18.6M bits; 5.0 s to
#: form when it ran).
SYMBOLIC_BIT_BUDGET = 1 << 24

#: Bits a numeric determinant may have by its Hadamard bound: a Gram matrix
#: `build_gram` builds at N, the recursion's value, the NC one, and any
#: integer matrix `determinant` or `rank` eliminates (`_check_entry_bits`,
#: which reads the bound off the entries; it may refuse near the budget what
#: the closed form admitted, never the other way round). It admits
#: n = 12 at N = 4 by the recursion (2.7M bits by the bound, 1.6M in fact:
#: 20 ms for the value and 55 ms for its decimal text), and by elimination
#: NC(7) at N = 10^300 (1.7M bits, 10 s) and NC(8) at 10^150 (3.2M bits,
#: 229 s, 375 MiB); it refuses n = 13 at N = 4 (10.4M bits) and NC(8) at
#: 10^200 (4.3M bits) (2-core AMD EPYC, Python 3.11).
RECURSION_BIT_BUDGET = 1 << 22


#: The exponent that marks a flawed pair in a level table. Every pair graph
#: has at least one component, so no loop count is 0, and a level matrix
#: reads this exponent as the entry 0.
_FLAW = 0


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix with partition labels on rows and columns.

    Entries are integers. A symbolic matrix (`is_symbolic`) stands for a
    matrix over ℤ[X] whose entry (i, j) is the monomial X^e, and it holds
    the exponent e there.
    """

    entries: tuple[Sequence[int], ...]
    row_labels: tuple[Partition, ...]
    col_labels: tuple[Partition, ...]
    is_symbolic: bool = False

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.row_labels):
            raise ShapeError("row label count does not match matrix")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ShapeError("column label count does not match matrix")
        if self.is_symbolic and min((min(row, default=0) for row in self.entries), default=0) < 0:
            raise ValueError("a symbolic entry is an exponent and cannot be negative")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def principal_submatrix(self, k: int) -> ExactMatrix:
        """Leading k×k corner, labels included."""
        return ExactMatrix(
            entries=tuple(row[:k] for row in self.entries[:k]),
            row_labels=self.row_labels[:k],
            col_labels=self.col_labels[:k],
            is_symbolic=self.is_symbolic,
        )

    def evaluate(self, N: int) -> ExactMatrix:
        """Specialize a symbolic matrix at an integer parameter, of any sign."""
        if not self.is_symbolic:
            raise ShapeError("matrix is already over the integers")
        check_parameter(N, None)
        top = max((max(row, default=0) for row in self.entries), default=0)
        entries = _read_powers(self.entries, _powers(N, top))
        return ExactMatrix(entries, self.row_labels, self.col_labels)


def _powers(N: int, top: int) -> list[int]:
    """N^0, N^1, …, N^top, one multiplication each."""
    return list(accumulate(repeat(N, top), mul, initial=1))


def _read_powers(table, powers: list[int]) -> tuple[tuple[int, ...], ...]:
    """The matrix whose entry (i, j) is powers[table[i][j]], read one row
    per C call. The rows have one length; `itemgetter` gives a bare entry,
    not a tuple, for one index and refuses none, so rows shorter than two
    are read entry by entry."""
    if table and len(table[0]) < 2:
        return tuple(tuple(powers[e] for e in row) for row in table)
    return tuple(itemgetter(*row)(powers) for row in table)


def _cut(r: int) -> int:
    """The number of leading points whose verticals the level-r table cuts
    to test for a flaw: r//2 + 1, and none at level 0, which has no flaws."""
    return r // 2 + 1 if r else 0


#: Bits of each pair mask of one chunk of rows in `_exponent_table` on at
#: most 16 nodes, and (16/width)² as many on more, so the at most width²
#: masks of a chunk hold at most 2^25 bits at any table size.
_CHUNK_BITS = 1 << 17


def _exponent_table(labels: tuple[Partition, ...], points: int, r: int = 0) -> tuple:
    """The exponent of every pair of (0, points) labels, one row each, by
    mask operations on all pairs of a chunk of rows at once (bit slicing).

    Level 0 gives the plain loop counts rl(q*, p) of the Gram matrix, and
    a level r > 0 the counts with `_FLAW` on flawed pairs, as
    `_pair_exponent` gives them, on the nodes of `stacked_places`, whose
    2·cut terminals (the ends of the cut verticals) are the lowest.
    Pair (a, b) of the chunk is bit a·W + b of a mask, W the label count
    rounded up to whole bytes. Each label is walked once (`_links`) for
    the consecutive positions s < t of its blocks, which link them as all
    of their pairs would; `stacked_places` is increasing, so s, t drawn
    above or below are the node pair u < v it links. Node pair u < v
    starts from the rows whose label, drawn above, links u and v, and the
    columns whose label, drawn below, links them, repeated in every row;
    each pair is kept once, nonempty, in the map of its larger node v,
    C[v][u]. Vertex elimination, k from the top node down to 2·cut, sets
    C[j][i] |= C[k][i] & C[k][j] for the neighbours i < j < k of k and
    never eliminates a terminal; the nodes above k are gone by then, so
    C[k] holds all of k's links. Once every node above v is eliminated,
    v is linked in a pair to a smaller node exactly where it is connected
    to one (a path to one, cut at its first node below v, runs above v):
    two terminals are linked where the other nodes join them, and a
    non-terminal with no smaller neighbour is a root, the smallest node of
    its component. At r > 0 a pair is flawed, as in `_pair_exponent`,
    where a terminal link other than some i–i' is set or an i–i' asked
    for is not; a flawless pair's terminals make cut components, so its
    exponent is cut plus its non-terminal roots, at most `points`.

    The non-roots are counted in bit planes (`_add_to_planes`): each
    non-terminal's mask of pairs where it has a smaller neighbour is added
    with a ripple carry, plane k holding bit k of every pair's count. A
    mask is read as text, one lane per pair of 1 byte below 256 points,
    2 below 65,536 and 4 beyond, so ⌈log₂(points + 1)⌉ planes take as many
    reads, not one per non-terminal. The exponent is points less the
    non-roots, which number at most points − cut, and the sum of
    2^k·lanewise(plane k) holds each pair's count in its own lane; no lane
    reaches its limit 2^(8·lane), so no count carries into the next lane
    and the subtraction borrows across none. The rows are slices of the
    lanes, as bytes below 256 points and arrays of 16 or 32 bits from there
    on.
    """
    if not labels:
        return ()  # an empty class, NC2 at odd points
    cut = _cut(r)
    width = points + cut
    terminals = 2 * cut
    size = len(labels)
    row_bytes = -(-size // 8)
    lane = 1 if points < 1 << 8 else 2 if points < 1 << 16 else 4
    codec = {1: "latin-1", 2: "utf-16-be", 4: "utf-32-be"}[lane]
    above, below = (stacked_places(points, cut, side) for side in (False, True))
    links = [_links(p.rgs) for p in labels]
    cols: dict[tuple[int, int], int] = {}  # node pair -> the columns that link it
    for b, pairs in enumerate(links):
        for s, t in pairs:
            pair = below[s], below[t]
            cols[pair] = cols.get(pair, 0) | 1 << b
    bits = _CHUNK_BITS * 16**2 // max(width, 16) ** 2
    step = max(1, bits // (8 * row_bytes))
    table: list = []
    for start in range(0, size, step):
        count = min(step, size - start)
        length = 8 * row_bytes * count
        # node pair -> the rows that link it above; rows are whole bytes,
        # so a row's fill is one slice assignment
        fills = defaultdict(lambda: bytearray(length // 8))
        for a, pairs in enumerate(links[start : start + count]):
            row = slice(a * row_bytes, (a + 1) * row_bytes)
            for s, t in pairs:
                fills[above[s], above[t]][row] = b"\xff" * row_bytes
        every_row = int.from_bytes((b"\x01" + bytes(row_bytes - 1)) * count, "little")
        C: list[dict[int, int]] = [{} for _ in range(width)]  # node v -> linked u < v -> mask
        for u, v in fills.keys() | cols.keys():
            rows = int.from_bytes(fills.get((u, v), b""), "little")
            C[v][u] = rows | cols.get((u, v), 0) * every_row
        for k in range(width - 1, terminals - 1, -1):
            linked = sorted(C[k].items())  # i < j below, so C[j] holds the pair i, j
            for at, (i, Cik) in enumerate(linked):
                for j, Ckj in linked[at + 1 :]:
                    if via := Cik & Ckj:
                        C[j][i] = C[j].get(i, 0) | via
        zeros = int.from_bytes(("0" * length).encode(codec), "big")

        def lanewise(mask: int) -> int:
            """One lane per pair, 1 where its bit is set: bit t is the
            t-th lowest lane, since the text puts the top bit first."""
            return int.from_bytes(format(mask, f"0{length}b").encode(codec), "big") - zeros

        ones = lanewise((1 << length) - 1)
        planes: list[int] = []  # bit k of each pair's count of non-roots
        for v in range(terminals, width):
            if smaller := reduce(or_, C[v].values(), 0):
                _add_to_planes(planes, smaller)  # v is no root
        total = points * ones  # cut terminals and width − 2·cut others
        for k, plane in enumerate(planes):
            total -= lanewise(plane) << k
        if cut:  # flawed: a terminal link but i–i', or no i–i' where asked for
            flaw = 0
            for v in range(terminals):
                flaw |= reduce(or_, (m for u, m in C[v].items() if v - u != cut), 0)
            for i in range(cut - 1 + r % 2):  # i ~ i' is asked for
                flaw |= C[cut + i].get(i, 0) ^ (1 << length) - 1
            total &= (ones - lanewise(flaw)) * ((1 << 8 * lane) - 1)
        data = total.to_bytes(lane * length, "little")
        starts = range(0, length, 8 * row_bytes)
        if lane == 1:
            table += (data[o : o + size] for o in starts)
        else:
            lanes = array("H" if lane == 2 else "I", data)
            if sys.byteorder == "big":
                lanes.byteswap()
            table += (lanes[o : o + size] for o in starts)
    return tuple(table)


def _links(rgs: tuple[int, ...]) -> list[tuple[int, int]]:
    """The positions s < t of each block of rgs that follow one another in
    it, in one pass: a block is connected by its consecutive positions, as
    by all of its pairs."""
    last: dict[int, int] = {}  # block -> its latest position so far
    links = []
    for t, b in enumerate(rgs):
        if b in last:
            links.append((last[b], t))
        last[b] = t
    return links


def _add_to_planes(planes: list[int], mask: int) -> None:
    """Add a 0/1 mask to the counts held in bit planes, plane k holding
    bit k of every count: a ripple-carry adder on all of them at once."""
    for k, plane in enumerate(planes):
        planes[k], mask = plane ^ mask, plane & mask
        if not mask:
            return
    planes.append(mask)


def _pair_exponent(p: Partition, q: Partition, r: int = 0) -> int:
    """One entry of `_exponent_table`: p over q, at level r. It is
    flawless where the join labels the 2·cut terminals `ends + ends`, each
    i with i′ alone, or at even r with the s+1 vertical left cut; glued
    back, the terminals make cut components, so the exponent is cut plus
    the terminal-free ones."""
    cut = _cut(r)
    up = block_masks(p.rgs, stacked_places(p.points, cut, False))
    lo = block_masks(q.rgs, stacked_places(q.points, cut, True))
    labels, count = join_labels(up, lo, range(2 * cut))
    ends = tuple(range(cut))
    if labels == ends + ends or (r and not r % 2 and labels == ends + ends[:-1] + (cut,)):
        return count - len(set(labels)) + cut
    return _FLAW


def _table_matrix(
    labels: tuple[Partition, ...], points: int, N: int | None, r: int = 0
) -> ExactMatrix:
    """The level-r exponent table over labels × labels as a matrix.

    Every Gram and level matrix is built here. With N None (level 0 only)
    the matrix is symbolic and holds the table itself; otherwise entry
    (p, q) is N^e, and 0 where e is `_FLAW`. Every other e is the loop
    count rl(q*, p), at most min(b(p), b(q)), since each component of the
    pair graph holds a block of p and one of q; so the powers stop at the
    largest block count among the labels, read off their RGS, not the table.
    """
    table = _exponent_table(labels, points, r)
    if N is None:
        return ExactMatrix(table, labels, labels, is_symbolic=True)
    powers = _powers(N, max((max(p.rgs) + 1 for p in labels), default=0))
    powers[_FLAW] = 0  # no pair graph has 0 components
    return ExactMatrix(_read_powers(table, powers), labels, labels)


def build_gram(
    points: int,
    cls: PartitionClass = PartitionClass.NONCROSSING,
    N: int | None = None,
) -> ExactMatrix:
    """Gram matrix over the partitions of `points` lower points.

    Rows and columns follow the `enumerate_partitions` order. `N=None`
    builds the symbolic matrix, whose entries are the exponents
    rl(q*, p) of the monomials X^{rl(q*,p)}. More than
    DET_DIMENSION_BUDGET partitions raise BudgetError before any label is
    listed (`_check_class_budget`), and so does a numeric N whose
    determinant may have more than RECURSION_BIT_BUDGET bits (`_check_det_bits`).
    """
    check_count(points, "point count", 1)
    if N is not None:
        check_parameter(N)
    _check_class_budget(points, cls)
    if N is not None:
        _check_det_bits(points, cls, N)
    return _table_matrix(tuple(enumerate_partitions(points, cls)), points, N)


def determinant(m: ExactMatrix) -> int | IntPolynomial:
    """Exact determinant; polynomial result in symbolic mode."""
    if m.nrows != m.ncols:
        raise ShapeError("determinant of a non-square matrix")
    refuse_past(DET_DIMENSION_BUDGET, "matrix size", lambda _: m.nrows, range(1))
    if m.is_symbolic:
        return _det_by_substitution(m)
    _check_entry_bits(m)
    return kernels.det_exact(m.entries)


def rank(m: ExactMatrix) -> int:
    """Exact rank of an integer-mode matrix (over ℚ)."""
    if m.is_symbolic:
        raise ShapeError("rank requires integer entries; evaluate first")
    refuse_past(DET_DIMENSION_BUDGET, "matrix size", lambda _: max(m.nrows, m.ncols), range(1))
    _check_entry_bits(m)
    return kernels.rank_exact(m.entries)


def _check_entry_bits(m: ExactMatrix) -> None:
    """Refuse an integer matrix whose minors may pass RECURSION_BIT_BUDGET
    bits, by Hadamard's row bound read off the entries in integers: a minor
    on some of the m rows is at most ∏_i √ncols·max_j |a_ij| in size, which
    has at most Σ_i bit_length(max_j |a_ij|) + ⌈m·log₂(ncols)/2⌉ bits; the
    second term is taken as half the bit length of ncols^m, rounded up.
    Each max is read off the row's distinct values: a Gram or level row at
    an integer N holds at most points + 1 of them."""
    bits = sum(max(map(abs, set(row)), default=0).bit_length() for row in m.entries)
    bits += ((m.ncols**m.nrows).bit_length() + 1) // 2
    what = "bits of the matrix by its Hadamard bound:"
    refuse_past(RECURSION_BIT_BUDGET, what, lambda _: bits, range(1))


def _check_class_budget(points: int, cls: PartitionClass, budget: int = DET_DIMENSION_BUDGET) -> None:
    """Refuse a class of more than `budget` partitions (by default
    DET_DIMENSION_BUDGET, the rows an elimination may have) before any label
    is listed, from its closed-form sizes at growing point counts."""
    steps = _steps(points, cls)
    refuse_past(budget, "class size", lambda k: _class_sizes(k, cls)[0], steps)


def _check_det_bits(points: int, cls: PartitionClass, N: int) -> None:
    """Refuse a determinant at N past RECURSION_BIT_BUDGET bits, from its
    Hadamard bound at growing point counts, before any label is listed: the
    Gram matrix is positive semidefinite with diagonal N^{b(p)}, so its
    determinant has at most Σ_p b(p)·log₂N bits, the block total read off
    `partitions._class_sizes`."""
    what = f"bits of the {cls.value} determinant on {points} points:"
    refuse_past(
        RECURSION_BIT_BUDGET, what, lambda k: _class_sizes(k, cls)[1] * log2(N), _steps(points, cls)
    )


def _det_by_substitution(m: ExactMatrix) -> IntPolynomial:
    """Symbolic determinant by one integer determinant at X = 2^B.

    det = X^(m·e_min)·p(X), and the balanced base-2^B digits of p(2^B),
    read off in binary, are the coefficients of p (see the module
    docstring). More than D + 1 digits, D the Leibniz bound, means the
    integer determinant was wrong, and raises ArithmeticError. B·(D + 1)
    bits past `SYMBOLIC_BIT_BUDGET` raise BudgetError before the
    elimination.
    """
    size = m.nrows
    low = min((min(row, default=0) for row in m.entries), default=0)
    highs = [max(row, default=0) for row in m.entries]
    bound = sum(highs) - size * low
    B = (size**size).bit_length() // 2 + 2
    bits = B * (bound + 1)
    refuse_past(SYMBOLIC_BIT_BUDGET, "symbolic determinant bits", lambda _: bits, range(1))
    # entry e reads X^(e − low); no entry is below low, so those slots are padding
    powers = [0] * low + _powers(1 << B, max(highs, default=0) - low)
    value = kernels.det_exact(_read_powers(m.entries, powers))
    # 2^(B−1) added to every digit makes each one a plain B-bit slice of
    # the binary text; conversion to and from base 2 is linear in the size
    value += int(("1" + "0" * (B - 1)) * (bound + 1), 2)
    if value < 0 or value.bit_length() > bits:
        raise ArithmeticError("substituted determinant exceeds the Leibniz degree bound")
    text, half = format(value, f"0{bits}b"), 1 << (B - 1)
    coeffs = [int(text[end - B : end], 2) - half for end in range(bits, 0, -B)]
    return IntPolynomial(coeffs).shift(size * low)
