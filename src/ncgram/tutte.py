"""Stratified elimination machinery for the noncrossing Gram determinant.

The Gram matrix over NC(0,n) is conquered level by level: partitions are
stratified by conditions on their leftmost points (the W/Y strata), each
level's matrix A(n,r) has entries that vanish on "flawed" pairs, and two
block rewirings f and g produce column combinations that telescope the
determinant down to 1×1 base cases. Everything is exact: the level
quotients are rationals in 1/N built from the reversed Beraha polynomials.

Points of a pair (p, q) live on a 2n-node graph: nodes 1..n carry p,
nodes 1'..n' carry q, vertical edges join i to i'. Indices into the id
arrays run 0..n-1 (unprimed) then n..2n-1 (primed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ShapeError
from .gram import ExactMatrix
from .partitions import (
    PairForest,
    Partition,
    PartitionClass,
    _canonical,
    block_forest,
    enumerate_partitions,
)
from .polynomials import beraha


# ---------------------------------------------------------------------------
# pair graphs and cuts


@dataclass(frozen=True)
class PairGraph:
    """Connectivity of p and q stacked with all vertical edges (i, i')."""

    n: int
    p: Partition
    q: Partition
    ids: tuple[int, ...]  # component id per node, canonical by first occurrence

    @property
    def component_count(self) -> int:
        return len(set(self.ids))

    def comp(self, i: int, primed: bool = False) -> int:
        """Component id of point i (1-based), primed selecting the q row."""
        return self.ids[self.n + i - 1 if primed else i - 1]


@dataclass(frozen=True)
class CutGraph:
    """PairGraph with the vertical edges (i, i'), i ≤ s+1, erased."""

    n: int
    r: int
    ids: tuple[int, ...]

    @property
    def component_count(self) -> int:
        return len(set(self.ids))

    def comp(self, i: int, primed: bool = False) -> int:
        return self.ids[self.n + i - 1 if primed else i - 1]


def _check_pair(p: Partition, q: Partition) -> int:
    if p.upper or q.upper:
        raise ShapeError("pair graphs need (0, n) partitions")
    if p.lower != q.lower:
        raise ShapeError("pair graphs need equal point counts")
    return p.lower


def _check_level(n: int, r: int, what: str) -> None:
    if not 0 <= r < n:
        raise ValueError(f"{what} level r={r} out of range for n={n}")


def _forest(p: Partition, q: Partition, n: int) -> PairForest:
    """p on nodes 0..n-1, q on nodes n..2n-1, no vertical edges yet."""
    return PairForest(
        block_forest(p.rgs), block_forest(q.rgs, n), p.block_count + q.block_count
    )


def _glue_cut(forest: PairForest, n: int, r: int) -> None:
    """Add the verticals (i, i') with i > s+1: the cut graph of level r."""
    s = r // 2
    forest.glue(s + 1, n + s + 1, n - s - 1)


def _flawed(forest: PairForest, n: int, r: int) -> bool:
    """Read the level-r flaw pattern off a forest glued as a cut graph."""
    s = r // 2
    find = forest.find
    tops = [find(i) for i in range(s + 1)]
    bots = [find(n + i) for i in range(s + 1)]
    joined = s + r % 2  # i ~ i' is required for i ≤ s, and for s+1 at odd r
    return (
        len(set(tops)) != s + 1
        or len(set(bots)) != s + 1
        or tops[:joined] != bots[:joined]
    )


def _level_components(forest: PairForest, n: int, r: int) -> int | None:
    """The single pass behind e_r: glue the cut graph, read the flaw
    pattern, glue the remaining verticals and count. None on a flaw."""
    _glue_cut(forest, n, r)
    if r and _flawed(forest, n, r):
        return None
    forest.glue(0, n, r // 2 + 1)
    return forest.components


def pair_graph(p: Partition, q: Partition) -> PairGraph:
    n = _check_pair(p, q)
    forest = _forest(p, q, n)
    forest.glue(0, n, n)
    return PairGraph(n=n, p=p, q=q, ids=_canonical(forest.find(x) for x in range(2 * n)))


def cut_graph(p: Partition, q: Partition, r: int) -> CutGraph:
    n = _check_pair(p, q)
    _check_level(n, r, "cut")
    forest = _forest(p, q, n)
    _glue_cut(forest, n, r)
    return CutGraph(n=n, r=r, ids=_canonical(forest.find(x) for x in range(2 * n)))


# ---------------------------------------------------------------------------
# strata


def in_W(p: Partition, r: int) -> bool:
    """Leftmost-point stratum test.

    r = 2s: the s leftmost points are non-singletons and the s+1 leftmost
    lie in pairwise different blocks. r = 2s+1: the s+1 leftmost points are
    non-singletons in pairwise different blocks. r = 0 is no condition,
    r = n is empty.
    """
    if p.upper:
        raise ShapeError("strata are defined on (0, n) partitions")
    n = p.points
    if not 0 <= r <= n:
        raise ValueError(f"stratum level r={r} out of range for n={n}")
    if r == 0:
        return True
    if r == n:
        return False
    rgs = p.rgs
    sizes: dict[int, int] = {}
    for b in rgs:
        sizes[b] = sizes.get(b, 0) + 1
    s = r // 2
    if r % 2 == 0:
        front = rgs[: s + 1]
        heavy = rgs[:s]
    else:
        front = rgs[: s + 1]
        heavy = front
    return len(set(front)) == len(front) and all(sizes[b] >= 2 for b in heavy)


def in_Y(p: Partition, r: int) -> bool:
    """Y(n,r) = W(n,r) \\ W(n,r+1): the stratum left behind at level r."""
    n = p.points
    if not 0 <= r < n:
        raise ValueError(f"stratum level r={r} out of range for n={n}")
    return in_W(p, r) and not in_W(p, r + 1)


def w_stratum(n: int, r: int) -> list[Partition]:
    """W(n,r) within NC(0,n), in global enumeration order."""
    return [p for p in enumerate_partitions(n, PartitionClass.NONCROSSING) if in_W(p, r)]


def y_stratum(n: int, r: int) -> list[Partition]:
    return [p for p in enumerate_partitions(n, PartitionClass.NONCROSSING) if in_Y(p, r)]


# ---------------------------------------------------------------------------
# flaws and level matrices


def has_r_flaw(p: Partition, q: Partition, r: int) -> bool:
    """Whether the cut graph violates the level-r connection pattern.

    Flawless means: the points 1..s+1 are pairwise disconnected, so are
    1'..(s+1)', i is connected to i' for i ≤ s, and for odd r also s+1 to
    (s+1)'. Level 0 never has flaws.
    """
    n = _check_pair(p, q)
    _check_level(n, r, "flaw")
    if r == 0:
        return False
    forest = _forest(p, q, n)
    _glue_cut(forest, n, r)
    return _flawed(forest, n, r)


def e_r(p: Partition, q: Partition, r: int, N: int) -> int:
    """Level-r matrix entry: 0 on flawed pairs, else N^(components of the pair graph)."""
    if N < 1:
        raise ValueError("N must be positive")
    n = _check_pair(p, q)
    _check_level(n, r, "flaw")
    components = _level_components(_forest(p, q, n), n, r)
    return 0 if components is None else N**components


def _level_matrix(n: int, r: int, N: int, labels: tuple[Partition, ...]) -> ExactMatrix:
    """e_r over labels × labels, one kernel pass per pair.

    e_r is symmetric under p ↔ q (swapping the rows of the pair graph
    swaps tops with bottoms in the flaw pattern), so only the upper
    triangle is computed and then mirrored.
    """
    uppers = [block_forest(p.rgs) for p in labels]
    lowers = [block_forest(p.rgs, n) for p in labels]
    blocks = [p.block_count for p in labels]
    powers = [N**c for c in range(2 * n + 1)]
    size = len(labels)
    rows = [[0] * size for _ in range(size)]
    for a in range(size):
        row = rows[a]
        for b in range(a, size):
            forest = PairForest(uppers[a], lowers[b], blocks[a] + blocks[b])
            components = _level_components(forest, n, r)
            if components is not None:
                row[b] = rows[b][a] = powers[components]
    entries = tuple(tuple(row) for row in rows)
    return ExactMatrix(entries=entries, row_labels=labels, col_labels=labels)


def _check_level_matrix(n: int, r: int, N: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    _check_level(n, r, "level")
    if N < 1:
        raise ValueError("N must be positive")


def build_A(n: int, r: int, N: int) -> ExactMatrix:
    """The level-r matrix over W(n,r), Y(n,r) rows/columns listed first."""
    _check_level_matrix(n, r, N)
    # W(n,r+1) ⊆ W(n,r), so one pass splits W(n,r) into Y(n,r) and W(n,r+1).
    y, w = [], []
    for p in enumerate_partitions(n, PartitionClass.NONCROSSING):
        if in_W(p, r + 1):
            w.append(p)
        elif in_W(p, r):
            y.append(p)
    return _level_matrix(n, r, N, tuple(y + w))


def build_B(n: int, r: int, N: int) -> ExactMatrix:
    """The corner block of build_A: rows and columns restricted to Y(n,r)."""
    _check_level_matrix(n, r, N)
    return _level_matrix(n, r, N, tuple(y_stratum(n, r)))


# ---------------------------------------------------------------------------
# the manipulations f and g

# Both rewirings act on a partition q whose s+1 leftmost points sit in
# pairwise different non-singleton blocks (K(j) := block of j minus j
# itself; X(j) := block of j). All target sets refer to the blocks of the
# ORIGINAL q — the moves happen simultaneously, which is why the scratch
# array below always reads from q.rgs and never from itself.


def _require_manip_args(q: Partition, r: int) -> int:
    n = q.points
    if q.upper:
        raise ShapeError("manipulations are defined on (0, n) partitions")
    if not 0 <= r < n - 1:
        raise ValueError(f"manipulation level r={r} out of range for n={n}")
    if not in_W(q, r + 1):
        raise ValueError("partition is not in the level r+1 stratum")
    return n


def f_manip(i: int, q: Partition, r: int) -> Partition:
    """Shift rewiring: point j leaves K(j) for K(j+1), j = i..s.

    Point s+1 leaves K(s+1); for odd r it joins X(s+2) instead of becoming
    a singleton. The result lands one stratum lower, in W(n,r).
    """
    n = _require_manip_args(q, r)
    s = r // 2
    if not 1 <= i <= s + 1:
        raise ValueError(f"i={i} out of range 1..{s + 1}")
    orig = q.rgs
    ids = list(orig)
    for j in range(i, s + 1):  # point j (1-based) joins the block of point j+1
        ids[j - 1] = orig[j]
    if r % 2 == 0:
        ids[s] = n  # fresh id: point s+1 becomes a singleton
    else:
        ids[s] = orig[s + 1]  # point s+1 joins the block of point s+2
    return Partition(0, n, _canonical(ids))


def g_manip(i: int, q: Partition, r: int) -> Partition:
    """Merge rewiring: point i keeps K(i) and absorbs K(i+1) as well.

    Points j = i+1..s shift as in f_manip, point s+1 by parity likewise.
    For odd r the extra case i = s+1 just merges the blocks of s+1 and
    s+2. The result lands in W(n,r).
    """
    n = _require_manip_args(q, r)
    s = r // 2
    odd = r % 2 == 1
    limit = s + 1 if odd else s
    if not 1 <= i <= limit:
        raise ValueError(f"i={i} out of range 1..{limit}")
    orig = q.rgs
    if odd and i == s + 1:
        target, source = orig[s], orig[s + 1]
        return Partition(
            0, n, _canonical(target if b == source else b for b in orig)
        )
    ids = list(orig)
    absorbed = orig[i]  # block id of X(i+1)
    for pos, b in enumerate(orig):
        if b == absorbed:
            ids[pos] = orig[i - 1]
    for j in range(i + 1, s + 1):
        ids[j - 1] = orig[j]
    if r % 2 == 0:
        ids[s] = n
    else:
        ids[s] = orig[s + 1]
    return Partition(0, n, _canonical(ids))


# ---------------------------------------------------------------------------
# structures: connection patterns of the cut graph on its leftmost points


class Structure:
    """Base tag for the three mutually exclusive cut-graph patterns."""

    __slots__ = ()


@dataclass(frozen=True)
class StructI(Structure):
    """Pattern [i]: columns pair diagonally from i on; i' and the last
    unprimed point (even levels) stay isolated."""

    i: int


@dataclass(frozen=True)
class StructPair(Structure):
    """Pattern [i, i+1]: like [i] but i, i' and (i+1)' share a component."""

    i: int


@dataclass(frozen=True)
class StructZero(Structure):
    """Pattern [0]: every vertical pair i, i' stays connected around the cut."""


def _u(i: int) -> int:
    return i - 1


def _pr(i: int, n: int) -> int:
    return n + i - 1


def _mentioned(n: int, r: int) -> list[int]:
    s = r // 2
    nodes = [_u(j) for j in range(1, s + 2)]
    primed_count = s + 2 if r % 2 == 1 else s + 1
    nodes += [_pr(j, n) for j in range(1, primed_count + 1)]
    return nodes


def _candidate_patterns(n: int, r: int):
    """Yield (tag, partition-of-mentioned-nodes) pairs for level r."""
    s = r // 2
    odd = r % 2 == 1

    def vert(j: int) -> frozenset[int]:
        return frozenset({_u(j), _pr(j, n)})

    def diag(j: int) -> frozenset[int]:
        return frozenset({_u(j), _pr(j + 1, n)})

    top = s + 1  # number of unprimed mentioned points
    for i in range(1, top + 1):
        groups = [vert(j) for j in range(1, i)]
        groups.append(frozenset({_pr(i, n)}))
        groups += [diag(j) for j in range(i, s + 2 if odd else s + 1)]
        if not odd:
            groups.append(frozenset({_u(s + 1)}))
        yield StructI(i), frozenset(groups)
    pair_top = s + 1 if odd else s
    for i in range(1, pair_top + 1):
        groups = [vert(j) for j in range(1, i)]
        groups.append(frozenset({_u(i), _pr(i, n), _pr(i + 1, n)}))
        groups += [diag(j) for j in range(i + 1, s + 2 if odd else s + 1)]
        if not odd:
            groups.append(frozenset({_u(s + 1)}))
        yield StructPair(i), frozenset(groups)
    groups = [vert(j) for j in range(1, s + 2)]
    if odd:
        groups.append(frozenset({_pr(s + 2, n)}))
    yield StructZero(), frozenset(groups)


def classify_structure(p: Partition, q: Partition, r: int) -> Structure | None:
    """Match the cut graph's induced component pattern on the leftmost points.

    The match is exact: mentioned points grouped together must be
    connected, mentioned points in different groups must not be. Returns
    None when no pattern fits.
    """
    n = _check_pair(p, q)
    if not 0 <= r < n - 1:
        raise ValueError(f"structure level r={r} out of range for n={n}")
    g = cut_graph(p, q, r)
    by_component: dict[int, set[int]] = {}
    for node in _mentioned(n, r):
        by_component.setdefault(g.ids[node], set()).add(node)
    induced = frozenset(frozenset(group) for group in by_component.values())
    for tag, pattern in _candidate_patterns(n, r):
        if induced == pattern:
            return tag
    return None


# ---------------------------------------------------------------------------
# the component-shift table and the column-combination identity


def component_shift(p: Partition, q: Partition, r: int, kind: str, i: int) -> int:
    """Predicted component change rl(p, manip(i,q)) − rl(p, q).

    Reads off the case table keyed by the structure of the cut graph;
    callers compare against direct recounts. Only defined when the
    manipulated entry survives (no flaw) and the structure is one the
    table covers — anything else raises ValueError.
    """
    if kind not in ("f", "g"):
        raise ValueError("kind must be 'f' or 'g'")
    manipulated = f_manip(i, q, r) if kind == "f" else g_manip(i, q, r)
    if has_r_flaw(p, manipulated, r):
        raise ValueError("shift undefined: the manipulated entry vanishes")
    s = r // 2
    tag = classify_structure(p, q, r)
    if kind == "f":
        if tag == StructI(i) or tag == StructPair(i - 1):
            return s - i + 2
        if tag == StructPair(i):
            return s - i + 1
    else:
        if tag == StructI(i) or tag == StructPair(i):
            return s - i + 1
        if tag == StructI(i + 1):
            return s - i
        if tag == StructZero():
            return -1
    raise ValueError(f"shift undefined for structure {tag!r} with kind {kind!r}, i={i}")


def F_r_value(p: Partition, q: Partition, r: int, N: int) -> Fraction:
    """The signed two-sum column combination at z = 1/N.

    Satisfies (−1)^r · F_r(p,q) = β_{r+2}(z)·e_r(p,q) − β_{r+3}(z)·e_{r+1}(p,q);
    computed directly from the e_r values of the rewired partitions, never
    from the structure classifier.
    """
    n = _check_pair(p, q)
    if not 1 <= r < n - 1:
        raise ValueError(f"column level r={r} out of range for n={n}")
    if not in_W(p, r):
        raise ValueError("row partition is not in the level r stratum")
    if not in_W(q, r + 1):
        raise ValueError("column partition is not in the level r+1 stratum")
    s = r // 2
    t = s + 1 if r % 2 == 1 else s
    z = Fraction(1, N)
    total = Fraction(0)
    for j in range(1, s + 2):
        term = e_r(p, f_manip(j, q, r), r, N)
        if term:
            total += Fraction(term, N ** (s - j + 2)) * beraha(2 * j - 1).evaluate(z)
    for j in range(1, t + 1):
        term = e_r(p, g_manip(j, q, r), r, N)
        if term:
            total -= Fraction(term, N ** (s - j + 1)) * beraha(2 * j).evaluate(z)
    return total


# ---------------------------------------------------------------------------
# the determinant recursion


def _strata_counts(n: int) -> tuple[list[int], list[int]]:
    """(#W(n,r))_{r=0..n}, (#Y(n,r))_{r=0..n-1} by direct enumeration."""
    nc = enumerate_partitions(n, PartitionClass.NONCROSSING)
    w_counts = [sum(1 for p in nc if in_W(p, r)) for r in range(n + 1)]
    y_counts = [w_counts[r] - w_counts[r + 1] for r in range(n)]
    return w_counts, y_counts


def recursion_det(n: int, N: int) -> Fraction:
    """det A(n,0) by the level recursion alone — no elimination involved.

    Each level contributes (β_{r+3}(z)/β_{r+2}(z))^{#W(n,r+1)} · det B(n,r),
    where det B(n,r) reduces to the level matrix one point smaller: equal
    for odd r, and carrying a factor N per Y(n,r) element for even r
    (B = N·A entrywise there, so the scalar pulls out once per dimension).
    Base case: the single partition at level n−1 gives N^⌈n/2⌉.
    """
    value, _ = recursion_trace(n, N)
    return value


def recursion_trace(n: int, N: int) -> tuple[Fraction, list[dict]]:
    """recursion_det plus the JSON-ready list of expansion steps."""
    if n < 1:
        raise ValueError("n must be positive")
    if N < 4:
        raise ValueError(
            "the recursion needs N >= 4: reversed Beraha denominators can "
            "vanish below that (e.g. at N = 3), so levels would divide by zero"
        )
    z = Fraction(1, N)
    counts: dict[int, tuple[list[int], list[int]]] = {}
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
        if m not in counts:
            counts[m] = _strata_counts(m)
        w_counts, y_counts = counts[m]
        den = beraha(r + 2).evaluate(z)
        if den == 0:
            raise ArithmeticError(
                f"reversed Beraha value {r + 2} vanished at 1/{N}"
            )
        factor = beraha(r + 3).evaluate(z) / den
        exponent = w_counts[r + 1]
        if r % 2 == 1:
            b_case = "odd"
            b_det = level(m - 1, r - 1)
        elif r > 0:
            b_case = "even"
            b_det = N ** y_counts[r] * level(m - 1, r - 1)
        else:
            b_case = "zero"
            b_det = N ** y_counts[0] * level(m - 1, 0)
        trace.append(
            {
                "level_n": m,
                "r": r,
                "factor_beta": str(factor),
                "exponent": exponent,
                "B_case": b_case,
            }
        )
        value = factor**exponent * b_det * level(m, r + 1)
        memo[(m, r)] = value
        return value

    return level(n, 0), trace
