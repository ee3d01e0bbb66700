"""Stratified elimination machinery for the noncrossing Gram determinant.

The Gram matrix over NC(0,n) is conquered level by level: partitions are
stratified by conditions on their leftmost points (the W/Y strata), each
level's matrix A(n,r) has entries that vanish on "flawed" pairs, and two
block rewirings f and g produce column combinations that telescope the
determinant down to 1×1 base cases. Everything is exact: the level
quotients are powers of N and of the integers c_k = N^{deg β_k}·β_k(1/N)
from the reversed Beraha polynomials β_k, so each level is a vector of
exponents, the same at every N, and only the top one is multiplied out.

Points of a pair (p, q) live on a graph: nodes 1..n carry p, nodes
1'..n' carry q, and vertical edges join i to i'. Its components are
those of the join p ∨ q: with every vertical the pair graph, whose
component count is the loop count rl(q*, p); at level r = 2s or 2s+1,
with the verticals of 1..s+1 cut, the cut graph, whose nodes
`partitions.stacked_places` places terminals lowest: a cut i is bit i-1,
and any other i', cut or glued to i, is bit s+i. The flaw and the
structures below are canonical labels of its leftmost points, read off
one `partitions.join_labels` walk. Every entry of a level matrix is one
of `gram`'s exponents, so the level-r matrix is read off the same
exponent table as the Gram matrix, which is level 0.

The strata form a chain W(n,0) ⊇ W(n,1) ⊇ … ⊇ W(n,n−1) ⊋ W(n,n) = ∅,
with Y(n,r) = W(n,r) \\ W(n,r+1), so each partition sits at one level.
Membership is one number, the level of p, the largest r with p ∈ W(n,r).
With r = 2s or 2s+1, a canonical RGS has rgs[s] = s exactly when its
first s+1 points lie in pairwise different blocks, which are then the
blocks 0..s; point j+1 is not a singleton when block j occurs again
later. So with a the number of leading points with rgs[i] = i and b the
number of leading blocks 0, 1, … among them that occur again after
point a, the level is 2a − 1 when b = a ≥ 1 and 2b otherwise, and
p ∈ W(n,r) iff r ≤ level, p ∈ Y(n,r) iff r = level. Sorting a class into
strata asks `in_W` about each partition at every r in turn, so `in_W`
keeps the level of the last partition it read, matched by identity, and
reads each RGS once per run of questions; the memo holds that one
partition alive and no other. The strata are never filtered out of
NC(0,n): the package's one partition generator lists W(n,r) from the
prefix its RGS must start with, so a small stratum costs little however
large NC(0,n) is.

The case table of the recursion classifies the cut graph of a pair by its
components on the leftmost nodes 1..s+1, 1'..t' into three structures,
[i], [i, i+1] and [0], spelled as the tuples (i,), (i, i+1) and (0,).
Each structure is one canonical labelling of those nodes, so the
classification is one lookup in a table of labels.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator

from .errors import ShapeError, check_parameter, refuse_past
from .gram import (
    _FLAW, DET_DIMENSION_BUDGET, ExactMatrix, _check_det_bits, _pair_exponent,
    _table_matrix,
)
from .partitions import (
    Partition,
    PartitionClass,
    _canonical,
    _enumerate,
    block_masks,
    join_labels,
    stacked_places,
)
from .polynomials import _decimal_text, _fraction_text, beraha_bases, power_product


# ---------------------------------------------------------------------------
# argument checks


def _check_pair(p: Partition, q: Partition) -> int:
    if p.upper or q.upper:
        raise ShapeError("pair graphs need (0, n) partitions")
    if p.lower != q.lower:
        raise ShapeError("pair graphs need equal point counts")
    return p.lower


def _check_level(n: int, r: int, what: str, low: int = 0, high: int | None = None) -> None:
    """Refuse an n or r that is not an int (bools are not levels), and a
    level r outside low ≤ r < high, where high is n unless given."""
    if type(n) is not int or type(r) is not int:
        raise TypeError(f"{what} level needs int n and r, not n={n!r}, r={r!r}")
    if not low <= r < (n if high is None else high):
        raise ValueError(f"{what} level r={r} out of range for n={n}")


# ---------------------------------------------------------------------------
# strata


def _level(rgs: tuple[int, ...]) -> int:
    """The largest r with the partition of this (0, n) RGS in W(n,r).

    a counts the leading points in pairwise different blocks (rgs[i] = i),
    b the leading blocks 0, 1, … among them that occur again after point a.
    The level is 2a − 1 when b = a ≥ 1, and 2b otherwise.
    """
    a = 0
    for block in rgs:
        if block != a:
            break
        a += 1
    rest = rgs[a:]
    b = 0
    while b < a and b in rest:
        b += 1
    return 2 * a - 1 if b == a and a else 2 * b


# (partition, n, level) of the last partition `in_W` was asked about,
# matched by identity; only `in_W` replaces it, always whole.
_last_level: tuple[object, int, int] = (object(), 0, 0)


def in_W(p: Partition, r: int) -> bool:
    """Leftmost-point stratum test: p ∈ W(n,r) iff r ≤ the level of p.

    r = 2s: the s leftmost points are non-singletons and the s+1 leftmost
    lie in pairwise different blocks. r = 2s+1: the s+1 leftmost points are
    non-singletons in pairwise different blocks. r = 0 is no condition,
    r = n is empty. The level is 2a − 1 when all a leading points with
    rgs[i] = i are non-singletons, and 2b when only the first b are
    (`_level`). It is read at the first question about p and kept, matched
    by identity, for the questions about the same object that follow; the
    memo holds the last partition asked about alive and no other.
    """
    global _last_level
    last = _last_level
    if last[0] is not p:
        if p.upper:
            raise ShapeError("strata are defined on (0, n) partitions")
        last = _last_level = (p, p.lower, _level(p.rgs))
    n = last[1]
    # inline, not `_check_level`: sorting a class into strata calls this per partition
    if not 0 <= r <= n:
        raise ValueError(f"stratum level r={r} out of range for n={n}")
    return r <= last[2]


def in_Y(p: Partition, r: int) -> bool:
    """Y(n,r) = W(n,r) \\ W(n,r+1): the stratum left behind at level r."""
    _check_level(p.points, r, "stratum")
    return in_W(p, r) and not in_W(p, r + 1)


def w_stratum(n: int, r: int) -> list[Partition]:
    """W(n,r) within NC(0,n), in global enumeration order.

    With r = 2s or 2s+1, W(n,r) holds the noncrossing partitions whose RGS
    starts 0, 1, …, s and whose first s + (r mod 2) points are not
    singletons: the enumeration from that prefix with those blocks
    waiting. W(n,0) is all of NC(0,n), so it starts from nothing.
    """
    _check_level(n, r, "stratum", 0, n + 1)
    s = r // 2
    return list(_enumerate(n, PartitionClass.NONCROSSING, s + 1 if r else 0, s + r % 2))


def y_stratum(n: int, r: int) -> list[Partition]:
    _check_level(n, r, "stratum")
    return [p for p in w_stratum(n, r) if not in_W(p, r + 1)]


# ---------------------------------------------------------------------------
# flaws and level matrices


def has_r_flaw(p: Partition, q: Partition, r: int) -> bool:
    """Whether the cut graph violates the level-r connection pattern.

    Flawless means: the points 1..s+1 are pairwise disconnected, so are
    1'..(s+1)', i is connected to i' for i ≤ s, and for odd r also s+1 to
    (s+1)'. Level 0 never has flaws.
    """
    return e_r(p, q, r, 1) == 0


def e_r(p: Partition, q: Partition, r: int, N: int) -> int:
    """Level-r matrix entry: 0 on flawed pairs, else N^(components of the pair graph)."""
    check_parameter(N)
    n = _check_pair(p, q)
    _check_level(n, r, "flaw")
    exponent = _pair_exponent(p, q, r)
    return 0 if exponent == _FLAW else N**exponent


def _check_level_matrix(n: int, r: int, N: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    _check_level(n, r, "level")
    check_parameter(N)


def build_A(n: int, r: int, N: int) -> ExactMatrix:
    """The level-r matrix over W(n,r), Y(n,r) rows/columns listed first.

    More than DET_DIMENSION_BUDGET rows, #W(n,r) in closed form, raise
    BudgetError before any partition is listed.
    """
    _check_level_matrix(n, r, N)
    _check_level_budget(n, r, False)
    y, w = [], []
    for p in w_stratum(n, r):
        (w if in_W(p, r + 1) else y).append(p)
    return _table_matrix(tuple(y + w), n, N, r)


def build_B(n: int, r: int, N: int) -> ExactMatrix:
    """The corner block of build_A: rows and columns restricted to Y(n,r),
    refused like build_A when #Y(n,r) passes the budget."""
    _check_level_matrix(n, r, N)
    _check_level_budget(n, r, True)
    return _table_matrix(tuple(y_stratum(n, r)), n, N, r)


def _check_level_budget(n: int, r: int, corner: bool) -> None:
    """Refuse #W(n,r) rows, or #Y(n,r) for the corner block, past the
    budget, from the counts at r+1, r+2, …, n points, which grow with the
    point count: a level of millions of points costs a few small binomials."""

    def size(m: int) -> int:
        return _w_count(m, r) - (_w_count(m, r + 1) if corner else 0)

    refuse_past(DET_DIMENSION_BUDGET, "matrix size", size, range(r + 1, n + 1))


# ---------------------------------------------------------------------------
# the manipulations f and g

# Both rewirings act on a partition q whose s+1 leftmost points sit in
# pairwise different non-singleton blocks (K(j) := block of j minus j
# itself; X(j) := block of j). All target sets refer to the blocks of the
# ORIGINAL q — the moves happen simultaneously, which is why the scratch
# array below always reads from q.rgs and never from itself.


def _rewire(q: Partition, r: int, i: int, merge: bool) -> Partition:
    """f_manip(i, q, r), or g_manip(i, q, r) when merge is set."""
    n = q.points
    if q.upper:
        raise ShapeError("manipulations are defined on (0, n) partitions")
    _check_level(n, r, "manipulation", 0, n - 1)
    if not in_W(q, r + 1):
        raise ValueError("partition is not in the level r+1 stratum")
    s, odd = r // 2, r % 2 == 1
    limit = s if merge and not odd else s + 1
    if not 1 <= i <= limit:
        raise ValueError(f"i={i} out of range 1..{limit}")
    orig = q.rgs
    ids = list(orig)
    if merge:  # X(i) and X(i+1) become one block, under the id of X(i+1)
        ids = [orig[i] if b == orig[i - 1] else b for b in orig]
    for j in range(i + merge, s + 1):  # point j (1-based) joins the block of point j+1
        ids[j - 1] = orig[j]
    # point s+1 joins X(s+2) for odd r (a no-op after g's merge at i = s+1),
    # and becomes a singleton under a fresh id for even r
    ids[s] = orig[s + 1] if odd else n
    return Partition(0, n, _canonical(ids))


def f_manip(i: int, q: Partition, r: int) -> Partition:
    """Shift rewiring: point j leaves K(j) for K(j+1), j = i..s.

    Point s+1 leaves K(s+1); for odd r it joins X(s+2) instead of becoming
    a singleton. The result lands one stratum lower, in W(n,r).
    """
    return _rewire(q, r, i, False)


def g_manip(i: int, q: Partition, r: int) -> Partition:
    """Merge rewiring: point i keeps K(i) and absorbs K(i+1) as well.

    Points j = i+1..s shift as in f_manip, point s+1 by parity likewise.
    For odd r the extra case i = s+1 just merges the blocks of s+1 and
    s+2. The result lands in W(n,r).
    """
    return _rewire(q, r, i, True)


# ---------------------------------------------------------------------------
# structures: connection patterns of the cut graph on its leftmost points


def _structures(s: int, odd: bool) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The level-r structures (r = 2s, or 2s+1 if odd), keyed by the
    canonical labels of the nodes 1..s+1, 1'..t' in the cut graph, where
    t = s+1, or s+2 if odd.

    [i]: j' is joined to j for j < i, i' stays alone and j' is joined to
    j-1 for j > i; at even r the point s+1 stays alone too. [i, i+1]: as
    [i], but i' is joined to i (and so to (i+1)'). [0]: every j' is
    joined to j around the cut, and at odd r (s+2)' stays apart.

    Points 1..s+1 keep the labels 1..s+1 (0..s here, as an RGS counts from
    0); each j' takes the label of the point it is joined to, or the fresh
    label s+2 (s+1 here) when it is joined to none of them.
    """
    t = s + 2 if odd else s + 1
    label = tuple(range(s + 1))  # label[j-1] belongs to point j
    fresh = (s + 1,)
    table = {label + label + fresh * odd: (0,)}
    for i in range(1, s + 2):
        table[label + label[: i - 1] + fresh + label[i - 1 : t - 1]] = (i,)
    for i in range(1, t):
        table[label + label[:i] + label[i - 1 : t - 1]] = (i, i + 1)
    return table


def classify_structure(p: Partition, q: Partition, r: int) -> tuple[int, ...] | None:
    """The structure, (i,), (i, i+1) or (0,), whose pattern the cut graph's
    components induce on the leftmost points.

    The match is exact: mentioned points grouped together must be
    connected, mentioned points in different groups must not be. Returns
    None when no pattern fits.
    """
    n = _check_pair(p, q)
    _check_level(n, r, "structure", 0, n - 1)
    s, odd = r // 2, r % 2 == 1
    cut = s + 1
    up = block_masks(p.rgs, stacked_places(n, cut, False))
    lo = block_masks(q.rgs, stacked_places(n, cut, True))
    # 1..s+1, then the cut 1'..(s+1)', then (s+2)' at odd r, glued to s+2
    labels, _ = join_labels(up, lo, range(2 * cut + odd))
    return _structures(s, odd).get(labels)


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
    shifts = (
        {(i,): s - i + 2, (i - 1, i): s - i + 2, (i, i + 1): s - i + 1}
        if kind == "f"
        else {(i,): s - i + 1, (i, i + 1): s - i + 1, (i + 1,): s - i, (0,): -1}
    )
    if tag not in shifts:
        raise ValueError(f"shift undefined for structure {tag!r} with kind {kind!r}, i={i}")
    return shifts[tag]


def F_r_value(p: Partition, q: Partition, r: int, N: int) -> Fraction:
    """The signed two-sum column combination at z = 1/N.

    Satisfies (−1)^r · F_r(p,q) = β_{r+2}(z)·e_r(p,q) − β_{r+3}(z)·e_{r+1}(p,q);
    computed directly from the e_r values of the rewired partitions, never
    from the structure classifier. Column f_j weighs its entry by
    β_{2j−1}(z)/N^{s−j+2}, and g_j by β_{2j}(z)/N^{s−j+1}; as β_k(1/N) =
    c_k(N)/N^{⌊(k−1)/2⌋}, read off `polynomials.beraha_bases`, these are
    c_{2j−1}/N^{s+1} and c_{2j}/N^s.
    """
    check_parameter(N)
    n = _check_pair(p, q)
    _check_level(n, r, "column", 1, n - 1)
    if not in_W(p, r):
        raise ValueError("row partition is not in the level r stratum")
    if not in_W(q, r + 1):
        raise ValueError("column partition is not in the level r+1 stratum")
    s, c, total = r // 2, beraha_bases(r + 1, N), Fraction(0)
    columns = [(1, f_manip(j, q, r), s + 1, 2 * j - 1) for j in range(1, s + 2)]
    columns += [(-1, g_manip(j, q, r), s, 2 * j) for j in range(1, s + 1 + r % 2)]
    for sign, column, power, k in columns:
        term = e_r(p, column, r, N)
        if term:
            total += Fraction(sign * term * c[k - 1], N**power)
    return total


# ---------------------------------------------------------------------------
# the determinant recursion


def _strata_counts(n: int) -> tuple[list[int], list[int]]:
    """(#W(n,r))_{r=0..n}, (#Y(n,r))_{r=0..n-1} in closed form.

    #W(n,r) = (r+2)/(n+1) · C(2n−1−r, n−1−r) for r < n (a ballot number;
    #W(n,0) is the Catalan number C_n) and #W(n,n) = 0; the strata are
    nested, so #Y(n,r) = #W(n,r) − #W(n,r+1).
    """
    w_counts = [_w_count(n, r) for r in range(n + 1)]
    return w_counts, [w - below for w, below in zip(w_counts, w_counts[1:])]


def _w_count(n: int, r: int) -> int:
    """#W(n,r), one binomial (see `_strata_counts`)."""
    return (r + 2) * comb(2 * n - 1 - r, n - 1 - r) // (n + 1) if r < n else 0


def recursion_det(n: int, N: int) -> int:
    """det A(n,0) by the level recursion alone — no elimination involved.

    Each level contributes (β_{r+3}(z)/β_{r+2}(z))^{#W(n,r+1)} · det B(n,r),
    where det B(n,r) reduces to the level matrix one point smaller: equal
    for odd r, and carrying a factor N per Y(n,r) element for even r
    (B = N·A entrywise there, so the scalar pulls out once per dimension).
    Base case: the single partition at level n−1 gives N^⌈n/2⌉. The levels
    are added up as exponents and multiplied out once, into an integer.
    """
    value, _ = recursion_trace(n, N)
    return value


def _level_exponents(n: int) -> Iterator[tuple[list[list[int]], list[int]]]:
    """Every det A(m,r), m ≤ n, as powers: a walk that yields, for m =
    1..n, the exponents of level(m, r) at [r] and m's #W(m, r) at [r].

    Entry 0 is the power of N, and entry k ≥ 1 the power of the integer
    c_k = N^{deg β_k}·β_k(1/N). As deg β_k = ⌊(k−1)/2⌋, the factor
    β_{r+3}(1/N)/β_{r+2}(1/N) of level r is c_{r+3}/c_{r+2}, over N at even
    r, so every exponent is a sum of strata counts, the same at any N: the
    walk takes none. It holds only the point count below the one it builds.
    """
    # Bottom up, one point count m at a time: level(m, r) needs
    # level(m, r+1) and level(m-1, r-1), or level(m-1, 0) at r = 0.
    below: list[list[int]] = []  # exponents of level(m-1, r) for r = 0..m-2
    for m in range(1, n + 1):
        w_counts, y_counts = _strata_counts(m)
        value = [(m + 1) // 2] + [0] * (n + 1)
        levels = [value]
        for r in range(m - 2, -1, -1):
            w = w_counts[r + 1]
            value = [a + b for a, b in zip(value, below[max(r - 1, 0)])]
            value[r + 3] += w
            value[r + 2] -= w
            if r % 2 == 0:  # N per Y(m,r) element from B, and the factor's 1/N
                value[0] += y_counts[r] - w
            levels.append(value)
        below = levels[::-1]
        yield below, w_counts


def recursion_trace(n: int, N: int) -> tuple[int, list[dict]]:
    """recursion_det plus the JSON-ready list of expansion steps: for each
    point count m = 1..n, the level factors at r ascending, then the base
    case. N enters here alone: `_level_exponents` walks the exponents,
    the same at any N, and their bases are N and c_1(N), …, c_{n+1}(N),
    read off `polynomials.beraha_bases`, whose values at N² are the bases
    of the pair formula.

    A value that may have more than `gram.RECURSION_BIT_BUDGET` bits, by the
    Hadamard bound of the NC Gram matrix it equals, is refused with
    BudgetError before any arithmetic on it.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_parameter(N, 4, "the recursion needs N >= 4: below, a reversed Beraha value can vanish")
    _check_det_bits(n, PartitionClass.NONCROSSING, N)
    bases = [N, *beraha_bases(n + 1, N)]
    factors = []  # the text of level r's factor, the same at every point count
    for r in range(n - 1):
        factors.append(_fraction_text(Fraction(bases[r + 3], bases[r + 2] * N ** (1 - r % 2))))
    trace: list[dict] = []
    for m, (levels, w_counts) in enumerate(_level_exponents(n), 1):
        for r in range(m - 1):
            case, w = "odd" if r % 2 else "even" if r else "zero", w_counts[r + 1]
            trace.append(dict(level_n=m, r=r, factor_beta=factors[r], exponent=w, B_case=case))
        trace.append({"level_n": m, "r": m - 1, "base_value": _decimal_text(N ** ((m + 1) // 2))})
    return power_product(zip(bases, levels[0])), trace
