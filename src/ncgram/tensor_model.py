"""Ground-truth model of the linear maps attached to partitions.

A partition p on (k, l) points acts on tensor legs: the matrix entry at
(lower multi-index j, upper multi-index i) is 1 when (i, j) labels every
block of p constantly, else 0. So the nonzero entries are the N^{b(p)}
block-constant labellings, one value in [N] per block. A vector is the
dict of its support, a map one int with a set bit for each nonzero (row,
col) cell, which `matrix_of` writes out densely and the structural laws
(tensor, involution, composition with loop scaling) compare, at small N
by brute force. The expansion of a vector over the partitions with at
most N blocks is in closed form, by Möbius inversion over the groupings
of its blocks, at most 10^6 of them. It is an oracle, not a production
path: dense sizes are capped hard at N^legs ≤ 10^6.

Multi-indices are 1-based tuples over [N] = {1, …, N}, leftmost leg most
significant in any flattened enumeration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from operator import mul
from typing import Iterator

from .errors import ShapeError, check_count, check_parameter, refuse_past
from .partitions import (
    Partition,
    PartitionClass,
    compose,
    count_partitions,
    enumerate_partitions,
    involution,
    iter_partitions,
    refines,
    tensor,
)
from .polynomials import IntPolynomial

DENSE_BUDGET = 10**6

#: Law cases `check_functor_laws` may run: the P² tensor cases for its P
#: partitions with at most max_points points a row, more than either other
#: law has. Each case compares supports of at most DENSE_BUDGET bits, which
#: `_check_dense` bounds on the 4·max_points legs of q ⊗ p, so the two
#: budgets admit max_points 1 to 3 (P = 5, 34 and 381) up to the corners
#: N = 31 at 1 (0.02 s), N = 5 at 2 (0.1 s) and N = 3 at 3 (16–18 s), and
#: refuse every max_points from 4 on (P² over 7.2M) from a few Bell numbers
#: (2-core Intel Xeon, Python 3.11, in-process, `laws` through the CLI).
LAWS_CASE_BUDGET = 10**6

#: Groupings of q's blocks, Bell(b(q)), that `express_in_bounded_basis` may
#: list. For `singletons(b)` at N = 4 it took 0.10, 0.46 and 2.2 s at b = 9,
#: 10 and 11 (72 MiB peak at 11; 2-core AMD EPYC, Python 3.11, one run
#: each), about 4.7× more per block: b ≤ 11 is admitted, 12 refused.
EXPANSION_BUDGET = 10**6


@dataclass(frozen=True)
class DenseTensor:
    """Sparse-by-dict vector in ([N]^legs); absent indices are 0."""

    dimension_per_leg: int
    legs: int
    entries: dict[tuple[int, ...], int]

    def __post_init__(self) -> None:
        check_parameter(self.dimension_per_leg, 1, "dimension per leg must be positive")
        check_count(self.legs, "leg count")
        _check_dense(self.dimension_per_leg, self.legs)


def _check_dense(N: int, legs: int) -> None:
    """Refuse N^legs entries past DENSE_BUDGET from N^0, N^1, …, which stop one
    past the budget's bit length, where every N ≥ 2 has passed it."""
    steps = range(min(legs, DENSE_BUDGET.bit_length() + 1) + 1)
    refuse_past(DENSE_BUDGET, f"dense size of {N}^{legs}:", lambda e: N**e, steps)


def _labellings(p: Partition, N: int) -> Iterator[tuple[int, ...]]:
    """Every labelling of the points of p over [N] that is constant on blocks.

    Each of the N^{b(p)} ways to give each block a value, spread over the
    points by the RGS; the upper row comes first, as in `i + j`.
    """
    rgs = p.rgs
    for values in product(range(1, N + 1), repeat=p.block_count):
        yield tuple(values[b] for b in rgs)


def delta_p(p: Partition, i: tuple[int, ...], j: tuple[int, ...]) -> int:
    """1 iff (i, j) labels all connected points of p equally."""
    if len(i) != p.upper or len(j) != p.lower:
        raise ShapeError(
            f"labelling shape ({len(i)},{len(j)}) does not match partition ({p.upper},{p.lower})"
        )
    labels = i + j
    for v in labels:
        check_count(v, "label", 1)
    first: dict[int, int] = {}
    return int(all(first.setdefault(b, v) == v for b, v in zip(p.rgs, labels)))


def vector_of(p: Partition, N: int) -> DenseTensor:
    """The vector Σ_i [p ⪯ ker(i)] e_i for p on (0, n) points.

    Its support is the block-constant labellings: exactly N^{b(p)}
    nonzero entries.
    """
    if p.upper != 0:
        raise ShapeError("vector form needs a partition with no upper points")
    check_parameter(N)
    _check_dense(N, p.lower)
    entries = dict.fromkeys(_labellings(p, N), 1)
    return DenseTensor(dimension_per_leg=N, legs=p.lower, entries=entries)


def inner_product(u: DenseTensor, v: DenseTensor) -> int:
    """⟨u, v⟩ = Σ_i u_i · v_i over the shared index set."""
    if (u.dimension_per_leg, u.legs) != (v.dimension_per_leg, v.legs):
        raise ShapeError("tensors have different shapes")
    small, large = (u.entries, v.entries) if len(u.entries) <= len(v.entries) else (v.entries, u.entries)
    return sum(c * large[idx] for idx, c in small.items() if idx in large)


def matrix_of(p: Partition, N: int) -> list[list[int]]:
    """Dense matrix of the map of p: rows = lower indices, cols = upper.

    Row/column enumeration order is row-major over [N]^legs with the
    leftmost leg most significant. Zeros everywhere but at the N^{b(p)}
    cells of `_support`, read off its binary digits row by row.
    """
    check_parameter(N)
    _check_dense(N, p.points)
    rows, cols = N**p.lower, N**p.upper
    digits = f"{_support(p, N, cols, 1):0{rows * cols}b}"[::-1]
    return [[*map(int, digits[r : r + cols])] for r in range(0, rows * cols, cols)]


def _support(p: Partition, N: int, row_stride: int, col_stride: int, seed: int = 1) -> int:
    """The nonzero cells of the map of p as one int: `seed` shifted by
    row·row_stride + col·col_stride for each of its N^{b(p)} cells (row,
    col), all ORed. Block b has a row weight, Σ N^(l−1−t) over its lower
    points t, and a column weight, Σ N^(k−1−t) over its upper points t;
    label v on it adds v − 1 times each, and each cell sums one label per
    block. So each block ORs N − 1 copies of the cells so far into them,
    each shifted by its weight once more; the strides must keep cells apart."""
    k, last = p.upper, p.points - 1
    weights = [0] * p.block_count
    for pos, b in enumerate(p.rgs):
        if pos < k:
            weights[b] += col_stride * N ** (k - 1 - pos)
        else:
            weights[b] += row_stride * N ** (last - pos)
    support = seed
    for weight in weights:
        shifted = support
        for _ in range(N - 1):
            shifted <<= weight
            support |= shifted
    return support


def _slices(x: int, size: int, count: int) -> list[int]:
    """x cut into `count` slices of `size` bits, the lowest first."""
    mask = (1 << size) - 1
    return [x >> (size * i) & mask for i in range(count)]


def _partitions_up_to(max_points: int) -> list[Partition]:
    """All partitions with at most max_points points in each row."""
    return [
        Partition(k, l, p.rgs)
        for k in range(max_points + 1)
        for l in range(max_points + 1)
        for p in enumerate_partitions(k + l, PartitionClass.ALL)
    ]


def check_functor_laws(N: int, max_points: int) -> list[dict]:
    """Exhaustively verify the three structural laws on small partitions.

    Law 1: the map of q ⊗ p is the Kronecker product of the maps.
    Law 2: the map of p* is the transpose.
    Law 3: N^{rl(q,p)} · map(q∘p) = map(q) · map(p) for composable pairs
    (stated integrally to stay division-free). Each law compares the
    result's shape (upper, lower), which its map alone does not fix, and
    then two ints: the result's `_support`, and the operands' laid out at
    strides that put each cell of the expected map on the result's bit.

    Returns one report dict per law with the first counterexample, if any.
    """
    check_parameter(N)
    check_count(max_points, "max_points", 1)
    # The largest map is that of q ⊗ p for two (max_points, max_points)
    # partitions, so refuse before any is built.
    _check_dense(N, 4 * max_points)
    _check_law_cases(max_points)
    parts = _partitions_up_to(max_points)
    legs = range(max_points + 1)
    # Kronecker: cells (a, c) of q and (b, d) of p give bit a·R_p·C_q·C_p +
    # b·C_q·C_p + c·C_p + d of q ⊗ p, so p's cells, per C_q = N^k, seed q's.
    seeds = {(p, k): _support(p, N, N ** (k + p.upper), 1) for p in parts for k in legs}
    # Composition: map(q)·map(p) as one int of lanes of L bits, more than
    # any count (C_q at most), entry (r, c) in lane r·C_p + c. Each cell
    # (r, mid) of q adds row mid of p, a bit a lane, shifted r·C_p lanes up:
    # column mid of q, a bit at lane r·C_p for each of its cells, times row
    # mid of p adds the shifted rows of that column's cells at once.
    lanes = [(N**k).bit_length() + 1 for k in legs]
    p_rows, q_cols = {}, {}
    for p in parts:
        rows, cols = N**p.lower, N**p.upper
        lane = lanes[p.lower]  # p as the right factor: its rows
        p_rows[p] = _slices(_support(p, N, lane * cols, lane), lane * cols, rows)
        for l in legs:  # p as the left factor of one with N^l columns: its columns
            stride = lanes[p.upper] * N**l
            q_cols[p, l] = _slices(_support(p, N, stride, stride * rows), stride * rows, cols)
    composed = {(q, p): compose(q, p) for q in parts for p in parts if p.lower == q.upper}

    def kron_holds(q: Partition, p: Partition) -> bool:
        t, cols = tensor(q, p), N ** (q.upper + p.upper)
        if (t.upper, t.lower) != (q.upper + p.upper, q.lower + p.lower):
            return False
        kron = _support(q, N, N**p.lower * cols, N**p.upper, seeds[p, q.upper])
        return _support(t, N, cols, 1) == kron

    def transpose_holds(p: Partition) -> bool:
        t, rows = involution(p), N**p.lower
        return (t.upper, t.lower) == (p.lower, p.upper) and _support(t, N, rows, 1) == _support(p, N, 1, rows)

    def product_holds(q: Partition, p: Partition, loops: int) -> bool:
        t, lane = composed[q, p][0], lanes[q.upper]
        if (t.upper, t.lower) != (p.upper, q.lower):
            return False
        scale = N ** min(loops, lane)  # ≥ 2^L, past every count, just when N^loops is
        counts = sum(map(mul, q_cols[q, p.upper], p_rows[p]))
        return scale < 1 << lane and counts == scale * _support(t, N, lane * N**p.upper, lane)

    fixed = {"N": N, "max_points": max_points}
    return [
        _run_law("tensor", [dict(q=q, p=p) for q in parts for p in parts], kron_holds, **fixed),
        _run_law("involution", [dict(p=p) for p in parts], transpose_holds, **fixed),
        _run_law(
            "composition",
            [dict(q=q, p=p, loops=loops) for (q, p), (_, loops) in composed.items()],
            product_holds,
            **fixed,
        ),
    ]


def _partition_invariants() -> list[dict]:
    """Small exhaustive diagram-calculus checks on one-row partitions."""
    classes = (
        [(n, PartitionClass.NONCROSSING) for n in range(7)]
        + [(n, PartitionClass.ALL) for n in range(6)]
        + [(2 * n, PartitionClass.NONCROSSING_PAIRS) for n in range(4)]
    )
    pool = [dict(p=p) for n in range(6) for p in enumerate_partitions(n, PartitionClass.ALL)]
    nonempty = [case for case in pool if case["p"].lower > 0]
    e = Partition.empty()
    return [
        _run_law(
            "enumeration-counts",
            [dict(points=n, cls=cls.value) for n, cls in classes],
            lambda points, cls: len(enumerate_partitions(points, PartitionClass(cls)))
            == count_partitions(points, PartitionClass(cls)),
        ),
        _run_law("involution-squared", pool, lambda p: involution(involution(p)) == p),
        _run_law("text-roundtrip", pool, lambda p: Partition.from_text(p.to_text()) == p),
        _run_law(
            "identity-neutral",
            nonempty,
            lambda p: compose(Partition.identity(p.lower), p) == (p, 0),
        ),
        _run_law("tensor-unit", pool, lambda p: tensor(p, e) == p and tensor(e, p) == p),
        _run_law(
            "refinement-bounds",
            nonempty,
            lambda p: refines(Partition.singletons(p.lower), p)
            and refines(p, Partition.one_block(p.lower)),
        ),
    ]


def _run_law(law: str, cases: list[dict], holds, **fixed) -> dict:
    """The report of one law: its name, the `fixed` fields, the number of
    cases, and "pass" if `holds(**case)` is true on every case, else "fail"
    with the first failing case, its partitions as text, as counterexample."""
    failed = next((case for case in cases if not holds(**case)), None)
    report = {"law": law, **fixed, "cases": len(cases), "status": "pass"}
    if failed is not None:
        shown = {k: v.to_text() if isinstance(v, Partition) else v for k, v in failed.items()}
        report.update(status="fail", counterexample=shown)
    return report


def _check_law_cases(max_points: int) -> None:
    """Refuse a law run past LAWS_CASE_BUDGET before any partition is listed,
    from P² over the (k, l) with k + l up to 0, 1, 2, … points: a huge
    max_points costs a few small Bell numbers."""

    def cases(top: int) -> int:  # over the (k, l) with k + l = t ≤ top and k, l ≤ max_points
        shapes = [min(t, 2 * max_points - t) + 1 for t in range(top + 1)]
        return sum(shape * count_partitions(t, PartitionClass.ALL) for t, shape in enumerate(shapes)) ** 2

    refuse_past(LAWS_CASE_BUDGET, "law cases", cases, range(2 * max_points + 1))


def express_in_bounded_basis(q: Partition, N: int) -> dict[Partition, int]:
    """Coefficients writing the vector of q over partitions with ≤ N blocks.

    Let E_τ be the sum of the e_i whose kernel is exactly τ; it is 0 when
    b(τ) > N, and vector_of(q) = Σ_{τ ⪰ q} E_τ. Möbius inversion on the
    partition lattice (Rota, "On the foundations of combinatorial theory
    I", 1964) gives E_τ = Σ_{p ⪰ τ} μ(τ, p)·vector_of(p), so each coarsening
    p of q with b(p) ≤ N gets α_p = Σ μ(τ, p) over the τ in [q, p] with
    b(τ) ≤ N. That interval is the product of one Π_m per block of p, m
    the number of q's blocks inside it, so α_p sums the coefficients of
    X^0 … X^N in ∏ G_m, where G_m = Σ_{τ ∈ Π_m} μ(τ, 1̂)·X^{b(τ)} has X^k
    coefficient S(m, k)·(−1)^{k−1}·(k−1)!: G_1 = X and
    G_m = (X − X²)·G′_{m−1}. Every coefficient is an integer, and every
    coarsening is one grouping of q's blocks. Partitions outside the
    returned mapping have coefficient 0; the combination satisfies
    Σ α_p · vector_of(p) = vector_of(q) exactly. More than
    EXPANSION_BUDGET groupings raise BudgetError before any is listed.
    """
    if q.upper != 0:
        raise ShapeError("expansion needs a partition with no upper points")
    check_parameter(N)
    if q.block_count <= N:
        return {q: 1}
    refuse_past(EXPANSION_BUDGET, "block groupings:", count_partitions, range(q.block_count + 1))
    X = IntPolynomial.x()
    G = {1: X}
    for m in range(2, q.block_count + 1):  # (1 − X)·X·G′, and X·G′ scales X^k by k
        G[m] = (1 - X) * IntPolynomial(k * c for k, c in enumerate(G[m - 1].coeffs))
    alpha: dict[Partition, int] = {}
    for g in iter_partitions(q.block_count):
        if g.block_count <= N:
            interval = IntPolynomial((1,))
            for m in Counter(g.rgs).values():
                interval *= G[m]
            p = Partition(0, q.points, tuple(g.rgs[b] for b in q.rgs))
            alpha[p] = sum(interval.coeffs[: N + 1])
    return alpha


def reconstruct(coefficients: dict[Partition, int], N: int) -> dict[tuple[int, ...], int]:
    """Σ α_p · vector_of(p) as an exact sparse vector (zeros dropped).

    Every partition of `coefficients` must have the same shape."""
    check_parameter(N)
    if len({(p.upper, p.lower) for p in coefficients}) > 1:
        raise ShapeError("coefficients name partitions of different shapes")
    acc: dict[tuple[int, ...], int] = {}
    for p, c in coefficients.items():
        if not c:
            continue
        for idx in vector_of(p, N).entries:
            acc[idx] = acc.get(idx, 0) + c
    return {idx: v for idx, v in acc.items() if v}
