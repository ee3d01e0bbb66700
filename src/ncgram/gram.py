"""Exact Gram matrices of partition vectors, with determinant and rank.

The matrix indexed by a partition class has entry (p, q) = N^{rl(q*, p)},
where rl is the loop count of the composition q* ∘ p. Entries are either
plain integers (N given) or monomials in an IntPolynomial variable standing
for N (symbolic mode). All elimination is fraction-free; nothing here ever
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import BudgetError, ShapeError
from .partitions import (
    PairForest,
    Partition,
    PartitionClass,
    block_forest,
    enumerate_partitions,
)
from .polynomials import IntPolynomial

#: Hard cap on elimination size; beyond this the cubic big-int work is no
#: longer a "just wait a bit" proposition. build_gram refuses such a matrix
#: before computing any entry, since neither determinant nor rank takes it.
DET_DIMENSION_BUDGET = 2000

#: Matrix size up to which the polynomial determinant runs directly over
#: ℤ[X]; larger symbolic matrices go through evaluation–interpolation.
POLY_DIRECT_LIMIT = 64


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable dense matrix with partition labels on rows and columns.

    Entries are homogeneous: all int or all IntPolynomial.
    """

    entries: tuple[tuple[int | IntPolynomial, ...], ...]
    row_labels: tuple[Partition, ...]
    col_labels: tuple[Partition, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.row_labels):
            raise ShapeError("row label count does not match matrix")
        for row in self.entries:
            if len(row) != len(self.col_labels):
                raise ShapeError("column label count does not match matrix")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.col_labels)

    @property
    def is_symbolic(self) -> bool:
        return bool(self.entries) and isinstance(self.entries[0][0], IntPolynomial)

    def entry(self, i: int, j: int) -> int | IntPolynomial:
        return self.entries[i][j]

    def principal_submatrix(self, k: int) -> ExactMatrix:
        """Leading k×k corner, labels included."""
        return ExactMatrix(
            entries=tuple(row[:k] for row in self.entries[:k]),
            row_labels=self.row_labels[:k],
            col_labels=self.col_labels[:k],
        )

    def evaluate(self, N: int) -> ExactMatrix:
        """Specialize a symbolic matrix at an integer parameter."""
        if not self.is_symbolic:
            raise ShapeError("matrix is already over the integers")
        return ExactMatrix(
            entries=tuple(
                tuple(e.evaluate(N) for e in row) for row in self.entries
            ),
            row_labels=self.row_labels,
            col_labels=self.col_labels,
        )


def build_gram(
    points: int,
    cls: PartitionClass = PartitionClass.NONCROSSING,
    N: int | None = None,
) -> ExactMatrix:
    """Gram matrix over the partitions of `points` lower points.

    Rows and columns follow the `enumerate_partitions` order. `N=None`
    builds the symbolic matrix with monomial entries X^{rl(q*,p)}. More
    than DET_DIMENSION_BUDGET partitions raise BudgetError before any
    entry is computed.
    """
    if points < 1:
        raise ValueError("points must be >= 1")
    if N is not None and N < 1:
        raise ValueError("N must be positive")
    parts = enumerate_partitions(points, cls)
    _check_budget(len(parts))
    # rl(q*, p) is the component count of the pair graph: p on top, q
    # below, every point i glued to i'. It is symmetric in p and q.
    uppers = [block_forest(p.rgs) for p in parts]
    lowers = [block_forest(p.rgs, points) for p in parts]
    blocks = [p.block_count for p in parts]
    size = len(parts)
    exps = [[0] * size for _ in range(size)]
    for a in range(size):
        row = exps[a]
        for b in range(a, size):
            forest = PairForest(uppers[a], lowers[b], blocks[a] + blocks[b])
            forest.glue(0, points, points)
            row[b] = exps[b][a] = forest.components
    if N is None:
        rows = tuple(
            tuple(IntPolynomial((0,) * e + (1,)) for e in row) for row in exps
        )
    else:
        rows = tuple(tuple(N**e for e in row) for row in exps)
    labels = tuple(parts)
    return ExactMatrix(entries=rows, row_labels=labels, col_labels=labels)


def determinant(m: ExactMatrix) -> int | IntPolynomial:
    """Exact determinant; polynomial result in symbolic mode."""
    if m.nrows != m.ncols:
        raise ShapeError("determinant of a non-square matrix")
    _check_budget(m.nrows)
    if m.nrows == 0:
        return 1
    if not m.is_symbolic:
        return kernels.det_exact(m.entries)
    if m.nrows <= POLY_DIRECT_LIMIT:
        return kernels.det_exact(m.entries)
    return _det_by_interpolation(m)


def rank(m: ExactMatrix) -> int:
    """Exact rank of an integer-mode matrix (over ℚ)."""
    if m.is_symbolic:
        raise ShapeError("rank requires integer entries; evaluate first")
    _check_budget(max(m.nrows, m.ncols))
    if m.nrows == 0:
        return 0
    return kernels.rank_exact(m.entries)


def _check_budget(size: int) -> None:
    if size > DET_DIMENSION_BUDGET:
        raise BudgetError(f"matrix size {size} exceeds elimination budget {DET_DIMENSION_BUDGET}")


def _det_by_interpolation(m: ExactMatrix) -> IntPolynomial:
    """Symbolic determinant by integer evaluation + exact interpolation.

    The determinant degree is at most size · max entry degree; evaluating
    at that many + 1 points pins it down. Coefficient growth inside a
    polynomial Bareiss would dwarf this.
    """
    size = m.nrows
    maxdeg = max(max(e.degree for e in row) for row in m.entries)
    bound = size * max(maxdeg, 0)
    xs = list(range(1, bound + 2))
    ys = [
        kernels.det_exact([[e.evaluate(t) for e in row] for row in m.entries])
        for t in xs
    ]
    return _interpolate_integer_poly(xs, ys)


def _interpolate_integer_poly(xs: list[int], ys: list[int]) -> IntPolynomial:
    """Newton divided-difference interpolation, checked to land in ℤ[X]."""
    count = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, count):
        for i in range(count - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [coef[-1]]
    for k in range(count - 2, -1, -1):
        new = [Fraction(0)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] += c
            new[i] -= c * xs[k]
        new[0] += coef[k]
        poly = new
    if any(c.denominator != 1 for c in poly):
        raise ArithmeticError("interpolation left ℤ[X]")
    return IntPolynomial(int(c) for c in poly)
