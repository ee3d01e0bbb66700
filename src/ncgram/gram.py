"""Exact Gram matrices of partition vectors, with determinant and rank.

The matrix indexed by a partition class has entry (p, q) = N^{rl(q*, p)},
where rl is the loop count of the composition q* ∘ p. Entries are either
plain integers (N given) or monomials in an IntPolynomial variable standing
for N (symbolic mode).

Every elimination is the one fraction-free integer kernel in `kernels`,
so a symbolic determinant is found by evaluation and interpolation: the
matrix is evaluated at the integers 1, …, D + 1, where D bounds the
determinant's degree, each integer determinant is eliminated exactly, and
Newton interpolation recovers the polynomial, by exact integer division
that fails unless the result lies in ℤ[X]. D is the Leibniz bound
Σ_i max_j deg a_ij (every term of the Leibniz expansion takes one entry
from each row), so D + 1 values pin the polynomial down for any matrix.
Nothing here ever touches floating point.

Every integer matrix is eliminated in two blocks split along the mirror
σ of its labels (`partitions.mirror`, each row reversed). A loop count
does not change when both partitions are relabelled alike, so a Gram
matrix G satisfies G[σi][σj] = G[i][j]. Let T₊ hold the orbit-indicator
columns of σ (e_i for a fixed point, e_i + e_σi for a 2-orbit) and T₋ the
columns e_i − e_σi, one per 2-orbit, k of them. T₊ lies in the +1 and T₋
in the −1 eigenspace of the permutation P of σ, and PᵀGP = G, so
uᵀGv = (Pu)ᵀG(Pv) = −uᵀGv for u in the one and v in the other: the
cross blocks vanish and

    Tᵀ·G·T = diag(M₊, 2·M₋),   M₊ = T₊ᵀ·G·T₊,   M₋[i][j] = G[i][j] − G[i][σj]

over 2-orbit representatives i, j, since (e_i − e_σi)ᵀG(e_j − e_σj) =
2(G[i][j] − G[i][σj]) by invariance. T = [T₊ T₋] is square; up to the
order of its rows and columns it is block diagonal, with a 1 for each
fixed point and [[1, 1], [1, −1]], of determinant −2, for each 2-orbit,
so det T = ±2^k. Hence

    det G · 4^k = det M₊ · 2^k · det M₋,   so   det G = det M₊ · det M₋ / 2^k,

and rank G = rank M₊ + rank M₋, as T is invertible over ℚ. Both blocks
are integer matrices, symmetric when G is, of about half the size, and
their determinants share out the bits of det G between them. σ is
the identity, and then M₊ = G and M₋ is empty, unless the row and column
labels are equal and distinct, their mirror images are labels again, and
every entry is σ-invariant, which is checked entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .errors import BudgetError, ShapeError
from .partitions import (
    PairForest,
    Partition,
    PartitionClass,
    block_forest,
    enumerate_partitions,
    mirror,
)
from .polynomials import IntPolynomial

#: Hard cap on elimination size; beyond this the cubic big-int work is no
#: longer a "just wait a bit" proposition. build_gram refuses such a matrix
#: before computing any entry, since neither determinant nor rank takes it.
DET_DIMENSION_BUDGET = 2000


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
        return bool(self.entries and self.entries[0]) and isinstance(
            self.entries[0][0], IntPolynomial
        )

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
    if m.is_symbolic:
        return _det_by_interpolation(m)
    return _split_det(m.entries, _label_mirror(m))


def rank(m: ExactMatrix) -> int:
    """Exact rank of an integer-mode matrix (over ℚ)."""
    if m.is_symbolic:
        raise ShapeError("rank requires integer entries; evaluate first")
    _check_budget(max(m.nrows, m.ncols))
    return _split_rank(m.entries, _label_mirror(m))


def _check_budget(size: int) -> None:
    if size > DET_DIMENSION_BUDGET:
        raise BudgetError(f"matrix size {size} exceeds elimination budget {DET_DIMENSION_BUDGET}")


def _label_mirror(m: ExactMatrix) -> tuple[int, ...]:
    """σ as a permutation of the indices: i ↦ the index of mirror(label i).

    The identity unless row and column labels are equal and distinct, the
    mirror maps them onto themselves and G[σi][σj] == G[i][j] holds for
    every entry; nothing about the entries is assumed.
    """
    identity = tuple(range(m.nrows))
    labels = m.row_labels
    if labels != m.col_labels:
        return identity
    index = {p: i for i, p in enumerate(labels)}
    if len(index) < len(labels):
        return identity
    sigma = tuple(index.get(mirror(p), -1) for p in labels)
    if -1 in sigma:
        return identity
    rows = m.entries
    for row, s in zip(rows, sigma):
        image = rows[s]
        if [image[t] for t in sigma] != list(row):
            return identity
    return sigma


def _mirror_blocks(rows, sigma: tuple[int, ...]):
    """(M₊, M₋) of the module docstring; (rows, ()) when σ is the identity.

    The orbits of σ are listed by their smaller index, which represents a
    2-orbit in M₋.
    """
    orbits = [(i, s) for i, s in enumerate(sigma) if i <= s]
    if len(orbits) == len(sigma):
        return rows, ()

    def orbit_sums(row) -> list:
        return [row[i] + row[s] if i < s else row[i] for i, s in orbits]

    plus = []
    for i, s in orbits:
        sums = orbit_sums(rows[i])
        if i < s:
            sums = [a + b for a, b in zip(sums, orbit_sums(rows[s]))]
        plus.append(sums)
    pairs = [(i, s) for i, s in orbits if i < s]
    minus = [[rows[i][j] - rows[i][t] for j, t in pairs] for i, _ in pairs]
    return plus, minus


def _split_det(rows, sigma: tuple[int, ...]) -> int:
    """det G = det M₊ · det M₋ / 2^k; the division is checked to be exact."""
    plus, minus = _mirror_blocks(rows, sigma)
    det, rest = divmod(kernels.det_exact(plus) * kernels.det_exact(minus), 2 ** len(minus))
    if rest:
        raise ArithmeticError("det M₊ · det M₋ is not a multiple of 2^k")
    return det


def _split_rank(rows, sigma: tuple[int, ...]) -> int:
    """rank G = rank M₊ + rank M₋."""
    plus, minus = _mirror_blocks(rows, sigma)
    return kernels.rank_exact(plus) + kernels.rank_exact(minus)


def _det_by_interpolation(m: ExactMatrix) -> IntPolynomial:
    """Symbolic determinant by integer evaluation + exact interpolation.

    The determinant degree is at most Σ_i max_j deg a_ij (the Leibniz
    bound); evaluating at that many + 1 points pins it down.
    """
    bound = sum(max(max(e.degree for e in row), 0) for row in m.entries)
    xs = list(range(1, bound + 2))
    sigma = _label_mirror(m)
    ys = [_split_det(m.evaluate(t).entries, sigma) for t in xs]
    return _interpolate_integer_poly(xs, ys)


def _interpolate_integer_poly(xs: list[int], ys: list[int]) -> IntPolynomial:
    """Newton divided-difference interpolation, checked to land in ℤ[X].

    At integer nodes every divided difference of a polynomial over ℤ is an
    integer (those of X^m are complete homogeneous symmetric polynomials
    in the nodes), so the table is built by exact integer division. An
    inexact division means the interpolant is not in ℤ[X]; when none
    occurs, the integer Newton form expands to a polynomial over ℤ.
    """
    count = len(xs)
    coef = list(ys)
    for j in range(1, count):
        for i in range(count - 1, j - 1, -1):
            coef[i], inexact = divmod(coef[i] - coef[i - 1], xs[i] - xs[i - j])
            if inexact:
                raise ArithmeticError("interpolation left ℤ[X]")
    poly = [coef[-1]]
    for k in range(count - 2, -1, -1):
        new = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            new[i + 1] += c
            new[i] -= c * xs[k]
        new[0] += coef[k]
        poly = new
    return IntPolynomial(poly)
