"""Decompose a distribution into sparse pieces and dyadic approximations.

Two independent reductions live here.

The sparsity path writes p as a uniform mixture: first as N = 2**n rows of
an allocation matrix, each row at most 3-sparse with total mass 1/N
(allocate_3sparse), then each 3-sparse row splits into two 2-sparse halves
(split_3_to_2), giving 2N rows overall (decompose_2sparse).

The dyadic path rounds p to a grid of multiples of 2**-m (round_to_dyadic)
and expands the result into a multiplicity map: a vector v of 2**m outcome
labels in which outcome j appears round(q_j * 2**m) times
(build_multiplicity_map).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    BadNormalization,
    DimensionMismatch,
    InconsistentCounts,
    LengthMismatch,
    SparsityViolation,
)
from .probdist import CLAMP_TOL, ProbVector, sort_with_permutation

# Residual row capacity below SNAP is treated as spent during allocation;
# without it, float dust can manufacture a spurious fourth entry in a row.
SNAP = 1e-15

# Fractional parts this close to 1 round up instead of truncating, so that
# masses already on the grid up to float error stay on the grid.
DYADIC_GUARD = 1e-9


@dataclass(frozen=True)
class SparseDist:
    """Distribution over n-bit outcomes stored as (index, mass) pairs.

    Entries are kept in ascending index order with strictly positive
    masses summing to 1 within 1e-12.
    """

    n: int
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        entries = tuple((int(j), float(v)) for j, v in self.entries)
        if not entries:
            raise LengthMismatch("a distribution needs at least one entry")
        indices = [j for j, _ in entries]
        if sorted(set(indices)) != indices:
            raise LengthMismatch("entry indices must be distinct and ascending")
        if indices[0] < 0 or indices[-1] >= 1 << self.n:
            raise LengthMismatch(f"indices must lie in [0, {1 << self.n})")
        if any(v <= 0.0 for _, v in entries):
            raise LengthMismatch("entry masses must be strictly positive")
        total = math.fsum(v for _, v in entries)
        if abs(total - 1.0) > 1e-12:
            raise LengthMismatch(f"masses sum to {total!r}, expected 1 within 1e-12")
        object.__setattr__(self, "entries", entries)

    @property
    def sparsity(self) -> int:
        return len(self.entries)

    def to_dense(self) -> NDArray[np.float64]:
        arr = np.zeros(1 << self.n, dtype=np.float64)
        for j, v in self.entries:
            arr[j] = v
        return arr


@dataclass(frozen=True)
class AllocationMatrix:
    """N x N nonnegative matrix with row sums 1/N and column sums p.

    Rows are stored sparsely as tuples of (column, value) with at most 3
    entries each, ascending by column.
    """

    N: int
    rows: tuple[tuple[tuple[int, float], ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.N:
            raise DimensionMismatch(f"expected {self.N} rows, got {len(self.rows)}")
        rows = tuple(
            tuple((int(c), float(v)) for c, v in row) for row in self.rows
        )
        for i, row in enumerate(rows):
            if len(row) > 3:
                raise SparsityViolation(f"row {i} has {len(row)} entries")
            cols = [c for c, _ in row]
            if sorted(set(cols)) != cols:
                raise DimensionMismatch(f"row {i} columns must be distinct ascending")
            if cols and (cols[0] < 0 or cols[-1] >= self.N):
                raise DimensionMismatch(f"row {i} column out of range")
            if any(v <= 0.0 for _, v in row):
                raise DimensionMismatch(f"row {i} stores a nonpositive value")
        object.__setattr__(self, "rows", rows)

    def row_sums(self) -> NDArray[np.float64]:
        return np.array(
            [math.fsum(v for _, v in row) for row in self.rows], dtype=np.float64
        )

    def column_sums(self) -> NDArray[np.float64]:
        cols: list[list[float]] = [[] for _ in range(self.N)]
        for row in self.rows:
            for c, v in row:
                cols[c].append(v)
        return np.array([math.fsum(vals) for vals in cols], dtype=np.float64)

    def verify_against(self, p: ProbVector, tol: float = 1e-12) -> None:
        """Check row sums, column sums, and sparsity against p.

        Raises on the first violated invariant.
        """
        if 1 << p.n != self.N:
            raise DimensionMismatch(f"matrix is {self.N}x{self.N}, p has {1 << p.n}")
        target = 1.0 / self.N
        rows = self.row_sums()
        if np.abs(rows - target).max() > tol:
            raise DimensionMismatch(f"row sums deviate from 1/{self.N} beyond {tol}")
        cols = self.column_sums()
        if np.abs(cols - p.probs).max() > tol:
            raise DimensionMismatch(f"column sums deviate from p beyond {tol}")


def allocate_3sparse(p: ProbVector) -> AllocationMatrix:
    """Allocate p into N rows of mass 1/N, each touching at most 3 outcomes.

    Sorts outcomes by ascending mass.  Rows aligned with below-average
    outcomes take that outcome's full mass on the diagonal, then top up
    greedily from the above-average outcomes left to right; each such
    column pours into consecutive rows, so no row ever needs more than
    one light column plus two heavy ones.
    """
    N = 1 << p.n
    values, perm = sort_with_permutation(p)
    target = 1.0 / N

    k = 0
    while k < N and values[k] < target:
        k += 1
    # k rows carry a diagonal light entry; rows fill in order from there.
    sorted_rows: list[list[tuple[int, float]]] = [[] for _ in range(N)]
    capacity = np.full(N, target)
    for i in range(k):
        if values[i] > 0.0:
            sorted_rows[i].append((i, float(values[i])))
            capacity[i] -= values[i]

    first_free = 0
    spilled = 0.0  # mass left over past the last row
    for c in range(k, N):
        remaining = float(values[c])
        while first_free < N and capacity[first_free] <= SNAP:
            first_free += 1
        i = first_free
        while remaining > SNAP:
            if i >= N:
                spilled += remaining
                break
            take = min(float(capacity[i]), remaining)
            if take > SNAP:
                sorted_rows[i].append((c, take))
                if len(sorted_rows[i]) > 3:
                    raise SparsityViolation(
                        f"row {i} exceeded 3 entries during allocation"
                    )
                capacity[i] -= take
                remaining -= take
            i += 1

    # Float drift in the pour leaves some rows, mostly the last, a few ulps
    # off 1/N: enough at large N for rows_to_dists to reject them.  Each is
    # closed to within an ulp on its last entry, so the drift lands on a
    # column sum instead.  p is normalized only to CLAMP_TOL, so any larger
    # gap (an empty row included) is a fault, not drift.
    if spilled > CLAMP_TOL:
        raise BadNormalization(f"{spilled!r} of mass left over past the last row")
    for row in sorted_rows:
        short = target - math.fsum(v for _, v in row)
        if abs(short) > CLAMP_TOL:
            raise BadNormalization(f"allocation row off 1/{N} by {-short!r}")
        if short:
            row[-1] = (row[-1][0], row[-1][1] + short)

    rows = tuple(
        tuple(sorted(((int(perm[c]), v) for c, v in row)))
        for row in sorted_rows
    )
    return AllocationMatrix(N, rows)


def rows_to_dists(q: AllocationMatrix) -> tuple[SparseDist, ...]:
    """Rescale each allocation row by N into a distribution over n bits."""
    n = q.N.bit_length() - 1
    return tuple(
        SparseDist(n, tuple((c, v * q.N) for c, v in row)) for row in q.rows
    )


def split_3_to_2(q: SparseDist) -> tuple[SparseDist, SparseDist]:
    """Split a distribution with at most 3 entries into two 2-sparse halves.

    The halves mix uniformly back to q.  With entries (a, b, c) ascending
    by mass, the first half holds a at double mass against c, the second
    holds b at double mass against c.  Distributions already 2-sparse or
    sharper return as both halves unchanged.
    """
    if q.sparsity > 3:
        raise SparsityViolation(f"expected at most 3 entries, got {q.sparsity}")
    if q.sparsity <= 2:
        return q, q
    order = sorted(range(3), key=lambda t: q.entries[t][1])
    (a, pa), (b, pb), (c, _) = (q.entries[t] for t in order)
    first = tuple(
        (j, v) for j, v in ((a, 2.0 * pa), (c, 1.0 - 2.0 * pa)) if v > 0.0
    )
    second = tuple(
        (j, v) for j, v in ((b, 2.0 * pb), (c, 1.0 - 2.0 * pb)) if v > 0.0
    )
    return (
        SparseDist(q.n, tuple(sorted(first))),
        SparseDist(q.n, tuple(sorted(second))),
    )


def decompose_2sparse(p: ProbVector) -> tuple[SparseDist, ...]:
    """Write p as a uniform mixture of 2**(n+1) distributions, each 2-sparse.

    Allocation rows come out in order; each row contributes its two halves
    adjacently, so components 2i and 2i+1 belong to row i.
    """
    parts: list[SparseDist] = []
    for row_dist in rows_to_dists(allocate_3sparse(p)):
        first, second = split_3_to_2(row_dist)
        parts.append(first)
        parts.append(second)
    return tuple(parts)


@dataclass(frozen=True)
class DyadicRounding:
    """Result of rounding p to the grid of multiples of 2**-m.

    Attributes
    ----------
    m : int
        Grid resolution; masses become counts out of 2**m.
    counts : ndarray
        Integer floor counts per outcome, before surplus distribution.
    fractions : ndarray
        Mass truncated from each outcome (already divided by 2**m).
    surplus : int
        Grid units left over after flooring, handed to the largest
        fractions.
    q : ProbVector
        The rounded distribution; every entry is an exact multiple
        of 2**-m.
    """

    m: int
    counts: NDArray[np.int64]
    fractions: NDArray[np.float64]
    surplus: int
    q: ProbVector

    def __post_init__(self) -> None:
        scale = float(1 << self.m)
        if int(self.counts.sum()) + self.surplus != 1 << self.m:
            raise InconsistentCounts("counts plus surplus must equal 2**m")
        grid = np.rint(self.q.probs * scale)
        if not np.array_equal(grid / scale, self.q.probs):
            raise InconsistentCounts("q entries must be exact multiples of 2**-m")


def round_to_dyadic(p: ProbVector, m: int) -> DyadicRounding:
    """Round p onto the grid of multiples of 2**-m.

    Floors each mass to the grid, then promotes the outcomes with the
    largest truncated fractions by one grid unit each until the total is
    restored.  Ties promote the lower outcome index.  The result is within
    total variation 0.5 * 2**(n - m) of p; for m < n that bound is vacuous
    but the rounding itself stays well defined.
    """
    n = p.n
    if m < 0:
        raise LengthMismatch(f"grid resolution must be nonnegative, got m={m}")
    scale = float(1 << m)
    scaled = p.probs * scale  # exact: multiplication by a power of 2
    counts = np.floor(scaled).astype(np.int64)
    frac = scaled - counts
    # Masses a hair under the next grid line are grid values plus noise.
    bump = frac > 1.0 - DYADIC_GUARD
    counts[bump] += 1
    frac[bump] = 0.0
    surplus = (1 << m) - int(counts.sum())
    if surplus < 0 or surplus > 1 << n:
        raise InconsistentCounts(f"surplus {surplus} outside [0, 2**n]")
    order = np.lexsort((np.arange(1 << n), -frac))
    final = counts.copy()
    final[order[:surplus]] += 1
    q = ProbVector(n, final / scale)
    return DyadicRounding(m, counts, frac / scale, surplus, q)


@dataclass(frozen=True)
class MultiplicityMap:
    """Vector of 2**m outcome labels realizing a dyadic distribution.

    Outcome j appears v[k] == j for exactly q_j * 2**m values of k, in
    ascending order of j.
    """

    m: int
    v: NDArray[np.int64]

    def __post_init__(self) -> None:
        v = np.array(self.v, dtype=np.int64, copy=True)
        if v.shape != (1 << self.m,):
            raise LengthMismatch(f"expected 2**{self.m} labels, got shape {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "v", v)


def build_multiplicity_map(rounding: DyadicRounding, n: int) -> MultiplicityMap:
    """Expand a dyadic distribution over n bits into its multiplicity map."""
    if rounding.q.n != n:
        raise DimensionMismatch(f"rounding is over n={rounding.q.n}, asked for n={n}")
    scale = float(1 << rounding.m)
    counts = np.rint(rounding.q.probs * scale).astype(np.int64)
    if not np.array_equal(counts / scale, rounding.q.probs):
        raise InconsistentCounts("q is not exactly dyadic at resolution m")
    if int(counts.sum()) != 1 << rounding.m:
        raise InconsistentCounts("dyadic counts do not fill 2**m slots")
    v = np.repeat(np.arange(1 << n, dtype=np.int64), counts)
    return MultiplicityMap(rounding.m, v)
