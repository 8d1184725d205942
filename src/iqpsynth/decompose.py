"""Decompose a distribution into sparse pieces and dyadic approximations.

Two independent reductions live here.

The sparsity path writes p as a uniform mixture: first as N = 2**n rows of
an allocation matrix, each row at most 3-sparse with total mass 1/N
(allocate_3sparse), then each 3-sparse row splits into two 2-sparse halves
(split_3_to_2), giving 2N rows overall (decompose_2sparse).

The dyadic path rounds p to a distribution q on the grid of multiples of
2**-m (round_to_dyadic) and expands q into a multiplicity map: an array v
of 2**m outcome labels in which outcome j appears q_j * 2**m times
(build_multiplicity_map).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._bits import DENSE_MAX_QUBITS, as_array, dense_size, enforce_cap
from .errors import InternalError, IqpError
from .probdist import CLAMP_TOL, ProbVector, _fsum, sort_with_permutation

# Residual row capacity below SNAP is treated as spent during allocation;
# without it, float dust can manufacture a spurious fourth entry in a row.
SNAP = 1e-15

# Fractional parts this close to 1 round up instead of truncating, so that
# masses already on the grid up to float error stay on the grid.
DYADIC_GUARD = 1e-9


def _fsum_rows(vals: NDArray[np.float64]) -> NDArray[np.float64]:
    """math.fsum of each row of a 2-D array, inf where a row passes the float range."""
    if vals.shape[1] <= 2:  # one addition rounds once, as fsum does
        with np.errstate(over="ignore"):  # a sum past the float range is inf
            return vals.sum(axis=1)
    return np.array([_fsum(row) for row in vals.tolist()])


@dataclass(frozen=True, eq=False)
class Mixture:
    """Uniform mixture of len(self) sparse distributions over n bits.

    Component k puts masses[k, t] on outcome cols[k, t] for each filled
    slot t of the read-only, padded (K, s) arrays.  Filled slots (cols >= 0)
    come first, ascending and distinct within [0, 2**n), with positive
    masses summing to 1 within 1e-12; empty slots hold -1 and 0.0.
    """

    n: int
    cols: NDArray[np.int64]
    masses: NDArray[np.float64]

    def __post_init__(self) -> None:
        size = dense_size(self.n)
        bad_shape = "component columns and values must be 2-D arrays of one shape"
        try:
            cols = as_array(self.cols, np.int64, f"component entries must lie in [0, {size})")
            masses = as_array(self.masses, np.float64, "component values must be finite")
        except ValueError:  # ragged nested lists
            raise IqpError(bad_shape) from None
        if cols.ndim != 2 or cols.shape != masses.shape:
            raise IqpError(bad_shape)
        filled = cols >= 0
        for message, bad in (
            ("entries must be distinct and ascending",
             filled[:, 1:] & ~(filled[:, :-1] & (cols[:, 1:] > cols[:, :-1]))),
            (f"entries must lie in [0, {size})", (cols < -1) | (cols >= size)),
            ("values must be positive", np.where(filled, ~(masses > 0.0), masses != 0.0)),
        ):
            if bad.any():
                raise IqpError(f"component {bad.any(axis=1).argmax()}: {message}")
        totals = _fsum_rows(masses)
        off = np.abs(totals - 1.0) > 1e-12
        if off.any():
            k = off.argmax()
            raise IqpError(f"component {k} masses sum to {float(totals[k])!r}, expected 1")
        cols, masses = cols.copy(), masses.copy()  # the caller's arrays stay writable
        cols.flags.writeable = masses.flags.writeable = False
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "masses", masses)

    def __len__(self) -> int:
        return self.cols.shape[0]

    @property
    def sparsity(self) -> NDArray[np.int64]:
        """Number of entries of each component."""
        return np.count_nonzero(self.cols >= 0, axis=1)


def allocate_3sparse(p: ProbVector) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """Allocate p into N rows of mass 1/N, each touching at most 3 outcomes.

    Returns the N x N matrix with row sums 1/N and column sums p as padded
    (N, 3) arrays (cols, vals), laid out as Mixture's (cols, masses).

    Sorts outcomes by ascending mass.  Rows aligned with below-average
    outcomes take that outcome's full mass on the diagonal, then top up
    greedily from the above-average outcomes left to right; each such
    column pours into consecutive rows, so no row ever needs more than
    one light column plus two heavy ones.
    """
    N = 1 << p.n
    values, perm = sort_with_permutation(p)
    target = 1.0 / N

    # k rows carry a diagonal light entry; rows fill in order from there.
    # Each entry is (row, slot, column, value): slots in the order poured,
    # columns as indices into the sorted values.
    k = int(np.searchsorted(values, target))
    light = values[:k].tolist()
    pours = [(i, 0, i, v) for i, v in enumerate(light) if v > 0.0]
    width = [int(v > 0.0) for v in light] + [0] * (N - k)
    capacity = [target - v for v in light] + [target] * (N - k)
    first_free = 0
    spilled = 0.0  # mass left over past the last row
    for c, remaining in enumerate(values[k:].tolist(), start=k):
        while first_free < N and capacity[first_free] <= SNAP:
            first_free += 1
        i = first_free
        while remaining > SNAP:
            if i >= N:
                spilled += remaining
                break
            take = min(capacity[i], remaining)
            if take > SNAP:
                if width[i] == 3:
                    raise InternalError(f"row {i} exceeded 3 entries during allocation")
                pours.append((i, width[i], c, take))
                width[i] += 1
                capacity[i] -= take
                remaining -= take
            i += 1
    rows, slots, cols, takes = zip(*pours)
    scols = np.full((N, 3), -1, dtype=np.int64)
    svals = np.zeros((N, 3))
    scols[rows, slots] = cols
    svals[rows, slots] = takes

    # Float drift in the pour leaves some rows, mostly the last, a few ulps
    # off 1/N: enough at large N for rows_to_dists to reject them.  Each is
    # closed to within an ulp on its last entry, so the drift lands on a
    # column sum instead.  p is normalized only to CLAMP_TOL, so any larger
    # gap (an empty row included) is a fault, not drift.
    if spilled > CLAMP_TOL:
        raise IqpError(f"{spilled!r} of mass left over past the last row")
    short = target - _fsum_rows(svals)
    off = np.abs(short) > CLAMP_TOL
    if off.any():
        raise IqpError(f"allocation row off 1/{N} by {float(-short[off.argmax()])!r}")
    svals[np.arange(N), np.array(width) - 1] += short

    # Back to outcome labels, each row ascending by column.
    labels = np.where(scols >= 0, perm[scols], N)
    order = np.argsort(labels, axis=1, kind="stable")
    at = np.arange(N)[:, None]
    labels = labels[at, order]
    labels[labels == N] = -1
    return labels, svals[at, order]


def rows_to_dists(rows: tuple[NDArray[np.int64], NDArray[np.float64]]) -> Mixture:
    """Rescale each of the N rows of allocate_3sparse by N into a distribution."""
    cols, vals = rows
    return Mixture(len(cols).bit_length() - 1, cols, vals * len(cols))


def split_3_to_2(rows: Mixture) -> Mixture:
    """Split components padded to 3 slots into 2-sparse halves.

    Component i becomes components 2i and 2i + 1, which mix uniformly back
    to it.  With entries (a, b, c) ascending by mass (ties by outcome), the
    first half holds a at double mass against c, the second holds b at
    double mass against c; a half drops a nonpositive mass.  Components
    already 2-sparse or sharper return as both halves unchanged.
    """
    if rows.cols.shape[1] != 3:
        raise IqpError(f"expected 3 slots a component, got {rows.cols.shape[1]}")
    by_mass = np.argsort(rows.masses, axis=1, kind="stable")
    at = np.arange(len(rows))[:, None]
    cols, masses = rows.cols[at, by_mass], rows.masses[at, by_mass]

    # Axes: component, half, entry; halves (a, c), (b, c) go in outcome order.
    half_cols = cols[:, [[0, 2], [1, 2]]]
    double = 2.0 * masses[:, :2, None]
    half_masses = np.concatenate([double, 1.0 - double], axis=2)
    kept = half_masses > 0.0
    order = np.argsort(np.where(kept, half_cols, 1 << rows.n), axis=2, kind="stable")
    half_cols = np.take_along_axis(np.where(kept, half_cols, -1), order, axis=2)
    half_masses = np.take_along_axis(np.where(kept, half_masses, 0.0), order, axis=2)
    three = (rows.sparsity == 3)[:, None, None]
    half_cols = np.where(three, half_cols, rows.cols[:, None, :2])
    half_masses = np.where(three, half_masses, rows.masses[:, None, :2])
    return Mixture(rows.n, half_cols.reshape(-1, 2), half_masses.reshape(-1, 2))


def decompose_2sparse(p: ProbVector) -> Mixture:
    """Write p as a uniform mixture of 2**(n+1) distributions, each 2-sparse.

    Allocation rows come out in order; each row contributes its two halves
    adjacently, so components 2i and 2i+1 belong to row i.
    """
    return split_3_to_2(rows_to_dists(allocate_3sparse(p)))


def round_to_dyadic(p: ProbVector, m: int) -> ProbVector:
    """Round p onto the grid of multiples of 2**-m.

    Floors each mass to the grid, then promotes the outcomes with the
    largest truncated fractions by one grid unit each until the total is
    restored.  Ties promote the lower outcome index.  The result is within
    total variation dyadic_tv_bound(n, m) of p; for m < n that bound is
    vacuous but the rounding itself stays well defined.
    """
    n = p.n
    if m < 0:
        raise IqpError(f"grid resolution must be nonnegative, got m={m}")
    scale = float(dense_size(m))
    scaled = p.probs * scale  # exact: multiplication by a power of 2
    counts = np.floor(scaled).astype(np.int64)
    frac = scaled - counts
    # Masses a hair under the next grid line are grid values plus noise.
    bump = frac > 1.0 - DYADIC_GUARD
    counts[bump] += 1
    frac[bump] = 0.0
    surplus = (1 << m) - int(counts.sum())
    if surplus < 0 or surplus > 1 << n:
        raise IqpError(f"surplus {surplus} outside [0, 2**n]")
    order = np.lexsort((np.arange(1 << n), -frac))
    counts[order[:surplus]] += 1
    return ProbVector(n, counts / scale)


def dyadic_tv_bound(n: int, m: int) -> float:
    """The total variation within which round_to_dyadic(p, m) stays of any p on n bits."""
    return 0.5 * 2.0 ** (n - m)


def build_multiplicity_map(q: ProbVector, m: int) -> NDArray[np.int64]:
    """Expand q, dyadic at resolution m, into its 2**m outcome labels.

    Outcome j appears q_j * 2**m times, in ascending order of j; the
    returned int64 array is read-only.
    """
    if m < 0:
        raise IqpError(f"grid resolution must be nonnegative, got m={m}")
    scale = float(dense_size(m))
    counts = np.rint(q.probs * scale).astype(np.int64)
    if not np.array_equal(counts / scale, q.probs):
        raise IqpError("q is not exactly dyadic at resolution m")
    if int(counts.sum()) != 1 << m:
        raise IqpError("dyadic counts do not fill 2**m slots")
    enforce_cap(m, DENSE_MAX_QUBITS, "multiplicity map")
    v = np.repeat(np.arange(len(q), dtype=np.int64), counts)
    v.flags.writeable = False
    return v
