"""Synthesize IQP phase tables from distributions and lower them to gates.

An IQP circuit on m hidden plus n visible qubits is H-layer, diagonal
phases, H-layer, applied to the all-zeros state, with the hidden register
traced out.  Everything before the final H-layer is summarized by a phase
table theta over all 2**(m+n) basis states, indexed x = (j << n) | k with
hidden value j and visible value k.  Hidden qubits are qubits 0..m-1.

Every table stacks two-outcome rows, each one evaluation of

    theta_y = pi * parity(b1 & y) + theta_star * parity((b1 ^ b2) & y)

with theta_star = 2 * acos(sqrt(mass)): through a Hadamard layer the row
yields b1 with probability mass, else b2.  exact_phase_table gives each
2-sparse mixture component one row over m = n + 1 hidden qubits;
approx_phase_table gives each multiplicity label v[j] the parity row
b1 = b2 = v[j], theta_star = 0.  theta_star uses math.acos because
np.arccos differs from it in the last bit on some inputs, which would
change circuit bytes.

walsh_lower rewrites a table as X-rotation gates exp(i * angle * X_S) via
the Walsh transform of theta; gates_to_phases inverts it.  The two forms
describe the same state up to nothing at all: amplitudes match exactly,
global phase included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._bits import (
    DENSE_MAX_QUBITS,
    as_array,
    canonical_angle,
    canonical_phase,
    dense_size,
    enforce_cap,
    parity,
    wht_inplace,
)
from .decompose import decompose_2sparse
from .errors import IqpError
from .probdist import ProbVector

# Lowered rotations with canonical angle at most GATE_TOL are dropped.
GATE_TOL = 1e-12

# Walsh transforms are dense over 2**(m+n) entries; past this many qubits
# the lowering is refused rather than attempted.
WALSH_MAX_QUBITS = 16

MASS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PhaseTable:
    """Diagonal phases over m hidden plus n visible qubits.

    theta is flat over all 2**(m+n) basis states, canonicalized to
    [0, 2*pi), indexed (j << n) | k for hidden j and visible k.
    """

    m: int
    n: int
    theta: NDArray[np.float64]

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise IqpError("qubit counts must be nonnegative")
        theta = as_array(self.theta, np.float64, "phases must be finite").ravel()
        size = dense_size(self.m + self.n)
        if theta.shape[0] != size:
            raise IqpError(f"expected {size} phases, got {theta.shape[0]}")
        if not np.isfinite(theta).all():
            raise IqpError("phases must be finite")
        theta = canonical_phase(theta)  # a fresh array: the caller's is untouched
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)


def _row_table(n: int, b1, b2, mass) -> PhaseTable:
    """The table of one row per (b1, b2, mass), whose 2**m rows give m.  Where
    b1 == b2 theta_star is exactly 0 and mass, else clamped to [0, 1], is unread."""
    b1 = np.asarray(b1, dtype=np.uint64)
    flip = b1 ^ np.asarray(b2, dtype=np.uint64)
    m = b1.size.bit_length() - 1
    enforce_cap(m + n, DENSE_MAX_QUBITS, "phase table")
    pair = np.flatnonzero(flip)
    theta_star = np.zeros(b1.size)
    mass = np.clip(np.broadcast_to(mass, b1.shape)[pair], 0.0, 1.0)
    theta_star[pair] = [2.0 * math.acos(math.sqrt(x)) for x in mass.tolist()]
    y = np.arange(1 << n, dtype=np.uint64)
    theta = np.pi * parity(b1[:, None] & y) + theta_star[:, None] * parity(flip[:, None] & y)
    return PhaseTable(m, n, theta)


def uma_phases_for_pair(b1: int, b2: int, mass: float, n: int) -> PhaseTable:
    """One-row table (m = 0) whose measured outcome is b1 with given mass, else b2.

    The row keeps every amplitude at modulus 2**(-n/2); only phases vary,
    following the row formula of the module docstring.  Through a Hadamard
    layer the amplitude on b is then alpha if b == b1 and beta if b == b2,
    with |alpha|**2 == mass, and zero elsewhere.

    When b1 == b2 the row is a plain parity pattern and carries the whole
    unit of probability; mass is forced to 1 in that case.
    """
    size = dense_size(n)
    if not 0 <= b1 < size:
        raise IqpError(f"b1={b1} outside [0, {size})")
    if not 0 <= b2 < size:
        raise IqpError(f"b2={b2} outside [0, {size})")
    bad_mass = f"mass {mass!r} outside [0, 1]"
    if not -MASS_TOL <= as_array(mass, np.float64, bad_mass) <= 1.0 + MASS_TOL:  # nan fails
        raise IqpError(bad_mass)
    return _row_table(n, [b1], [b2], mass)


def exact_phase_table(p: ProbVector) -> PhaseTable:
    """Phase table over n + 1 hidden qubits whose visible marginal is p.

    Decomposes p into 2**(n+1) two-outcome components mixed uniformly and
    gives each component one hidden row.  The marginal reproduces p up to
    float rounding in the decomposition, with no dyadic loss.
    """
    enforce_cap(2 * p.n + 1, DENSE_MAX_QUBITS, "phase table")  # before decomposing
    parts = decompose_2sparse(p)
    b1, b2 = parts.cols.T  # b2 is -1 where a component has one outcome
    b2 = np.where(b2 >= 0, b2, b1)
    return _row_table(p.n, b1, b2, parts.masses[:, 0])


def approx_phase_table(v: NDArray[np.int64], n: int) -> PhaseTable:
    """Phase table realizing a dyadic distribution from its 2**m labels v.

    Hidden row j is the parity pattern pi * parity(v[j] & y), a point mass
    on outcome v[j]; mixing rows uniformly weights each outcome by its
    multiplicity.  All phases are 0 or pi.
    """
    v = np.asarray(v)
    size = v.size
    if v.ndim != 1 or not size or size & (size - 1):
        raise IqpError(f"expected 2**m multiplicity labels, got {size}")
    if v.dtype.kind not in "iu" or not 0 <= int(v.min()) <= int(v.max()) < dense_size(n):
        raise IqpError(f"multiplicity labels must lie in [0, 2**{n})")
    return _row_table(n, v, v, 1.0)


@dataclass(frozen=True, eq=False)
class GateList:
    """X-rotation circuit on m hidden plus n visible qubits: exp(i * angle * X_S)
    terms plus a global phase.

    Gate i acts on the qubits set in masks[i] (nonzero, unique; qubit 0 is
    the most significant of m + n bits) by angles[i], canonical in
    (-pi, pi].  Both arrays are read-only.  Gates commute, so order is moot.
    """

    m: int
    n: int
    global_phase: float
    masks: NDArray[np.int64]
    angles: NDArray[np.float64]

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise IqpError("qubit counts must be nonnegative")
        if not np.isfinite(as_array(self.global_phase, np.float64, "global phase must be finite")):
            raise IqpError("global phase must be finite")
        total = self.m + self.n
        outside = f"gate masks must lie in (0, 2**{total})"
        masks = as_array(self.masks, np.int64, outside).copy()
        angles = as_array(self.angles, np.float64, "gate angles must be finite")
        if masks.ndim != 1 or masks.shape != angles.shape:
            raise IqpError("gate masks and angles must be 1-D and of one length")
        if not masks.all():
            raise IqpError("gate supports must be nonempty")
        if masks.size and (masks.min() < 0 or int(masks.max()) >> total):
            raise IqpError(outside)
        if (np.diff(np.sort(masks)) == 0).any():
            raise IqpError("duplicate gate support")
        if not np.all(np.isfinite(angles)):
            raise IqpError("gate angles must be finite")
        angles = canonical_angle(angles)
        masks.flags.writeable = angles.flags.writeable = False
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "angles", angles)

    def __len__(self) -> int:
        return self.masks.size


def walsh_lower(pt: PhaseTable) -> GateList:
    """Rewrite a phase table as X-rotation gates via the Walsh transform.

    The diagonal phase at x is theta_x = c_0 + sum_S c_S * (-1)^parity(S & x),
    so the Walsh coefficients of theta are exactly the rotation angles:
    c_0 becomes the global phase and each nonempty subset S a gate
    exp(i * c_S * X_S).  Angles within GATE_TOL of a multiple of 2*pi are
    dropped.  Gate-path amplitudes match the phase-table state exactly.
    """
    total = pt.m + pt.n
    enforce_cap(total, WALSH_MAX_QUBITS, "lowering")
    c = wht_inplace(pt.theta.copy())
    c /= float(1 << total)
    angles = canonical_angle(c[1:])
    kept = np.flatnonzero(np.abs(angles) > GATE_TOL)
    return GateList(pt.m, pt.n, float(c[0]), kept + 1, angles[kept])


def gates_to_phases(g: GateList) -> PhaseTable:
    """Invert walsh_lower: accumulate gate angles back into a phase table
    with the gate list's hidden/visible split."""
    total = g.m + g.n
    enforce_cap(total, WALSH_MAX_QUBITS, "raising")
    c = np.zeros(1 << total, dtype=np.float64)
    c[0] = g.global_phase
    c[g.masks] = g.angles
    return PhaseTable(g.m, g.n, wht_inplace(c))
