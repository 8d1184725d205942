"""Exact simulation of phase tables and gate lists, plus sampling.

Two independent routes to the visible marginal exist on purpose.
marginal_full materializes the whole (m+n)-qubit state, applies the final
Hadamard layer, and traces out the hidden register.  marginal_mixture
never builds the joint state: each hidden value contributes one n-qubit
row whose transform is a Walsh pass, and the rows average into the
marginal.  The two must agree to near machine precision on every input;
disagreement means a bug, not noise.

Statevector indexing follows the package convention: qubit 0 is the most
significant bit of the basis index.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._bits import DENSE_MAX_QUBITS, as_array, dense_size, enforce_cap, wht_inplace
from .errors import IqpError, OverCap
from .probdist import ProbVector, validate
from .synth import GateList, PhaseTable

# The mixture path holds only 2**n-sized buffers but still walks 2**m rows.
MIXTURE_MAX_TOTAL = 32

# Rows are processed in blocks of about this many table entries.
CHUNK_ENTRIES = 1 << 22

DEFAULT_SEED = 0

# sample() refuses a count past this, before any draw is made.
SAMPLES_MAX = 1 << 24

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitudes over 2**qubits basis states."""

    qubits: int
    amps: NDArray[np.complex128]

    def __post_init__(self) -> None:
        size = dense_size(self.qubits)
        amps = as_array(self.amps, np.complex128, "amplitudes must be finite").copy()
        if amps.shape != (size,):
            raise IqpError(f"expected {size} amplitudes, got shape {amps.shape}")
        norm = float(np.vdot(amps, amps).real)
        if not math.isfinite(norm) or abs(norm - 1.0) > _NORM_TOL:
            raise IqpError(f"squared norm {norm!r} is not 1 within {_NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)


def full_statevector(pt: PhaseTable) -> StateVector:
    """Joint state after the diagonal layer: 2**(-(m+n)/2) * exp(i*theta)."""
    total = pt.m + pt.n
    enforce_cap(total, DENSE_MAX_QUBITS, "dense state")
    amps = np.exp(1j * pt.theta) * (2.0 ** (-0.5 * total))
    return StateVector(total, amps)


def apply_hadamard_layer(state: StateVector, targets: Iterable[int]) -> StateVector:
    """Apply a Hadamard to each target qubit of a statevector."""
    q = state.qubits
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise IqpError("duplicate target qubit")
    if any(t < 0 or t >= q for t in targets):
        raise IqpError(f"target outside [0, {q})")
    amps = state.amps.copy()
    for t in targets:
        lo, hi = amps.reshape(1 << t, 2, -1).swapaxes(0, 1)  # qubit t: bit q-1-t of the index
        diff = lo - hi
        lo += hi
        hi[...] = diff
    amps *= 2.0 ** (-0.5 * len(targets))
    return StateVector(q, amps)


def marginal_full(pt: PhaseTable) -> ProbVector:
    """Visible marginal via the joint state and a full Hadamard layer."""
    state = apply_hadamard_layer(full_statevector(pt), range(pt.m + pt.n))
    joint = state.amps.real**2 + state.amps.imag**2
    probs = joint.reshape(1 << pt.m, 1 << pt.n).sum(axis=0)
    return validate(probs, pt.n)


def marginal_mixture(pt: PhaseTable) -> ProbVector:
    """Visible marginal as a uniform mixture over hidden rows.

    Hidden value j contributes |WHT(exp(i*theta_row_j))|**2; the average,
    scaled by 4**-n, is the marginal.  Memory stays at O(2**n) however
    large the hidden register is, so this is the scalable route.
    """
    enforce_cap(pt.n, DENSE_MAX_QUBITS, "visible register")
    enforce_cap(pt.m + pt.n, MIXTURE_MAX_TOTAL, "mixture walk")
    size = 1 << pt.n
    rows = 1 << pt.m
    per_chunk = max(1, CHUNK_ENTRIES // size)
    acc = np.zeros(size, dtype=np.float64)
    for start in range(0, rows, per_chunk):
        stop = min(rows, start + per_chunk)
        block = pt.theta[start << pt.n : stop << pt.n].reshape(stop - start, size)
        z = wht_inplace(np.exp(1j * block))
        acc += (z.real**2 + z.imag**2).sum(axis=0)
    return validate(acc / float(1 << (pt.m + 2 * pt.n)), pt.n)


def simulate_gates(g: GateList) -> StateVector:
    """Run exp(i * angle * X_S) gates on the all-zeros state.

    Gates commute, so list order cannot matter; each application is
    cos(a) * psi + i*sin(a) * (psi with the mask bits flipped).
    The global phase multiplies in at the end.

    Each gate scales the squared norm by fl(cos a)**2 + fl(sin a)**2, which
    can miss 1 by an ulp; a drift within 4 ulps per gate is rescaled away.
    """
    total = g.total_qubits
    enforce_cap(total, DENSE_MAX_QUBITS, "gate simulation")
    size = 1 << total
    amps = np.zeros(size, dtype=np.complex128)
    amps[0] = 1.0
    # In place, as fresh 2**total temporaries can cost page faults per gate;
    # index ^ mask stays in range, so mode="clip" only skips take's buffering.
    indices = np.arange(size)
    flip, flipped = np.empty_like(indices), np.empty_like(amps)
    for mask, angle in zip(g.masks.tolist(), g.angles.tolist()):
        np.take(amps, np.bitwise_xor(indices, mask, out=flip), out=flipped, mode="clip")
        flipped *= 1j * math.sin(angle)
        amps *= math.cos(angle)
        amps += flipped
    norm = float(np.vdot(amps, amps).real)
    tol = _NORM_TOL + 4 * np.finfo(np.float64).eps * len(g)
    if not abs(norm - 1.0) <= tol:
        raise IqpError(f"squared norm {norm!r} is not 1 within {tol} over {len(g)} gates")
    return StateVector(total, amps * (np.exp(1j * g.global_phase) / math.sqrt(norm)))


def check_sample_count(count: int, seed: int = DEFAULT_SEED) -> None:
    """Refuse a count or seed that is not a nonnegative integer, or a count over
    SAMPLES_MAX, in the words of simulate --samples and --seed; count first."""
    for value, flag in ((count, "--samples"), (seed, "--seed")):
        if not isinstance(value, numbers.Integral):
            raise IqpError(f"{flag} must be an integer")
        if value < 0:
            raise IqpError(f"{flag} must be nonnegative")
        if flag == "--samples" and value > SAMPLES_MAX:
            raise OverCap(f"--samples {count} is over the cap of {SAMPLES_MAX}")


def sample(p: ProbVector, count: int, seed: int = DEFAULT_SEED) -> list[str]:
    """Draw count outcome bitstrings from p, reproducibly for a given seed."""
    check_sample_count(count, seed)
    if count == 0:
        return []
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(p.probs)
    cdf[-1] = 1.0  # guard against cumulative rounding at the top
    draws = np.searchsorted(cdf, rng.random(count), side="right")
    return [p.bitstring(int(j)) for j in draws]
