"""Exact simulation of phase tables and gate lists, plus sampling.

Two independent routes to the visible marginal exist on purpose, and they
share only the one Walsh kernel, _bits.wht_inplace; a Hadamard layer on
every qubit is that transform, so no separate Hadamard routine exists.
marginal_full builds the whole (m+n)-qubit state with iqp_state, one
transform of exp(i*theta), and traces out the hidden register.
marginal_mixture never builds the joint state: each hidden value
contributes one n-qubit row whose transform is a Walsh pass, and the rows
average into the marginal.  The two must agree to near machine precision
on every input; disagreement means a bug, not noise.

Statevector indexing follows the package convention: qubit 0 is the most
significant bit of the basis index.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from ._bits import DENSE_MAX_QUBITS, as_size, enforce_cap, wht_inplace
from .errors import InternalError, OverCap
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


def iqp_state(pt: PhaseTable) -> NDArray[np.complex128]:
    """The circuit's joint state, H^(m+n) exp(i*theta) H^(m+n) |0...0>, as
    2**(m+n) read-only amplitudes.

    The first Hadamard layer makes the uniform superposition, so the state
    is one Walsh transform of exp(i*theta), scaled by 2**-(m+n).
    """
    total = pt.m + pt.n
    enforce_cap(total, DENSE_MAX_QUBITS, "dense state")
    amps = wht_inplace(np.exp(1j * pt.theta))
    amps *= 2.0**-total
    norm = float(np.vdot(amps, amps).real)
    if not abs(norm - 1.0) <= _NORM_TOL:  # a bug, as a checked table gives a unit state
        raise InternalError(f"squared norm {norm!r} is not 1 within {_NORM_TOL}")
    amps.flags.writeable = False
    return amps


def marginal_full(pt: PhaseTable) -> ProbVector:
    """Visible marginal via the joint state, tracing out the hidden register."""
    amps = iqp_state(pt)
    joint = amps.real**2 + amps.imag**2
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


def simulate_gates(g: GateList) -> NDArray[np.complex128]:
    """Run exp(i * angle * X_S) gates on the all-zeros state; the result is
    2**(m+n) read-only amplitudes.

    Gates commute, so list order cannot matter; each application is
    cos(a) * psi + i*sin(a) * (psi with the mask bits flipped).
    The global phase multiplies in at the end.

    Each gate scales the squared norm by fl(cos a)**2 + fl(sin a)**2, which
    can miss 1 by an ulp; a drift within 4 ulps per gate is rescaled away.
    """
    total = g.m + g.n
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
        raise InternalError(f"squared norm {norm!r} is not 1 within {tol} over {len(g)} gates")
    amps *= np.exp(1j * g.global_phase) / math.sqrt(norm)
    amps.flags.writeable = False
    return amps


def check_sample_count(count: int, seed: int) -> None:
    """Refuse a count or seed that is not a nonnegative integer, or a count over
    SAMPLES_MAX, in the words of simulate --samples and --seed; count first."""
    as_size(count, "--samples")
    as_size(seed, "--seed")
    if count > SAMPLES_MAX:
        raise OverCap(f"--samples {count} is over the cap of {SAMPLES_MAX}")


def sample(p: ProbVector, count: int, seed: int = DEFAULT_SEED) -> list[str]:
    """Draw count outcome bitstrings from p, reproducibly for a given seed."""
    check_sample_count(count, seed)
    if count == 0:
        return []
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(p.probs)
    # 1.0 from the last positive outcome on, so a sum rounded below 1 cannot
    # send the largest draws to trailing outcomes of probability 0
    cdf[np.flatnonzero(p.probs)[-1] :] = 1.0
    draws = np.searchsorted(cdf, rng.random(count), side="right")
    return [p.bitstring(int(j)) for j in draws]
