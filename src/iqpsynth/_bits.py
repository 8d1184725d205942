"""Bit-level and angle helpers shared by the synthesis and simulation modules.

Qubit convention (fixed globally): qubit 0 is the leftmost bit of an
outcome bitstring, i.e. the most significant bit of the outcome index.
A support set of qubit indices therefore maps to the integer mask
``sum(1 << (total - 1 - i) for i in support)``.
"""

from __future__ import annotations

import numbers
import os
from collections.abc import Sequence

import numpy as np

from .errors import IqpError, OverCap

TAU = 2.0 * np.pi

ENV_MAX_QUBITS = "IQP_MAX_QUBITS"

# Dense arrays over 2**qubits entries (statevectors, phase tables, parsed
# distributions) are refused past this many qubits.
DENSE_MAX_QUBITS = 24


# Array lengths are int64, so no array has 2**63 entries or more.
INDEX_MAX_BITS = 62


def dense_size(bits: int) -> int:
    """2**bits, an array length; IqpError, before 2**bits is formed, if none can be."""
    if not 0 <= bits <= INDEX_MAX_BITS:
        raise IqpError(f"bit count {bits} outside [0, {INDEX_MAX_BITS}]")
    return 1 << bits


def as_size(value, what: str) -> int:
    """value, a count of bits or qubits, if it is a nonnegative integer and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise IqpError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def as_array(values, dtype, message: str) -> np.ndarray:
    """np.asarray(values, dtype), so an array of that dtype is not copied; an
    integer past the dtype's range, or for an integer dtype a nonempty float or
    bool array or a list with a float or bool in it (which numpy would
    truncate), raises IqpError(message)."""
    if np.dtype(dtype).kind in "iu":
        given = np.asarray(values)
        if given.size and given.dtype.kind in "fcb":
            raise IqpError(message)
        # numpy casts [True, 2] to int64, so a list is checked element by element
        if not isinstance(values, np.ndarray) and any(
            isinstance(x, (bool, np.bool_, float, np.floating))
            for x in np.asarray(values, dtype=object).flat
        ):
            raise IqpError(message)
    try:
        return np.asarray(values, dtype=dtype)
    except OverflowError:
        raise IqpError(message) from None


def qubit_cap(default: int) -> int:
    """Hard qubit cap for an operation, optionally lowered via IQP_MAX_QUBITS."""
    raw = os.environ.get(ENV_MAX_QUBITS)
    if raw is None:
        return default
    try:
        override = int(raw)
    except ValueError as exc:
        raise IqpError(f"{ENV_MAX_QUBITS} must be an integer, got {raw!r}") from exc
    return min(default, override)


def enforce_cap(qubits: int, default: int, what: str) -> None:
    """Raise OverCap when `what` needs more qubits than its cap allows."""
    cap = qubit_cap(default)
    if qubits > cap:
        raise OverCap(f"{what} needs {qubits} qubits, cap is {cap}")


def parity(values: np.ndarray) -> np.ndarray:
    """Bit parity (popcount mod 2) of nonnegative integers, elementwise."""
    return (np.bitwise_count(np.asarray(values, dtype=np.uint64)) & 1).astype(np.int64)


def bit_keys(bits: Sequence[str], width: int) -> tuple[np.ndarray, int]:
    """Basis indices of bitstring tokens, and the index of the first malformed one.

    The tokens are checked and converted as one grid of digits, a uint8
    view of their characters.  Without a malformed token the index is
    len(bits).
    """
    count = len(bits)
    if set(map(len, bits)) - {width}:
        count = next(i for i, token in enumerate(bits) if len(token) != width)
    chars = "".join(bits[:count]).encode("ascii", "replace")
    digits = np.frombuffer(chars, dtype=np.uint8).reshape(count, width) - ord("0")
    keys = digits @ (1 << np.arange(width - 1, -1, -1, dtype=np.int64))
    malformed = np.flatnonzero(digits > 1)  # characters below "0" wrap past 1
    return keys, int(malformed[0]) // width if malformed.size else count


def wht_inplace(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis, in place.

    Computes out[..., x] = sum_y (-1)^popcount(x & y) * a[..., y].  The
    transform is an involution up to a factor of the axis length.
    """
    shape = a.shape
    n = shape[-1]
    if n & (n - 1):
        raise ValueError("last axis length must be a power of two")
    a = a.reshape(-1, n)
    h = 1
    while h < n:
        lo, hi = a.reshape(-1, 2, h).swapaxes(0, 1)
        diff = lo - hi
        lo += hi
        hi[...] = diff
        h *= 2
    return a.reshape(shape)


def canonical_phase(theta: np.ndarray) -> np.ndarray:
    """Reduce phases into [0, 2*pi), as a fresh float64 array.

    Only entries outside the range (sign bit set, -0.0 included, or at
    least 2*pi) go through np.mod, so in-range tables cost one copy.
    """
    out = np.array(theta, dtype=np.float64)
    outside = np.signbit(out) | (out >= TAU)
    if np.count_nonzero(outside):
        np.mod(out, TAU, out=out, where=outside)
        out[out == TAU] = 0.0  # only a reduced entry can round up to 2*pi
    return out


def canonical_angle(angle: np.ndarray) -> np.ndarray:
    """Reduce rotation angles into (-pi, pi]."""
    r = np.mod(np.pi - np.asarray(angle, dtype=np.float64), TAU)
    return np.pi - np.where(r == TAU, 0.0, r)
