"""Probability vectors over n-bit outcomes: validation, metrics, sorting, JSON I/O.

Outcome indexing is big-endian throughout the package: bit 0 of an outcome
is the leftmost character of its bitstring and belongs to qubit 0, so the
outcome with bitstring s has index int(s, 2).

The distribution file format is a JSON object, either sparse

    {"n": 2, "probs": {"00": 0.5, "11": 0.5}}

with missing bitstrings meaning probability 0, or dense

    {"n": 2, "dense": [0.5, 0.0, 0.0, 0.5]}

A key given twice, in "probs" or at the top level, is refused.  Decimals
are parsed as base-10; serialization emits 17 significant digits, which
round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._bits import DENSE_MAX_QUBITS, as_array, as_size, bit_keys, dense_size, enforce_cap
from .errors import IqpError

# Input sums are accepted within NORM_TOL of 1 and then renormalized exactly;
# negative dust above -CLAMP_TOL is clamped to zero.
NORM_TOL = 1e-9
CLAMP_TOL = 1e-12


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips doubles exactly."""
    return f"{x:.17g}"


def _fsum(values) -> float:
    """math.fsum, or inf where the sum passes the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _renormalize_exact(arr: NDArray[np.float64]) -> None:
    """Scale arr so that math.fsum(arr) == 1.0 exactly, in place.

    Divides by the compensated sum, then absorbs the residual ulp into the
    largest entry until the compensated sum is exactly 1.0.  Makes
    validation idempotent, which the serialization round-trip relies on.
    """
    s = math.fsum(arr)
    if s != 1.0:
        arr /= s
    for _ in range(4):
        residual = 1.0 - math.fsum(arr)
        if residual == 0.0:
            return
        arr[int(np.argmax(arr))] += residual
    if math.fsum(arr) != 1.0:
        raise IqpError("renormalization did not reach an exact fixed point")


@dataclass(frozen=True)
class ProbVector:
    """Dense probability vector over all 2**n outcomes of n bits.

    Attributes
    ----------
    n : int
        Number of bits per outcome.
    probs : ndarray
        2**n nonnegative reals summing to 1 within 1e-12.  Read-only.
    """

    n: int
    probs: NDArray[np.float64]

    def __post_init__(self) -> None:
        size = dense_size(as_size(self.n, "bit count"))
        probs = as_array(self.probs, np.float64, "probabilities must be finite").copy()
        if probs.ndim != 1 or probs.shape[0] != size:
            raise IqpError(f"expected {size} entries for n={self.n}, got shape {probs.shape}")
        if not np.all(np.isfinite(probs)):
            raise IqpError("probabilities must be finite")
        if np.any(probs < 0.0):
            raise IqpError("probabilities must be nonnegative")
        total = _fsum(probs)
        if abs(total - 1.0) > CLAMP_TOL:
            raise IqpError(f"probabilities sum to {total!r}, expected 1 within {CLAMP_TOL}")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return 1 << self.n

    def bitstring(self, index: int) -> str:
        """Bitstring label of an outcome index (qubit 0 leftmost)."""
        return format(index, f"0{self.n}b") if self.n else ""


def validate(raw, n: int) -> ProbVector:
    """Validate and exactly renormalize a raw probability array.

    Parameters
    ----------
    raw : array_like
        2**n finite reals.
    n : int
        Number of bits per outcome.

    Returns
    -------
    ProbVector
        Entries clamped at 0 if within -1e-12 of 0, then renormalized so
        the compensated sum is exactly 1.

    Raises
    ------
    IqpError
        If raw does not have exactly 2**n entries, if any entry is below
        -1e-12 or not finite, or if the sum is off 1 by more than 1e-9.
    """
    size = dense_size(as_size(n, "bit count"))
    arr = as_array(raw, np.float64, "entries must be finite").copy()
    if arr.ndim != 1 or arr.shape[0] != size:
        raise IqpError(f"expected {size} entries for n={n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise IqpError("entries must be finite")
    if np.any(arr < -CLAMP_TOL):
        worst = float(arr.min())
        raise IqpError(f"entry {worst!r} is below -{CLAMP_TOL}")
    arr[arr < 0.0] = 0.0
    s = _fsum(arr)
    if abs(s - 1.0) > NORM_TOL:
        raise IqpError(f"entries sum to {s!r}, expected 1 within {NORM_TOL}")
    _renormalize_exact(arr)
    return ProbVector(n, arr)


def tv_distance(p: ProbVector, q: ProbVector) -> float:
    """Total variation distance, half the L1 distance between p and q."""
    if p.n != q.n:
        raise IqpError(f"cannot compare n={p.n} with n={q.n}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def sort_with_permutation(
    p: ProbVector,
) -> tuple[NDArray[np.float64], NDArray[np.int64]]:
    """Sort probabilities ascending, keeping the outcome labels.

    Returns
    -------
    values : ndarray
        p.probs in nondecreasing order.
    perm : ndarray
        perm[i] is the original outcome index of values[i].  The sort is
        stable, so ties keep their original index order, and
        values == p.probs[perm].
    """
    perm = np.argsort(p.probs, kind="stable").astype(np.int64)
    return p.probs[perm].copy(), perm


def serialize_dist(p: ProbVector) -> str:
    """Serialize to the sparse JSON text form with 17-significant-digit decimals."""
    items = ", ".join(
        f'"{p.bitstring(j)}": {format_float(v)}'
        for j, v in enumerate(p.probs.tolist())
        if v != 0.0
    )
    return f'{{"n": {p.n}, "probs": {{{items}}}}}'


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a key given twice is an IqpError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise IqpError(f"repeated key {key!r}")
    return obj


def parse_dist(text: str) -> ProbVector:
    """Parse either JSON form of the distribution file format and validate it."""
    try:
        obj = json.loads(text, object_pairs_hook=_json_object)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise IqpError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise IqpError("top level must be a JSON object")
    unknown = set(obj) - {"n", "probs", "dense"}
    if unknown:
        raise IqpError(f"unknown keys: {sorted(unknown)}")
    n = obj.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise IqpError('"n" must be a nonnegative integer')
    enforce_cap(n, DENSE_MAX_QUBITS, "distribution")
    has_probs = "probs" in obj
    has_dense = "dense" in obj
    if has_probs == has_dense:
        raise IqpError('exactly one of "probs" or "dense" is required')
    if has_dense:
        dense = obj["dense"]
        if not isinstance(dense, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in dense
        ):
            raise IqpError('"dense" must be a list of numbers')
        too_large = '"dense" holds an integer too large for a float'
        return validate(as_array(dense, np.float64, too_large), n)
    probs = obj["probs"]
    if not isinstance(probs, dict):
        raise IqpError('"probs" must be an object keyed by bitstrings')
    keys, values = list(probs), list(probs.values())
    index, bad_key = bit_keys(keys, n)
    # the first bad item in file order: a bad value before the first bad key
    if set(map(type, values[:bad_key])) - {int, float}:  # json's bool is its own type
        bad = next(i for i, v in enumerate(values) if type(v) not in (int, float))
        raise IqpError(f"value for {keys[bad]!r} is not a number")
    if bad_key < len(keys):
        raise IqpError(f"key {keys[bad_key]!r} is not a {n}-bit string")
    arr = np.zeros(1 << n, dtype=np.float64)
    arr[index] = as_array(values, np.float64, '"probs" holds an integer too large for a float')
    return validate(arr, n)
