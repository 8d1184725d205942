"""Independent checks of iqpsynth outputs.

Nothing here imports the package.  Circuit files are parsed by this
module's own reader, marginals come from this module's own Walsh-Hadamard
transform, and certificates are summed with math.fsum, so a check that
passes is evidence about the program rather than a restatement of it.
Every check raises CheckFailed with a reason on the first violation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

EXACT_TV = 1e-12
MIXTURE_TOL = 1e-12
# Phases raised from an approx gate list sit on {0, pi} up to the rounding
# of tens of thousands of summed angles; the table form prints them exactly.
PARITY_TOL = 1e-9
GRID_TOL = 1e-9


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


@dataclass
class Circuit:
    m: int
    n: int
    theta: np.ndarray | None  # flat phase table, None without PHASE lines
    global_phase: float
    has_gates: bool  # a GLOBALPHASE or XROT line; a lowering may keep no XROT
    angles: np.ndarray  # one angle per XROT line
    masks: np.ndarray  # qubit-subset mask per XROT line, qubit 0 = top bit

    @property
    def gate_count(self) -> int:
        return len(self.angles)


def _fail(message: str) -> None:
    raise CheckFailed(message)


def read_circuit(text: str) -> Circuit:
    """Parse the circuit text format: HEADER, GLOBALPHASE, XROT and PHASE lines.

    PHASE lines must close the file, as the program writes them; that block
    is split as one token stream so a 2**19-line table parses in well under
    a second.
    """
    head, _, table = text.partition("\nPHASE ")
    lines = head.splitlines()
    header = [ln for ln in lines if ln.startswith("HEADER ")]
    if len(header) != 1:
        _fail(f"expected one HEADER line, found {len(header)}")
    fields = dict(tok.split("=") for tok in header[0].split()[1:])
    m, n = int(fields["m"]), int(fields["n"])
    total = m + n

    theta = None
    if table:
        tokens = ("PHASE " + table).split()
        bits = tokens[1::3]
        if len(tokens) % 3 or set(tokens[0::3]) != {"PHASE"}:
            _fail("PHASE lines must close the file, each with a bitstring and an angle")
        if any(len(b) != total for b in bits):
            _fail(f"PHASE bitstrings must have {total} bits")
        digits = np.frombuffer("".join(bits).encode(), dtype=np.uint8)
        digits = digits.reshape(len(bits), total).astype(np.int64) - ord("0")
        if digits.size and (digits.min() < 0 or digits.max() > 1):
            _fail("PHASE bitstrings must be binary")
        index = digits @ (1 << np.arange(total - 1, -1, -1, dtype=np.int64))
        if np.unique(index).size != index.size:
            _fail("duplicate PHASE bitstring")
        theta = np.zeros(1 << total)
        theta[index] = np.array(tokens[2::3], dtype=np.float64)

    global_phase = 0.0
    has_gates = False
    angles, masks = [], []
    for ln in lines:
        if ln.startswith("GLOBALPHASE "):
            global_phase = float(ln.split()[1])
            has_gates = True
        elif ln.startswith("XROT "):
            _, angle, qubits = ln.split()
            mask = 0
            for q in qubits.split(","):
                mask |= 1 << (total - 1 - int(q[1:]))
            angles.append(float(angle))
            masks.append(mask)
            has_gates = True
    masks_arr = np.array(masks, dtype=np.int64)
    if np.unique(masks_arr).size != masks_arr.size:
        _fail("duplicate XROT support")
    return Circuit(m, n, theta, global_phase, has_gates, np.array(angles), masks_arr)


def walsh(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis (a copy)."""
    size = values.shape[-1]
    out = np.asarray(values).reshape(-1, size)
    span = size
    while span > 1:
        half = span // 2
        blocks = out.reshape(out.shape[0], -1, 2, half)
        top, bottom = blocks[:, :, 0, :], blocks[:, :, 1, :]
        out = np.stack((top + bottom, top - bottom), axis=2).reshape(-1, size)
        span = half
    return out.reshape(values.shape)


def phases_from_gates(circ: Circuit) -> np.ndarray:
    """theta_x = c_0 + sum_S angle_S * (-1)^|S & x|: the table the gates encode."""
    coeffs = np.zeros(1 << (circ.m + circ.n))
    coeffs[0] = circ.global_phase
    np.add.at(coeffs, circ.masks, circ.angles)
    return walsh(coeffs)


def visible_marginal(theta: np.ndarray, m: int, n: int) -> np.ndarray:
    """Average over hidden rows of |WHT(exp(i*theta_row))|^2, scaled to a distribution."""
    rows = np.exp(1j * theta).reshape(1 << m, 1 << n)
    amps = walsh(rows)
    power = (amps.real**2 + amps.imag**2).sum(axis=0)
    return power / float(1 << (m + 2 * n))


def tv(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * math.fsum(np.abs(a - b))


def _check_table(theta: np.ndarray, circ: Circuit, p: np.ndarray, mode: str,
                 parity_tol: float) -> np.ndarray:
    marginal = visible_marginal(theta, circ.m, circ.n)
    distance = tv(marginal, p)
    if mode == "exact":
        if distance > EXACT_TV:
            _fail(f"exact marginal is {distance:.3g} from the input in TV")
        return marginal
    wrapped = np.mod(theta, 2.0 * np.pi)
    off = np.minimum(np.minimum(wrapped, np.abs(wrapped - np.pi)), 2.0 * np.pi - wrapped)
    if off.max(initial=0.0) > parity_tol:
        _fail(f"approx phase {off.max():.3g} away from 0 and pi")
    scaled = marginal * float(1 << circ.m)
    if np.abs(scaled - np.rint(scaled)).max() > GRID_TOL:
        _fail("approx marginal is off the 2^-m grid")
    bound = 0.5 * 2.0 ** (circ.n - circ.m)
    if distance > bound:
        _fail(f"approx marginal is {distance:.3g} from the input, bound {bound:.3g}")
    return marginal


def check_circuit(circ: Circuit, p: np.ndarray, mode: str, m: int | None,
                  want_table: bool, want_gates: bool) -> np.ndarray:
    """Check sizes, angles and the marginal of every block; return the marginal."""
    n = int(p.size).bit_length() - 1
    expected_m = n + 1 if mode == "exact" else m
    if (circ.m, circ.n) != (expected_m, n):
        _fail(f"header m={circ.m} n={circ.n}, expected m={expected_m} n={n}")
    if want_table != (circ.theta is not None):
        _fail("phase table present" if circ.theta is not None else "phase table missing")
    if want_gates != circ.has_gates:
        _fail("gate list present" if circ.has_gates else "gate list missing")
    marginal = None
    if circ.theta is not None:
        marginal = _check_table(circ.theta, circ, p, mode, 1e-12)
    if want_gates:
        if np.any(circ.angles <= -np.pi) or np.any(circ.angles > np.pi):
            _fail("gate angle outside (-pi, pi]")
        lowered = _check_table(phases_from_gates(circ), circ, p, mode, PARITY_TOL)
        if marginal is not None and np.abs(lowered - marginal).max() > MIXTURE_TOL:
            _fail("gate list and phase table give different marginals")
        marginal = lowered if marginal is None else marginal
    return marginal


def check_report(text: str, circ: Circuit, marginal: np.ndarray, p: np.ndarray,
                 mode: str) -> None:
    """The verify report must pass, match the header and agree on realized TV."""
    report = json.loads(text)
    if report.get("passed") is not True:
        _fail("verify did not pass a correct circuit")
    if (report.get("mode"), report.get("m"), report.get("n")) != (mode, circ.m, circ.n):
        _fail("verify report names the wrong mode or sizes")
    if abs(report["tv_realized"] - tv(marginal, p)) > EXACT_TV:
        _fail("verify report disagrees on realized TV")
    if report.get("gate_count", 0) != circ.gate_count:
        _fail("verify report miscounts gates")


def check_simulation(text: str, marginal: np.ndarray, samples: int) -> None:
    """simulate prints every outcome with its probability, then the samples."""
    lines = text.splitlines()
    size = marginal.size
    n = size.bit_length() - 1
    if len(lines) != size + samples:
        _fail(f"simulate printed {len(lines)} lines, expected {size + samples}")
    for j, line in enumerate(lines[:size]):
        bits, prob = line.split()
        if bits != format(j, f"0{n}b") or abs(float(prob) - marginal[j]) > MIXTURE_TOL:
            _fail(f"simulate line {j} disagrees with the marginal")
    for line in lines[size:]:
        if len(line) != n or marginal[int(line, 2)] <= 0.0:
            _fail(f"simulate drew impossible outcome {line!r}")


def check_certificate(text: str, p: np.ndarray, sparsity: int) -> int:
    """Count, sparsity, unit mass and exact mixture of a decomposition; return its count."""
    cert = json.loads(text)
    n = int(p.size).bit_length() - 1
    parts = cert["components"]
    expected = 1 << (n + 1) if sparsity == 2 else 1 << n
    if cert["n"] != n or len(parts) != expected:
        _fail(f"{len(parts)} components over n={cert['n']}, expected {expected}")
    terms: list[list[float]] = [[] for _ in range(p.size)]
    for part in parts:
        if part["weight"] != 1.0 / expected:
            _fail("component weight is not uniform")
        probs = part["probs"]
        masses = list(probs.values())
        if not 1 <= len(masses) <= sparsity or min(masses) <= 0.0:
            _fail(f"component has {len(masses)} entries or a nonpositive mass")
        if abs(math.fsum(masses) - 1.0) > MIXTURE_TOL:
            _fail("component mass is not 1")
        for bits, mass in probs.items():
            terms[int(bits, 2)].append(mass / expected)
    err = max(abs(math.fsum(t) - float(pj)) for t, pj in zip(terms, p))
    if err > MIXTURE_TOL:
        _fail(f"mixture misses the input by {err:.3g}")
    return len(parts)
