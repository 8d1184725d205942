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

Circuit files are plain text:

    # free-form comments; "# mode: exact" annotates provenance
    HEADER m=2 n=1
    GLOBALPHASE 0.5
    XROT -0.25 q0,q2
    PHASE 010 3.1415926535897931

PHASE lines give theta at one basis bitstring (length m+n, qubit 0 first);
missing bitstrings default to 0 and duplicates are rejected.  A file may
carry a phase table, a gate list, or both.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._bits import (
    DENSE_MAX_QUBITS,
    canonical_angle,
    canonical_phase,
    enforce_cap,
    mask_of_support,
    parity,
    support_of_mask,
    wht_inplace,
)
from .decompose import MultiplicityMap, decompose_2sparse
from .errors import (
    DimensionMismatch,
    FormatError,
    LengthMismatch,
    MassOutOfRange,
    OutcomeOutOfRange,
)
from .probdist import ProbVector, format_float

# Lowered rotations with canonical angle at most GATE_TOL are dropped.
GATE_TOL = 1e-12

# Walsh transforms are dense over 2**(m+n) entries; past this many qubits
# the lowering is refused rather than attempted.
WALSH_MAX_QUBITS = 16

MASS_TOL = 1e-12


@dataclass(frozen=True)
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
            raise DimensionMismatch("qubit counts must be nonnegative")
        theta = np.array(self.theta, dtype=np.float64, copy=True).ravel()
        if theta.shape[0] != 1 << (self.m + self.n):
            raise LengthMismatch(
                f"expected {1 << (self.m + self.n)} phases, got {theta.shape[0]}"
            )
        if not np.all(np.isfinite(theta)):
            raise LengthMismatch("phases must be finite")
        theta = canonical_phase(theta)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)

    def row(self, j: int) -> NDArray[np.float64]:
        """Visible-register phases for hidden value j."""
        if not 0 <= j < 1 << self.m:
            raise OutcomeOutOfRange(f"hidden value {j} outside [0, {1 << self.m})")
        return self.theta[j << self.n : (j + 1) << self.n]


@dataclass(frozen=True)
class PhaseRow:
    """One visible-register phase row encoding at most two outcomes.

    Measuring the row state through a Hadamard layer yields b1 with
    probability mass and b2 with the rest.
    """

    n: int
    theta: NDArray[np.float64]
    b1: int
    b2: int
    mass: float
    theta_star: float

    def __post_init__(self) -> None:
        theta = np.array(self.theta, dtype=np.float64, copy=True)
        if theta.shape != (1 << self.n,):
            raise LengthMismatch(f"expected {1 << self.n} phases for n={self.n}")
        theta = canonical_phase(theta)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)


def _parity_rows(b1, b2, theta_star, n: int) -> NDArray[np.float64]:
    """The row formula for each (b1, b2, theta_star) triple, uncanonicalized."""
    y = np.arange(1 << n, dtype=np.uint64)
    b1 = np.asarray(b1, dtype=np.uint64)[:, None]
    flip = b1 ^ np.asarray(b2, dtype=np.uint64)[:, None]
    theta_star = np.asarray(theta_star, dtype=np.float64)[:, None]
    return np.pi * parity(b1 & y) + theta_star * parity(flip & y)


def _theta_star(mass: float) -> float:
    return 2.0 * math.acos(math.sqrt(mass))


def uma_phases_for_pair(b1: int, b2: int, mass: float, n: int) -> PhaseRow:
    """Phase row whose measured outcome is b1 with given mass, else b2.

    The row keeps every amplitude at modulus 2**(-n/2); only phases vary,
    following the row formula of the module docstring.  Through a Hadamard
    layer the amplitude on b is then alpha if b == b1 and beta if b == b2,
    with |alpha|**2 == mass, and zero elsewhere.

    When b1 == b2 the row is a plain parity pattern and carries the whole
    unit of probability; mass is forced to 1 in that case.
    """
    size = 1 << n
    if not 0 <= b1 < size:
        raise OutcomeOutOfRange(f"b1={b1} outside [0, {size})")
    if not 0 <= b2 < size:
        raise OutcomeOutOfRange(f"b2={b2} outside [0, {size})")
    if not math.isfinite(mass) or mass < -MASS_TOL or mass > 1.0 + MASS_TOL:
        raise MassOutOfRange(f"mass {mass!r} outside [0, 1]")
    mass = 1.0 if b1 == b2 else min(max(mass, 0.0), 1.0)
    theta_star = _theta_star(mass)
    row = _parity_rows([b1], [b2], [theta_star], n)[0]
    return PhaseRow(n, row, b1, b2, mass, theta_star)


def exact_phase_table(p: ProbVector) -> PhaseTable:
    """Phase table over n + 1 hidden qubits whose visible marginal is p.

    Decomposes p into 2**(n+1) two-outcome components mixed uniformly and
    gives each component one hidden row.  The marginal reproduces p up to
    float rounding in the decomposition, with no dyadic loss.
    """
    parts = decompose_2sparse(p)
    b1 = [part.entries[0][0] for part in parts]
    b2 = [part.entries[-1][0] for part in parts]
    theta_star = [
        _theta_star(min(part.entries[0][1], 1.0)) if part.sparsity > 1 else 0.0
        for part in parts
    ]
    return PhaseTable(p.n + 1, p.n, _parity_rows(b1, b2, theta_star, p.n))


def approx_phase_table(vmap: MultiplicityMap, n: int) -> PhaseTable:
    """Phase table realizing a dyadic distribution from its multiplicity map.

    Hidden row j is the parity pattern pi * parity(v[j] & y), a point mass
    on outcome v[j]; mixing rows uniformly weights each outcome by its
    multiplicity.  All phases are 0 or pi.
    """
    if not 0 <= int(vmap.v.min()) <= int(vmap.v.max()) < 1 << n:
        raise OutcomeOutOfRange(f"multiplicity labels must lie in [0, 2**{n})")
    return PhaseTable(vmap.m, n, _parity_rows(vmap.v, vmap.v, np.zeros(vmap.v.size), n))


@dataclass(frozen=True)
class GateList:
    """X-rotation circuit: exp(i * angle * X_S) terms plus a global phase.

    Each gate is (support, angle) with support an ascending tuple of
    qubit indices; supports are unique across the list and angles are
    stored canonically in (-pi, pi].  Gates commute, so list order is
    physically irrelevant.
    """

    total_qubits: int
    global_phase: float
    gates: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self) -> None:
        if self.total_qubits < 0:
            raise DimensionMismatch("qubit count must be nonnegative")
        if not math.isfinite(self.global_phase):
            raise LengthMismatch("global phase must be finite")
        seen: set[tuple[int, ...]] = set()
        gates = []
        for raw_support, raw_angle in self.gates:
            support = tuple(int(q) for q in raw_support)
            if not support:
                raise LengthMismatch("gate supports must be nonempty")
            if list(support) != sorted(set(support)):
                raise LengthMismatch(f"support {support} must be ascending distinct")
            if support[0] < 0 or support[-1] >= self.total_qubits:
                raise DimensionMismatch(f"support {support} out of range")
            if support in seen:
                raise LengthMismatch(f"duplicate gate support {support}")
            seen.add(support)
            if not math.isfinite(raw_angle):
                raise LengthMismatch("gate angles must be finite")
            gates.append((support, float(canonical_angle(float(raw_angle)))))
        object.__setattr__(self, "gates", tuple(gates))

    def __len__(self) -> int:
        return len(self.gates)


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
    gates = []
    for s in range(1, 1 << total):
        angle = float(canonical_angle(c[s]))
        if abs(angle) > GATE_TOL:
            gates.append((support_of_mask(s, total), angle))
    return GateList(total, float(c[0]), tuple(gates))


def gates_to_phases(g: GateList, m: int = 0) -> PhaseTable:
    """Invert walsh_lower: accumulate gate angles back into a phase table.

    The gate list does not record the hidden/visible split, so m is taken
    as a parameter; visible bits are the remaining total_qubits - m.
    """
    total = g.total_qubits
    if not 0 <= m <= total:
        raise DimensionMismatch(f"m={m} outside [0, {total}]")
    enforce_cap(total, WALSH_MAX_QUBITS, "raising")
    c = np.zeros(1 << total, dtype=np.float64)
    c[0] = g.global_phase
    for support, angle in g.gates:
        c[mask_of_support(support, total)] += angle
    return PhaseTable(m, total - m, wht_inplace(c))


@dataclass(frozen=True)
class ParsedCircuit:
    """Contents of one circuit file: header sizes plus whichever blocks appear."""

    m: int
    n: int
    table: PhaseTable | None
    gates: GateList | None
    mode: str | None


def serialize_circuit(
    m: int,
    n: int,
    table: PhaseTable | None = None,
    gates: GateList | None = None,
    mode: str | None = None,
) -> str:
    """Render a circuit file with a header and the requested blocks.

    Phase lines cover every basis bitstring in ascending order so the file
    round-trips even when phases are zero.
    """
    if table is None and gates is None:
        raise FormatError("nothing to serialize: no table and no gates")
    if table is not None and (table.m != m or table.n != n):
        raise DimensionMismatch("table sizes disagree with header")
    if gates is not None and gates.total_qubits != m + n:
        raise DimensionMismatch("gate qubit count disagrees with header")
    total = m + n
    lines = []
    if mode is not None:
        lines.append(f"# mode: {mode}")
    lines.append(f"HEADER m={m} n={n}")
    if gates is not None:
        lines.append(f"GLOBALPHASE {format_float(gates.global_phase)}")
        for support, angle in gates.gates:
            qubits = ",".join(f"q{q}" for q in support)
            lines.append(f"XROT {format_float(angle)} {qubits}")
    if table is not None:
        labels = (f"{x:0{total}b} " if total else "" for x in range(1 << total))
        values = map(format_float, table.theta.tolist())
        lines.extend(f"PHASE {label}{value}" for label, value in zip(labels, values))
    return "\n".join(lines) + "\n"


_XROT_QUBIT = re.compile(r"^q(\d+)$")
_MODE_NOTE = re.compile(r"^mode:\s*(\S+)$")


def _parse_angle(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"line {lineno}: bad angle {token!r}") from None
    if not math.isfinite(value):
        raise FormatError(f"line {lineno}: angle must be finite")
    return value


def parse_circuit(text: str) -> ParsedCircuit:
    """Parse a circuit file, validating sizes, duplicates, and ranges.

    Raises FormatError with a line number on the first malformed line.
    """
    m = n = total = -1
    saw_header = False
    mode: str | None = None
    global_phase: float | None = None
    xrots: list[tuple[tuple[int, ...], float]] = []
    xrot_masks: set[int] = set()
    phases: dict[int, float] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        note = _MODE_NOTE.match(comment.strip())
        if note and mode is None and note.group(1) in ("exact", "approx"):
            mode = note.group(1)
        tokens = line.split()
        if not tokens:
            continue
        keyword = tokens[0]
        if not saw_header:
            if keyword != "HEADER":
                raise FormatError(f"line {lineno}: expected HEADER, got {keyword!r}")
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: HEADER takes m=<int> n=<int>")
            sizes = {}
            for token in tokens[1:]:
                key, eq, value = token.partition("=")
                if eq != "=" or key not in ("m", "n") or key in sizes:
                    raise FormatError(f"line {lineno}: bad HEADER field {token!r}")
                try:
                    sizes[key] = int(value)
                except ValueError:
                    raise FormatError(
                        f"line {lineno}: {key} must be an integer"
                    ) from None
            if set(sizes) != {"m", "n"} or sizes["m"] < 0 or sizes["n"] < 0:
                raise FormatError(f"line {lineno}: HEADER needs m>=0 and n>=0")
            m, n = sizes["m"], sizes["n"]
            total = m + n
            enforce_cap(total, DENSE_MAX_QUBITS, "circuit header")
            saw_header = True
            continue
        if keyword == "HEADER":
            raise FormatError(f"line {lineno}: duplicate HEADER")
        if keyword == "GLOBALPHASE":
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: GLOBALPHASE takes one angle")
            if global_phase is not None:
                raise FormatError(f"line {lineno}: duplicate GLOBALPHASE")
            global_phase = _parse_angle(tokens[1], lineno)
        elif keyword == "XROT":
            if len(tokens) < 3:
                raise FormatError(f"line {lineno}: XROT takes an angle and qubits")
            angle = _parse_angle(tokens[1], lineno)
            support = []
            for part in "".join(tokens[2:]).split(","):
                match = _XROT_QUBIT.match(part)
                if not match:
                    raise FormatError(f"line {lineno}: bad qubit token {part!r}")
                support.append(int(match.group(1)))
            if sorted(set(support)) != support:
                raise FormatError(f"line {lineno}: qubits must be ascending distinct")
            if support[-1] >= total:
                raise FormatError(f"line {lineno}: qubit q{support[-1]} outside header")
            mask = mask_of_support(tuple(support), total)
            if mask in xrot_masks:
                raise FormatError(f"line {lineno}: duplicate XROT support")
            xrot_masks.add(mask)
            xrots.append((tuple(support), angle))
        elif keyword == "PHASE":
            if total == 0:
                # zero-qubit circuits have one basis state and no bitstring
                if len(tokens) != 2:
                    raise FormatError(f"line {lineno}: PHASE takes an angle")
                if 0 in phases:
                    raise FormatError(f"line {lineno}: duplicate PHASE")
                phases[0] = _parse_angle(tokens[1], lineno)
                continue
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: PHASE takes a bitstring and angle")
            bits = tokens[1]
            if len(bits) != total or any(c not in "01" for c in bits):
                raise FormatError(
                    f"line {lineno}: bitstring {bits!r} is not {total} bits"
                )
            x = int(bits, 2)
            if x in phases:
                raise FormatError(f"line {lineno}: duplicate PHASE for {bits!r}")
            phases[x] = _parse_angle(tokens[2], lineno)
        else:
            raise FormatError(f"line {lineno}: unknown keyword {keyword!r}")

    if not saw_header:
        raise FormatError("missing HEADER line")
    table = None
    if phases:
        theta = np.zeros(1 << total, dtype=np.float64)
        for x, value in phases.items():
            theta[x] = value
        table = PhaseTable(m, n, theta)
    gates = None
    if global_phase is not None or xrots:
        phase = global_phase if global_phase is not None else 0.0
        gates = GateList(total, phase, tuple(xrots))
    return ParsedCircuit(m, n, table, gates, mode)
