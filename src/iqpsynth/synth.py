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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np
from numpy.typing import NDArray

from ._bits import (
    DENSE_MAX_QUBITS,
    as_array,
    bit_keys,
    canonical_angle,
    canonical_phase,
    dense_size,
    enforce_cap,
    parity,
    wht_inplace,
)
from .decompose import decompose_2sparse
from .errors import IqpError
from .probdist import ProbVector, format_float

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


def _parity_rows(b1, b2, theta_star, n: int) -> NDArray[np.float64]:
    """The row formula for each (b1, b2, theta_star) triple, uncanonicalized."""
    y = np.arange(1 << n, dtype=np.uint64)
    b1 = np.asarray(b1, dtype=np.uint64)[:, None]
    flip = b1 ^ np.asarray(b2, dtype=np.uint64)[:, None]
    theta_star = np.asarray(theta_star, dtype=np.float64)[:, None]
    return np.pi * parity(b1 & y) + theta_star * parity(flip & y)


def _pair_rows(b1, b2, mass, n: int) -> NDArray[np.float64]:
    """Rows yielding b1 with each mass and b2 with the rest, uncanonicalized.

    Masses are clamped to [0, 1]; where b1 == b2 the row is a plain parity
    pattern and carries the whole unit, whatever mass was asked.
    """
    b1, b2 = np.asarray(b1), np.asarray(b2)
    mass = np.where(b1 == b2, 1.0, np.clip(mass, 0.0, 1.0))
    theta_star = [2.0 * math.acos(math.sqrt(x)) for x in mass.tolist()]
    return _parity_rows(b1, b2, theta_star, n)


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
    enforce_cap(n, DENSE_MAX_QUBITS, "phase table")
    return PhaseTable(0, n, _pair_rows([b1], [b2], [mass], n))


def exact_phase_table(p: ProbVector) -> PhaseTable:
    """Phase table over n + 1 hidden qubits whose visible marginal is p.

    Decomposes p into 2**(n+1) two-outcome components mixed uniformly and
    gives each component one hidden row.  The marginal reproduces p up to
    float rounding in the decomposition, with no dyadic loss.
    """
    enforce_cap(2 * p.n + 1, DENSE_MAX_QUBITS, "phase table")
    parts = decompose_2sparse(p)
    b1, b2 = parts.cols.T  # b2 is -1 where a component has one outcome
    b2 = np.where(b2 >= 0, b2, b1)
    return PhaseTable(p.n + 1, p.n, _pair_rows(b1, b2, parts.masses[:, 0], p.n))


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
    m = size.bit_length() - 1
    enforce_cap(m + n, DENSE_MAX_QUBITS, "phase table")
    return PhaseTable(m, n, _parity_rows(v, v, np.zeros(size), n))


@dataclass(frozen=True, eq=False)
class GateList:
    """X-rotation circuit: exp(i * angle * X_S) terms plus a global phase.

    Gate i acts on the qubits set in masks[i] (nonzero, unique; qubit 0 is
    the most significant of total_qubits bits) by angles[i], canonical in
    (-pi, pi].  Both arrays are read-only.  Gates commute, so order is moot.
    """

    total_qubits: int
    global_phase: float
    masks: NDArray[np.int64]
    angles: NDArray[np.float64]

    def __post_init__(self) -> None:
        if self.total_qubits < 0:
            raise IqpError("qubit count must be nonnegative")
        if not np.isfinite(as_array(self.global_phase, np.float64, "global phase must be finite")):
            raise IqpError("global phase must be finite")
        outside = f"gate masks must lie in (0, 2**{self.total_qubits})"
        masks = as_array(self.masks, np.int64, outside).copy()
        angles = as_array(self.angles, np.float64, "gate angles must be finite")
        if masks.ndim != 1 or masks.shape != angles.shape:
            raise IqpError("gate masks and angles must be 1-D and of one length")
        if not masks.all():
            raise IqpError("gate supports must be nonempty")
        if masks.size and (masks.min() < 0 or int(masks.max()) >> self.total_qubits):
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
    return GateList(total, float(c[0]), kept + 1, angles[kept])


def gates_to_phases(g: GateList, m: int = 0) -> PhaseTable:
    """Invert walsh_lower: accumulate gate angles back into a phase table.

    The gate list does not record the hidden/visible split, so m is taken
    as a parameter; visible bits are the remaining total_qubits - m.
    """
    total = g.total_qubits
    if not 0 <= m <= total:
        raise IqpError(f"m={m} outside [0, {total}]")
    enforce_cap(total, WALSH_MAX_QUBITS, "raising")
    c = np.zeros(1 << total, dtype=np.float64)
    c[0] = g.global_phase
    c[g.masks] = g.angles
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
        raise IqpError("nothing to serialize: no table and no gates")
    if table is not None and (table.m != m or table.n != n):
        raise IqpError("table sizes disagree with header")
    if gates is not None and gates.total_qubits != m + n:
        raise IqpError("gate qubit count disagrees with header")
    lines = []
    if mode is not None:
        lines.append(f"# mode: {mode}")
    lines.append(f"HEADER m={m} n={n}")
    xrots = () if gates is None else _xrot_blocks(gates)
    phases = () if table is None else _phase_blocks(table.theta, m + n)
    return "".join(["\n".join(lines) + "\n", *xrots, *phases])


# Circuit text is written and read a bounded block at a time: PHASE lines
# are written _CHUNK_ROWS to a block, and a block read runs at most to the
# first newline at least _CHUNK_CHARS characters past its start.
# _CHUNK_ROWS is a power of two, so the rows of a PHASE block share their
# high bits.
_CHUNK_ROWS = 1 << 12
_CHUNK_CHARS = 1 << 17


@cache
def _phase_tails(width: int) -> tuple[str, ...]:
    """The low `width` bits of every row of a block, each with its trailing space."""
    return tuple(f"{low:0{width}b} " for low in range(1 << width)) if width else ("",)


def _phase_blocks(theta: NDArray[np.float64], total: int) -> Iterator[str]:
    """The PHASE lines of a table, one newline-terminated block at a time.

    Line x reads f"PHASE {x:0{total}b} {format_float(theta[x])}", with no
    bits at total 0.  Blocks start at multiples of _CHUNK_ROWS = 2**12, so
    the lines of a block share one head, "PHASE " and the bits above the
    low 12, and take the low bits and their trailing space from one cached
    tuple per width.  Each line is three join pieces, head, tail and value,
    and each distinct phase of a block is formatted once.
    """
    low = min(total, _CHUNK_ROWS.bit_length() - 1)
    tails = _phase_tails(low)
    for start in range(0, theta.size, _CHUNK_ROWS):
        stop = min(theta.size, start + _CHUNK_ROWS)
        head = f"PHASE {start >> low:0{total - low}b}" if total > low else "PHASE "
        distinct, inverse = np.unique(theta[start:stop], return_inverse=True)
        values = np.array([format_float(v) + "\n" for v in distinct.tolist()], object)
        pieces = [head] * (3 * (stop - start))
        pieces[1::3] = tails[: stop - start]
        pieces[2::3] = values[inverse].tolist()
        yield "".join(pieces)


def _xrot_blocks(gates: GateList) -> Iterator[str]:
    """The GLOBALPHASE line and then the XROT lines of a gate list, in blocks.

    Each distinct angle of a block is formatted once.  Each field of a mask
    (its halves; at most 12 bits past 24 qubits) indexes the names of every
    subset of its qubits, after a comma when a higher field names a qubit.
    """
    yield f"GLOBALPHASE {format_float(gates.global_phase)}\n"
    total = gates.total_qubits
    count = max(2, -(-total // 12))
    cuts = [total * i // count for i in range(count + 1)]
    fields = []
    for lo, hi in zip(cuts, cuts[1:]):
        names = ["".join(p) for p in product(*[("", f",q{q}") for q in range(lo, hi)])]
        names = [text + "\n" * (hi == total) for text in names + [t[1:] for t in names]]
        fields.append((np.array(names, object), total - hi, hi - lo))
    splits = range(_CHUNK_ROWS, len(gates), _CHUNK_ROWS)
    for masks, angles in zip(np.split(gates.masks, splits), np.split(gates.angles, splits)):
        angles, inverse = np.unique(angles, return_inverse=True)
        heads = np.array([f"XROT {format_float(a)} " for a in angles.tolist()], object)
        columns = [heads[inverse]]
        for table, shift, width in fields:
            bare = (masks >> (shift + width) == 0) << width
            columns.append(table[((masks >> shift) & ((1 << width) - 1)) + bare])
        yield "".join(np.stack(columns, axis=1).ravel().tolist())


def _chunks(text: str) -> Iterator[str]:
    """Consecutive slices of text, each ending at a newline, except the last.

    A slice also ends before the first line of a PHASE or XROT run, so a
    file's head (comments, HEADER, GLOBALPHASE) is a slice of its own and
    an XROT slice ends before the first PHASE line.  A slice that starts
    with "PHASE " is cut by size alone, so PHASE text is never searched.
    """
    start = 0
    while start < len(text):
        stop = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        if not text.startswith("PHASE ", start):
            xrot = text.startswith("XROT ", start)
            for run in ("\nPHASE ",) if xrot else ("\nPHASE ", "\nXROT "):
                stop = text.find(run, start, stop) + 1 or stop
        yield text[start:stop]
        start = stop


# Line breaks that str.splitlines honours besides "\n".
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_MODE_NOTE = re.compile(r"^mode:\s*(\S+)$")


def _angle_values(tokens: Sequence[str]) -> tuple[NDArray[np.float64], tuple[int, str] | None]:
    """Angles of the tokens by float(), plus the first token that is not one.

    float() runs once per distinct token.  The error is (index, message).
    """
    lookup: dict[str, float] = dict.fromkeys(tokens, math.nan)
    unparsed = set()
    for token in lookup:
        try:
            if not token.isascii() or "_" in token:  # float() takes "1_0" and non-ASCII digits
                raise ValueError(token)
            lookup[token] = float(token)
        except ValueError:
            unparsed.add(token)
    values = np.fromiter(map(lookup.__getitem__, tokens), np.float64, len(tokens))
    nonfinite = (~np.isfinite(values)).nonzero()[0]  # unparsed tokens read as nan
    if not nonfinite.size:
        return values, None
    i = int(nonfinite[0])
    message = f"bad angle {tokens[i]!r}" if tokens[i] in unparsed else "angle must be finite"
    return values, (i, message)


def _qubit_masks(
    lists: Sequence[str], total: int
) -> tuple[NDArray[np.int64], tuple[int, str] | None]:
    """Masks of qubit lists such as "q0,q2", plus the first list that is not one.

    The lists are read as one byte buffer.  The masks cover the lists before the
    first bad one, whose (index, message) is formed from its text alone.
    """
    # a newline before each list and after the last; "?" for each non-ASCII character
    buffer = np.frombuffer("\n".join(["", *lists, ""]).encode("ascii", "replace"), np.uint8)
    digit, lead = buffer - ord("0") < 10, buffer == ord("q")  # below "0" wraps past 9
    sep = (buffer == ord(",")) | (buffer == ord("\n"))
    # q[0-9]+(,q[0-9]+)*: a q at each token start and nowhere else, a digit after each q
    bad = (sep[:-1] != lead[1:]) | (lead[:-1] & ~digit[1:]) | ~(digit | lead | sep)[1:]
    code, digit, lead, sep = buffer[1:], digit[1:], lead[1:], sep[1:]
    starts = np.flatnonzero(buffer == ord("\n"))  # of each list in code, then its end
    count, error = len(lists), None
    if bad.any():  # the token that holds, or ends at, the first bad byte
        count = int(np.searchsorted(starts, bad.argmax(), "right")) - 1
        listed, offset = lists[count], bad.argmax() - starts[count]
        error = count, f"bad qubit token {listed.split(',')[listed.count(',', 0, offset)]!r}"
    # each index from its last two digits; a nonzero digit before them puts it
    # past 99, outside any header (at most DENSE_MAX_QUBITS qubits)
    stop = starts[count]
    seps, firsts = np.flatnonzero(sep[:stop]), np.flatnonzero(lead[:stop])
    tens = np.where(seps - firsts > 2, code[seps - 2] - ord("0"), 0)
    q = (code[seps - 1] - ord("0") + 10 * tens).astype(np.int64)
    long = np.flatnonzero(seps - firsts > 3)
    if long.size:
        nonzero = np.cumsum(digit[:stop] & (code[:stop] != ord("0")))
        q[long[nonzero[seps[long] - 3] > nonzero[firsts[long]]]] = 100
    bounds = np.searchsorted(seps, starts[: count + 1])  # each list's first token, then the end
    wrong = q >= total
    wrong[:-1] |= (q[1:] <= q[:-1]) & (code[seps[:-1]] == ord(","))
    if wrong.any():  # digit strings compared by length first: int() refuses long ones
        count = int(np.searchsorted(bounds, wrong.argmax(), "right")) - 1
        keys = [(len(d), d) for d in (p[1:].lstrip("0") or "0" for p in lists[count].split(","))]
        if all(a < b for a, b in zip(keys, keys[1:])):
            error = count, f"qubit q{keys[-1][1]} outside header"
        else:
            error = count, "qubits must be ascending distinct"
    ones = np.left_shift(1, total - 1 - q[: bounds[count]])
    return np.bitwise_or.reduceat(ones, bounds[:count]), error


def _first_duplicate(keys: NDArray[np.int64], seen: NDArray[np.bool_]) -> int | None:
    """Index of the first key that is in seen or occurs earlier in keys."""
    repeated = seen[keys]
    if np.count_nonzero(keys[1:] <= keys[:-1]):  # ascending keys repeat none of their own
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        repeated[order[1:][ordered[1:] == ordered[:-1]]] = True
    hits = repeated.nonzero()[0]
    return int(hits[0]) if hits.size else None


@cache
def _phase_head(total: int) -> tuple[NDArray[np.uint8], NDArray[np.uint8]]:
    """The 32 bytes before the angle of a PHASE line with all-zero bits, and
    how far each may differ: 1 for a bit, 0 elsewhere in "PHASE ... " and
    anything before it, which is the end of the line above."""
    head = f"PHASE {'0' * total} ".encode()
    limit = np.full(32, 255, np.uint8)
    limit[32 - len(head) :] = 0
    limit[32 - len(head) + 6 : 31] = 1
    return np.frombuffer(head.rjust(32, b"\0"), np.uint8), limit


# A PHASE head, "PHASE " + bits + " ", must fit the 32 bytes of _phase_head,
# whose bits _phase_grid packs into one uint32 key.
assert 7 + DENSE_MAX_QUBITS <= 32

# Angle tokens of a PHASE grid span at most _TOKEN_MAX bytes.  Row r of
# _TOKEN_MASKS[k] keeps the first r - 32 bytes of k words (none below 32),
# and a token's words dotted with _TOKEN_WEIGHTS sort it among its block's:
# an argsort of that hash beats np.unique on the tokens as strings.
_TOKEN_MAX = 64
_TOKEN_MASKS = tuple(
    ((np.arange(8 * k) < np.arange(-32, _TOKEN_MAX + 1)[:, None]) * np.uint8(255)).view(np.uint64)
    for k in range(_TOKEN_MAX // 8 + 1)
)
_TOKEN_WEIGHTS = np.arange(1, _TOKEN_MAX // 4, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


class _CircuitReader:
    """Parser state carried from one block of circuit text to the next.

    Each block's PHASE and XROT lines are validated together as arrays.  A
    block raises IqpError for its first malformed line, so errors come
    out in file order with the messages of a line-by-line reading.
    """

    def __init__(self) -> None:
        self.m = self.n = self.total = -1
        self.saw_header = False
        self.mode: str | None = None
        self.global_phase: float | None = None
        self.theta: NDArray[np.float64] | None = None
        self.phase_seen: NDArray[np.bool_] | None = None
        self.xrot_masks: list[NDArray[np.int64]] = []
        self.xrot_angles: list[NDArray[np.float64]] = []
        self.xrot_seen: NDArray[np.bool_] | None = None

    def read(self, block: str, first: int) -> int:
        """Parse a block whose first line is line `first`; return its line count."""
        lead = block[: block.find(" ") + 1]
        if self.saw_header and self.total and lead in ("PHASE ", "XROT ") and "#" not in block:
            count = self._phase_grid(block) if lead == "PHASE " else self._plain(block, first)
            if count is not None:
                return count

        lines = block.splitlines()
        phases: list[tuple[int, str, str]] = []  # line number and two fields
        xrots: list[tuple[int, str, str]] = []
        stop: IqpError | None = None
        for lineno, raw in enumerate(lines, start=first):
            line, hashmark, comment = raw.partition("#")
            if hashmark and self.mode is None:
                note = _MODE_NOTE.match(comment.strip())
                if note and note.group(1) in ("exact", "approx"):
                    self.mode = note.group(1)
            tokens = line.split()
            if not tokens:
                continue
            keyword = tokens[0]
            try:
                if keyword == "PHASE" and self.saw_header:
                    if len(tokens) != (3 if self.total else 2):
                        # zero-qubit circuits have one basis state and no bitstring
                        wanted = "a bitstring and angle" if self.total else "an angle"
                        raise IqpError(f"line {lineno}: PHASE takes {wanted}")
                    phases.append((lineno, tokens[1] if self.total else "", tokens[-1]))
                elif keyword == "XROT" and self.saw_header:
                    if len(tokens) < 3:
                        raise IqpError(f"line {lineno}: XROT takes an angle and qubits")
                    xrots.append((lineno, tokens[1], "".join(tokens[2:])))
                else:
                    self._line(tokens, lineno)
            except IqpError as exc:
                stop = exc
                break
        # every line gathered precedes `stop`, so their errors come first; none
        # is gathered before HEADER, so the header cap's OverCap passes unchanged
        stores = (self._phases, phases), (self._xrots, xrots)
        found = [store(*zip(*rows)) for store, rows in stores if rows]
        if any(found):
            raise IqpError("line {}: {}".format(*min(filter(None, found))))
        if stop is not None:
            raise stop
        return len(lines)

    def _plain(self, block: str, first: int) -> int | None:
        """Store a block whose lines all read (XROT, token, token), and return
        their count; else store nothing and return None.

        Each check is one scan: splitlines would give `lines` lines, each
        starting with "XROT " (read() saw the first), and split() gives
        3 * lines tokens.  _xrots rejects a keyword as angle or qubit list,
        so once it succeeds each line starts at a token index divisible by 3
        and, with 3 * lines tokens in all, holds three.
        """
        tokens = block.split()
        lines = len(tokens) // 3
        if (
            len(tokens) != 3 * lines
            or block.count("\n") != lines
            or not block.endswith("\n")
            or any(c in block for c in _OTHER_BREAKS)
            or block.count("\nXROT ") != lines - 1
        ):
            return None
        error = self._xrots(range(first, first + lines), tokens[1::3], tokens[2::3])
        return lines if error is None else None

    def _phase_grid(self, block: str) -> int | None:
        """Store a block of PHASE lines read as one byte grid, and return their
        count; else store nothing and return None.

        The block must be ASCII without NUL or a line break but "\n", end
        in "\n", and hold lines of "PHASE ", total bits, one space and an
        angle token of at most _TOKEN_MAX bytes.  One scan finds the
        newlines.  Row i of the grid is the 32 bytes up to line i's token,
        its head right-aligned, then the token: the heads, XORed with
        "PHASE 0...0 ", check and key every line at once, and the tokens,
        zero past their ends and sorted by a hash of their words, fall into
        runs of equal rows that each go once through _angle_values.
        """
        if not (block.isascii() and block.endswith("\n")):
            return None
        if any(c in block for c in "\0" + _OTHER_BREAKS):
            return None
        total = self.total
        template, limit = _phase_head(total)
        data = bytes(31) + b"\n" + block.encode("ascii") + bytes(_TOKEN_MAX)
        newlines = (np.frombuffer(data, np.uint8) == 10).nonzero()[0]
        rows = newlines[:-1] + (total - 24)  # 32 bytes before each line's token
        spans = newlines[1:] - rows  # 32 plus the token's size, if the head checks out
        # every row must hold a token, which also keeps each row inside data
        longest = int(np.maximum.reduce(spans)) - 32
        if np.minimum.reduce(spans) <= 32 or longest > _TOKEN_MAX:
            return None
        words = -(-longest // 8)  # per token
        width = 32 + 8 * words
        grid = np.ndarray((len(data) - width + 1, width), np.uint8, data, 0, (1, 1))[rows]
        heads = grid[:, :32] ^ template
        if np.count_nonzero(heads > limit):
            return None
        keys = np.packbits(heads).view(">u4").astype(np.intp)
        keys = keys >> 1 & (1 << total) - 1  # the bits before the space

        tokens = grid[:, 32:].view(np.uint64) & _TOKEN_MASKS[words][spans]
        order = np.argsort(tokens @ _TOKEN_WEIGHTS[:words])
        tokens = tokens[order]
        new = np.concatenate(([True], (tokens[1:] != tokens[:-1]).any(axis=1)))
        # as strings the zero padding is stripped; it cannot merge tokens, which hold no NUL
        distinct = tokens[new].view(f"S{8 * words}")[:, 0].tolist()
        values, bad_angle = _angle_values([token.decode() for token in distinct])
        theta, seen = self._table()
        if bad_angle is not None or _first_duplicate(keys, seen) is not None:
            return None
        seen[keys] = True
        theta[keys[order]] = values[new.cumsum() - 1]
        return len(keys)

    def _line(self, tokens: list[str], lineno: int) -> None:
        """One HEADER or GLOBALPHASE line, or any line before the header."""
        keyword = tokens[0]
        if not self.saw_header:
            if keyword != "HEADER":
                raise IqpError(f"line {lineno}: expected HEADER, got {keyword!r}")
            if len(tokens) != 3:
                raise IqpError(f"line {lineno}: HEADER takes m=<int> n=<int>")
            sizes = {}
            for token in tokens[1:]:
                key, eq, value = token.partition("=")
                if eq != "=" or key not in ("m", "n") or key in sizes:
                    raise IqpError(f"line {lineno}: bad HEADER field {token!r}")
                try:
                    if not value.isascii() or "_" in value:  # int() takes "1_0" and non-ASCII digits
                        raise ValueError(value)
                    sizes[key] = int(value)
                except ValueError:
                    raise IqpError(f"line {lineno}: {key} must be an integer") from None
            if set(sizes) != {"m", "n"} or sizes["m"] < 0 or sizes["n"] < 0:
                raise IqpError(f"line {lineno}: HEADER needs m>=0 and n>=0")
            self.m, self.n = sizes["m"], sizes["n"]
            self.total = self.m + self.n
            enforce_cap(self.total, DENSE_MAX_QUBITS, "circuit header")
            self.saw_header = True
        elif keyword == "HEADER":
            raise IqpError(f"line {lineno}: duplicate HEADER")
        elif keyword == "GLOBALPHASE":
            if len(tokens) != 2:
                raise IqpError(f"line {lineno}: GLOBALPHASE takes one angle")
            if self.global_phase is not None:
                raise IqpError(f"line {lineno}: duplicate GLOBALPHASE")
            values, error = _angle_values(tokens[1:])
            if error is not None:
                raise IqpError(f"line {lineno}: {error[1]}")
            self.global_phase = float(values[0])
        else:
            raise IqpError(f"line {lineno}: unknown keyword {keyword!r}")

    def _phases(
        self, at: Sequence[int], bits: Sequence[str], angles: Sequence[str]
    ) -> tuple[int, str] | None:
        """Store a block's PHASE lines, or return (line, message) of the first bad one.

        `at` gives the line number of each; bits are "" when total is 0.
        """
        total = self.total
        theta, seen = self._table()
        keys, limit = bit_keys(bits, total)
        error = None
        if limit < len(bits):
            error = f"bitstring {bits[limit]!r} is not {total} bits"
        duplicate = _first_duplicate(keys[:limit], seen)
        if duplicate is not None:
            limit = duplicate
            error = f"duplicate PHASE for {bits[limit]!r}" if total else "duplicate PHASE"
        values, bad_angle = _angle_values(angles[:limit])
        if bad_angle is not None:
            limit, error = bad_angle
        if error is not None:
            return at[limit], error
        seen[keys] = True
        theta[keys] = values
        return None

    def _table(self) -> tuple[NDArray[np.float64], NDArray[np.bool_]]:
        """The phases read so far and which are set, made at the first PHASE line."""
        if self.theta is None or self.phase_seen is None:
            self.theta = np.zeros(1 << self.total, dtype=np.float64)
            self.phase_seen = np.zeros(1 << self.total, dtype=bool)
        return self.theta, self.phase_seen

    def _xrots(
        self, at: Sequence[int], angles: Sequence[str], qubits: Sequence[str]
    ) -> tuple[int, str] | None:
        """Store a block's XROT lines, or return (line, message) of the first bad one.

        qubits holds each line's qubit list with the spaces taken out.
        """
        if self.xrot_seen is None:
            self.xrot_seen = np.zeros(1 << self.total, dtype=bool)
        values, bad_angle = _angle_values(angles)
        limit, error = bad_angle or (len(at), None)
        masks, bad_list = _qubit_masks(qubits[:limit], self.total)
        if bad_list is not None:
            limit, error = bad_list
        duplicate = _first_duplicate(masks, self.xrot_seen)
        if duplicate is not None:
            limit, error = duplicate, "duplicate XROT support"
        if error is not None:
            return at[limit], error
        self.xrot_seen[masks] = True
        self.xrot_masks.append(masks)
        self.xrot_angles.append(values)
        return None

    def result(self) -> ParsedCircuit:
        """The parsed circuit, once every block has been read."""
        if not self.saw_header:
            raise IqpError("missing HEADER line")
        table = None
        if self.theta is not None:
            table = PhaseTable(self.m, self.n, self.theta)
        gates = None
        if self.global_phase is not None or self.xrot_masks:
            phase = self.global_phase if self.global_phase is not None else 0.0
            masks = np.concatenate([np.zeros(0, np.int64), *self.xrot_masks])
            angles = np.concatenate([np.zeros(0), *self.xrot_angles])
            gates = GateList(self.total, phase, masks, angles)
        return ParsedCircuit(self.m, self.n, table, gates, self.mode)


def parse_circuit(text: str) -> ParsedCircuit:
    """Parse a circuit file, validating sizes, duplicates, and ranges.

    Raises IqpError with a line number on the first malformed line.
    """
    reader = _CircuitReader()
    lineno = 1
    for block in _chunks(text):
        lineno += reader.read(block, lineno)
    return reader.result()
