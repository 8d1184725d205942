"""Command-line entry points: synth, verify, simulate, decompose.

Exit codes are uniform across subcommands: 0 success (for verify, the
check passed), 1 a completed verification that failed, 2 bad input or
usage, 3 a size cap (qubits or samples) refused the computation, 4 an internal
invariant failed, such as the two marginal routes disagreeing.  Codes 2 to 4
are the exit_code of the IqpError class raised (errors.py).  Reports and
certificates are JSON with a fixed key order; timings are wall-clock
milliseconds and the only nondeterministic fields anywhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import time

import numpy as np

from ._bits import DENSE_MAX_QUBITS, enforce_cap
from .circuit import ParsedCircuit, parse_circuit, serialize_circuit
from .decompose import (
    allocate_3sparse,
    build_multiplicity_map,
    decompose_2sparse,
    dyadic_tv_bound,
    round_to_dyadic,
    rows_to_dists,
)
from .errors import InternalError, IqpError
from .probdist import ProbVector, format_float, parse_dist, tv_distance
from .sim import DEFAULT_SEED, check_sample_count, marginal_full, marginal_mixture, sample
from .synth import (
    PhaseTable,
    approx_phase_table,
    exact_phase_table,
    gates_to_phases,
    walsh_lower,
)

DEFAULT_EXACT_TOL = 1e-9

# Two marginals of one circuit, from its two blocks or its two routes, agree
# when no entry differs by more than this.
MARGINAL_AGREEMENT = 1e-12

# The full-state cross-check runs only when it is cheap.
CROSSCHECK_MAX_QUBITS = 20


def _write_text(path: str, text: str) -> None:
    """Write atomically, so a torn run never leaves a partial file behind; an
    OSError names path, never the temporary file beside it."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".iqpsynth-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


def _read_text(path: str) -> str:
    """A file's text; a byte that is not UTF-8 is an IqpError naming its offset."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()  # decoded in one piece, so offsets are the file's
        except UnicodeDecodeError as exc:
            raise IqpError(f"{path}: byte {exc.start} is not UTF-8") from None


def _table_of(circ: ParsedCircuit) -> tuple[PhaseTable, ProbVector]:
    """The file's phase table and its visible marginal; a file with both
    blocks is refused unless its gates, raised to a table, give the PHASE
    block's marginal."""
    if circ.gates is None:
        if circ.table is None:
            raise IqpError("circuit file carries neither phases nor gates")
        return circ.table, marginal_mixture(circ.table)
    raised = gates_to_phases(circ.gates)
    marginal = marginal_mixture(raised)
    if circ.table is None:
        return raised, marginal
    table_marginal = marginal_mixture(circ.table)
    if float(np.abs(table_marginal.probs - marginal.probs).max()) > MARGINAL_AGREEMENT:
        raise IqpError("PHASE and XROT blocks disagree")
    return circ.table, table_marginal


def _tv_bound(n: int, m: int) -> float:
    """The approx TV bound, with a warning on stderr when it is vacuous."""
    bound = dyadic_tv_bound(n, m)
    if bound >= 1.0:
        sys.stderr.write(f"warning: tv bound {format_float(bound)} is vacuous; raise --m\n")
    return bound


def cmd_synth(args: argparse.Namespace) -> int:
    p = parse_dist(_read_text(args.input))
    if args.mode == "exact":
        if args.m is not None:
            raise IqpError("--m is fixed at n+1 in exact mode; drop the flag")
        table = exact_phase_table(p)
    else:
        if args.m is None:
            raise IqpError("approx mode needs --m")
        enforce_cap(args.m + p.n, DENSE_MAX_QUBITS, "phase table")
        q = round_to_dyadic(p, args.m)
        table = approx_phase_table(build_multiplicity_map(q, args.m), p.n)
        _tv_bound(p.n, args.m)
    gates = None
    if args.lower or args.format == "gates":
        gates = walsh_lower(table)
    text = serialize_circuit(
        table=table if args.format == "phasetable" else None, gates=gates, mode=args.mode
    )
    _emit(text, args.output)
    return 0


def _verify_report(args: argparse.Namespace) -> tuple[dict, bool]:
    if args.tolerance is not None and not args.tolerance >= 0:
        raise IqpError("--tolerance must be a nonnegative number")
    t0 = time.perf_counter()
    circ = parse_circuit(_read_text(args.circuit))
    target = parse_dist(_read_text(args.dist))
    if target.n != circ.n:
        raise IqpError(f"distribution is over {target.n} bits, circuit header says {circ.n}")
    t1 = time.perf_counter()
    table, marginal = _table_of(circ)
    mode = circ.mode or "exact"
    if circ.m + circ.n <= CROSSCHECK_MAX_QUBITS:
        dense = marginal_full(table)
        if float(np.abs(dense.probs - marginal.probs).max()) > MARGINAL_AGREEMENT:
            raise InternalError("internal: mixture and dense marginals disagree")
    t2 = time.perf_counter()
    tv = tv_distance(target, marginal)

    report: dict = {"mode": mode, "n": circ.n, "m": circ.m}
    report["tv_realized"] = tv
    if mode == "approx":
        bound = report["tv_bound"] = _tv_bound(circ.n, circ.m)
        passed = tv <= bound
        if args.tolerance is not None:
            passed = passed and tv <= args.tolerance
    else:
        tol = DEFAULT_EXACT_TOL if args.tolerance is None else args.tolerance
        passed = tv <= tol
    report["passed"] = passed
    if circ.gates is not None:
        report["gate_count"] = len(circ.gates)
    report["timings_ms"] = {
        "parse": round(1e3 * (t1 - t0), 3),
        "marginal": round(1e3 * (t2 - t1), 3),
        "total": round(1e3 * (time.perf_counter() - t0), 3),
    }
    return report, passed


def cmd_verify(args: argparse.Namespace) -> int:
    report, passed = _verify_report(args)
    text = json.dumps(report, indent=2) + "\n"
    if args.output is not None:
        _write_text(args.output, text)
    sys.stdout.write(text)
    return 0 if passed else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    check_sample_count(args.samples, args.seed)
    circ = parse_circuit(_read_text(args.circuit))
    _, marginal = _table_of(circ)
    lines = [
        f"{marginal.bitstring(j)} {format_float(float(marginal.probs[j]))}"
        for j in range(len(marginal))
    ]
    if args.samples:
        lines.extend(sample(marginal, args.samples, args.seed))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    p = parse_dist(_read_text(args.input))
    if args.sparsity == 3:
        parts = rows_to_dists(allocate_3sparse(p))
    else:
        parts = decompose_2sparse(p)
    weight = 1.0 / len(parts)
    filled = parts.cols >= 0
    outcomes = parts.cols[filled]
    labels = [p.bitstring(j) for j in range(len(p))]
    distinct, inverse = np.unique(parts.masses[filled], return_inverse=True)
    values = [format_float(v) for v in distinct.tolist()]
    items = [f'"{labels[j]}": {values[i]}' for j, i in zip(outcomes.tolist(), inverse.tolist())]
    head = f'{{"weight": {format_float(weight)}, "probs": {{'
    ends = np.cumsum(parts.sparsity).tolist()
    blocks = ",\n    ".join(
        head + ", ".join(items[start:end]) + "}}"
        for start, end in zip([0, *ends], ends)
    )
    text = f'{{"n": {p.n}, "components": [\n    {blocks}\n]}}\n'
    _emit(text, args.output)
    if args.check:
        mix = np.zeros(len(p), dtype=np.float64)
        np.add.at(mix, outcomes, weight * parts.masses[filled])
        err = float(np.abs(mix - p.probs).max())
        sys.stderr.write(f"max reconstruction error {format_float(err)}\n")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iqpsynth",
        description="Compile distributions into hidden-qubit IQP circuits "
        "and verify them by exact simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="compile a distribution into a circuit")
    synth.add_argument("input", help="distribution JSON file")
    synth.add_argument("-o", "--output", help="circuit file (default stdout)")
    synth.add_argument("--mode", choices=("exact", "approx"), default="exact")
    synth.add_argument("--m", type=int, help="hidden qubits (approx mode only)")
    synth.add_argument(
        "--format", choices=("phasetable", "gates"), default="phasetable"
    )
    synth.add_argument(
        "--lower", action="store_true", help="also emit the lowered gate block"
    )
    synth.set_defaults(func=cmd_synth)

    verify = sub.add_parser("verify", help="check a circuit against a distribution")
    verify.add_argument("circuit", help="circuit file")
    verify.add_argument("dist", help="distribution JSON file")
    verify.add_argument("--tolerance", type=float, help="tv acceptance threshold")
    verify.add_argument("-o", "--output", help="also write the report here")
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser("simulate", help="print a circuit's visible marginal")
    simulate.add_argument("circuit", help="circuit file")
    simulate.add_argument("--samples", type=int, default=0, help="draw this many")
    simulate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    simulate.set_defaults(func=cmd_simulate)

    decompose = sub.add_parser(
        "decompose", help="write a distribution as a uniform mixture of sparse parts"
    )
    decompose.add_argument("input", help="distribution JSON file")
    decompose.add_argument("--sparsity", type=int, choices=(2, 3), default=2)
    decompose.add_argument("-o", "--output", help="certificate file (default stdout)")
    decompose.add_argument(
        "--check", action="store_true", help="report the reconstruction error"
    )
    decompose.set_defaults(func=cmd_decompose)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (IqpError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code if isinstance(exc, IqpError) else 2


if __name__ == "__main__":
    sys.exit(main())
