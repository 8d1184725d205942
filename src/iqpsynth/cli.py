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
from .decompose import (
    allocate_3sparse,
    build_multiplicity_map,
    decompose_2sparse,
    round_to_dyadic,
    rows_to_dists,
)
from .errors import InternalError, IqpError
from .probdist import format_float, parse_dist, tv_distance
from .sim import DEFAULT_SEED, check_sample_count, marginal_full, marginal_mixture, sample
from .synth import (
    ParsedCircuit,
    PhaseTable,
    approx_phase_table,
    exact_phase_table,
    gates_to_phases,
    parse_circuit,
    serialize_circuit,
    walsh_lower,
)

# Phases this close to 0 or pi still count as a parity table when guessing
# whether an unannotated circuit came from the approximate path.
PARITY_TOL = 1e-12

DEFAULT_EXACT_TOL = 1e-9

# The full-state cross-check runs only when it is cheap.
CROSSCHECK_MAX_QUBITS = 20


def _write_text(path: str, text: str) -> None:
    """Write atomically: a torn run never leaves a partial file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".iqpsynth-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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


def _table_of(circ: ParsedCircuit) -> PhaseTable:
    if circ.table is not None:
        return circ.table
    if circ.gates is not None:
        return gates_to_phases(circ.gates, circ.m)
    raise IqpError("circuit file carries neither phases nor gates")


def _looks_parity(table: PhaseTable) -> bool:
    theta = table.theta
    near_0 = theta <= PARITY_TOL
    near_pi = np.abs(theta - np.pi) <= PARITY_TOL
    near_tau = theta >= 2.0 * np.pi - PARITY_TOL
    return bool(np.all(near_0 | near_pi | near_tau))


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
        bound = 0.5 * 2.0 ** (p.n - args.m)
        if bound >= 1.0:
            sys.stderr.write(
                f"warning: tv bound {format_float(bound)} is vacuous; raise --m\n"
            )
    gates = None
    if args.lower or args.format == "gates":
        gates = walsh_lower(table)
    text = serialize_circuit(
        table.m,
        table.n,
        table=table if args.format == "phasetable" else None,
        gates=gates,
        mode=args.mode,
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
    table = _table_of(circ)
    mode = args.mode
    if mode == "auto":
        mode = circ.mode or ("approx" if _looks_parity(table) else "exact")
    marginal = marginal_mixture(table)
    if circ.m + circ.n <= CROSSCHECK_MAX_QUBITS:
        dense = marginal_full(table)
        if float(np.abs(dense.probs - marginal.probs).max()) > 1e-12:
            raise InternalError("internal: mixture and dense marginals disagree")
    t2 = time.perf_counter()
    tv = tv_distance(target, marginal)

    report: dict = {"mode": mode, "n": circ.n, "m": circ.m}
    report["tv_realized"] = tv
    if mode == "approx":
        bound = 0.5 * 2.0 ** (circ.n - circ.m)
        report["tv_bound"] = bound
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
    sys.stdout.write(text)
    if args.output is not None:
        _write_text(args.output, text)
    return 0 if passed else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    check_sample_count(args.samples)
    if args.seed < 0:
        raise IqpError("--seed must be nonnegative")
    circ = parse_circuit(_read_text(args.circuit))
    marginal = marginal_mixture(_table_of(circ))
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
    verify.add_argument("--mode", choices=("auto", "exact", "approx"), default="auto")
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
