"""Digest `iqpsynth synth` output over a fixed corpus, to prove refactors byte-neutral.

Runs the synth subcommand in-process on n = 0..9, five textures (dense,
spiky, gappy, ties, point) and seeds 0-2: exact mode as a phase table,
plus `--lower` and `--format gates` where 2n+1 <= 15; approx mode with
--m n-1 and --m n+2, as a phase table and, where m+n <= 16, as gates.
Prints the number of outputs and one sha256 over all per-output digests;
two trees that print the same digest wrote the same bytes everywhere.
A second line digests `iqpsynth simulate` output on every `--format gates`
file, which pins the gate read path (circuit.parse_circuit, GateList,
gates_to_phases, marginal_mixture) the same way.  A third digests the
`iqpsynth decompose --check` certificate and its stderr line at
--sparsity 2 and 3 on every corpus input, which pins the decomposition
(allocate_3sparse, split_3_to_2) and the reconstruction check.  A fourth
digests the `iqpsynth verify` report, without its timings, and
`iqpsynth simulate` output on every file that carries PHASE lines, which
pins the phase-table read path (circuit.parse_circuit, marginal_mixture)
and the dense cross-check that verify runs.  A fifth digests the `masks`
and `angles` bytes that `circuit.parse_circuit` reads from every `--lower`
and `--format gates` file, which pins the XROT read path on its own, also
where an XROT block is followed by PHASE lines.

Every CLI call must exit 0 and print nothing on stderr but the warning
that an approx bound is vacuous, which synth and verify print on the
--m n-1 files.  The five digests are pinned in PINNED.  After printing,
the script exits 1 and names on stderr each line whose digest differs
from its pin, else it exits 0.  A change meant to be byte-neutral runs it and must exit 0; a
change meant to alter output updates PINNED and says so in CHANGES.md.

Usage:
    PYTHONPATH=src python3 scripts/synth_corpus.py [--digests out.json]
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from iqpsynth.cli import main
from iqpsynth.probdist import serialize_dist, validate
from iqpsynth.circuit import parse_circuit

TEXTURES = ("dense", "spiky", "gappy", "ties", "point")

# The digest each output line must print, by its label.
PINNED = {
    "outputs; corpus": "db0fe1c8d94523f2411602ac517c00664a5b6f0840c6e06180f1159307187d9e",
    "gate files simulated; read":
        "630b61a09d639e43db7f72592ed58e445fd7cfa31f9c82bdd115c11140589395",
    "certificates; decompose":
        "7ae3d06da80e686fe198f6056a1eb3ccd0877703ca3ded323d2590ec005cc412",
    "phase-table files verified; verify":
        "8a46e5303516fdb61ea8562979b79c0c32ece9780ba646549d0060b1ce5614f1",
    "gate blocks parsed; gates":
        "0e795b7a2bd6fc019d064486124bdd603858bf382399cd8659e543c07077b1d5",
}


def texture(name, rng, size):
    if name == "dense":
        raw = rng.random(size)
    elif name == "spiky":
        raw = rng.random(size) ** 8
    elif name == "gappy":
        raw = rng.random(size)
        raw[rng.random(size) < 0.5] = 0.0
    elif name == "ties":
        raw = rng.integers(0, 4, size).astype(np.float64)
    else:
        raw = np.zeros(size)
        raw[int(rng.integers(size))] = 1.0
    if raw.max() == 0.0:
        raw[0] = 1.0
    return raw / math.fsum(raw)


def jobs(n):
    """(tag, synth flags) pairs for one visible size."""
    yield "exact_pt", []
    if 2 * n + 1 <= 15:
        yield "exact_lower", ["--lower"]
        yield "exact_gates", ["--format", "gates"]
    for m in (n - 1, n + 2):
        if m < 0:
            continue
        flags = ["--mode", "approx", "--m", str(m)]
        yield f"approx{m}_pt", flags
        if m + n <= 16:
            yield f"approx{m}_gates", [*flags, "--format", "gates"]


# The one stderr line a call may print: approx files at m = n - 1 have a
# bound of at least 1, and synth and verify both say so.
_VACUOUS = re.compile(r"warning: tv bound \S+ is vacuous; raise --m\n")


def _printed(argv):
    """Stdout of one CLI call, which must exit 0 and print nothing on stderr
    but the vacuous-bound warning."""
    printed, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0 or not (err.getvalue() == "" or _VACUOUS.fullmatch(err.getvalue())):
        raise SystemExit(f"{' '.join(argv)}: exit {code}: {err.getvalue()!r}")
    return printed.getvalue()


def digest_corpus(workdir):
    """Per-output digests of synth files, of simulate on each gates file, of
    decompose certificates with their --check line, of verify plus simulate
    on each phase-table file, and of the gate arrays parsed from each file
    with an XROT block."""
    digests = {}
    reads = {}
    certs = {}
    tables = {}
    gates = {}
    for n in range(10):
        for tex in TEXTURES:
            for seed in range(3):
                rng = np.random.default_rng(1000 * n + seed)
                p = validate(texture(tex, rng, 1 << n), n)
                dist = os.path.join(workdir, "dist.json")
                with open(dist, "w") as handle:
                    handle.write(serialize_dist(p) + "\n")
                for sparsity in ("2", "3"):
                    out = os.path.join(workdir, "cert.json")
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = main(["decompose", dist, "--sparsity", sparsity,
                                     "--check", "-o", out])
                    key = f"n{n}_{tex}_s{seed}_s{sparsity}"
                    if code != 0:
                        raise SystemExit(f"decompose {key}: exit {code}")
                    with open(out, "rb") as handle:
                        blob = handle.read() + err.getvalue().encode()
                    certs[key] = hashlib.sha256(blob).hexdigest()
                for tag, flags in jobs(n):
                    out = os.path.join(workdir, "circuit.txt")
                    _printed(["synth", dist, *flags, "-o", out])
                    key = f"n{n}_{tex}_s{seed}_{tag}"
                    with open(out, "rb") as handle:
                        blob = handle.read()
                    digests[key] = hashlib.sha256(blob).hexdigest()
                    if tag.endswith(("_gates", "_lower")):
                        parsed = parse_circuit(blob.decode()).gates
                        gates[key] = hashlib.sha256(
                            parsed.masks.tobytes() + parsed.angles.tobytes()).hexdigest()
                    if tag.endswith("_gates"):
                        reads[key] = hashlib.sha256(
                            _printed(["simulate", out]).encode()).hexdigest()
                    else:
                        report = json.loads(_printed(["verify", out, dist]))
                        del report["timings_ms"]
                        blob = json.dumps(report) + _printed(["simulate", out])
                        tables[key] = hashlib.sha256(blob.encode()).hexdigest()
    return digests, reads, certs, tables, gates


def main_cli():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digests", help="also write per-output digests as JSON")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        digests, reads, certs, tables, gates = digest_corpus(workdir)
    if args.digests:
        with open(args.digests, "w") as handle:
            json.dump({"synth": digests, "simulate": reads, "decompose": certs,
                       "verify": tables, "gates": gates}, handle, indent=0, sort_keys=True)
    differ = []
    for label, found in zip(PINNED, (digests, reads, certs, tables, gates)):
        total = hashlib.sha256(json.dumps(found, sort_keys=True).encode()).hexdigest()
        print(f"{len(found)} {label} digest {total}")
        if total != PINNED[label]:
            differ.append(label)
    for label in differ:
        print(f"digest differs from its pin: {label}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main_cli())
