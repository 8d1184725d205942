"""Command-line behavior: exit codes, file formats, determinism."""

import argparse
import hashlib
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpsynth import circuit, cli, synth
from iqpsynth.cli import main
from iqpsynth.decompose import dyadic_tv_bound
from iqpsynth.errors import InternalError, IqpError, OverCap
from iqpsynth.probdist import ProbVector, format_float, parse_dist, serialize_dist, validate
from iqpsynth.sim import SAMPLES_MAX


@pytest.fixture
def dist_file(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(serialize_dist(validate([0.1, 0.1, 0.3, 0.5], 2)) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_then_verify_exact(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "c.txt")
    code, out, _ = run(capsys, "synth", dist_file, "-o", circuit)
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "verify", circuit, dist_file)
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["mode", "n", "m", "tv_realized", "passed", "timings_ms"]
    assert report["mode"] == "exact"
    assert report["m"] == 3 and report["n"] == 2
    assert report["tv_realized"] <= 1e-9
    assert report["passed"] is True


def test_synth_writes_stdout_without_output_flag(dist_file, capsys):
    code, out, _ = run(capsys, "synth", dist_file)
    assert code == 0
    assert out.startswith("# mode: exact\nHEADER m=3 n=2\n")


def test_verify_approx_reports_bound(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "c.txt")
    report_path = str(tmp_path / "report.json")
    code, _, err = run(capsys, "synth", dist_file, "-o", circuit, "--mode", "approx", "--m", "5")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "verify", circuit, dist_file, "-o", report_path)
    assert code == 0 and err == ""  # a bound below 1 draws no warning
    report = json.loads(out)
    assert list(report) == [
        "mode", "n", "m", "tv_realized", "tv_bound", "passed", "timings_ms",
    ]
    assert report["mode"] == "approx"
    assert report["tv_bound"] == 0.5 * 2.0 ** (2 - 5)
    assert report["tv_realized"] <= report["tv_bound"]
    on_disk = json.loads(Path(report_path).read_text())
    assert on_disk["passed"] is True
    # --tolerance narrows the bound: both must hold
    far = tmp_path / "far.json"
    far.write_text('{"n": 2, "probs": {"00": 1.0}}')
    tv = report["tv_realized"]
    for target, tolerance, code in (
        (dist_file, repr(tv), 0), (dist_file, repr(tv / 2), 1), (str(far), "1", 1),
    ):
        assert run(capsys, "verify", circuit, target, "--tolerance", tolerance)[0] == code


def test_verify_fails_against_wrong_target(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit)
    other = tmp_path / "other.json"
    other.write_text('{"n": 2, "probs": {"00": 1.0}}')
    code, out, _ = run(capsys, "verify", circuit, str(other))
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_tolerance_flag(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit)
    other = tmp_path / "near.json"
    other.write_text('{"n": 2, "probs": {"00": 0.1, "01": 0.1, "10": 0.3001, "11": 0.4999}}')
    code, _, _ = run(capsys, "verify", circuit, str(other))
    assert code == 1
    code, _, _ = run(capsys, "verify", circuit, str(other), "--tolerance", "0.01")
    assert code == 0


def test_verify_rejects_bad_tolerance(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit)
    for bad in ("nan", "-1", "-inf"):
        code, out, err = run(capsys, "verify", circuit, dist_file, f"--tolerance={bad}")
        assert code == 2 and out == ""
        assert err == "error: --tolerance must be a nonnegative number\n"
    for good in ("0", "inf"):
        code, out, _ = run(capsys, "verify", circuit, dist_file, "--tolerance", good)
        report = json.loads(out)
        assert code == (0 if report["passed"] else 1)
        assert report["passed"] == (report["tv_realized"] <= float(good))


def test_verify_takes_its_mode_from_the_file(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit, "--mode", "approx", "--m", "4")
    # the exact rule's verdict on an approx file is a tolerance under the bound
    code, out, _ = run(capsys, "verify", circuit, dist_file, "--tolerance", "1e-9")
    assert code == 1  # dyadic error far exceeds the exact tolerance
    assert json.loads(out)["mode"] == "approx"
    code, out, err = run(capsys, "verify", circuit, dist_file, "--mode", "exact")
    assert code == 2 and out == ""
    assert err.startswith("usage: ") and err.endswith(
        "error: unrecognized arguments: --mode exact\n"
    )
    code, out, _ = run(capsys, "verify", "--help")
    assert code == 0 and "--tolerance" in out and "--mode" not in out


def test_unannotated_circuit_is_judged_exact(dist_file, tmp_path, capsys):
    # with no "# mode:" line, verify applies the exact rule
    circuit = tmp_path / "c.txt"
    run(capsys, "synth", dist_file, "-o", str(circuit), "--mode", "approx", "--m", "4")
    text = circuit.read_text()
    assert text.startswith("# mode: approx\n")
    stripped = tmp_path / "anon.txt"
    stripped.write_text(text.removeprefix("# mode: approx\n"))
    code, out, _ = run(capsys, "verify", str(stripped), dist_file)
    assert code == 1 and json.loads(out)["mode"] == "exact"
    stripped.write_text("# mode: approx\n" + stripped.read_text())
    code, out, _ = run(capsys, "verify", str(stripped), dist_file)
    assert code == 0 and json.loads(out)["tv_bound"] == dyadic_tv_bound(2, 4)


def test_approx_warning_and_report_state_dyadic_tv_bound(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text('{"n": 3, "dense": [0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125]}')
    circuit = tmp_path / "c.txt"
    code, _, err = run(capsys, "synth", str(path), "-o", str(circuit),
                       "--mode", "approx", "--m", "1")
    bound = dyadic_tv_bound(3, 1)
    warning = f"warning: tv bound {format_float(bound)} is vacuous; raise --m\n"
    assert code == 0 and err == warning
    code, out, err = run(capsys, "verify", str(circuit), str(path))
    assert code == 0 and json.loads(out)["tv_bound"] == bound and err == warning


def test_verify_warns_on_a_vacuous_bound(tmp_path, capsys):
    # m = 0 hidden qubits bound nothing at n = 1: a fair coin passes as 0.9/0.1
    circuit = tmp_path / "c.txt"
    circuit.write_text("# mode: approx\n" + REFUSAL_FILES["c.txt"])
    target = tmp_path / "d.json"
    target.write_text('{"n": 1, "probs": {"0": 0.9, "1": 0.1}}')
    code, out, err = run(capsys, "verify", str(circuit), str(target))
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert report["tv_bound"] == 1.0 and abs(report["tv_realized"] - 0.4) <= 1e-15
    assert err == "warning: tv bound 1 is vacuous; raise --m\n"


@pytest.mark.parametrize("flags, walks", [([], 1), (["--format", "gates"], 1), (["--lower"], 2)])
def test_verify_walks_each_block_once(flags, walks, dist_file, tmp_path, capsys, monkeypatch):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit, *flags)
    calls = []
    walk = cli.marginal_mixture
    monkeypatch.setattr(cli, "marginal_mixture", lambda table: calls.append(table) or walk(table))
    assert run(capsys, "verify", circuit, dist_file)[0] == 0
    assert len(calls) == walks


def test_gates_format_round_trips_through_verify(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "g.txt")
    code, _, _ = run(capsys, "synth", dist_file, "-o", circuit, "--format", "gates")
    assert code == 0
    text = Path(circuit).read_text()
    assert "GLOBALPHASE" in text and "XROT" in text
    assert not any(line.startswith("PHASE") for line in text.splitlines())
    code, out, _ = run(capsys, "verify", circuit, dist_file)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["gate_count"] >= 1


def test_lower_flag_emits_both_blocks(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "b.txt")
    run(capsys, "synth", dist_file, "-o", circuit, "--lower")
    text = Path(circuit).read_text()
    assert "XROT" in text and "PHASE" in text


def test_lowered_file_with_a_perturbed_gate_is_refused(dist_file, tmp_path, capsys):
    circuit = tmp_path / "b.txt"
    run(capsys, "synth", dist_file, "-o", str(circuit), "--lower")
    assert run(capsys, "verify", str(circuit), dist_file)[0] == 0
    lines = circuit.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("XROT "))
    _, angle, qubits = lines[i].split()
    lines[i] = f"XROT {float(angle) + 0.3!r} {qubits}\n"
    circuit.write_text("".join(lines))
    message = "error: PHASE and XROT blocks disagree\n"
    assert run(capsys, "verify", str(circuit), dist_file) == (2, "", message)
    assert run(capsys, "simulate", str(circuit)) == (2, "", message)


def test_simulate_prints_marginal_and_samples(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit)
    code, out, _ = run(capsys, "simulate", circuit, "--samples", "4", "--seed", "9")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    marginal = {}
    for line in lines[:4]:
        bits, value = line.split()
        marginal[bits] = float(value)
    target = parse_dist(Path(dist_file).read_text())
    got = np.array([marginal[target.bitstring(j)] for j in range(4)])
    assert np.abs(got - target.probs).max() <= 1e-9
    assert all(len(s) == 2 and set(s) <= {"0", "1"} for s in lines[4:])
    again = run(capsys, "simulate", circuit, "--samples", "4", "--seed", "9")[1]
    assert again == out


def test_simulate_point_mass_sampling(tmp_path, capsys):
    dist = str(tmp_path / "point.json")
    with open(dist, "w") as handle:
        handle.write('{"n": 2, "probs": {"10": 1.0}}')
    circuit = str(tmp_path / "point.txt")
    run(capsys, "synth", dist, "-o", circuit)
    code, out, _ = run(capsys, "simulate", circuit, "--samples", "5", "--seed", "7")
    assert code == 0
    samples = out.splitlines()[4:]
    assert samples == ["10"] * 5


def test_simulate_rejects_negative_seed(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit)
    code, out, err = run(capsys, "simulate", circuit, "--samples", "3", "--seed", "-1")
    assert code == 2 and out == ""
    assert err == "error: --seed must be nonnegative\n"
    assert run(capsys, "simulate", circuit, "--samples", "3", "--seed", "0")[0] == 0


def test_simulate_refuses_oversized_samples(dist_file, tmp_path, capsys, monkeypatch):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit)
    drawn = []

    def sample(p, count, seed):  # records the count and draws nothing
        drawn.append(count)
        return []

    monkeypatch.setattr(cli, "sample", sample)
    for count in (10**14, 10**23, SAMPLES_MAX + 1):
        code, out, err = run(capsys, "simulate", circuit, "--samples", str(count))
        assert code == 3 and out == ""
        assert err == f"error: --samples {count} is over the cap of {SAMPLES_MAX}\n"
    assert drawn == []
    code, out, _ = run(capsys, "simulate", circuit, "--samples", str(SAMPLES_MAX))
    assert code == 0 and len(out.splitlines()) == 4
    assert drawn == [SAMPLES_MAX]


@pytest.mark.parametrize("command", ["synth", "verify", "simulate", "decompose"])
def test_non_utf8_byte_exits_2(command, dist_file, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"HEADER m=1 n=1\nPHASE 00 \xff\n")
    argv = [command, str(bad)] + ([dist_file] if command == "verify" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {bad}: byte 24 is not UTF-8\n"


@pytest.mark.parametrize("n", [0, 1, 3, 6])
@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_plain_path_reads_every_phase_and_xrot_line(mode, n, tmp_path, capsys):
    # only head lines are left to the line-by-line loop, in every synth format
    raw = np.random.default_rng(n).random(1 << n)
    dist = tmp_path / "dist.json"
    dist.write_text(serialize_dist(validate(raw / math.fsum(raw), n)) + "\n")
    flags = ["--mode", "approx", "--m", str(n + 1)] if mode == "approx" else []
    counts = {"_phase_grid": [], "_plain": []}

    def spy(name):
        reader = getattr(circuit._CircuitReader, name)

        def read(self, *args):
            counts[name].append(reader(self, *args))
            return counts[name][-1]

        return mock.patch.object(circuit._CircuitReader, name, read)

    gates = []
    for form in ([], ["--format", "gates"], ["--lower"]):
        code, text, _ = run(capsys, "synth", str(dist), *flags, *form)
        assert code == 0
        for found in counts.values():
            found.clear()
        with spy("_phase_grid"), spy("_plain"):
            circ = circuit.parse_circuit(text)
        lines = text.splitlines()
        for name, keyword in (("_phase_grid", "PHASE "), ("_plain", "XROT ")):
            runs = sum(line.startswith(keyword) for line in lines)
            assert None not in counts[name] and sum(counts[name]) == runs
        if form:
            gates.append(circ.gates)
    as_gates, lowered = gates
    assert as_gates.masks.tobytes() == lowered.masks.tobytes()
    assert as_gates.angles.tobytes() == lowered.angles.tobytes()
    assert as_gates.global_phase == lowered.global_phase


def test_decompose_certificate(dist_file, tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    code, _, err = run(capsys, "decompose", dist_file, "-o", cert_path, "--check")
    assert code == 0
    assert "max reconstruction error" in err
    cert = json.loads(Path(cert_path).read_text())
    assert cert["n"] == 2
    assert len(cert["components"]) == 8
    mix = np.zeros(4)
    for comp in cert["components"]:
        assert len(comp["probs"]) <= 2
        for bits, value in comp["probs"].items():
            mix[int(bits, 2)] += comp["weight"] * value
    target = parse_dist(Path(dist_file).read_text())
    assert np.abs(mix - target.probs).max() <= 1e-12


def test_decompose_sparsity_3(dist_file, capsys):
    code, out, _ = run(capsys, "decompose", dist_file, "--sparsity", "3")
    assert code == 0
    cert = json.loads(out)
    assert len(cert["components"]) == 4
    assert all(len(c["probs"]) <= 3 for c in cert["components"])


def test_exit_codes(dist_file, tmp_path, capsys):
    # 2: malformed input file
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(capsys, "synth", str(bad))[0] == 2
    # 2: missing file
    assert run(capsys, "synth", str(tmp_path / "nope.json"))[0] == 2
    # 2: usage conflicts
    assert run(capsys, "synth", dist_file, "--m", "4")[0] == 2
    assert run(capsys, "synth", dist_file, "--mode", "approx")[0] == 2
    # 2: argparse-level rejection
    assert run(capsys, "synth", dist_file, "--format", "weird")[0] == 2
    # 2: dimension clash between circuit and target
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit)
    mono = tmp_path / "mono.json"
    mono.write_text('{"n": 1, "probs": {"1": 1.0}}')
    assert run(capsys, "verify", circuit, str(mono))[0] == 2


@pytest.mark.parametrize(
    "form, field",
    [('"probs": {{"0": {}, "1": 0.5}}', "probs"), ('"dense": [{}, 0.5]', "dense")],
    ids=["probs", "dense"],
)
def test_integer_past_float_range_exits_2(form, field, tmp_path, capsys):
    # JSON integers are unbounded; one past the float range must not escape
    # as an OverflowError traceback
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1, ' + form.format("1" + "0" * 400) + "}")
    for command in ("synth", "decompose"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == f'error: "{field}" holds an integer too large for a float\n'


def test_exit_code_qubit_cap(dist_file, tmp_path, capsys, monkeypatch):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit)
    monkeypatch.setenv("IQP_MAX_QUBITS", "3")
    assert run(capsys, "verify", circuit, dist_file)[0] == 3
    assert run(capsys, "synth", dist_file, "--format", "gates")[0] == 3


def test_oversized_distribution_header_exits_3(tmp_path, capsys):
    # 2**40 entries would be allocated if n were trusted before the cap
    path = tmp_path / "wide.json"
    path.write_text('{"n": 40, "probs": {}}')
    code, out, err = run(capsys, "synth", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oversized_circuit_header_exits_3(dist_file, tmp_path, capsys):
    circuit = tmp_path / "huge.txt"
    circuit.write_text("HEADER m=30 n=30\nPHASE " + "0" * 60 + " 1.0\n")
    code, out, err = run(capsys, "verify", str(circuit), dist_file)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oversized_synth_table_exits_3(tmp_path, capsys, monkeypatch):
    def build(*args):
        raise AssertionError("the table must be refused before it is built")

    monkeypatch.setattr(synth, "decompose_2sparse", build)
    for name in ("round_to_dyadic", "build_multiplicity_map"):
        monkeypatch.setattr(cli, name, build)
    pair = tmp_path / "pair.json"
    pair.write_text('{"n": 2, "probs": {"00": 0.5, "11": 0.5}}')
    wide = tmp_path / "wide.json"
    wide.write_text('{"n": 12, "probs": {"000000000000": 1.0}}')
    code, out, err = run(capsys, "synth", str(pair), "--mode", "approx", "--m", "40")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    monkeypatch.setenv("IQP_MAX_QUBITS", "20")
    code, out, err = run(capsys, "synth", str(wide))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_marginal_disagreement_exits_4(dist_file, tmp_path, capsys, monkeypatch):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit)
    exact = cli.marginal_full

    def perturbed(table):
        probs = exact(table).probs.copy()
        probs[[0, 1]] += [1e-9, -1e-9]
        return ProbVector(table.n, probs)

    monkeypatch.setattr(cli, "marginal_full", perturbed)
    code, out, err = run(capsys, "verify", circuit, dist_file)
    assert code == 4 and out == ""
    assert err.startswith("error: internal") and err.count("\n") == 1


def test_approx_vacuous_bound_warning(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text('{"n": 3, "dense": [0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125]}')
    code, _, err = run(capsys, "synth", str(path), "--mode", "approx", "--m", "1")
    assert code == 0
    assert "vacuous" in err and "2" in err
    code, _, err = run(capsys, "synth", str(path), "--mode", "approx", "--m", "4")
    assert code == 0 and err == ""


def test_atomic_write_leaves_no_droppings(dist_file, tmp_path, capsys):
    circuit = tmp_path / "c.txt"
    run(capsys, "synth", dist_file, "-o", str(circuit))
    # a failed rename (onto a directory) removes its temporary file too
    (tmp_path / "out").mkdir()
    code, out, err = run(capsys, "synth", dist_file, "-o", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path / 'out'}'\n"
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".iqpsynth-")]
    assert leftovers == []
    assert circuit.exists()


def pinned_dist(n):
    weights = [float((7 * j + 3) % 11) for j in range(1 << n)]
    total = math.fsum(weights)
    return serialize_dist(validate([w / total for w in weights], n)) + "\n"


# sha256 of `synth` output, frozen so that every refactor of synthesis,
# lowering or serialization must keep the circuit bytes.
PINNED_SYNTH = (
    (5, [], "ddce101bcf835740742e0260759c9dbd08b01132d95690088bdacc2da624672d"),
    (
        4,
        ["--lower"],
        "89cce87bfd0c4e46384aef3d8f239383320101d2d1c22e51af20c37bcf6d781d",
    ),
    (
        4,
        ["--mode", "approx", "--m", "6", "--format", "gates"],
        "ab02bc2dec9a14d7d31f4d20d53eb25a5b0d5bbeee53ee0887d82f21a4fcc342",
    ),
    (
        6,
        ["--mode", "approx", "--m", "8"],
        "e15a7ed13a513f428109dd45ed799733710d00cc048d561b3fcc9567c72cbd1d",
    ),
)


@pytest.mark.parametrize("n, flags, digest", PINNED_SYNTH)
def test_synth_bytes_are_pinned(n, flags, digest, tmp_path, capsys):
    dist = tmp_path / "dist.json"
    dist.write_text(pinned_dist(n))
    circuit = tmp_path / "c.txt"
    assert run(capsys, "synth", str(dist), *flags, "-o", str(circuit))[0] == 0
    assert hashlib.sha256(circuit.read_bytes()).hexdigest() == digest


# sha256 of the `verify` report without its timings, followed by `simulate`
# output, on an exact n=6 table (8,194 lines, two PHASE blocks) and an approx
# n=6 --m 8 table, frozen so that a refactor of the circuit reader or of the
# marginals must keep every reported figure bit for bit.
PINNED_VERIFY = (
    ([], "d8d7add49e9871ee2aaf6a93442572c320d2877124197ed1f8b0153194b770a7"),
    (
        ["--mode", "approx", "--m", "8"],
        "1e63ae9d5f8c6c21a9b2e886a191a23887a868965ee13e47d2e28930aa1ce5ec",
    ),
)


@pytest.mark.parametrize("flags, digest", PINNED_VERIFY)
def test_verify_bytes_are_pinned(flags, digest, tmp_path, capsys):
    dist = tmp_path / "dist.json"
    dist.write_text(pinned_dist(6))
    circuit = tmp_path / "c.txt"
    assert run(capsys, "synth", str(dist), *flags, "-o", str(circuit))[0] == 0
    code, out, _ = run(capsys, "verify", str(circuit), str(dist))
    assert code == 0
    report = json.loads(out)
    del report["timings_ms"]
    code, marginal, _ = run(capsys, "simulate", str(circuit))
    assert code == 0
    blob = json.dumps(report) + marginal
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


# sha256 of a `decompose --check` certificate followed by its stderr line, on
# a spiky n=10 input, frozen so that a refactor of the decomposition must keep
# every certificate byte and the reconstruction error bit for bit.
PINNED_DECOMPOSE = (
    ("2", "fd225443f67bbced9581ef69ea764c1f849c5d840c7b6fe596489e53155c0023"),
    ("3", "2f70d73192d32df2b5a8dbd347c408ca4c60eb50e71e00b9b78251e951c4e8e7"),
)


@pytest.mark.parametrize("sparsity, digest", PINNED_DECOMPOSE)
def test_decompose_bytes_are_pinned(sparsity, digest, tmp_path, capsys):
    raw = np.random.default_rng(2).random(1 << 10) ** 4
    dist = tmp_path / "dist.json"
    dist.write_text(serialize_dist(validate(raw / math.fsum(raw), 10)) + "\n")
    cert = tmp_path / "cert.json"
    code, _, err = run(capsys, "decompose", str(dist), "--sparsity", sparsity,
                       "--check", "-o", str(cert))
    assert code == 0
    assert hashlib.sha256(cert.read_bytes() + err.encode()).hexdigest() == digest


def adversarial(texture, n):
    """Raw masses that stress the exact path's floats at the extremes."""
    size = 1 << n
    rng = np.random.default_rng(n)
    if texture == "subnormal_tail":
        raw = np.full(size, 5e-324)
        raw[size // 3] = 1.0
    elif texture == "near_point":
        raw = np.full(size, 1e-300)
        raw[size - 1] = 1.0
    elif texture == "point":
        raw = np.zeros(size)
        raw[size // 2] = 1.0
    elif texture == "jitter":
        raw = 1.0 / size + rng.uniform(-1e-17, 1e-17, size)
    else:  # half subnormal: every other outcome a few ulps above zero
        raw = rng.random(size)
        raw[::2] = 5e-324 * rng.integers(1, 1000, size // 2)
    return raw


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize(
    "texture", ["subnormal_tail", "near_point", "point", "jitter", "half_subnormal"]
)
def test_adversarial_textures_round_trip(texture, n, tmp_path, capsys):
    raw = adversarial(texture, n)
    dist = tmp_path / "dist.json"
    dist.write_text(serialize_dist(validate(raw / math.fsum(raw), n)) + "\n")
    circuit = str(tmp_path / "c.txt")
    assert run(capsys, "synth", str(dist), "-o", circuit)[0] == 0
    code, out, _ = run(capsys, "verify", circuit, str(dist))
    assert code == 0
    assert json.loads(out)["tv_realized"] <= 1e-15
    for sparsity in ("2", "3"):
        code, _, err = run(capsys, "decompose", str(dist), "--sparsity", sparsity,
                           "--check", "-o", str(tmp_path / "cert.json"))
        assert code == 0 and err.startswith("max reconstruction error ")


def test_parser_serves_repeated_calls(dist_file, capsys):
    # one process, one parser: later calls see only their own arguments
    code, out, _ = run(capsys, "decompose", dist_file, "--sparsity", "3")
    assert code == 0 and len(json.loads(out)["components"]) == 4
    code, out, _ = run(capsys, "synth", dist_file)
    assert code == 0 and out.startswith("# mode: exact\n")
    code, out, _ = run(capsys, "decompose", dist_file)
    assert code == 0 and len(json.loads(out)["components"]) == 8
    assert run(capsys, "decompose", dist_file, "--sparsity", "4")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert cli._build_parser() is cli._build_parser()


# One input per refusal the command line can reach, with the exact exit code
# and stderr it must end in.  Each case runs in a directory holding d.json (a
# fair coin), d2.json (a 2-bit distribution), c.txt (a one-qubit circuit
# whose marginal is that coin) and, when the case gives one, its input as in.
REFUSAL_FILES = {
    "d.json": '{"n": 1, "probs": {"0": 0.5, "1": 0.5}}',
    "d2.json": '{"n": 2, "probs": {"00": 1.0}}',
    "c.txt": "HEADER m=0 n=1\nPHASE 0 0\nPHASE 1 1.5707963267948966\n",
}


def _disagreeing_marginals(monkeypatch):
    exact = cli.marginal_full

    def perturbed(table):
        probs = exact(table).probs.copy()
        probs[[0, 1]] += [1e-9, -1e-9]
        return ProbVector(table.n, probs)

    monkeypatch.setattr(cli, "marginal_full", perturbed)


def _qubit_cap(value):
    return lambda monkeypatch: monkeypatch.setenv("IQP_MAX_QUBITS", value)


def _refusal(case_id, argv, text, code, message, setup=None):
    return pytest.param(argv.split(), text, code, message, setup, id=case_id)


HEADER_1 = "HEADER m=0 n=1\n"

REFUSALS = [
    # argument checks
    _refusal("exact-with-m", "synth d.json --m 3", None, 2,
             "--m is fixed at n+1 in exact mode; drop the flag"),
    _refusal("approx-without-m", "synth d.json --mode approx", None, 2,
             "approx mode needs --m"),
    _refusal("negative-tolerance", "verify c.txt d.json --tolerance -1", None, 2,
             "--tolerance must be a nonnegative number"),
    _refusal("negative-samples", "simulate c.txt --samples -1", None, 2,
             "--samples must be nonnegative"),
    _refusal("negative-seed", "simulate c.txt --seed -1", None, 2,
             "--seed must be nonnegative"),
    _refusal("missing-file", "decompose nope.json", None, 2,
             "[Errno 2] No such file or directory: 'nope.json'"),
    _refusal("not-utf8", "synth in", b'{"n": 0, "dense": [1\xff]}', 2,
             "in: byte 20 is not UTF-8"),
    _refusal("cap-variable", "synth d.json", None, 2,
             "IQP_MAX_QUBITS must be an integer, got 'x'", _qubit_cap("x")),
    # an -o path that cannot be written; verify prints no report first
    _refusal("synth-output", "synth d.json -o missing/x", None, 2,
             "[Errno 2] No such file or directory: 'missing/x'"),
    _refusal("verify-output", "verify c.txt d.json -o missing/x", None, 2,
             "[Errno 2] No such file or directory: 'missing/x'"),
    _refusal("decompose-output", "decompose d.json -o missing/x", None, 2,
             "[Errno 2] No such file or directory: 'missing/x'"),
    # parse_dist and validate
    _refusal("invalid-json", "synth in", "{", 2,
             "invalid JSON: Expecting property name enclosed in double quotes: "
             "line 1 column 2 (char 1)"),
    _refusal("not-object", "decompose in", "[]", 2, "top level must be a JSON object"),
    _refusal("unknown-key", "synth in", '{"n": 1, "probs": {}, "x": 1}', 2,
             "unknown keys: ['x']"),
    _refusal("bad-n", "synth in", '{"n": -1, "probs": {}}', 2,
             '"n" must be a nonnegative integer'),
    _refusal("no-masses", "synth in", '{"n": 1}', 2,
             'exactly one of "probs" or "dense" is required'),
    _refusal("dense-not-numbers", "synth in", '{"n": 1, "dense": [0.5, "a"]}', 2,
             '"dense" must be a list of numbers'),
    _refusal("huge-integer", "synth in", '{"n": 1, "dense": [1' + "0" * 400 + ", 0]}",
             2, '"dense" holds an integer too large for a float'),
    _refusal("probs-not-object", "synth in", '{"n": 1, "probs": []}', 2,
             '"probs" must be an object keyed by bitstrings'),
    _refusal("value-not-number", "synth in", '{"n": 1, "probs": {"0": "a"}}', 2,
             "value for '0' is not a number"),
    _refusal("repeated-key", "synth in", '{"n": 1, "probs": {"0": 0.25, "1": 0.5, "0": 0.5}}',
             2, "repeated key '0'"),
    _refusal("repeated-top-key", "verify c.txt in", '{"n": 1, "n": 1, "probs": {"0": 1}}', 2,
             "repeated key 'n'"),
    _refusal("bad-key", "synth in", '{"n": 1, "probs": {"00": 1.0}}', 2,
             "key '00' is not a 1-bit string"),
    _refusal("wrong-length", "synth in", '{"n": 1, "dense": [1.0]}', 2,
             "expected 2 entries for n=1, got shape (1,)"),
    _refusal("not-finite", "decompose in", '{"n": 1, "dense": [NaN, 1.0]}', 2,
             "entries must be finite"),
    _refusal("negative-mass", "synth in", '{"n": 1, "dense": [-0.5, 1.5]}', 2,
             "entry -0.5 is below -1e-12"),
    _refusal("bad-sum", "synth in", '{"n": 1, "dense": [0.5, 0.25]}', 2,
             "entries sum to 0.75, expected 1 within 1e-09"),
    # the circuit reader
    _refusal("empty-circuit", "simulate in", "", 2, "missing HEADER line"),
    _refusal("no-header", "simulate in", "PHASE 0 0\n", 2,
             "line 1: expected HEADER, got 'PHASE'"),
    _refusal("short-header", "simulate in", "HEADER m=0\n", 2,
             "line 1: HEADER takes m=<int> n=<int>"),
    _refusal("header-field", "simulate in", "HEADER m=0 k=1\n", 2,
             "line 1: bad HEADER field 'k=1'"),
    _refusal("header-integer", "simulate in", "HEADER m=a n=1\n", 2,
             "line 1: m must be an integer"),
    _refusal("header-negative", "simulate in", "HEADER m=-1 n=1\n", 2,
             "line 1: HEADER needs m>=0 and n>=0"),
    _refusal("header-non-ascii-digit", "simulate in", "HEADER m=\u0661 n=1\n".encode(), 2,
             "line 1: m must be an integer"),
    _refusal("header-underscore", "simulate in", "HEADER m=0 n=1_0\n", 2,
             "line 1: n must be an integer"),
    _refusal("duplicate-header", "simulate in", HEADER_1 * 2, 2,
             "line 2: duplicate HEADER"),
    _refusal("globalphase-arity", "simulate in", HEADER_1 + "GLOBALPHASE\n", 2,
             "line 2: GLOBALPHASE takes one angle"),
    _refusal("duplicate-globalphase", "simulate in", HEADER_1 + "GLOBALPHASE 0\n" * 2,
             2, "line 3: duplicate GLOBALPHASE"),
    _refusal("globalphase-angle", "simulate in", HEADER_1 + "GLOBALPHASE x\n", 2,
             "line 2: bad angle 'x'"),
    _refusal("globalphase-infinite", "simulate in", HEADER_1 + "GLOBALPHASE inf\n", 2,
             "line 2: angle must be finite"),
    _refusal("globalphase-underscore", "simulate in", HEADER_1 + "GLOBALPHASE 1_0\n", 2,
             "line 2: bad angle '1_0'"),
    _refusal("unknown-keyword", "simulate in", HEADER_1 + "FOO 1\n", 2,
             "line 2: unknown keyword 'FOO'"),
    _refusal("phase-arity", "simulate in", HEADER_1 + "PHASE 0\n", 2,
             "line 2: PHASE takes a bitstring and angle"),
    _refusal("zero-qubit-phase-arity", "simulate in", "HEADER m=0 n=0\nPHASE 0 1\n", 2,
             "line 2: PHASE takes an angle"),
    _refusal("xrot-arity", "simulate in", HEADER_1 + "XROT 0.5\n", 2,
             "line 2: XROT takes an angle and qubits"),
    _refusal("bitstring-width", "simulate in", HEADER_1 + "PHASE 01 0\n", 2,
             "line 2: bitstring '01' is not 1 bits"),
    _refusal("duplicate-phase", "simulate in", HEADER_1 + "PHASE 0 0\n" * 2, 2,
             "line 3: duplicate PHASE for '0'"),
    _refusal("phase-angle", "simulate in", HEADER_1 + "PHASE 0 x\n", 2,
             "line 2: bad angle 'x'"),
    _refusal("phase-angle-underscore", "simulate in", HEADER_1 + "PHASE 0 1_0.5\n", 2,
             "line 2: bad angle '1_0.5'"),
    _refusal("xrot-angle-non-ascii-digit", "simulate in",
             (HEADER_1 + "XROT \u0661.5 q0\n").encode(), 2,
             "line 2: bad angle '\u0661.5'"),
    _refusal("qubit-token", "simulate in", HEADER_1 + "XROT 0.5 p0\n", 2,
             "line 2: bad qubit token 'p0'"),
    _refusal("qubit-non-ascii-digit", "simulate in",
             (HEADER_1 + "XROT 0.5 q\u0661\n").encode(), 2,
             "line 2: bad qubit token 'q\u0661'"),
    _refusal("qubit-order", "simulate in", "HEADER m=0 n=2\nXROT 0.5 q1,q0\n", 2,
             "line 2: qubits must be ascending distinct"),
    _refusal("qubit-outside", "simulate in", HEADER_1 + "XROT 0.5 q3\n", 2,
             "line 2: qubit q3 outside header"),
    _refusal("duplicate-xrot", "simulate in", HEADER_1 + "XROT 0.5 q0\n" * 2, 2,
             "line 3: duplicate XROT support"),
    _refusal("header-only", "verify in d.json", HEADER_1, 2,
             "circuit file carries neither phases nor gates"),
    _refusal("blocks-disagree", "simulate in", HEADER_1 + "XROT 0.3 q0\nPHASE 1 0\n", 2,
             "PHASE and XROT blocks disagree"),
    _refusal("dimension-clash", "verify c.txt d2.json", None, 2,
             "distribution is over 2 bits, circuit header says 1"),
    # the caps
    _refusal("distribution-cap", "synth in", '{"n": 40, "probs": {}}', 3,
             "distribution needs 40 qubits, cap is 24"),
    _refusal("circuit-header-cap", "verify in d.json", "HEADER m=30 n=30\n", 3,
             "circuit header needs 60 qubits, cap is 24"),
    _refusal("table-cap", "synth d.json --mode approx --m 40", None, 3,
             "phase table needs 41 qubits, cap is 24"),
    _refusal("lowering-cap", "synth in --format gates", '{"n": 8, "probs": {"00000000": 1}}',
             3, "lowering needs 17 qubits, cap is 16"),
    _refusal("two-block-raising-cap", "simulate in",
             "HEADER m=9 n=8\nXROT 0.5 q0\nPHASE " + "0" * 17 + " 0.5\n", 3,
             "raising needs 17 qubits, cap is 16"),
    _refusal("lowered-cap", "synth d.json", None, 3, "phase table needs 3 qubits, cap is 2",
             _qubit_cap("2")),
    _refusal("sample-cap", "simulate c.txt --samples 16777217", None, 3,
             "--samples 16777217 is over the cap of 16777216"),
    # the two marginal routes disagree
    _refusal("marginal-disagreement", "verify c.txt d.json", None, 4,
             "internal: mixture and dense marginals disagree", _disagreeing_marginals),
]


@pytest.mark.parametrize("argv, text, code, message, setup", REFUSALS)
def test_refusal_exit_codes_and_messages(argv, text, code, message, setup, tmp_path,
                                         capsys, monkeypatch):
    for name, content in REFUSAL_FILES.items():
        (tmp_path / name).write_text(content)
    if isinstance(text, bytes):
        (tmp_path / "in").write_bytes(text)
    elif text is not None:
        (tmp_path / "in").write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("IQP_MAX_QUBITS", raising=False)
    if setup is not None:
        setup(monkeypatch)
    assert run(capsys, *argv) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "form",
    ['"dense": [1e308, 1e308, 0, 0]', '"probs": {"00": 1e308, "01": 1e308}'],
    ids=["dense", "probs"],
)
def test_sum_past_the_float_range_exits_2(form, tmp_path, capsys):
    # math.fsum overflows on these masses; they are a bad sum, not a traceback
    path = tmp_path / "huge.json"
    path.write_text('{"n": 2, ' + form + "}")
    circuit = tmp_path / "c.txt"
    circuit.write_text("HEADER m=0 n=2\n")  # verify reads the distribution next
    message = "error: entries sum to inf, expected 1 within 1e-09\n"
    for argv in (["synth", path], ["decompose", path], ["verify", circuit, path]):
        assert run(capsys, *map(str, argv)) == (2, "", message)


def test_deep_nesting_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    circuit = tmp_path / "c.txt"
    circuit.write_text(REFUSAL_FILES["c.txt"])
    message = "error: invalid JSON: maximum recursion depth exceeded"
    for argv in (["synth", path], ["decompose", path], ["verify", circuit, path]):
        code, out, err = run(capsys, *map(str, argv))
        assert code == 2 and out == ""
        assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "error, code", [(IqpError, 2), (OverCap, 3), (InternalError, 4), (OSError, 2)]
)
def test_main_returns_the_exit_code_of_the_error(error, code, capsys, monkeypatch):
    def refuse(args):
        raise error("stubbed refusal")

    stub = argparse.Namespace(func=refuse)
    monkeypatch.setattr(cli, "_build_parser", lambda: mock.Mock(parse_args=lambda argv: stub))
    assert run(capsys, "decompose", "any.json") == (code, "", "error: stubbed refusal\n")


# Small valid inputs for the mutation test below, and the extreme numbers it
# swaps in: past the float range summed, the smallest subnormal, a negative
# zero, and integers past int64 and past the float range.
FUZZ_DISTS = (
    '{"n": 2, "dense": [0.25, 0.25, 0.25, 0.25]}',
    '{"n": 2, "probs": {"00": 0.5, "11": 0.5}}',
)
FUZZ_CIRCUITS = (
    "# mode: exact\nHEADER m=0 n=2\nPHASE 00 0\nPHASE 01 1.5707963267948966\n"
    "PHASE 10 3.141592653589793\nPHASE 11 0.5\n",
    "HEADER m=1 n=1\nGLOBALPHASE 0.5\nXROT -0.25 q0,q1\nXROT 0.75 q1\n",
)
EXTREMES = ("1e308", "5e-324", "-0.0", str(2**64), "1" + "0" * 400)
_SEPARATORS = re.compile(r'([\s,:{}\[\]"=]+)')
_NUMBER = re.compile(r"-?\d[\d.e+-]*")

edits = st.lists(
    st.tuples(
        st.sampled_from(["number", "every", "swap", "drop", "insert"]),
        st.integers(0, 63),
        st.integers(0, 63),
        st.sampled_from(EXTREMES),
    ),
    max_size=3,
)


def mutate(text, steps):
    """Apply edits to the tokens and separators of text.

    "number" puts an extreme in place of one number, "every" in place of
    every copy of one number; "swap", "drop" and "insert" move, delete or
    copy a token or separator.
    """
    pieces = _SEPARATORS.split(text)
    for op, i, j, extreme in steps:
        numbers = [k for k, piece in enumerate(pieces) if _NUMBER.fullmatch(piece)]
        if op in ("number", "every") and numbers:
            k = numbers[i % len(numbers)]
            targets = [k] if op == "number" else [n for n in numbers if pieces[n] == pieces[k]]
            for n in targets:
                pieces[n] = extreme
        elif op == "swap" and pieces:
            i, j = i % len(pieces), j % len(pieces)
            pieces[i], pieces[j] = pieces[j], pieces[i]
        elif op == "drop" and pieces:
            del pieces[i % len(pieces)]
        elif op == "insert" and pieces:
            pieces.insert(i % (len(pieces) + 1), pieces[j % len(pieces)])
    return "".join(pieces)


def test_mutated_inputs_never_escape_main(tmp_path, capsys):
    dist, circuit = str(tmp_path / "d.json"), str(tmp_path / "c.txt")

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_DISTS), edits, st.sampled_from(FUZZ_CIRCUITS), edits)
    def check(dist_text, dist_edits, circuit_text, circuit_edits):
        with open(dist, "w") as handle:
            handle.write(mutate(dist_text, dist_edits))
        with open(circuit, "w") as handle:
            handle.write(mutate(circuit_text, circuit_edits))
        for argv in (["synth", dist], ["decompose", dist], ["simulate", circuit],
                     ["verify", circuit, dist]):
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2, 3), (argv, err)
            if code >= 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)

    check()
