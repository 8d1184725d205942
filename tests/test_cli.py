"""Command-line behavior: exit codes, file formats, determinism."""

import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest

from iqpsynth import cli, synth
from iqpsynth.cli import main
from iqpsynth.probdist import ProbVector, parse_dist, serialize_dist, validate


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
    code, _, _ = run(capsys, "synth", dist_file, "-o", circuit, "--mode", "approx", "--m", "5")
    assert code == 0
    code, out, _ = run(capsys, "verify", circuit, dist_file, "-o", report_path)
    assert code == 0
    report = json.loads(out)
    assert list(report) == [
        "mode", "n", "m", "tv_realized", "tv_bound", "passed", "timings_ms",
    ]
    assert report["mode"] == "approx"
    assert report["tv_bound"] == 0.5 * 2.0 ** (2 - 5)
    assert report["tv_realized"] <= report["tv_bound"]
    on_disk = json.loads(open(report_path).read())
    assert on_disk["passed"] is True


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


def test_verify_mode_flag_overrides_annotation(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit, "--mode", "approx", "--m", "4")
    code, out, _ = run(capsys, "verify", circuit, dist_file, "--mode", "exact")
    assert code == 1  # dyadic error far exceeds the exact tolerance
    assert json.loads(out)["mode"] == "exact"


def test_verify_infers_mode_without_annotation(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "c.txt")
    run(capsys, "synth", dist_file, "-o", circuit, "--mode", "approx", "--m", "4")
    lines = [
        line
        for line in open(circuit).read().splitlines()
        if not line.startswith("# mode:")
    ]
    stripped = str(tmp_path / "anon.txt")
    with open(stripped, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", stripped, dist_file)
    assert code == 0
    assert json.loads(out)["mode"] == "approx"


def test_gates_format_round_trips_through_verify(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "g.txt")
    code, _, _ = run(capsys, "synth", dist_file, "-o", circuit, "--format", "gates")
    assert code == 0
    text = open(circuit).read()
    assert "GLOBALPHASE" in text and "XROT" in text
    assert not any(line.startswith("PHASE") for line in text.splitlines())
    code, out, _ = run(capsys, "verify", circuit, dist_file)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["gate_count"] >= 1


def test_lower_flag_emits_both_blocks(dist_file, tmp_path, capsys):
    circuit = str(tmp_path / "b.txt")
    run(capsys, "synth", dist_file, "-o", circuit, "--lower")
    text = open(circuit).read()
    assert "XROT" in text and "PHASE" in text


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
    target = parse_dist(open(dist_file).read())
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
    for count in (10**14, 10**23, cli.SAMPLES_MAX + 1):
        code, out, err = run(capsys, "simulate", circuit, "--samples", str(count))
        assert code == 3 and out == ""
        assert err == f"error: --samples {count} is over the cap of {cli.SAMPLES_MAX}\n"
    assert drawn == []
    code, out, _ = run(capsys, "simulate", circuit, "--samples", str(cli.SAMPLES_MAX))
    assert code == 0 and len(out.splitlines()) == 4
    assert drawn == [cli.SAMPLES_MAX]


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
    plain = synth._CircuitReader._plain
    counts = []

    def spy(reader, *args):
        counts.append(plain(reader, *args))
        return counts[-1]

    gates = []
    for form in ([], ["--format", "gates"], ["--lower"]):
        code, text, _ = run(capsys, "synth", str(dist), *flags, *form)
        assert code == 0
        counts.clear()
        with mock.patch.object(synth._CircuitReader, "_plain", spy):
            circ = synth.parse_circuit(text)
        runs = sum(line.startswith(("PHASE ", "XROT ")) for line in text.splitlines())
        assert None not in counts and sum(counts) == runs
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
    cert = json.loads(open(cert_path).read())
    assert cert["n"] == 2
    assert len(cert["components"]) == 8
    mix = np.zeros(4)
    for comp in cert["components"]:
        assert len(comp["probs"]) <= 2
        for bits, value in comp["probs"].items():
            mix[int(bits, 2)] += comp["weight"] * value
    target = parse_dist(open(dist_file).read())
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

    for name in ("exact_phase_table", "round_to_dyadic", "build_multiplicity_map"):
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
