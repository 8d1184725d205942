"""The benchmark's independent checks must reject a wrong output.

    python -m pytest perfbench/test_checks.py     # or: python3 perfbench/test_checks.py

Each test makes a correct output with the CLI at the smallest sizes,
confirms the check accepts it, corrupts it once (a flipped phase, a
dropped gate, a perturbed mixture component), and confirms the check
rejects it.  The repository's own test run does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import iqpsynth.cli  # noqa: E402
from run import dist_json, texture  # noqa: E402

N = 2


def _cli_output(p: np.ndarray, *argv: str) -> str:
    """Run one CLI command on p (the input file is argv's first argument)."""
    with tempfile.TemporaryDirectory() as tmp:
        dist = Path(tmp) / "p.json"
        dist.write_text(dist_json(p))
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()):
            code = iqpsynth.cli.main([argv[0], str(dist), "-o", str(out), *argv[1:]])
        assert code == 0
        return out.read_text()


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


def _input(kind: str = "spiky") -> np.ndarray:
    return texture(kind, N, np.random.default_rng(0))


def test_flipped_phase_is_rejected():
    p = _input()
    text = _cli_output(p, "synth", "--mode", "exact")
    args = (p, "exact", None, True, False)
    checks.check_circuit(checks.read_circuit(text), *args)
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("PHASE "))
    _, bits, angle = lines[k].split()
    lines[k] = f"PHASE {bits} {float(angle) + np.pi!r}"
    assert _rejects(checks.check_circuit, checks.read_circuit("\n".join(lines)), *args)


def test_flipped_approx_phase_is_rejected():
    p = _input("dense")
    text = _cli_output(p, "synth", "--mode", "approx", "--m", "4")
    args = (p, "approx", 4, True, False)
    checks.check_circuit(checks.read_circuit(text), *args)
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("PHASE "))
    _, bits, angle = lines[k].split()
    lines[k] = f"PHASE {bits} {float(angle) + np.pi!r}"
    assert _rejects(checks.check_circuit, checks.read_circuit("\n".join(lines)), *args)


def test_dropped_gate_is_rejected():
    p = _input()
    text = _cli_output(p, "synth", "--mode", "exact", "--format", "gates")
    args = (p, "exact", None, False, True)
    checks.check_circuit(checks.read_circuit(text), *args)
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("XROT "))
    del lines[k]
    assert _rejects(checks.check_circuit, checks.read_circuit("\n".join(lines)), *args)


def test_perturbed_component_is_rejected():
    p = _input()
    text = _cli_output(p, "decompose", "--sparsity", "2")
    assert checks.check_certificate(text, p, 2) == 1 << (N + 1)
    cert = json.loads(text)
    part = next(c["probs"] for c in cert["components"] if len(c["probs"]) == 2)
    first, second = part
    part[first] += 1e-6  # still unit mass and 2-sparse, but the mixture is off
    part[second] -= 1e-6
    assert _rejects(checks.check_certificate, json.dumps(cert), p, 2)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"[PASS] {name}")
