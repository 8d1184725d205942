"""The example scripts, the README's library example and the benchmark's tracer
still fit the package API."""

import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load(name, directory=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_run(capsys):
    demo = load("exact_synthesis_demo")
    assert demo.main(["--n", "3", "--lower", "--samples", "4"]) == 0
    assert "4 samples:" in capsys.readouterr().out

    sweep = load("dyadic_bound_sweep")
    assert sweep.main(["--trials", "3", "--n-max", "2", "--extra-max", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:] if line]
    assert len(rows) == 4  # n in 1..2, m in n..n+1
    for n, m, bound, worst, _ in rows:
        assert float(worst) <= float(bound), (n, m)


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_benchmark_spans_resolve(monkeypatch):
    # perfbench/run.py --trace 1 wraps each (module, name) of PATCHES when it
    # starts; a name the package no longer has fails that install
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/, write nothing
    spans = load("spans", ROOT / "perfbench")
    assert spans.PATCHES
    for module, name, _ in spans.PATCHES:
        target = getattr(importlib.import_module(f"iqpsynth.{module}"), name, None)
        assert callable(target), f"iqpsynth.{module}.{name}"
    # the spans labelled synth.serialize_circuit and synth.parse_circuit time the codec
    cli = importlib.import_module("iqpsynth.cli")
    for name in ("parse_circuit", "serialize_circuit"):
        assert getattr(cli, name).__module__ == "iqpsynth.circuit", name


def test_benchmark_checks_reject_corruption(monkeypatch):
    # the benchmark's own checks must still accept a correct output and reject
    # a corrupted one; the file puts perfbench/ and src/ on sys.path
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    bench = load("test_checks", ROOT / "perfbench")
    tests = [name for name in vars(bench) if name.startswith("test_")]
    assert len(tests) == 4
    for name in tests:
        getattr(bench, name)()


def test_corpus_gate_names_each_digest_off_its_pin(monkeypatch, capsys):
    corpus = load("synth_corpus")
    monkeypatch.setattr(corpus, "digest_corpus", lambda workdir: ({}, {}, {}, {}, {"k": "v"}))
    monkeypatch.setattr(sys, "argv", ["synth_corpus.py"])
    assert corpus.main_cli() == 1
    printed = capsys.readouterr()
    assert len(printed.out.splitlines()) == len(corpus.PINNED) == 5
    assert printed.err.splitlines() == [f"digest differs from its pin: {label}"
                                        for label in corpus.PINNED]
    # pinned to what this stand-in corpus prints, only the changed line is named
    lines = printed.out.splitlines()
    pins = {label: line.split()[-1] for label, line in zip(corpus.PINNED, lines)}
    pins["gate blocks parsed; gates"] = "0" * 64
    monkeypatch.setattr(corpus, "PINNED", pins)
    assert corpus.main_cli() == 1
    assert capsys.readouterr().err == "digest differs from its pin: gate blocks parsed; gates\n"
    pins["gate blocks parsed; gates"] = printed.out.split()[-1]
    assert corpus.main_cli() == 0
    assert capsys.readouterr().err == ""


def test_corpus_calls_allow_no_stderr_but_the_vacuous_warning(tmp_path):
    corpus = load("synth_corpus")
    dist, circuit = tmp_path / "d.json", tmp_path / "c.txt"
    dist.write_text('{"n": 1, "probs": {"0": 0.5, "1": 0.5}}')
    # m = 0 hidden qubits at n = 1: the bound is 1, and verify warns
    circuit.write_text("# mode: approx\nHEADER m=0 n=1\nPHASE 0 0\nPHASE 1 0\n")
    assert json.loads(corpus._printed(["verify", str(circuit), str(dist)]))["tv_bound"] == 1.0
    with pytest.raises(SystemExit, match="max reconstruction error"):
        corpus._printed(["decompose", str(dist), "--check"])
