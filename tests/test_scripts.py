"""The example scripts still run against the package API."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
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
