"""Acceptance suite: the eight checks this package must pass, with budgets.

Each criterion is one test that prints a single [PASS]/[FAIL] line with its
worst observed metric and runtime.  The file also runs standalone:

    python3 tests/test_acceptance.py
"""

import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
import time

import numpy as np

from iqpsynth.cli import main
from iqpsynth.decompose import (
    allocate_3sparse,
    build_multiplicity_map,
    decompose_2sparse,
    round_to_dyadic,
    rows_to_dists,
)
from iqpsynth.probdist import serialize_dist, tv_distance, validate
from iqpsynth.sim import (
    StateVector,
    iqp_state,
    marginal_full,
    marginal_mixture,
    simulate_gates,
)
from iqpsynth.synth import (
    GateList,
    PhaseTable,
    approx_phase_table,
    exact_phase_table,
    gates_to_phases,
    uma_phases_for_pair,
    walsh_lower,
)

from helpers import allocation_sums, is_uma, random_dist


def announce(k: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {k}: {detail}")
    return ok


def run_cli(*argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def test_criterion_1_exact_cli_round_trip():
    budget = 10.0
    # process CPU time, which other processes on a loaded host do not inflate
    start = time.process_time()
    rng = np.random.default_rng(101)
    worst_tv = 0.0
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        dist_path = os.path.join(tmp, "d.json")
        circ_path = os.path.join(tmp, "c.txt")
        for n in (1, 2, 3):
            for _ in range(200):
                p = validate(random_dist(rng, n), n)
                with open(dist_path, "w") as handle:
                    handle.write(serialize_dist(p))
                code, _ = run_cli("synth", dist_path, "-o", circ_path)
                assert code == 0
                code, out = run_cli("verify", circ_path, dist_path)
                report = json.loads(out)
                assert code == 0 and report["passed"] is True
                assert report["tv_realized"] <= 1e-9
                worst_tv = max(worst_tv, report["tv_realized"])
                runs += 1
    elapsed = time.process_time() - start
    ok = runs == 600 and worst_tv <= 1e-9 and elapsed < budget
    assert announce(
        1, ok, f"{runs} exact synth+verify round trips, worst tv "
        f"{worst_tv:.2e}, {elapsed:.1f}s of {budget:.0f}s"
    )


def test_criterion_2_dyadic_bound_and_realization():
    budget = 30.0
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_slack = math.inf
    worst_realize = 0.0
    runs = 0
    for n in (1, 2, 3, 4):
        for m in range(n, n + 7):
            bound = 0.5 * 2.0 ** (n - m)
            for _ in range(100):
                p = validate(random_dist(rng, n), n)
                q = round_to_dyadic(p, m)
                gap = tv_distance(p, q)
                assert gap <= bound
                pt = approx_phase_table(build_multiplicity_map(q, m), n)
                realized = tv_distance(marginal_mixture(pt), q)
                assert realized <= 1e-12
                worst_slack = min(worst_slack, bound - gap)
                worst_realize = max(worst_realize, realized)
                runs += 1
    elapsed = time.perf_counter() - start
    ok = runs == 2800 and elapsed < budget
    assert announce(
        2, ok, f"{runs} roundings within bound (min slack {worst_slack:.2e}), "
        f"marginal off dyadic target by <= {worst_realize:.2e}, "
        f"{elapsed:.1f}s of {budget:.0f}s"
    )


def test_criterion_3_allocation_invariants():
    budget = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_row = 0.0
    worst_col = 0.0
    runs = 0
    for i in range(500):
        n = 1 + i % 8  # N cycles over 2..256
        p = validate(random_dist(rng, n), n)
        cols, vals = allocate_3sparse(p)
        assert cols.shape == (1 << n, 3)
        assert len(rows_to_dists((cols, vals))) == 1 << n  # entries laid out as Mixture checks
        row_sums, column_sums = allocation_sums(cols, vals)
        row_err = float(np.abs(row_sums - 1.0 / (1 << n)).max())
        col_err = float(np.abs(column_sums - p.probs).max())
        assert row_err <= 1e-12 and col_err <= 1e-12
        worst_row = max(worst_row, row_err)
        worst_col = max(worst_col, col_err)
        runs += 1
    elapsed = time.perf_counter() - start
    ok = runs == 500 and elapsed < budget
    assert announce(
        3, ok, f"{runs} allocations up to N=256, row sums off by <= "
        f"{worst_row:.2e}, column sums by <= {worst_col:.2e}, "
        f"{elapsed:.1f}s of {budget:.0f}s"
    )


def test_criterion_4_two_sparse_decomposition():
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    runs = 0
    for i in range(500):
        n = i % 7  # up to n=6
        p = validate(random_dist(rng, n), n)
        parts = decompose_2sparse(p)
        assert len(parts) == 1 << (n + 1)
        assert parts.sparsity.max() <= 2
        mixed = np.zeros(1 << n)
        for cols, masses in zip(parts.cols.tolist(), parts.masses.tolist()):
            for j, v in zip(cols, masses):
                if j >= 0:
                    mixed[j] += v
        mixed /= len(parts)
        err = float(np.abs(mixed - p.probs).max())
        assert err <= 1e-12
        worst = max(worst, err)
        runs += 1
    elapsed = time.perf_counter() - start
    ok = runs == 500 and elapsed < budget
    assert announce(
        4, ok, f"{runs} decompositions into 2**(n+1) parts, reconstruction "
        f"error <= {worst:.2e}, {elapsed:.1f}s of {budget:.0f}s"
    )


def _measure_row(row) -> np.ndarray:
    return np.abs(iqp_state(row).amps) ** 2


def test_criterion_5_two_outcome_rows():
    rng = np.random.default_rng(505)
    worst_off = 0.0
    worst_mass = 0.0
    runs = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        b1 = int(rng.integers(1 << n))
        b2 = int(rng.integers(1 << n))
        mass = float(rng.random())
        row = uma_phases_for_pair(b1, b2, mass, n)
        assert is_uma(StateVector(n, np.exp(1j * row.theta) * 2.0 ** (-0.5 * n)).amps)
        probs = _measure_row(row)
        off = sum(p for b, p in enumerate(probs) if b not in (b1, b2))
        mass_err = abs(probs[b1] - (1.0 if b1 == b2 else mass))
        assert off <= 1e-12 and mass_err <= 1e-12
        worst_off = max(worst_off, off)
        worst_mass = max(worst_mass, mass_err)
        runs += 1
    ok = runs == 1000
    assert announce(
        5, ok, f"{runs} two-outcome rows, off-support leakage <= "
        f"{worst_off:.2e}, encoded-mass error <= {worst_mass:.2e}"
    )


def test_criterion_6_marginal_paths_agree():
    budget = 20.0
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    worst = 0.0
    runs = 0
    for _ in range(1000):
        total = int(rng.integers(0, 9))
        m = int(rng.integers(0, total + 1))
        n = total - m
        pt = PhaseTable(m, n, rng.uniform(0.0, 2.0 * np.pi, 1 << total))
        gap = float(
            np.abs(marginal_full(pt).probs - marginal_mixture(pt).probs).max()
        )
        assert gap <= 1e-12
        worst = max(worst, gap)
        runs += 1
    elapsed = time.perf_counter() - start
    ok = runs == 1000 and elapsed < budget
    assert announce(
        6, ok, f"{runs} tables with m+n <= 8, dense and mixture marginals "
        f"within {worst:.2e}, {elapsed:.1f}s of {budget:.0f}s"
    )


def test_criterion_7_gate_paths():
    budget = 20.0
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    shuffler = random.Random(707)
    worst_overlap = 1.0
    worst_shuffle = 0.0
    worst_round = 0.0
    runs = 0
    for _ in range(200):
        total = int(rng.integers(1, 7))
        m = int(rng.integers(0, total + 1))
        n = total - m
        pt = PhaseTable(m, n, rng.uniform(0.0, 2.0 * np.pi, 1 << total))
        g = walsh_lower(pt)
        reference = iqp_state(pt)
        from_gates = simulate_gates(g)
        overlap = abs(complex(np.vdot(reference.amps, from_gates.amps)))
        assert overlap >= 1.0 - 1e-9
        order = list(range(len(g)))
        shuffler.shuffle(order)
        reordered = simulate_gates(
            GateList(m, n, g.global_phase, g.masks[order], g.angles[order])
        )
        shuffle_gap = float(np.abs(reordered.amps - from_gates.amps).max())
        assert shuffle_gap <= 1e-12
        back = gates_to_phases(g)
        delta = np.abs(back.theta - pt.theta)
        round_gap = float(np.minimum(delta, 2.0 * np.pi - delta).max())
        assert round_gap <= 1e-9
        worst_overlap = min(worst_overlap, overlap)
        worst_shuffle = max(worst_shuffle, shuffle_gap)
        worst_round = max(worst_round, round_gap)
        runs += 1
    elapsed = time.perf_counter() - start
    ok = runs == 200 and elapsed < budget
    assert announce(
        7, ok, f"{runs} lowered circuits, overlap >= {worst_overlap:.12f}, "
        f"order invariance <= {worst_shuffle:.2e}, phase round trip <= "
        f"{worst_round:.2e}, {elapsed:.1f}s of {budget:.0f}s"
    )


def test_criterion_8_degenerate_inputs():
    checks = 0
    with tempfile.TemporaryDirectory() as tmp:
        dist_path = os.path.join(tmp, "d.json")
        circ_path = os.path.join(tmp, "c.txt")

        def exact_cli(p):
            with open(dist_path, "w") as handle:
                handle.write(serialize_dist(p))
            code, _ = run_cli("synth", dist_path, "-o", circ_path)
            assert code == 0
            code, out = run_cli("verify", circ_path, dist_path)
            assert code == 0 and json.loads(out)["passed"] is True

        cases = []
        for n in (1, 2, 3, 4):
            size = 1 << n
            for j in (0, size - 1):
                point = np.zeros(size)
                point[j] = 1.0
                cases.append((n, point))  # point masses
            cases.append((n, np.full(size, 1.0 / size)))  # uniform
            gappy = np.zeros(size)
            gappy[0] = 0.5
            gappy[size - 1] = 0.5
            cases.append((n, gappy))  # exact zeros inside the support
        cases.append((0, np.array([1.0])))  # single-outcome space

        for n, raw in cases:
            p = validate(raw, n)
            exact_cli(p)
            row_sums, column_sums = allocation_sums(*allocate_3sparse(p))
            assert np.abs(row_sums - 1.0 / len(p)).max() <= 1e-12
            assert np.abs(column_sums - p.probs).max() <= 1e-12
            parts = decompose_2sparse(p)
            assert parts.sparsity.max() <= 2
            # these inputs sit on the grid already
            assert np.array_equal(round_to_dyadic(p, n + 2).probs, p.probs)
            assert tv_distance(marginal_mixture(exact_phase_table(p)), p) <= 1e-9
            checks += 1

        # rounding with nothing to hand out vs a forced surplus: the floors
        # (2, 5) of (2.4, 5.6) leave one unit for the larger fraction
        p = validate([0.3, 0.7], 1)
        assert round_to_dyadic(p, 3).probs.tolist() == [0.25, 0.75]
        checks += 1

        # single-outcome rows claim the whole mass whatever was asked
        for n in (1, 2, 3, 4):
            row = uma_phases_for_pair(n % 2, n % 2, 0.37, n)
            probs = _measure_row(row)
            assert abs(probs[n % 2] - 1.0) <= 1e-12
            checks += 1
    ok = checks == 22
    assert announce(
        8, ok, f"{checks} degenerate cases (point masses, uniform, interior "
        "zeros, on-grid roundings, single-outcome rows) all verified"
    )


def _standalone() -> int:
    tests = [
        (name, fn)
        for name, fn in sorted(globals().items())
        if name.startswith("test_criterion_")
    ]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError:
            failures += 1
        except Exception as exc:  # a crash is a failure with a reason
            failures += 1
            print(f"[FAIL] {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failures}/{len(tests)} criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_standalone())
