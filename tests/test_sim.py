"""Simulators against dense-matrix oracles, plus sampling."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpsynth import sim
from iqpsynth.errors import InternalError, IqpError, OverCap
from iqpsynth.probdist import validate
from iqpsynth.sim import (
    DEFAULT_SEED,
    iqp_state,
    marginal_full,
    marginal_mixture,
    sample,
    simulate_gates,
)
from iqpsynth.synth import GateList, PhaseTable, gates_to_phases, walsh_lower

from helpers import oracle_hadamard_all, oracle_marginal, oracle_xrot_matrix


def random_table(rng, m, n):
    return PhaseTable(m, n, rng.uniform(0.0, 2.0 * np.pi, 1 << (m + n)))


def test_states_are_read_only_arrays_and_norm_faults_are_bugs(monkeypatch):
    pt = random_table(np.random.default_rng(3), 1, 2)
    for amps in (iqp_state(pt), simulate_gates(walsh_lower(pt))):
        assert isinstance(amps, np.ndarray) and amps.dtype == np.complex128
        assert amps.shape == (8,) and not amps.flags.writeable
    # a kernel that doubles its output gives squared norm 4: a bug, exit 4
    kernel = sim.wht_inplace
    monkeypatch.setattr(sim, "wht_inplace", lambda a: 2.0 * kernel(a))
    with pytest.raises(InternalError, match="squared norm 4.0 is not 1 within 1e-12"):
        iqp_state(pt)
    monkeypatch.setattr(sim, "_NORM_TOL", -1.0)  # no squared norm is within a negative tolerance
    with pytest.raises(InternalError, match="squared norm 1.0 is not 1"):
        simulate_gates(GateList(0, 1, 0.0, [], []))


def test_hadamard_layer_undoes_trivial_diagonal():
    # H, identity diagonal, H returns the all-zeros state
    out = iqp_state(PhaseTable(1, 2, np.zeros(8)))
    want = np.zeros(8, dtype=np.complex128)
    want[0] = 1.0
    assert np.abs(out - want).max() <= 1e-15


def test_hadamard_layer_single_qubit_convention():
    # qubit 0 is the most significant bit of the index: the parity phases
    # pi * (x_0 + x_1) over 3 qubits send |000> to |110>, index 6
    x = np.arange(8)
    out = iqp_state(PhaseTable(0, 3, np.pi * ((x >> 2 & 1) ^ (x >> 1 & 1))))
    want = np.zeros(8, dtype=np.complex128)
    want[0b110] = 1.0
    assert np.abs(out - want).max() <= 1e-15


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_hadamard_layer_matches_kron_oracle(m, n, seed):
    rng = np.random.default_rng(seed)
    pt = random_table(rng, m, n)
    q = m + n
    diagonal = np.exp(1j * pt.theta) * 2.0 ** (-0.5 * q)
    want = oracle_hadamard_all(diagonal, q)
    assert np.abs(iqp_state(pt) - want).max() <= 1e-12


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_marginals_match_each_other_and_oracle(m, n, seed):
    rng = np.random.default_rng(seed)
    pt = random_table(rng, m, n)
    dense = marginal_full(pt)
    mixed = marginal_mixture(pt)
    assert np.abs(dense.probs - mixed.probs).max() <= 1e-12
    assert np.abs(dense.probs - oracle_marginal(pt.theta, m, n)).max() <= 1e-12


def test_mixture_chunking_boundaries(monkeypatch):
    # force tiny chunks so the accumulation loop runs many times
    import iqpsynth.sim as sim

    rng = np.random.default_rng(7)
    pt = random_table(rng, 4, 2)
    whole = marginal_mixture(pt)
    monkeypatch.setattr(sim, "CHUNK_ENTRIES", 4)
    chunked = marginal_mixture(pt)
    assert np.array_equal(whole.probs, chunked.probs) or (
        np.abs(whole.probs - chunked.probs).max() <= 1e-15
    )


def test_simulate_gates_frozen_single_rotation():
    g = GateList(0, 1, 0.0, [1], [np.pi / 2])
    out = simulate_gates(g)
    assert abs(out[0]) <= 1e-15
    assert abs(out[1] - 1j) <= 1e-15


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_simulate_gates_matches_matrix_oracle(q, seed):
    rng = np.random.default_rng(seed)
    supports = [
        tuple(sorted(rng.choice(q, size=rng.integers(1, q + 1), replace=False)))
        for _ in range(3)
    ]
    supports = list(dict.fromkeys(supports))
    masks = [sum(1 << (q - 1 - int(i)) for i in support) for support in supports]
    angles = rng.uniform(-np.pi, np.pi, len(supports))
    g = GateList(0, q, float(rng.uniform(-np.pi, np.pi)), masks, angles)
    got = simulate_gates(g)
    amps = np.zeros(1 << q, dtype=np.complex128)
    amps[0] = 1.0
    for support, angle in zip(supports, g.angles.tolist()):
        amps = oracle_xrot_matrix(support, angle, q) @ amps
    amps *= np.exp(1j * g.global_phase)
    assert np.abs(got - amps).max() <= 1e-12


def test_simulate_gates_rescales_rounding_drift():
    # every support of 13 qubits at one angle: per-gate rounding drifts the
    # squared norm about 1.2e-12 from 1, past the 1e-12 that iqp_state allows
    q = 13
    g = GateList(0, q, 0.0, np.arange(1, 1 << q), np.full((1 << q) - 1, 0.560257))
    got = simulate_gates(g)
    want = iqp_state(gates_to_phases(g))
    assert np.abs(got - want).max() <= 1e-9


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_gate_order_is_irrelevant(m, n, seed):
    rng = np.random.default_rng(seed)
    pt = random_table(rng, m, n)
    g = walsh_lower(pt)
    if len(g) < 2:
        return
    order = list(range(len(g)))
    random.Random(seed).shuffle(order)
    h = GateList(g.m, g.n, g.global_phase, g.masks[order], g.angles[order])
    assert np.abs(simulate_gates(g) - simulate_gates(h)).max() <= 1e-12


def test_qubit_caps(monkeypatch):
    monkeypatch.setenv("IQP_MAX_QUBITS", "2")
    with pytest.raises(OverCap, match="dense state needs 3 qubits, cap is 2"):
        iqp_state(PhaseTable(2, 1, np.zeros(8)))
    with pytest.raises(OverCap, match="mixture walk needs 3 qubits, cap is 2"):
        marginal_mixture(PhaseTable(2, 1, np.zeros(8)))
    with pytest.raises(OverCap, match="gate simulation needs 3 qubits, cap is 2"):
        simulate_gates(GateList(1, 2, 0.0, [], []))
    monkeypatch.delenv("IQP_MAX_QUBITS")
    marginal_mixture(PhaseTable(2, 1, np.zeros(8)))


def test_sample_deterministic_and_supported():
    p = validate([0.0, 0.25, 0.75, 0.0], 2)
    a = sample(p, 200)
    b = sample(p, 200, seed=DEFAULT_SEED)
    assert a == b
    assert set(a) <= {"01", "10"}
    assert sample(p, 0) == []
    c = sample(p, 200, seed=1)
    assert a != c
    assert sample(p, np.int64(200), np.uint8(1)) == c  # numpy integers are integers


@pytest.mark.parametrize("count, seed, message", [
    (2, -1, "--seed must be nonnegative"),
    (2, 1.5, "--seed must be an integer"),
    (-1, 0, "--samples must be nonnegative"),
    (1.5, 0, "--samples must be an integer"),
    (math.nan, 0, "--samples must be an integer"),
    (True, 0, "--samples must be an integer"),  # a bool is not a count
    (2, False, "--seed must be an integer"),
    (-1, -1, "--samples must be nonnegative"),  # the count first, as simulate checks it
])
def test_sample_refuses_bad_count_or_seed(count, seed, message):
    with pytest.raises(IqpError, match=f"^{message}$"):
        sample(validate([0.5, 0.5], 1), count, seed)


def test_sample_frozen_counts():
    # regression pin for the default generator stream
    p = validate([0.5, 0.5], 1)
    draws = sample(p, 20)
    assert draws == [
        "1", "0", "0", "0", "1", "1", "1", "1", "1", "1",
        "1", "0", "1", "0", "1", "0", "1", "1", "0", "0",
    ]


def test_sample_large_run_frequencies():
    draws = sample(validate([0.5, 0.5], 1), 100_000)
    zeros = draws.count("0")
    assert zeros == 50_098  # realized count for the default seed
    assert abs(zeros / 100_000 - 0.5) < 0.01


def test_sample_never_emits_zero_mass_outcomes():
    p = validate([1.0, 0.0], 1)
    assert sample(p, 50) == ["0"] * 50


def test_sample_rejects_negative_count():
    with pytest.raises(IqpError, match="--samples must be nonnegative"):
        sample(validate([1.0], 0), -1)


def test_sample_refuses_counts_over_the_cap_before_drawing(monkeypatch):
    # numpy would fail on these only after trying to allocate the draws
    def no_draws(seed):
        raise AssertionError("the count must be refused before any draw")

    p = validate([0.5, 0.5], 1)
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for count in (sim.SAMPLES_MAX + 1, 10**14, 10**23):
        message = f"--samples {count} is over the cap of {sim.SAMPLES_MAX}"
        with pytest.raises(OverCap, match=message):
            sample(p, count)
    with pytest.raises(IqpError, match="--samples must be nonnegative") as info:
        sample(p, -1)
    assert type(info.value) is IqpError
    monkeypatch.undo()
    monkeypatch.setattr(sim, "SAMPLES_MAX", 8)  # the cap itself is drawn
    assert len(sample(p, 8)) == 8
    with pytest.raises(OverCap, match="--samples 9 is over the cap of 8"):
        sample(p, 9)
