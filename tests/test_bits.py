"""Bit-level helpers against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpsynth._bits import (
    TAU,
    canonical_angle,
    canonical_phase,
    parity,
    qubit_cap,
    wht_inplace,
)
from iqpsynth.circuit import parse_circuit, serialize_circuit
from iqpsynth.errors import IqpError
from iqpsynth.synth import GateList

from helpers import oracle_wht


def test_parity_matches_popcount():
    values = np.arange(1 << 10, dtype=np.uint64)
    got = parity(values)
    want = np.array([bin(v).count("1") % 2 for v in range(1 << 10)])
    assert np.array_equal(got, want)


def test_parity_matches_popcount_up_to_63_bits():
    rng = np.random.default_rng(63)
    values = [0, 1, 2**62, 2**63 - 1] + [
        int(v) >> int(s) for v, s in zip(rng.integers(0, 2**63, 2000), rng.integers(0, 63, 2000))
    ]
    got = parity(np.array(values, dtype=np.uint64))
    assert got.tolist() == [bin(v).count("1") & 1 for v in values]


def test_parity_scalar_and_no_aliasing():
    # a 0-d input gives a 0-d result
    assert parity(np.uint64(0)).tolist() == 0
    assert parity(np.uint64(7)).tolist() == 1
    buf = np.array([3, 5], dtype=np.uint64)
    parity(buf)
    assert np.array_equal(buf, np.array([3, 5], dtype=np.uint64))


def test_mask_round_trip_convention():
    # qubit 0 is the most significant bit of a gate mask; qubit lists exist
    # only in the XROT text
    g = GateList(0, 3, 0.0, [0b100, 0b001, 0b101], [0.5, 0.5, 0.5])
    lines = serialize_circuit(gates=g).splitlines()
    assert [line.split()[-1] for line in lines[2:]] == ["q0", "q2", "q0,q2"]
    for total in range(1, 7):
        masks = np.arange(1, 1 << total)
        g = GateList(0, total, 0.0, masks, np.full(masks.size, 0.5))
        parsed = parse_circuit(serialize_circuit(gates=g)).gates
        assert np.array_equal(parsed.masks, masks)


@settings(derandomize=True, max_examples=60)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_wht_matches_oracle(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(1 << n)
    got = wht_inplace(values.copy())
    assert np.allclose(got, oracle_wht(values), atol=1e-9)


@settings(derandomize=True, max_examples=40)
@given(st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_wht_involution(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(1 << n)
    twice = wht_inplace(wht_inplace(values.copy()))
    assert np.allclose(twice, values * (1 << n), atol=1e-9)


def copying_wht(a):
    """Reference transform whose butterflies copy the low half and write
    both halves from the copy; the in-place form must match it bit for bit."""
    k, n = a.shape
    h = 1
    while h < n:
        a = a.reshape(k, -1, 2, h)
        lo = a[:, :, 0, :].copy()
        hi = a[:, :, 1, :]
        a[:, :, 0, :] = lo + hi
        a[:, :, 1, :] = lo - hi
        a = a.reshape(k, n)
        h *= 2
    return a


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_wht_equals_copying_butterflies_bit_for_bit(dtype):
    rng = np.random.default_rng(5)
    for j in range(11):
        for k in (1, 3, 8):
            values = rng.standard_normal((k, 1 << j))
            if dtype is np.complex128:
                values = values + 1j * rng.standard_normal((k, 1 << j))
            got = wht_inplace(values.copy())
            assert got.shape == values.shape and got.dtype == dtype
            assert got.tobytes() == copying_wht(values.copy()).tobytes()


def test_wht_rejects_bad_length():
    with pytest.raises(ValueError):
        wht_inplace(np.zeros(3))


@settings(derandomize=True, max_examples=200)
@given(st.floats(-50.0, 50.0))
def test_canonical_ranges(x):
    (phase,) = canonical_phase(np.array([x]))
    assert 0.0 <= phase < TAU
    (angle,) = canonical_angle(np.array([x]))
    assert -np.pi < angle <= np.pi
    # both represent the same rotation
    (again,) = canonical_phase(np.array([angle]))
    assert abs(again - phase) < 1e-9 or abs(abs(again - phase) - TAU) < 1e-9


def test_canonical_exact_boundaries():
    assert canonical_phase(np.array([TAU, 0.0, -0.0])).tolist() == [0.0, 0.0, 0.0]
    assert canonical_angle(np.array([np.pi, -np.pi, TAU])).tolist() == [np.pi, np.pi, 0.0]


def test_canonical_phase_matches_the_mod_reference_bitwise():
    special = [0.0, -0.0, TAU, np.nextafter(TAU, 0.0), -5e-324, 5e-324, -TAU, 1e308, -1e308]
    rng = np.random.default_rng(11)
    theta = np.concatenate([special, rng.uniform(-20.0, 20.0, 500), rng.uniform(0.0, TAU, 500)])
    before = theta.copy()
    want = np.mod(theta, TAU)
    want = np.where(want == TAU, 0.0, want)
    got = canonical_phase(theta)
    # bit patterns, so that -0.0 and 0.0 differ
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert got[1].tobytes() == np.float64(0.0).tobytes()
    assert theta.tobytes() == before.tobytes() and not np.shares_memory(got, theta)
    inside = theta[-500:]  # no entry to fold, still a fresh array
    got = canonical_phase(inside)
    assert got.tobytes() == inside.tobytes() and not np.shares_memory(got, inside)


def test_qubit_cap_env(monkeypatch):
    monkeypatch.delenv("IQP_MAX_QUBITS", raising=False)
    assert qubit_cap(24) == 24
    monkeypatch.setenv("IQP_MAX_QUBITS", "10")
    assert qubit_cap(24) == 10
    assert qubit_cap(8) == 8
    monkeypatch.setenv("IQP_MAX_QUBITS", "banana")
    with pytest.raises(IqpError, match="IQP_MAX_QUBITS must be an integer, got 'banana'"):
        qubit_cap(24)
