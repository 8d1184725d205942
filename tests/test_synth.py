"""Phase-table synthesis, gate lowering, and the circuit file format."""

import ast
import math
import re
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iqpsynth import circuit, synth
from iqpsynth._bits import canonical_phase, parity
from iqpsynth.circuit import parse_circuit, serialize_circuit
from iqpsynth.decompose import (
    build_multiplicity_map,
    decompose_2sparse,
    round_to_dyadic,
)
from iqpsynth.errors import IqpError, OverCap
from iqpsynth.probdist import format_float, tv_distance, validate
from iqpsynth.sim import iqp_state, marginal_mixture, simulate_gates
from iqpsynth.synth import (
    GateList,
    PhaseTable,
    approx_phase_table,
    exact_phase_table,
    gates_to_phases,
    row_table,
    walsh_lower,
)

from helpers import is_uma, random_dist


def measured(row):
    return np.abs(iqp_state(row)) ** 2


def test_uma_frozen_half_half():
    row = row_table(1, [0], [1], 0.5)
    assert row.m == 0 and row.n == 1
    assert np.allclose(row.theta, [0.0, np.pi / 2], atol=1e-15)
    assert abs(row.theta[1] - np.pi / 2) < 1e-15  # theta_star of the row
    probs = measured(row)
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)


def test_uma_degenerate_pair_takes_all_mass():
    row = row_table(2, [3], [3], 0.25)
    # theta_star is 0: the row is the parity pattern of 3, as at mass 1
    assert np.array_equal(row.theta, np.pi * parity(3 & np.arange(4)))
    assert np.array_equal(row.theta, row_table(2, [3], [3], 1.0).theta)
    probs = measured(row)
    assert abs(probs[3] - 1.0) <= 1e-12


def test_uma_extreme_masses():
    lo = measured(row_table(2, [1], [2], 0.0))
    assert abs(lo[2] - 1.0) <= 1e-12 and lo[1] <= 1e-12
    hi = measured(row_table(2, [1], [2], 1.0))
    assert abs(hi[1] - 1.0) <= 1e-12 and hi[2] <= 1e-12


def test_uma_validation():
    outside = r"row labels must lie in \[0, 2\*\*2\)"
    shapes = r"expected 2\*\*m labels in b1 and b2"
    for call, message in (
        (lambda: row_table(2, [4], [0], 0.5), outside),
        (lambda: row_table(2, [0], [-1], 0.5), outside),
        (lambda: row_table(2, [0], [1], 1.5), r"mass 1.5 outside \[0, 1\]"),
        (lambda: row_table(2, [0, 1], [1, 0], [0.5, float("nan")]), r"mass nan outside \[0, 1\]"),
        (lambda: row_table(2, [0, 1, 2], [1, 2, 3], 0.5), shapes),
        (lambda: row_table(2, [0, 1], [1], 0.5), shapes),
        (lambda: row_table(2, [[0, 1]], [[1, 0]], 0.5), shapes),
        (lambda: row_table(2, [0.0], [1], 0.5), outside),
        (lambda: row_table(2, [0, 1], [1, 0], [0.5, 0.5, 0.5]),
         r"expected one mass or 2 masses, got shape \(3,\)"),
    ):
        with pytest.raises(IqpError, match=message):
            call()
    # a mass is read only where b1 != b2; dust beyond the boundary is clamped
    assert row_table(2, [3, 0], [3, 1], [float("nan"), 0.5]).m == 1
    clamped = row_table(2, [0], [1], 1.0 + 1e-13)
    assert np.array_equal(clamped.theta, row_table(2, [0], [1], 1.0).theta)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, (1 << n) - 1),
            st.integers(0, (1 << n) - 1),
            st.floats(0.0, 1.0, allow_nan=False),
        )
    )
)
def test_uma_support_and_mass(args):
    n, b1, b2, mass = args
    row = row_table(n, [b1], [b2], mass)
    assert is_uma(np.exp(1j * row.theta) * 2.0 ** (-0.5 * n), tol=1e-12)
    probs = measured(row)
    off = [p for b, p in enumerate(probs) if b not in (b1, b2)]
    assert max(off, default=0.0) <= 1e-12
    assert abs(probs[b1] - (1.0 if b1 == b2 else mass)) <= 1e-12


def test_exact_table_shape_and_marginal():
    p = validate([0.1, 0.1, 0.3, 0.5], 2)
    pt = exact_phase_table(p)
    assert pt.m == p.n + 1 and pt.n == p.n
    assert tv_distance(marginal_mixture(pt), p) <= 1e-9


def test_exact_table_point_mass_is_all_zero():
    # every mixture component is the same point mass, so every row is flat
    pt = exact_phase_table(validate([1.0, 0.0, 0.0, 0.0], 2))
    assert not pt.theta.any()


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_exact_table_property(n, seed):
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    pt = exact_phase_table(p)
    # every hidden row should land on at most two visible outcomes
    for row in pt.theta.reshape(1 << pt.m, 1 << n):
        assert np.sum(measured(PhaseTable(0, n, row)) > 1e-12) <= 2
    assert tv_distance(marginal_mixture(pt), p) <= 1e-12


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(n, n + 5), st.integers(0, 2**32 - 1)
        )
    )
)
def test_approx_table_hits_dyadic_target(args):
    n, m, seed = args
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    q = round_to_dyadic(p, m)
    pt = approx_phase_table(build_multiplicity_map(q, m), n)
    assert pt.m == m and pt.n == n
    # parity tables only ever use phases 0 and pi
    assert np.all((pt.theta == 0.0) | (pt.theta == np.pi))
    assert tv_distance(marginal_mixture(pt), q) <= 1e-12
    assert tv_distance(marginal_mixture(pt), p) <= 0.5 * 2.0 ** (n - m)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_tables_match_single_row_encoding_bit_for_bit(n, extra, seed):
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    rows = exact_phase_table(p).theta.reshape(1 << (n + 1), 1 << n)
    parts = decompose_2sparse(p)
    y = np.arange(1 << n)
    for j, (cols, masses) in enumerate(zip(parts.cols.tolist(), parts.masses.tolist())):
        b1, mass = cols[0], masses[0]
        b2 = max(cols)
        row = row_table(n, [b1], [b2], mass)
        assert np.array_equal(rows[j], row.theta)
        if b1 != b2:
            # math.acos, not np.arccos: the two differ in the last bit
            theta_star = 2.0 * math.acos(math.sqrt(min(mass, 1.0)))
            formula = np.pi * parity(b1 & y) + theta_star * parity((b1 ^ b2) & y)
            assert np.array_equal(row.theta, canonical_phase(formula))
    m = n + extra
    v = build_multiplicity_map(round_to_dyadic(p, m), m)
    approx = approx_phase_table(v, n).theta.reshape(1 << m, 1 << n)
    for j, label in enumerate(v.tolist()):
        assert np.array_equal(approx[j], np.pi * parity(label & y))


def test_approx_table_needs_power_of_two_labels():
    with pytest.raises(IqpError, match=r"expected 2\*\*m labels in b1 and b2, got shapes \(3,\)"):
        approx_phase_table(np.array([0, 1, 1]), 1)
    assert approx_phase_table(np.array([0, 1, 1, 1]), 1).m == 2


def test_phase_table_canonicalizes():
    pt = PhaseTable(0, 1, [2.0 * np.pi, -np.pi])
    assert pt.theta.tolist() == [0.0, np.pi]
    with pytest.raises(IqpError, match="expected 2 phases, got 3"):
        PhaseTable(0, 1, [0.0, 0.0, 0.0])
    with pytest.raises(IqpError, match="phases must be finite"):
        PhaseTable(0, 1, [np.inf, 0.0])


def test_phase_table_leaves_caller_array():
    theta = np.array([7.0, -1.0, 0.5, 2.0 * np.pi])
    pt = PhaseTable(1, 1, theta)
    assert theta.tolist() == [7.0, -1.0, 0.5, 2.0 * np.pi]
    assert theta.flags.writeable and not pt.theta.flags.writeable
    assert not np.shares_memory(theta, pt.theta)


def test_gatelist_validation():
    outside = r"gate masks must lie in \(0, 2\*\*2\)"
    shapes = "gate masks and angles must be 1-D and of one length"
    # a zero mask is an empty support
    with pytest.raises(IqpError, match="gate supports must be nonempty"):
        GateList(0, 2, 0.0, [0], [0.5])
    with pytest.raises(IqpError, match="duplicate gate support"):
        GateList(0, 2, 0.0, [0b10, 0b01, 0b10], [0.5, 0.25, 0.125])
    with pytest.raises(IqpError, match=outside):
        GateList(0, 2, 0.0, [0b100], [0.5])
    with pytest.raises(IqpError, match=outside):
        GateList(0, 2, 0.0, [-1], [0.5])
    for m, n in ((-1, 2), (2, -1)):
        with pytest.raises(IqpError, match="qubit count must be a nonnegative integer, got -1"):
            GateList(m, n, 0.0, [], [])
    assert len(GateList(0, 2, 0.0, [], [])) == 0  # empty lists are read as floats
    with pytest.raises(IqpError, match="global phase must be finite"):
        GateList(0, 2, float("inf"), [], [])
    with pytest.raises(IqpError, match="gate angles must be finite"):
        GateList(0, 2, 0.0, [0b01, 0b10], [0.5, float("nan")])
    with pytest.raises(IqpError, match=shapes):
        GateList(0, 2, 0.0, [0b01, 0b10], [0.5])
    with pytest.raises(IqpError, match=shapes):
        GateList(0, 2, 0.0, [[0b01, 0b10]], [[0.5, 0.25]])


def test_gate_masks_past_int64_are_refused():
    # masks are int64: a wider support is a bad gate list, not an OverflowError
    with pytest.raises(IqpError, match=r"gate masks must lie in \(0, 2\*\*70\)"):
        GateList(0, 70, 0.0, [2**65], [0.5])


def test_array_dataclasses_compare_by_identity():
    # a field-wise == over arrays would raise; these compare as objects
    p = validate([0.1, 0.1, 0.3, 0.5], 2)
    makers = (
        lambda: GateList(0, 2, 0.0, [1, 2], [0.5, 0.5]),
        lambda: PhaseTable(1, 1, [0.0, 1.0, 2.0, 3.0]),
        lambda: decompose_2sparse(p),
    )
    for make in makers:
        first, second = make(), make()
        assert (first == second) is False and (first != second) is True
        assert (first == first) is True


def test_gatelist_canonicalizes_angles():
    g = GateList(0, 1, 0.0, [1], [7.0])
    assert abs(g.angles[0] - (7.0 - 2.0 * np.pi)) < 1e-15
    assert GateList(0, 1, 0.0, [1], [-np.pi]).angles[0] == np.pi
    assert not (g.masks.flags.writeable or g.angles.flags.writeable)
    # equivalent angles drive identical simulations
    h = GateList(0, 1, 0.0, [1], [7.0 - 2.0 * np.pi])
    assert np.array_equal(simulate_gates(g), simulate_gates(h))


def test_walsh_frozen_single_qubit():
    pt = PhaseTable(0, 1, [0.0, np.pi])
    g = walsh_lower(pt)
    assert abs(g.global_phase - np.pi / 2) < 1e-15
    assert len(g) == 1
    assert g.masks.tolist() == [1] and abs(g.angles[0] + np.pi / 2) < 1e-15


def test_gates_to_phases_frozen_single_qubit():
    g = GateList(0, 1, np.pi / 2, [1], [np.pi / 2])
    pt = gates_to_phases(g)
    assert np.allclose(pt.theta, [np.pi, 0.0], atol=1e-15)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_walsh_round_trip(m, n, seed):
    rng = np.random.default_rng(seed)
    pt = PhaseTable(m, n, rng.uniform(0.0, 2.0 * np.pi, 1 << (m + n)))
    g = walsh_lower(pt)
    assert len(g) <= (1 << (m + n)) - 1
    back = gates_to_phases(g)
    assert (g.m, g.n, back.m, back.n) == (m, n, m, n)
    delta = np.abs(back.theta - pt.theta)
    delta = np.minimum(delta, 2.0 * np.pi - delta)
    assert delta.max() <= 1e-9


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_walsh_is_linear(m, n, seed):
    # entries below pi keep the entrywise sum free of mod-2pi wraparound
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, np.pi, 1 << (m + n))
    b = rng.uniform(0.0, np.pi, 1 << (m + n))
    g_sum = walsh_lower(PhaseTable(m, n, a + b))
    g_a = walsh_lower(PhaseTable(m, n, a))
    g_b = walsh_lower(PhaseTable(m, n, b))
    merged = {}
    for g in (g_a, g_b):
        for mask, angle in zip(g.masks.tolist(), g.angles.tolist()):
            merged[mask] = merged.get(mask, 0.0) + angle
    summed = dict(zip(g_sum.masks.tolist(), g_sum.angles.tolist()))
    for mask in merged.keys() | summed.keys():
        d = abs(merged.get(mask, 0.0) - summed.get(mask, 0.0)) % (2.0 * np.pi)
        assert min(d, 2.0 * np.pi - d) <= 1e-9
    d = abs((g_a.global_phase + g_b.global_phase) - g_sum.global_phase)
    d %= 2.0 * np.pi
    assert min(d, 2.0 * np.pi - d) <= 1e-9


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_gate_path_equals_table_path(m, n, seed):
    rng = np.random.default_rng(seed)
    pt = PhaseTable(m, n, rng.uniform(0.0, 2.0 * np.pi, 1 << (m + n)))
    want = iqp_state(pt)
    got = simulate_gates(walsh_lower(pt))
    assert np.abs(got - want).max() <= 1e-9


def test_walsh_drops_null_rotations():
    pt = PhaseTable(0, 2, np.full(4, 0.75))  # constant table: pure global phase
    g = walsh_lower(pt)
    assert len(g) == 0
    assert abs(g.global_phase - 0.75) < 1e-15


def test_walsh_qubit_cap(monkeypatch):
    monkeypatch.setenv("IQP_MAX_QUBITS", "3")
    with pytest.raises(OverCap, match="lowering needs 4 qubits, cap is 3"):
        walsh_lower(PhaseTable(2, 2, np.zeros(16)))
    with pytest.raises(OverCap, match="raising needs 4 qubits, cap is 3"):
        gates_to_phases(GateList(2, 2, 0.0, [], []))


def test_exact_table_cap_comes_before_the_decomposition(monkeypatch):
    def decompose(p):
        raise AssertionError("the table must be refused before it is built")

    monkeypatch.setattr(synth, "decompose_2sparse", decompose)
    monkeypatch.setenv("IQP_MAX_QUBITS", "8")
    with pytest.raises(OverCap, match="phase table needs 9 qubits, cap is 8"):
        exact_phase_table(validate(np.full(16, 1 / 16), 4))


def test_gates_to_phases_split_bounds():
    # the split travels with the gates: lowering keeps it and raising reads it
    g = walsh_lower(PhaseTable(1, 2, np.arange(8.0)))
    assert (g.m, g.n) == (1, 2)
    pt = gates_to_phases(GateList(2, 1, g.global_phase, g.masks, g.angles))
    assert (pt.m, pt.n) == (2, 1)


def test_codec_names_live_in_circuit_alone():
    # a codec name that synth also held would be a second import path to it
    tree = ast.parse(Path(circuit.__file__).read_text())
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets}
    assert {"parse_circuit", "_CircuitReader", "_CHUNK_ROWS"} <= defined
    assert not defined & set(vars(synth))


def round_trip(table=None, gates=None, mode=None):
    return parse_circuit(serialize_circuit(table=table, gates=gates, mode=mode))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
@example(0, 0, 0)
@example(0, 2, 1)
@example(1, 1, 2)
@example(3, 2, 3)
def test_circuit_file_round_trip(m, n, seed):
    rng = np.random.default_rng(seed)
    pt = PhaseTable(m, n, rng.uniform(0.0, 2.0 * np.pi, 1 << (m + n)))
    g = walsh_lower(pt)
    circ = round_trip(table=pt, gates=g, mode="exact")
    assert circ.m == m and circ.n == n and circ.mode == "exact"
    assert np.array_equal(circ.table.theta, pt.theta)
    assert np.array_equal(circ.gates.masks, g.masks)
    assert np.array_equal(circ.gates.angles, g.angles)
    assert circ.gates.global_phase == g.global_phase
    # a gates-only file carries the split in its gate list, and raises to the table's marginal
    gates = round_trip(gates=g).gates
    assert (gates.m, gates.n) == (m, n)
    raised = marginal_mixture(gates_to_phases(gates)).probs
    assert np.abs(raised - marginal_mixture(pt).probs).max() <= 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_gate_lines_match_a_per_gate_writer(data):
    total = data.draw(st.sampled_from([*range(1, 25), 37, 63]))
    m = data.draw(st.integers(0, total))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    count = min(data.draw(st.integers(1, 600)), (1 << total) - 1)
    masks = np.unique(rng.integers(1, (1 << total) - 1, count, np.int64, endpoint=True))
    pool = np.array([np.pi, -np.pi / 2, 5e-324, 1e-12, 0.5, -2.0])
    angles = np.where(
        rng.random(masks.size) < 0.5,
        pool[rng.integers(0, pool.size, masks.size)],
        rng.uniform(-4.0, 4.0, masks.size),
    )
    g = GateList(m, total - m, float(rng.normal()), rng.permutation(masks), angles)
    # several blocks of lines per gate list
    with mock.patch.object(circuit, "_CHUNK_ROWS", data.draw(st.integers(1, 300))):
        text = serialize_circuit(gates=g)
    reference = [f"HEADER m={m} n={total - m}", f"GLOBALPHASE {g.global_phase:.17g}"]
    for mask, angle in zip(g.masks.tolist(), g.angles.tolist()):
        support = [f"q{q}" for q in range(total) if mask >> (total - 1 - q) & 1]
        reference.append(f"XROT {angle:.17g} {','.join(support)}")
    assert text.splitlines() == reference and text.endswith("\n")
    if total <= 24:
        back = parse_circuit(text).gates
        assert back.masks.tobytes() == g.masks.tobytes()
        assert back.angles.tobytes() == g.angles.tobytes()
        assert back.global_phase == g.global_phase


@pytest.mark.parametrize("total", range(17))
def test_phase_lines_match_a_per_line_writer(total):
    rng = np.random.default_rng(total)
    size = 1 << total
    pool = np.array([0.0, np.pi, np.nextafter(2.0 * np.pi, 0.0), 5e-324])
    theta = np.where(
        rng.random(size) < 0.5,
        pool[rng.integers(0, pool.size, size)],
        rng.uniform(0.0, 2.0 * np.pi, size),
    )

    def reference(rows):
        # line x is written exactly when x == 0 or theta[x] != 0
        return "".join(
            f"PHASE {x:0{total}b} {format_float(v)}\n" if total else f"PHASE {format_float(v)}\n"
            for x, v in enumerate(theta[:rows].tolist())
            if x == 0 or v != 0.0
        )

    def assert_same_lines(got, want):
        # the first differing line, not a diff of megabytes of text
        got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
        first = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
        assert first is None, (first, got[first], want[first])
        assert len(got) == len(want)

    m = total // 2
    text = serialize_circuit(table=PhaseTable(m, total - m, theta))
    assert_same_lines(text, f"HEADER m={m} n={total - m}\n" + reference(size))
    # row counts on both sides of the block edge, full blocks first
    for rows in sorted({1, 4095, 4096, 4097, 8191, 8193, size} & set(range(1, size + 1))):
        blocks = list(circuit._phase_blocks(theta[:rows], total))
        assert_same_lines("".join(blocks), reference(rows))
        # a block's rows ascend within one window of 2**12 rows
        for block in blocks:
            keys = [int(line.split()[1], 2) if total else 0 for line in block.splitlines()]
            assert keys == sorted(set(keys))
            assert keys[0] >> 12 == keys[-1] >> 12


def test_all_zero_table_writes_one_phase_line():
    for total in range(4):
        pt = PhaseTable(total // 2, total - total // 2, np.zeros(1 << total))
        line = f"PHASE {'0' * total} 0\n" if total else "PHASE 0\n"
        text = serialize_circuit(table=pt)
        assert text == f"HEADER m={pt.m} n={pt.n}\n" + line
        assert round_trip(table=pt).table.theta.tolist() == [0.0] * (1 << total)


def test_empty_phase_windows_write_no_block():
    theta = np.zeros(1 << 14)
    theta[-1] = 1.5
    blocks = list(circuit._phase_blocks(PhaseTable(7, 7, theta).theta, 14))
    assert blocks == [f"PHASE {'0' * 14} 0\n", f"PHASE {'1' * 14} 1.5\n"]


def test_negative_zero_phase_is_omitted():
    pt = PhaseTable(1, 1, [1.0, -0.0, 0.5, -0.0])
    assert not np.signbit(pt.theta).any()
    text = serialize_circuit(table=pt)
    assert text == "HEADER m=1 n=1\nPHASE 00 1\nPHASE 10 0.5\n"


@pytest.mark.parametrize("total", [1, 5, 13, 14])
@pytest.mark.parametrize("zeros", [0.5, 0.9, 1.0])
def test_sparse_and_full_phase_text_read_to_one_table(total, zeros):
    rng = np.random.default_rng(total)
    theta = np.where(rng.random(1 << total) < zeros, 0.0, rng.uniform(0.0, 7.0, 1 << total))
    theta[-1] = 0.0  # at least one line is left out
    pt = PhaseTable(total // 2, total - total // 2, theta)
    sparse = serialize_circuit(table=pt)
    # every line written, as circuit files from before zero phases were left out
    bits = [f"{x:0{total}b} " if total else "" for x in range(1 << total)]
    full = "".join([f"HEADER m={pt.m} n={pt.n}\n"] + [
        f"PHASE {b}{format_float(v)}\n" for b, v in zip(bits, pt.theta.tolist())
    ])
    assert sparse.count("\n") == 2 + np.count_nonzero(pt.theta[1:])
    for text in (sparse, full):
        assert parse_circuit(text).table.theta.view(np.uint64).tobytes() == (
            pt.theta.view(np.uint64).tobytes()
        )


def test_circuit_file_blocks_are_optional():
    pt = PhaseTable(1, 1, [0.0, 0.5, 1.0, 1.5])
    only_table = round_trip(table=pt)
    assert only_table.gates is None and only_table.table is not None
    g = walsh_lower(pt)
    only_gates = round_trip(gates=g)
    assert only_gates.table is None
    assert np.array_equal(only_gates.gates.masks, g.masks)
    assert np.array_equal(only_gates.gates.angles, g.angles)
    with pytest.raises(IqpError, match="nothing to serialize: no table and no gates"):
        serialize_circuit()
    # (0, 2) has the gates' 2 qubits, split otherwise
    for m, n in ((0, 2), (1, 2)):
        with pytest.raises(IqpError, match="table and gates disagree on sizes"):
            serialize_circuit(table=PhaseTable(m, n, np.zeros(1 << (m + n))), gates=g)


def test_circuit_parser_accepts_comments_and_blanks():
    text = "# a comment\n\nHEADER m=1 n=1\n  # mode: approx\nPHASE 01 1.5 # trailing\n"
    circ = parse_circuit(text)
    assert circ.mode == "approx"
    assert circ.table.theta.tolist() == [0.0, 1.5, 0.0, 0.0]


def test_circuit_parser_rejects_malformed():
    pair = "HEADER m=1 n=1\n"
    bad = (
        ("PHASE 00 1.0\n", "line 1: expected HEADER, got 'PHASE'"),  # nothing before HEADER
        ("HEADER m=1\n", "line 1: HEADER takes m=<int> n=<int>"),
        ("HEADER m=1 n=x\n", "line 1: n must be an integer"),
        ("HEADER m=-1 n=1\n", "line 1: HEADER needs m>=0 and n>=0"),
        (pair + "HEADER m=1 n=1\n", "line 2: duplicate HEADER"),
        (pair + "PHASE 0 1.0\n", "line 2: bitstring '0' is not 2 bits"),
        (pair + "PHASE 00 1.0\nPHASE 00 2.0\n", "line 3: duplicate PHASE for '00'"),
        (pair + "PHASE 00 nan\n", "line 2: angle must be finite"),
        (pair + "GLOBALPHASE 1\nGLOBALPHASE 2\n", "line 3: duplicate GLOBALPHASE"),
        (pair + "XROT 0.5 q0,q0\n", "line 2: qubits must be ascending distinct"),
        (pair + "XROT 0.5 q2\n", "line 2: qubit q2 outside header"),
        (pair + "XROT 0.5\n", "line 2: XROT takes an angle and qubits"),
        (pair + "XROT 0.5 r0\n", "line 2: bad qubit token 'r0'"),
        (pair + "FROBNICATE 12\n", "line 2: unknown keyword 'FROBNICATE'"),
        # one PHASE line broken in two
        (pair + "PHASE 00\n1.0\n", "line 2: PHASE takes a bitstring and angle"),
        (pair + "PHASE 0x 1.0\n", "line 2: bitstring '0x' is not 2 bits"),
        (pair + "PHASE 00 inf\n", "line 2: angle must be finite"),
        (pair + "PHASE 00 1.0.0\n", "line 2: bad angle '1.0.0'"),
        (pair + "PHASE 00 1.0 PHASE 01 2.0\n", "line 2: PHASE takes a bitstring and angle"),
        ("HEADER m=0 n=0\nPHASE 1.0\nPHASE 2.0\n", "line 3: duplicate PHASE"),
        ("HEADER m=0 n=0\nPHASE 0 1.0\n", "line 2: PHASE takes an angle"),
        (pair + "XROT 0.5 q1,q0\n", "line 2: qubits must be ascending distinct"),
        (pair + "XROT 0.5 q0\nXROT 0.25 q0\n", "line 3: duplicate XROT support"),
        (pair + "XROT inf q0\n", "line 2: angle must be finite"),
        (pair + "XROT 0.5 q0,\n", "line 2: bad qubit token ''"),
        (pair + "XROT 0.5 q\u0661\n", "line 2: bad qubit token 'q\u0661'"),
        (pair + "XROT 0.5 q,q1\n", "line 2: bad qubit token 'q'"),
        # the masks of good lines take no qubit from the bad line after them
        ("HEADER m=0 n=2\nXROT 0.5 q0,q1\nXROT 0.5 q1\nXROT 0.5 q0,q2\n",
         "line 4: qubit q2 outside header"),
    )
    for text, message in bad:
        with pytest.raises(IqpError, match=re.escape(message)):
            parse_circuit(text)


def test_circuit_parser_reports_line_numbers():
    with pytest.raises(IqpError, match="line 3"):
        parse_circuit("HEADER m=1 n=1\nPHASE 00 0.5\nPHASE 00 0.7\n")


def test_zero_qubit_circuit_round_trip():
    pt = PhaseTable(0, 0, [1.25])
    circ = round_trip(table=pt)
    assert circ.table.theta.tolist() == [1.25]


def big_circuit_lines(keyword="PHASE"):
    rng = np.random.default_rng(3)
    pt = PhaseTable(8, 6, rng.uniform(0.0, 2.0 * np.pi, 1 << 14))
    if keyword == "PHASE":
        text = serialize_circuit(table=pt, mode="exact")
    else:
        text = serialize_circuit(gates=walsh_lower(pt), mode="exact")
    assert len(text) > 3 * circuit._CHUNK_CHARS
    return text.splitlines(keepends=True)


def parse_error(lines):
    with pytest.raises(IqpError) as info:
        parse_circuit("".join(lines))
    return str(info.value)


def test_block_parser_errors_across_chunks():
    lines = big_circuit_lines()
    deep = 3 * len(lines) // 4
    # a duplicate PHASE whose first occurrence lies chunks earlier
    dup = lines.copy()
    dup[deep] = lines[10]
    bits = lines[10].split()[1]
    assert parse_error(dup) == f"line {deep + 1}: duplicate PHASE for {bits!r}"
    # a bad bitstring on each PHASE line around the ends of the first three
    # blocks: the head, which is a block of its own, and two PHASE blocks
    ends = list(accumulate(block.count("\n") for block in circuit._chunks("".join(lines))))
    assert ends[0] == 2
    probes = [i for end in ends[:3] for i in range(end - 1, end + 2)]
    for index in [i for i in probes if lines[i].startswith("PHASE ")]:
        bad = lines.copy()
        bad[index] = "PHASE 2" + lines[index][len("PHASE 0") :]
        bits = bad[index].split()[1]
        assert parse_error(bad) == f"line {index + 1}: bitstring {bits!r} is not 14 bits"
    inf = lines.copy()
    inf[deep] = " ".join(lines[deep].split()[:2]) + " inf\n"
    assert parse_error(inf) == f"line {deep + 1}: angle must be finite"
    broken = lines.copy()
    head, angle = lines[deep].rsplit(" ", 1)
    broken[deep] = f"{head}\n{angle}"
    message = f"line {deep + 1}: PHASE takes a bitstring and angle"
    assert parse_error(broken) == message


def parsed(text):
    """A parse's phases or gates as bytes, to compare bit for bit, or its error."""
    try:
        circ = parse_circuit(text)
    except IqpError as exc:
        return str(exc)
    if circ.table is not None:
        return circ.table.theta.tobytes()
    return circ.gates.masks.tobytes() + circ.gates.angles.tobytes()


def parsed_by_lines(text):
    """parsed(text) with every block read line by line."""
    with (
        mock.patch.object(circuit._CircuitReader, "_plain", return_value=None),
        mock.patch.object(circuit._CircuitReader, "_phase_grid", return_value=None),
    ):
        return parsed(text)


# the whole-block reader of each keyword's blocks
WHOLE_BLOCK = {"PHASE": "_phase_grid", "XROT": "_plain"}


def whole_block_counts(keyword, text):
    """parsed(text), and what the whole-block reader of keyword returned per block."""
    counts = []
    reader = getattr(circuit._CircuitReader, WHOLE_BLOCK[keyword])

    def spy(self, *args):
        counts.append(reader(self, *args))
        return counts[-1]

    with mock.patch.object(circuit._CircuitReader, WHOLE_BLOCK[keyword], spy):
        return parsed(text), counts


@pytest.mark.parametrize("keyword", ["PHASE", "XROT"])
def test_plain_blocks_read_as_lines_do(keyword):
    lines = big_circuit_lines(keyword)
    text = "".join(lines)
    canonical, stored = whole_block_counts(keyword, text)
    # the head is a block of its own, and every PHASE or XROT block is read whole
    assert len(stored) == len(list(circuit._chunks(text))) - 1 >= 3 and None not in stored
    assert sum(stored) == sum(line.startswith(keyword + " ") for line in lines)
    assert canonical == parsed_by_lines(text)

    deep = 3 * len(lines) // 4
    word, first, second = lines[deep].split()
    _, first_next, second_next = lines[deep + 1].split()

    def edit(*new):
        return "".join([*lines[:deep], *new, *lines[deep + len(new) :]])

    same = [
        edit(f"{word}\t{first}\t{second}\n"),
        edit(f"{word}  {first}  {second}\n"),
        edit(f"{word} {first} {second}  \n"),
        edit(" " + lines[deep]),
        "".join(lines[:deep] + [line.replace("\n", "\r\n") for line in lines[deep:]]),
        "".join([*lines[:deep], "\n", " \t\n", *lines[deep:]]),
    ]
    for variant in same:
        assert parsed(variant) == canonical
    if keyword == "PHASE":
        takes = "PHASE takes a bitstring and angle"
        in_slot = f"PHASE PHASE {second}\n", "bitstring 'PHASE' is not 14 bits"
        four_tokens = last_four = takes
        duplicate = f"duplicate PHASE for {lines[10].split()[1]!r}"
    else:
        takes = "XROT takes an angle and qubits"
        in_slot = f"XROT {first} XROT\n", "bad qubit token 'XROT'"
        # a qubit list may hold spaces, which makes more than three tokens
        assert parsed(edit(f"XROT {first} {second.replace(',', ', ')}\n")) == canonical
        four_tokens = f"bad qubit token '{second.split(',')[-1]}XROT'"
        last_four = f"bad qubit token '{lines[-1].split(',')[-1].strip()}x'"
        duplicate = "duplicate XROT support"
    # each line break that splitlines honours besides "\n", inside a line
    breaks = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    last = lines[-1].split()
    errors = [
        *[(edit(f"{word} {first}{mark}{second}\n"), deep + 1, takes) for mark in breaks],
        # the last line broken in two, with no newline at the end of the file
        ("".join(lines[:-1]) + f"{last[0]} {last[1]}\n{last[2]}", len(lines), takes),
        # a fourth token on the last line of a block
        ("".join(lines[:-1]) + f"{' '.join(last)} x\n", len(lines), last_four),
        (edit(in_slot[0]), deep + 1, in_slot[1]),
        (edit(f"{word} {first}\n", f"{word} {word} {first_next} {second_next}\n"),
         deep + 1, takes),
        (edit(f"{word} {first} {second} {word}\n", f"{first_next} {second_next}\n"),
         deep + 1, four_tokens),
        ("".join([*lines[:deep], "\n", lines[10], *lines[deep + 1 :]]), deep + 2, duplicate),
    ]
    for variant, line, message in errors:
        assert parsed(variant) == parsed_by_lines(variant) == f"line {line}: {message}"


def test_phase_grid_faults_read_as_lines_do():
    lines = big_circuit_lines("PHASE")
    canonical = parsed("".join(lines))
    deep = 3 * len(lines) // 4
    _, bits, angle = lines[deep].split()

    def edit(line):
        return "".join([*lines[:deep], line, *lines[deep + 1 :]])

    same = [
        edit(f"PHASE {bits}  {angle}\n"),
        edit(f"PHASE {bits} {angle}  \n"),
        edit(f"PHASE {bits} {angle}\t\n"),
        edit(f"PHASE {bits} \t{angle}\n"),
        edit(f"PHASE\t{bits}\t{angle}\n"),
        edit(f"PHASE  {bits} {angle}\n"),
        edit(f"PHASE {bits} \x1f{angle}\n"),
        edit(f"PHASE {bits} {angle}\x1f\n"),
    ]
    for variant in same:
        assert parsed(variant) == parsed_by_lines(variant) == canonical
    at = f"line {deep + 1}: "
    takes = at + "PHASE takes a bitstring and angle"
    nul = angle[:3] + "\0" + angle[3:]
    faults = [
        (f"PHASE {bits} {angle}\0\n", at + f"bad angle {angle + chr(0)!r}"),
        (f"PHASE {bits} {nul}\n", at + f"bad angle {nul!r}"),
        (f"PHASE {bits} {angle[:3]}\x1f{angle[3:]}\n", takes),
        (f"PHASE {bits} 1_0\n", at + "bad angle '1_0'"),
        (f"PHASE {bits} nan\n", at + "angle must be finite"),
        (f"PHASE {bits} -inf\n", at + "angle must be finite"),
        (f"PHASE {bits} 1e999\n", at + "angle must be finite"),
        (f"PHASE {bits} \u0661.5\n", at + "bad angle '\u0661.5'"),
        (f"PHASE {bits[1:]} {angle}\n", at + f"bitstring {bits[1:]!r} is not 14 bits"),
        (f"PHASE {bits}0 {angle}\n", at + f"bitstring {bits + '0'!r} is not 14 bits"),
        (f"PHASE 2{bits[1:]} {angle}\n", at + f"bitstring {'2' + bits[1:]!r} is not 14 bits"),
        (f"PHASE {bits}\n", takes),
        (f"PHASE {bits} \n", takes),
        (lines[10], at + f"duplicate PHASE for {lines[10].split()[1]!r}"),
    ]
    for line, message in faults:
        variant = edit(line)
        assert parsed(variant) == parsed_by_lines(variant) == message
    # other spellings of a float, read as float() reads them
    for token in ("+.5", "1E5", "-0.0", "0.50000000000000000000000000001"):
        variant = edit(f"PHASE {bits} {token}\n")
        assert parsed(variant) == parsed_by_lines(variant) != canonical
    # the last line without its newline, whole or without its angle
    text = "".join(lines)
    assert parsed(text[:-1]) == parsed_by_lines(text[:-1]) == canonical
    cut = text[: text.rindex(" ")]
    assert parsed(cut) == parsed_by_lines(cut) == f"line {len(lines)}: " + takes[len(at):]
    # a last angle of 60 bytes, then a blank line or a short bad one
    _, last_bits, _ = lines[-1].split()
    text = "".join(lines[:-1]) + f"PHASE {last_bits} 0.{'5' * 58}\n"
    assert parsed(text + "\n") == parsed_by_lines(text + "\n") == parsed(text) != canonical
    bad = f"line {len(lines) + 1}: unknown keyword 'P'"
    assert parsed(text + "P\n") == parsed_by_lines(text + "P\n") == bad


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_phase_grid_reads_any_block_as_lines_do(data):
    total = data.draw(st.integers(1, 5))
    odd = st.sampled_from([" ", "  ", "\t", "\x1f", "\0", "\r", "\x0b", "\x1c", "\n", "\u0661",
                           "_"])
    named = st.sampled_from(["0", "3.1415926535897931", "-1.5", "1_0", "nan", "-inf", "1e999",
                             "+.5", "1E5", "1.0.0", "", "0x1", "0." + "5" * 38,
                             "0." + "5" * 58, "7" * 70])
    angles = st.floats(-10.0, 10.0).map(format_float)
    lines = []
    unique = data.draw(st.integers(0, 3)) > 0  # else keys may repeat, within or across blocks
    keys = st.lists(st.integers(0, (1 << total) - 1), min_size=1, max_size=12, unique=unique)
    for key in data.draw(keys):
        bits = format(key, f"0{total}b")
        if not data.draw(st.integers(0, 19)):
            bits = data.draw(st.sampled_from([bits[1:], bits + "0", "2" + bits[1:], " " + bits]))
        angle = data.draw(angles if data.draw(st.integers(0, 5)) else named)
        if not data.draw(st.integers(0, 11)):
            at = data.draw(st.integers(0, len(angle)))
            angle = angle[:at] + data.draw(odd) + angle[at:]
        gap = data.draw(st.sampled_from([" ", " ", " ", "  ", "\t"]))
        lines.append(f"PHASE {bits}{gap}{angle}\n")
    # the last line with or without its newline, or followed by a blank or a short bad line
    end = data.draw(st.sampled_from(["\n", "\n", "\n", "\n", "", "\n\n", "\nP\n"]))
    text = f"HEADER m=0 n={total}\n" + "".join(lines)[:-1] + end
    # blocks of a few lines each, so that keys repeat across blocks
    with mock.patch.object(circuit, "_CHUNK_CHARS", data.draw(st.integers(1, 200))):
        assert parsed(text) == parsed_by_lines(text)


def test_xrot_faults_read_as_lines_do():
    lines = big_circuit_lines("XROT")
    canonical = parsed("".join(lines))
    first = next(i for i, line in enumerate(lines) if line.startswith("XROT "))
    last = len(lines) - 1
    for i in (first, (first + last) // 2, last):
        _, angle, qubits = lines[i].split()
        other = first if i > first else last

        def edit(qubit_list, at=i, angle=angle):
            return "".join([*lines[:at], f"XROT {angle} {qubit_list}\n", *lines[at + 1 :]])

        # leading zeros and spaces in a list read as they always have
        assert parsed(edit(",".join("q00" + q[1:] for q in qubits.split(",")))) == canonical
        assert parsed(edit(qubits.replace(",", ", "))) == canonical
        errors = [
            (edit(qubits + ",x2"), i, "bad qubit token 'x2'"),
            (edit(qubits + ",q\u0663"), i, "bad qubit token 'q\u0663'"),
            (edit("q1,q0"), i, "qubits must be ascending distinct"),
            (edit(qubits + ",q14"), i, "qubit q14 outside header"),
            (edit(qubits + ",q0014"), i, "qubit q14 outside header"),
            (edit(lines[other].split()[2]), max(i, other), "duplicate XROT support"),
            (edit(qubits + ",x2", angle="1.0.0"), i, "bad angle '1.0.0'"),
        ]
        for variant, line, message in errors:
            assert parsed(variant) == parsed_by_lines(variant) == f"line {line + 1}: {message}"


def masks_by_lines(lists, total):
    """What _qubit_masks returns, one list and one token at a time."""
    masks = []
    for i, listed in enumerate(lists):
        parts = listed.split(",")
        bad = next((p for p in parts if not re.fullmatch("q[0-9]+", p)), None)
        if bad is not None:
            return masks, (i, f"bad qubit token {bad!r}")
        q = [int(p[1:]) for p in parts]
        if any(b <= a for a, b in zip(q, q[1:])):
            return masks, (i, "qubits must be ascending distinct")
        if q[-1] >= total:
            return masks, (i, f"qubit q{q[-1]} outside header")
        masks.append(sum(1 << (total - 1 - x) for x in q))
    return masks, None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 24), st.data())
def test_qubit_lists_read_as_one_buffer_match_a_line_reader(total, data):
    index = st.integers(0, total + 1)
    far = st.sampled_from([99, 100, 123, 10**20])
    lists = []
    for _ in range(data.draw(st.integers(1, 8))):
        size = data.draw(st.integers(1, 5))
        q = [data.draw(index if data.draw(st.integers(0, 9)) else far) for _ in range(size)]
        if data.draw(st.integers(0, 3)):
            q.sort()
        tokens = [f"q{data.draw(st.sampled_from(['', '', '0', '00']))}{i}" for i in q]
        if not data.draw(st.integers(0, 5)):  # a garbled token
            at = data.draw(st.integers(0, size - 1))
            odd = st.sampled_from(["", "q", "x1", "1", "qq1", "q1q", "q\u0661", "q-1", "q 1"])
            tokens[at] = data.draw(odd | st.text("q019x,\u0661", max_size=4))
        lists.append(",".join(tokens))
    masks, error = circuit._qubit_masks(lists, total)
    assert (masks.tolist(), error) == masks_by_lines(lists, total)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_circuit_parser_reads_any_layout(data):
    m, n = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    total = m + n
    angle = st.floats(-10.0, 10.0, allow_nan=False)
    phases = data.draw(st.dictionaries(st.integers(0, (1 << total) - 1), angle))
    rotations = {}
    if total:
        rotations = data.draw(st.dictionaries(st.integers(1, (1 << total) - 1), angle))
    global_phase = data.draw(st.none() | angle)
    mode = data.draw(st.sampled_from([None, "exact", "approx"]))

    body = [("PHASE", x) for x in phases] + [("XROT", mask) for mask in rotations]
    if global_phase is not None:
        body.append(("GLOBALPHASE", None))
    body = data.draw(st.permutations(body))
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = []
    for keyword, key in body:
        if keyword == "PHASE":
            tokens = [keyword, format(key, f"0{total}b")] if total else [keyword]
            tokens.append(format_float(phases[key]))
        elif keyword == "XROT":
            qubits = ",".join(f"q{q}" for q in range(total) if key >> (total - 1 - q) & 1)
            tokens = [keyword, format_float(rotations[key]), qubits]
        else:
            tokens = [keyword, format_float(global_phase)]
        line = data.draw(st.sampled_from(["", " ", "\t"]))
        line += "".join(token + data.draw(space) for token in tokens)
        if data.draw(st.booleans()):
            line += "# trailing comment"
        lines.append(line)
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(space))
    if mode is not None:
        lines.insert(data.draw(st.integers(0, len(lines))), f"# mode: {mode}")
    text = "\n".join([f"HEADER m={m} n={n}", *lines]) + "\n"

    # blocks of a few lines each, so that every layout spans block boundaries
    with mock.patch.object(circuit, "_CHUNK_CHARS", data.draw(st.integers(1, 80))):
        circ = parse_circuit(text)
    assert (circ.m, circ.n, circ.mode) == (m, n, mode)
    if phases:
        theta = np.zeros(1 << total)
        theta[list(phases)] = list(phases.values())
        assert np.array_equal(circ.table.theta, PhaseTable(m, n, theta).theta)
    else:
        assert circ.table is None
    if rotations or global_phase is not None:
        order = [key for keyword, key in body if keyword == "XROT"]
        phase = 0.0 if global_phase is None else global_phase
        want = GateList(m, n, phase, order, [rotations[key] for key in order])
        assert np.array_equal(circ.gates.masks, want.masks)
        assert np.array_equal(circ.gates.angles, want.angles)
        assert circ.gates.global_phase == want.global_phase
    else:
        assert circ.gates is None
