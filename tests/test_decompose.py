"""Allocation, splitting, and dyadic rounding."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpsynth.decompose import (
    Mixture,
    allocate_3sparse,
    build_multiplicity_map,
    decompose_2sparse,
    round_to_dyadic,
    rows_to_dists,
    split_3_to_2,
)
from iqpsynth.errors import InternalError, IqpError
from iqpsynth.probdist import ProbVector, sort_with_permutation, tv_distance, validate

from helpers import allocation_sums, random_dist


def entries(cols, vals):
    """Rows of padded (cols, vals) arrays as tuples of (index, value) pairs."""
    return tuple(
        tuple((c, v) for c, v in zip(row_cols, row_vals) if c >= 0)
        for row_cols, row_vals in zip(cols.tolist(), vals.tolist())
    )


def mix_back(parts, n):
    out = np.zeros(1 << n, dtype=np.float64)
    for row in entries(parts.cols, parts.masses):
        for j, v in row:
            out[j] += v / len(parts)
    return out


def dense(parts):
    out = np.zeros((len(parts), 1 << parts.n))
    for k, row in enumerate(entries(parts.cols, parts.masses)):
        for j, v in row:
            out[k, j] = v
    return out


def assert_allocates(p, cols, vals, tol=1e-12):
    """At most 3 entries a row, laid out as Mixture checks; row sums 1/N and
    column sums p within tol."""
    N = len(p)
    assert cols.shape == vals.shape == (N, 3)
    assert len(rows_to_dists((cols, vals))) == N
    rows, columns = allocation_sums(cols, vals)
    assert np.abs(rows - 1.0 / N).max() <= tol
    assert np.abs(columns - p.probs).max() <= tol


def test_allocation_frozen_example():
    p = validate([0.1, 0.1, 0.3, 0.5], 2)
    cols, vals = allocate_3sparse(p)
    assert entries(cols, vals) == (
        ((0, 0.1), (2, 0.15)),
        ((1, 0.1), (2, 0.15)),
        ((3, 0.25),),
        ((3, 0.25),),
    )
    assert_allocates(p, cols, vals)


def test_allocation_point_mass():
    p = validate([0.0, 0.0, 1.0, 0.0], 2)
    assert entries(*allocate_3sparse(p)) == (((2, 0.25),),) * 4


def test_allocation_uniform_is_diagonal():
    p = validate([0.25] * 4, 2)
    assert entries(*allocate_3sparse(p)) == tuple(((j, 0.25),) for j in range(4))


def test_allocation_single_outcome_space():
    assert entries(*allocate_3sparse(validate([1.0], 0))) == (((0, 1.0),),)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_allocation_invariants(n, seed):
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    cols, vals = allocate_3sparse(p)
    assert_allocates(p, cols, vals)


def test_allocation_pour_guard_is_internal(monkeypatch):
    # the pour itself keeps rows to 3 entries; without the dust threshold,
    # float dust pours a fourth entry into a row, a fault of the algorithm
    monkeypatch.setattr("iqpsynth.decompose.SNAP", -1.0)
    with pytest.raises(InternalError, match="^row 0 exceeded 3 entries during allocation$") as info:
        allocate_3sparse(validate([0.04] * 4 + [0.21] * 4, 3))
    assert info.value.exit_code == 4


def test_allocation_closes_drifting_rows():
    # the sequential pour used to leave the last row 1.7e-12/N short here,
    # which rows_to_dists then rejected as a bad distribution
    raw = np.random.default_rng(0).random(2**15) ** 4
    p = validate(raw / math.fsum(raw), 15)
    cols, vals = allocate_3sparse(p)
    assert_allocates(p, cols, vals)
    assert len(decompose_2sparse(p)) == 2**16
    # every entry, the closed ones included, is pinned to the bit; row 55
    # of the second input is closed on the second of its two entries
    rows = repr(entries(cols, vals)).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "b806b1f6641adb83fbba0658ca3b86520ce46ba38a21c9f3eef5c51fb271faf5"
    )
    raw = np.round(np.random.default_rng(229).random(2**7) * 10) / 10 + 1e-3
    rows = repr(entries(*allocate_3sparse(validate(raw / math.fsum(raw), 7)))).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "47f158b05eab2184a86ce4239c34140410d2cbb72734f20555a21b447c7286e5"
    )


@pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.0 - 1e-9])
def test_allocation_bounds_leftover_mass(scale, monkeypatch):
    # more mass than rows (spilled past the last row) or less (a short
    # row) beyond p's own normalization tolerance is refused, not dropped
    def scaled_sort(p):
        values, perm = sort_with_permutation(p)
        return values * scale, perm

    monkeypatch.setattr("iqpsynth.decompose.sort_with_permutation", scaled_sort)
    leftover = "of mass left over past the last row" if scale > 1 else "allocation row off 1/4"
    with pytest.raises(IqpError, match=leftover):
        allocate_3sparse(validate([0.1, 0.2, 0.3, 0.4], 2))


def test_split_frozen_example():
    halves = split_3_to_2(Mixture(2, [[0, 1, 2]], [[0.2, 0.3, 0.5]]))
    assert entries(halves.cols, halves.masses) == (((0, 0.4), (2, 0.6)), ((1, 0.6), (2, 0.4)))
    # mass ties keep outcome order: a = 0, b = 1 against c = 3
    halves = split_3_to_2(Mixture(2, [[0, 1, 3]], [[0.25, 0.25, 0.5]]))
    assert entries(halves.cols, halves.masses) == (((0, 0.5), (3, 0.5)), ((1, 0.5), (3, 0.5)))
    # b at double mass leaves nothing for c, so the second half drops it
    halves = split_3_to_2(Mixture(2, [[0, 1, 2]], [[2.0**-60, 0.5, 0.5]]))
    assert entries(halves.cols, halves.masses) == (
        ((0, 2.0**-59), (2, 1.0 - 2.0**-59)),
        ((1, 1.0),),
    )


def test_split_passthrough_below_3():
    q = Mixture(2, [[1, 3, -1]], [[0.5, 0.5, 0.0]])
    halves = split_3_to_2(q)
    assert entries(halves.cols, halves.masses) == entries(q.cols, q.masses) * 2
    point = Mixture(1, [[0, -1, -1]], [[1.0, 0.0, 0.0]])
    halves = split_3_to_2(point)
    assert entries(halves.cols, halves.masses) == (((0, 1.0),),) * 2


def test_mixture_rejects_bad_components():
    good = Mixture(2, [[0, 3], [2, -1]], [[0.5, 0.5], [1.0, 0.0]])
    assert good.sparsity.tolist() == [2, 1] and len(good) == 2
    assert not (good.cols.flags.writeable or good.masses.flags.writeable)
    order = "component 0: entries must be distinct and ascending"
    positive = "component 0: values must be positive"
    for cols, masses, message in (
        ([[0, 3]], [[0.5, 0.4]], "component 0 masses sum to 0.9,"),
        ([[-1, -1]], [[0.0, 0.0]], "component 0 masses sum to 0.0,"),  # empty
        ([[0, 4]], [[0.5, 0.5]], r"component 0: entries must lie in \[0, 4\)"),
        ([[-2, 0]], [[0.0, 1.0]], order),  # not a padding marker
        ([[3, 0]], [[0.5, 0.5]], order),  # descending
        ([[-1, 0]], [[0.0, 1.0]], order),  # padding before an entry
        ([[0, -1]], [[1.0, 1e-300]], positive),  # padding that carries mass
        ([[0, 1]], [[1.0, 0.0]], positive),  # an entry without mass
        ([[0, 1]], [[1.5, -0.5]], positive),  # negative mass
        ([[0, 1]], [[0.5]], "component columns and values must be 2-D arrays of one shape"),
    ):
        with pytest.raises(IqpError, match=message):
            Mixture(2, cols, masses)


def test_mixture_sum_past_the_float_range_is_refused():
    # math.fsum raises OverflowError on this row; its sum reads as inf instead
    with pytest.raises(IqpError, match="component 0 masses sum to inf, expected 1"):
        Mixture(2, [[0, 1, 2]], [[1e308] * 3])


def test_split_rejects_wide_input():
    with pytest.raises(IqpError, match="component 0: entries must be distinct and ascending"):
        # Mixture itself rejects repeated outcomes
        Mixture(1, [[0, 0]], [[0.5, 0.5]])
    wide = Mixture(2, [[0, 1, 2, 3]], [[0.25, 0.25, 0.25, 0.25]])
    with pytest.raises(IqpError, match="expected 3 slots a component, got 4"):
        split_3_to_2(wide)
    with pytest.raises(IqpError, match="expected 3 slots a component, got 2"):
        # components come padded to exactly 3 slots
        split_3_to_2(Mixture(2, [[1, 3]], [[0.5, 0.5]]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_split_mixes_back(n, seed):
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    rows = rows_to_dists(allocate_3sparse(p))
    halves = split_3_to_2(rows)
    assert len(halves) == 2 * len(rows)
    assert halves.sparsity.max() <= 2
    mixed = (dense(halves)[0::2] + dense(halves)[1::2]) / 2.0
    assert np.abs(mixed - dense(rows)).max() <= 1e-12


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_decompose_2sparse_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    parts = decompose_2sparse(p)
    assert len(parts) == 1 << (n + 1)
    assert all(len(row) <= 2 for row in entries(parts.cols, parts.masses))
    assert np.abs(mix_back(parts, n) - p.probs).max() <= 1e-12


def test_dyadic_frozen_example():
    p = validate([0.3, 0.7], 1)
    q = round_to_dyadic(p, 3)
    # floors (2, 5) of (2.4, 5.6) leave one unit for the larger fraction
    assert (q.probs * 8).tolist() == [2, 6]
    assert q.probs.tolist() == [0.25, 0.75]
    assert abs(tv_distance(p, q) - 0.05) < 1e-12
    assert tv_distance(p, q) <= 0.5 * 2.0 ** (1 - 3)


def test_dyadic_coarsest_grid():
    p = validate([0.3, 0.7], 1)
    q = round_to_dyadic(p, 1)
    # floors (0, 1); the bigger truncation wins the one spare slot
    assert q.probs.tolist() == [0.5, 0.5]
    assert tv_distance(p, q) <= 0.5


def test_dyadic_exact_grid_is_identity():
    p = validate([0.25, 0.75], 1)
    assert np.array_equal(round_to_dyadic(p, 4).probs, p.probs)


def test_dyadic_tie_prefers_lower_index():
    p = validate([0.375, 0.375, 0.25, 0.0], 2)
    q = round_to_dyadic(p, 2)
    # fractions tie at 0.5 for outcomes 0 and 1; index 0 gets the slot
    assert q.probs.tolist() == [0.5, 0.25, 0.25, 0.0]


def test_dyadic_rejects_negative_m():
    with pytest.raises(IqpError, match="grid resolution m must be a nonnegative integer, got -1"):
        round_to_dyadic(validate([0.5, 0.5], 1), -1)
    with pytest.raises(IqpError, match="grid resolution m must be a nonnegative integer, got -1"):
        build_multiplicity_map(validate([0.0, 1.0], 1), -1)


def test_dyadic_below_n_collapses_to_point_mass():
    # one grid unit total: the heavier outcome takes everything
    q = round_to_dyadic(validate([0.3, 0.7], 1), 0)
    assert q.probs.tolist() == [0.0, 1.0]
    assert tv_distance(validate([0.3, 0.7], 1), q) <= 1.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(n, n + 7), st.integers(0, 2**32 - 1)
        )
    )
)
def test_dyadic_bound_and_grid(args):
    n, m, seed = args
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    q = round_to_dyadic(p, m)
    scale = 1 << m
    on_grid = np.rint(q.probs * scale)
    assert np.array_equal(on_grid / scale, q.probs)
    assert tv_distance(p, q) <= 0.5 * 2.0 ** (n - m)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(n, n + 6), st.integers(0, 2**32 - 1)
        )
    )
)
def test_multiplicity_map_counts(args):
    n, m, seed = args
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    q = round_to_dyadic(p, m)
    v = build_multiplicity_map(q, m)
    assert v.shape == (1 << m,) and v.dtype == np.int64
    assert not v.flags.writeable
    assert np.all(np.diff(v) >= 0)
    counts = np.bincount(v, minlength=1 << n)
    assert np.array_equal(counts / (1 << m), q.probs)


def test_multiplicity_frozen_example():
    q = round_to_dyadic(validate([0.25, 0.75], 1), 2)
    assert build_multiplicity_map(q, 2).tolist() == [0, 1, 1, 1]


def test_multiplicity_map_rejects_q_off_the_grid():
    # 0.3 * 8 is not a whole count
    with pytest.raises(IqpError, match="q is not exactly dyadic at resolution m"):
        build_multiplicity_map(validate([0.3, 0.7], 1), 3)
    # on the 2**-41 grid, but its counts overfill the 2**41 slots by 2
    q = ProbVector(1, [0.5, 0.5 + 2.0**-40])
    with pytest.raises(IqpError, match=r"dyadic counts do not fill 2\*\*m slots"):
        build_multiplicity_map(q, 41)
