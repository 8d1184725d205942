"""Allocation, splitting, and dyadic rounding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpsynth.decompose import (
    AllocationMatrix,
    SparseDist,
    allocate_3sparse,
    build_multiplicity_map,
    decompose_2sparse,
    round_to_dyadic,
    rows_to_dists,
    split_3_to_2,
)
from iqpsynth.errors import (
    BadNormalization,
    DimensionMismatch,
    InconsistentCounts,
    LengthMismatch,
    SparsityViolation,
)
from iqpsynth.probdist import sort_with_permutation, tv_distance, validate

from helpers import random_dist


def mix_back(parts, n):
    out = np.zeros(1 << n, dtype=np.float64)
    for part in parts:
        for j, v in part.entries:
            out[j] += v / len(parts)
    return out


def test_allocation_frozen_example():
    p = validate([0.1, 0.1, 0.3, 0.5], 2)
    q = allocate_3sparse(p)
    assert q.rows == (
        ((0, 0.1), (2, 0.15)),
        ((1, 0.1), (2, 0.15)),
        ((3, 0.25),),
        ((3, 0.25),),
    )
    q.verify_against(p)


def test_allocation_point_mass():
    p = validate([0.0, 0.0, 1.0, 0.0], 2)
    q = allocate_3sparse(p)
    assert q.rows == (((2, 0.25),),) * 4


def test_allocation_uniform_is_diagonal():
    p = validate([0.25] * 4, 2)
    q = allocate_3sparse(p)
    assert q.rows == tuple(((j, 0.25),) for j in range(4))


def test_allocation_single_outcome_space():
    q = allocate_3sparse(validate([1.0], 0))
    assert q.rows == (((0, 1.0),),)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_allocation_invariants(n, seed):
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    q = allocate_3sparse(p)
    assert q.N == 1 << n
    assert max(len(row) for row in q.rows) <= 3
    q.verify_against(p, tol=1e-12)


def test_allocation_matrix_rejects_wide_rows():
    with pytest.raises(SparsityViolation):
        AllocationMatrix(
            4, ((((0, 0.1), (1, 0.05), (2, 0.05), (3, 0.05)),) + ((),) * 3)
        )


def test_allocation_closes_drifting_rows():
    # the sequential pour used to leave the last row 1.7e-12/N short here,
    # which rows_to_dists then rejected as a bad distribution
    raw = np.random.default_rng(0).random(2**15) ** 4
    p = validate(raw / math.fsum(raw), 15)
    allocate_3sparse(p).verify_against(p, tol=1e-12)
    assert len(decompose_2sparse(p)) == 2**16


@pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.0 - 1e-9])
def test_allocation_bounds_leftover_mass(scale, monkeypatch):
    # more mass than rows (spilled past the last row) or less (a short
    # row) beyond p's own normalization tolerance is refused, not dropped
    def scaled_sort(p):
        values, perm = sort_with_permutation(p)
        return values * scale, perm

    monkeypatch.setattr("iqpsynth.decompose.sort_with_permutation", scaled_sort)
    with pytest.raises(BadNormalization):
        allocate_3sparse(validate([0.1, 0.2, 0.3, 0.4], 2))


def test_split_frozen_example():
    q = SparseDist(2, ((0, 0.2), (1, 0.3), (2, 0.5)))
    first, second = split_3_to_2(q)
    assert first.entries == ((0, 0.4), (2, 0.6))
    assert second.entries == ((1, 0.6), (2, 0.4))


def test_split_passthrough_below_3():
    q = SparseDist(2, ((1, 0.5), (3, 0.5)))
    assert split_3_to_2(q) == (q, q)
    point = SparseDist(1, ((0, 1.0),))
    assert split_3_to_2(point) == (point, point)


def test_split_rejects_wide_input():
    with pytest.raises(LengthMismatch):
        # SparseDist itself rejects nothing here; build a legal 4-entry one
        SparseDist(1, ((0, 0.5), (0, 0.5)))
    wide = SparseDist(2, ((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)))
    with pytest.raises(SparsityViolation):
        split_3_to_2(wide)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_split_mixes_back(n, seed):
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    for row_dist in rows_to_dists(allocate_3sparse(p)):
        first, second = split_3_to_2(row_dist)
        assert first.sparsity <= 2 and second.sparsity <= 2
        mixed = (first.to_dense() + second.to_dense()) / 2.0
        assert np.abs(mixed - row_dist.to_dense()).max() <= 1e-12


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_decompose_2sparse_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    parts = decompose_2sparse(p)
    assert len(parts) == 1 << (n + 1)
    assert all(part.sparsity <= 2 for part in parts)
    assert np.abs(mix_back(parts, n) - p.probs).max() <= 1e-12


def test_dyadic_frozen_example():
    p = validate([0.3, 0.7], 1)
    d = round_to_dyadic(p, 3)
    assert d.counts.tolist() == [2, 5]
    assert d.surplus == 1
    assert d.q.probs.tolist() == [0.25, 0.75]
    assert abs(tv_distance(p, d.q) - 0.05) < 1e-12
    assert tv_distance(p, d.q) <= 0.5 * 2.0 ** (1 - 3)


def test_dyadic_coarsest_grid():
    p = validate([0.3, 0.7], 1)
    d = round_to_dyadic(p, 1)
    # floors (0, 1); the bigger truncation wins the one spare slot
    assert d.q.probs.tolist() == [0.5, 0.5]
    assert tv_distance(p, d.q) <= 0.5


def test_dyadic_exact_grid_is_identity():
    p = validate([0.25, 0.75], 1)
    d = round_to_dyadic(p, 4)
    assert d.surplus == 0
    assert np.array_equal(d.q.probs, p.probs)


def test_dyadic_tie_prefers_lower_index():
    p = validate([0.375, 0.375, 0.25, 0.0], 2)
    d = round_to_dyadic(p, 2)
    # fractions tie at 0.5 for outcomes 0 and 1; index 0 gets the slot
    assert d.q.probs.tolist() == [0.5, 0.25, 0.25, 0.0]


def test_dyadic_rejects_negative_m():
    with pytest.raises(LengthMismatch):
        round_to_dyadic(validate([0.5, 0.5], 1), -1)


def test_dyadic_below_n_collapses_to_point_mass():
    # one grid unit total: the heavier outcome takes everything
    d = round_to_dyadic(validate([0.3, 0.7], 1), 0)
    assert d.surplus == 1
    assert d.q.probs.tolist() == [0.0, 1.0]
    assert tv_distance(validate([0.3, 0.7], 1), d.q) <= 1.0


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
    d = round_to_dyadic(p, m)
    scale = 1 << m
    on_grid = np.rint(d.q.probs * scale)
    assert np.array_equal(on_grid / scale, d.q.probs)
    assert tv_distance(p, d.q) <= 0.5 * 2.0 ** (n - m)


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
    d = round_to_dyadic(p, m)
    vmap = build_multiplicity_map(d, n)
    assert vmap.v.shape == (1 << m,)
    assert np.all(np.diff(vmap.v) >= 0)
    counts = np.bincount(vmap.v, minlength=1 << n)
    assert np.array_equal(counts / (1 << m), d.q.probs)


def test_multiplicity_frozen_example():
    d = round_to_dyadic(validate([0.25, 0.75], 1), 2)
    assert build_multiplicity_map(d, 1).v.tolist() == [0, 1, 1, 1]


def test_multiplicity_dimension_check():
    d = round_to_dyadic(validate([0.25, 0.75], 1), 2)
    with pytest.raises(DimensionMismatch):
        build_multiplicity_map(d, 2)


def test_rounding_surplus_bookkeeping_is_checked():
    d = round_to_dyadic(validate([0.3, 0.7], 1), 3)
    with pytest.raises(InconsistentCounts):
        type(d)(d.m, d.counts, d.fractions, d.surplus + 1, d.q)
