"""Library refusals: the public constructors and functions raise only IqpError."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpsynth import circuit, decompose, probdist, sim, synth
from iqpsynth.decompose import Mixture, build_multiplicity_map, round_to_dyadic
from iqpsynth.errors import IqpError
from iqpsynth.probdist import ProbVector, validate
from iqpsynth.sim import sample
from iqpsynth.synth import (
    GateList,
    PhaseTable,
    approx_phase_table,
    exact_phase_table,
    gates_to_phases,
    row_table,
)

# Sizes, indices and masks; then masses and angles.  40 is past every dense
# cap, 2**70 past int64, 0.5 and True are not sizes, 5e-324 is the smallest
# subnormal, 1e308 overflows once summed or doubled, and 10**400 is an int
# past the float range.
SIZES = st.sampled_from([-1, 0, 1, 2, 40, 2**70, 0.5, True])
REALS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, 5e-324, 0.0, 0.5, 1.0, 10**400, -(10**400)]
)


def listed(elements):
    """Up to four elements, as a list or as the array numpy makes of it."""
    return st.lists(elements, max_size=4).flatmap(
        lambda xs: st.sampled_from([xs, np.array(xs)])
    )


def grid(elements, rows, width):
    """A rows x width nested list of elements."""
    return st.lists(st.lists(elements, min_size=width, max_size=width),
                    min_size=rows, max_size=rows)


def mixtures():
    """(n, cols, masses), with cols and masses nested lists of one shape."""
    shapes = st.tuples(st.integers(0, 2), st.integers(1, 3))
    return shapes.flatmap(lambda shape: st.tuples(SIZES, grid(SIZES, *shape), grid(REALS, *shape)))


# a valid distribution with a subnormal mass, and one on the grid of 1/4
TINY = validate([5e-324, 1.0], 1)
QUARTERS = validate([0.25, 0.0, 0.5, 0.25], 2)

CALLS = {
    "validate": (validate, st.tuples(listed(REALS), SIZES)),
    "ProbVector": (ProbVector, st.tuples(SIZES, listed(REALS))),
    "Mixture": (Mixture, mixtures()),
    "PhaseTable": (PhaseTable, st.tuples(SIZES, SIZES, listed(REALS))),
    "GateList": (GateList, st.tuples(SIZES, SIZES, REALS, listed(SIZES), listed(REALS))),
    "round_to_dyadic": (round_to_dyadic, st.tuples(st.sampled_from([TINY, QUARTERS]), SIZES)),
    "build_multiplicity_map": (
        build_multiplicity_map, st.tuples(st.sampled_from([TINY, QUARTERS]), SIZES)
    ),
    "exact_phase_table": (exact_phase_table, st.tuples(st.sampled_from([TINY, QUARTERS]))),
    "approx_phase_table": (approx_phase_table, st.tuples(listed(SIZES), SIZES)),
    "row_table": (
        row_table, st.tuples(SIZES, listed(SIZES), listed(SIZES), REALS | listed(REALS))
    ),
    "gates_to_phases": (gates_to_phases, st.tuples(st.sampled_from([
        GateList(m, n, 0.5, [1, 3][: m + n], [0.25, -1.0][: m + n])
        for m, n in ((0, 0), (1, 1), (0, 40), (2**70, 0))
    ]))),
    "sample": (sample, st.tuples(st.sampled_from([TINY, QUARTERS]), SIZES | REALS, SIZES | REALS)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_extreme_values_raise_only_iqp_error(name):
    call, arguments = CALLS[name]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(arguments)
    def check(args):
        try:
            call(*args)
        except IqpError as exc:
            assert str(exc)

    check()


def test_every_checked_holder_is_driven():
    holders = {
        name
        for module in (probdist, decompose, synth, circuit, sim)
        for name, value in vars(module).items()
        if dataclasses.is_dataclass(value) and "__post_init__" in vars(value)
    }
    assert holders and holders <= set(CALLS), sorted(holders - set(CALLS))


def test_negative_probability_is_refused():
    # the entries sum to 1, so only the sign check can refuse them
    with pytest.raises(IqpError, match="probabilities must be nonnegative"):
        ProbVector(1, [1.5, -0.5])


@pytest.mark.parametrize("cols, masses", [
    ([[0], [0, 1]], [[1.0], [0.5, 0.5]]),
    ([[0, 1], [0, 1]], [[1.0], [0.5, 0.5]]),
])
def test_ragged_mixture_is_refused(cols, masses):
    with pytest.raises(IqpError, match="2-D arrays of one shape"):
        Mixture(1, cols, masses)


@pytest.mark.parametrize("size", [0.5, True])
@pytest.mark.parametrize("build", [
    lambda s: ProbVector(s, [0.0, 1.0]),
    lambda s: validate([0.0, 1.0], s),
    lambda s: Mixture(s, [[0]], [[1.0]]),
    lambda s: PhaseTable(s, 0, [0.0, 0.0]),
    lambda s: PhaseTable(0, s, [0.0, 0.0]),
    lambda s: GateList(s, 0, 0.0, [1], [0.5]),
    lambda s: GateList(0, s, 0.0, [1], [0.5]),
    lambda s: round_to_dyadic(QUARTERS, s),
    lambda s: build_multiplicity_map(validate([0.5, 0.5], 1), s),
    lambda s: row_table(s, [0], [1], 0.5),
], ids=["ProbVector", "validate", "Mixture", "PhaseTable.m", "PhaseTable.n", "GateList.m",
        "GateList.n", "round_to_dyadic", "build_multiplicity_map", "row_table"])
def test_sizes_are_nonnegative_integers(build, size):
    # each call is valid at size 1, so True is refused as a bool, not as a size
    with pytest.raises(IqpError, match=f"must be a nonnegative integer, got {size!r}"):
        build(size)


@pytest.mark.parametrize("build", [
    lambda: GateList(0, 2, 0.0, [1.9, 2.2], [0.1, 0.2]),
    lambda: GateList(0, 2, 0.0, np.array([True]), [0.1]),
    lambda: Mixture(1, [[0.7], [1.2]], [[1.0], [1.0]]),
    lambda: approx_phase_table([0.0, 1.0], 1),
    lambda: row_table(1, [0], np.array([True]), 0.5),
    lambda: GateList(0, 2, 0.0, [True, 2], [0.1, 0.2]),
    lambda: row_table(2, [True, 2], [1, 2], 0.5),
    lambda: Mixture(1, [[True], [1]], [[1.0], [1.0]]),
], ids=["GateList-float", "GateList-bool", "Mixture-float", "approx_phase_table-float",
        "row_table-bool", "GateList-mixed", "row_table-mixed", "Mixture-mixed"])
def test_integer_inputs_are_not_truncated(build):
    with pytest.raises(IqpError, match="must lie in"):
        build()
