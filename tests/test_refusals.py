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
from iqpsynth.sim import StateVector, sample
from iqpsynth.synth import (
    GateList,
    PhaseTable,
    approx_phase_table,
    exact_phase_table,
    gates_to_phases,
    uma_phases_for_pair,
)

# Sizes, indices and masks; then masses and angles.  40 is past every dense
# cap, 2**70 past int64, 5e-324 the smallest subnormal, 1e308 overflows
# once summed or doubled, and 10**400 is an int past the float range.
SIZES = st.sampled_from([-1, 0, 1, 2, 40, 2**70])
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
    "StateVector": (StateVector, st.tuples(SIZES, listed(REALS))),
    "Mixture": (Mixture, mixtures()),
    "PhaseTable": (PhaseTable, st.tuples(SIZES, SIZES, listed(REALS))),
    "GateList": (GateList, st.tuples(SIZES, SIZES, REALS, listed(SIZES), listed(REALS))),
    "round_to_dyadic": (round_to_dyadic, st.tuples(st.sampled_from([TINY, QUARTERS]), SIZES)),
    "build_multiplicity_map": (
        build_multiplicity_map, st.tuples(st.sampled_from([TINY, QUARTERS]), SIZES)
    ),
    "exact_phase_table": (exact_phase_table, st.tuples(st.sampled_from([TINY, QUARTERS]))),
    "approx_phase_table": (approx_phase_table, st.tuples(listed(SIZES), SIZES)),
    "uma_phases_for_pair": (uma_phases_for_pair, st.tuples(SIZES, SIZES, REALS, SIZES)),
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
