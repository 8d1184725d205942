"""Distribution validation, metrics, and the JSON round trip."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpsynth.errors import IqpError
from iqpsynth.probdist import (
    ProbVector,
    parse_dist,
    serialize_dist,
    sort_with_permutation,
    tv_distance,
    validate,
)

from helpers import random_dist


def arrays(n):
    size = 1 << n
    return (
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
            min_size=size,
            max_size=size,
        )
        .filter(lambda v: math.fsum(v) > 1e-6)
        .map(lambda v: np.array(v, dtype=np.float64) / math.fsum(v))
    )


def test_validate_basic():
    p = validate([0.25, 0.75], 1)
    assert p.n == 1
    assert math.fsum(p.probs) == 1.0
    assert not p.probs.flags.writeable


def test_validate_errors():
    with pytest.raises(IqpError, match=r"expected 2 entries for n=1, got shape \(3,\)"):
        validate([0.5, 0.5, 0.0], 1)
    with pytest.raises(IqpError, match="entry -1e-06 is below -1e-12"):
        validate([0.5, 0.5, 1e-6, -1e-6], 2)
    with pytest.raises(IqpError, match="entries sum to 1.1, expected 1 within 1e-09"):
        validate([0.5, 0.6], 1)
    with pytest.raises(IqpError, match="entries must be finite"):
        validate([np.nan, 1.0], 1)
    with pytest.raises(IqpError, match="entries must be finite"):
        validate([np.inf, 1.0], 1)
    with pytest.raises(IqpError, match="bit count must be a nonnegative integer, got -1"):
        validate([1.0], -1)


def test_sum_past_the_float_range_is_refused():
    # math.fsum raises OverflowError on these; the sum reads as inf instead
    with pytest.raises(IqpError, match="entries sum to inf, expected 1 within 1e-09"):
        validate([1e308, 1e308, 0.0, 0.0], 2)
    with pytest.raises(IqpError, match="probabilities sum to inf, expected 1 within 1e-12"):
        ProbVector(2, np.array([1e308, 1e308, 0.0, 0.0]))
    for text in ('{"n": 2, "dense": [1e308, 1e308, 0, 0]}',
                 '{"n": 2, "probs": {"00": 1e308, "01": 1e308}}'):
        with pytest.raises(IqpError, match="entries sum to inf, expected 1 within 1e-09"):
            parse_dist(text)


def test_parse_refuses_deep_nesting():
    with pytest.raises(IqpError, match="^invalid JSON: maximum recursion depth exceeded"):
        parse_dist("[" * 100_000 + "]" * 100_000)


def test_validate_clamps_dust():
    p = validate([1.0, -1e-13, 1e-13, 0.0], 2)
    assert p.probs[1] == 0.0
    assert math.fsum(p.probs) == 1.0


def test_probvector_rejects_loose_sum():
    # the dataclass itself is strict; only validate() renormalizes
    with pytest.raises(IqpError, match="probabilities sum to 1.0000000001, expected 1 within"):
        ProbVector(1, np.array([0.5, 0.5 + 1e-10]))


@settings(derandomize=True, max_examples=150)
@given(st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_validate_idempotent(n, seed):
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    again = validate(p.probs, n)
    assert np.array_equal(again.probs, p.probs)
    assert math.fsum(p.probs) == 1.0


@settings(derandomize=True, max_examples=100)
@given(
    st.integers(0, 4).flatmap(
        lambda n: st.tuples(st.just(n), arrays(n), arrays(n), arrays(n))
    )
)
def test_tv_distance_is_a_metric(args):
    n, a, b, c = args
    p, q, r = validate(a, n), validate(b, n), validate(c, n)
    d = tv_distance(p, q)
    assert 0.0 <= d <= 1.0 + 1e-12
    assert d == tv_distance(q, p)
    assert tv_distance(p, p) == 0.0
    assert d <= tv_distance(p, r) + tv_distance(r, q) + 1e-15


def test_tv_distance_disjoint_supports():
    assert tv_distance(validate([1.0, 0.0], 1), validate([0.0, 1.0], 1)) == 1.0


def test_tv_distance_frozen_value():
    p = validate([0.3, 0.7], 1)
    q = validate([0.375, 0.625], 1)
    assert abs(tv_distance(p, q) - 0.075) < 1e-15


def test_tv_distance_dimension_check():
    with pytest.raises(IqpError, match="cannot compare n=0 with n=1"):
        tv_distance(validate([1.0], 0), validate([0.5, 0.5], 1))


@settings(derandomize=True, max_examples=100)
@given(st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_sort_with_permutation_recovers(n, seed):
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    values, perm = sort_with_permutation(p)
    assert np.all(np.diff(values) >= 0)
    assert np.array_equal(values, p.probs[perm])
    recovered = np.empty_like(values)
    recovered[perm] = values
    assert np.array_equal(recovered, p.probs)
    assert sorted(perm.tolist()) == list(range(1 << n))


def test_sort_stability_on_ties():
    p = validate([0.25, 0.25, 0.25, 0.25], 2)
    _, perm = sort_with_permutation(p)
    assert perm.tolist() == [0, 1, 2, 3]


@settings(derandomize=True, max_examples=150)
@given(st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_serialize_parse_round_trip_bit_exact(n, seed):
    rng = np.random.default_rng(seed)
    p = validate(random_dist(rng, n), n)
    q = parse_dist(serialize_dist(p))
    assert q.n == p.n
    assert np.array_equal(q.probs, p.probs)


def test_parse_dense_form():
    p = parse_dist('{"n": 2, "dense": [0.5, 0, 0, 0.5]}')
    assert p.probs[0] == 0.5 and p.probs[3] == 0.5


def test_parse_sparse_defaults_missing_to_zero():
    p = parse_dist('{"n": 2, "probs": {"11": 1.0}}')
    assert p.probs.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_parse_rejects_malformed():
    one_of = 'exactly one of "probs" or "dense" is required'
    bad_n = '"n" must be a nonnegative integer'
    for text, message in (
        ("[1, 2]", "top level must be a JSON object"),
        ('{"n": 2}', one_of),
        ('{"n": 2, "probs": {}, "dense": []}', one_of),
        ('{"n": 2, "probs": {"0": 1.0}}', "key '0' is not a 2-bit string"),
        ('{"n": 2, "probs": {"02": 1.0}}', "key '02' is not a 2-bit string"),
        ('{"n": 2, "probs": {"00": "x"}}', "value for '00' is not a number"),
        ('{"n": -1, "probs": {}}', bad_n),
        ('{"n": 2.5, "probs": {}}', bad_n),
        ('{"n": 2, "probs": {"00": 1.0}, "extra": 3}', "unknown keys: ['extra']"),
        ("not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ):
        with pytest.raises(IqpError, match=re.escape(message)):
            parse_dist(text)


def test_parse_reports_first_bad_item():
    # keys and values are checked as one block, but the first bad item in
    # file order is the one reported, its key before its value
    cases = (
        ('{"0": true, "2": 0.5}', "value for '0' is not a number"),
        ('{"2": 0.5, "0": true}', "key '2' is not a 1-bit string"),
        ('{"2": true, "0": 0.5}', "key '2' is not a 1-bit string"),
        ('{"0": 0.5, "1": null}', "value for '1' is not a number"),
        ('{"0": 0.5, "10": 0.5}', "key '10' is not a 1-bit string"),
    )
    for probs, message in cases:
        with pytest.raises(IqpError, match=re.escape(message)) as info:
            parse_dist(f'{{"n": 1, "probs": {probs}}}')
        assert str(info.value) == message


def test_parse_zero_bit_distribution():
    p = parse_dist('{"n": 0, "probs": {"": 1.0}}')
    assert p.n == 0 and p.probs.tolist() == [1.0]
    assert serialize_dist(p) == '{"n": 0, "probs": {"": 1}}'
