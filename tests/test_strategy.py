import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlearn.strategy import MonotoneStrategy, StrategyProfile, shade

from conftest import (
    QUARTERS,
    RAW_NUMBERS,
    MonotoneStrategyReference,
    constant,
    construction_outcome,
    eval_reference,
    monotone_from_json_reference,
    quarter_strategies,
    shade_reference,
)


class TestEval:
    def test_below_first_threshold(self):
        s = MonotoneStrategy(((0.5, 0.3),))
        assert s.eval(0.4) == 0.0

    def test_right_continuous_at_breakpoint(self):
        s = MonotoneStrategy(((0.5, 0.3),))
        assert s.eval(0.5) == 0.3

    def test_shading_on_grid(self):
        grid = [k / 4 for k in range(5)]
        s = shade(grid, 0.5)
        assert s.eval(0.75) == 0.375

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            MonotoneStrategy(((0.0, 0.3), (1.0, 0.2)))
        with pytest.raises(ValueError):
            MonotoneStrategy(((0.5, 0.3), (0.5, 0.4)))
        with pytest.raises(ValueError):
            MonotoneStrategy(((0.5, 0.1),), default_bid=0.2)

    def test_non_finite_rejected(self):
        nan, inf = float("nan"), float("inf")
        for bps, default in (
            (((0.5, nan),), 0.0),
            (((0.0, 0.1), (0.5, nan)), 0.0),
            (((nan, 0.3),), 0.0),
            (((0.5, inf),), 0.0),
            ((), nan),
        ):
            with pytest.raises(ValueError):
                MonotoneStrategy(bps, default)


class TestShade:
    def test_zero_alpha(self):
        s = shade([0, 0.5, 1.0], 0.0)
        assert all(s.eval(v) == 0.0 for v in (0, 0.3, 1.0))

    def test_truthful(self):
        s = shade([0, 0.5, 1.0], 1.0)
        assert s.eval(1.0) == 1.0

    def test_half(self):
        s = shade([0, 1.0], 0.5)
        assert (s.eval(0.0), s.eval(1.0)) == (0.0, 0.5)


@given(st.integers(0, 2**31), st.floats(0, 2), st.floats(0, 2))
@settings(max_examples=80, deadline=None)
def test_eval_monotone_and_bounded(seed, v1, v2):
    rng = np.random.default_rng(seed)
    grid = np.unique(rng.random(4))
    bids = np.sort(rng.random(len(grid)))
    s = MonotoneStrategy(tuple(zip(grid, bids)))
    lo, hi = sorted((v1, v2))
    assert s.eval(lo) <= s.eval(hi)
    assert 0.0 <= s.eval(v1) <= 1.0


@given(quarter_strategies(), st.data())
@settings(max_examples=150, deadline=None)
def test_eval_matches_bisect_reference(s, data):
    # Long runs of equal bids, -0.0 among bids, values and default bids, values at,
    # between and off the thresholds, and strategies with no breakpoints; the bytes
    # tell -0.0 from 0.0.
    at = st.sampled_from([t for t, _ in s.breakpoints]) if s.breakpoints else QUARTERS
    value = st.one_of(QUARTERS, st.floats(0.0, 2.0), st.just(-0.0), at)
    values = data.draw(st.lists(value, max_size=20))
    want = np.array([eval_reference(s, v) for v in values], dtype=float).tobytes()
    assert s.eval(values).tobytes() == want
    assert s.eval(np.array(values).reshape(-1, 1)).tobytes() == want
    scalars = [s.eval(v) for v in values]
    assert all(type(b) is float for b in scalars)
    assert np.array(scalars, dtype=float).tobytes() == want


def test_eval_rejects_a_negative_value():
    s = shade([0.0, 1.0], 0.5)
    for v in (-0.5, [0.5, -1e-300], np.array([[0.0], [-1.0]])):
        with pytest.raises(ValueError, match="value must be nonnegative"):
            s.eval(v)


def test_eval_rejects_a_nan_value():
    # A NaN value is past every threshold in a binary search, which gave the top bid.
    s = MonotoneStrategy(((0.5, 0.2),))
    for v in (float("nan"), [0.5, float("nan")], np.array([[0.0], [np.nan]])):
        with pytest.raises(ValueError, match="value must be nonnegative"):
            s.eval(v)


class TestProfile:
    def test_json_roundtrip(self):
        p = StrategyProfile((shade([0, 1], 0.5), constant(0.2)))
        assert StrategyProfile.from_json(p.to_json()) == p

    def test_bids_matrix_matches_eval(self, rng):
        p = StrategyProfile((shade([0, 0.5, 1], 0.5), constant(0.2), shade([0.3, 0.9], 1.0)))
        values = np.round(rng.random((7, 3)), 1)
        expected = [[p[j].eval(v) for j, v in enumerate(row)] for row in values]
        assert p.bids(values).tolist() == expected

    @given(st.lists(quarter_strategies(max_size=8), min_size=1, max_size=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_bids_matrix_matches_reference(self, strategies, data):
        p = StrategyProfile(tuple(strategies))
        row = st.lists(QUARTERS | st.just(-0.0), min_size=p.n, max_size=p.n)
        values = np.array(data.draw(st.lists(row, max_size=6)), dtype=float).reshape(-1, p.n)
        want = np.array([[eval_reference(s, v) for s, v in zip(p, r)] for r in values.tolist()])
        assert p.bids(values).tobytes() == want.reshape(-1, p.n).tobytes()

    def test_bids_shape_mismatch(self):
        p = StrategyProfile((constant(0.0), constant(0.1)))
        with pytest.raises(ValueError, match=r"values must be m x 2, got shape \(3, 3\)"):
            p.bids(np.zeros((3, 3)))


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_checks_match_generator_checks(data):
    # The same error, raised first, or the same breakpoints, over unsorted and
    # repeated thresholds, decreasing bids, signed zeros and non-finite numbers.
    k = data.draw(st.integers(0, 5))
    thresholds = data.draw(st.lists(RAW_NUMBERS, min_size=k, max_size=k))
    bids = data.draw(st.lists(RAW_NUMBERS, min_size=k, max_size=k))
    if data.draw(st.booleans()):
        thresholds, bids = sorted(set(thresholds)), sorted(bids)[: len(set(thresholds))]
    args = tuple(zip(thresholds, bids)), data.draw(RAW_NUMBERS)

    def fields(s):
        return s.breakpoints, s.default_bid

    got = construction_outcome(lambda: MonotoneStrategy(*args), fields)
    assert got == construction_outcome(lambda: MonotoneStrategyReference(*args), fields)


def _strategy_fields(s):
    return s.breakpoints, s.default_bid


JSON_NUMBERS = st.one_of(
    RAW_NUMBERS, st.booleans(), st.integers(-(10**20), 10**20), st.sampled_from([0.0, -0.0])
)


@st.composite
def breakpoint_lists(draw) -> list:
    """Valid [value, bid] float lists most often; otherwise pairs of any length, ints,
    bools, NaN and infinities, and items that are no list."""
    if draw(st.booleans()):
        thresholds = sorted(set(draw(st.lists(st.floats(0.0, 2.0), max_size=6))))
        k = len(thresholds)
        bids = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k)))
        return [[t, b] for t, b in zip(thresholds, bids)]
    item = st.one_of(
        st.lists(JSON_NUMBERS, min_size=2, max_size=2),
        st.lists(JSON_NUMBERS, max_size=3),
        st.sampled_from([None, "ab", 0.5, {"a": 1}]),
    )
    return draw(st.lists(item, max_size=5))


@given(breakpoint_lists(), st.one_of(st.just(0.0), JSON_NUMBERS))
@settings(max_examples=400, deadline=None)
def test_from_json_matches_the_per_pair_checks(points, default_bid):
    obj = {"breakpoints": points, "default_bid": default_bid}
    got = construction_outcome(lambda: MonotoneStrategy.from_json(obj), _strategy_fields)
    want = construction_outcome(lambda: monotone_from_json_reference(obj), _strategy_fields)
    assert got == want


@given(
    st.lists(st.one_of(QUARTERS, st.sampled_from([-0.0, 0, 1, True]), st.floats(0.0, 2.0)),
             max_size=8),
    st.one_of(QUARTERS, st.floats(-0.5, 1.5)),
)
@settings(max_examples=300, deadline=None)
def test_shade_matches_the_per_point_build(grid, alpha):
    got = construction_outcome(lambda: shade(grid, alpha), _strategy_fields)
    assert got == construction_outcome(lambda: shade_reference(grid, alpha), _strategy_fields)
