import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from auctionlearn.auction import (
    ALLPAY_NONE,
    ALLPAY_RANDOM,
    FPA_NONE,
    FPA_RANDOM,
    CandidateBid,
    Format,
    Tie,
    _bid_axis,
    _bid_masses,
    _leave_one_out_row,
    _share,
    _tie_dp,
    _top_bids,
    allocation_probability,
    best_response,
    candidate_allocations,
    ex_post_utility,
    push_forward,
)
from auctionlearn.da import DAPureStrategy, simulate_da
from auctionlearn.dist import (
    DiscreteDistribution,
    cdf_of_max,
    make_discrete,
    product_of,
    uniform_on,
)
from auctionlearn.equilibrium import uniform_bid_grid
from auctionlearn.pandora import SearchInstance
from auctionlearn.strategy import MonotoneStrategy, shade

from conftest import (
    QUARTERS,
    push_forward_reference,
    quarter_strategies,
    allocation_probability_by_search,
    allocation_probability_reference,
    best_response_profile_reference,
    candidate_allocations_reference,
    leave_one_out_allocations_reference,
    constant,
    ex_post_allocation,
    interim_by_enumeration,
    interim_utility_exact,
    monotone_best_response_profile,
    point_mass,
    quarter_distributions,
    random_bid_dist,
    tie_dp_ones_start_reference,
)


class TestExPost:
    def test_tie_random_allocation(self):
        assert ex_post_utility(FPA_RANDOM, 0, 1.0, [0.5, 0.5]) == 0.25

    def test_tie_no_allocation(self):
        assert ex_post_utility(FPA_NONE, 0, 1.0, [0.5, 0.5]) == 0.0

    def test_all_pay_loser_pays(self):
        assert ex_post_utility(ALLPAY_RANDOM, 0, 1.0, [0.3, 0.5]) == -0.3

    def test_all_pay_winner(self):
        assert ex_post_utility(ALLPAY_RANDOM, 1, 1.0, [0.3, 0.5]) == 0.5

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="bidder 2 out of range for 2 bids"):
            ex_post_utility(FPA_RANDOM, 2, 1.0, [0.1, 0.2])

    @pytest.mark.parametrize("bids", [0.5, [0.3, math.nan], [[math.nan, 0.3], [0.1, 0.2]]])
    def test_scalar_and_nan_bids_raise_value_error(self, bids):
        # A NaN rival bid would otherwise compare below every own bid, a silent 0.0.
        match = "a bid must not be NaN" if np.ndim(bids) else "bids must have a bidder axis"
        for rule in (FPA_RANDOM, ALLPAY_NONE):
            with pytest.raises(ValueError, match=match):
                ex_post_utility(rule, 0, 1.0, bids)

    def test_one_float_per_bid_vector(self):
        u = ex_post_utility(FPA_RANDOM, 1, 0.8, [0.1, 0.2])
        assert isinstance(u, float) and u == pytest.approx(0.6)

    def test_value_broadcasts_against_rows(self):
        bids = np.array([[0.5, 0.5], [0.2, 0.5]])
        u = ex_post_utility(FPA_RANDOM, 0, np.array([[1.0], [0.6]]), bids)
        assert u == pytest.approx(np.array([[0.25, 0.0], [0.05, 0.0]]))


def ex_post_reference(rule, i, v_i, bids):
    """(share, utility) of bidder i at one bid vector, written out row by row."""
    top = max(bids)
    k = bids.count(top)
    if bids[i] < top:
        alloc = 0.0
    elif k == 1:
        alloc = 1.0
    elif rule.tie is Tie.RANDOM_ALLOCATION:
        alloc = 1.0 / k
    else:
        alloc = 0.0
    if rule.format is Format.ALL_PAY:
        return alloc, alloc * v_i - bids[i]
    return alloc, alloc * (v_i - bids[i])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_batched_kernel_matches_scalar_reference(data):
    rule = data.draw(st.sampled_from([FPA_RANDOM, FPA_NONE, ALLPAY_RANDOM, ALLPAY_NONE]))
    n = data.draw(st.integers(1, 5))
    lead = data.draw(st.sampled_from([(), (4,), (2, 3)]))  # shapes (n,), (m, n), (a, m, n)
    bids = data.draw(hnp.arrays(float, lead + (n,), elements=QUARTERS))
    values = data.draw(hnp.arrays(float, lead, elements=QUARTERS))
    alloc = ex_post_allocation(rule.tie, bids)
    assert alloc.shape == bids.shape
    for i in range(n):
        util = np.asarray(ex_post_utility(rule, i, values, bids))
        assert util.shape == lead
        for idx in np.ndindex(*lead):
            share, u = ex_post_reference(rule, i, float(values[idx]), bids[idx].tolist())
            assert alloc[idx + (i,)] == share
            assert util[idx] == u


# Finite, nonnegative bids that tie often, -0.0 among them: what strategies bid.
SHARE_BIDS = st.one_of(QUARTERS, st.just(-0.0), st.floats(0.0, 1.0))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_share_of_top_bids_matches_ex_post_allocation(data):
    # Zero rows, a bidder without opponents, stacks of rows, and own bids that
    # broadcast a probe axis against the rows.
    tie = data.draw(st.sampled_from(list(Tie)))
    lead = data.draw(st.sampled_from([(0,), (4,), (2, 3), (3, 0)]))
    n = data.draw(st.integers(1, 5))
    probes = data.draw(st.sampled_from([(), (3,)]))
    own = data.draw(hnp.arrays(float, probes + lead, elements=SHARE_BIDS))
    opp = data.draw(hnp.arrays(float, lead + (n - 1,), elements=SHARE_BIDS))
    got = _share(own, *_top_bids(tie, opp))
    bids = np.concatenate([own[..., None], np.broadcast_to(opp, probes + opp.shape)], axis=-1)
    want = ex_post_allocation(tie, bids)[..., 0]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # simulate_da reads its shares from the same two kernels, one claims row per
    # call: without costs, and with every value 1.0 above the price, its
    # utilities are its shares.
    claims = data.draw(st.lists(st.one_of(QUARTERS, st.just(-0.0)), min_size=n, max_size=n))
    price = max(claims)
    inst = SearchInstance(product_of([point_mass(1.0)] * n, 2.0), (0.0,) * n)
    profile = [DAPureStrategy(1.0, MonotoneStrategy(((0.0, c),))) for c in claims]
    out = simulate_da(inst, profile, [price + 1.0] * n)
    want = ex_post_allocation(Tie.RANDOM_ALLOCATION, claims)
    assert np.array(out.utilities).tobytes() == want.tobytes()
    assert out.winner == (None if claims.count(price) > 1 else claims.index(price))


@pytest.mark.parametrize("shape", [(3, 0), (0,), (0, 0)])
def test_allocation_without_bidders_raises_value_error(shape):
    with pytest.raises(ValueError, match="bidder 0 out of range for 0 bids"):
        ex_post_utility(FPA_RANDOM, 0, 1.0, np.zeros(shape))


# The ex post oracle of tests/conftest.py on the shapes at its edges: a bid
# array without bidders, and a scalar bid, one bidder alone.


@pytest.mark.parametrize("shape", [(3, 0), (0,), (0, 0)])
def test_ex_post_oracle_without_bidders_raises_value_error(shape):
    for tie in Tie:
        with pytest.raises(ValueError):
            ex_post_allocation(tie, np.zeros(shape))


def test_scalar_bid_is_one_bidder_alone():
    for tie in Tie:
        got = ex_post_allocation(tie, 0.5)
        assert got.shape == () and got == 1.0


# Quarter-grid bids tie with the atoms; off-grid bids fall between them, and
# bids in [0, 2] also lie below the smallest and above the largest atom.
BIDS = st.one_of(QUARTERS, st.floats(0.0, 2.0))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_tie_dp_matches_scalar_reference(data):
    tie = data.draw(st.sampled_from(list(Tie)))
    opp = data.draw(st.lists(quarter_distributions(), max_size=5))
    bids = data.draw(st.lists(BIDS, min_size=1, max_size=8))
    for above, kernel in ((False, lambda x: allocation_probability(tie, opp, x)),
                          (True, lambda x: cdf_of_max(opp, x))):
        want = [allocation_probability_reference(tie, opp, CandidateBid(b, above)) for b in bids]
        assert kernel(bids).tolist() == want
        assert [kernel(b) for b in bids] == want


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_tie_dp_from_the_first_factor_has_the_bits_of_the_ones_start(data):
    # Zero to three opponents, both tie rules, bids on one axis or on a stack of
    # axes: the polynomial started from the first opponent's (P(below), P(at))
    # has the shape and the bits of the one started from ones, as 1.0 * x == x.
    tie = data.draw(st.sampled_from(list(Tie)))
    like = np.empty(data.draw(st.sampled_from([(1,), (6,), (3, 6)])))
    elements = st.one_of(QUARTERS, st.just(-0.0), st.floats(0.0, 1.0))
    probs = hnp.arrays(float, like.shape, elements=elements)
    masses = [(data.draw(probs), data.draw(probs)) for _ in range(data.draw(st.integers(0, 3)))]
    got, want = _tie_dp(tie, like, masses), tie_dp_ones_start_reference(tie, like, masses)
    assert got.shape == want.shape == like.shape
    assert got.tobytes() == want.tobytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_table_lookup_equals_tie_dp(data):
    # Bids at every base, between neighbouring bases, above the top one, at -0.0
    # and anywhere in [0, 2], pushed onto the axis with the opponents' atoms as a
    # bidder's bids are; the exact read at a bid's base must give the bits of the
    # tie DP fed by binary searches, and so must ``allocation_probability``.
    tie = data.draw(st.sampled_from(list(Tie)))
    opp = data.draw(st.lists(quarter_distributions(), max_size=4))
    bases = sorted({0.0} | {a for d in opp for a in d.atoms})
    special = bases + [(a + b) / 2 for a, b in zip(bases, bases[1:])] + [bases[-1] + 0.5, -0.0]
    bids = np.array(data.draw(st.lists(st.sampled_from(special) | BIDS, min_size=1, max_size=8)))
    axis = np.array(sorted({0.0}.union(bases, bids.tolist())))
    masses = [_bid_masses(axis, np.array(d.atoms), np.array(d.weights)) for d in opp]
    masses.append(_bid_masses(axis, np.sort(bids), np.full(len(bids), 1 / len(bids))))
    table = leave_one_out_allocations_reference(tie, np.array(masses))
    got = table[-1, 2 * axis.searchsorted(bids)]
    want = allocation_probability_by_search(tie, opp, bids)
    assert got.tolist() == want.tolist()
    assert got.tobytes() == want.tobytes()
    assert allocation_probability(tie, opp, bids).tobytes() == want.tobytes()


@st.composite
def bid_distributions(draw) -> DiscreteDistribution:
    """A quarter-grid distribution or a ``random_bid_dist`` (2-decimal atoms)."""
    if draw(st.booleans()):
        return draw(quarter_distributions())
    return random_bid_dist(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_leave_one_out_rows_match_each_opponents_table(data):
    # One to six bidders on a shared axis. Row i, at 0 and the other bidders'
    # atoms, must give the bytes of the two-pass table of bidder i's opponents;
    # at every other base, both of its entries read the right limit of the
    # table's base below it.
    tie = data.draw(st.sampled_from(list(Tie)))
    dists = data.draw(st.lists(bid_distributions(), min_size=1, max_size=6))
    axis = np.array(sorted({0.0} | {a for d in dists for a in d.atoms}))
    masses = [_bid_masses(axis, np.array(d.atoms), np.array(d.weights)) for d in dists]
    alloc = leave_one_out_allocations_reference(tie, np.array(masses))
    for i, row in enumerate(alloc):
        want = candidate_allocations_reference(tie, dists[:i] + dists[i + 1 :])
        keep = axis.searchsorted(want["base"][0::2])
        assert axis[keep].tobytes() == want["base"][0::2].tobytes()
        got = want.copy()
        got["alloc"] = row[(2 * keep[:, None] + [0, 1]).ravel()]
        assert got.tobytes() == want.tobytes()
        other = np.setdiff1d(np.arange(len(axis)), keep)
        below = 2 * keep[keep.searchsorted(other) - 1] + 1
        assert row[2 * other].tobytes() == row[below].tobytes()
        assert row[2 * other + 1].tobytes() == row[below].tobytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_leave_one_out_rows_match_block_reference(data):
    # One to six bidders, often sharing quarter-grid atoms, on an axis that may
    # also hold bases nobody bids on (zero-mass columns); a lone bidder has no
    # opponents. Every row must give the bytes of the block kernel that feeds
    # each bidder's own factor (1, 0).
    tie = data.draw(st.sampled_from(list(Tie)))
    dists = data.draw(st.lists(bid_distributions(), min_size=1, max_size=6))
    idle = data.draw(st.lists(BIDS, max_size=4))
    axis = np.array(sorted({0.0}.union(idle, *(d.atoms for d in dists))))
    masses = np.array([_bid_masses(axis, np.array(d.atoms), np.array(d.weights)) for d in dists])
    want = leave_one_out_allocations_reference(tie, masses)
    for i, row in enumerate(want):
        assert _leave_one_out_row(tie, masses, i).tobytes() == row.tobytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_stacked_rows_have_the_bits_of_each_profile_alone(data):
    # One to four profiles of the same one to five bidders, stacked on one axis
    # that also holds bases nobody bids on. The kernel takes the prefix sums of
    # whatever stack it gets: every profile's row, for every i up to n (nobody
    # left out), must have the same bytes from the whole stack, from a
    # fancy-indexed sub-stack of the profiles still alive, and from its own masses.
    tie = data.draw(st.sampled_from(list(Tie)))
    n = data.draw(st.integers(1, 5))
    bidders = st.lists(bid_distributions(), min_size=n, max_size=n)
    profiles = data.draw(st.lists(bidders, min_size=1, max_size=4))
    idle = data.draw(st.lists(BIDS, max_size=4))
    axis = np.array(sorted({0.0}.union(idle, *(d.atoms for p in profiles for d in p))))
    stack = np.array(
        [[_bid_masses(axis, np.array(d.atoms), np.array(d.weights)) for d in p] for p in profiles]
    )
    alive = sorted(data.draw(st.sets(st.integers(0, len(profiles) - 1), min_size=1)))
    for i in range(n + 1):
        whole, sub = _leave_one_out_row(tie, stack, i), _leave_one_out_row(tie, stack[alive], i)
        for p, masses in enumerate(stack):
            own = _leave_one_out_row(tie, masses, i).tobytes()
            assert whole[p].tobytes() == own
            if p in alive:
                assert sub[alive.index(p)].tobytes() == own


@pytest.mark.parametrize("tie", list(Tie))
def test_lone_bidder_row_wins_every_bid(tie):
    # No opponent: the tie DP runs over no factor and the right limits multiply
    # none, on an axis whose bases 0.0 and 0.5 carry no mass.
    masses = np.array([[0.0, 0.25, 0.0, 0.75]])
    row = _leave_one_out_row(tie, masses, 0)
    assert row.tobytes() == np.ones(8).tobytes()
    assert row.tobytes() == leave_one_out_allocations_reference(tie, masses)[0].tobytes()


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_candidate_table_matches_two_pass_reference(data):
    # No opponent up to five, sharing quarter-grid atoms and often 0.0; the
    # one-pass table must give the two-pass table's bytes.
    tie = data.draw(st.sampled_from(list(Tie)))
    opp = data.draw(st.lists(quarter_distributions(), max_size=5))
    want = candidate_allocations_reference(tie, opp)
    assert candidate_allocations(tie, opp).tobytes() == want.tobytes()


@pytest.mark.parametrize("tie", list(Tie))
def test_candidate_table_with_a_negative_zero_atom(tie):
    # -0.0 equals the base 0.0, which the table keeps as +0.0.
    opp = [make_discrete([-0.0, 0.5], [0.3, 0.7]), make_discrete([0.0, 0.5, 1.0], [0.2, 0.3, 0.5])]
    got = candidate_allocations(tie, opp)
    assert got.tobytes() == candidate_allocations_reference(tie, opp).tobytes()
    assert np.signbit(got["base"]).sum() == 0


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_scalar_call_matches_array_element(data):
    rule = data.draw(st.sampled_from([FPA_RANDOM, FPA_NONE, ALLPAY_RANDOM, ALLPAY_NONE]))
    opp = data.draw(st.lists(quarter_distributions(), max_size=4))
    bids = data.draw(st.lists(BIDS, min_size=1, max_size=6))
    values = data.draw(st.lists(QUARTERS, min_size=len(bids), max_size=len(bids)))
    for kernel in (lambda x: allocation_probability(rule.tie, opp, x),
                   lambda x: cdf_of_max(opp, x)):
        alloc = kernel(bids).tolist()
        for b, a in zip(bids, alloc):
            p = kernel(b)
            assert isinstance(p, float) and p == a
    utils = interim_utility_exact(rule, values, bids, opp).tolist()
    sups, picks = best_response(rule, values, opp)
    for k, (v, b) in enumerate(zip(values, bids)):
        u = interim_utility_exact(rule, v, b, opp)
        assert isinstance(u, float) and u == utils[k]
        sup, pick = best_response(rule, v, opp)
        assert isinstance(sup, float) and sup == sups[k] and pick == picks[k]


@st.composite
def long_distributions(draw) -> DiscreteDistribution:
    """Up to 40 atoms, -0.0 among them, so that many atoms share one bid."""
    atom = st.one_of(QUARTERS, st.floats(0.0, 1.0), st.just(-0.0))
    atoms = draw(st.lists(atom, min_size=1, max_size=40, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms), max_size=len(atoms)))
    return make_discrete(atoms, weights)


@given(long_distributions(), quarter_strategies(max_size=10))
@settings(max_examples=150, deadline=None)
def test_push_forward_matches_dict_reference(f_j, s_j):
    # Runs of equal bids longer than 8 atoms, where a pairwise sum would differ,
    # and -0.0 bids merged with 0.0 ones; the bytes tell -0.0 from 0.0.
    got, want = push_forward(f_j, s_j), push_forward_reference(f_j, s_j)
    assert got == want
    assert np.array(got.atoms).tobytes() == np.array(want.atoms).tobytes()
    assert np.array(got.weights).tobytes() == np.array(want.weights).tobytes()


class TestPushForward:
    def test_point_mass(self):
        d = push_forward(point_mass(1.0), MonotoneStrategy(((1.0, 0.4),)))
        assert d.atoms == (0.4,) and d.weights == (1.0,)

    def test_constant_strategy_merges(self):
        d = push_forward(uniform_on([0, 0.5, 1.0]), constant(0.2))
        assert d.atoms == (0.2,) and d.weights == (1.0,)

    def test_shade(self):
        d = push_forward(uniform_on([0.0, 1.0]), shade([0.0, 1.0], 0.5))
        assert d.atoms == (0.0, 0.5)
        assert d.weights == (0.5, 0.5)


class TestInterimExact:
    def test_win_no_tie(self):
        opp = [DiscreteDistribution((0.2, 0.6), (0.5, 0.5))]
        assert interim_utility_exact(FPA_RANDOM, 1.0, 0.4, opp) == pytest.approx(0.3)

    def test_tie_expectation(self):
        opp = [DiscreteDistribution((0.2, 0.6), (0.5, 0.5))]
        # win outright w.p. 1/2 plus half of a two-way tie w.p. 1/2
        assert interim_utility_exact(FPA_RANDOM, 1.0, 0.6, opp) == pytest.approx(0.3)

    def test_four_way_tie(self):
        opp = [DiscreteDistribution((0.5,), (1.0,))] * 3
        assert interim_utility_exact(FPA_RANDOM, 1.0, 0.5, opp) == pytest.approx(0.125)

    def test_matches_enumeration_on_random_instances(self, rng):
        rules = [FPA_RANDOM, FPA_NONE, ALLPAY_RANDOM, ALLPAY_NONE]
        for trial in range(100):
            opp = [random_bid_dist(rng) for _ in range(rng.integers(0, 4))]
            rule = rules[trial % 4]
            v = float(rng.random())
            probes = [float(rng.random())] + [a for d in opp for a in d.atoms[:1]]
            for b in probes:
                dp = interim_utility_exact(rule, v, b, opp)
                assert dp == pytest.approx(interim_by_enumeration(rule, v, b, opp), abs=1e-10)

    def test_nan_bid_raises(self):
        # A NaN bid won outright under random allocation and gave a NaN utility.
        f = DiscreteDistribution((0.2, 0.6), (0.5, 0.5))
        for opp in ([], [f, f]):
            for bases in (math.nan, [0.2, math.nan], [[math.nan], [0.6]]):
                with pytest.raises(ValueError, match="^a bid must not be NaN$"):
                    allocation_probability(Tie.RANDOM_ALLOCATION, opp, bases)
        with pytest.raises(ValueError, match="^a bid must not be NaN$"):
            interim_utility_exact(FPA_RANDOM, 0.5, math.nan, [f])

    @pytest.mark.parametrize("tie", list(Tie))
    def test_bid_shapes_and_a_lone_bidder(self, tie):
        # A scalar bid gives a float and an array keeps its shape; no opponent
        # puts a (0, G) mass matrix on the axis, and every bid wins, -0.0 and
        # bids above every atom among them.
        bases = np.array([[0.0, 0.2], [-0.0, 2.0]])
        opp = [DiscreteDistribution((0.2, 0.6), (0.5, 0.5)), make_discrete([0.0, 0.2], [1, 3])]
        axis, masses = _bid_axis([], bases)
        assert axis.tolist() == [0.0, 0.2, 2.0] and masses.shape == (0, 3)
        got = allocation_probability(tie, [], bases)
        assert got.shape == (2, 2) and got.tobytes() == np.ones((2, 2)).tobytes()
        got = allocation_probability(tie, opp, bases)
        assert got.tobytes() == allocation_probability_by_search(tie, opp, bases).tobytes()
        for o in ([], opp):
            p = allocation_probability(tie, o, 0.2)
            assert type(p) is float and p == allocation_probability_by_search(tie, o, 0.2)

    def test_limit_bid_wins_weak_inequality(self):
        opp = [DiscreteDistribution((0.2,), (1.0,))]
        # The exact bid ties with the atom; its right limit beats it outright.
        assert allocation_probability(FPA_RANDOM.tie, opp, 0.2) == 0.5
        alloc = cdf_of_max(opp, 0.2)
        assert alloc * (1.0 - 0.2) == pytest.approx(0.8)


class TestBestResponse:
    def test_just_above_point_mass(self):
        opp = [DiscreteDistribution((0.2,), (1.0,))]
        sup, arg = best_response(FPA_RANDOM, 1.0, opp)
        assert sup == pytest.approx(0.8)
        assert arg == CandidateBid(0.2, limit_above=True)

    def test_unprofitable_stays_at_zero(self):
        opp = [DiscreteDistribution((0.9,), (1.0,))]
        sup, arg = best_response(FPA_RANDOM, 0.5, opp)
        assert sup == 0.0
        assert arg == CandidateBid(0.0, False)

    def test_no_opponents(self):
        sup, arg = best_response(FPA_RANDOM, 0.7, [])
        assert (sup, arg) == (0.7, CandidateBid(0.0, False))

    def test_dominates_probed_bids(self, rng):
        for _ in range(50):
            opp = [random_bid_dist(rng) for _ in range(rng.integers(1, 4))]
            v = float(rng.random())
            sup, _ = best_response(FPA_RANDOM, v, opp)
            for b in rng.random(5):
                assert sup >= interim_utility_exact(FPA_RANDOM, v, float(b), opp) - 1e-12

    def test_invariant_to_atom_split(self):
        whole = [DiscreteDistribution((0.2, 0.6), (0.5, 0.5))]
        d = make_discrete([0.2, 0.2, 0.6], [0.25, 0.25, 0.5])
        split = [DiscreteDistribution(d.atoms, d.weights)]
        for v in (0.3, 0.7, 1.0):
            assert best_response(FPA_RANDOM, v, whole)[0] == pytest.approx(
                best_response(FPA_RANDOM, v, split)[0], abs=1e-12
            )

    def test_allocation_nondecreasing_in_bid(self, rng):
        for _ in range(20):
            opp = [random_bid_dist(rng) for _ in range(rng.integers(1, 4))]
            allocs = candidate_allocations(FPA_RANDOM.tie, opp)["alloc"].tolist()
            assert all(a2 >= a1 - 1e-12 for a1, a2 in zip(allocs, allocs[1:]))


class TestMonotoneBestResponse:
    def test_spec_grid(self):
        opp = [DiscreteDistribution((0.2, 0.6), (0.5, 0.5))]
        grid = [0.0, 0.2, 0.25, 0.6, 0.65, 1.0]
        s = monotone_best_response_profile(FPA_RANDOM, [0.1, 0.5, 1.0], opp, grid)
        bids = [s.eval(v) for v in (0.1, 0.5, 1.0)]
        assert bids[0] == 0.0
        assert bids == sorted(bids)
        assert bids[1] == 0.25  # the lowest grid bid above 0.2

    def test_all_values_below_opponents(self):
        opp = [DiscreteDistribution((0.8,), (1.0,))]
        # 0.1 and 0.4 never win: the first maximum is 0.1, which becomes 0.0.
        s = monotone_best_response_profile(FPA_RANDOM, [0.1, 0.3], opp, [0.1, 0.4, 0.8, 1.0])
        assert all(s.eval(v) == 0.0 for v in (0.1, 0.3))

    def test_no_opponents_bids_zero(self):
        s = monotone_best_response_profile(FPA_RANDOM, [0.2, 0.9], [], [0.0, 0.5, 1.0])
        assert all(s.eval(v) == 0.0 for v in (0.2, 0.9))

    def test_empty_grid(self):
        opp = [DiscreteDistribution((0.2,), (1.0,))]
        with pytest.raises(ValueError, match="bid_grid is empty"):
            monotone_best_response_profile(FPA_RANDOM, [0.5], opp, [])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_best_response_profile_matches_reference(data):
    rule = data.draw(st.sampled_from([FPA_RANDOM, FPA_NONE, ALLPAY_RANDOM, ALLPAY_NONE]))
    opp = data.draw(st.lists(quarter_distributions(), max_size=4))
    values = data.draw(st.lists(st.one_of(QUARTERS, st.floats(0.0, 1.0)), max_size=8))
    # Quarter bids tie with the atoms; grids often reach H = 1.
    grid = data.draw(
        st.one_of(
            st.lists(st.one_of(QUARTERS, st.floats(0.0, 1.0)), min_size=1, max_size=8),
            st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0]).map(lambda s: uniform_bid_grid(1.0, s)),
        )
    )
    want = best_response_profile_reference(rule, values, opp, grid)
    if any(b2 < b1 for (_, b1), (_, b2) in zip(want, want[1:])):
        with pytest.raises(ValueError, match="best-response bids not monotone"):
            monotone_best_response_profile(rule, values, opp, grid)
    else:
        s = monotone_best_response_profile(rule, values, opp, grid)
        assert s.breakpoints == tuple(want)
