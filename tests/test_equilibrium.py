import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlearn import auction, dist, equilibrium
from auctionlearn.auction import (
    ALLPAY_NONE,
    ALLPAY_RANDOM,
    BEST_RESPONSE_BLOCK,
    FPA_NONE,
    FPA_RANDOM,
    CandidateBid,
    Tie,
    candidate_allocations,
    push_forward,
)
from auctionlearn.dist import (
    DiscreteDistribution,
    ProductDistribution,
    _push_values,
    cdf_of_max,
    make_discrete,
    product_of,
    sample_matrix,
    uniform_on,
)
import conftest
from auctionlearn.equilibrium import (
    _certificate,
    _certify,
    _damped_mix,
    _shade_on_grid,
    solve_bne,
    uniform_bid_grid,
    verify_bne,
)
from auctionlearn.estimate import shade_family, sup_error
from auctionlearn.strategy import MonotoneStrategy, StrategyProfile, shade

from test_bench_bytes import workloads

from conftest import (
    QUARTERS,
    certify_reference,
    constant,
    count_calls,
    damped_mix_reference,
    equilibrium_transfer_check,
    point_mass,
    quarter_distributions,
    random_bid_dist,
    random_product,
    random_profile,
    shade_on_grid_reference,
    snap_to_grid_reference,
    solve_bne_reference,
    verify_bne_reference,
)


def profile_bids(profile) -> tuple:
    """A profile's bids at its strategies' thresholds, by value."""
    return tuple(tuple(b for _, b in s.breakpoints) for s in profile)

K = 20
GRID = [k / K for k in range(K + 1)]
UNIFORM2 = ProductDistribution.iid(uniform_on(GRID), 2, 1.0)


class TestVerify:
    def test_single_bidder_zero(self):
        f = product_of([uniform_on([0, 0.5, 1.0])], 1.0)
        cert = verify_bne(FPA_RANDOM, f, StrategyProfile((constant(0.0),)))
        assert cert.epsilon == 0.0

    def test_shade_half_anchor(self):
        profile = StrategyProfile((shade(GRID, 0.5), shade(GRID, 0.5)))
        cert = verify_bne(FPA_RANDOM, UNIFORM2, profile)
        assert cert.epsilon <= 2 / K

    def test_truthful_is_far(self):
        profile = StrategyProfile((shade(GRID, 1.0), shade(GRID, 1.0)))
        cert = verify_bne(FPA_RANDOM, UNIFORM2, profile)
        assert cert.epsilon >= 0.2

    def test_all_point_masses_at_zero(self, rng):
        f = product_of([point_mass(0.0)] * 3, 1.0)
        profile = StrategyProfile((constant(0.0),) * 3)
        assert verify_bne(FPA_RANDOM, f, profile).epsilon == 0.0

    def test_representation_invariance(self):
        a = make_discrete([0.0, 0.5, 0.5, 1.0], [0.25, 0.2, 0.3, 0.25])
        b = make_discrete([0.0, 0.5, 1.0], [0.25, 0.5, 0.25])
        profile = StrategyProfile((shade([0, 0.5, 1.0], 0.5),) * 2)
        e1 = verify_bne(FPA_RANDOM, product_of([a, a], 1.0), profile).epsilon
        e2 = verify_bne(FPA_RANDOM, product_of([b, b], 1.0), profile).epsilon
        assert e1 == e2

    def test_gaps_nonnegative(self, rng):
        for _ in range(20):
            f = random_product(rng, int(rng.integers(1, 4)))
            profile = random_profile(rng, f)
            cert = verify_bne(FPA_RANDOM, f, profile)
            assert all(g >= 0.0 for row in cert.gaps for _, g in row)
            assert cert.epsilon == max(g for row in cert.gaps for _, g in row)


    def test_nan_gap_raises(self):
        # A NaN value forged past the constructor makes one gap NaN; the
        # certificate must refuse it rather than report the other gaps' max.
        # verify_bne already refuses the NaN value when it evaluates the
        # strategy, so the certifier gets the bids a strategy gave a NaN
        # value before that check: the top bid.
        marginals = [uniform_on([0.0, 0.5, 1.0]) for _ in range(2)]
        f = product_of(marginals, 1.0)
        object.__setattr__(marginals[0], "atoms", (0.0, math.nan, 1.0))
        profile = StrategyProfile((shade([0.0, 0.5, 1.0], 0.5),) * 2)
        with pytest.raises(ValueError, match="value must be nonnegative"):
            verify_bne(FPA_RANDOM, f, profile)
        bids = [np.array([0.0, 0.5, 0.5]), np.array([0.0, 0.25, 0.5])]
        pushed = [_push_values(m, b) for m, b in zip(f.marginals, bids)]
        with pytest.raises(AssertionError, match="^gap nan is negative or NaN: candidates not"):
            certify_bids(FPA_RANDOM, f, bids, pushed)
        axis = np.array([0.0, 0.25, 0.5])
        masses = pushed_masses(axis, pushed)[None]
        for bound in ((math.inf, 0), (math.inf, 1), (0.0, 0)):
            with pytest.raises(AssertionError, match="^gap nan is negative or NaN: candidates"):
                _certify(FPA_RANDOM, f, axis, [bids], masses, bound)

    def test_negative_gap_raises(self, monkeypatch):
        # The own bid's exact column is a candidate with the own utility's bits, so
        # no gap is below 0; a forged pick must raise. At value 0 the pick is bid 0.0,
        # which wins a tie with the opponent's bid 0.0 (1/3) half the time, and the
        # own utility is 0.0. Forged to the next base, 0.25, with the allocation
        # kept, the supremum is 1/6 * (0 - 0.25), so the gap is -1/24.
        argmax = auction._argmax_picks

        def forged(*args):
            picks, won = argmax(*args)
            picks[:, 0] += 2
            return picks, won

        monkeypatch.setattr(equilibrium, "_argmax_picks", forged)
        f = product_of([uniform_on([0.0, 0.5, 1.0])] * 2, 1.0)
        profile = StrategyProfile((shade([0.0, 0.5, 1.0], 0.5),) * 2)
        gap = "-0.041666666666666664"
        with pytest.raises(AssertionError, match=f"^gap {gap} is negative or NaN: candidates"):
            verify_bne(FPA_RANDOM, f, profile)

    def test_bid_above_h_raises(self):
        profile = StrategyProfile((shade(GRID, 0.5), constant(5.0)))
        with pytest.raises(ValueError, match="above H"):
            verify_bne(FPA_RANDOM, UNIFORM2, profile)


RULES = [FPA_RANDOM, FPA_NONE, ALLPAY_RANDOM, ALLPAY_NONE]


def quarter_product(rng, n):
    """n marginals on random subsets of the quarter grid."""
    quarters = [0.0, 0.25, 0.5, 0.75, 1.0]
    marginals = []
    for _ in range(n):
        atoms = rng.choice(quarters, size=int(rng.integers(1, 6)), replace=False)
        marginals.append(make_discrete(atoms.tolist(), (rng.random(len(atoms)) + 0.05).tolist()))
    return product_of(marginals, 1.0)


def grid_profile(rng, f, step=0.25):
    """Nondecreasing bids on a grid of the given step, so that bids tie across bidders."""
    strategies = []
    for m in f.marginals:
        bids = np.sort(np.floor(rng.random(len(m.atoms)) / step) * step)
        strategies.append(MonotoneStrategy(tuple(zip(m.atoms, bids.tolist()))))
    return StrategyProfile(tuple(strategies))


class TestVerifyReference:
    """The batched certificate equals a scalar scan over candidates, value by value."""

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: f"{r.format.value}-{r.tie.value}")
    def test_tie_heavy_instances(self, rule, rng):
        for _ in range(40):
            f = quarter_product(rng, int(rng.integers(1, 6)))
            profile = grid_profile(rng, f)
            assert verify_bne(rule, f, profile) == verify_bne_reference(rule, f, profile)

    @pytest.mark.parametrize("rule", RULES, ids=lambda r: f"{r.format.value}-{r.tie.value}")
    def test_values_span_several_row_blocks(self, rule, rng):
        # Bidder 0 has 257 values and bids on the quarter grid; its opponents
        # bid on a 1/128 grid, so its values x candidates utility matrix takes
        # several row blocks.
        fine = uniform_on([k / 256 for k in range(257)])
        opp = [uniform_on([k / 128 for k in range(129)]) for _ in range(2)]
        f = product_of([fine, *opp], 1.0)
        profile = StrategyProfile(
            (grid_profile(rng, f)[0], *grid_profile(rng, f, step=1 / 128)[1:])
        )
        pushed = [push_forward(m, s) for m, s in zip(opp, profile[1:])]
        cells = len(fine.atoms) * len(candidate_allocations(rule.tie, pushed))
        assert cells > 2 * BEST_RESPONSE_BLOCK
        assert verify_bne(rule, f, profile) == verify_bne_reference(rule, f, profile)


@st.composite
def tie_heavy_instances(draw, max_n=4):
    """A rule and 1 to ``max_n`` marginals of `quarter_distributions`, H = 1."""
    rule = draw(st.sampled_from(RULES))
    n = draw(st.integers(1, max_n))
    return rule, product_of([draw(quarter_distributions()) for _ in range(n)], 1.0)


def pushed_masses(axis, pushed):
    """The bid masses on ``axis`` of the bid distributions ``pushed``, one row each."""
    masses = np.zeros((len(pushed), len(axis)))
    for row, d in zip(masses, pushed):
        row[axis.searchsorted(d.atoms)] = d.weights
    return masses


def certify_bids(rule, f, bids, pushed):
    """``_certificate`` of the bids at every bidder's atoms, whose bid distributions are
    ``pushed``: their masses are placed on the axis of 0.0 and every bid."""
    axis = np.array(sorted({0.0}.union(*(b.tolist() for b in bids))))
    return _certificate(rule, f, axis, bids, pushed_masses(axis, pushed))


def certify_profile(rule, f, profile, pushed):
    """``_certificate`` of a profile, from its bids at every bidder's atoms."""
    bids = [s.eval(m.arrays[0]) for m, s in zip(f.marginals, profile)]
    return certify_bids(rule, f, bids, pushed)


def stacked(f, profiles):
    """The axis of 0.0 and every bid of every profile, each profile's bids at every
    bidder's atoms, and its bid masses on the axis, stacked."""
    bids = [[s.eval(m.arrays[0]) for m, s in zip(f.marginals, p)] for p in profiles]
    axis = np.array(sorted({0.0}.union(*(b.tolist() for bs in bids for b in bs))))
    pushed = [[push_forward(m, s) for m, s in zip(f.marginals, p)] for p in profiles]
    return axis, bids, np.array([pushed_masses(axis, d) for d in pushed])


def certify_batch(rule, f, profiles, bound):
    """``_certify`` of the profiles in one stack on one axis of 0.0 and every bid of
    every profile."""
    return _certify(rule, f, *stacked(f, profiles), bound)


def draw_profile(data, f, bid=QUARTERS):
    """Nondecreasing bids drawn from ``bid`` at every bidder's atoms."""
    strategies = []
    for m in f.marginals:
        bids = data.draw(st.lists(bid, min_size=len(m.atoms), max_size=len(m.atoms)))
        strategies.append(MonotoneStrategy(tuple(zip(m.atoms, sorted(bids)))))
    return StrategyProfile(tuple(strategies))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_stacked_rows_have_the_bits_of_each_profile_alone(data):
    # One certifier serves the solver's stacks and every single-profile certificate:
    # unbounded, from any start bidder, a profile's gap and pick rows in a stack of
    # one to three are those of the profile certified alone on the same axis.
    rule, f = data.draw(tie_heavy_instances())
    bid = QUARTERS | st.just(-0.0)
    profiles = [draw_profile(data, f, bid) for _ in range(data.draw(st.integers(1, 3)))]
    axis, bids, masses = stacked(f, profiles)
    first = data.draw(st.integers(0, f.n - 1))
    eps, bidders, rows = _certify(rule, f, axis, bids, masses, (math.inf, first))
    for p in range(len(profiles)):
        (one_eps,), (one_bidder,), alone = _certify(
            rule, f, axis, [bids[p]], masses[p : p + 1], (math.inf, 0)
        )
        assert eps[p] == one_eps
        assert first != 0 or bidders[p] == one_bidder
        for (gaps, picks), (one_gaps, one_picks) in zip(rows, alone, strict=True):
            assert gaps[p].tobytes() == one_gaps[0].tobytes()
            assert picks[p].tobytes() == one_picks[0].tobytes()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bounded_certificate_matches_verify_bne(data):
    # One to three profiles in one batch; the bound hits an epsilon itself and
    # other gaps exactly, as solve_bne's does, and examination starts at any bidder.
    rule, f = data.draw(tie_heavy_instances())
    profiles = [draw_profile(data, f) for _ in range(data.draw(st.integers(1, 3)))]
    certs = [verify_bne(rule, f, p) for p in profiles]
    for profile, cert in zip(profiles, certs):
        pushed = [push_forward(m, s) for m, s in zip(f.marginals, profile)]
        assert certify_profile(rule, f, profile, pushed) == cert
    gaps = [g for cert in certs for row in cert.gaps for _, g in row]
    eps = [cert.epsilon for cert in certs]
    stop_at = data.draw(st.sampled_from([*eps, *gaps]) | st.floats(0.0, 1.0) | st.just(math.inf))
    first = data.draw(st.integers(0, f.n - 1))
    got, bidders, _ = certify_batch(rule, f, profiles, (stop_at, first))
    for cert, e, i in zip(certs, got, bidders):
        if cert.epsilon > stop_at:
            assert e == math.inf
        else:
            assert e == cert.epsilon
            assert max(g for _, g in cert.gaps[i]) == e


def _dumped(cert) -> str:
    return json.dumps(cert.to_json())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_certificate_matches_per_atom_reference(data):
    # Up to five opponents, bids on the quarter grid and sometimes -0.0; the
    # JSON strings tell a -0.0 gap from 0.0 and catch a different `worst`.
    # A -0.0 value bidding -0.0 in an all-pay auction has a -0.0 gap.
    rule, f = data.draw(tie_heavy_instances(max_n=6))
    if data.draw(st.booleans()):
        atoms = [[-0.0 if a == 0.0 else a for a in m.atoms] for m in f.marginals]
        f = product_of([make_discrete(a, m.weights) for a, m in zip(atoms, f.marginals)], 1.0)
    strategies = []
    for m in f.marginals:
        bid = QUARTERS | st.just(-0.0)
        bids = data.draw(st.lists(bid, min_size=len(m.atoms), max_size=len(m.atoms)))
        strategies.append(MonotoneStrategy(tuple(zip(m.atoms, sorted(bids)))))
    profile = StrategyProfile(tuple(strategies))
    pushed = [push_forward(m, s) for m, s in zip(f.marginals, profile)]
    want = certify_reference(rule, f, profile, pushed)
    assert _dumped(certify_profile(rule, f, profile, pushed)) == _dumped(want)
    gaps = [g for row in want.gaps for _, g in row]
    stop_at = data.draw(st.sampled_from([want.epsilon, *gaps]) | st.floats(0.0, 1.0))
    first = data.draw(st.integers(0, f.n - 1))
    (got,), _, _ = certify_batch(rule, f, [profile], (stop_at, first))
    assert got == (math.inf if want.epsilon > stop_at else want.epsilon)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_solver_matches_full_verification_reference(data):
    rule, f = data.draw(tie_heavy_instances())
    damping = data.draw(st.sampled_from([0.0, 0.5]))
    max_iters = data.draw(st.integers(0, 15))
    seed = data.draw(st.integers(0, 2**31 - 1))
    grid = uniform_bid_grid(1.0, 0.25)
    got = solve_bne(rule, f, grid, max_iters=max_iters, damping=damping, seed=seed)
    assert got == solve_bne_reference(rule, f, grid, max_iters, damping=damping, seed=seed)


ODD_GRIDS = {
    "no-zero-3": [0.1, 0.5, 0.9],
    "no-zero-2": [0.25, 0.75],
    "one-bid": [0.5],
    "negative-zero": [-0.0, 0.5, 1.0],
    "step-0.3": uniform_bid_grid(1.0, 0.3),
}


@pytest.mark.parametrize("damping", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("grid", ODD_GRIDS.values(), ids=ODD_GRIDS)
def test_solver_matches_reference_on_odd_grids(grid, damping, rng):
    # Grids without 0.0, where zeroed bids leave the grid; a -0.0 grid bid, which
    # the returned strategies keep; a step that does not divide H; one to four
    # bidders under every rule. repr tells -0.0 from 0.0, which == does not.
    for k in range(8):
        rule, n = RULES[rng.integers(4)], int(rng.integers(1, 5))
        f = quarter_product(rng, n) if k % 2 else random_product(rng, n)
        got = solve_bne(rule, f, grid, max_iters=10, damping=damping, seed=k)
        want = solve_bne_reference(rule, f, grid, 10, damping=damping, seed=k)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("seed", [0, 3, 47, 2**32 + 5, 2**62 + 11])
def test_restart_streams_partition_the_sequential_stream(seed):
    # A sequential run draws K_i uniforms per bidder step, restart after restart;
    # each restart's generator must reproduce its own slice of that sequence. It
    # fails if a uniform double ever stops taking one 64-bit word of the stream.
    sizes_rng = np.random.default_rng(seed % 1000)
    for rounds in range(5):
        for _ in range(3):
            sizes = sizes_rng.integers(1, 8, size=sizes_rng.integers(1, 6)).tolist()
            sequential = np.random.default_rng(seed)
            streams = equilibrium._restart_streams(seed, 5, rounds * sum(sizes))
            for stream in streams:
                want = [sequential.random(k) for _ in range(rounds) for k in sizes]
                got = [stream.random(k) for _ in range(rounds) for k in sizes]
                got, want = np.concatenate([[], *got]), np.concatenate([[], *want])
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("max_iters", range(5))
def test_solver_certifies_only_the_starts_below_five_iters(max_iters, rng):
    # No round runs, so the five starts form the only batch.
    for k in range(12):
        rule, n = RULES[k % 4], int(rng.integers(1, 5))
        f = quarter_product(rng, n) if k % 2 else random_product(rng, n)
        grid = uniform_bid_grid(1.0, [0.1, 0.25, 0.3][k % 3])
        got = solve_bne(rule, f, grid, max_iters=max_iters, damping=0.5, seed=k)
        assert repr(got) == repr(solve_bne_reference(rule, f, grid, max_iters, 0.5, seed=k))


@pytest.mark.parametrize("damping", [0.0, 1.0])
def test_solver_matches_reference_undamped_and_fully_damped(damping, rng):
    # Undamped, every damped iterate repeats its raw best response; fully damped,
    # no bid moves, so every restart revisits its start at every step.
    for k in range(12):
        rule, n = RULES[k % 4], int(rng.integers(1, 5))
        f = quarter_product(rng, n) if k % 2 else random_product(rng, n, decimals=2)
        grid = uniform_bid_grid(1.0, [0.05, 0.2, 0.25][k % 3])
        iters = int(rng.integers(5, 31))
        got = solve_bne(rule, f, grid, max_iters=iters, damping=damping, seed=k)
        assert repr(got) == repr(solve_bne_reference(rule, f, grid, iters, damping, seed=k))


def _rank_order(trace, n):
    """Every (restart, sequential rank, bids, epsilon) of a reference trace, and the
    key of each in lockstep order: round, bidder, restart, then raw before damped."""
    visits, last, seq = [], None, 0
    for restart, profile, eps in trace:
        seq = seq + 1 if restart == last else 0
        last = restart
        t, rest = divmod(seq - 1, 2 * n)
        key = (-1, 0, restart, 0) if seq == 0 else (t, rest // 2, restart, rest % 2)
        visits.append(((restart, seq), profile_bids(profile), eps, key))
    return visits


def _quarter_case(case):
    """The instance, rule, grid, damping and max_iters of one seed: one to three
    bidders on random quarter-grid or 1-decimal supports."""
    rng = np.random.default_rng(case)
    n, rule = int(rng.integers(1, 4)), RULES[rng.integers(4)]
    f = quarter_product(rng, n) if case % 2 else random_product(rng, n, 3, decimals=1)
    damping = [0.0, 0.5, 1.0][rng.integers(3)]
    iters = int(rng.integers(10, 31))
    grid = uniform_bid_grid(1.0, [0.25, 0.5, 0.1][rng.integers(3)])
    return f, rule, grid, damping, iters


def _point_mass_case(case):
    """As :func:`_quarter_case`, with two or three bidders of one to three atoms on
    the quarter grid, and grids without 0.0 among them."""
    rng = np.random.default_rng(case)
    n, rule = int(rng.integers(2, 4)), RULES[rng.integers(4)]
    marginals = []
    for _ in range(n):
        k = int(rng.integers(1, 4))
        atoms = sorted(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=k, replace=False).tolist())
        marginals.append(make_discrete(atoms, (rng.random(k) + 0.05).tolist()))
    damping = [0.0, 0.5, 1.0][rng.integers(3)]
    iters = int(rng.integers(10, 31))
    grids = [uniform_bid_grid(1.0, 0.25), uniform_bid_grid(1.0, 0.5), [0.25, 0.75]]
    grid = [*grids, [0.1, 0.5, 0.9]][rng.integers(4)]
    return product_of(marginals, 1.0), rule, grid, damping, iters


def _traced_case(case, make):
    f, rule, grid, damping, iters = make(case)
    trace = []
    want = solve_bne_reference(rule, f, grid, iters, damping, seed=case, trace=trace)
    got = solve_bne(rule, f, grid, max_iters=iters, damping=damping, seed=case)
    return repr(got), repr(want), _rank_order(trace, f.n), iters // 5, f.n


@pytest.mark.parametrize("case", [22, 1181])
def test_zero_in_a_later_restart_lets_earlier_restarts_run_on(case):
    # A start of restart 3 or 4 certifies 0 and restart 0 has no zero: the zero
    # stops its restart and every later one, and restart 0 runs all its rounds.
    got, want, visits, rounds, n = _traced_case(case, _point_mass_case)
    first = min(visits, key=lambda v: v[2])
    assert first[2] == 0.0 and first[0][0] >= 3 and rounds >= 2
    assert sum(v[0][0] == 0 for v in visits) == 1 + 2 * n * rounds
    assert got == want


@pytest.mark.parametrize("case", [0, 5, 9, 12, 18])
def test_equal_epsilon_in_two_restarts_keeps_the_first(case):
    # The smallest epsilon is reached by two different profiles in two restarts;
    # the first in sequential order wins.
    got, want, visits, _, _ = _traced_case(case, _quarter_case)
    eps = min(v[2] for v in visits)
    winners = [v for v in visits if v[2] == eps]
    assert len({v[1] for v in winners}) >= 2 and len({v[0][0] for v in winners}) >= 2
    assert got == want


@pytest.mark.parametrize("case", [85, 234, 491, 531, 532])
def test_revisit_at_an_earlier_rank_wins(case):
    # The winning profile is first visited, in lockstep order, at a later rank, and
    # another profile of the same epsilon has a rank between the two: the earlier
    # visit must lower the winner's rank.
    got, want, visits, _, _ = _traced_case(case, _quarter_case)
    first = min(visits, key=lambda v: v[2])
    same = min((v for v in visits if v[1] == first[1]), key=lambda v: v[3])
    assert any(v[2] == first[2] and first[0] < v[0] < same[0] for v in visits)
    assert got == want


def _force(monkeypatch, zero=frozenset(), broken=frozenset()):
    """Patch the solver and its sequential reference alike: every profile whose bids
    are in ``zero`` certifies 0, and every argmax at a grid allocation row whose
    bytes are in ``broken`` has its picks and picked allocations reversed, so that
    the best response is not monotone. A certifier row is 2G wide, with right
    limits, and never matches a grid row."""
    real_picks, real_certify, real_verify = auction._argmax_picks, _certify, verify_bne

    def reversed_picks(fmt, values, bases, allocs):
        picks, won = (a.copy() for a in real_picks(fmt, values, bases, allocs))
        for k, row in enumerate(allocs):
            if row.tobytes() in broken:
                picks[k], won[k] = picks[k][::-1].copy(), won[k][::-1].copy()
        return picks, won

    def certify(rule, f, axis, bids, *args):
        eps, bidders, rows = real_certify(rule, f, axis, bids, *args)
        keys = [tuple(tuple(b.tolist()) for b in p) for p in bids]
        return [0.0 if key in zero else e for key, e in zip(keys, eps)], bidders, rows

    def verify(rule, f, profile):
        cert = real_verify(rule, f, profile)
        return dataclasses.replace(cert, epsilon=0.0) if profile_bids(profile) in zero else cert

    for module in (conftest, equilibrium):
        monkeypatch.setattr(module, "_argmax_picks", reversed_picks)
    monkeypatch.setattr(equilibrium, "_certify", certify)
    monkeypatch.setattr(conftest, "verify_bne", verify)


def _outcome(solve, f):
    try:
        profile, _ = solve(FPA_RANDOM, f, GRID, 20, damping=0.5, seed=7)
    except ValueError as e:
        return f"ValueError: {e}"
    return repr(profile)


# (restart, round, bidder) of a forced zero (its damped iterate) and of forced
# non-monotone best responses, and whether the sequential run raises.
FORCED = {
    "zero-mid-round": ((2, 1, 0), [], False),
    "two-errors": (None, [(1, 1, 0), (3, 0, 1)], True),
    "error-after-the-zero-restart": ((2, 1, 0), [(3, 0, 1)], False),
    "error-later-in-the-zero-round": ((2, 1, 0), [(2, 1, 1)], True),
    "error-in-the-round-after-the-zero": ((2, 1, 0), [(2, 2, 0)], False),
    "error-before-the-zero": ((2, 1, 0), [(1, 3, 2)], True),
    "an-earlier-restart-fails-first": (None, [(1, 0, 0), (3, 2, 1)], True),
    "the-first-restart-fails": (None, [(0, 0, 2)], True),
}


@pytest.mark.parametrize("zero, errors, raises", FORCED.values(), ids=FORCED)
def test_forced_zeros_and_errors_match_the_sequential_run(monkeypatch, zero, errors, raises):
    # A zero certificate and non-monotone best responses placed by hand, since
    # neither arises on small instances: a zero ends its restart and every later
    # one at the next round start, earlier restarts run on, and a non-monotone best
    # response raises unless a zero came before it in sequential order.
    f = random_product(np.random.default_rng(4), 3)
    trace, calls = [], []
    real_picks = auction._argmax_picks

    def recording(fmt, values, grid_bids, allocs):
        (picks,), (won,) = out = real_picks(fmt, values, grid_bids, allocs)
        bids = np.where(won == 0.0, 0.0, grid_bids[picks])
        calls.append((allocs[0].tobytes(), len(set(bids.tolist()))))
        return out

    monkeypatch.setattr(conftest, "_argmax_picks", recording)
    solve_bne_reference(FPA_RANDOM, f, GRID, 20, damping=0.5, seed=7, trace=trace)
    monkeypatch.undo()
    steps = 20 // 5 * f.n
    assert len(calls) == 5 * steps  # no early exit, no error
    visits = _rank_order(trace, f.n)
    zeros = set()
    if zero is not None:
        r, t, i = zero
        (key,) = [v[1] for v in visits if v[0] == (r, 2 + 2 * (t * f.n + i))]
        assert sum(v[1] == key for v in visits) == 1
        zeros.add(key)
    broken = set()
    for r, t, i in errors:
        alloc, distinct = calls[r * steps + t * f.n + i]
        assert distinct > 1 and sum(c[0] == alloc for c in calls) == 1
        broken.add(alloc)
    _force(monkeypatch, frozenset(zeros), frozenset(broken))
    got, want = _outcome(solve_bne, f), _outcome(solve_bne_reference, f)
    assert want.startswith("ValueError") == raises
    assert got == want


@st.composite
def grid_midpoints(draw):
    """A ``uniform_bid_grid`` of at least two bids and the midpoint of two neighbours."""
    step = draw(st.floats(1e-3, 1.0))
    grid = uniform_bid_grid(draw(st.floats(2 * step, 200 * step)), step)
    k = draw(st.integers(0, len(grid) - 2))
    return grid, k, (grid[k] + grid[k + 1]) / 2


@given(grid_midpoints())
@settings(max_examples=300, deadline=None)
def test_snap_to_grid_matches_full_scan_at_midpoints(case):
    # A row at shade 1 snaps the midpoints of all neighbours, which are increasing.
    grid, k, _ = case
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    got = _shade_on_grid(mids, [1.0], np.array(grid))[0].tolist()
    assert got == [snap_to_grid_reference(mid, grid) for mid in mids]
    assert got == [conftest._snap_to_grid(mid, grid) for mid in mids]
    assert got[k] in (grid[k], grid[k + 1])


def test_snap_to_grid_ties_and_ends():
    # One row per shade at the value 1.0 snaps the shade itself.
    for grid, bids, want in [
        # an exact tie goes to the lower bid
        ([0.0, 0.25, 0.5], [0.375, 0.376, 0.5, 0.7, 0.0], [0.25, 0.5, 0.5, 0.5, 0.0]),
        ([0.25, 0.5], [0.1, 0.0, 0.6, 2.0], [0.25, 0.25, 0.5, 0.5]),  # beyond both ends
        ([0.3], [0.0, 0.3, 0.31, 1.0], [0.3, 0.3, 0.3, 0.3]),  # a one-bid grid
    ]:
        got = _shade_on_grid([1.0], bids, np.array(grid))[:, 0].tolist()
        assert got == want == [conftest._snap_to_grid(b, grid) for b in bids]


_ATOMS = st.lists(QUARTERS | st.floats(0.0, 1.0) | st.just(-0.0), max_size=40, unique=True)
_BIDS = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])
_SHADES = st.lists(QUARTERS | st.floats(0.0, 1.0), min_size=1, max_size=5)


@given(_ATOMS.map(sorted), st.data())
@settings(max_examples=200, deadline=None)
def test_damped_mix_matches_per_value_reference(values, data):
    # A stack of restart rows, each with its own generator. Bid vectors with long
    # runs and -0.0 bids at -0.0 values; the vector draw takes the same doubles and
    # leaves each stream where the per-value draws do.
    rows = data.draw(st.integers(1, 3))
    vector = st.lists(_BIDS, min_size=len(values), max_size=len(values))
    old, new = ([sorted(data.draw(vector)) for _ in range(rows)] for _ in range(2))
    damping = data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=rows, max_size=rows))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    ref_rngs = [np.random.default_rng(seed) for seed in seeds]
    got = _damped_mix(np.array(old, dtype=float), np.array(new, dtype=float), damping, rngs)
    assert got.shape == (rows, len(values))
    for row, o, n, rng, ref_rng in zip(got, old, new, rngs, ref_rngs):
        as_strategy = [MonotoneStrategy(tuple(zip(values, bids))) for bids in (o, n)]
        want = damped_mix_reference(*as_strategy, values, damping, ref_rng)
        assert row.tobytes() == np.array([b for _, b in want.breakpoints], dtype=float).tobytes()
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("k", [3, 16])
def test_damped_mix_turns_every_zero_positive(k):
    # Python's max from +0.0 keeps +0.0 on a -0.0 tie, while np.maximum may return
    # -0.0, and so may np.fmax on 8 or more elements. Damping 1 keeps the old rows,
    # damping 0 takes the new ones; every zero must come out as +0.0.
    zeros = np.array([np.full(k, -0.0), np.resize([-0.0, 0.0, -0.0], k)])
    for damping, old, new in ((1.0, zeros, zeros[::-1]), (0.0, zeros[::-1], zeros)):
        rngs = [np.random.default_rng(0) for _ in zeros]
        got = _damped_mix(old, new, damping, rngs)
        assert got.tobytes() == np.zeros((2, k)).tobytes()


@given(_ATOMS.map(sorted), _SHADES, st.data())
@settings(max_examples=200, deadline=None)
def test_shade_on_grid_matches_strategy_reference(values, alphas, data):
    grid = sorted(data.draw(st.lists(QUARTERS | st.just(-0.0), min_size=1, unique=True)))
    got = _shade_on_grid(values, alphas, np.array(grid))
    assert got.shape == (len(alphas), len(values))
    for row, alpha in zip(got, alphas):
        want = shade_on_grid_reference(values, alpha, grid)
        assert row.tobytes() == np.array([b for _, b in want.breakpoints], dtype=float).tobytes()


def test_shade_on_grid_keeps_a_negative_zero_grid_bid():
    # A grid whose zero is -0.0 gives -0.0 starts, as the scalar snap does.
    values, grid = [0.0, 0.5, 1.0], [-0.0, 0.5]
    got = _shade_on_grid(values, [0.0, 0.5], np.array(grid))
    assert got.tobytes() == np.array([[-0.0, -0.0, -0.0], [-0.0, -0.0, 0.5]]).tobytes()
    for row, alpha in zip(got, [0.0, 0.5]):
        want = shade_on_grid_reference(values, alpha, grid)
        assert row.tobytes() == np.array([b for _, b in want.breakpoints]).tobytes()


class TestSolve:
    def test_single_bidder(self):
        f = product_of([uniform_on([0, 0.5, 1.0])], 1.0)
        profile, cert = solve_bne(FPA_RANDOM, f, [0.0, 0.1], max_iters=5, seed=0)
        assert cert.epsilon == 0.0
        assert profile[0].eval(1.0) == 0.0

    def test_uniform_grid_anchor(self):
        grid = [k / 40 for k in range(41)]
        _, cert = solve_bne(FPA_RANDOM, UNIFORM2, grid, max_iters=60, seed=0)
        assert cert.epsilon <= 0.05

    def test_complete_information(self):
        f = product_of([point_mass(1.0), point_mass(0.5)], 1.0)
        grid = [k / 100 for k in range(101)]
        profile, cert = solve_bne(FPA_RANDOM, f, grid, max_iters=100, seed=0)
        assert cert.epsilon <= 0.02
        assert profile[0].eval(1.0) >= 0.48  # winner bids at the rival's value

    def test_refining_grid_never_hurts(self):
        coarse = [k / 20 for k in range(21)]
        fine = [k / 40 for k in range(41)]
        _, c1 = solve_bne(FPA_RANDOM, UNIFORM2, coarse, max_iters=40, seed=3)
        _, c2 = solve_bne(FPA_RANDOM, UNIFORM2, fine, max_iters=40, seed=3)
        assert c2.epsilon <= c1.epsilon

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="bid_grid is empty"):
            solve_bne(FPA_RANDOM, UNIFORM2, [], max_iters=500, seed=0)

    def test_invalid_grid_and_max_iters(self):
        with pytest.raises(ValueError, match="above H"):
            solve_bne(FPA_RANDOM, UNIFORM2, [0.0, 0.5, 1.2], max_iters=500, seed=0)
        with pytest.raises(ValueError, match="max_iters"):
            solve_bne(FPA_RANDOM, UNIFORM2, GRID, max_iters=-1, seed=0)

    def test_negative_grid_bid(self):
        # Bids lie in [0, H]; candidate tables hold no allocation below 0.
        with pytest.raises(ValueError, match="below 0"):
            solve_bne(FPA_RANDOM, UNIFORM2, [-0.5, 0.0, 0.5], max_iters=500, seed=0)

    def test_nan_or_infinite_grid_bid(self):
        # A NaN bid is refused before the grid is sorted, which would leave it anywhere.
        with pytest.raises(ValueError, match="^bid grid holds NaN$"):
            solve_bne(FPA_RANDOM, UNIFORM2, [0.0, math.nan, 0.5, 1.0], max_iters=10, seed=0)
        with pytest.raises(ValueError, match="^bid grid reaches inf above H=1.0$"):
            solve_bne(FPA_RANDOM, UNIFORM2, [0.0, 0.5, math.inf], max_iters=10, seed=0)
        with pytest.raises(ValueError, match="^bid grid starts at -inf below 0$"):
            solve_bne(FPA_RANDOM, UNIFORM2, [-math.inf, 0.0, 0.5], max_iters=10, seed=0)

    @pytest.mark.parametrize("max_iters", [0, 3, 4])
    def test_fewer_than_five_iters_certify_only_the_starts(self, max_iters):
        # On this instance one round of best responses beats every start.
        f = random_product(np.random.default_rng(1), 3)
        starts = [
            StrategyProfile(tuple(shade_on_grid_reference(m.atoms, a, GRID) for m in f.marginals))
            for a in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        certs = [verify_bne(FPA_RANDOM, f, p) for p in starts]
        k = min(range(5), key=lambda j: certs[j].epsilon)  # the first minimum
        assert solve_bne(FPA_RANDOM, f, GRID, max_iters=max_iters, seed=0) == (starts[k], certs[k])

    def test_bid_vectors_are_pushed_once_without_distributions(self, monkeypatch, rng):
        # n pushes per start, all in the `_bid_axis` call that builds the
        # solver's axis, then per bidder step one stacked push of every live
        # restart's raw best response and damped iterate; a considered profile
        # reuses them instead of pushing every bidder again. The returned
        # certificate's `_bid_axis` pushes its n bid vectors once more. A push is
        # a bincount onto an axis: no distribution is built.
        f = random_product(rng, 3)
        on_axis = count_calls(monkeypatch, auction, "_bid_masses")
        steps = count_calls(monkeypatch, equilibrium, "_bid_masses")
        built = count_calls(monkeypatch, DiscreteDistribution, "__post_init__")
        _, cert = solve_bne(FPA_RANDOM, f, GRID, max_iters=10, damping=0.5, seed=1)
        assert cert.epsilon > 0.0  # no early stop: all 5 x 2 rounds ran
        assert built == []
        assert len(on_axis) == 5 * f.n + f.n
        assert len(steps) == 2 * f.n
        assert [bids.shape for _, bids, _ in steps] == [(5 * 2, len(m.atoms)) for m in f.marginals] * 2

    def test_no_profile_is_certified_twice(self, monkeypatch, rng):
        # Undamped, every damped iterate repeats its raw best response, so at
        # most one new profile is visited per bidder step. Every distinct profile
        # the sequential reference visits enters a batch exactly once; the last
        # certification, alone and unbounded, is the returned certificate's.
        calls = []
        certify = equilibrium._certify

        def recording(rule, f, axis, bids, masses, bound):
            calls.append(([tuple(tuple(b.tolist()) for b in p) for p in bids], bound))  # by value
            return certify(rule, f, axis, bids, masses, bound)

        f = random_product(rng, 3)
        trace = []
        solve_bne_reference(FPA_RANDOM, f, GRID, 10, damping=0.0, seed=1, trace=trace)
        # Patched after the reference, whose verify_bne calls would be recorded too.
        monkeypatch.setattr(equilibrium, "_certify", recording)
        profile, cert = solve_bne(FPA_RANDOM, f, GRID, max_iters=10, damping=0.0, seed=1)
        assert cert.epsilon > 0.0  # no early stop: all 5 x 2 rounds ran
        *batches, returned = calls
        assert returned == ([profile_bids(profile)], (math.inf, 0))
        certified = [p for bids, _ in batches for p in bids]
        assert len(set(certified)) == len(certified)
        assert set(certified) == {profile_bids(p) for _, p, _ in trace}
        assert len(certified) <= 5 + 5 * 2 * f.n

    def test_every_tie_dp_is_in_one_leave_one_out_row(self, monkeypatch, rng):
        # Every tie DP runs inside a leave-one-out row. A lockstep step takes all
        # five restarts' best responses from one stacked DP, and a certification
        # batch runs one stacked DP per bidder, so a solve runs at most n DPs per
        # round, n per batch and n for the returned certificate, the last `_certify`
        # call, on one profile; certifying profile by profile runs about n per
        # profile.
        dps, rows, calls, inside = [], [], [], []
        tie_dp, row = auction._tie_dp, equilibrium._leave_one_out_row
        certify = equilibrium._certify

        def counting_dp(tie, like, masses):
            dps.append(bool(inside))
            return tie_dp(tie, like, masses)

        def counting_row(*args):
            rows.append(None)
            inside.append(None)
            try:
                return row(*args)
            finally:
                inside.pop()

        def counting_certify(rule, f, axis, bids, masses, bound):
            calls.append((len(bids), bound))
            return certify(rule, f, axis, bids, masses, bound)

        monkeypatch.setattr(auction, "_tie_dp", counting_dp)
        monkeypatch.setattr(equilibrium, "_leave_one_out_row", counting_row)
        monkeypatch.setattr(equilibrium, "_certify", counting_certify)
        f = random_product(rng, 3)
        _, cert = solve_bne(FPA_RANDOM, f, GRID, max_iters=10, damping=0.5, seed=1)
        assert cert.epsilon > 0.0
        assert all(dps)
        *batches, returned = calls
        assert returned == (1, (math.inf, 0))
        rounds = 10 // 5
        assert 1 <= len(dps) == len(rows) <= f.n * rounds + f.n * (len(batches) + 1)
        assert len(batches) == rounds + 1  # the starts, then one batch per round


class TestPerCallWork:
    """Object and kernel calls per certificate and per table do not grow with the atoms."""

    def test_one_candidate_bid_per_certificate_row(self, monkeypatch):
        # 200 atoms per bidder: the certificate builds its default worst bid
        # and at most one bid per bidder, the winner of the bidder's row.
        f = ProductDistribution.iid(uniform_on([k / 199 for k in range(200)]), 4, 1.0)
        profile = StrategyProfile((shade(f.marginals[0].atoms, 0.5),) * f.n)
        made = count_calls(monkeypatch, CandidateBid, "__init__")
        cert = verify_bne(FPA_RANDOM, f, profile)
        assert cert.epsilon > 0.0
        assert len(made) <= f.n + 1

    def test_solve_builds_only_the_returned_strategies(self, monkeypatch, rng):
        # The solver carries one bid vector per bidder: it evaluates no strategy
        # and builds only the n it returns.
        built = count_calls(monkeypatch, MonotoneStrategy, "__post_init__")
        evals = count_calls(monkeypatch, MonotoneStrategy, "eval")
        f = random_product(rng, 3)
        _, cert = solve_bne(FPA_RANDOM, f, GRID, max_iters=10, seed=1)
        assert cert.epsilon > 0.0  # no early stop
        assert len(built) == f.n and evals == []

    def test_verify_evaluates_each_strategy_once(self, monkeypatch):
        f = ProductDistribution.iid(uniform_on([k / 199 for k in range(200)]), 4, 1.0)
        profile = StrategyProfile((shade(f.marginals[0].atoms, 0.5),) * f.n)
        evals = count_calls(monkeypatch, MonotoneStrategy, "eval")
        assert verify_bne(FPA_RANDOM, f, profile).epsilon > 0.0
        assert len(evals) == f.n

    def test_candidate_table_never_calls_cdf_of_max(self, monkeypatch, rng):
        calls = []

        def recording(dists, x):
            calls.append(None)
            return cdf_of_max(dists, x)

        monkeypatch.setattr(dist, "cdf_of_max", recording)
        monkeypatch.setattr(auction, "cdf_of_max", recording, raising=False)
        for tie in Tie:
            for n in range(4):
                candidate_allocations(tie, [random_bid_dist(rng) for _ in range(n)])
        assert calls == []

    def test_candidate_table_runs_the_tie_dp_on_one_row(self, monkeypatch, rng):
        # The table is the row of a bidder with no mass against the opponents:
        # the tie DP runs once, on that row alone, not on every bidder's row.
        dps = count_calls(monkeypatch, auction, "_tie_dp")
        for tie in Tie:
            for n in (0, 1, 3, 31):
                dps.clear()
                table = candidate_allocations(tie, [random_bid_dist(rng) for _ in range(n)])
                assert [np.shape(like) for _, like, _ in dps] == [(len(table) // 2,)]


def test_verify_memory_is_bounded_at_many_bidders():
    # 64 bidders with 50 atoms each share an axis of about 3,200 bids. The
    # leave-one-out table is built row by row: a 64 x 64 x 3,200 tensor would
    # take 105 MB.
    rng = np.random.default_rng(5)
    marginals = []
    for _ in range(64):
        atoms = np.unique(np.round(rng.random(50), 5))
        marginals.append(make_discrete(atoms.tolist(), (rng.random(len(atoms)) + 0.05).tolist()))
    f = product_of(marginals, 1.0)
    profile = StrategyProfile(tuple(shade(m.atoms, 0.6) for m in marginals))
    tracemalloc.start()
    try:
        assert verify_bne(FPA_RANDOM, f, profile).epsilon > 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_solve_memory_is_bounded_on_a_fine_grid():
    # A 1e-4 grid puts 10,001 bids on the axis, so one profile's bid masses take
    # 40,004 elements, more than a certification batch may hold: every visited
    # profile is certified alone, and the five restarts share one stacked row DP
    # per step. Certifying a whole round at once would peak near 90 MB.
    f = ProductDistribution.from_json(workloads.make_instance(11, 4, 40))
    grid = uniform_bid_grid(f.h, 1e-4)
    tracemalloc.start()
    try:
        assert solve_bne(FPA_RANDOM, f, grid, max_iters=15, seed=3)[1].epsilon > 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


class TestTransfer:
    def test_exact_empirical_support_matches(self):
        f = ProductDistribution.iid(uniform_on([0.0, 1.0]), 2, 1.0)
        rows = np.array([[a, b] for a in (0.0, 1.0) for b in (0.0, 1.0)])
        from auctionlearn.dist import SampleMatrix

        s = SampleMatrix(rows)
        profile = StrategyProfile((shade([0, 1.0], 0.5),) * 2)
        eps_true, eps_emp = equilibrium_transfer_check(FPA_RANDOM, f, s, profile)
        assert eps_true == pytest.approx(eps_emp, abs=1e-12)

    def test_single_bidder_both_zero(self):
        f = product_of([uniform_on([0, 1.0])], 1.0)
        s = sample_matrix(f, 8, seed=0)
        profile = StrategyProfile((constant(0.0),))
        assert equilibrium_transfer_check(FPA_RANDOM, f, s, profile) == (0.0, 0.0)

    def test_uniform_bid_grid(self):
        assert uniform_bid_grid(1.0, 0.25) == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert uniform_bid_grid(1.0, 0.05) == [k * 0.05 for k in range(21)]
        assert uniform_bid_grid(1.0, 0.6) == [0.0, 0.6]
        assert uniform_bid_grid(0.3, 0.1) == [0.0, 0.1, 0.2, 0.3]
        for step in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                uniform_bid_grid(1.0, step)

    def test_uniform_bid_grid_size_is_capped(self):
        assert len(uniform_bid_grid(1.0, 1e-6 + 1e-15)) == 10**6
        for h, step in ((1.0, 1e-6), (1e16, 0.05), (1.0, 1e-12), (1e300, 1e-300)):
            with pytest.raises(ValueError, match="needs more than 1000000 bids"):
                uniform_bid_grid(h, step)

    def test_transfer_bound_with_measured_error(self):
        # eps on truth <= eps on empirical + 2 * (measured product-form sup error)
        f = ProductDistribution.iid(uniform_on([0.0, 0.25, 0.5, 0.75, 1.0]), 2, 1.0)
        s = sample_matrix(f, 4000, seed=11)
        from auctionlearn.dist import empirical_marginals

        emp = empirical_marginals(s, h=f.h)
        grid = [k / 40 for k in range(41)]
        profile, _ = solve_bne(FPA_RANDOM, emp, grid, max_iters=40, seed=1)
        eps_true, eps_emp = equilibrium_transfer_check(FPA_RANDOM, f, s, profile)
        fam = shade_family(f, [k / 10 for k in range(11)]) + [profile]
        measured = sup_error(s, FPA_RANDOM, fam, f, "empp").sup_error
        assert eps_true <= eps_emp + 2 * measured + 1e-9
