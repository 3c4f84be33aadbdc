"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

from auctionlearn.auction import (
    FPA_RANDOM,
    CandidateBid,
    Format,
    Tie,
    ex_post_utility,
    monotone_best_response_profile,
    push_forward,
)
from auctionlearn.da import DAMixedStrategy, MonotoneMixture, simulate_da
from auctionlearn.dist import DiscreteDistribution, make_discrete, product_of
from auctionlearn.equilibrium import BNECertificate, _damped_mix, _shade_on_grid, verify_bne
from auctionlearn.errors import TooLargeToEnumerate
from auctionlearn.estimate import empp_estimate
from auctionlearn.pandora import SearchInstance
from auctionlearn.strategy import MonotoneStrategy, StrategyProfile


# Bids, values and atoms on a quarter grid, so that ties are frequent.
QUARTERS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def quarter_distributions(draw) -> DiscreteDistribution:
    """Up to 8 atoms, mostly on the quarter grid, with random weights."""
    atom = st.one_of(QUARTERS, QUARTERS, st.floats(0.0, 1.0))
    atoms = draw(st.lists(atom, min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms), max_size=len(atoms)))
    return make_discrete(atoms, weights)


def random_discrete(rng, max_atoms=4, decimals=None) -> DiscreteDistribution:
    k = int(rng.integers(2, max_atoms + 1))
    atoms = rng.random(k)
    if decimals is not None:
        atoms = np.round(atoms, decimals)
    atoms = np.unique(atoms)
    weights = rng.random(len(atoms)) + 0.05
    return make_discrete(atoms.tolist(), weights.tolist())


def random_bid_dist(rng, max_atoms=4, decimals=2) -> DiscreteDistribution:
    return random_discrete(rng, max_atoms, decimals)


def random_product(rng, n, max_atoms=4, h=1.0, decimals=None):
    return product_of([random_discrete(rng, max_atoms, decimals) for _ in range(n)], h)


def random_monotone(rng, grid, h=1.0) -> MonotoneStrategy:
    grid = sorted(set(float(g) for g in grid))
    steps = rng.random(len(grid))
    bids = np.cumsum(steps) / steps.sum() * rng.random() * h
    return MonotoneStrategy(tuple(zip(grid, bids)))


def random_profile(rng, f, h=1.0) -> StrategyProfile:
    return StrategyProfile(
        tuple(random_monotone(rng, m.atoms, h) for m in f.marginals)
    )


def random_search_instance(rng, n_max=4, atoms_max=4, cost_scale=1.0) -> SearchInstance:
    n = int(rng.integers(1, n_max + 1))
    f = random_product(rng, n, atoms_max)
    costs = tuple(float(rng.random()) * m.mean() * cost_scale for m in f.marginals)
    return SearchInstance(f, costs)


def interim_by_enumeration(rule, v_i, b_i, opp) -> float:
    """Probability-weighted enumeration over the full joint opponent-bid product."""
    total = 0.0
    for combo in itertools.product(*[list(d) for d in opp]):
        prob = 1.0
        bids = [b_i]
        for atom, weight in combo:
            prob *= weight
            bids.append(atom)
        total += prob * ex_post_utility(rule, 0, v_i, bids)
    return total


# --- scalar references for the interim kernel ---------------------------------
#
# Sums run left to right with +=, the order the prefix sums of
# DiscreteDistribution use, so queries and allocation probabilities must
# match these references exactly.


def prob_below_reference(d, x) -> float:
    total = 0.0
    for a, w in d:
        if a < x:
            total += w
    return total


def prob_at_reference(d, x) -> float:
    for a, w in d:
        if a == x:
            return w
    return 0.0


def prob_at_most_reference(d, x) -> float:
    total = 0.0
    for a, w in d:
        if a <= x:
            total += w
    return total


def tie_profile_reference(opp, b) -> list[float]:
    """q[t] = P(no opponent bids above b and exactly t opponents tie at b)."""
    q = [1.0]
    for d in opp:
        p_below = prob_below_reference(d, b)
        p_at = prob_at_reference(d, b)
        nxt = [0.0] * (len(q) + 1)
        for t, qt in enumerate(q):
            if qt:
                nxt[t] += qt * p_below
                nxt[t + 1] += qt * p_at
        q = nxt
    return q


def allocation_probability_reference(tie, opp, bid) -> float:
    """Allocation probability of an exact or right-limit bid, one opponent at a time."""
    if bid.limit_above:
        prob = 1.0
        for d in opp:
            prob *= prob_at_most_reference(d, bid.base)
        return prob
    q = tie_profile_reference(opp, bid.base)
    if tie is Tie.NO_ALLOCATION:
        return q[0]
    share = 0.0
    for t, qt in enumerate(q):
        share += qt / (t + 1)
    return share


def utility_reference(fmt, v, base, alloc) -> float:
    return alloc * v - base if fmt is Format.ALL_PAY else alloc * (v - base)


def verify_bne_reference(rule, f, profile) -> BNECertificate:
    """The exact certificate with one strict-> scan over the candidates per value."""
    pushed = [push_forward(m, s) for m, s in zip(f.marginals, profile)]
    eps, worst, gap_rows = 0.0, (0, 0.0, CandidateBid(0.0)), []
    for i in range(f.n):
        opp = pushed[:i] + pushed[i + 1 :]
        bases = sorted({0.0} | {a for d in opp for a in d.atoms})
        cands = [CandidateBid(b, above) for b in bases for above in (False, True)]
        allocs = [allocation_probability_reference(rule.tie, opp, c) for c in cands]
        row = []
        for v in f.marginals[i].atoms:
            own_bid = CandidateBid(profile[i].eval(v))
            own_alloc = allocation_probability_reference(rule.tie, opp, own_bid)
            own = utility_reference(rule.format, v, own_bid.base, own_alloc)
            sup, dev = None, None
            for c, alloc in zip(cands, allocs):
                u = utility_reference(rule.format, v, c.base, alloc)
                if sup is None or u > sup:
                    sup, dev = u, c
            gap = sup - own
            assert gap >= -1e-9
            gap = max(gap, 0.0)
            row.append((v, gap))
            if gap > eps:
                eps, worst = gap, (i, v, dev)
        gap_rows.append(tuple(row))
    return BNECertificate(eps, tuple(gap_rows), worst)


def solve_bne_reference(rule, f, bid_grid, max_iters, damping=0.5, seed=0):
    """The certified best-response solver with a full ``verify_bne`` per considered profile.

    Same dynamics, random stream and acceptance rule (strictly smaller
    epsilon) as ``solve_bne``, without bounded certification or reuse of the
    pushed-forward bid distributions.
    """
    grid = sorted(set(float(b) for b in bid_grid))
    rng = np.random.default_rng(seed)
    starts = [0.0, 0.25, 0.5, 0.75, 1.0]
    best = None

    def consider(profile):
        nonlocal best
        cert = verify_bne(rule, f, profile)
        if best is None or cert.epsilon < best[1].epsilon:
            best = (profile, cert)

    for alpha in starts:
        profile = StrategyProfile(tuple(_shade_on_grid(m.atoms, alpha, grid) for m in f.marginals))
        consider(profile)
        for _ in range(max_iters // len(starts)):
            if best[1].epsilon == 0.0:
                return best
            for i in range(f.n):
                opp = [push_forward(f.marginals[j], profile[j]) for j in range(f.n) if j != i]
                values = f.marginals[i].atoms
                br = monotone_best_response_profile(rule, values, opp, f.h, bid_grid=grid)
                consider(profile.replace(i, br))
                nxt = _damped_mix(profile[i], br, values, damping, rng) if damping > 0 else br
                profile = profile.replace(i, nxt)
                consider(profile)
    return best


def ex_ante_utility_fpa(f, profile, i, rule=FPA_RANDOM) -> float:
    """Exact ex ante first-price utility of bidder i under mixed monotone strategies.

    Enumerates every joint (value, mixture component) draw and prices each
    with the batched ex post kernel; this is the oracle side of the
    utility-transfer checks, independent of the interim machinery.
    """
    per_bidder = []
    for marg, s in zip(f.marginals, profile):
        mx = s if isinstance(s, MonotoneMixture) else MonotoneMixture.pure(s)
        per_bidder.append(
            [(wv * wc, a, comp.eval(a)) for a, wv in marg for wc, comp in mx.components]
        )
    draws = np.array(list(itertools.product(*per_bidder)))  # (draw, bidder, field)
    prob = np.prod(draws[:, :, 0], axis=1)
    return float(prob @ ex_post_utility(rule, i, draws[:, i, 1], draws[:, :, 2]))


def permutation_identity_check(s, rule, i, v_i, profile) -> tuple[float, float]:
    """Exact permutation average of the empirical estimator vs. the product-form one.

    Averages the empirical estimate over all (m!)^(n-1) joint permutations of
    the opponents' columns; the result must equal the product-form estimate.
    Only tiny instances are enumerable.
    """
    m, n = s.m, s.n
    if m > 5 or n > 3:
        raise TooLargeToEnumerate(f"m={m}, n={n} exceeds the (m!)^(n-1) enumeration limit")
    opp_cols = [j for j in range(n) if j != i]
    # rows[c, k, r]: the sample row that opponent opp_cols[k] reads at
    # position r under joint permutation c.
    joint = list(itertools.product(itertools.permutations(range(m)), repeat=len(opp_cols)))
    rows = np.array(joint, dtype=int).reshape(len(joint), len(opp_cols), m)
    base = profile.bids(s.values)
    base[:, i] = profile[i].eval(v_i)
    bids = np.broadcast_to(base, (len(rows), m, n)).copy()
    for k, col in enumerate(opp_cols):
        bids[..., col] = base[rows[:, k], col]
    # Every permutation averages over the same m rows, so the mean of the
    # per-permutation averages is the mean over all of them.
    emp = float(np.mean(ex_post_utility(rule, i, v_i, bids)))
    return emp, empp_estimate(s, rule, i, v_i, profile)


def optimal_adaptive_oracle(inst: SearchInstance) -> float:
    """Exact optimum over all adaptive open/stop policies, by backward induction.

    State space is (set of opened boxes) x (best value so far); only tiny
    instances are admitted.
    """
    if inst.n > 4 or any(len(f.atoms) > 4 for f in inst.boxes.marginals):
        raise TooLargeToEnumerate("oracle limited to n <= 4 and <= 4 atoms per box")
    marginals = inst.boxes.marginals
    costs = inst.costs
    n = inst.n

    @lru_cache(maxsize=None)
    def value(open_mask: int, best: float) -> float:
        out = best
        for j in range(n):
            if open_mask & (1 << j):
                continue
            cont = -costs[j]
            for a, w in marginals[j]:
                cont += w * value(open_mask | (1 << j), max(best, a))
            out = max(out, cont)
        return out

    result = value(0, 0.0)
    value.cache_clear()
    return result


def da_outcomes_by_enumeration(inst, profile, tie):
    """Yield (probability, DAOutcome) over every joint value/mixture-component draw."""
    per_bidder = []
    for f, d in zip(inst.boxes.marginals, profile):
        comps = d.components if isinstance(d, DAMixedStrategy) else ((1.0, d),)
        per_bidder.append([(wv * wc, a, comp) for a, wv in f for wc, comp in comps])
    for combo in itertools.product(*per_bidder):
        prob = 1.0
        for w, _, _ in combo:
            prob *= w
        values = [a for _, a, _ in combo]
        pures = [comp for _, _, comp in combo]
        yield prob, simulate_da(inst, pures, values, tie)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
