"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from auctionlearn.auction import FPA_RANDOM, ex_post_utility
from auctionlearn.da import DAMixedStrategy, MonotoneMixture, simulate_da
from auctionlearn.dist import DiscreteDistribution, make_discrete, product_of
from auctionlearn.pandora import SearchInstance
from auctionlearn.strategy import MonotoneStrategy, StrategyProfile


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
