"""Builders for dense monotone hypothesis families used by the counting checks."""

from __future__ import annotations

import numpy as np

from .auction import FPA_NONE, FPA_RANDOM, AuctionRule, _share, _top_bids, _utility
from .strategy import MonotoneStrategy, StrategyProfile


def random_monotone_strategy(rng: np.random.Generator, grid) -> MonotoneStrategy:
    """Random nondecreasing step function on a sorted value grid, bids in [0, 1]."""
    steps = rng.random(len(grid))
    total = steps.sum()
    bids = np.cumsum(steps) / total * rng.random() if total > 0 else np.zeros(len(grid))
    return MonotoneStrategy(tuple(zip(grid, bids)))


# Random opponent profiles drawn per hypothesis family.
N_STRATEGIES = 40
# Utilities a family may hold: N_STRATEGIES profiles x 41 values x m samples x at
# most 1 + 2(n - 1)m own bids; n = 3, m = 25 holds 4,141,000.
MAX_UTILITIES = 1 << 22


def dense_monotone_hypotheses(n: int, m: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Utility rows of a dense monotone family on m random samples, plus witnesses.

    Each hypothesis is (own value, own bid) against a profile of monotone
    opponent strategies; each sample is an (n-1)-vector of opponent values.
    Own bids are placed on and just above every realized opponent bid so the
    family sweeps all win/tie prefixes, and witnesses take both signs so
    winning and losing samples are distinguishable. For n = 2 the
    no-allocation rule applies (the regime of the quadratic counting bound);
    larger n uses random allocation. A family of more than ``MAX_UTILITIES``
    utilities raises ``ValueError`` unbuilt.
    """
    v_grid = np.linspace(0.0, 1.0, 41)
    size = N_STRATEGIES * len(v_grid) * m * (1 + 2 * (n - 1) * m)
    if size > MAX_UTILITIES:
        raise ValueError(f"pdim-check at n={n}, m={m} needs {size} > {MAX_UTILITIES} utilities")
    rng = np.random.default_rng(seed)
    rule: AuctionRule = FPA_NONE if n == 2 else FPA_RANDOM
    samples = rng.random((m, n - 1))
    witnesses = rng.uniform(-0.5, 0.5, size=m)
    grids = [np.unique(samples[:, j]) for j in range(n - 1)]
    owns, shares = [], []
    for _ in range(N_STRATEGIES):
        opp = tuple(random_monotone_strategy(rng, grids[j]) for j in range(n - 1))
        # With no opponents (n = 1) the m x 0 samples are the opponent bids.
        opp_bids = StrategyProfile(opp).bids(samples) if opp else samples
        realized = np.unique(opp_bids)
        owns.append(np.concatenate(([0.0], realized, realized + 1e-9)))
        shares.append(_share(owns[-1][:, None], *_top_bids(rule.tie, opp_bids)))
    own, share = np.concatenate(owns), np.concatenate(shares)
    # One utility call over (own bid, value, sample); explicit sizes, since m may be 0.
    u = _utility(rule.format, v_grid[:, None], own[:, None, None], share[:, None])
    return u.reshape(len(own) * len(v_grid), m), witnesses
