"""Descending auction with inspection costs, and its first-price counterpart.

Clock semantics: the price descends from H; a bidder inspects (pays her cost,
learns her value) when the price reaches her threshold, and may later claim
at her purchase price. At any single price level inspections happen before
claims, so strategies that claim immediately upon seeing a high value are
executable. The first claim ends the auction; simultaneous claims split the
item at random, with outcomes reported in expectation.

Ex ante utilities, welfare and the equilibrium gap are exact. Claims are
independent across bidders, so a bidder's share is the first-price tie DP run
on the opponents' claim-price distributions (Kleinberg, Waggoner and Weyl,
2016); the tests check this against joint enumeration of :func:`simulate_da`
outcomes.

The lambda map turns a monotone first-price strategy on values truncated at
the index into a descending-auction strategy that claims above the index;
utilities transfer exactly, which the tests verify, with the inverse mu map,
by independent enumeration on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .auction import (
    FPA_RANDOM,
    Format,
    Tie,
    _bid_axis,
    _leave_one_out_row,
    _share,
    _top_bids,
    _utility,
)
from .dist import (
    ProductDistribution,
    SampleMatrix,
    empirical_marginals,
    product_of,
    sum_floats,
    sum_left_to_right,
    truncate_at,
)
from .equilibrium import _search_bne, uniform_bid_grid, verify_bne
from .estimate import shade_family, sup_error
from .pandora import SearchInstance, opt_welfare, weitzman_index
from .strategy import MonotoneStrategy, StrategyProfile


@dataclass(frozen=True)
class DAPureStrategy:
    """An inspection threshold price and a purchase-price function of the value."""

    tau: float
    beta: MonotoneStrategy

    def __post_init__(self) -> None:
        if not self.tau >= 0:  # also rejects NaN
            raise ValueError("threshold price must be nonnegative")
        if self.beta.max_bid > self.tau:
            raise ValueError(f"claim price {self.beta.max_bid} exceeds inspection price {self.tau}")


@dataclass(frozen=True)
class DAOutcome:
    """One realized descending auction; tie outcomes are in expectation.

    ``winner`` is None when the top claim is tied; utilities and welfare then
    average over the uniform tie-break.
    """

    winner: int | None
    utilities: tuple[float, ...]
    welfare: float
    inspected: tuple[bool, ...]


def simulate_da(
    inst: SearchInstance,
    profile: Sequence[DAPureStrategy],
    values: Sequence[float],
) -> DAOutcome:
    """Run the descending clock on one value vector."""
    n = inst.n
    if len(profile) != n or len(values) != n:
        raise ValueError("profile and values must match the instance size")
    claims = [profile[j].beta.eval(values[j]) for j in range(n)]
    price = max(claims)
    rivals = np.broadcast_to(claims, (n, n))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    shares = _share(np.array(claims), *_top_bids(Tie.RANDOM_ALLOCATION, rivals))
    winner = int(shares.argmax()) if shares.max() == 1.0 else None
    # A bidder inspects iff the clock reaches her threshold before the sale;
    # at the sale price itself inspections still happen (they precede claims).
    inspected = tuple(profile[j].tau >= price for j in range(n))
    costs = np.where(inspected, inst.costs, 0.0)
    v = np.asarray(values, dtype=float)
    utilities = tuple((shares * (v - price) - costs).tolist())
    welfare = float(np.sum(shares * v - costs))
    return DAOutcome(winner, utilities, welfare, inspected)


def _bidders(inst: SearchInstance, profile: Sequence[DAPureStrategy]):
    """(ex ante utility, welfare share, candidate bases, their allocations) of every
    bidder in bidder order, from one evaluation of each claim strategy at its atoms.

    Claims are independent across bidders, so bidder i's share at claim b is the
    first-price tie DP against the opponents' claims: bidder i's
    :func:`auction._leave_one_out_row` of every bidder's claims at its atoms, pushed
    with their weights by :func:`auction._bid_axis`, not built into a distribution.
    The candidates are 0 and the opponents' claims, each exact claim followed by its
    right limit: the row at other bases picks the same deviations, but the matrix
    product of :func:`_best_deviation` rounds by the number of candidates. Bidder i
    inspects iff no opponent claims above the threshold tau, as the own claim never
    exceeds tau: the row's right limit at the largest base <= tau (no claim between).
    """
    if len(profile) != inst.n:
        raise ValueError("profile must match the instance size")
    claims = [d.beta.eval(f.arrays[0]) for f, d in zip(inst.boxes.marginals, profile)]
    # The division is make_discrete's renormalisation: the claim masses keep its bits.
    pushed = [
        (c, f.arrays[1] / sum_floats(f.weights)) for c, f in zip(claims, inst.boxes.marginals)
    ]
    axis, masses = _bid_axis(pushed, ())
    claimed = (masses > 0.0).sum(axis=0)  # how many bidders claim each base
    for i, (f_i, d_i, bids) in enumerate(zip(inst.boxes.marginals, profile, claims)):
        alloc = _leave_one_out_row(Tie.RANDOM_ALLOCATION, masses, i)
        atoms, weights, _ = f_i.arrays
        share = weights * alloc[2 * axis.searchsorted(bids)]
        won, paid = sum_left_to_right(share * atoms), sum_left_to_right(share * bids)
        cost = inst.costs[i] * alloc[2 * axis.searchsorted(d_i.tau, "right") - 1].item()
        keep = claimed > (masses[i] > 0.0)
        keep[0] = True
        cols = (2 * np.flatnonzero(keep)[:, None] + [0, 1]).ravel()
        yield won - paid - cost, won - cost, axis[cols // 2], alloc[cols]


def ex_ante_utility_da(inst: SearchInstance, profile: Sequence[DAPureStrategy], i: int) -> float:
    """Exact expected utility of bidder i before anyone learns values."""
    return [u for u, *_ in _bidders(inst, profile)][i]


def da_welfare(inst: SearchInstance, profile: Sequence[DAPureStrategy]) -> float:
    """Exact expected welfare (allocated value minus all inspection costs paid)."""
    return sum_floats(share for _, share, *_ in _bidders(inst, profile))


def _best_deviation(inst: SearchInstance, i: int, bases, alloc) -> float:
    """Supremum ex ante utility of bidder i over all descending-auction strategies,
    given the allocations ``alloc`` of the candidate claims ``bases`` against the
    opponents' claims, each exact claim followed by its right limit.

    A threshold at or just above base a of the candidates costs
    c_i * P(max opponent claim <= a), the right-limit allocation of a, and
    allows every claim up to a+, so the best claim per value is the running
    maximum of the values x candidates utility matrix at a+'s column. No
    mixture beats its best component.
    """
    atoms, weights, _ = inst.boxes.marginals[i].arrays
    u = _utility(Format.FIRST_PRICE, atoms[:, None], bases, alloc)
    claim = weights @ np.maximum.accumulate(u, axis=1)[:, 1::2]
    return float(np.max(claim - inst.costs[i] * alloc[1::2]))


def _deviation_gap(inst: SearchInstance, da_profile: Sequence[DAPureStrategy]):
    """Exact ex ante equilibrium gap, the largest gain of any bidder from any deviation,
    and :func:`da_welfare`, from one pass over the claims' leave-one-out rows."""
    gap, welfare = 0.0, 0
    for i, (own, share, bases, alloc) in enumerate(_bidders(inst, da_profile)):
        gain = _best_deviation(inst, i, bases, alloc) - own
        if not gain >= -1e-9:  # also a NaN gain, which `max` would skip
            raise AssertionError(f"gap {gain} is negative or NaN: deviations not exhaustive")
        gap = max(gap, gain)
        welfare += share  # in bidder order from 0, as da_welfare's sum
    return gap, welfare


def lambda_map(f: MonotoneStrategy, sigma: float) -> DAPureStrategy:
    """First-price strategy on [0, sigma] -> descending strategy that claims above sigma."""
    tau = f.eval(sigma)
    bps = [(t, b) for t, b in f.breakpoints if t < sigma] + [(float(sigma), tau)]
    return DAPureStrategy(tau, MonotoneStrategy(tuple(bps), f.default_bid))


# Best-response rounds of the pipeline's first-price solver (see solve_bne).
PIPELINE_MAX_ITERS = 60


@dataclass(frozen=True)
class PipelineReport:
    """Everything the end-to-end learning pipeline measures."""

    sigma_hat: tuple[float, ...]
    cost_true: tuple[float, ...]
    cost_hat: tuple[float, ...]
    cost_err: float
    eps_fpa: float
    empp_sup_error: float
    da_gap: float
    welfare: float
    opt: float
    poa_bound: float
    fpa_profile: StrategyProfile = field(repr=False)
    da_profile: tuple[DAPureStrategy, ...] = field(repr=False)

    def to_json(self) -> dict:
        report = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in report.items()}


def _break_bid_ties(
    profile: StrategyProfile, grid_step: float, h: float
) -> StrategyProfile:
    # Grid-valued bids tie across bidders with positive probability, and a
    # tied claim in the descending auction makes every tied bidder pay her
    # inspection cost for a fractional allocation, which breaks the exact
    # first-price correspondence. Before emitting an executable profile, give
    # each bidder a microscopic bid offset so claims never tie; the
    # certificate is then recomputed for the emitted profile.
    out = []
    for i, strat in enumerate(profile):
        delta = (i + 1) * grid_step * 1e-9
        bps = tuple((t, min(b + delta, h)) for t, b in strat.breakpoints)
        out.append(MonotoneStrategy(bps, strat.default_bid))
    return StrategyProfile(tuple(out))


def empirical_pipeline(
    s: SampleMatrix,
    costs: Sequence[float],
    f_true: ProductDistribution,
    grid_step: float,
    seed: int,
) -> PipelineReport:
    """Samples -> empirical indices -> truncated empirical FPA -> equilibrium -> DA.

    Splits the samples into halves (first/second, for reproducibility), fits
    indices on the first, solves a certified approximate equilibrium of the
    first-price auction on the truncated empirical marginals of the second
    (the search of ``solve_bne`` on a bid grid of step ``grid_step``, with
    ``PIPELINE_MAX_ITERS`` rounds and solver seed ``seed``), and maps the
    result into the descending auction on the true distribution.
    The emitted profile carries per-bidder tie-breaking bid offsets (see
    :func:`_break_bid_ties`) and is certified after the offsets, once. Reports
    the certified epsilon, the measured estimator error, the exact equilibrium
    gap over all descending-auction deviations, welfare against the
    price-of-anarchy bound, and how far the implied costs drift from the true
    ones. The gap and welfare are exact expectations on the true distribution,
    not samples.
    """
    if s.n != f_true.n:
        raise ValueError(f"a sample of {s.n} columns for {f_true.n} boxes")
    inst = SearchInstance(f_true, costs)
    costs = inst.costs
    if s.m % 2 != 0:
        raise ValueError(f"m={s.m} must be even to split into halves")
    s_a, s_b = s.rows(0, s.m // 2), s.rows(s.m // 2, s.m)

    emp_a = empirical_marginals(s_a, h=f_true.h)
    # A cost above a box's empirical mean gives the negative index E[v] - c,
    # at which no truncated auction exists; such a bidder is taken at index 0.
    sigma_hat = tuple(
        max(weitzman_index(f, c, h=f_true.h), 0.0) for f, c in zip(emp_a.marginals, costs)
    )

    emp_b = empirical_marginals(s_b, h=f_true.h)
    fpa_dist = product_of(
        (truncate_at(f, sig) for f, sig in zip(emp_b.marginals, sigma_hat)), f_true.h
    )
    bid_grid = uniform_bid_grid(f_true.h, grid_step)
    # solve_bne's search at its default damping; the emitted profile is certified below.
    solved = _search_bne(FPA_RANDOM, fpa_dist, bid_grid, PIPELINE_MAX_ITERS, seed, 0.5)
    fpa_profile = _break_bid_ties(solved, grid_step, f_true.h)
    cert = verify_bne(FPA_RANDOM, fpa_dist, fpa_profile)
    da_profile = tuple(
        lambda_map(fpa_profile[i], sigma_hat[i]) for i in range(f_true.n)
    )

    cost_hat = tuple(
        f.expected_excess(sig) for f, sig in zip(f_true.marginals, sigma_hat)
    )
    cost_err = max(abs(c - ch) for c, ch in zip(costs, cost_hat))

    # Estimator error measured where the pipeline actually estimates: the
    # product-form estimator on the truncated second-half samples against the
    # truncated true distribution, over the solved profile plus a shading grid.
    f_true_trunc = product_of(
        (truncate_at(f, sig) for f, sig in zip(f_true.marginals, sigma_hat)), f_true.h
    )
    family = shade_family(f_true_trunc, [k / 4 for k in range(5)]) + [fpa_profile]
    empp = sup_error(s_b.truncated(sigma_hat), FPA_RANDOM, family, f_true_trunc, "empp")

    da_gap, welfare = _deviation_gap(inst, da_profile)
    opt = opt_welfare(inst)
    bound = (1.0 - 1.0 / math.e) * opt - inst.n * da_gap
    return PipelineReport(
        sigma_hat=sigma_hat,
        cost_true=costs,
        cost_hat=cost_hat,
        cost_err=cost_err,
        eps_fpa=cert.epsilon,
        empp_sup_error=empp.sup_error,
        da_gap=da_gap,
        welfare=welfare,
        opt=opt,
        poa_bound=bound,
        fpa_profile=fpa_profile,
        da_profile=da_profile,
    )
