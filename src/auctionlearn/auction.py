"""Ex post and exact interim utilities for first-price and all-pay auctions.

Interim quantities are computed by dynamic programming over the per-opponent
(below / tied / above) trinomials, so tie-breaking expectations are exact
rather than sampled. Bids "slightly above" an atom are kept symbolic as
:class:`CandidateBid` limits and realized numerically only when a concrete
strategy must be emitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .dist import DiscreteDistribution, cdf_of_max
from .errors import EmptyGrid, IndexOutOfRange, NonMonotoneWitness
from .strategy import MonotoneStrategy


class Format(Enum):
    FIRST_PRICE = "first_price"
    ALL_PAY = "all_pay"


class Tie(Enum):
    RANDOM_ALLOCATION = "random_allocation"
    NO_ALLOCATION = "no_allocation"


@dataclass(frozen=True)
class AuctionRule:
    format: Format
    tie: Tie


FPA_RANDOM = AuctionRule(Format.FIRST_PRICE, Tie.RANDOM_ALLOCATION)
FPA_NONE = AuctionRule(Format.FIRST_PRICE, Tie.NO_ALLOCATION)
ALLPAY_RANDOM = AuctionRule(Format.ALL_PAY, Tie.RANDOM_ALLOCATION)
ALLPAY_NONE = AuctionRule(Format.ALL_PAY, Tie.NO_ALLOCATION)


@dataclass(frozen=True)
class CandidateBid:
    """A bid that is either exactly ``base`` or the right limit ``base+``."""

    base: float
    limit_above: bool = False

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("bids must be nonnegative")

    def to_json(self) -> dict:
        return {"base": self.base, "limit_above": self.limit_above}


def _utility(fmt: Format, v_i: float, base: float, alloc: float) -> float:
    if fmt is Format.ALL_PAY:
        return alloc * v_i - base
    return alloc * (v_i - base)


def ex_post_allocation(tie: Tie, bids) -> np.ndarray:
    """Every bidder's share of the item at each row of a bid array of shape (..., n).

    The top bid wins; a k-way top tie gives each tied bidder 1/k under random
    allocation (the expectation over the uniform tie-break) and 0 otherwise.
    """
    b = np.asarray(bids, dtype=float)
    top = b == b.max(axis=-1, keepdims=True)
    k = top.sum(axis=-1, keepdims=True)
    if tie is Tie.NO_ALLOCATION:
        return (top & (k == 1)).astype(float)
    return top / k


def ex_post_utility(rule: AuctionRule, i: int, v_i, bids):
    """Realized utility of bidder i at each row of a bid array of shape (..., n).

    ``v_i`` broadcasts against the rows; a 1-D bid vector gives one float.
    Random-allocation ties are returned in expectation over the uniform
    tie-break, i.e. the utility is (v - b) / k for a k-way top tie in a
    first-price auction.
    """
    b = np.asarray(bids, dtype=float)
    if not 0 <= i < b.shape[-1]:
        raise IndexOutOfRange(f"bidder {i} out of range for {b.shape[-1]} bids")
    return _utility(rule.format, v_i, b[..., i], ex_post_allocation(rule.tie, b)[..., i])


def push_forward(f_j: DiscreteDistribution, s_j: MonotoneStrategy) -> DiscreteDistribution:
    """Distribution of s_j(v) for v ~ f_j, with equal bids merged."""
    merged: dict[float, float] = {}
    for a, w in f_j:
        bid = s_j.eval(a)
        merged[bid] = merged.get(bid, 0.0) + w
    pairs = sorted(merged.items())
    return DiscreteDistribution(tuple(b for b, _ in pairs), tuple(w for _, w in pairs))


def allocation_probability(
    tie: Tie, opp: Sequence[DiscreteDistribution], bases, limit_above: bool = False
):
    """Exact interim allocation probability of every bid in ``bases``.

    The bids are all exact or, with ``limit_above``, all right limits
    ``base+``. A right limit wins when no opponent bids above ``base``: the
    CDF of the opponents' maximum. An exact bid wins when no opponent bids
    above it; with t opponents tied, the tie DP tracks q[t] = P(nobody above,
    exactly t tied) one opponent at a time, and random allocation wins a
    t-way tie with probability 1 / (t + 1). A scalar ``bases`` gives a float.
    """
    b = np.asarray(bases, dtype=float)
    if limit_above:
        prob = cdf_of_max(opp, b)
    else:
        q = [np.ones_like(b)]
        for d in opp:
            atoms, weights, cum = d.arrays
            lo = np.searchsorted(atoms, b, side="left")
            hi = np.searchsorted(atoms, b, side="right")
            p_below = cum[lo]
            p_at = np.where(hi > lo, weights[lo], 0.0)
            q = (
                [q[0] * p_below]
                + [q[t - 1] * p_at + q[t] * p_below for t in range(1, len(q))]
                + [q[-1] * p_at]
            )
        prob = q[0]
        if tie is Tie.RANDOM_ALLOCATION:
            for t in range(1, len(q)):
                prob = prob + q[t] / (t + 1)
    return float(prob) if b.ndim == 0 else prob


def interim_utility_exact(
    rule: AuctionRule, values, bids, opp: Sequence[DiscreteDistribution]
):
    """Exact expected utility of bidding ``bids`` at ``values`` against independent opponents.

    Takes equal-length arrays of values and exact bids, or two scalars for one float.
    """
    b = np.asarray(bids, dtype=float)
    alloc = allocation_probability(rule.tie, opp, b)
    u = _utility(rule.format, np.asarray(values, dtype=float), b, alloc)
    return float(u) if b.ndim == 0 else u


def candidate_allocations(
    tie: Tie, opp: Sequence[DiscreteDistribution]
) -> list[tuple[CandidateBid, float]]:
    """Allocation probability of every bid sufficient for best responses.

    The candidates are 0 and every opponent atom, each followed by its right
    limit; the probabilities are independent of the bidder's value.
    """
    bases = sorted({0.0} | {a for d in opp for a in d.atoms})
    exact = allocation_probability(tie, opp, bases).tolist()
    above = allocation_probability(tie, opp, bases, limit_above=True).tolist()
    out = []
    for b, p, p_above in zip(bases, exact, above):
        out.append((CandidateBid(b), p))
        out.append((CandidateBid(b, limit_above=True), p_above))
    return out


# Elements per row block of the values x candidates utility matrix; bounds
# the memory of best responses over many values.
BEST_RESPONSE_BLOCK = 1 << 12


def best_response(
    rule: AuctionRule,
    values,
    opp: Sequence[DiscreteDistribution],
    candidates: Sequence[tuple[CandidateBid, float]] | None = None,
):
    """Supremum interim utility over all bids in [0, H] and one maximizer, per value.

    A scalar value gives ``(sup, bid)``; an array of values gives two lists.
    Row blocks of the values x candidates utility matrix are maximized with
    ``argmax``, which returns the first maximum, so ties break toward the
    lower base, exact bid before its right limit. ``candidates`` can be
    supplied to reuse allocation probabilities across calls for one bidder.
    """
    if candidates is None:
        candidates = candidate_allocations(rule.tie, opp)
    bases = np.array([c.base for c, _ in candidates])
    alloc = np.array([a for _, a in candidates])
    v = np.asarray(values, dtype=float)
    flat = np.atleast_1d(v)
    rows = max(1, BEST_RESPONSE_BLOCK // len(candidates))
    sups, picks = [], []
    for lo in range(0, len(flat), rows):
        u = _utility(rule.format, flat[lo : lo + rows, None], bases, alloc)
        k = u.argmax(axis=1)
        sups.extend(u[np.arange(len(k)), k].tolist())
        picks.extend(candidates[j][0] for j in k.tolist())
    return (sups[0], picks[0]) if v.ndim == 0 else (sups, picks)


def realize_bid(
    bid: CandidateBid, all_bases: Sequence[float], h: float
) -> float:
    """Turn a symbolic limit bid into a number: base + eta, eta = half the
    minimum gap between distinct candidate bids, capped so the result is <= h."""
    if not bid.limit_above:
        return bid.base
    bases = sorted(set(all_bases))
    gaps = [b2 - b1 for b1, b2 in zip(bases, bases[1:])]
    eta = min(gaps) / 2 if gaps else (h - bid.base) / 2
    return min(bid.base + eta, h)


def monotone_best_response_profile(
    rule: AuctionRule,
    values: Sequence[float],
    opp: Sequence[DiscreteDistribution],
    h: float,
    bid_grid: Sequence[float] | None = None,
) -> MonotoneStrategy:
    """Pointwise best-response bids over a value grid, emitted as a strategy.

    When ``bid_grid`` is given the search is restricted to those bids;
    otherwise the full candidate set (with limit bids realized numerically,
    capped at ``h``) is used. Bids with zero winning probability are zeroed
    out, after which the bid sequence must be nondecreasing; a violation
    raises :class:`NonMonotoneWitness`, since it would contradict the
    monotone dominance of best responses.
    """
    if bid_grid is not None:
        grid_bids = sorted(set(bid_grid))
        if not grid_bids:
            raise EmptyGrid("bid_grid is empty")
        alloc = allocation_probability(rule.tie, opp, grid_bids).tolist()
        cands = [(CandidateBid(b), p) for b, p in zip(grid_bids, alloc)]
    else:
        cands = candidate_allocations(rule.tie, opp)
    grid = sorted(set(float(v) for v in values))
    bases = [c.base for c, _ in cands]
    alloc_of = dict(cands)
    _, choices = best_response(rule, grid, opp, cands)
    bids = [0.0 if alloc_of[c] == 0.0 else realize_bid(c, bases, h) for c in choices]
    if any(b2 < b1 for b1, b2 in zip(bids, bids[1:])):
        raise NonMonotoneWitness(f"best-response bids not monotone: {list(zip(grid, bids))}")
    return MonotoneStrategy(tuple(zip(grid, bids)))
