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

from .dist import DiscreteDistribution
from .errors import IndexOutOfRange, NonMonotoneWitness
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


def _tie_profile(opp: Sequence[DiscreteDistribution], b: float) -> list[float]:
    """q[t] = P(no opponent bids above b and exactly t opponents tie at b)."""
    q = [1.0]
    for d in opp:
        p_below = d.prob_below(b)
        p_at = d.prob_at(b)
        nxt = [0.0] * (len(q) + 1)
        for t, qt in enumerate(q):
            if qt:
                nxt[t] += qt * p_below
                nxt[t + 1] += qt * p_at
        q = nxt
    return q


def allocation_probability(
    tie: Tie, opp: Sequence[DiscreteDistribution], bid: CandidateBid
) -> float:
    """Exact interim allocation probability of the (possibly limit) bid."""
    if bid.limit_above:
        prob = 1.0
        for d in opp:
            prob *= d.prob_at_most(bid.base)
        return prob
    q = _tie_profile(opp, bid.base)
    if tie is Tie.NO_ALLOCATION:
        return q[0]
    return sum(qt / (t + 1) for t, qt in enumerate(q))


def interim_utility_exact(
    rule: AuctionRule,
    i: int,
    v_i: float,
    b_i: float | CandidateBid,
    opp: Sequence[DiscreteDistribution],
) -> float:
    """Exact expected utility of bidder i bidding b_i against independent opponent bids."""
    bid = b_i if isinstance(b_i, CandidateBid) else CandidateBid(float(b_i))
    alloc = allocation_probability(rule.tie, opp, bid)
    return _utility(rule.format, v_i, bid.base, alloc)


def candidate_bids(opp: Sequence[DiscreteDistribution]) -> list[CandidateBid]:
    """The bid set sufficient for best responses: 0, every opponent atom, and its right limit."""
    bases = sorted({0.0} | {a for d in opp for a in d.atoms})
    out = []
    for a in bases:
        out.append(CandidateBid(a))
        out.append(CandidateBid(a, limit_above=True))
    return out


def candidate_allocations(
    tie: Tie, opp: Sequence[DiscreteDistribution]
) -> list[tuple[CandidateBid, float]]:
    """Allocation probability of every candidate bid; independent of the bidder's value."""
    return [(c, allocation_probability(tie, opp, c)) for c in candidate_bids(opp)]


def best_response(
    rule: AuctionRule,
    i: int,
    v_i: float,
    opp: Sequence[DiscreteDistribution],
    candidates: Sequence[tuple[CandidateBid, float]] | None = None,
) -> tuple[float, CandidateBid]:
    """Supremum interim utility over all bids in [0, H] and one maximizer.

    Ties break toward the lower base, exact bid before its right limit.
    ``candidates`` can be supplied to reuse allocation probabilities across
    many values of the same bidder.
    """
    if candidates is None:
        candidates = candidate_allocations(rule.tie, opp)
    best_u, best_c = None, None
    for c, alloc in candidates:
        u = _utility(rule.format, v_i, c.base, alloc)
        if best_u is None or u > best_u:
            best_u, best_c = u, c
    return best_u, best_c


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
    i: int,
    values: Sequence[float],
    opp: Sequence[DiscreteDistribution],
    bid_grid: Sequence[float] | None = None,
    h: float | None = None,
) -> MonotoneStrategy:
    """Pointwise best-response bids over a value grid, emitted as a strategy.

    When ``bid_grid`` is given the search is restricted to those bids;
    otherwise the full candidate set (with limit bids realized numerically)
    is used. Bids with zero winning probability are zeroed out, after which
    the bid sequence must be nondecreasing; a violation raises
    :class:`NonMonotoneWitness`, since it would contradict the monotone
    dominance of best responses.
    """
    if bid_grid is not None:
        cands = [
            (CandidateBid(b), allocation_probability(rule.tie, opp, CandidateBid(b)))
            for b in sorted(set(bid_grid))
        ]
    else:
        cands = candidate_allocations(rule.tie, opp)
    if h is None:
        h = max([c.base for c, _ in cands] + [max(values, default=0.0)])
    grid = sorted(set(float(v) for v in values))
    bases = [c.base for c, _ in cands]
    alloc_of = dict(cands)
    bids = []
    for v in grid:
        _, choice = best_response(rule, i, v, opp, candidates=cands)
        bids.append(0.0 if alloc_of[choice] == 0.0 else realize_bid(choice, bases, h))
    if any(b2 < b1 for b1, b2 in zip(bids, bids[1:])):
        raise NonMonotoneWitness(f"best-response bids not monotone: {list(zip(grid, bids))}")
    return MonotoneStrategy(tuple(zip(grid, bids)))
