"""Ex post and exact interim utilities for first-price and all-pay auctions.

Interim quantities are computed by dynamic programming over the per-opponent
(below / tied / above) trinomials, so tie-breaking expectations are exact
rather than sampled. Bids "slightly above" an atom stay symbolic: the
candidate set of a best response is a record array with a right-limit flag,
and a :class:`CandidateBid` is built only for a returned pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Sequence

import numpy as np

from .dist import DiscreteDistribution, _push_values
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
    limit_above: bool

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
    Many rows of few bidders (at most 16, and at least 64 rows per bidder) take
    the top bid and the tie count column by column, since numpy reduces a short
    last axis row by row, slowly; other arrays reduce the last axis. Both give
    the same bits.
    """
    b = np.asarray(bids, dtype=float)
    n = b.shape[-1] if b.ndim else 1
    if 0 < n <= 16 and b.size >= 64 * n * n:
        top = b == reduce(np.maximum, (b[..., j : j + 1] for j in range(n)))
        k = reduce(np.add, (top[..., j : j + 1] for j in range(1, n)), top[..., :1].astype(int))
    else:
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
        raise ValueError(f"bidder {i} out of range for {b.shape[-1]} bids")
    return _utility(rule.format, v_i, b[..., i], ex_post_allocation(rule.tie, b)[..., i])


def push_forward(f_j: DiscreteDistribution, s_j: MonotoneStrategy) -> DiscreteDistribution:
    """Distribution of s_j(v) for v ~ f_j, with equal bids merged; one ``eval`` call."""
    return _push_values(f_j, s_j.eval(f_j.arrays[0]))


def _tie_dp(tie: Tie, like: np.ndarray, masses) -> np.ndarray:
    """Winning probability of exact bids shaped like ``like``, from each opponent's
    (P(bid below), P(bid at)): q[t] = P(nobody above, t tied), and random allocation
    wins a t-way tie with probability 1 / (t + 1)."""
    q = [np.ones_like(like)]
    for p_below, p_at in masses:
        q = (
            [q[0] * p_below]
            + [q[t - 1] * p_at + q[t] * p_below for t in range(1, len(q))]
            + [q[-1] * p_at]
        )
    prob = q[0]
    if tie is Tie.RANDOM_ALLOCATION:
        for t in range(1, len(q)):
            prob = prob + q[t] / (t + 1)
    return prob


def allocation_probability(tie: Tie, opp: Sequence[DiscreteDistribution], bases):
    """Exact interim allocation probability of every exact bid in ``bases``.

    A bid wins when no opponent bids above it, ties as the tie DP resolves them.
    A scalar ``bases`` gives a float. A right limit ``base+`` wins when no
    opponent bids above ``base``: :func:`dist.cdf_of_max` of the opponents.
    """
    b = np.asarray(bases, dtype=float)
    masses = []
    for atoms, weights, cum in (d.arrays for d in opp):
        lo, hi = atoms.searchsorted(b, "left"), atoms.searchsorted(b, "right")
        masses.append((cum[lo], np.where(hi > lo, weights[lo], 0.0)))
    prob = _tie_dp(tie, b, masses)
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


def candidate_allocations(tie: Tie, opp: Sequence[DiscreteDistribution]) -> np.ndarray:
    """Allocation probability of every bid sufficient for best responses.

    A record array with fields ``base``, ``limit_above`` and ``alloc``: 0 and
    every opponent atom, each exact bid followed by its right limit. The
    probabilities are independent of the bidder's value. It is the
    :func:`_leave_one_out_row` of one bidder after the opponents, who leaves none
    of them out, on the axis of 0 and their atoms.
    """
    bases = np.array(sorted({0.0} | {a for d in opp for a in d.atoms}))
    masses = np.zeros((len(opp), len(bases)))
    for row, d in zip(masses, opp):
        atoms, weights, _ = d.arrays
        row[:] = _bid_masses(bases, atoms, weights[:-1])
    out = np.empty(2 * len(bases), [("base", float), ("limit_above", bool), ("alloc", float)])
    out["base"][0::2] = out["base"][1::2] = bases
    out["limit_above"][0::2], out["limit_above"][1::2] = False, True
    out["alloc"] = _leave_one_out_row(tie, masses, _prefix_masses(masses), len(opp))
    return out


def _bid_masses(axis: np.ndarray, bids: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """P(bid == axis[k]) for every k, when bid ``bids[k]`` has weight ``weights[k]``:
    the weights of equal bids are added left to right from 0.0. Every bid must be
    on the sorted ``axis`` (-0.0 is found at 0.0)."""
    return np.bincount(axis.searchsorted(bids), weights, minlength=len(axis))


# Elements per row block of the values x candidates utility matrix and per block
# of probes x samples x bidders in the empirical estimator; bounds the memory of
# best responses over many values and of estimates over many probes.
BEST_RESPONSE_BLOCK = 1 << 12


def _prefix_masses(masses: np.ndarray) -> np.ndarray:
    """P(bid < base k) in column k and P(bid <= base k) in column k + 1, per row of
    bid masses on a sorted axis: prefix sums left to right from 0.0."""
    cum = np.zeros((len(masses), masses.shape[1] + 1))
    np.cumsum(masses, axis=1, out=cum[:, 1:])
    return cum


def _leave_one_out_row(tie: Tie, masses: np.ndarray, cum: np.ndarray, i: int) -> np.ndarray:
    """Bidder i's allocation probabilities on a shared bid axis, against all the other
    bidders: base k's exact bid in column 2k and its right limit in column 2k + 1.

    ``masses[j, k]`` is P(bidder j bids axis[k]), on one sorted axis that holds 0.0
    and every bid, and ``cum`` is its :func:`_prefix_masses`. The tie DP runs over the
    bidders j != i in bidder order, fed (P(below), P(at)) = (cum[j, k], masses[j, k]);
    the right limits multiply P(bid <= base) = cum[j, k + 1] in the same order, from
    1.0. An ``i`` of ``len(masses)`` leaves nobody out.

    The row has the bits of the table of bidder i's opponents alone, because
    (a) a base where an opponent has no mass adds +0.0 to its prefix sums;
    (b) the own factor (P(below), P(at)) = (1.0, 0.0), fed to the DP at its place,
        would leave every DP coefficient as it was and append a +0.0 one, whose
        random-allocation share adds +0.0 (and 1.0 changes no product): a DP over
        every bidder with that factor gives the same bits as the row;
    (c) at a base that is no opponent's atom, the exact and the right-limit
        allocation equal the right limit of the opponent base (or 0) below it. Its
        base is higher, so its utility never strictly beats that earlier candidate,
        and a first-maximum ``argmax`` or ``np.maximum.accumulate`` keeps the same
        pick; an exact bid read at its own base has the bits of
        :func:`allocation_probability`;
    (d) :func:`_bid_masses` adds the weights of equal consecutive bids left to
        right from 0.0, as the merge of :func:`dist._push_values` does.
    """
    opp = [j for j in range(len(masses)) if j != i]
    out = np.empty(2 * masses.shape[1])
    out[0::2] = _tie_dp(tie, out[0::2], ((cum[j, :-1], masses[j]) for j in opp))
    out[1::2] = reduce(np.multiply, (cum[j, 1:] for j in opp), 1.0)
    return out


def _leave_one_out_allocations(tie: Tie, masses: np.ndarray) -> np.ndarray:
    """Every bidder's :func:`_leave_one_out_row`, stacked: an (n, 2G) array for n
    bidders' bid masses on an axis of G bases."""
    cum = _prefix_masses(masses)
    return np.array([_leave_one_out_row(tie, masses, cum, i) for i in range(len(masses))])


def _argmax_utility(fmt: Format, values: np.ndarray, bases, alloc):
    """Largest utility over the candidate bids and its first maximizing index, per value.

    Row blocks of the values x candidates utility matrix are maximized with
    ``argmax``, which returns the first maximum.
    """
    rows = max(1, BEST_RESPONSE_BLOCK // len(bases))
    sups = np.empty(len(values))
    picks = np.empty(len(values), dtype=np.intp)
    for lo in range(0, len(values), rows):
        u = _utility(fmt, values[lo : lo + rows, None], bases, alloc)
        picks[lo : lo + rows] = k = u.argmax(axis=1)
        sups[lo : lo + rows] = u[np.arange(len(k)), k]
    return sups, picks


def best_response(rule: AuctionRule, values, opp: Sequence[DiscreteDistribution]):
    """Supremum interim utility over all bids in [0, H] and one maximizer, per value.

    A scalar value gives ``(sup, bid)``; an array of values gives two lists.
    The supremum is a maximum over :func:`candidate_allocations`; ties break
    toward the lower base, exact bid before its right limit.
    """
    cands = candidate_allocations(rule.tie, opp)
    v = np.asarray(values, dtype=float)
    sups, ks = _argmax_utility(rule.format, np.atleast_1d(v), cands["base"], cands["alloc"])
    picked = cands[ks]
    picks = list(map(CandidateBid, picked["base"].tolist(), picked["limit_above"].tolist()))
    return (sups[0].item(), picks[0]) if v.ndim == 0 else (sups.tolist(), picks)


def _grid_best_response(
    fmt: Format, values: np.ndarray, grid_bids: np.ndarray, alloc
) -> np.ndarray:
    """Pointwise best-response bids at sorted distinct ``values`` over the sorted
    distinct ``grid_bids``, whose allocation probabilities are ``alloc``.

    Ties break toward the lower bid. Bids with zero winning probability are
    zeroed out, after which the bid sequence must be nondecreasing; a
    violation raises ``ValueError``, since it would contradict the monotone
    dominance of best responses.
    """
    _, ks = _argmax_utility(fmt, values, grid_bids, alloc)
    bids = np.where(alloc == 0.0, 0.0, grid_bids)[ks]
    if (bids[1:] < bids[:-1]).any():
        pairs = list(zip(values.tolist(), bids.tolist()))
        raise ValueError(f"best-response bids not monotone: {pairs}")
    return bids
