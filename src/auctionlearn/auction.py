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


def _top_bids(tie: Tie, opp: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Each row's top bid over the opponent columns of ``opp`` (-inf without any), and
    the share a bid equal to it wins: 1 / (1 + ties) under random allocation, else 0."""
    top = opp.max(axis=-1, initial=-np.inf)
    tied = 0.0 if tie is Tie.NO_ALLOCATION else 1.0 / (1 + (opp == top[..., None]).sum(axis=-1))
    return top, tied


def _share(own, top: np.ndarray, tied) -> np.ndarray:
    """The share of the item that each finite bid in ``own`` wins against the rows of
    :func:`_top_bids`, broadcast: 1.0 above the top bid, the tie share at it, 0.0 below."""
    return np.where(own > top, 1.0, np.where(own == top, tied, 0.0))


def ex_post_utility(rule: AuctionRule, i: int, v_i, bids):
    """Realized utility of bidder i at each row of a bid array of shape (..., n).

    ``v_i`` broadcasts against the rows; a 1-D bid vector gives one float.
    Random-allocation ties are returned in expectation over the uniform
    tie-break, i.e. the utility is (v - b) / k for a k-way top tie in a
    first-price auction. A bid array without a bidder axis, or with a NaN bid,
    raises ``ValueError``.
    """
    b = np.asarray(bids, dtype=float)
    if b.ndim == 0:
        raise ValueError("bids must have a bidder axis")
    if not 0 <= i < b.shape[-1]:
        raise ValueError(f"bidder {i} out of range for {b.shape[-1]} bids")
    if np.isnan(b).any():
        raise ValueError("a bid must not be NaN")
    own = b[..., i]
    share = _share(own, *_top_bids(rule.tie, np.delete(b, i, axis=-1)))
    return _utility(rule.format, v_i, own, share)


def push_forward(f_j: DiscreteDistribution, s_j: MonotoneStrategy) -> DiscreteDistribution:
    """Distribution of s_j(v) for v ~ f_j, with equal bids merged; one ``eval`` call."""
    return _push_values(f_j, s_j.eval(f_j.arrays[0]))


def _tie_dp(tie: Tie, like: np.ndarray, masses) -> np.ndarray:
    """Winning probability of exact bids shaped like ``like``, from each opponent's
    (P(bid below), P(bid at)): q[t] = P(nobody above, t tied), and random allocation
    wins a t-way tie with probability 1 / (t + 1). Every pair has the shape of
    ``like``; the polynomial starts from the first (from ones without opponents)."""
    masses = iter(masses)
    first = next(masses, None)
    q = [np.ones_like(like)] if first is None else list(first)
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
    """Exact interim allocation probability of every exact bid in ``bases``, in its
    shape (a float for a scalar; a NaN bid raises ``ValueError``): the
    :func:`_leave_one_out_row` of one more bidder, with no mass, against the
    opponents, read at each bid. A right limit ``base+`` wins when no opponent bids
    above ``base``: the row's product of the opponents' P(bid <= base) prefix sums.
    """
    b = np.asarray(bases, dtype=float)
    axis, masses = _bid_axis([d.arrays[:2] for d in opp], b)
    prob = _leave_one_out_row(tie, masses, len(opp))[2 * axis.searchsorted(b)]
    return float(prob) if b.ndim == 0 else prob


def candidate_allocations(tie: Tie, opp: Sequence[DiscreteDistribution]) -> np.ndarray:
    """Allocation probability of every bid sufficient for best responses.

    A record array with fields ``base``, ``limit_above`` and ``alloc``: 0 and
    every opponent atom, each exact bid followed by its right limit. The
    probabilities are independent of the bidder's value. It is the
    :func:`_leave_one_out_row` of one more bidder, with no mass, against the
    opponents, on their :func:`_bid_axis`.
    """
    axis, masses = _bid_axis([d.arrays[:2] for d in opp], ())
    out = np.empty(2 * len(axis), [("base", float), ("limit_above", bool), ("alloc", float)])
    out["base"][0::2] = out["base"][1::2] = axis
    out["limit_above"][0::2], out["limit_above"][1::2] = False, True
    out["alloc"] = _leave_one_out_row(tie, masses, len(opp))
    return out


def _bid_masses(axis: np.ndarray, bids: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """P(bid == axis[k]) for every k, when bid ``bids[..., k]`` has weight
    ``weights[..., k]``: the weights of equal bids are added left to right from 0.0.
    Every bid must be on the sorted ``axis`` (-0.0 is found at 0.0). Rows of a 2-D
    ``bids`` give rows of masses from one ``bincount``, each row on bins of its own."""
    k = axis.searchsorted(bids)
    if k.ndim == 1:
        return np.bincount(k, weights, minlength=len(axis))
    k += len(axis) * np.arange(len(k))[:, None]
    pushed = np.bincount(k.ravel(), weights.ravel(), minlength=len(k) * len(axis))
    return pushed.reshape(len(k), len(axis))


def _bid_axis(bids: Sequence[tuple[np.ndarray, np.ndarray]], bases):
    """The sorted axis of 0.0, every bid and every one of ``bases`` (a NaN base, which
    would scramble the sort, raises ``ValueError``), and the (n, G) :func:`_bid_masses`
    on it of the n (bids, weights) pairs ``bids`` (no pair gives a (0, G) matrix)."""
    b = np.asarray(bases, dtype=float).ravel()
    if np.isnan(b).any():
        raise ValueError("a bid must not be NaN")
    axis = np.array(sorted({0.0}.union(b.tolist(), *(x.tolist() for x, _ in bids))))
    masses = np.zeros((len(bids), len(axis)))
    for row, (x, w) in zip(masses, bids):
        row[:] = _bid_masses(axis, x, w)
    return axis, masses


# Elements per row block of the values x candidates utility matrix and per block
# of probes x samples x bidders in the empirical estimator; bounds the memory of
# best responses over many values and of estimates over many probes.
BEST_RESPONSE_BLOCK = 1 << 12


def _leave_one_out_row(tie: Tie, masses: np.ndarray, i: int) -> np.ndarray:
    """Bidder i's allocation probabilities on a shared bid axis, against all the other
    bidders: base k's exact bid in column 2k and its right limit in column 2k + 1.
    It is the one kernel of every exact interim allocation.

    ``masses[..., j, k]`` is P(bidder j bids axis[k]), as :func:`_bid_axis` gives it;
    leading axes stack profiles on the same axis, each with its own row. Its prefix
    sums left to right from 0.0 give P(bid < base k) in ``cum[..., j, k]`` and
    P(bid <= base k) in ``cum[..., j, k + 1]``. The tie DP runs over the bidders
    j != i in bidder order, fed (P(below), P(at)) = (cum[..., j, k], masses[..., j, k]);
    the right limits multiply P(bid <= base) = cum[..., j, k + 1] in the same order,
    from 1.0. An ``i`` of n leaves nobody out. A stacked profile's row has the bits of
    its own.

    A base where an opponent has no mass adds +0.0 to its prefix sums, and
    :func:`_bid_masses` adds the weights of equal bids left to right from 0.0, as
    the merge of :func:`dist._push_values` does; so every entry has the bits of the
    same DP fed each opponent's own weights and prefix sums. At a base that is no
    opponent's bid, the exact and the right-limit allocation equal the right limit
    of the opponent base (or 0) below it. Its base is higher, so its utility never
    strictly beats that earlier candidate, and a first-maximum ``argmax`` or
    ``np.maximum.accumulate`` over a whole row keeps the pick of the opponents'
    bases alone.
    """
    opp = [j for j in range(masses.shape[-2]) if j != i]
    cum = np.zeros(masses.shape[:-1] + (masses.shape[-1] + 1,))
    np.cumsum(masses, axis=-1, out=cum[..., 1:])
    out = np.empty(masses.shape[:-2] + (2 * masses.shape[-1],))
    at = ((cum[..., j, :-1], masses[..., j, :]) for j in opp)
    out[..., 0::2] = _tie_dp(tie, out[..., 0::2], at)
    out[..., 1::2] = reduce(np.multiply, (cum[..., j, 1:] for j in opp), 1.0)
    return out


def _argmax_picks(fmt: Format, values: np.ndarray, bases, allocs: np.ndarray):
    """First maximizing candidate index per allocation row of the 2-D ``allocs`` and
    per value, and the allocation at that pick: two (len(allocs), len(values)) arrays.
    It is the one argmax of every best response and every certificate.

    Blocks of at most ``BEST_RESPONSE_BLOCK`` values x candidates elements, whole
    allocation rows or values of one row, are maximized with ``argmax``, which
    returns the first maximum. A block reads its allocation rows uncopied.
    """
    k = len(values)
    rows = max(1, BEST_RESPONSE_BLOCK // len(bases))
    per = max(1, rows // max(k, 1))
    picks = np.empty((len(allocs), k), dtype=np.intp)
    for p in range(0, len(allocs), per):
        for lo in range(0, k, rows):
            u = _utility(fmt, values[lo : lo + rows, None], bases, allocs[p : p + per, None])
            picks[p : p + per, lo : lo + rows] = u.argmax(axis=-1)
    return picks, allocs[np.arange(len(allocs))[:, None], picks]


def best_response(rule: AuctionRule, values, opp: Sequence[DiscreteDistribution]):
    """Supremum interim utility over all bids in [0, H] and one maximizer, per value.

    A scalar value gives ``(sup, bid)``; an array of values gives two lists.
    The supremum is a maximum over :func:`candidate_allocations`; ties break
    toward the lower base, exact bid before its right limit.
    """
    cands = candidate_allocations(rule.tie, opp)
    v = np.asarray(values, dtype=float)
    vs, bases = np.atleast_1d(v), cands["base"]
    (ks,), (won,) = _argmax_picks(rule.format, vs, bases, cands["alloc"][None])
    sups = _utility(rule.format, vs, bases[ks], won)
    picked = cands[ks]
    picks = list(map(CandidateBid, picked["base"].tolist(), picked["limit_above"].tolist()))
    return (sups[0].item(), picks[0]) if v.ndim == 0 else (sups.tolist(), picks)
