"""Approximate-equilibrium verification and a certified best-response solver.

The verifier is exact: for every bidder and every supported value it compares
the profile's own interim utility against the true supremum over all bids
(including right limits at opponent atoms). The solver runs damped
best-response dynamics on a bid grid, but its output guarantee comes solely
from the verifier: it returns the visited profile with the smallest certified
epsilon, never trusting convergence.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial

import numpy as np

from .auction import (
    AuctionRule,
    CandidateBid,
    _argmax_utility,
    _bid_axis,
    _bid_masses,
    _grid_best_response,
    _leave_one_out_row,
    _prefix_masses,
    _utility,
)
from .dist import ProductDistribution
from .strategy import MonotoneStrategy, StrategyProfile


@dataclass(frozen=True)
class BNECertificate:
    """Exact deviation-gap table for a strategy profile.

    ``gaps[i]`` lists (value, gap) for every supported value of bidder i;
    ``epsilon`` is the largest gap and ``worst`` records where it occurs and
    the (possibly symbolic limit) bid achieving it.
    """

    epsilon: float
    gaps: tuple[tuple[tuple[float, float], ...], ...]
    worst: tuple[int, float, CandidateBid]

    def to_json(self) -> dict:
        i, v, dev = self.worst
        return {
            "epsilon": self.epsilon,
            "worst": {"bidder": i, "value": v, "deviation": dev.to_json()},
            "gaps": [[[v, g] for v, g in row] for row in self.gaps],
        }


def verify_bne(
    rule: AuctionRule, f: ProductDistribution, profile: StrategyProfile
) -> BNECertificate:
    """Exact epsilon-BNE certificate: max over (bidder, value) best-response gaps.

    Each strategy is evaluated once, at every atom of its bidder's marginal."""
    if len(profile) != f.n:
        raise ValueError(f"profile has {len(profile)} strategies for {f.n} bidders")
    if any(s.max_bid > f.h for s in profile):
        raise ValueError(f"profile bids above H={f.h}")
    bids = [s.eval(m.arrays[0]) for m, s in zip(f.marginals, profile)]
    axis, masses, cum = _bid_axis([(b, m.arrays[1]) for m, b in zip(f.marginals, bids)], ())
    row = partial(_leave_one_out_row, rule.tie, masses, cum)
    return _certify(rule, f, bids, axis, row, math.inf, 0)


def _certify(rule, f, bids: list, axis: np.ndarray, row, stop_at: float, first: int):
    """``verify_bne``'s certificate of the profile whose bids at bidder i's atoms are
    ``bids[i]``, or None as soon as one bidder's largest gap is >= ``stop_at``.
    ``row(i)`` is bidder i's :func:`auction._leave_one_out_row` of the profile on
    ``axis``, read once per examined bidder; a bidder's candidates are every base
    and its right limit. Bidder ``first`` is examined first; the certificate is
    assembled in bidder order, so it does not depend on it. Only the first largest
    gap of a row, the one ``worst`` may take, gets a :class:`CandidateBid`.
    """
    bases = np.repeat(axis, 2)
    rows = {}
    for i in [first] + [j for j in range(f.n) if j != first]:
        values = f.marginals[i].arrays[0]
        alloc = row(i)
        sups, picks = _argmax_utility(rule.format, values, bases, alloc)
        own = bids[i]
        gaps = sups - _utility(rule.format, values, own, alloc[2 * axis.searchsorted(own)])
        bad = ~(gaps >= -1e-9)  # also a NaN gap, which `gap > eps` would skip
        if bad.any():
            gap = gaps[bad.argmax()].item()
            raise AssertionError(f"gap {gap} is negative or NaN: candidates not exhaustive")
        gaps = np.where(gaps < 0.0, 0.0, gaps)  # as max(gap, 0.0), which keeps a -0.0 gap
        if gaps.max() >= stop_at:
            return None
        rows[i] = (gaps, picks)
    eps, worst = 0.0, (0, 0.0, CandidateBid(0.0, False))
    for i in range(f.n):
        gaps, picks = rows[i]
        k = gaps.argmax()
        if gaps[k] > eps:
            bid = CandidateBid(bases[picks[k]].item(), bool(picks[k] % 2))
            eps, worst = gaps[k].item(), (i, f.marginals[i].atoms[k], bid)
    gap_rows = tuple(tuple(zip(f.marginals[i].atoms, rows[i][0].tolist())) for i in range(f.n))
    return BNECertificate(eps, gap_rows, worst)


def _damped_mix(old: np.ndarray, new: np.ndarray, damping: float, rng) -> np.ndarray:
    # Per value keep the old bid with probability `damping`, then restore
    # monotonicity with a running max (a pointwise mixture of two monotone
    # step functions need not be monotone). One draw per value, in value order.
    # Python's max, unlike np.maximum, keeps the running bid on a -0.0 / 0.0 tie.
    mixed = np.where(rng.random(len(old)) < damping, old, new)
    bids = []
    prev = 0.0
    for b in mixed.tolist():
        prev = max(prev, b)
        bids.append(prev)
    return np.array(bids)


def _snap_to_grid(bid: float, grid: list[float]) -> float:
    # Nearest bid of the sorted grid, ties toward the lower one.
    k = bisect_left(grid, bid)
    if k == 0:
        return grid[0]
    if k == len(grid):
        return grid[-1]
    lo, hi = grid[k - 1], grid[k]
    return hi if abs(hi - bid) < abs(lo - bid) - 1e-15 else lo


def _shade_on_grid(values, alpha: float, grid: list[float]) -> np.ndarray:
    # The bids at `values` of alpha * v snapped to the grid, made nondecreasing.
    bids = []
    prev = grid[0]
    for v in values:
        prev = max(prev, _snap_to_grid(alpha * v, grid))
        bids.append(prev)
    return np.array(bids)


MAX_GRID_BIDS = 10**6


def uniform_bid_grid(h: float, grid_step: float) -> list[float]:
    """Bids j * grid_step for j < k = floor(h / grid_step + 1e-9), then min(k * grid_step, h).

    A grid of more than ``MAX_GRID_BIDS`` bids raises ``ValueError`` unbuilt."""
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f"grid step must be finite and positive, got {grid_step}")
    k = h / grid_step + 1e-9
    if not k < MAX_GRID_BIDS:  # also an infinite quotient, which floor rejects
        raise ValueError(f"H={h} over grid step {grid_step} needs more than {MAX_GRID_BIDS} bids")
    k = math.floor(k)
    return [j * grid_step for j in range(k)] + [min(k * grid_step, h)]


def solve_bne(
    rule: AuctionRule,
    f: ProductDistribution,
    bid_grid,
    max_iters: int,
    seed: int,
    damping: float = 0.5,
) -> tuple[StrategyProfile, BNECertificate]:
    """Damped best-response dynamics on a bid grid, certified every step.

    The dynamics restarts from five grid-snapped linear-shading profiles
    (best-response cycling rarely discovers graded strategies from a flat
    start) and runs ``max_iters // 5`` rounds from each, so ``max_iters`` caps
    the total rounds and 0 to 4 certify only the starts. Every raw and every
    damped best-response iterate is considered. A profile is kept only if its
    epsilon is below the best so far, so its certification stops at the first
    bidder (the best's worst one first) whose largest gap reaches the best; the
    returned certificate equals ``verify_bne``'s. A profile visited again is not
    certified again: its epsilon is at least the best's. Every iterate bids a
    grid bid or 0.0 at each of the bidder's atoms, with a default bid of 0, so
    the solver carries one bid vector per bidder, pushes it onto the fixed axis
    of 0.0 and the grid with one ``bincount``, and builds a
    :class:`MonotoneStrategy` only for the returned profile. A bidder's
    leave-one-out row is computed only when a grid best response or a
    certificate reads it, and cached by the bidder and the opponents' bid masses,
    the newest 2n rows kept: a step replaces only the stepping bidder's masses,
    so the row of its best response also serves the stepped and the damped
    profile. The prefix sums of a profile's masses are taken once, when the first
    missing row of it is read.
    Dynamics need not converge in a first-price auction: only a certificate of
    0 ends the search early. Grid bids must lie in [0, ``f.h``].
    """
    grid = [float(b) for b in bid_grid]
    if any(map(math.isnan, grid)):
        raise ValueError("bid grid holds NaN")
    grid = sorted(set(grid))
    if not grid:
        raise ValueError("bid_grid is empty")
    if grid[-1] > f.h:
        raise ValueError(f"bid grid reaches {grid[-1]} above H={f.h}")
    if grid[0] < 0:
        raise ValueError(f"bid grid starts at {grid[0]} below 0")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if not 0.0 <= damping <= 1.0:  # also rejects NaN
        raise ValueError(f"damping must lie in [0, 1], got {damping}")
    rng = np.random.default_rng(seed)
    starts = [0.0, 0.25, 0.5, 0.75, 1.0]
    grid_bids = np.array(grid)
    axis = np.array(sorted({0.0} | set(grid)))
    grid_pos = 2 * axis.searchsorted(grid_bids)
    weights = [m.arrays[1] for m in f.marginals]
    best_bids: list | None = None
    best_cert: BNECertificate | None = None
    cache: dict[tuple, np.ndarray] = {}  # the newest 2n rows, newest last
    # The bid bytes of every certified profile. They tell -0.0 from 0.0, which
    # costs at most a repeated certification.
    certified: set[tuple[bytes, ...]] = set()

    def rows_of(masses: np.ndarray):
        # The row getter of the profile whose bid masses are `masses`, which must
        # not change while the getter is in use.
        cum = None

        def row(i: int) -> np.ndarray:
            nonlocal cum
            key = (i, masses[:i].tobytes(), masses[i + 1 :].tobytes())
            alloc = cache.pop(key, None)
            if alloc is None:
                if cum is None:
                    cum = _prefix_masses(masses)
                alloc = _leave_one_out_row(rule.tie, masses, cum, i)
            cache[key] = alloc
            if len(cache) > 2 * f.n:
                del cache[next(iter(cache))]
            return alloc

        return row

    def consider(bids: list, row) -> None:
        nonlocal best_bids, best_cert
        key = tuple(b.tobytes() for b in bids)
        if key in certified:  # its epsilon is >= the best's, so it is cut off again
            return
        certified.add(key)
        bound = (best_cert.epsilon, best_cert.worst[0]) if best_cert else (math.inf, 0)
        cert = _certify(rule, f, bids, axis, row, *bound)
        if cert is not None:
            best_bids, best_cert = list(bids), cert

    def best() -> tuple[StrategyProfile, BNECertificate]:
        pairs = (zip(m.atoms, b.tolist()) for m, b in zip(f.marginals, best_bids))
        return StrategyProfile(tuple(MonotoneStrategy(tuple(p)) for p in pairs)), best_cert

    for alpha in starts:
        # One bid vector per bidder, at the bidder's atoms, and the matrix of the
        # bidders' bid masses on the axis; a step replaces only the stepping bidder's.
        bids = [_shade_on_grid(m.atoms, alpha, grid) for m in f.marginals]
        masses = np.array([_bid_masses(axis, b, w) for b, w in zip(bids, weights)])
        row = rows_of(masses)
        consider(bids, row)
        for _ in range(max_iters // len(starts)):
            if best_cert.epsilon == 0.0:
                return best()
            for i, m in enumerate(f.marginals):
                alloc = row(i)[grid_pos]
                br = _grid_best_response(rule.format, m.arrays[0], grid_bids, alloc)
                stepped = masses.copy()
                stepped[i] = _bid_masses(axis, br, weights[i])
                consider([*bids[:i], br, *bids[i + 1 :]], rows_of(stepped))
                bids[i] = _damped_mix(bids[i], br, damping, rng)
                masses[i] = _bid_masses(axis, bids[i], weights[i])
                row = rows_of(masses)
                consider(bids, row)
    return best()
