"""Approximate-equilibrium verification and a certified best-response solver.

The verifier is exact: for every bidder and every supported value it compares
the profile's own interim utility against the true supremum over all bids
(including right limits at opponent atoms). The solver runs damped
best-response dynamics on a bid grid, but its output guarantee comes solely
from the verifier: it returns the visited profile with the smallest certified
epsilon, never trusting convergence, with ``verify_bne``'s certificate of it.
Every gap, the verifier's and the solver's, comes from one certifier, ``_certify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auction import (
    BEST_RESPONSE_BLOCK,
    AuctionRule,
    CandidateBid,
    _argmax_picks,
    _bid_axis,
    _bid_masses,
    _leave_one_out_row,
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
    axis, masses = _bid_axis([(b, m.arrays[1]) for m, b in zip(f.marginals, bids)], ())
    return _certificate(rule, f, axis, bids, masses)


def _certify(rule, f, axis: np.ndarray, bids: list, masses: np.ndarray, bound):
    """Every profile of a stack: its epsilon, or inf once one of its gaps is above
    ``bound[0]``; the bidder of the epsilon, the first examined whose largest gap it
    is; and per bidder, the stacked (gaps, picks) of the profiles alive there (else
    None). Profile p bids ``bids[p][i]`` at bidder i's atoms, with bid masses
    ``masses[p]`` on ``axis``. Bidders are examined from ``bound[1]`` on, with one
    stacked row DP and one blocked argmax over every base and its right limit (the
    pick is the first maximum); a stacked row has its own bits. The own bid is on the
    axis, so its exact column is a candidate, whose utility is the same ``_utility``
    expression on the same floats as the own utility: every gap is >= 0 or -0.0, and
    a negative or NaN gap (a broken candidate set) raises ``AssertionError``.
    """
    eps, bidder, rows = [0.0] * len(masses), [0] * len(masses), [None] * f.n
    alive, bases = list(range(len(masses))), np.repeat(axis, 2)
    first = bound[1]
    for i in [first, *range(first), *range(first + 1, f.n)]:
        part = slice(None) if len(alive) == len(masses) else alive
        alloc = _leave_one_out_row(rule.tie, masses[part], i)
        values, own = f.marginals[i].arrays[0], np.array([bids[p][i] for p in alive])
        picks, won = _argmax_picks(rule.format, values, bases, alloc)
        own_alloc = alloc[np.arange(len(alloc))[:, None], 2 * axis.searchsorted(own)]
        sups = _utility(rule.format, values, bases[picks], won)
        gaps = sups - _utility(rule.format, values, own, own_alloc)
        bad = ~(gaps >= 0.0)  # also a NaN gap, which `gap > eps` would skip
        if bad.any():
            gap = gaps[bad][0].item()
            raise AssertionError(f"gap {gap} is negative or NaN: candidates not exhaustive")
        rows[i] = gaps, picks
        for p, top in zip(alive, gaps.max(axis=1).tolist()):
            if top > eps[p]:
                eps[p], bidder[p] = top, i
            if top > bound[0]:
                eps[p] = math.inf
        alive = [p for p in alive if eps[p] != math.inf]
        if not alive:
            break
    return eps, bidder, rows


def _certificate(rule, f, axis: np.ndarray, bids: list, masses: np.ndarray) -> BNECertificate:
    """The :class:`BNECertificate` of one profile, from its unbounded :func:`_certify`.
    ``worst``, the first largest gap in bidder and value order, is the first largest
    of the epsilon's bidder; only it gets a :class:`CandidateBid`."""
    (eps,), (i,), rows = _certify(rule, f, axis, [bids], masses[None], (math.inf, 0))
    gaps, picks = zip(*rows)  # per bidder, a stack of one profile's row
    worst = (0, 0.0, CandidateBid(0.0, False))
    if eps > 0.0:
        k = gaps[i][0].argmax()
        pick = picks[i][0, k]
        worst = (i, f.marginals[i].atoms[k], CandidateBid(axis[pick // 2].item(), bool(pick % 2)))
    gap_rows = (tuple(zip(m.atoms, g[0].tolist())) for m, g in zip(f.marginals, gaps))
    return BNECertificate(eps, tuple(gap_rows), worst)


def _damped_mix(old: np.ndarray, new: np.ndarray, damping: float, rngs) -> np.ndarray:
    # Per restart row and value keep the old bid with probability `damping`, then
    # restore monotonicity with a running max (a pointwise mixture of two monotone
    # step functions need not be monotone). One draw per value, in value order, from
    # each row's generator. The max runs from +0.0 over bids >= 0, so adding 0.0
    # gives the bits of Python's max, which keeps the running +0.0 on a -0.0 tie.
    draws = np.array([rng.random(old.shape[-1]) for rng in rngs]).reshape(old.shape)
    return 0.0 + np.maximum.accumulate(np.where(draws < damping, old, new), axis=-1)


def _restart_streams(seed: int, restarts: int, draws: int) -> list:
    """One generator per restart on the stream of ``seed``, restart r's advanced past
    the ``r * draws`` uniforms that the restarts before it draw in a sequential run.
    A uniform double takes one 64-bit word of the stream."""
    rngs = [np.random.default_rng(seed) for _ in range(restarts)]
    for r, rng in enumerate(rngs):
        rng.bit_generator.advance(r * draws)
    return rngs


def _shade_on_grid(values, alphas, grid: np.ndarray) -> np.ndarray:
    # Per alpha, the bids at `values` of alpha * v snapped to the nearest bid of the
    # sorted grid (ties toward the lower one), made nondecreasing. Equal grid bids
    # have equal bits, so the running max may keep either.
    x = np.multiply.outer(alphas, values)
    k = grid.searchsorted(x)
    lo, hi = grid[np.maximum(k - 1, 0)], grid[np.minimum(k, len(grid) - 1)]
    return np.maximum.accumulate(np.where(abs(hi - x) < abs(lo - x) - 1e-15, hi, lo), axis=-1)


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
    damped best-response iterate is considered, and the result is the first
    visited profile with the smallest epsilon in sequential order (restart,
    round, bidder, raw before damped), with its :func:`verify_bne` certificate.

    Dynamics need not converge in a first-price auction: a certificate of 0 ends
    its restart and every later one at the next round start, as a sequential run
    exits there, while earlier restarts run on. A non-monotone best response
    stops its restart and every later one, and raises ``ValueError`` unless a
    certificate of 0 came before it in sequential order. Grid bids must lie in
    [0, ``f.h``].
    """
    profile = _search_bne(rule, f, bid_grid, max_iters, seed, damping)
    return profile, verify_bne(rule, f, profile)


def _search_bne(rule, f, bid_grid, max_iters: int, seed: int, damping: float) -> StrategyProfile:
    """:func:`solve_bne` without its certificate: the profile it returns. Per bidder,
    one (restarts, K_i) array holds every restart's bids at the atoms (grid bids or
    0.0); a bidder step pushes the raw and the damped rows of every live restart onto
    the fixed axis of 0.0 and the grid with one ``bincount``. No strategy is
    evaluated, and only the returned profile becomes :class:`MonotoneStrategy` objects.

    The restarts run in lockstep. Restart r draws from its own generator, on
    the seed's stream advanced past the K_i uniforms per bidder step of the r
    restarts before it, where a sequential run draws. One stacked leave-one-out
    row DP gives the stepping bidder's best responses, checked and damped as one array.
    Visited profiles wait for one stacked ``_certify`` call, at every round end or
    sooner when the waiting bid masses would exceed ``BEST_RESPONSE_BLOCK`` elements,
    which drops a profile once one bidder's gap is above the best epsilon so far.
    A profile visited again is not certified again, but keeps its earliest rank.
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
    starts = [0.0, 0.25, 0.5, 0.75, 1.0]
    rounds = max_iters // len(starts)
    grid_bids = np.array(grid)
    values = [m.arrays[0] for m in f.marginals]
    weights = [m.arrays[1] for m in f.marginals]
    rngs = _restart_streams(seed, len(starts), rounds * sum(map(len, values)))
    # Per bidder, every restart's bid vector, one row each; per restart, its bid masses
    # on the axis of 0.0 and the grid, which holds every start bid. A step replaces
    # the stepping bidder's array, whose rows visits hold, and that bidder's masses.
    bids = [_shade_on_grid(v, starts, grid_bids) for v in values]
    axis, masses = _bid_axis([(b, w) for bs in zip(*bids) for b, w in zip(bs, weights)], grid_bids)
    masses = masses.reshape(len(starts), f.n, -1)
    grid_pos = 2 * axis.searchsorted(grid_bids)
    # A visit is [epsilon (None while it waits), first rank, bids, bidder of the
    # epsilon], keyed by its bidders' bid bytes (which tell -0.0 from 0.0), kept per
    # restart in `keys`. A rank is (restart, 0) for a start and (restart, 1 + 2 *
    # (t * n + i)) for the raw iterate of bidder i's step in round t, plus 1 for the
    # damped one.
    visited: dict[tuple[bytes, ...], list] = {}
    keys = [[b.tobytes() for b in bs] for bs in zip(*bids)]
    # The waiting profiles' bid masses, as many as a batch may hold, and their visits.
    pending = np.empty((max(1, BEST_RESPONSE_BLOCK // masses[0].size), *masses.shape[1:]))
    waiting: list[list] = []
    best = (math.inf, (), None, 0)  # a visit's fields
    error = None  # (rank of the first failing step's round, message)

    def keep(visit: list) -> None:
        nonlocal best
        if (visit[0], visit[1]) < best[:2]:
            best = tuple(visit)

    def certify_waiting() -> None:
        batch = pending[: len(waiting)]
        bound = (best[0], best[3])
        eps, bidders, _ = _certify(rule, f, axis, [v[2] for v in waiting], batch, bound)
        for visit, e, i in zip(waiting, eps, bidders):
            visit[0], visit[3] = e, i
            keep(visit)
        waiting.clear()

    def consider(rank: tuple, key: tuple, profile_bids: list, profile_masses: np.ndarray) -> None:
        visit = visited.get(key)
        if visit is not None:
            visit[1] = min(visit[1], rank)
            if visit[0] is not None:
                keep(visit)
            return
        if len(waiting) == len(pending):
            certify_waiting()
        pending[len(waiting)] = profile_masses
        visited[key] = visit = [None, rank, profile_bids, 0]
        waiting.append(visit)

    for r in range(len(starts)):
        consider((r, 0), tuple(keys[r]), [b[r] for b in bids], masses[r])
    certify_waiting()
    live = list(range(len(starts)))
    for t in range(rounds):
        if best[0] == 0.0:
            live = [r for r in live if r < best[1][0]]
        if not live:
            break
        for i in range(f.n):
            part = slice(None) if len(live) == len(starts) else live
            rows = _leave_one_out_row(rule.tie, masses[part], i)
            # Ties to the lower bid; a bid that never wins is zeroed.
            picks, won = _argmax_picks(rule.format, values[i], grid_bids, rows[:, grid_pos])
            responses = np.where(won == 0.0, 0.0, grid_bids[picks])
            stuck = (responses[:, 1:] < responses[:, :-1]).any(axis=1)
            if stuck.any():
                j = stuck.argmax()  # the first restart that stops
                pairs = list(zip(values[i].tolist(), responses[j].tolist()))
                error = ((live[j], 1 + 2 * t * f.n), f"best-response bids not monotone: {pairs}")
                live, responses = live[:j], responses[:j]
            damped = _damped_mix(bids[i][live], responses, damping, [rngs[r] for r in live])
            stepped = bids[i].copy()
            stepped[live] = damped
            bids[i] = stepped
            iterates = np.concatenate((responses, damped))  # every raw row, then every damped
            pushed = _bid_masses(axis, iterates, weights[i][None].repeat(len(iterates), 0))
            for j, r in enumerate(live):
                # Restart r's masses hold the raw iterate, then the damped one.
                rank, profile = 1 + 2 * (t * f.n + i), [b[r] for b in bids]
                for step, k in enumerate((j, j + len(live))):
                    own, masses[r, i], keys[r][i] = iterates[k], pushed[k], iterates[k].tobytes()
                    profile_bids = [*profile[:i], own, *profile[i + 1 :]]
                    consider((r, rank + step), tuple(keys[r]), profile_bids, masses[r])
        if waiting:
            certify_waiting()
    if error is not None and not (best[0] == 0.0 and best[1] < error[0]):
        raise ValueError(error[1])
    pairs = (zip(m.atoms, b.tolist()) for m, b in zip(f.marginals, best[2]))
    return StrategyProfile(tuple(MonotoneStrategy(tuple(p)) for p in pairs))
