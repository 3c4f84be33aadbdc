"""Sample-based interim-utility estimators and their verification harness.

The empirical estimator (:func:`emp_estimate`) averages ex post utilities
over the sampled value rows, for a list of probe values at a time. The
product-form estimator computes the exact interim utility on the product of
per-bidder empirical marginals; it runs only inside :func:`sup_error`, as
leave-one-out rows of the empirical bid masses, on one axis per profile with
the true ones.
A label-vector counter checks the combinatorial bound that drives the
sample-complexity analysis.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .auction import (
    BEST_RESPONSE_BLOCK,
    AuctionRule,
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
    sample_matrix,
)
from .strategy import StrategyProfile, shade


# A strategy family is just a finite list of profiles.
StrategyFamily = Sequence[StrategyProfile]


@dataclass(frozen=True)
class ErrorReport:
    """Sup estimation error over (profile, bidder, value) probes."""

    sup_error: float
    argmax: tuple[int, int, float]  # (profile index, bidder, value)


def emp_estimate(
    s: SampleMatrix, rule: AuctionRule, i: int, values: Sequence[float], profile: StrategyProfile
) -> list[float]:
    """Average ex post utility of bidder i at each value over the sampled opponent rows.

    Each row's top opponent bid is read once, then the probes run in blocks of
    ``BEST_RESPONSE_BLOCK // m`` (one at least). A bid column is its strategy at the
    column's atoms, gathered by the sample's index. A mean adds its row left to right
    from 0.0, as :func:`dist.sum_left_to_right` does.
    """
    if not 0 <= i < s.n:
        raise ValueError(f"bidder {i} out of range for {s.n} bids")
    if profile.n != s.n:
        raise ValueError(f"a profile of {profile.n} strategies for a sample of {s.n} columns")
    v = np.asarray(values, dtype=float)
    own = profile[i].eval(v)
    rows = max(1, BEST_RESPONSE_BLOCK // s.m)
    at_atoms = [strategy.eval(atoms) for strategy, (atoms, _) in zip(profile, s.columns)]
    top, tied = _top_bids(rule.tie, np.delete(s.gather(at_atoms), i, axis=1))
    sums = np.empty(len(v))
    for lo in range(0, len(v), rows):
        b = own[lo : lo + rows, None]
        u = _utility(rule.format, v[lo : lo + rows, None], b, _share(b, top, tied))
        sums[lo : lo + rows] = np.cumsum(u, axis=1)[:, -1]
    return ((0.0 + sums) / s.m).tolist()


def _probe_values(f: ProductDistribution, profile: StrategyProfile, i: int) -> list[float]:
    # Probes: atoms of the true marginal plus the strategy's own breakpoints.
    pts = set(f.marginals[i].atoms)
    # Thresholds increase strictly, so those in [0, H] are one slice.
    thresholds = profile[i].arrays[0].tolist()
    pts.update(thresholds[bisect_left(thresholds, 0.0) : bisect_right(thresholds, f.h)])
    return sorted(pts)


def sup_error(
    s: SampleMatrix,
    rule: AuctionRule,
    family: StrategyFamily,
    f: ProductDistribution,
    estimator: str,
) -> ErrorReport:
    """Worst estimation error of a finite family against the exact utilities on f.

    The error is max over profiles, bidders, and probe values of
    |estimate - exact interim utility|; probe values are the atoms of each
    true marginal together with the profile's breakpoints.
    """
    if estimator not in ("emp", "empp"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if not family:
        raise ValueError("strategy family is empty")
    if s.n != f.n:
        raise ValueError(f"a sample of {s.n} columns for {f.n} marginals")
    if widths := {profile.n for profile in family} - {f.n}:
        raise ValueError(f"a profile of {min(widths)} strategies for {f.n} marginals")
    emp_prod = empirical_marginals(s, h=f.h) if estimator == "empp" else None
    marginals = f.marginals + (emp_prod.marginals if emp_prod is not None else ())
    sup, arg = -1.0, (0, 0, 0.0)
    for p_idx, profile in enumerate(family):
        probes = [_probe_values(f, profile, i) for i in range(f.n)]
        bids = [profile[i].eval(v) for i, v in enumerate(probes)]
        # Every bidder's bid masses under the true marginals, then under the empirical
        # ones, on one axis that also holds every probe's bid: one or two stacked profiles.
        strategies = profile.strategies * 2
        pairs = [(s_j.eval(m.arrays[0]), m.arrays[1]) for m, s_j in zip(marginals, strategies)]
        axis, masses = _bid_axis(pairs, np.concatenate(bids))
        masses = masses.reshape(-1, f.n, len(axis))
        for i in range(f.n):
            at, values = 2 * axis.searchsorted(bids[i]), np.array(probes[i])
            # Bidder i's exact utilities at the probes, then any product-form ones.
            allocs = _leave_one_out_row(rule.tie, masses, i)[:, at]
            exact, *est = [_utility(rule.format, values, bids[i], a).tolist() for a in allocs]
            est = est[0] if est else emp_estimate(s, rule, i, probes[i], profile)
            for v, e, x in zip(probes[i], est, exact):
                err = abs(e - x)
                if err > sup:
                    sup, arg = err, (p_idx, i, v)
    return ErrorReport(sup, arg)


def shade_family(f: ProductDistribution, alphas: Iterable[float]) -> list[StrategyProfile]:
    """Symmetric linear-shading profiles over each marginal's support grid."""
    return [
        StrategyProfile(tuple(shade(f.marginals[i].atoms, a) for i in range(f.n)))
        for a in alphas
    ]


def sup_error_sweep(
    f: ProductDistribution,
    rule: AuctionRule,
    family: StrategyFamily,
    m_values: Sequence[int],
    n_seeds: int,
    base_seed: int,
    estimator: str,
) -> list[dict]:
    """Seeded sweep of sup_error over sample sizes; seed schedule is base + k."""
    rows = []
    for m in m_values:
        for k in range(n_seeds):
            seed = base_seed + k
            rep = sup_error(sample_matrix(f, m, seed), rule, family, f, estimator)
            rows.append(
                {
                    "estimator": estimator,
                    "m": m,
                    "seed": seed,
                    "sup_error": rep.sup_error,
                    "argmax_bidder": rep.argmax[1],
                    "argmax_value": rep.argmax[2],
                    "profile_id": rep.argmax[0],
                }
            )
    return rows


def label_vector_count(hypothesis_values: np.ndarray, witnesses: Sequence[float]) -> int:
    """Number of distinct sign vectors sgn(h(x_j) - r_j) over the hypothesis rows.

    sgn(0) counts as -1 (the closed lower branch), so the count is well
    defined even when a hypothesis value hits its witness exactly. The signs
    are packed from ``h > r``, which is ``h - r > 0`` for every pair of doubles
    (infinities and NaN too) without a float copy of the rows.
    """
    hv = np.asarray(hypothesis_values, dtype=float)
    r = np.asarray(witnesses, dtype=float)
    if hv.ndim != 2 or hv.shape[1] != r.shape[0]:
        raise ValueError("hypothesis_values must be |family| x len(witnesses)")
    if r.shape[0] == 0:
        return min(len(hv), 1)  # every row has the empty sign vector
    # Each sign row packed to bytes, padded to one 1-, 2-, 4- or 8-byte word, or to
    # whole 8-byte words past that, and read as integers; sorted (lexsorted for many
    # words), a row is new where it differs from the one before it.
    packed = np.packbits(hv > r, axis=1)
    size = packed.shape[1]
    word = 1 << (size - 1).bit_length() if size <= 8 else 8
    if size % word:
        packed = np.pad(packed, ((0, 0), (0, word - size % word)))
    rows = packed.view(f"u{word}")
    rows = np.sort(rows, axis=0) if rows.shape[1] == 1 else rows[np.lexsort(rows.T)]
    return min(len(rows), 1) + int((rows[1:] != rows[:-1]).any(axis=1).sum())
