"""Sequential search over boxes with inspection costs.

Indices solve E[max(v - sigma, 0)] = c exactly: the left side is piecewise
linear in sigma with kinks at the atoms, so each segment is inverted in
closed form and no iterative tolerance enters. The expected payoff of an
index policy and the optimum are both computed from the CDF of a maximum of
independent values (:func:`dist.cdf_of_max`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dist import (
    DiscreteDistribution,
    ProductDistribution,
    SampleMatrix,
    cdf_of_max,
    empirical_marginals,
    sum_left_to_right,
    truncate_at,
)

_MEAN_TOL = 1e-9


@dataclass(frozen=True)
class SearchInstance:
    """Boxes with independent value distributions and opening costs."""

    boxes: ProductDistribution
    costs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        if len(self.costs) != self.boxes.n:
            raise ValueError("one cost per box required")
        for i, c in enumerate(self.costs):
            if not c >= 0:  # also rejects NaN
                raise ValueError(f"cost {c} must be nonnegative")
            if c > self.boxes.marginals[i].mean() + _MEAN_TOL:
                raise ValueError(f"cost {c} exceeds E[v_{i}]")

    @property
    def n(self) -> int:
        return self.boxes.n


@dataclass(frozen=True)
class IndexPolicy:
    """Open boxes in descending index order with threshold stopping.

    ``truncation_budget`` stops the search before any opening that would push
    the cumulative cost beyond the budget; the truncated run pays out the best
    opened value so far minus the costs paid. An infinite budget never binds.
    """

    indices: tuple[float, ...]
    costs: tuple[float, ...]
    truncation_budget: float

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.costs):
            raise ValueError("indices and costs must have equal length")
        if any(map(math.isnan, self.indices)):  # `order` would sort on NaN keys
            raise ValueError("indices must not be NaN")
        if not self.truncation_budget > 0:
            raise ValueError("truncation budget must be positive")

    def order(self) -> list[int]:
        # Descending index, ties by box id ascending.
        return sorted(range(len(self.indices)), key=lambda i: (-self.indices[i], i))


def weitzman_index(f: DiscreteDistribution, c: float, h: float) -> float:
    """The reservation price solving E[max(v - sigma, 0)] = c, exactly.

    For c = 0 the index is the value bound h (every solution >= max atom is
    valid there; the convention picks the bound). A cost above the mean gives
    E[v] - c < 0, the solution for sigma <= 0, which an :class:`IndexPolicy`
    never opens.
    """
    if not c >= 0:  # also rejects NaN
        raise ValueError("cost must be nonnegative")
    mean = f.mean()
    if c > mean + _MEAN_TOL:
        return mean - c
    if c == 0:
        return float(h)
    # On [a_{k-1}, a_k] the excess is T - sigma * W with T, W the tail sums
    # over atoms >= a_k; scan segments from the top.
    excess = min(c, mean)
    tail_sum = 0.0
    tail_w = 0.0
    atoms, weights = f.atoms, f.weights
    for k in range(len(atoms) - 1, -1, -1):
        tail_sum += atoms[k] * weights[k]
        tail_w += weights[k]
        sigma = (tail_sum - excess) / tail_w
        lower = atoms[k - 1] if k > 0 else 0.0
        if sigma >= lower:
            return sigma
    return 0.0


def _effective_prefix(p: IndexPolicy, order: Sequence[int]) -> int:
    paid = 0.0
    for pos, i in enumerate(order):
        paid += p.costs[i]
        if paid > p.truncation_budget:
            return pos
    return len(order)


def policy_payoff_exact(inst: SearchInstance, p: IndexPolicy) -> float:
    """Exact expected payoff of an index policy on the instance.

    Indices descend along the opening order, so a run still searches after
    position k iff the best of the first k + 1 values is below the next index.
    Each stage is then a product of CDFs on the merged support of the opened
    boxes: O(n * A) for A support points.
    """
    if len(p.indices) != inst.n:
        raise ValueError("policy and instance sizes differ")
    order = p.order()
    if p.indices[order[0]] < 0:
        return 0.0
    opened = order[: _effective_prefix(p, order)]
    if not opened:
        return 0.0
    support = np.array(sorted({a for i in opened for a in inst.boxes.marginals[i].atoms}))
    # With -inf in front, best[j] is P(best so far < support[j]).
    points = np.concatenate(([-np.inf], support))
    best = np.ones_like(points)  # P(best value opened so far <= t)
    # A run stops once its best reaches the next index, and after the last box.
    next_index = [p.indices[i] for i in opened[1:]] + [-np.inf]
    total = 0.0
    for i, stop_at in zip(opened, next_index):
        reach = float(best[np.searchsorted(support, p.indices[i], side="left")])
        own = cdf_of_max([inst.boxes.marginals[i]], points)
        # A run opens box i iff its best so far is below sigma_i; as best is
        # nondecreasing in t, min(best, reach) is P(best <= t, run opens box i),
        # and times own the CDF of the new best over those runs.
        mass = np.diff(np.minimum(best, reach) * own)
        total -= inst.costs[i] * reach
        total += sum_left_to_right(support * mass * (support >= stop_at))
        best = best * own
    return total


def opt_welfare(inst: SearchInstance) -> float:
    """E[max_i min(v_i, sigma_i)] with sigma the exact indices.

    This equals the optimal expected search payoff; computed from the CDF of
    the maximum of the truncated values, independently of any policy.
    """
    sigmas = [
        weitzman_index(f, c, h=inst.boxes.h) for f, c in zip(inst.boxes.marginals, inst.costs)
    ]
    truncated = [truncate_at(f, s) for f, s in zip(inst.boxes.marginals, sigmas)]
    support = np.array(sorted({a for f in truncated for a in f.atoms}))
    return sum_left_to_right(support * np.diff(cdf_of_max(truncated, support), prepend=0.0))


def truncation_budget(h: float, eps: float) -> float:
    """Cost budget 2 * H * ln(H / eps) under which truncation loses at most eps.

    For H <= eps no budget is needed (truncation loses at most H), so it is infinite.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    return 2.0 * h * math.log(h / eps) if h > eps else math.inf


def pandora_from_samples(
    s: SampleMatrix,
    costs: Sequence[float],
    f_true: ProductDistribution,
    trunc_eps: float,
) -> float:
    """Learn indices on the empirical marginals; evaluate the policy on the truth.

    Returns the expected payoff of the learned truncated policy on f_true; the
    optimum it is compared against, :func:`opt_welfare`, does not depend on s.
    """
    if s.n != f_true.n:
        raise ValueError(f"a sample of {s.n} columns for {f_true.n} boxes")
    inst = SearchInstance(f_true, tuple(costs))
    emp = empirical_marginals(s, h=f_true.h)
    indices = tuple(
        weitzman_index(f, c, h=f_true.h) for f, c in zip(emp.marginals, inst.costs)
    )
    policy = IndexPolicy(indices, inst.costs, truncation_budget(f_true.h, trunc_eps))
    return policy_payoff_exact(inst, policy)
