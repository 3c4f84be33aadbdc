"""Sequential search over boxes with inspection costs.

Indices solve E[max(v - sigma, 0)] = c exactly: the left side is piecewise
linear in sigma with kinks at the atoms, so each segment is inverted in
closed form and no iterative tolerance enters. The expected payoff of an
index policy is computed by a forward pass over the distribution of the best
value seen so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dist import (
    DiscreteDistribution,
    ProductDistribution,
    SampleMatrix,
    empirical_marginals,
    truncate_at,
)
from .errors import CostExceedsMean, DimensionMismatch

_MEAN_TOL = 1e-9


@dataclass(frozen=True)
class SearchInstance:
    """Boxes with independent value distributions and opening costs."""

    boxes: ProductDistribution
    costs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        if len(self.costs) != self.boxes.n:
            raise DimensionMismatch("one cost per box required")
        for i, c in enumerate(self.costs):
            if c < 0:
                raise ValueError(f"cost {c} < 0")
            if c > self.boxes.marginals[i].mean() + _MEAN_TOL:
                raise CostExceedsMean(f"cost {c} exceeds E[v_{i}]")

    @property
    def n(self) -> int:
        return self.boxes.n


@dataclass(frozen=True)
class IndexPolicy:
    """Open boxes in descending index order with threshold stopping.

    ``truncation_budget``, when set, stops the search before any opening that
    would push the cumulative cost beyond the budget; the truncated run pays
    out the best opened value so far minus the costs paid.
    """

    indices: tuple[float, ...]
    costs: tuple[float, ...]
    truncation_budget: float | None = None

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.costs):
            raise DimensionMismatch("indices and costs must have equal length")
        if self.truncation_budget is not None and self.truncation_budget <= 0:
            raise ValueError("truncation budget must be positive")

    def order(self) -> list[int]:
        # Descending index, ties by box id ascending.
        return sorted(range(len(self.indices)), key=lambda i: (-self.indices[i], i))


def weitzman_index(f: DiscreteDistribution, c: float, h: float | None = None) -> float:
    """The reservation price solving E[max(v - sigma, 0)] = c, exactly.

    For c = 0 the index is the value bound h (every solution >= max atom is
    valid there; the convention picks the bound). Defaults h to the largest
    atom when not supplied.
    """
    if c < 0:
        raise ValueError("cost must be nonnegative")
    if h is None:
        h = f.max_atom
    mean = f.mean()
    if c > mean + _MEAN_TOL:
        raise CostExceedsMean(f"cost {c} exceeds E[v] = {mean}")
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


def weitzman_policy(inst: SearchInstance, truncation_budget: float | None = None) -> IndexPolicy:
    indices = tuple(
        weitzman_index(f, c, h=inst.boxes.h) for f, c in zip(inst.boxes.marginals, inst.costs)
    )
    return IndexPolicy(indices, inst.costs, truncation_budget)


def simulate_policy(p: IndexPolicy, values: Sequence[float]) -> float:
    """Run the index procedure on one realized value vector; returns the payoff."""
    if len(values) != len(p.indices):
        raise DimensionMismatch("values length must match the policy")
    order = p.order()
    if p.indices[order[0]] < 0:
        return 0.0
    best = None
    paid = 0.0
    for pos, i in enumerate(order):
        if p.truncation_budget is not None and paid + p.costs[i] > p.truncation_budget:
            break
        paid += p.costs[i]
        best = values[i] if best is None else max(best, values[i])
        if pos == len(order) - 1:
            break
        if best >= p.indices[order[pos + 1]]:
            break
    return (best if best is not None else 0.0) - paid


def _effective_prefix(p: IndexPolicy, order: Sequence[int]) -> int:
    if p.truncation_budget is None:
        return len(order)
    paid = 0.0
    for pos, i in enumerate(order):
        paid += p.costs[i]
        if paid > p.truncation_budget:
            return pos
    return len(order)


def policy_payoff_exact(inst: SearchInstance, p: IndexPolicy) -> float:
    """Exact expected payoff of an index policy on the instance.

    Forward DP over the sub-distribution of the best value so far among the
    runs that are still searching; runtime O(n * (total atoms)^2).
    """
    if len(p.indices) != inst.n:
        raise DimensionMismatch("policy and instance sizes differ")
    order = p.order()
    if p.indices[order[0]] < 0:
        return 0.0
    n_eff = _effective_prefix(p, order)
    if n_eff == 0:
        return 0.0
    total = 0.0
    reach = 1.0
    best: dict[float, float] = {}  # best value -> probability, still searching
    for pos in range(n_eff):
        i = order[pos]
        total -= inst.costs[i] * reach
        f = inst.boxes.marginals[i]
        nxt: dict[float, float] = {}
        if pos == 0:
            for a, w in f:
                nxt[a] = nxt.get(a, 0.0) + w
        else:
            for b, q in best.items():
                for a, w in f:
                    top = max(b, a)
                    nxt[top] = nxt.get(top, 0.0) + q * w
        if pos == n_eff - 1:
            total += sum(b * q for b, q in nxt.items())
            reach = 0.0
            break
        threshold = p.indices[order[pos + 1]]
        best = {}
        for b, q in nxt.items():
            if b >= threshold:
                total += b * q
            else:
                best[b] = q
        reach = sum(best.values())
        if reach == 0.0:
            break
    return total


def opt_welfare(inst: SearchInstance) -> float:
    """E[max_i min(v_i, sigma_i)] with sigma the exact indices.

    This equals the optimal expected search payoff; computed through the
    product of CDFs of the truncated marginals, independent of the policy DP.
    """
    sigmas = [
        weitzman_index(f, c, h=inst.boxes.h) for f, c in zip(inst.boxes.marginals, inst.costs)
    ]
    truncated = [truncate_at(f, s) for f, s in zip(inst.boxes.marginals, sigmas)]
    support = sorted({a for f in truncated for a in f.atoms})
    expectation = 0.0
    prev_cdf = 0.0
    for t in support:
        cdf = 1.0
        for f in truncated:
            cdf *= f.prob_at_most(t)
        expectation += t * (cdf - prev_cdf)
        prev_cdf = cdf
    return expectation


def truncation_budget(h: float, eps: float) -> float:
    """Cost budget 2 * H * ln(H / eps) under which truncation loses at most eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return 2.0 * h * math.log(h / eps)


def pandora_from_samples(
    s: SampleMatrix,
    costs: Sequence[float],
    f_true: ProductDistribution,
    trunc_eps: float,
) -> tuple[float, float]:
    """Learn indices on the empirical marginals; evaluate the policy on the truth.

    Returns (expected payoff of the learned truncated policy on f_true,
    optimal payoff on f_true) for regret reporting.
    """
    inst = SearchInstance(f_true, tuple(costs))
    emp = empirical_marginals(s, h=f_true.h)
    indices = tuple(
        weitzman_index(f, c, h=f_true.h) for f, c in zip(emp.marginals, inst.costs)
    )
    policy = IndexPolicy(indices, inst.costs, truncation_budget(f_true.h, trunc_eps))
    return policy_payoff_exact(inst, policy), opt_welfare(inst)
