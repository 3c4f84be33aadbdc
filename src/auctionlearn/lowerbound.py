"""The hard two-point family and an empirical distinguisher experiment.

The family encodes a subset S of bidders through slightly biased two-point
marginals; identifying near-best strategy sets for the last bidder amounts to
recovering the complement of S. The experiment runs the empirical-estimator
argmax over candidate sets and reports how much of the complement it
recovers, which degrades to chance when samples are scarce.

``hard_instance`` measures its bias in units of the family's fixed
normalization constant 2000; the experiment takes the total bias amplitude
directly, i.e. P(v = 1) = (1 +/- eps) / n, which is the same family under
eps_total = 2000 * eps_hard.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

import numpy as np

from .dist import DiscreteDistribution, ProductDistribution, make_discrete, point_mass, product_of
from .errors import EpsTooLarge, TooLargeToEnumerate

C1 = 2000.0


def biased_marginal(n: int, bias: float, plus: bool) -> DiscreteDistribution:
    """Two-point marginal with P(v = 1) = (1 +/- bias) / n."""
    p_one = (1.0 + bias) / n if plus else (1.0 - bias) / n
    if not 0.0 < p_one < 1.0:
        raise EpsTooLarge(f"bias {bias} makes P(v=1) = {p_one} invalid for n = {n}")
    return make_discrete([0.0, 1.0], [1.0 - p_one, p_one])


def hard_instance(n: int, eps: float, s: Iterable[int]) -> ProductDistribution:
    """The hard product distribution F_S; bidders in s get the favorable marginal.

    Bidders are 0-indexed; ``s`` must be a subset of {0, ..., n-2}, and the
    last bidder always has a point mass on value 1.
    """
    s = set(s)
    if not 0 < eps < 1.0 / 4000.0:
        raise EpsTooLarge(f"eps = {eps} must lie in (0, 1/4000)")
    if not s <= set(range(n - 1)):
        raise ValueError("s must be a subset of the first n-1 bidders")
    marginals = [biased_marginal(n, C1 * eps, plus=(i in s)) for i in range(n - 1)]
    marginals.append(point_mass(1.0))
    return product_of(marginals, h=1.0)


def gap_utility(n: int, eps: float, s: Iterable[int], t: Iterable[int]) -> float:
    """Closed-form utility of the last bidder (value 1, bid 1/2) against b_T.

    Bidders in t bid just above 1/2 when their value is 1 and 0 otherwise;
    bidders outside t bid 0 always. The last bidder wins exactly when every
    member of t drew value 0.
    """
    s, t = set(s), set(t)
    if not t <= set(range(n - 1)):
        raise ValueError("t must be a subset of the first n-1 bidders")
    p_plus = (1.0 + C1 * eps) / n
    p_minus = (1.0 - C1 * eps) / n
    return 0.5 * (1.0 - p_plus) ** len(s & t) * (1.0 - p_minus) ** len(t - s)


def b_plus_strategy(eta: float = 0.25):
    """Bid 0 at value 0 and 1/2 + eta at value 1 (any eta in (0, 1/2) separates)."""
    from .strategy import MonotoneStrategy

    return MonotoneStrategy(((1.0, 0.5 + eta),), 0.0)


def _mask_probs(p_one: np.ndarray) -> np.ndarray:
    """Probability of every 0/1 pattern of the first n-1 coordinates (bit j = coord j)."""
    probs = np.array([1.0])
    for p in p_one:
        probs = np.concatenate([probs * (1.0 - p), probs * p])
    return probs


def distinguisher_trials(
    n: int, eps: float, m: int, trials: int, seed: int
) -> np.ndarray:
    """Per-trial recovery fractions of the empirical-argmax subset test.

    Each trial hides a random subset S (of size floor(n/2) or ceil(n/2)),
    draws m samples, and asks the empirical estimator's argmax over
    ceil(n/2)-subsets which coordinates lie outside S. For n = 2 this reduces
    to a single-coordinate two-point test scored 0/1.
    """
    if n < 2:
        raise ValueError(f"the distinguisher needs n >= 2 bidders, got n = {n}")
    if n > 16:
        raise TooLargeToEnumerate("subset argmax limited to n <= 16")
    if not 0.0 < eps < 0.5:
        raise EpsTooLarge("experiment bias must lie in (0, 1/2)")
    rng = np.random.default_rng(seed)
    p_plus = (1.0 + eps) / n
    p_minus = (1.0 - eps) / n
    if n == 2:
        # Truth is F+ or F- for the single opponent; the estimate of the last
        # bidder's utility at bid 1/2 is 0.5 * (fraction of zero draws).
        midpoint = 0.5 * (1.0 - 1.0 / n)
        scores = np.empty(trials)
        for t in range(trials):
            is_plus = rng.random() < 0.5
            ones = rng.binomial(m, p_plus if is_plus else p_minus)
            estimate = 0.5 * (m - ones) / m
            predicted_plus = estimate < midpoint
            scores[t] = 1.0 if predicted_plus == is_plus else 0.0
        return scores

    k = (n + 1) // 2  # candidate-set size ceil(n/2)
    subsets = list(combinations(range(n - 1), k))
    t_masks = np.array([sum(1 << j for j in t) for t in subsets])
    all_masks = np.arange(1 << (n - 1))
    scores = np.empty(trials)
    sizes = (n // 2, (n + 1) // 2)
    for t in range(trials):
        size = sizes[int(rng.integers(2))]
        s = set(rng.permutation(n - 1)[:size].tolist())
        p_one = np.array([p_plus if j in s else p_minus for j in range(n - 1)])
        counts = rng.multinomial(m, _mask_probs(p_one))
        # Estimated utility of T is proportional to the mass of rows with no
        # ones among T's coordinates.
        wins = np.array(
            [counts[(all_masks & tm) == 0].sum() for tm in t_masks]
        )
        best = subsets[int(np.argmax(wins))]
        complement = set(range(n - 1)) - s
        if complement:
            scores[t] = len(set(best) & complement) / len(complement)
        else:
            scores[t] = 1.0  # nothing to recover
    return scores


def distinguisher_experiment(n: int, eps: float, m: int, trials: int, seed: int) -> float:
    """Mean recovery fraction over trials."""
    return float(np.mean(distinguisher_trials(n, eps, m, trials, seed)))
