"""An empirical distinguisher experiment on the hard two-point family.

The family encodes a subset S of bidders through slightly biased two-point
marginals, P(v = 1) = (1 +/- eps) / n; identifying near-best strategy sets for
the last bidder amounts to recovering the complement of S. The experiment
runs the empirical-estimator argmax over candidate sets and reports how much
of the complement it recovers, which degrades to chance when samples are
scarce.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb

import numpy as np

from .dist import SAMPLE_BLOCK


def _mask_probs(p_one: np.ndarray) -> np.ndarray:
    """Probability of every 0/1 pattern of the first n-1 coordinates (bit j = coord j),
    filled in place: the 2^j patterns below bit j times p give those with bit j set,
    then they are scaled by 1 - p."""
    probs = np.empty(1 << len(p_one))
    probs[0] = 1.0
    for j, p in enumerate(p_one.tolist()):
        low = probs[: 1 << j]
        np.multiply(low, p, out=probs[1 << j : 2 << j])
        low *= 1.0 - p
    return probs


def distinguisher_trials(
    n: int, eps: float, m: int, trials: int, seed: int
) -> np.ndarray:
    """Per-trial recovery fractions of the empirical-argmax subset test.

    Each trial hides a random subset S (of size floor(n/2) or ceil(n/2)),
    draws m samples, and asks the empirical estimator's argmax over
    ceil(n/2)-subsets which coordinates lie outside S. For n = 2 this reduces
    to a single-coordinate two-point test scored 0/1.

    Trials draw in trial order (``integers``, ``permutation``, then
    ``multinomial``) into a block of at most max(:data:`dist.SAMPLE_BLOCK`,
    2^(n-1)) int64 counts, 256 KB up to n = 16; the subset-sum transform, the
    argmax and the scoring then run once per block. Integer sums are exact and
    every row keeps its own argmax, so each trial scores as it would alone.
    """
    if n < 2:
        raise ValueError(f"the distinguisher needs n >= 2 bidders, got n = {n}")
    if m < 1 or trials < 0:
        raise ValueError(f"the distinguisher needs m >= 1 and trials >= 0, got {m} and {trials}")
    if n > 22:
        raise ValueError("subset argmax limited to n <= 22")
    if not 0.0 < eps < 0.5:
        raise ValueError("experiment bias must lie in (0, 1/2)")
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
    # Rows are the candidate sets in itertools.combinations order, which
    # fixes the argmax tie-break.
    subsets = np.fromiter(
        chain.from_iterable(combinations(range(n - 1), k)), dtype=np.int8, count=comb(n - 1, k) * k
    ).reshape(-1, k)
    t_masks = (1 << subsets.astype(np.int64)).sum(axis=1)
    members = (t_masks[:, None] >> np.arange(n - 1)) & 1 == 1
    full = (1 << (n - 1)) - 1
    scores = np.empty(trials)
    sizes = (n // 2, (n + 1) // 2)
    block = max(1, SAMPLE_BLOCK >> (n - 1))  # trials per block of counts
    for lo in range(0, trials, block):
        in_s = np.zeros((min(block, trials - lo), n - 1), bool)
        counts = np.empty((len(in_s), full + 1), np.int64)
        for row, trial_counts in zip(in_s, counts):
            size = sizes[int(rng.integers(2))]
            row[rng.permutation(n - 1)[:size]] = True
            trial_counts[:] = rng.multinomial(m, _mask_probs(np.where(row, p_plus, p_minus)))
        # Estimated utility of T is proportional to the mass of rows with no
        # ones among T's coordinates: the sum of counts over the masks inside
        # T's complement. One in-place subset-sum (zeta) transform of the
        # block gives it for every trial and every T at once; a row's length is
        # a multiple of every pair span, so no pair crosses two trials.
        for j in range(n - 1):
            pairs = counts.reshape(-1, 2, 1 << j)
            pairs[:, 1] += pairs[:, 0]
        best = members[counts[:, full ^ t_masks].argmax(axis=1)]
        complement = ~in_s
        n_out = complement.sum(axis=1)
        out = scores[lo : lo + len(in_s)]
        out[:] = 1.0  # nothing to recover
        np.divide((best & complement).sum(axis=1), n_out, out=out, where=n_out > 0)
    return scores
