import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlearn.auction import FPA_RANDOM, push_forward
from auctionlearn.lowerbound import _mask_probs, distinguisher_trials
from conftest import (
    C1,
    b_plus_strategy,
    constant,
    distinguisher_experiment,
    distinguisher_trials_reference,
    gap_utility,
    hard_instance,
    interim_utility_exact,
    mask_probs_reference,
)


class TestHardInstance:
    def test_marginal_probabilities(self):
        f = hard_instance(4, 1e-4, {0})
        assert f.marginals[0].prob_at(1.0) == pytest.approx(0.3)
        assert f.marginals[1].prob_at(1.0) == pytest.approx(0.2)
        assert f.marginals[2].prob_at(1.0) == pytest.approx(0.2)
        assert f.marginals[3].atoms == (1.0,)

    def test_full_subset(self):
        f = hard_instance(5, 1e-4, set(range(4)))
        assert len({m.prob_at(1.0) for m in f.marginals[:4]}) == 1

    def test_eps_too_large(self):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1/4000\)"):
            hard_instance(4, 1 / 4000, {0})


class TestGapUtility:
    def test_empty_t(self):
        assert gap_utility(6, 1e-4, {0, 1}, set()) == 0.5

    def test_lower_bound_constant(self):
        for n in (2, 4, 8):
            for size in range(max(1, n // 2), n):
                t = set(range(size))
                assert gap_utility(n, 1e-4, set(), t) >= 1 / (8 * math.e**2)

    def test_matches_exact_interim(self):
        # utility of bidder n at value 1 bidding 1/2 against b_T on F_S
        n, eps = 4, 1e-4
        for s in ({0}, {0, 2}, set()):
            for t in ({0}, {1, 2}, {0, 1, 2}):
                f = hard_instance(n, eps, s)
                bp = b_plus_strategy(0.25)
                bm = constant(0.0)
                opp = [
                    push_forward(f.marginals[j], bp if j in t else bm)
                    for j in range(n - 1)
                ]
                exact = interim_utility_exact(FPA_RANDOM, 1.0, 0.5, opp)
                assert exact == pytest.approx(gap_utility(n, eps, s, t), abs=1e-12)

    def test_pairwise_inequality_all_subsets(self):
        # separation grows with |T \ S|, at the documented modulus
        n, eps = 8, 1e-4
        coords = range(n - 1)
        s = {0, 1, 2, 3}
        floor_half = n // 2
        for size in (floor_half, floor_half + 1):
            subsets = [set(c) for c in combinations(coords, size)]
            for t1 in subsets:
                for t2 in subsets:
                    d1, d2 = len(t1 - s), len(t2 - s)
                    if d1 >= d2:
                        lhs = gap_utility(n, eps, s, t1) - gap_utility(n, eps, s, t2)
                        rhs = (d1 - d2) * (2 * C1 * eps / (n - 1)) * (1 / (8 * math.e**2))
                        assert lhs >= rhs - 1e-15


@given(st.lists(st.floats(0.0, 1.0), max_size=12))
@settings(max_examples=200, deadline=None)
def test_mask_probs_filled_in_place_has_the_bits_of_concatenation(p):
    p_one = np.array(p, dtype=float)
    assert _mask_probs(p_one).tobytes() == mask_probs_reference(p_one).tobytes()


class TestDistinguisher:
    def test_consistency_regime(self):
        assert distinguisher_experiment(4, 0.02, 10**6, 50, seed=2) >= 0.9

    def test_uninformative_regime(self):
        rate = distinguisher_experiment(8, 0.01, 1, 200, seed=4)
        assert abs(rate - 0.5) <= 0.1

    def test_two_bidders_below_threshold(self):
        # m far below 1/eps^2 keeps the two-point test near chance
        rate = distinguisher_experiment(2, 0.02, 100, 400, seed=6)
        assert rate < 0.66

    def test_monotone_in_m(self):
        medians = [
            float(np.median(distinguisher_trials(8, 0.02, m, 60, seed=8)))
            for m in (10, 10**3, 10**5, 10**6)
        ]
        assert all(b >= a for a, b in zip(medians, medians[1:]))

    def test_size_limit(self):
        with pytest.raises(ValueError, match="subset argmax limited to n <= 22"):
            distinguisher_trials(23, 0.01, 10, 1, seed=0)

    @given(
        n=st.integers(2, 10),
        eps=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
        m=st.integers(1, 10**5),
        trials=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_subset_reference(self, n, eps, m, trials, seed):
        assert np.array_equal(
            distinguisher_trials(n, eps, m, trials, seed),
            distinguisher_trials_reference(n, eps, m, trials, seed),
        )

    def test_matches_per_subset_reference_at_n_16(self):
        assert np.array_equal(
            distinguisher_trials(16, 0.02, 10**5, 2, seed=16),
            distinguisher_trials_reference(16, 0.02, 10**5, 2, seed=16),
        )

    def test_needs_two_bidders(self):
        with pytest.raises(ValueError, match="n >= 2"):
            distinguisher_trials(1, 0.05, 10, 1, seed=0)

    def test_bias_limit(self):
        with pytest.raises(ValueError, match=r"experiment bias must lie in \(0, 1/2\)"):
            distinguisher_trials(4, 0.7, 10, 1, seed=0)

    def test_deterministic_in_seed(self):
        a = distinguisher_trials(6, 0.05, 100, 20, seed=9)
        b = distinguisher_trials(6, 0.05, 100, 20, seed=9)
        assert np.array_equal(a, b)
