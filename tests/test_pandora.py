import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlearn.dist import (
    ProductDistribution,
    SampleMatrix,
    make_discrete,
    product_of,
    sample_matrix,
    uniform_on,
)
from auctionlearn.pandora import (
    IndexPolicy,
    SearchInstance,
    _effective_prefix,
    opt_welfare,
    pandora_from_samples,
    policy_payoff_exact,
    truncation_budget,
    weitzman_index,
)

from conftest import (
    QUARTERS,
    opt_welfare_reference,
    optimal_adaptive_oracle,
    policy_payoff_reference,
    quarter_distributions,
    random_search_instance,
    simulate_policy,
    weitzman_policy,
)

BERNOULLI = uniform_on([0.0, 1.0])


class TestWeitzmanIndex:
    def test_zero_cost_gives_bound(self):
        assert weitzman_index(BERNOULLI, 0.0, h=1.0) == 1.0

    def test_bernoulli_closed_form(self):
        # 0.5 * (1 - sigma) = 0.25
        assert weitzman_index(BERNOULLI, 0.25, h=1.0) == pytest.approx(0.5)

    def test_cost_at_mean_gives_zero(self):
        assert weitzman_index(BERNOULLI, 0.5, h=1.0) == pytest.approx(0.0)

    def test_cost_exceeds_mean(self):
        # For sigma <= 0, E[max(v - sigma, 0)] = E[v] - sigma, so sigma = 0.5 - 0.6.
        sigma = weitzman_index(BERNOULLI, 0.6, h=1.0)
        assert sigma == pytest.approx(-0.1, abs=1e-15)
        assert BERNOULLI.expected_excess(sigma) == pytest.approx(0.6, abs=1e-15)

    def test_solves_defining_equation(self, rng):
        for _ in range(50):
            atoms = np.unique(rng.random(4))
            f = make_discrete(atoms.tolist(), (rng.random(len(atoms)) + 0.1).tolist())
            c = float(rng.random()) * f.mean()
            sigma = weitzman_index(f, c, h=f.max_atom)
            assert f.expected_excess(sigma) == pytest.approx(c, abs=1e-12)

    def test_nonincreasing_in_cost(self, rng):
        atoms = np.unique(rng.random(4))
        f = make_discrete(atoms.tolist(), (rng.random(len(atoms)) + 0.1).tolist())
        costs = np.linspace(0.0, f.mean(), 8)
        sigmas = [weitzman_index(f, c, h=1.0) for c in costs]
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(sigmas, sigmas[1:]))


class TestSimulatePolicy:
    def test_all_indices_negative(self):
        p = IndexPolicy((-0.5, -0.1), (0.1, 0.1), math.inf)
        assert simulate_policy(p, [0.9, 0.9]) == 0.0

    def test_single_box(self):
        p = IndexPolicy((0.5,), (0.1,), math.inf)
        assert simulate_policy(p, [0.7]) == pytest.approx(0.6)

    def test_threshold_stop(self):
        p = IndexPolicy((0.5, 0.3), (0.1, 0.1), math.inf)
        # open box 0, see 0.4 >= 0.3, stop with 0.4 - 0.1
        assert simulate_policy(p, [0.4, 0.9]) == pytest.approx(0.3)

    def test_continues_below_threshold(self):
        p = IndexPolicy((0.5, 0.3), (0.1, 0.1), math.inf)
        assert simulate_policy(p, [0.2, 0.9]) == pytest.approx(0.9 - 0.2)

    def test_budget_stops_opening(self):
        p = IndexPolicy((0.9, 0.8), (0.3, 0.3), truncation_budget=0.5)
        # second opening would cost 0.6 total > 0.5
        assert simulate_policy(p, [0.1, 0.9]) == pytest.approx(-0.2)


class TestPayoffExact:
    def test_single_bernoulli_box(self):
        inst = SearchInstance(product_of([BERNOULLI], 1.0), (0.25,))
        assert policy_payoff_exact(inst, weitzman_policy(inst)) == pytest.approx(0.25)

    def test_negative_indices_zero(self):
        inst = SearchInstance(product_of([BERNOULLI], 1.0), (0.25,))
        assert policy_payoff_exact(inst, IndexPolicy((-1.0,), (0.25,), math.inf)) == 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(60):
            inst = random_search_instance(rng)
            payoff = policy_payoff_exact(inst, weitzman_policy(inst))
            assert payoff == pytest.approx(optimal_adaptive_oracle(inst), abs=1e-9)

    def test_matches_opt_welfare(self, rng):
        for _ in range(60):
            inst = random_search_instance(rng, n_max=6, atoms_max=5)
            payoff = policy_payoff_exact(inst, weitzman_policy(inst))
            assert payoff == pytest.approx(opt_welfare(inst), abs=1e-10)

    def test_monte_carlo_consistency(self):
        inst = SearchInstance(
            product_of(
                [
                    make_discrete([0.1, 0.6, 0.9], [0.3, 0.4, 0.3]),
                    make_discrete([0.0, 0.8], [0.5, 0.5]),
                ],
                1.0,
            ),
            (0.05, 0.1),
        )
        policy = weitzman_policy(inst)
        exact = policy_payoff_exact(inst, policy)
        draws_values = sample_matrix(inst.boxes, 10**6, seed=123).values
        draws = np.fromiter(
            (simulate_policy(policy, row) for row in draws_values), dtype=float
        )
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - exact) < 4 * se


@st.composite
def search_cases(draw):
    """Quarter-grid boxes, arbitrary (also negative) or exact indices, and a budget."""
    marginals = draw(st.lists(quarter_distributions(), min_size=1, max_size=6))
    costs = [draw(st.floats(0.0, 1.0)) * f.mean() for f in marginals]
    inst = SearchInstance(product_of(marginals, 1.0), costs)
    indices = tuple(
        draw(st.one_of(QUARTERS, st.just(-0.25), st.just(weitzman_index(f, c, h=1.0))))
        for f, c in zip(marginals, inst.costs)
    )
    budget = draw(st.one_of(st.just(math.inf), st.floats(0.01, 2.0)))
    return inst, IndexPolicy(indices, inst.costs, budget)


@given(search_cases())
@settings(max_examples=300, deadline=None)
def test_payoff_matches_dict_dp_reference(case):
    inst, policy = case
    assert abs(policy_payoff_exact(inst, policy) - policy_payoff_reference(inst, policy)) <= 1e-12
    assert opt_welfare(inst) == opt_welfare_reference(inst)


class TestOracle:
    def test_single_box(self):
        inst = SearchInstance(product_of([BERNOULLI], 1.0), (0.25,))
        assert optimal_adaptive_oracle(inst) == pytest.approx(0.25)

    def test_equals_index_policy_on_two_bernoullis(self):
        inst = SearchInstance(product_of([BERNOULLI, BERNOULLI], 1.0), (0.1, 0.1))
        assert optimal_adaptive_oracle(inst) == pytest.approx(
            policy_payoff_exact(inst, weitzman_policy(inst)), abs=1e-9
        )

    def test_worthless_box_changes_nothing(self):
        good = make_discrete([0.2, 0.9], [0.5, 0.5])
        dead = make_discrete([0.0, 0.4], [0.5, 0.5])  # cost equals its mean
        with_dead = SearchInstance(product_of([dead, good], 1.0), (0.2, 0.05))
        without = SearchInstance(product_of([good], 1.0), (0.05,))
        assert optimal_adaptive_oracle(with_dead) == pytest.approx(
            optimal_adaptive_oracle(without), abs=1e-12
        )

    def test_size_limit(self):
        inst = SearchInstance(ProductDistribution.iid(BERNOULLI, 5, 1.0), (0.1,) * 5)
        with pytest.raises(ValueError, match="oracle limited to n <= 4"):
            optimal_adaptive_oracle(inst)


class TestOptWelfare:
    def test_zero_costs_expected_max(self):
        inst = SearchInstance(product_of([BERNOULLI, BERNOULLI], 1.0), (0.0, 0.0))
        assert opt_welfare(inst) == pytest.approx(0.75)  # E[max of two fair coins]

    def test_single_box_identity(self, rng):
        for _ in range(20):
            atoms = np.unique(rng.random(4))
            f = make_discrete(atoms.tolist(), (rng.random(len(atoms)) + 0.1).tolist())
            c = float(rng.random()) * f.mean()
            inst = SearchInstance(product_of([f], 1.0), (c,))
            assert opt_welfare(inst) == pytest.approx(f.mean() - c, abs=1e-12)


class TestTruncation:
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_loss_within_eps(self, rng, eps):
        budget = truncation_budget(1.0, eps)
        for _ in range(40):
            inst = random_search_instance(rng, n_max=6, atoms_max=4)
            full = policy_payoff_exact(inst, weitzman_policy(inst))
            trunc = policy_payoff_exact(inst, weitzman_policy(inst, budget))
            assert trunc <= full + 1e-12
            assert full - trunc <= eps

    def test_binding_budget_many_boxes(self):
        # 30 identical boxes with cost 0.4: cumulative cost crosses the budget
        f = make_discrete([0.0, 1.0], [0.4, 0.6])
        inst = SearchInstance(ProductDistribution.iid(f, 30, 1.0), (0.4,) * 30)
        budget = truncation_budget(1.0, 0.1)
        full = policy_payoff_exact(inst, weitzman_policy(inst))
        trunc = policy_payoff_exact(inst, weitzman_policy(inst, budget))
        assert trunc < full  # the budget actually binds here
        assert full - trunc <= 0.1

    @pytest.mark.parametrize("h", [0.0, 0.005, 0.01])
    def test_no_budget_when_h_is_at_most_eps(self, h):
        # Truncation loses at most H <= eps without stopping any search.
        assert truncation_budget(h, 0.01) == math.inf
        assert truncation_budget(0.02, 0.01) == pytest.approx(0.04 * math.log(2.0))

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_budget_needs_finite_positive_eps(self, eps):
        with pytest.raises(ValueError, match="finite and positive"):
            truncation_budget(1.0, eps)

    @pytest.mark.parametrize("cost", [-0.1, math.nan])
    def test_negative_or_nan_cost_rejected(self, cost):
        with pytest.raises(ValueError, match="must be nonnegative"):
            SearchInstance(ProductDistribution.iid(BERNOULLI, 2, 1.0), (0.1, cost))
        with pytest.raises(ValueError, match="must be nonnegative"):
            weitzman_index(BERNOULLI, cost, h=1.0)

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan])
    def test_policy_rejects_non_positive_budget(self, budget):
        with pytest.raises(ValueError, match="budget must be positive"):
            IndexPolicy((0.5,), (0.1,), budget)

    @pytest.mark.parametrize("indices", [(math.nan, 0.5), (0.5, math.nan)])
    def test_policy_rejects_nan_indices(self, indices):
        # Sorting on a NaN key gave this pair of iid boxes the payoffs 0.6667 and
        # 0.6778, depending on the position of the NaN.
        boxes = ProductDistribution.iid(uniform_on([0.2, 0.6, 1.0]), 2, 1.0)
        inst = SearchInstance(boxes, (0.05, 0.05))
        with pytest.raises(ValueError, match="^indices must not be NaN$"):
            policy_payoff_exact(inst, IndexPolicy(indices, inst.costs, math.inf))

    def test_default_budget_never_binds(self, rng):
        inst = random_search_instance(rng, n_max=6)
        assert weitzman_policy(inst).truncation_budget == math.inf
        policy = weitzman_policy(inst)
        assert _effective_prefix(policy, policy.order()) == inst.n

    def test_huge_budget_identical(self, rng):
        inst = random_search_instance(rng)
        full = policy_payoff_exact(inst, weitzman_policy(inst))
        capped = policy_payoff_exact(inst, weitzman_policy(inst, sum(inst.costs) + 1.0))
        assert capped == full


class TestLearning:
    def test_exact_support_enumeration_recovers_optimum(self):
        f = ProductDistribution.iid(BERNOULLI, 2, 1.0)
        rows = np.array([[a, b] for a in (0.0, 1.0) for b in (0.0, 1.0)])
        learned = pandora_from_samples(SampleMatrix(rows), (0.1, 0.1), f, 0.01)
        opt = opt_welfare(SearchInstance(f, (0.1, 0.1)))
        assert learned == pytest.approx(opt, abs=1e-12)

    def test_median_regret_small(self):
        f = ProductDistribution.iid(BERNOULLI, 3, 1.0)
        costs = (0.1, 0.1, 0.1)
        opt = opt_welfare(SearchInstance(f, costs))
        regrets = []
        for k in range(30):
            s = sample_matrix(f, 10**4, seed=500 + k)
            regrets.append(opt - pandora_from_samples(s, costs, f, 0.01))
        assert float(np.median(regrets)) <= 0.05

    def test_cost_exceeding_empirical_mean_never_opens(self):
        # The empirical mean 0.05 is below the cost 0.3, so the learned index
        # is negative and the learned policy opens nothing.
        rows = np.array([[0.0], [0.0], [0.1], [0.1]])
        f = product_of([make_discrete([0.0, 0.1, 1.0], [0.3, 0.3, 0.4])], 1.0)
        assert pandora_from_samples(SampleMatrix(rows), (0.3,), f, 0.01) == 0.0
        assert opt_welfare(SearchInstance(f, (0.3,))) > 0.0

    @pytest.mark.parametrize("width", [1, 3])
    def test_a_sample_of_another_width_raises(self, width):
        # Zipped with the costs, extra columns were ignored and too few made an
        # index policy of the wrong length.
        f = ProductDistribution.iid(BERNOULLI, 2, 1.0)
        s = sample_matrix(ProductDistribution.iid(BERNOULLI, width, 1.0), 8, seed=0)
        with pytest.raises(ValueError, match=f"a sample of {width} columns for 2 boxes"):
            pandora_from_samples(s, (0.1, 0.1), f, 0.01)

    def test_true_cost_above_mean_rejected(self):
        with pytest.raises(ValueError, match=r"cost 0\.6 exceeds E\[v_0\]"):
            SearchInstance(product_of([BERNOULLI], 1.0), (0.6,))
