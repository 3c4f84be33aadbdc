import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlearn import da, equilibrium
from auctionlearn.auction import FPA_RANDOM, Tie, candidate_allocations
from auctionlearn.da import (
    DAPureStrategy,
    _best_deviation,
    _claim_distribution,
    _deviation_gap,
    da_welfare,
    empirical_pipeline,
    ex_ante_utility_da,
    lambda_map,
    simulate_da,
)
from auctionlearn.dist import (
    SampleMatrix,
    make_discrete,
    product_of,
    sample_matrix,
    truncate_at,
    uniform_on,
)
from auctionlearn.pandora import SearchInstance, opt_welfare, weitzman_index
from auctionlearn.strategy import MonotoneStrategy, shade

from conftest import (
    QUARTERS,
    best_deviation_by_enumeration,
    claims_above,
    constant,
    da_bidder_terms_reference,
    da_outcomes_by_enumeration,
    ex_ante_utility_fpa,
    finite_class_gap,
    mu_map,
    point_mass,
    quarter_distributions,
    random_discrete,
    random_monotone,
    random_search_instance,
    roundtrip_check,
    smoothness_component,
    smoothness_deviation,
)


def claims_above_strategy(rng, f, sigma, h=1.0) -> DAPureStrategy:
    """Random monotone claim prices below sigma, claiming at tau at and above it."""
    tau = float(rng.random()) * h
    below = sorted(a for a in f.atoms if a < sigma)
    if below:
        bids = np.sort(rng.random(len(below))) * tau
        bps = tuple(zip(below, bids)) + ((float(sigma), tau),)
    else:
        bps = ((float(sigma), tau),)
    return DAPureStrategy(tau, MonotoneStrategy(bps, 0.0))


def tied_da_strategy(rng, f) -> DAPureStrategy:
    """Threshold and claims on the price grid {0, 1/4, ..., 1}, so claims tie often."""
    tau = int(rng.integers(0, 5)) / 4
    bids = np.minimum(np.sort(rng.integers(0, 5, size=len(f.atoms))) / 4, tau)
    return DAPureStrategy(tau, MonotoneStrategy(tuple(zip(f.atoms, bids))))


def instance_with_indices(rng, n, cost_scale=0.9):
    marginals = [random_discrete(rng) for _ in range(n)]
    f = product_of(marginals, 1.0)
    costs = tuple(float(rng.random()) * m.mean() * cost_scale for m in marginals)
    inst = SearchInstance(f, costs)
    sigmas = [weitzman_index(m, c, h=1.0) for m, c in zip(marginals, costs)]
    return inst, sigmas


class TestSimulate:
    def test_single_bidder(self):
        inst = SearchInstance(product_of([point_mass(0.9)], 1.0), (0.1,))
        d = DAPureStrategy(0.8, constant(0.5))
        out = simulate_da(inst, [d], [0.9])
        assert out.winner == 0
        assert out.utilities[0] == pytest.approx(0.3)
        assert out.inspected == (True,)

    def test_late_inspector_never_pays(self):
        inst = SearchInstance(product_of([point_mass(1.0)] * 2, 1.0), (0.1, 0.1))
        profile = [
            DAPureStrategy(0.8, constant(0.5)),
            DAPureStrategy(0.3, constant(0.2)),
        ]
        out = simulate_da(inst, profile, [1.0, 1.0])
        assert out.winner == 0
        assert out.inspected == (True, False)
        assert out.utilities[1] == 0.0

    def test_inspection_at_sale_price_happens(self):
        inst = SearchInstance(product_of([point_mass(1.0)] * 2, 1.0), (0.1, 0.1))
        profile = [
            DAPureStrategy(0.5, constant(0.5)),
            DAPureStrategy(0.5, constant(0.2)),
        ]
        out = simulate_da(inst, profile, [1.0, 1.0])
        assert out.inspected == (True, True)

    def test_welfare_identity(self, rng):
        for _ in range(30):
            inst, sigmas = instance_with_indices(rng, int(rng.integers(1, 4)))
            profile = [
                claims_above_strategy(rng, m, s)
                for m, s in zip(inst.boxes.marginals, sigmas)
            ]
            values = [float(m.atoms[rng.integers(len(m.atoms))]) for m in inst.boxes.marginals]
            out = simulate_da(inst, profile, values)
            claims = [profile[j].beta.eval(values[j]) for j in range(inst.n)]
            price = max(claims)
            claimers = [j for j in range(inst.n) if claims[j] == price]
            share = 1.0 / len(claimers)
            expect = sum(
                (share if j in claimers else 0.0) * values[j]
                - (inst.costs[j] if out.inspected[j] else 0.0)
                for j in range(inst.n)
            )
            assert out.welfare == pytest.approx(expect, abs=1e-12)

    def test_claim_above_inspection_rejected(self):
        with pytest.raises(ValueError, match="claim price 0.5 exceeds inspection price 0.3"):
            DAPureStrategy(0.3, constant(0.5))

    @pytest.mark.parametrize("tau", [-0.1, math.nan])
    def test_threshold_must_be_nonnegative(self, tau):
        # A NaN threshold would charge the inspection cost in the ex ante utility,
        # while the clock never reaches it in a simulation.
        with pytest.raises(ValueError, match="^threshold price must be nonnegative$"):
            DAPureStrategy(tau, constant(0.0))


class TestExAnte:
    def test_deterministic_exact(self):
        inst = SearchInstance(product_of([point_mass(0.9)], 1.0), (0.1,))
        d = DAPureStrategy(0.8, constant(0.5))
        assert ex_ante_utility_da(inst, [d], 0) == pytest.approx(0.3)

    def test_single_bidder_bernoulli(self):
        inst = SearchInstance(product_of([uniform_on([0.0, 1.0])], 1.0), (0.1,))
        d = DAPureStrategy(1.0, constant(0.0))
        assert ex_ante_utility_da(inst, [d], 0) == pytest.approx(0.4)

    def test_exact_matches_joint_enumeration(self, rng):
        # n in 1..4, up to 3 atoms, claims on a coarse price grid so that
        # claims tie across bidders and with thresholds
        for _ in range(100):
            inst = random_search_instance(rng, n_max=4, atoms_max=3)
            profile = [tied_da_strategy(rng, f) for f in inst.boxes.marginals]
            outcomes = list(da_outcomes_by_enumeration(inst, profile))
            for i in range(inst.n):
                oracle = sum(p * out.utilities[i] for p, out in outcomes)
                assert abs(ex_ante_utility_da(inst, profile, i) - oracle) <= 1e-12
            oracle = sum(p * out.welfare for p, out in outcomes)
            assert abs(da_welfare(inst, profile) - oracle) <= 1e-12


    def test_equals_per_atom_reference(self, rng):
        # Values, claims and thresholds on the quarter grid tie often, and a claim
        # of 0 is sometimes -0.0; the sums must keep every bit of the atom loop.
        for _ in range(60):
            inst = quarter_instance(rng)
            profile = []
            for f in inst.boxes.marginals:
                d = tied_da_strategy(rng, f)
                if rng.random() < 0.5:
                    bps = tuple((t, -0.0 if b == 0.0 else b) for t, b in d.beta.breakpoints)
                    d = DAPureStrategy(d.tau, MonotoneStrategy(bps))
                profile.append(d)
            terms = [da_bidder_terms_reference(inst, profile, i) for i in range(inst.n)]
            for i, (u, _) in enumerate(terms):
                got = ex_ante_utility_da(inst, profile, i)
                # `.hex()` and `==` also take np.float64, whose repr differs.
                assert type(got) is float and got.hex() == u.hex()
            welfare = sum(share for _, share in terms)
            got_welfare = da_welfare(inst, profile)
            assert type(got_welfare) is float and got_welfare == welfare
            # The gap's matrix product rounds by the shape of the candidate table,
            # so the deviations must be taken over the opponents' table itself.
            claims = [_claim_distribution(f, d) for f, d in zip(inst.boxes.marginals, profile)]
            gap = 0.0
            for i, (u, _) in enumerate(terms):
                cands = candidate_allocations(Tie.RANDOM_ALLOCATION, claims[:i] + claims[i + 1 :])
                gap = max(gap, _best_deviation(inst, i, cands["base"], cands["alloc"]) - u)
            got_gap, got_welfare = _deviation_gap(inst, profile)
            assert type(got_gap) is float and type(got_welfare) is float
            assert got_gap.hex() == gap.hex() and got_welfare == welfare


class TestMappings:
    def test_lambda_constant(self):
        d = lambda_map(constant(0.2), 0.5)
        assert d.tau == 0.2
        assert d.beta.eval(0.1) == 0.2 and d.beta.eval(0.9) == 0.2

    def test_lambda_shade(self):
        f = shade([0.0, 0.25, 0.5, 0.75, 1.0], 0.5)
        d = lambda_map(f, 1.0)
        assert d.tau == 0.5
        assert d.beta.eval(0.5) == 0.25
        assert d.beta.eval(2.0) == 0.5  # claims above sigma

    def test_lambda_sigma_zero(self):
        f = MonotoneStrategy(((0.0, 0.15), (0.4, 0.3)))
        d = lambda_map(f, 0.0)
        assert d.tau == 0.15
        assert d.beta.eval(0.0) == 0.15 and d.beta.eval(0.9) == 0.15

    def test_lambda_claims_above(self, rng):
        for _ in range(20):
            m = random_discrete(rng)
            sigma = float(rng.random())
            f = random_monotone(rng, list(m.atoms) + [sigma])
            assert claims_above(lambda_map(f, sigma), sigma)

    def test_mu_point_mass_tail(self):
        f = point_mass(1.0)
        d = DAPureStrategy(0.6, shade([0.0, 0.25, 0.5, 1.0], 0.5))
        mix = mu_map(d, f, 0.5)
        assert len(mix.components) == 1
        comp = mix.components[0][1]
        assert comp.eval(0.25) == 0.125  # beta below sigma
        assert comp.eval(0.5) == 0.5  # beta(1.0) at sigma

    def test_mu_empty_tail_fallback(self):
        f = point_mass(0.2)
        d = DAPureStrategy(0.6, shade([0.0, 0.2, 0.5, 1.0], 0.5))
        mix = mu_map(d, f, 0.9)
        assert len(mix.components) == 1
        assert mix.components[0][1].eval(0.9) == d.beta.eval(0.9)

    def test_mu_claims_above_collapses(self, rng):
        m = make_discrete([0.2, 0.6, 0.9], [0.3, 0.3, 0.4])
        d = claims_above_strategy(rng, m, 0.5)
        mix = mu_map(d, m, 0.5)
        assert all(comp.eval(0.5) == d.tau for _, comp in mix.components)


class TestRoundtrip:
    def test_claims_above_roundtrips(self, rng):
        for _ in range(20):
            m = random_discrete(rng)
            sigma = float(rng.random())
            d = claims_above_strategy(rng, m, sigma)
            assert roundtrip_check(d, m, sigma)

    def test_monotone_roundtrips(self, rng):
        for _ in range(20):
            m = random_discrete(rng)
            sigma = float(rng.random())
            f = random_monotone(rng, [min(a, sigma) for a in m.atoms] + [sigma])
            assert roundtrip_check(f, m, sigma)

    def test_not_claims_above_fails(self):
        m = make_discrete([0.2, 0.9], [0.5, 0.5])
        # claims strictly below tau at high values
        d = DAPureStrategy(0.5, MonotoneStrategy(((0.2, 0.1), (0.9, 0.3)), 0.0))
        assert not claims_above(d, 0.5)
        assert not roundtrip_check(d, m, 0.5)


class TestSmoothness:
    def test_component_z_one(self):
        c = smoothness_component(1.0, 1.0, [0.0, 0.4, 1.0])
        assert c.tau == 0.0
        assert all(c.beta.eval(v) == 0.0 for v in (0.0, 0.5, 1.0))

    def test_component_z_inv_e(self):
        c = smoothness_component(0.8, 1 / math.e, [0.0, 1.0])
        assert c.tau == pytest.approx((1 - 1 / math.e) * 0.8)

    def test_quadrature_mean(self):
        dev = smoothness_deviation(1.0, [0.0, 1.0], 64)
        ez = sum(w * (1.0 - comp.tau) for w, comp in dev)
        assert ez == pytest.approx(1 - 1 / math.e, abs=1e-3)

    def test_components_claim_above(self):
        dev = smoothness_deviation(0.7, [0.0, 0.3, 0.7, 1.0], 16)
        assert all(claims_above(comp, 0.7) for _, comp in dev)

    def test_pandora_claim_identity(self, rng):
        # E[alloc * v - inspected * c] == E[alloc * min(v, sigma)] for
        # claims-above deviations, checked by full enumeration
        from itertools import product as iproduct

        for _ in range(15):
            inst, sigmas = instance_with_indices(rng, int(rng.integers(2, 4)))
            profile = [
                smoothness_component(
                    s, float(rng.random()) * (1 - 1 / math.e) + 1 / math.e, list(m.atoms) + [s]
                )
                for m, s in zip(inst.boxes.marginals, sigmas)
            ]
            i = 0
            lhs = rhs = 0.0
            for combo in iproduct(*[list(m) for m in inst.boxes.marginals]):
                prob = np.prod([w for _, w in combo])
                values = [a for a, _ in combo]
                out = simulate_da(inst, profile, values)
                claims = [profile[j].beta.eval(values[j]) for j in range(inst.n)]
                price = max(claims)
                claimers = [j for j in range(inst.n) if claims[j] == price]
                share = 1.0 / len(claimers) if i in claimers else 0.0
                cost = inst.costs[i] if out.inspected[i] else 0.0
                lhs += prob * (share * values[i] - cost)
                rhs += prob * share * min(values[i], sigmas[i])
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestUtilityTransfer:
    def test_lambda_direction_exact(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 4))
            inst, sigmas = instance_with_indices(rng, n)
            f_trunc = product_of(
                [truncate_at(m, s) for m, s in zip(inst.boxes.marginals, sigmas)], 1.0
            )
            fpa = [random_monotone(rng, ft.atoms) for ft in f_trunc.marginals]
            da_profile = [lambda_map(g, s) for g, s in zip(fpa, sigmas)]
            for i in range(n):
                u_fpa = ex_ante_utility_fpa(f_trunc, fpa, i, FPA_RANDOM)
                u_da = ex_ante_utility_da(inst, da_profile, i)
                assert u_fpa == pytest.approx(u_da, abs=1e-9)

    def test_mu_direction_exact_for_claims_above(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 4))
            inst, sigmas = instance_with_indices(rng, n)
            da_profile = [
                claims_above_strategy(rng, m, s)
                for m, s in zip(inst.boxes.marginals, sigmas)
            ]
            f_trunc = product_of(
                [truncate_at(m, s) for m, s in zip(inst.boxes.marginals, sigmas)], 1.0
            )
            images = [
                mu_map(d, m, s)
                for d, m, s in zip(da_profile, inst.boxes.marginals, sigmas)
            ]
            for i in range(n):
                u_da = ex_ante_utility_da(inst, da_profile, i)
                u_fpa = ex_ante_utility_fpa(f_trunc, images, i, FPA_RANDOM)
                assert u_da == pytest.approx(u_fpa, abs=1e-9)


class TestCostCoupling:
    def test_perturbed_costs_move_utilities_by_at_most_eps(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            inst, sigmas = instance_with_indices(rng, n, cost_scale=0.5)
            profile = [
                claims_above_strategy(rng, m, s)
                for m, s in zip(inst.boxes.marginals, sigmas)
            ]
            eps = 0.05
            shifts = rng.uniform(-eps, eps, size=n)
            new_costs = tuple(
                min(max(c + d, 0.0), m.mean())
                for c, d, m in zip(inst.costs, shifts, inst.boxes.marginals)
            )
            other = SearchInstance(inst.boxes, new_costs)
            for i in range(n):
                u1 = ex_ante_utility_da(inst, profile, i)
                u2 = ex_ante_utility_da(other, profile, i)
                assert abs(u1 - u2) <= abs(inst.costs[i] - new_costs[i]) + 1e-12


def poa_floor(inst: SearchInstance, eps: float) -> float:
    return (1 - 1 / math.e) * opt_welfare(inst) - inst.n * eps


class TestPoa:
    def test_single_bidder_free_inspection(self):
        inst = SearchInstance(product_of([uniform_on([0.0, 0.5, 1.0])], 1.0), (0.0,))
        d = DAPureStrategy(1.0, constant(0.0))
        welfare, bound = da_welfare(inst, [d]), poa_floor(inst, 0.0)
        assert welfare == pytest.approx(0.5)  # E[v], winner always claims at 0
        assert bound == pytest.approx((1 - 1 / math.e) * 0.5)
        assert welfare >= bound

    def test_all_zero_values(self):
        inst = SearchInstance(product_of([point_mass(0.0)] * 2, 1.0), (0.0, 0.0))
        profile = [DAPureStrategy(0.0, constant(0.0))] * 2
        assert da_welfare(inst, profile) >= poa_floor(inst, 0.05)  # 0 >= -n * eps


def quarter_instance(rng, n_max=3, atoms_max=3) -> SearchInstance:
    """Values on the quarter grid, so that values, claims and thresholds tie often."""
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    marginals = []
    for _ in range(int(rng.integers(1, n_max + 1))):
        atoms = rng.choice(grid, size=int(rng.integers(1, atoms_max + 1)), replace=False)
        marginals.append(make_discrete(atoms.tolist(), (rng.random(len(atoms)) + 0.1).tolist()))
    costs = tuple(float(rng.random()) * m.mean() for m in marginals)
    return SearchInstance(product_of(marginals, 1.0), costs)


class TestExactGap:
    def test_matches_brute_force_oracle(self, rng):
        # Opponents claim on the quarter grid, where the oracle tries every
        # threshold and claim exactly and 1e-7 above in place of right limits.
        for _ in range(25):
            inst = quarter_instance(rng)
            profile = [tied_da_strategy(rng, f) for f in inst.boxes.marginals]
            claims = [_claim_distribution(f, d) for f, d in zip(inst.boxes.marginals, profile)]
            gap = 0.0
            for i in range(inst.n):
                cands = candidate_allocations(Tie.RANDOM_ALLOCATION, claims[:i] + claims[i + 1 :])
                exact = _best_deviation(inst, i, cands["base"], cands["alloc"])
                oracle = best_deviation_by_enumeration(inst, profile, i)
                assert oracle <= exact + 1e-12
                assert oracle >= exact - 1e-6
                gap = max(gap, exact - ex_ante_utility_da(inst, profile, i))
            got_gap, welfare = _deviation_gap(inst, profile)
            assert got_gap == pytest.approx(gap, rel=0, abs=1e-12)
            assert welfare == da_welfare(inst, profile)

    def test_gap_is_zero_when_nobody_can_gain(self):
        # One bidder, free inspection, claiming 0 at every value: nothing beats E[v].
        inst = SearchInstance(product_of([uniform_on([0.0, 0.5, 1.0])], 1.0), (0.0,))
        assert _deviation_gap(inst, [DAPureStrategy(1.0, constant(0.0))])[0] == 0.0

    @given(
        marginals=st.lists(quarter_distributions(), min_size=1, max_size=3),
        cost_fracs=st.lists(st.floats(0.0, 0.9), min_size=3, max_size=3),
        alphas=st.lists(QUARTERS, min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_dominates_finite_deviation_class(self, marginals, cost_fracs, alphas):
        inst = SearchInstance(
            product_of(marginals, 1.0), [c * m.mean() for c, m in zip(cost_fracs, marginals)]
        )
        sigmas = [weitzman_index(m, c, h=1.0) for m, c in zip(marginals, inst.costs)]
        profile = [
            lambda_map(shade(sorted({min(a, s) for a in m.atoms} | {s}), alpha), s)
            for m, s, alpha in zip(marginals, sigmas, alphas)
        ]
        assert _deviation_gap(inst, profile)[0] >= finite_class_gap(inst, profile, sigmas) - 1e-12


class TestPipeline:
    def make_true_instance(self):
        f = product_of(
            [
                make_discrete([0.0, 0.5, 1.0], [0.3, 0.4, 0.3]),
                make_discrete([0.0, 0.75], [0.4, 0.6]),
            ],
            1.0,
        )
        return f, (0.05, 0.1)

    def test_exact_support_recovers_indices(self, monkeypatch):
        monkeypatch.setattr(da, "PIPELINE_MAX_ITERS", 10)
        f, costs = self.make_true_instance()
        # both halves enumerate the product support with exact frequencies
        atoms0 = [0.0] * 3 + [0.5] * 4 + [1.0] * 3
        atoms1 = [0.0] * 4 + [0.75] * 6
        rows = [[a, b] for a, b in zip(atoms0, atoms1)]
        s = SampleMatrix(np.array(rows * 2))
        rep = empirical_pipeline(s, costs, f, 0.05, 0)
        for i in range(2):
            sigma_true = weitzman_index(f.marginals[i], costs[i], h=1.0)
            assert rep.sigma_hat[i] == pytest.approx(sigma_true, abs=1e-12)
            assert rep.cost_hat[i] == pytest.approx(costs[i], abs=1e-12)
        assert rep.cost_err == pytest.approx(0.0, abs=1e-12)

    def test_a_seed_certifies_only_the_profile_it_emits(self, monkeypatch):
        # The solver's search certifies its visits in batches and returns no
        # certificate; after it, the pipeline makes one unbounded `_certify` call,
        # on the tie-broken profile it emits (the parent made two: the solver's
        # certificate of the profile before the offsets, then this one).
        monkeypatch.setattr(da, "PIPELINE_MAX_ITERS", 10)
        certify, search = equilibrium._certify, da._search_bne
        calls = []

        def recording_certify(rule, f, axis, bids, masses, bound):
            calls.append((bound, [[b.tolist() for b in p] for p in bids]))
            return certify(rule, f, axis, bids, masses, bound)

        def recording_search(rule, f, *args):
            found = search(rule, f, *args)
            calls.append(f)  # the truncated empirical distribution it solved
            return found

        monkeypatch.setattr(equilibrium, "_certify", recording_certify)
        monkeypatch.setattr(da, "_search_bne", recording_search)
        f, costs = self.make_true_instance()
        rep = empirical_pipeline(sample_matrix(f, 200, seed=5), costs, f, 0.05, 0)
        *batches, fpa_dist, certified = calls
        assert batches and all(isinstance(c, tuple) for c in batches)
        bids = [s.eval(m.arrays[0]).tolist() for m, s in zip(fpa_dist.marginals, rep.fpa_profile)]
        assert certified == ((math.inf, 0), [bids])

    def test_odd_sample_count(self):
        f, costs = self.make_true_instance()
        s = SampleMatrix(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="m=5 must be even to split into halves"):
            empirical_pipeline(s, costs, f, 0.05, 0)

    @pytest.mark.parametrize("width", [1, 3])
    def test_a_sample_of_another_width_raises(self, width):
        f, costs = self.make_true_instance()
        s = SampleMatrix(np.zeros((4, width)))
        with pytest.raises(ValueError, match=f"a sample of {width} columns for 2 boxes"):
            empirical_pipeline(s, costs, f, 0.05, 0)

    def test_zero_costs_reduce_to_plain_fpa(self, monkeypatch):
        monkeypatch.setattr(da, "PIPELINE_MAX_ITERS", 10)
        f, _ = self.make_true_instance()
        s = sample_matrix(f, 200, seed=3)
        rep = empirical_pipeline(s, (0.0, 0.0), f, 0.05, 0)
        assert rep.sigma_hat == (1.0, 1.0)
        assert rep.cost_hat == (0.0, 0.0)

    def test_cost_concentration(self, monkeypatch):
        monkeypatch.setattr(da, "PIPELINE_MAX_ITERS", 4)
        f, costs = self.make_true_instance()
        errs = []
        for k in range(30):
            s = sample_matrix(f, 2 * 10**4, seed=700 + k)
            rep = empirical_pipeline(s, costs, f, 0.05, 0)
            errs.append(rep.cost_err)
        assert float(np.median(errs)) <= 0.02

    def test_report_json_scalars(self, monkeypatch):
        monkeypatch.setattr(da, "PIPELINE_MAX_ITERS", 10)
        f, costs = self.make_true_instance()
        s = sample_matrix(f, 200, seed=5)
        rep = empirical_pipeline(s, costs, f, 0.05, 0)
        blob = rep.to_json()
        assert list(blob) == [
            "sigma_hat", "cost_true", "cost_hat", "cost_err", "eps_fpa", "empp_sup_error",
            "da_gap", "welfare", "opt", "poa_bound",
        ]
        # An np.float64 would print its type into the CSV report's repr.
        numbers = [x for v in blob.values() for x in (v if isinstance(v, list) else [v])]
        assert len(numbers) > len(blob)
        assert all(type(x) is float for x in numbers), [type(x) for x in numbers]
