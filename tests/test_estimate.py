import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from auctionlearn import auction, dist, estimate, testkits
from auctionlearn.auction import (
    ALLPAY_NONE,
    ALLPAY_RANDOM,
    BEST_RESPONSE_BLOCK,
    FPA_NONE,
    FPA_RANDOM,
)
from auctionlearn.dist import (
    DiscreteDistribution,
    ProductDistribution,
    SampleMatrix,
    product_of,
    sample_matrix,
    uniform_on,
)
from auctionlearn.estimate import (
    SWEEP_COLUMNS,
    _probe_values,
    emp_estimate,
    label_vector_count,
    shade_family,
    sup_error,
    sup_error_sweep,
)
from auctionlearn.strategy import MonotoneStrategy, StrategyProfile, shade
from auctionlearn.testkits import dense_monotone_hypotheses

from conftest import (
    QUARTERS,
    count_calls,
    dense_monotone_hypotheses_reference,
    emp_estimate_reference,
    empp_estimate,
    label_vector_count_reference,
    median_ratio_table,
    permutation_identity_check,
    point_mass,
    probe_values_reference,
    quarter_distributions,
    random_profile,
    sup_error_reference,
)
from conftest import quarter_strategies as tie_heavy_strategies

TRUTHFUL = lambda grid: shade(list(grid), 1.0)  # noqa: E731


def two_bidder_profile(own_bid_at_one=0.4):
    return StrategyProfile(
        (MonotoneStrategy(((1.0, own_bid_at_one),)), TRUTHFUL([0.0, 0.2, 0.6, 1.0]))
    )


class TestEmpEstimate:
    def test_two_samples(self):
        s = SampleMatrix(np.array([[9.0, 0.2], [9.0, 0.6]]))
        est = emp_estimate(s, FPA_RANDOM, 0, [1.0], two_bidder_profile())[0]
        assert est == pytest.approx(0.3)

    def test_opponent_always_above(self):
        s = SampleMatrix(np.array([[9.0, 0.9], [9.0, 0.8]]))
        assert emp_estimate(s, FPA_RANDOM, 0, [1.0], two_bidder_profile())[0] == 0.0

    def test_single_row_is_ex_post(self):
        s = SampleMatrix(np.array([[9.0, 0.2]]))
        assert emp_estimate(s, FPA_RANDOM, 0, [1.0], two_bidder_profile())[0] == pytest.approx(0.6)

    @pytest.mark.parametrize("i", [-1, 2])
    def test_bidder_out_of_range_raises_before_any_eval(self, monkeypatch, i):
        s = SampleMatrix(np.array([[9.0, 0.2], [9.0, 0.6]]))
        evals = count_calls(monkeypatch, MonotoneStrategy, "eval")
        with pytest.raises(ValueError, match=f"bidder {i} out of range for 2 bids"):
            emp_estimate(s, FPA_RANDOM, i, [1.0], two_bidder_profile())
        assert evals == []


@st.composite
def quarter_strategies(draw) -> MonotoneStrategy:
    """Up to 5 steps with thresholds and bids on the quarter grid."""
    thresholds = sorted(draw(st.lists(QUARTERS, unique=True, max_size=5)))
    bids = sorted(draw(st.lists(QUARTERS, min_size=len(thresholds), max_size=len(thresholds))))
    return MonotoneStrategy(tuple(zip(thresholds, bids)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_emp_estimate_matches_scalar_reference(data):
    rule = data.draw(st.sampled_from([FPA_RANDOM, FPA_NONE, ALLPAY_RANDOM, ALLPAY_NONE]))
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 6))
    s = SampleMatrix(data.draw(hnp.arrays(float, (m, n), elements=QUARTERS)))
    profile = StrategyProfile(tuple(data.draw(quarter_strategies()) for _ in range(n)))
    values = data.draw(st.lists(st.one_of(QUARTERS, st.floats(0.0, 1.0)), max_size=6))
    for i in range(n):
        want = [emp_estimate_reference(s, rule, i, v, profile) for v in values]
        assert emp_estimate(s, rule, i, values, profile) == want


class TestEmppEstimate:
    def test_single_row_equals_emp(self):
        s = SampleMatrix(np.array([[9.0, 0.6]]))
        p = two_bidder_profile()
        assert empp_estimate(s, FPA_RANDOM, 0, 1.0, p) == pytest.approx(
            emp_estimate(s, FPA_RANDOM, 0, [1.0], p)[0]
        )

    def test_one_opponent_column_matches_emp(self):
        s = SampleMatrix(np.array([[9.0, 0.2], [9.0, 0.6]]))
        p = two_bidder_profile()
        assert empp_estimate(s, FPA_RANDOM, 0, 1.0, p) == pytest.approx(0.3)

    def test_product_cell_enumeration(self):
        # n=3, columns {0.2, 0.6} x {0.1, 0.5}, truthful opponents, bid 0.55:
        # wins iff second column drew 0.2 (both values in column 3 lose)
        s = SampleMatrix(np.array([[9.0, 0.2, 0.1], [9.0, 0.6, 0.5]]))
        grid = [0.0, 0.1, 0.2, 0.5, 0.6, 1.0]
        p = StrategyProfile(
            (MonotoneStrategy(((1.0, 0.55),)), TRUTHFUL(grid), TRUTHFUL(grid))
        )
        assert empp_estimate(s, FPA_RANDOM, 0, 1.0, p) == pytest.approx(0.45 * 0.5)

    def test_identical_rows_match_emp(self, rng):
        row = rng.random(3)
        s = SampleMatrix(np.tile(row, (4, 1)))
        f = product_of([uniform_on([0, 0.5, 1.0])] * 3, 1.0)
        p = random_profile(rng, f)
        for i in range(3):
            assert empp_estimate(s, FPA_RANDOM, i, 0.7, p) == pytest.approx(
                emp_estimate(s, FPA_RANDOM, i, [0.7], p)[0], abs=1e-12
            )

    def test_range_bound(self, rng):
        f = product_of([uniform_on([0, 0.5, 1.0])] * 2, 1.0)
        for rule in (FPA_RANDOM, ALLPAY_RANDOM, FPA_NONE, ALLPAY_NONE):
            s = sample_matrix(f, 10, seed=int(rng.integers(1 << 30)))
            p = random_profile(rng, f)
            for i in range(2):
                for v in f.marginals[i].atoms:
                    assert -1.0 <= empp_estimate(s, rule, i, v, p) <= 1.0
                    assert -1.0 <= emp_estimate(s, rule, i, [v], p)[0] <= 1.0


class TestSupError:
    def test_point_mass_truthful_is_zero(self):
        f = product_of([point_mass(0.4), point_mass(0.8)], 1.0)
        fam = [StrategyProfile((TRUTHFUL([0.4]), TRUTHFUL([0.8])))]
        s = sample_matrix(f, 7, seed=0)
        assert sup_error(s, FPA_RANDOM, fam, f, "empp").sup_error == 0.0

    def test_full_support_enumeration_is_zero(self):
        f = ProductDistribution.iid(uniform_on([0.0, 1.0]), 2, 1.0)
        rows = [[a, b] for a in (0.0, 1.0) for b in (0.0, 1.0)]
        s = SampleMatrix(np.array(rows))
        fam = shade_family(f, [0.0, 0.5, 1.0])
        assert sup_error(s, FPA_RANDOM, fam, f, "empp").sup_error == pytest.approx(0.0, abs=1e-12)

    def test_emp_estimator_supported(self):
        f = ProductDistribution.iid(uniform_on([0.0, 1.0]), 2, 1.0)
        s = sample_matrix(f, 50, seed=1)
        rep = sup_error(s, FPA_RANDOM, shade_family(f, [0.5]), f, "emp")
        assert rep.sup_error >= 0.0

    @pytest.mark.parametrize("estimator", ["emp", "empp"])
    def test_empty_family_raises(self, estimator):
        f = ProductDistribution.iid(uniform_on([0.0, 1.0]), 2, 1.0)
        with pytest.raises(ValueError, match="strategy family is empty"):
            sup_error(sample_matrix(f, 4, seed=0), FPA_RANDOM, [], f, estimator)
        with pytest.raises(ValueError, match="strategy family is empty"):
            sup_error_sweep(f, FPA_RANDOM, [], [4], 2, 0, estimator)

    @pytest.mark.parametrize("estimator", ["emp", "empp"])
    def test_sweep_records_are_the_columns_of_python_scalars(self, estimator):
        # The ``estimate`` CSV writes these values as they are, in this key order.
        f = ProductDistribution.iid(uniform_on([0.0, 0.25, 0.5, 1.0]), 2, 1.0)
        fam = shade_family(f, [0.5, 1.0])
        rows = sup_error_sweep(f, FPA_RANDOM, fam, [8, 30], 2, 5, estimator)
        assert [tuple(r) for r in rows] == [SWEEP_COLUMNS] * 4
        types = [str, int, int, float, int, float, int]
        assert [list(map(type, r.values())) for r in rows] == [types] * 4
        assert [(r["m"], r["seed"]) for r in rows] == [(8, 5), (8, 6), (30, 5), (30, 6)]

    @pytest.mark.parametrize("estimator", ["emp", "empp"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_a_sample_of_another_width_raises_first(self, monkeypatch, estimator, width):
        # Zipped with the true marginals, extra columns were ignored and too few
        # failed inside numpy.
        f = ProductDistribution.iid(uniform_on([0.0, 1.0]), 2, 1.0)
        s = sample_matrix(ProductDistribution.iid(uniform_on([0.0, 1.0]), width, 1.0), 8, 0)
        counted = count_calls(monkeypatch, estimate, "empirical_marginals")
        with pytest.raises(ValueError, match=f"a sample of {width} columns for 2 marginals"):
            sup_error(s, FPA_RANDOM, shade_family(f, [0.5]), f, estimator)
        assert counted == []

    @pytest.mark.parametrize("estimator", ["emp", "empp"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_a_profile_of_another_width_raises_first(self, monkeypatch, estimator, width):
        # Zipped with the marginals, "empp" ignored an extra strategy and paired the
        # rest with the wrong empirical marginals; too few failed inside numpy.
        f = ProductDistribution.iid(uniform_on([0.0, 1.0]), 2, 1.0)
        other = ProductDistribution.iid(uniform_on([0.0, 1.0]), width, 1.0)
        family = shade_family(f, [0.5]) + shade_family(other, [0.5])
        s = sample_matrix(f, 8, 0)
        evals = count_calls(monkeypatch, MonotoneStrategy, "eval")
        counted = count_calls(monkeypatch, estimate, "empirical_marginals")
        with pytest.raises(ValueError, match=f"a profile of {width} strategies for 2 marginals"):
            sup_error(s, FPA_RANDOM, family, f, estimator)
        assert evals == counted == []

    def test_emp_builds_one_bid_matrix_per_profile_and_bidder(self, monkeypatch):
        # A bid matrix is the strategies at each column's atoms, gathered by the index.
        calls = count_calls(monkeypatch, SampleMatrix, "gather")
        f = ProductDistribution.iid(uniform_on([0.0, 0.5, 1.0]), 3, 1.0)
        fam = shade_family(f, [0.0, 0.5, 1.0])
        sup_error(sample_matrix(f, 20, seed=2), FPA_RANDOM, fam, f, "emp")
        assert len(calls) == len(fam) * f.n

    @pytest.mark.parametrize("estimator", ["emp", "empp"])
    def test_no_bid_distribution_is_pushed(self, monkeypatch, estimator):
        # The exact and the product-form utilities are leave-one-out rows of bid
        # masses on one axis per profile: the only distributions built are the
        # empirical marginals of the product-form estimator.
        pushes = count_calls(monkeypatch, auction, "push_forward")
        merges = count_calls(monkeypatch, auction, "_push_values")
        merges += count_calls(monkeypatch, dist, "_push_values")
        built = count_calls(monkeypatch, DiscreteDistribution, "__post_init__")
        f = ProductDistribution.iid(uniform_on([0.0, 0.25, 0.5, 1.0]), 3, 1.0)
        s = sample_matrix(f, 40, seed=4)
        built.clear()
        sup_error(s, FPA_RANDOM, shade_family(f, [0.25, 0.5, 1.0]), f, estimator)
        assert pushes == merges == []
        assert len(built) == (f.n if estimator == "empp" else 0)

    def test_scaling_halves_per_quadrupling(self):
        f = ProductDistribution.iid(uniform_on([0.0, 0.25, 0.5, 0.75, 1.0]), 2, 1.0)
        fam = shade_family(f, [k / 10 for k in range(11)])
        rows = sup_error_sweep(f, FPA_RANDOM, fam, [500, 2000], 20, 9000, "empp")
        med = median_ratio_table(rows)
        ratio = med[0][1] / med[1][1]
        assert 1.4 <= ratio <= 2.9  # 1/sqrt(m) trend, loose gate at 20 seeds


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sup_error_matches_pushed_reference(data):
    # One to three bidders (a lone bidder has no opponent), one to three profiles
    # with breakpoints on and off the support and -0.0 bids, both estimators,
    # formats and ties: the rows on one axis give the pushed distributions' report.
    rule = data.draw(st.sampled_from([FPA_RANDOM, FPA_NONE, ALLPAY_RANDOM, ALLPAY_NONE]))
    estimator = data.draw(st.sampled_from(["emp", "empp"]))
    n = data.draw(st.integers(1, 3))
    f = product_of([data.draw(quarter_distributions()) for _ in range(n)], 1.0)
    family = [
        StrategyProfile(tuple(data.draw(tie_heavy_strategies(max_size=8)) for _ in range(n)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    s = sample_matrix(f, data.draw(st.integers(1, 30)), data.draw(st.integers(0, 2**16)))
    want = sup_error_reference(s, rule, family, f, estimator)
    assert sup_error(s, rule, family, f, estimator) == want


class TestEmpProbeBlocks:
    """``emp_estimate`` runs its probes in blocks of BEST_RESPONSE_BLOCK // m."""

    @pytest.mark.parametrize("rule", [FPA_RANDOM, FPA_NONE, ALLPAY_RANDOM, ALLPAY_NONE])
    def test_several_blocks_match_scalar_reference(self, rule):
        # m x n = 1,200 gives blocks of three probes: 40 probes take 14 blocks, the
        # last one short. A symmetric shade on a quarter grid ties often.
        rng = np.random.default_rng(20)
        f = ProductDistribution.iid(uniform_on([0.0, 0.25, 0.5, 0.75, 1.0]), 4, 1.0)
        s = sample_matrix(f, 300, seed=3)
        probes = sorted([0.0, 0.25, 0.5, 1.0] + rng.random(36).tolist())
        for profile in (shade_family(f, [0.5])[0], random_profile(rng, f)):
            for i in range(f.n):
                want = [emp_estimate_reference(s, rule, i, v, profile) for v in probes]
                assert emp_estimate(s, rule, i, probes, profile) == want

    @pytest.mark.parametrize("m,n,probes", [(200, 4, 20), (300, 4, 40), (5000, 2, 7), (1, 1, 5000)])
    def test_one_kernel_call_per_block(self, monkeypatch, m, n, probes):
        # 300 samples and 40 probes: 4 share calls, where one call per probe made 40.
        f = ProductDistribution.iid(uniform_on([0.0, 0.5, 1.0]), n, 1.0)
        s = sample_matrix(f, m, seed=1)
        values = [k / probes for k in range(probes)]
        calls = count_calls(monkeypatch, estimate, "_share")
        emp_estimate(s, FPA_RANDOM, 0, values, shade_family(f, [0.5])[0])
        assert len(calls) == math.ceil(probes / max(1, BEST_RESPONSE_BLOCK // m))

    def test_peak_memory_is_one_probe_of_the_scalar_loop(self):
        # 10^5 x 4 samples take one probe per block.
        # The scalar loop with the last-axis kernel held one bid matrix and one
        # kernel call; the slack is for the probe-length vectors, far below one
        # 0.8 MB column of samples.
        f = ProductDistribution.iid(uniform_on([k / 20 for k in range(21)]), 4, 1.0)
        s = sample_matrix(f, 10**5, seed=1)
        s.values  # the sample's one-time gather, outside both measured calls
        profile = shade_family(f, [0.5])[0]
        probes = [k / 99 for k in range(100)]

        def peak(run) -> int:
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        batched = peak(lambda: emp_estimate(s, FPA_RANDOM, 1, probes, profile))
        scalar = peak(lambda: emp_estimate_reference(s, FPA_RANDOM, 1, probes[-1], profile))
        assert batched <= scalar + 2**16


class TestDenseHypotheses:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", range(7))
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=3, deadline=None)
    def test_matches_per_bid_reference(self, n, m, seed):
        values, witnesses = dense_monotone_hypotheses(n, m, seed)
        want_values, want_witnesses = dense_monotone_hypotheses_reference(n, m, seed)
        assert values.shape == want_values.shape
        assert values.tobytes() == want_values.tobytes()
        assert witnesses.tobytes() == want_witnesses.tobytes()

    def test_one_kernel_call(self, monkeypatch):
        # n = 3, m = 5: one call per own bid made 840.
        calls = count_calls(monkeypatch, testkits, "_utility")
        values, _ = dense_monotone_hypotheses(3, 5, seed=0)
        assert len(calls) == 1 and values.shape[1] == 5


class TestPermutationIdentity:
    def test_single_row(self):
        s = SampleMatrix(np.array([[9.0, 0.2]]))
        lhs, rhs = permutation_identity_check(s, FPA_RANDOM, 0, 1.0, two_bidder_profile())
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(0.6)

    def test_single_column_multiset_fixed(self):
        s = SampleMatrix(np.array([[9.0, 0.2], [9.0, 0.6]]))
        lhs, rhs = permutation_identity_check(s, FPA_RANDOM, 0, 1.0, two_bidder_profile())
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert lhs == pytest.approx(0.3)

    def test_random_tiny_instances(self, rng):
        rules = [FPA_RANDOM, FPA_NONE, ALLPAY_RANDOM, ALLPAY_NONE]
        for trial in range(40):
            m, n = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            s = SampleMatrix(rng.random((m, n)))
            f = product_of([uniform_on([0, 0.5, 1.0])] * n, 1.0)
            p = random_profile(rng, f)
            lhs, rhs = permutation_identity_check(
                s, rules[trial % 4], 0, float(rng.random()), p
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_size_limit(self):
        s = SampleMatrix(np.zeros((6, 2)))
        with pytest.raises(ValueError, match="m=6, n=2 exceeds the"):
            permutation_identity_check(s, FPA_RANDOM, 0, 1.0, two_bidder_profile())


class TestLabelVectorCount:
    def test_single_hypothesis(self):
        assert label_vector_count(np.array([[0.5, 0.2]]), [0.1, 0.3]) == 1

    def test_sgn_zero_is_minus_one(self):
        # hitting the witness exactly labels like falling below it
        assert label_vector_count(np.array([[0.5], [0.3]]), [0.5]) == 1
        assert label_vector_count(np.array([[0.6], [0.5]]), [0.5]) == 2

    def test_empty_rows_and_witnesses(self):
        assert label_vector_count(np.zeros((0, 3)), [0.1, 0.2, 0.3]) == 0
        assert label_vector_count(np.zeros((4, 0)), []) == 1
        assert label_vector_count(np.zeros((0, 0)), []) == 0

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 70])
    def test_rows_differing_in_the_last_column(self, width):
        # packed rows keep every column, also past a byte boundary
        rows = np.zeros((3, width))
        rows[1, -1] = 1.0
        assert label_vector_count(rows, np.full(width, 0.5)) == 2

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_unpacked_reference(self, data):
        width = data.draw(st.sampled_from([0, 1, 7, 8, 9, 16, 17, 32, 33, 70]))
        pool = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 4)), width), elements=QUARTERS))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
        values = pool[picks]  # repeated rows, and values equal to their witness
        witnesses = data.draw(hnp.arrays(float, (width,), elements=QUARTERS))
        assert label_vector_count(values, witnesses) == label_vector_count_reference(
            values, witnesses
        )

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_counts_the_set_of_sign_tuples(self, data):
        # Sign rows that span one to three 8-byte words, or none, and no rows at
        # all: sorted as integers, the distinct rows are the set of sign tuples.
        # The rows are one row with a few entries changed, so two rows may differ
        # in one word alone.
        width = data.draw(st.sampled_from([0, 1, 5, 8, 9, 16, 17, 32, 33, 64, 65, 130]))
        pool = np.tile(data.draw(hnp.arrays(float, (width,), elements=QUARTERS)), (4, 1))
        for row in pool if width else ():
            for col in data.draw(st.lists(st.integers(0, width - 1), max_size=2)):
                row[col] = data.draw(QUARTERS)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
        values = pool[picks].reshape(len(picks), width)
        witnesses = data.draw(hnp.arrays(float, (width,), elements=QUARTERS))
        signs = {tuple(v > r for v, r in zip(row, witnesses.tolist())) for row in values.tolist()}
        assert label_vector_count(values, witnesses) == len(signs)

    def test_peak_memory_is_under_a_quarter_of_the_rows(self):
        # 2^16 rows of 5 values: the signs take a byte each before packing, and no
        # float copy of the rows is made.
        values = np.random.default_rng(0).random((2**16, 5))
        witnesses = [0.5] * 5
        label_vector_count(values[:2], witnesses)  # numpy's one-time setup
        tracemalloc.start()
        try:
            count = label_vector_count(values, witnesses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 32
        assert peak < values.nbytes / 4

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_two_bidder_quadratic_bound(self, m):
        values, witnesses = dense_monotone_hypotheses(2, m, seed=m)
        assert label_vector_count(values, witnesses) <= (m + 1) ** 2

    @pytest.mark.parametrize("m", [3, 6])
    def test_three_bidder_bound(self, m):
        values, witnesses = dense_monotone_hypotheses(3, m, seed=m)
        assert label_vector_count(values, witnesses) <= (m + 1) ** 9

    @pytest.mark.parametrize(
        "n,m,digest",
        [
            (2, 4, "5c63fc95b4139ec43d681f47766f15278c9b21ce6113bdf631e86e296cac496d"),
            (3, 3, "38f406ba9828f45f999a812a2619cf087b628a34aa8245a427347079ffbe264e"),
        ],
    )
    def test_hypothesis_rows_golden(self, n, m, digest):
        # Digest of the rows and witnesses as built by the per-row loop the
        # batched kernel replaced: every utility must agree bit for bit.
        values, witnesses = dense_monotone_hypotheses(n, m, seed=11)
        assert hashlib.sha256(values.tobytes() + witnesses.tobytes()).hexdigest() == digest


@given(st.data(), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_probe_values_match_the_per_breakpoint_scan(data, n):
    # Thresholds below 0, above H and at -0.0, beside atoms at 0.0.
    f = product_of([data.draw(quarter_distributions()) for _ in range(n)], 1.0)
    threshold = st.one_of(QUARTERS, st.sampled_from([-0.5, -0.0, 1.5]), st.floats(-1.0, 2.0))
    strategies = []
    for _ in range(n):
        ts = sorted(set(data.draw(st.lists(threshold, max_size=6))))
        strategies.append(MonotoneStrategy(tuple((t, 0.5) for t in ts)))
    profile = StrategyProfile(tuple(strategies))
    for i in range(n):
        got, want = _probe_values(f, profile, i), probe_values_reference(f, profile, i)
        assert np.array(got).tobytes() == np.array(want).tobytes()
