import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlearn import dist
from auctionlearn.dist import (
    DiscreteDistribution,
    ProductDistribution,
    SampleMatrix,
    _sum_in_order,
    empirical_marginals,
    make_discrete,
    product_of,
    sample_matrix,
    sum_floats,
    sum_left_to_right,
    truncate_at,
    uniform_on,
)

from conftest import (
    QUARTERS,
    RAW_NUMBERS,
    DiscreteDistributionReference,
    cdf_of_max,
    construction_outcome,
    count_calls,
    empirical_marginals_reference,
    make_discrete_reference,
    point_mass,
    prob_at_most_reference,
    prob_at_reference,
    prob_below_reference,
    quarter_distributions,
    sample_matrix_reference,
    sample_matrix_take_reference,
    sampling_marginals,
    truncate_at_reference,
)


class TestMakeDiscrete:
    def test_bernoulli(self):
        d = make_discrete([0, 1], [0.5, 0.5])
        assert d.atoms == (0.0, 1.0)
        assert d.weights == (0.5, 0.5)

    def test_duplicates_merge(self):
        d = make_discrete([1, 1], [0.3, 0.7])
        assert d.atoms == (1.0,)
        assert d.weights == (1.0,)

    def test_hard_family_marginal(self):
        # the favorable two-point marginal at n=4, bias 0.2: P(v=1) = 0.3
        n, c1, eps = 4, 2000, 1e-4
        p = (1 + c1 * eps) / n
        d = make_discrete([0, 1], [1 - p, p])
        assert d.prob_at(1.0) == pytest.approx(0.3, abs=1e-15)

    def test_normalizes(self):
        d = make_discrete([0, 1], [2.0, 6.0])
        assert d.weights == (0.25, 0.75)

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            make_discrete([0, 1], [0.5, -0.1])

    def test_weight_sum_zero(self):
        with pytest.raises(ValueError, match="weights sum to zero"):
            make_discrete([0, 1], [0.0, 0.0])

    def test_atom_out_of_range(self):
        with pytest.raises(ValueError, match=r"atom -0\.5 < 0"):
            make_discrete([-0.5, 1], [0.5, 0.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="atoms and weights must be nonempty and equal length"):
            make_discrete([0, 1], [1.0])

    def test_non_finite_rejected(self):
        for atoms, weights in (
            ([0.0, float("nan")], [0.5, 0.5]),
            ([0.0, float("inf")], [0.5, 0.5]),
            ([0.0, 1.0], [0.5, float("nan")]),
        ):
            with pytest.raises(ValueError):
                make_discrete(atoms, weights)


class TestDiscreteDistribution:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((0.0, float("nan")), (0.5, 0.5))
        with pytest.raises(ValueError):
            DiscreteDistribution((0.0, float("inf")), (0.5, 0.5))
        with pytest.raises(ValueError):
            DiscreteDistribution((0.0, 1.0), (0.5, float("nan")))


def _distribution_fields(d):
    return d.atoms, d.weights, d.mean()


class TestInputChecks:
    """The checks of ``DiscreteDistribution``, ``make_discrete`` and ``mean`` match
    their per-atom generator versions: the same error, raised first, or the same
    bits."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_make_discrete_matches_generator_checks(self, data):
        k = data.draw(st.integers(0, 6))
        atoms = data.draw(st.lists(RAW_NUMBERS, min_size=k, max_size=k))
        weights = data.draw(st.lists(st.one_of(RAW_NUMBERS, st.just(0.0)), min_size=k, max_size=k))
        if data.draw(st.booleans()):
            weights = weights[: data.draw(st.integers(0, k))]
        got = construction_outcome(lambda: make_discrete(atoms, weights), _distribution_fields)
        want = construction_outcome(
            lambda: make_discrete_reference(atoms, weights), _distribution_fields
        )
        assert got == want

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_constructor_matches_generator_checks(self, data):
        k = data.draw(st.integers(0, 6))
        atoms = data.draw(st.lists(RAW_NUMBERS, min_size=k, max_size=k))
        if data.draw(st.booleans()):
            atoms = sorted(set(atoms))  # strictly increasing unless a NaN is among them
        weights = data.draw(st.lists(RAW_NUMBERS, min_size=len(atoms), max_size=len(atoms)))
        if data.draw(st.booleans()) and weights and all(map(math.isfinite, weights)):
            total = sum(weights)
            weights = [w / total for w in weights] if total else weights
        args = tuple(atoms), tuple(weights)
        got = construction_outcome(lambda: DiscreteDistribution(*args), _distribution_fields)
        want = construction_outcome(
            lambda: DiscreteDistributionReference(*args), _distribution_fields
        )
        assert got == want


@given(sampling_marginals())
@settings(max_examples=200, deadline=None)
def test_mean_adds_the_products_left_to_right(d):
    want = DiscreteDistributionReference(d.atoms, d.weights).mean()
    assert d.mean().hex() == want.hex()


class TestTruncate:
    def test_mass_collapses(self):
        d = truncate_at(uniform_on([0, 1, 2]), 1.0)
        assert d.atoms == (0.0, 1.0)
        assert d.weights == pytest.approx((1 / 3, 2 / 3))

    def test_identity_above_max(self):
        d = uniform_on([0, 1, 2])
        assert truncate_at(d, 5.0) is d

    def test_full_collapse(self):
        d = truncate_at(uniform_on([0.5, 1.0]), 0.0)
        assert d.atoms == (0.0,)
        assert d.weights == (1.0,)

    @given(st.floats(min_value=0.0, max_value=1.5), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_mass_preserved_and_bounded(self, sigma, seed):
        rng = np.random.default_rng(seed)
        atoms = np.unique(rng.random(4))
        d = make_discrete(atoms.tolist(), (rng.random(len(atoms)) + 0.1).tolist())
        t = truncate_at(d, sigma)
        assert sum(t.weights) == pytest.approx(1.0, abs=1e-12)
        assert all(a <= sigma or sigma >= d.max_atom for a in t.atoms)


@st.composite
def truncations(draw):
    """A distribution, sometimes with a -0.0 atom, and a sigma at an atom, at 0.0,
    below every atom, above every atom or anywhere in [0, 1.5]."""
    d = draw(quarter_distributions())
    sigma = draw(
        st.sampled_from(d.atoms)
        | st.sampled_from([0.0, -0.0])
        | st.floats(0.0, d.atoms[0])
        | st.floats(d.max_atom, 2.0)
        | st.floats(0.0, 1.5)
    )
    if d.atoms[0] == 0.0 and draw(st.booleans()):
        d = DiscreteDistribution((-0.0, *d.atoms[1:]), d.weights)
    return d, sigma


def assert_same_bits(got: DiscreteDistribution, want: DiscreteDistribution) -> None:
    for name in ("atoms", "weights"):
        assert np.array(getattr(got, name)).tobytes() == np.array(getattr(want, name)).tobytes()


class TestTruncateMatchesReference:
    @given(truncations())
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit(self, case):
        d, sigma = case
        assert_same_bits(truncate_at(d, sigma), truncate_at_reference(d, sigma))

    @pytest.mark.parametrize(
        "atoms, sigma",
        [
            ([0.0, 0.25, 0.5, 1.0], 0.5),  # sigma at an atom
            ([-0.0, 0.25, 0.5], 0.0),  # sigma 0.0 onto a -0.0 atom
            ([-0.0, 0.25, 0.5], -0.0),
            ([0.25, 0.5], 0.1),  # below every atom
            ([0.25, 0.5], 0.0),
            ([0.25, 0.5], 0.75),  # above every atom
        ],
    )
    def test_edge_cases(self, atoms, sigma):
        d = make_discrete(atoms, [0.3, 0.1, 0.2, 0.4][: len(atoms)])
        assert_same_bits(truncate_at(d, sigma), truncate_at_reference(d, sigma))

    @given(st.lists(truncations(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_product_truncates_each_marginal(self, cases):
        f = product_of([d for d, _ in cases], 2.0)
        got = f.truncated([sigma for _, sigma in cases])
        assert got.h == 2.0 and got.n == f.n
        for g, (d, sigma) in zip(got.marginals, cases):
            assert_same_bits(g, truncate_at_reference(d, sigma))

    def test_product_needs_one_sigma_per_marginal(self):
        f = product_of([uniform_on([0.0, 1.0])] * 2, 1.0)
        with pytest.raises(ValueError, match="need 2 sigmas"):
            f.truncated([0.5])


class TestSampling:
    def test_point_mass_rows(self):
        f = product_of([point_mass(0.3), point_mass(0.7)])
        s = sample_matrix(f, 5, seed=1)
        assert np.all(s.values == [0.3, 0.7])

    def test_determinism(self):
        f = ProductDistribution.iid(uniform_on([0, 0.5, 1.0]), 3, 1.0)
        a = sample_matrix(f, 100, seed=42)
        b = sample_matrix(f, 100, seed=42)
        assert np.array_equal(a.values, b.values)
        c = sample_matrix(f, 100, seed=43)
        assert not np.array_equal(a.values, c.values)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(sampling_marginals(), min_size=1, max_size=4),
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
    )
    def test_same_draws_as_choice(self, marginals, m, seed):
        f = product_of(marginals)
        got = sample_matrix(f, m, seed).values
        assert np.array_equal(got, sample_matrix_reference(f, m, seed).values)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(sampling_marginals(), min_size=1, max_size=4),
        st.integers(1, 3000),
        st.integers(0, 2**32 - 1),
    )
    def test_indexing_gathers_the_bits_of_take(self, marginals, m, seed):
        f = product_of(marginals)
        got = sample_matrix(f, m, seed).values
        assert got.tobytes() == sample_matrix_take_reference(f, m, seed).values.tobytes()

    # K = 3000 and 5000 atoms over m = 500 and 1 draws: the table, capped near m, has
    # fewer buckets than atoms. m = 1e5 draws fill a table of 16 buckets per atom.
    @pytest.mark.parametrize("k, m", [(3000, 500), (5000, 1), (100, 10**5), (5000, 10**5)])
    def test_same_draws_as_choice_large(self, k, m):
        rng = np.random.default_rng(k + m)
        skewed = make_discrete(rng.random(k).tolist(), (rng.random(k) ** 4 + 1e-6).tolist())
        f = product_of([skewed, uniform_on(range(k)), point_mass(0.5)])
        got = sample_matrix(f, m, seed=k).values
        assert np.array_equal(got, sample_matrix_reference(f, m, seed=k).values)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(sampling_marginals(), min_size=1, max_size=3),
        st.lists(
            st.tuples(st.integers(1, 3000), st.integers(0, 2**32 - 1)), min_size=2, max_size=3
        ),
    )
    def test_kept_guide_tables_draw_as_fresh_ones(self, marginals, draws):
        """Later draws from the same product, at the same or another table size, read
        the tables the first one kept; a marginal shared by two columns keeps one."""
        f = product_of(marginals + marginals[:1])
        for m, seed in draws:
            got = sample_matrix(f, m, seed).values
            assert got.tobytes() == sample_matrix_take_reference(f, m, seed).values.tobytes()

    def test_any_integer_m_draws_and_anything_else_is_refused(self):
        # A numpy integer, as a sweep over np.geomspace(...).astype(int) gives, is an m.
        f = ProductDistribution.iid(uniform_on([0.0, 0.5, 1.0]), 2, 1.0)
        want = sample_matrix(f, 3, seed=0).values
        for m in (np.int64(3), np.uint8(3)):
            assert sample_matrix(f, m, seed=0).values.tobytes() == want.tobytes()
        for bad in (3.0, np.float64(3.0), True, np.True_, "3", None):
            with pytest.raises(ValueError, match="m must be an integer"):
                sample_matrix(f, bad, seed=0)
        with pytest.raises(ValueError, match="m must be >= 1"):
            sample_matrix(f, np.int64(0), seed=0)

    # m = B - 1, B, B + 1 and 2B + 7 rows of B = SAMPLE_BLOCK; 256 atoms are the most a
    # one-byte index holds, and 257 take two bytes.
    @pytest.mark.parametrize(
        "blocks, offset", [(1, -1), (1, 0), (1, 1), (2, 7)], ids=["B-1", "B", "B+1", "2B+7"]
    )
    def test_same_draws_as_choice_across_blocks(self, blocks, offset):
        m = blocks * dist.SAMPLE_BLOCK + offset
        rng = np.random.default_rng(m)
        marginals = [
            point_mass(0.5),
            make_discrete(rng.random(100).tolist(), (rng.random(100) + 0.01).tolist()),
            uniform_on(range(256)),
            make_discrete(list(range(257)), (rng.random(257) ** 4 + 1e-6).tolist()),
        ]
        s = sample_matrix(product_of(marginals), m, seed=m)
        want = sample_matrix_reference(product_of(marginals), m, seed=m)
        assert s.values.tobytes() == want.values.tobytes()
        dtypes = [index.dtype for _, index in s.columns]
        assert dtypes == [np.uint8, np.uint8, np.uint8, np.uint16]
        got, want = empirical_marginals(s, 256.0), empirical_marginals_reference(s, 256.0)
        assert got == want
        for g, w in zip(got.marginals, want.marginals):
            assert np.array(g.weights).tobytes() == np.array(w.weights).tobytes()

    def test_law_of_large_numbers(self):
        # column means of Bernoulli(1/2)^n at m = 1e5: 6 sigma is ~0.0095 < 0.01
        f = ProductDistribution.iid(uniform_on([0.0, 1.0]), 3, 1.0)
        s = sample_matrix(f, 10**5, seed=7)
        assert np.all(np.abs(s.values.mean(axis=0) - 0.5) < 0.01)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SampleMatrix(np.array([[bad, 0.5], [0.2, 0.5]]))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0), (3,)])
    def test_an_empty_or_flat_matrix_is_no_sample(self, shape):
        # Zero columns would construct, and then fail in rows() and truncated().
        with pytest.raises(ValueError, match="values must be a nonempty 2-D array"):
            SampleMatrix(np.zeros(shape))

    def test_immutable(self):
        f = ProductDistribution.iid(uniform_on([0.0, 1.0]), 1, 1.0)
        s = sample_matrix(f, 3, seed=0)
        with pytest.raises(ValueError):
            s.values[0, 0] = 9.9


@st.composite
def signed_zero_marginals(draw) -> DiscreteDistribution:
    """A sampling marginal with a 0.0 or -0.0 atom, which stands for any zero it had."""
    d = draw(sampling_marginals())
    zero = draw(st.sampled_from([0.0, -0.0]))
    return make_discrete([zero, *d.atoms], [draw(st.floats(1e-3, 1.0)), *d.weights])


class TestSampleIndex:
    """A sample is, per column, sorted atoms and an index for every row, of the
    narrowest unsigned type; ``values`` is gathered from them once, on first read."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.one_of(sampling_marginals(), signed_zero_marginals()), min_size=1, max_size=4),
        st.one_of(st.just(1), st.integers(1, 400)),
        st.integers(0, 2**32 - 1),
    )
    def test_counts_match_unique_of_the_values(self, marginals, m, seed):
        # Up to 31 atoms over as few as one draw: many atoms are never drawn.
        s = sample_matrix(product_of(marginals), m, seed)
        for (atoms, index), col in zip(s.columns, s.values.T):
            assert index.dtype == np.min_scalar_type(len(atoms) - 1)
            counts = np.bincount(index, minlength=len(atoms))
            want_atoms, want_counts = np.unique(col, return_counts=True)
            assert atoms[counts > 0].tobytes() == want_atoms.tobytes()
            assert counts[counts > 0].tolist() == want_counts.tolist()
        got = empirical_marginals(s, 10.0)
        want = empirical_marginals(SampleMatrix(s.values), 10.0)
        assert got == want
        for g, w in zip(got.marginals, want.marginals):
            assert np.array(g.atoms).tobytes() == np.array(w.atoms).tobytes()
            assert np.array(g.weights).tobytes() == np.array(w.weights).tobytes()

    @pytest.mark.parametrize("m", [1, 5, 33, 3000])
    @given(k=st.integers(0, 20), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_columns_of_values_keep_the_atoms_of_unique(self, m, k, n, seed):
        # -0.0 and 0.0 in either order: np.unique(col, return_inverse=True) sorts
        # otherwise and may keep the other zero; the columns keep return_counts' one.
        rng = np.random.default_rng(seed)
        zeros = [0.0, -0.0] if rng.random() < 0.5 else [-0.0, 0.0]
        pool = np.concatenate((zeros, np.round(rng.random(k), 2)))
        given_values = rng.choice(pool, size=(m, n))
        s = SampleMatrix(given_values)
        for (atoms, index), col in zip(s.columns, given_values.T):
            want_atoms, want_counts = np.unique(col, return_counts=True)
            assert atoms.tobytes() == want_atoms.tobytes()
            assert np.bincount(index, minlength=len(atoms)).tolist() == want_counts.tolist()
            assert (atoms[index] == col).all()

    def test_values_are_one_read_only_array_with_the_reference_bits(self):
        f = product_of([make_discrete([-0.0, 0.3, 0.9], [0.2, 0.5, 0.3]), uniform_on(range(7))])
        s = sample_matrix(f, 500, seed=11)
        values = s.values
        assert values is s.values
        assert not values.flags.writeable and values.flags.owndata
        assert values.tobytes() == sample_matrix_reference(f, 500, seed=11).values.tobytes()

    @pytest.mark.parametrize("writeable", [True, False])
    def test_values_of_a_matrix_built_from_values_are_gathered_once(self, writeable):
        given_values = np.array([[0.5, 1.0], [0.0, 2.0], [0.5, 0.0]])
        given_values.setflags(write=writeable)
        s = SampleMatrix(given_values)
        values = s.values
        assert values is s.values and values is not given_values
        assert not values.flags.writeable and values.flags.owndata
        assert (values == given_values).all() and (s.m, s.n) == (3, 2)
        assert repr(s) == "SampleMatrix(m=3, n=2)"

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.one_of(sampling_marginals(), signed_zero_marginals()), min_size=1, max_size=3),
        st.integers(2, 120),
        st.data(),
    )
    def test_rows_and_truncated_match_a_matrix_built_from_values(self, marginals, m, data):
        # Sigma at 0.0 caps every atom onto a zero that may be -0.0 in the same column,
        # and at an atom merges the atoms above it into one; the weight bits must hold.
        s = sample_matrix(product_of(marginals), m, data.draw(st.integers(0, 2**32 - 1)))
        start = data.draw(st.integers(0, m - 1))
        stop = data.draw(st.integers(start + 1, m))
        atoms = sorted({a for f in marginals for a in f.atoms})
        sigma = st.one_of(st.just(0.0), st.sampled_from(atoms), st.floats(0.0, 11.0))
        sigmas = data.draw(st.lists(sigma, min_size=s.n, max_size=s.n))
        cases = [
            (s.rows(start, stop), s.values[start:stop]),
            (s.truncated(sigmas), np.minimum(s.values, sigmas)),
            (s.rows(start, stop).truncated(sigmas), np.minimum(s.values[start:stop], sigmas)),
        ]
        for got, values in cases:
            assert (got.values == values).all()
            want = empirical_marginals(SampleMatrix(values), 11.0)
            got = empirical_marginals(got, 11.0)
            assert got == want
            for g, w in zip(got.marginals, want.marginals):
                assert np.array(g.weights).tobytes() == np.array(w.weights).tobytes()

    def test_rows_and_truncated_reject_what_is_no_sample(self):
        s = SampleMatrix(np.array([[0.5, 1.0], [0.0, 2.0]]))
        for start, stop in [(0, 0), (1, 1), (-1, 2), (0, 3), (2, 1)]:
            with pytest.raises(ValueError, match=f"rows {start}:{stop} out of range for m=2"):
                s.rows(start, stop)
        for sigmas in [(1.0,), (1.0, 1.0, 1.0), (1.0, -0.5), (math.nan, 1.0)]:
            with pytest.raises(ValueError, match="need 2 nonnegative sigmas"):
                s.truncated(sigmas)

    def test_a_drawn_sample_holds_under_five_bytes_per_value(self):
        # 10^5 x 4 draws: an int32 index is 4 bytes a value, a float matrix 8.
        f = ProductDistribution.iid(uniform_on([k / 20 for k in range(21)]), 4, 1.0)
        empirical_marginals(sample_matrix(f, 1, seed=0), 1.0)  # numpy's one-time setup
        tracemalloc.start()
        try:
            s = sample_matrix(f, 10**5, seed=1)
            empirical_marginals(s, 1.0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 5 * s.m * s.n

    def test_a_drawn_sample_of_few_atoms_holds_under_two_bytes_per_value(self):
        # 10^5 x 4 draws over 256 atoms: a one-byte index a value.
        f = ProductDistribution.iid(uniform_on(range(256)), 4, 255.0)
        empirical_marginals(sample_matrix(f, 1, seed=0), 255.0)  # numpy's one-time setup
        tracemalloc.start()
        try:
            s = sample_matrix(f, 10**5, seed=1)
            empirical_marginals(s, 255.0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 * s.m * s.n

    def test_drawing_and_counting_peak_near_what_the_sample_holds(self):
        # 10^6 x 2 draws: the float uniforms, buckets and counts live one block at a time.
        f = ProductDistribution.iid(uniform_on([k / 99 for k in range(100)]), 2, 1.0)
        empirical_marginals(sample_matrix(f, 1, seed=0), 1.0)  # numpy's one-time setup
        tracemalloc.start()
        try:
            s = sample_matrix(f, 10**6, seed=1)
            empirical_marginals(s, 1.0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < held + 2 * 2**20


class TestEmpiricalMarginals:
    def test_columns(self):
        s = SampleMatrix(np.array([[1.0, 2.0], [1.0, 4.0]]))
        e = empirical_marginals(s, 4.0)
        assert e.marginals[0].atoms == (1.0,)
        assert e.marginals[1].atoms == (2.0, 4.0)
        assert e.marginals[1].weights == (0.5, 0.5)

    def test_single_row(self):
        s = SampleMatrix(np.array([[0.2, 0.9]]))
        e = empirical_marginals(s, 0.9)
        assert all(len(m.atoms) == 1 for m in e.marginals)

    def test_bernoulli_column(self):
        s = SampleMatrix(np.array([[0.0], [0.0], [1.0], [1.0]]))
        e = empirical_marginals(s, 1.0)
        assert e.marginals[0].weights == (0.5, 0.5)

    def test_missing_h_fails(self):
        s = SampleMatrix(np.array([[0.2, 0.9]]))
        with pytest.raises(TypeError):
            empirical_marginals(s, None)

    def test_weak_convergence(self):
        f = product_of([make_discrete([0.0, 0.4, 1.0], [0.2, 0.5, 0.3])], 1.0)
        s = sample_matrix(f, 10**5, seed=3)
        e = empirical_marginals(s, s.values.max())
        for a, w in f.marginals[0]:
            # 6 sigma for a weight estimate at m = 1e5
            tol = 6 * np.sqrt(w * (1 - w) / 10**5)
            assert abs(e.marginals[0].prob_at(a) - w) < tol

    @pytest.mark.parametrize("m", [1, 3, 7, 10**4])
    @given(k=st.integers(0, 40), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_make_discrete_reference(self, m, k, n, seed):
        # Columns drawn from -0.0, 0.0 and k 2-decimal values: np.unique keeps one
        # of the zeros, and both builds must keep the same one. More than 8 atoms
        # tell a left-to-right weight sum from numpy's unrolled ``sum``.
        rng = np.random.default_rng(seed)
        pool = np.concatenate(([0.0, -0.0], np.round(rng.random(k), 2)))
        s = SampleMatrix(rng.choice(pool, size=(m, n)))
        got, want = empirical_marginals(s, 1.0), empirical_marginals_reference(s, 1.0)
        assert got == want
        for g, w in zip(got.marginals, want.marginals):
            assert np.array(g.atoms).tobytes() == np.array(w.atoms).tobytes()
            assert np.array(g.weights).tobytes() == np.array(w.weights).tobytes()

    def test_builds_without_make_discrete(self, monkeypatch):
        s = sample_matrix(ProductDistribution.iid(uniform_on([0.0, 0.5, 1.0]), 3, 1.0), 50, 0)
        calls = count_calls(monkeypatch, dist, "make_discrete")
        assert len(empirical_marginals(s, 1.0).marginals) == 3
        assert calls == []


@given(quarter_distributions(), st.lists(st.one_of(QUARTERS, st.floats(-1.0, 2.0)), max_size=8))
@settings(max_examples=300, deadline=None)
def test_queries_match_linear_scan(d, xs):
    for x in xs:
        assert d.prob_below(x) == prob_below_reference(d, x)
        assert d.prob_at(x) == prob_at_reference(d, x)
        assert d.prob_at_most(x) == prob_at_most_reference(d, x)
        queries = (d.prob_at(x), d.prob_below(x), d.prob_at_most(x))
        assert all(type(q) is float for q in queries)


@given(
    st.lists(quarter_distributions(), max_size=4),
    st.lists(st.one_of(QUARTERS, st.floats(-1.0, 2.0)), min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_cdf_of_max_is_the_product_of_cdfs(dists, xs):
    expected = [math.prod(prob_at_most_reference(d, x) for d in dists) for x in xs]
    assert cdf_of_max(dists, xs[0]) == expected[0]
    assert isinstance(cdf_of_max(dists, xs[0]), float)
    assert cdf_of_max(dists, xs).tolist() == expected


def test_cdf_of_max_of_no_distributions_is_one():
    assert cdf_of_max([], 0.3) == 1.0
    assert cdf_of_max([], [-1.0, 0.0, 2.0]).tolist() == [1.0, 1.0, 1.0]


@given(st.lists(quarter_distributions(), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_cdf_table_has_the_bits_of_cdf_of_max(dists):
    f = product_of(dists, 1.0)
    support, cdfs = f._cdf_table
    assert support.tolist() == sorted({a for d in dists for a in d.atoms})
    points = np.concatenate(([-np.inf], support))
    for d, row in zip(dists, cdfs):
        assert row.tobytes() == cdf_of_max([d], points).tobytes()
    assert f._cdf_table is f._cdf_table


@given(st.lists(quarter_distributions(), min_size=1, max_size=4), st.data())
@settings(max_examples=200, deadline=None)
def test_cdf_table_support_has_the_bits_of_np_unique(dists, data):
    """Of a -0.0/0.0 pair across marginals, the table keeps ``np.unique``'s zero."""
    dists = [
        DiscreteDistribution((-0.0, *d.atoms[1:]), d.weights)
        if d.atoms[0] == 0.0 and data.draw(st.booleans()) else d
        for d in dists
    ]
    support, _ = product_of(dists, 1.0)._cdf_table
    atoms = np.concatenate([d.arrays[0] for d in dists])
    assert support.tobytes() == np.unique(atoms).tobytes()


def _loop_sum(values) -> float:
    total = 0.0
    for x in values:
        total += x
    return total


@pytest.mark.parametrize(
    "add", [sum_floats, _sum_in_order], ids=lambda add: getattr(add, "func", add).__name__
)
@given(st.lists(st.one_of(st.floats(-1e300, 1e300), st.sampled_from([1e16, -1e16, -0.0]))))
@settings(max_examples=300, deadline=None)
def test_sum_floats_adds_left_to_right_from_zero(add, values):
    """The built-in ``sum`` of floats compensates from Python 3.12 on; the helper does not."""
    assert repr(float(add(values))) == repr(_loop_sum(values))
    assert add([1e16, 1.0, -1e16]) == 0.0
    assert repr(add([])) == "0.0"  # from 0.0, not the built-in's int 0


def test_sum_left_to_right_adds_in_order():
    # 1e16 + 1 rounds back to 1e16, but 2 + 1e16 is exact: the order shows.
    assert sum_left_to_right(np.array([1e16, 1.0, 1.0, -1e16])) == 0.0
    assert sum_left_to_right(np.array([1.0, 1.0, 1e16, -1e16])) == 2.0
    total = sum_left_to_right(np.array([-0.0, -0.0]))
    assert total == 0.0 and math.copysign(1.0, total) == 1.0


class TestSerialization:
    def test_json_roundtrip(self):
        f = product_of([uniform_on([0, 0.5, 1.0]), point_mass(0.25)], 1.0)
        again = ProductDistribution.from_json(json.loads(json.dumps(f.to_json())))
        assert again == f

    def test_default_h_is_max_atom(self):
        f = product_of([uniform_on([0, 0.5]), uniform_on([0.2, 0.8])])
        assert f.h == 0.8

    @pytest.mark.parametrize("h", [float("inf"), float("nan")])
    def test_non_finite_h_rejected(self, h):
        with pytest.raises(ValueError, match="H must be finite"):
            product_of([uniform_on([0, 0.5])], h)
