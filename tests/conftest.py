"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from auctionlearn.auction import (
    BEST_RESPONSE_BLOCK,
    FPA_NONE,
    FPA_RANDOM,
    AuctionRule,
    CandidateBid,
    Format,
    Tie,
    _argmax_picks,
    _tie_dp,
    _utility,
    allocation_probability,
    push_forward,
)
from auctionlearn.da import (
    DAPureStrategy,
    _claim_distribution,
    ex_ante_utility_da,
    lambda_map,
    simulate_da,
)
from auctionlearn.dist import (
    WEIGHT_TOL,
    DiscreteDistribution,
    ProductDistribution,
    SampleMatrix,
    cdf_of_max,
    empirical_marginals,
    json_number,
    json_numbers,
    make_discrete,
    product_of,
    sum_left_to_right,
    truncate_at,
)
from auctionlearn.equilibrium import BNECertificate, verify_bne
from auctionlearn.estimate import ErrorReport, _probe_values, emp_estimate
from auctionlearn.lowerbound import _mask_probs, distinguisher_trials
from auctionlearn.pandora import IndexPolicy, SearchInstance, _effective_prefix, weitzman_index
from auctionlearn.strategy import MonotoneStrategy, StrategyProfile, shade
from auctionlearn.testkits import N_STRATEGIES, random_monotone_strategy


# Bids, values and atoms on a quarter grid, so that ties are frequent.
QUARTERS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def quarter_distributions(draw) -> DiscreteDistribution:
    """Up to 8 atoms, mostly on the quarter grid, with random weights."""
    atom = st.one_of(QUARTERS, QUARTERS, st.floats(0.0, 1.0))
    atoms = draw(st.lists(atom, min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(atoms), max_size=len(atoms)))
    return make_discrete(atoms, weights)


def random_discrete(rng, max_atoms=4, decimals=None) -> DiscreteDistribution:
    k = int(rng.integers(2, max_atoms + 1))
    atoms = rng.random(k)
    if decimals is not None:
        atoms = np.round(atoms, decimals)
    atoms = np.unique(atoms)
    weights = rng.random(len(atoms)) + 0.05
    return make_discrete(atoms.tolist(), weights.tolist())


def random_bid_dist(rng, max_atoms=4, decimals=2) -> DiscreteDistribution:
    return random_discrete(rng, max_atoms, decimals)


def random_product(rng, n, max_atoms=4, h=1.0, decimals=None):
    return product_of([random_discrete(rng, max_atoms, decimals) for _ in range(n)], h)


def random_monotone(rng, grid, h=1.0) -> MonotoneStrategy:
    grid = sorted(set(float(g) for g in grid))
    steps = rng.random(len(grid))
    bids = np.cumsum(steps) / steps.sum() * rng.random() * h
    return MonotoneStrategy(tuple(zip(grid, bids)))


def random_profile(rng, f, h=1.0) -> StrategyProfile:
    return StrategyProfile(
        tuple(random_monotone(rng, m.atoms, h) for m in f.marginals)
    )


def random_search_instance(rng, n_max=4, atoms_max=4, cost_scale=1.0) -> SearchInstance:
    n = int(rng.integers(1, n_max + 1))
    f = random_product(rng, n, atoms_max)
    costs = tuple(float(rng.random()) * m.mean() * cost_scale for m in f.marginals)
    return SearchInstance(f, costs)


# --- constructors, policies and predicates that only the tests use -------------


def point_mass(value: float) -> DiscreteDistribution:
    return DiscreteDistribution((float(value),), (1.0,))


def sample_matrix_reference(f: ProductDistribution, m: int, seed: int) -> SampleMatrix:
    """``dist.sample_matrix`` by ``Generator.choice(p=)``, one column per marginal."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    cols = [
        rng.choice(np.array(marg.atoms), size=m, p=np.array(marg.weights))
        for marg in f.marginals
    ]
    return SampleMatrix(np.column_stack(cols))


# --- the ex post oracle: every bidder's share from the whole bid row ---------------


def ex_post_allocation(tie: Tie, bids) -> np.ndarray:
    """Every bidder's share of the item at each row of a bid array of shape (..., n).

    The top bid wins; a k-way top tie gives each tied bidder 1/k under random
    allocation (the expectation over the uniform tie-break) and 0 otherwise.
    """
    b = np.asarray(bids, dtype=float)
    top = b == b.max(axis=-1, keepdims=True)
    k = top.sum(axis=-1, keepdims=True)
    if tie is Tie.NO_ALLOCATION:
        return (top & (k == 1)).astype(float)
    return top / k


def ex_post_utility_reference(rule: AuctionRule, i: int, v_i, bids):
    """``auction.ex_post_utility`` read from bidder i's column of :func:`ex_post_allocation`."""
    b = np.asarray(bids, dtype=float)
    if not 0 <= i < b.shape[-1]:
        raise ValueError(f"bidder {i} out of range for {b.shape[-1]} bids")
    return _utility(rule.format, v_i, b[..., i], ex_post_allocation(rule.tie, b)[..., i])


# --- the input checks and small kernels as they were before their rewrites -----------


@dataclass(frozen=True)
class DiscreteDistributionReference:
    """``dist.DiscreteDistribution``'s checks and ``mean`` with per-atom generator
    expressions."""

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.atoms or len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must be nonempty and equal length")
        if not all(map(math.isfinite, self.atoms)):
            raise ValueError("atoms must be finite")
        if any(b <= a for a, b in zip(self.atoms, self.atoms[1:])):
            raise ValueError("atoms must be strictly increasing")
        if self.atoms[0] < 0:
            raise ValueError(f"atom {self.atoms[0]} < 0")
        if any(w <= 0 for w in self.weights):
            raise ValueError("all weights must be strictly positive")
        if not abs(sum(self.weights) - 1.0) <= WEIGHT_TOL:  # also rejects NaN
            raise ValueError("weights must sum to 1 within 1e-12")

    def __iter__(self):
        return iter(zip(self.atoms, self.weights))

    def mean(self) -> float:
        return sum(a * w for a, w in self)


def make_discrete_reference(
    atoms: Sequence[float], weights: Sequence[float]
) -> DiscreteDistributionReference:
    """``dist.make_discrete`` with its checks as per-atom generator expressions."""
    if not atoms or len(atoms) != len(weights):
        raise ValueError("atoms and weights must be nonempty and equal length")
    if not all(map(math.isfinite, [*atoms, *weights])):
        raise ValueError("atoms and weights must be finite")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    total = float(sum(weights))
    if total <= WEIGHT_TOL:
        raise ValueError("weights sum to zero")
    for a in atoms:
        if a < 0:
            raise ValueError(f"atom {a} < 0")
    merged: dict[float, float] = {}
    for a, w in zip(atoms, weights):
        if w > 0:
            merged[float(a)] = merged.get(float(a), 0.0) + w / total
    pairs = sorted(merged.items())
    return DiscreteDistributionReference(tuple(a for a, _ in pairs), tuple(w for _, w in pairs))


@dataclass(frozen=True)
class MonotoneStrategyReference:
    """``strategy.MonotoneStrategy``'s checks with per-breakpoint generator expressions."""

    breakpoints: tuple[tuple[float, float], ...]
    default_bid: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "breakpoints", tuple((float(t), float(b)) for t, b in self.breakpoints)
        )
        thresholds = [t for t, _ in self.breakpoints]
        bids = [b for _, b in self.breakpoints]
        if not all(map(math.isfinite, thresholds + bids + [self.default_bid])):
            raise ValueError("thresholds and bids must be finite")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if any(y < x for x, y in zip(bids, bids[1:])):
            raise ValueError("bids must be nondecreasing")
        if self.default_bid < 0 or (bids and bids[0] < self.default_bid):
            raise ValueError("bids must be >= default_bid >= 0")


def monotone_from_json_reference(obj: dict) -> MonotoneStrategy:
    """``strategy.MonotoneStrategy.from_json`` checking every breakpoint with ``json_numbers``."""
    if not isinstance(obj, dict) or not isinstance(pts := obj.get("breakpoints", []), list):
        raise ValueError("a strategy must be an object with a list of breakpoints")
    pairs = [json_numbers(p, "a breakpoint") for p in pts]
    if any(len(p) != 2 for p in pairs):
        raise ValueError("a breakpoint must be a [value, bid] pair")
    return MonotoneStrategy(tuple(pairs), json_number(obj.get("default_bid", 0.0), "default_bid"))


def shade_reference(grid: Sequence[float], alpha: float) -> MonotoneStrategy:
    """``strategy.shade`` with a generator per grid point."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    pts = sorted(set(float(g) for g in grid))
    return MonotoneStrategy(tuple((g, alpha * g) for g in pts))


def probe_values_reference(f: ProductDistribution, profile: StrategyProfile, i: int) -> list[float]:
    """``estimate._probe_values`` reading thresholds from the breakpoint pairs."""
    pts = set(f.marginals[i].atoms)
    pts.update(t for t, _ in profile[i].breakpoints if 0 <= t <= f.h)
    return sorted(pts)


_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _is_numbers_reference(obj) -> bool:
    # A nonempty list of ints, floats and bools: no item holds a comma or a bracket.
    return type(obj) is list and bool(obj) and set(map(type, obj)) <= {int, float, bool}


def indented_reference(obj, nl: str) -> str:
    """``cli._indented`` with one ``_is_numbers`` call per row of a list of lists."""
    inner = nl + "  "
    if isinstance(obj, dict) and obj:
        items = [
            encode_basestring_ascii(k) + ": " + indented_reference(obj[k], inner)
            for k in sorted(obj)
        ]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if not (isinstance(obj, (list, tuple)) and obj):
        return _COMPACT.encode(obj)
    if _is_numbers_reference(obj):
        return "[" + inner + _COMPACT.encode(obj)[1:-1].replace(",", "," + inner) + nl + "]"
    if all(map(_is_numbers_reference, obj)):
        row = inner + "  "
        text = _COMPACT.encode(obj)[2:-2].replace(",", "," + row)
        text = text.replace("]," + row + "[", inner + "]," + inner + "[" + row)
        return "[" + inner + "[" + row + text + inner + "]" + nl + "]"
    return "[" + inner + ("," + inner).join(indented_reference(v, inner) for v in obj) + nl + "]"


def sample_matrix_take_reference(f: ProductDistribution, m: int, seed: int) -> SampleMatrix:
    """``dist.sample_matrix`` gathering atoms with ``.take`` on the indices."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    values = np.empty((m, f.n))
    for col, marg in zip(values.T, f.marginals):
        cdf = np.array(marg.weights).cumsum()
        cdf /= cdf[-1]
        # About 16 buckets per atom, so that few hold a step, and not many more than draws.
        scale = 1 << (min(max(16 * len(cdf), 256), m) - 1).bit_length()
        cdf *= scale
        edges = cdf.searchsorted(np.arange(scale + 1.0), "right").astype(np.int32)
        u = rng.random(m)
        u *= scale
        bucket = u.astype(np.int32)
        idx = edges.take(bucket)
        steps = np.flatnonzero((edges[:-1] != edges[1:]).take(bucket))
        idx[steps] = cdf.searchsorted(u[steps], "right")
        col[:] = np.array(marg.atoms).take(idx)
    values.setflags(write=False)
    return SampleMatrix(values)


def tie_dp_ones_start_reference(tie: Tie, like: np.ndarray, masses) -> np.ndarray:
    """``auction._tie_dp`` with its polynomial started from ones shaped like ``like``."""
    q = [np.ones_like(like)]
    for p_below, p_at in masses:
        q = (
            [q[0] * p_below]
            + [q[t - 1] * p_at + q[t] * p_below for t in range(1, len(q))]
            + [q[-1] * p_at]
        )
    prob = q[0]
    if tie is Tie.RANDOM_ALLOCATION:
        for t in range(1, len(q)):
            prob = prob + q[t] / (t + 1)
    return prob


def mask_probs_reference(p_one: np.ndarray) -> np.ndarray:
    """``lowerbound._mask_probs`` by concatenating the two halves per coordinate."""
    probs = np.array([1.0])
    for p in p_one:
        probs = np.concatenate([probs * (1.0 - p), probs * p])
    return probs



# Numbers that reach every input check: duplicates, signed zeros, negatives,
# non-finite values and ints, with valid ones often enough that whole lists pass.
RAW_NUMBERS = st.one_of(
    QUARTERS,
    QUARTERS,
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
    st.sampled_from([-0.0, -0.25, 0, 1, math.nan, math.inf, -math.inf]),
    st.floats(-1.0, 2.0),
)


def construction_outcome(build, fields):
    """The (type, message) of the exception ``build()`` raises, or the repr and
    float64 bytes of each of ``fields(built)``: repr tells ints from floats and
    -0.0 from 0.0."""
    try:
        built = build()
    except Exception as e:  # every exception type and message is compared
        return type(e), str(e)
    return [(repr(x), np.asarray(x, dtype=float).tobytes()) for x in fields(built)]

@st.composite
def sampling_marginals(draw) -> DiscreteDistribution:
    """One atom; dyadic weights, whose prefix sums are multiples of 1/2**e exactly and so
    fall on the edges of a sampling guide table of 2**e or more buckets; or random weights."""
    kind = draw(st.sampled_from(["point", "dyadic", "random"]))
    if kind == "point":
        return point_mass(draw(st.floats(0.0, 10.0)))
    if kind == "dyadic":
        total = 2 ** draw(st.integers(1, 9))
        cuts = draw(st.lists(st.integers(1, total - 1), max_size=30, unique=True))
        weights = (np.diff([0, *sorted(cuts), total]) / total).tolist()
    else:
        weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=30))
    k = len(weights)
    atoms = draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k, unique=True))
    return make_discrete(atoms, weights)


def constant(bid: float) -> MonotoneStrategy:
    """Strategy that bids the same amount at every value."""
    return MonotoneStrategy(((0.0, float(bid)),)) if bid > 0 else MonotoneStrategy(())


def weitzman_policy(inst: SearchInstance, truncation_budget: float = math.inf) -> IndexPolicy:
    """The index policy of the exact reservation prices."""
    indices = tuple(
        weitzman_index(f, c, h=inst.boxes.h) for f, c in zip(inst.boxes.marginals, inst.costs)
    )
    return IndexPolicy(indices, inst.costs, truncation_budget)


def empp_estimate(s, rule, i, v_i, profile) -> float:
    """Exact interim utility on the empirical product distribution, one value at a time.

    The scalar form of ``sup_error``'s batched product-form estimator.
    """
    emp = empirical_marginals(s, s.values.max())
    opp = [push_forward(emp.marginals[j], profile[j]) for j in range(s.n) if j != i]
    return interim_utility_by_search(rule, v_i, profile[i].eval(v_i), opp)


def emp_estimate_reference(s, rule, i, v_i, profile) -> float:
    """Scalar emp estimate that rebuilds the whole bid matrix for one value."""
    bids = profile.bids(s.values)
    bids[:, i] = profile[i].eval(v_i)
    return sum_left_to_right(ex_post_utility_reference(rule, i, v_i, bids)) / s.m


def dense_monotone_hypotheses_reference(n: int, m: int, seed: int):
    """``testkits.dense_monotone_hypotheses`` with one ex post oracle call per own bid."""
    rng = np.random.default_rng(seed)
    rule = FPA_NONE if n == 2 else FPA_RANDOM
    samples = rng.random((m, n - 1))
    witnesses = rng.uniform(-0.5, 0.5, size=m)
    grids = [np.sort(np.unique(samples[:, j])) for j in range(n - 1)]
    v_grid = np.linspace(0.0, 1.0, 41)
    rows = []
    for _ in range(N_STRATEGIES):
        opp = tuple(random_monotone_strategy(rng, grids[j]) for j in range(n - 1))
        opp_bids = StrategyProfile(opp).bids(samples) if opp else samples
        realized = np.unique(opp_bids)
        for b in np.concatenate(([0.0], realized, realized + 1e-9)):
            bids = np.column_stack([np.full(m, b), opp_bids])
            rows.append(ex_post_utility_reference(rule, 0, v_grid[:, None], bids))
    return np.concatenate(rows), witnesses


def empirical_marginals_reference(s: SampleMatrix, h: float) -> ProductDistribution:
    """``dist.empirical_marginals`` through ``make_discrete``."""
    marginals = []
    for col in s.values.T:
        uniq, counts = np.unique(col, return_counts=True)
        marginals.append(make_discrete(uniq.tolist(), (counts / s.m).tolist()))
    return ProductDistribution(tuple(marginals), float(h))


def label_vector_count_reference(hypothesis_values, witnesses) -> int:
    """Distinct sign rows by np.unique over bool rows (axis=0)."""
    hv = np.asarray(hypothesis_values, dtype=float)
    r = np.asarray(witnesses, dtype=float)
    if hv.ndim != 2 or hv.shape[1] != r.shape[0]:
        raise ValueError("hypothesis_values must be |family| x len(witnesses)")
    return len(np.unique(hv - r > 0, axis=0))


def claims_above(d: DAPureStrategy, sigma: float) -> bool:
    """True iff the purchase price of ``d`` equals tau for every value >= sigma."""
    if d.beta.eval(sigma) != d.tau:
        return False
    return all(b == d.tau for t, b in d.beta.breakpoints if t > sigma)


def eval_reference(s: MonotoneStrategy, v: float) -> float:
    """``MonotoneStrategy.eval`` at one value, by bisection over the thresholds."""
    if v < 0:
        raise ValueError("value must be nonnegative")
    idx = bisect_right([t for t, _ in s.breakpoints], v) - 1
    return s.breakpoints[idx][1] if idx >= 0 else s.default_bid


def push_forward_reference(f_j: DiscreteDistribution, s_j: MonotoneStrategy):
    """``push_forward`` one atom at a time, merging equal bids in a dict, then sorting."""
    merged: dict[float, float] = {}
    for a, w in f_j:
        bid = eval_reference(s_j, a)
        merged[bid] = merged.get(bid, 0.0) + w
    pairs = sorted(merged.items())
    return DiscreteDistribution(tuple(b for b, _ in pairs), tuple(w for _, w in pairs))


def damped_mix_reference(
    old: MonotoneStrategy, new: MonotoneStrategy, values, damping: float, rng
) -> MonotoneStrategy:
    """The solver's damped step as a strategy, with one ``rng.random()`` per value."""
    bids = []
    prev = 0.0
    for v in values:
        b = eval_reference(old, v) if rng.random() < damping else eval_reference(new, v)
        prev = max(prev, b)
        bids.append(prev)
    return MonotoneStrategy(tuple(zip(values, bids)))


def _snap_to_grid(bid: float, grid: list[float]) -> float:
    # Nearest bid of the sorted grid, ties toward the lower one.
    k = bisect_left(grid, bid)
    if k == 0:
        return grid[0]
    if k == len(grid):
        return grid[-1]
    lo, hi = grid[k - 1], grid[k]
    return hi if abs(hi - bid) < abs(lo - bid) - 1e-15 else lo


def shade_on_grid_reference(values, alpha: float, grid: list[float]) -> MonotoneStrategy:
    """The solver's start at shade ``alpha`` as a strategy on ``values``."""
    bids = []
    prev = grid[0]
    for v in values:
        prev = max(prev, _snap_to_grid(alpha * v, grid))
        bids.append(prev)
    return MonotoneStrategy(tuple(zip(values, bids)))


@st.composite
def quarter_strategies(draw, max_size=40) -> MonotoneStrategy:
    """Monotone strategies with long runs of equal bids, -0.0 among the bids and as
    the default bid, and thresholds on and off the quarter grid; some have no
    breakpoints at all."""
    threshold = st.one_of(QUARTERS, st.floats(0.0, 1.0), st.just(-0.0))
    thresholds = sorted(draw(st.lists(threshold, max_size=max_size, unique=True)))
    bid = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])
    bids = sorted(draw(st.lists(bid, min_size=len(thresholds), max_size=len(thresholds))))
    default = draw(st.sampled_from([-0.0, 0.0, 0.25]))
    if bids and bids[0] < default:
        default = -0.0
    return MonotoneStrategy(tuple(zip(thresholds, bids)), default)


def snap_to_grid_reference(bid: float, grid: list[float]) -> float:
    """Nearest bid of the sorted grid by a full scan, ties toward the lower one."""
    best = grid[0]
    for g in grid:
        if abs(g - bid) < abs(best - bid) - 1e-15:
            best = g
    return best


def interim_by_enumeration(rule, v_i, b_i, opp) -> float:
    """Probability-weighted enumeration over the full joint opponent-bid product."""
    total = 0.0
    for combo in itertools.product(*[list(d) for d in opp]):
        prob = 1.0
        bids = [b_i]
        for atom, weight in combo:
            prob *= weight
            bids.append(atom)
        total += prob * ex_post_utility_reference(rule, 0, v_i, bids)
    return total


# --- scalar references for the interim kernel ---------------------------------
#
# Sums run left to right with +=, the order the prefix sums of
# DiscreteDistribution use, so queries and allocation probabilities must
# match these references exactly.


def prob_below_reference(d, x) -> float:
    total = 0.0
    for a, w in d:
        if a < x:
            total += w
    return total


def prob_at_reference(d, x) -> float:
    for a, w in d:
        if a == x:
            return w
    return 0.0


def prob_at_most_reference(d, x) -> float:
    total = 0.0
    for a, w in d:
        if a <= x:
            total += w
    return total


def tie_profile_reference(opp, b) -> list[float]:
    """q[t] = P(no opponent bids above b and exactly t opponents tie at b)."""
    q = [1.0]
    for d in opp:
        p_below = prob_below_reference(d, b)
        p_at = prob_at_reference(d, b)
        nxt = [0.0] * (len(q) + 1)
        for t, qt in enumerate(q):
            if qt:
                nxt[t] += qt * p_below
                nxt[t + 1] += qt * p_at
        q = nxt
    return q


def allocation_probability_by_search(tie: Tie, opp: Sequence[DiscreteDistribution], bases):
    """``auction.allocation_probability`` without the leave-one-out row kernel: the tie
    DP fed each opponent's (P(bid below), P(bid at)) at every bid from two binary
    searches into its atoms. A scalar ``bases`` gives a float."""
    b = np.asarray(bases, dtype=float)
    masses = []
    for d in opp:
        atoms, _, cum = d.arrays
        weights = np.array((*d.weights, 0.0))  # 0.0 at index len(atoms): no atom
        lo, hi = atoms.searchsorted(b, "left"), atoms.searchsorted(b, "right")
        masses.append((cum[lo], np.where(hi > lo, weights[lo], 0.0)))
    prob = _tie_dp(tie, b, masses)
    return float(prob) if b.ndim == 0 else prob


def interim_utility_exact(
    rule: AuctionRule, values, bids, opp: Sequence[DiscreteDistribution]
):
    """Exact expected utility of bidding ``bids`` at ``values`` against independent opponents.

    Takes equal-length arrays of values and exact bids, or two scalars for one float.
    """
    b = np.asarray(bids, dtype=float)
    alloc = allocation_probability(rule.tie, opp, b)
    u = _utility(rule.format, np.asarray(values, dtype=float), b, alloc)
    return float(u) if b.ndim == 0 else u


def interim_utility_by_search(rule, values, bids, opp):
    """:func:`interim_utility_exact` on :func:`allocation_probability_by_search`."""
    b = np.asarray(bids, dtype=float)
    alloc = allocation_probability_by_search(rule.tie, opp, b)
    u = _utility(rule.format, np.asarray(values, dtype=float), b, alloc)
    return float(u) if b.ndim == 0 else u


def sup_error_reference(s, rule, family, f, estimator) -> ErrorReport:
    """``estimate.sup_error`` with every bidder's bid distribution pushed once per
    profile and each bidder's exact utilities from :func:`interim_utility_by_search`
    against the opponents' pushed distributions."""
    if estimator not in ("emp", "empp"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if not family:
        raise ValueError("strategy family is empty")
    emp_prod = empirical_marginals(s, h=f.h) if estimator == "empp" else None
    sup, arg = -1.0, (0, 0, 0.0)
    for p_idx, profile in enumerate(family):
        # Every bidder's bid distribution, pushed once per profile.
        pushed_true = [push_forward(m, s_j) for m, s_j in zip(f.marginals, profile)]
        if emp_prod is not None:
            pushed_emp = [push_forward(m, s_j) for m, s_j in zip(emp_prod.marginals, profile)]
        for i in range(f.n):
            probes = _probe_values(f, profile, i)
            bids = profile[i].eval(probes)
            opp_true = pushed_true[:i] + pushed_true[i + 1 :]
            exact = interim_utility_by_search(rule, probes, bids, opp_true).tolist()
            if emp_prod is not None:
                opp_emp = pushed_emp[:i] + pushed_emp[i + 1 :]
                est = interim_utility_by_search(rule, probes, bids, opp_emp).tolist()
            else:
                est = emp_estimate(s, rule, i, probes, profile)
            for v, e, x in zip(probes, est, exact):
                err = abs(e - x)
                if err > sup:
                    sup, arg = err, (p_idx, i, v)
    return ErrorReport(sup, arg)


def allocation_probability_reference(tie, opp, bid) -> float:
    """Allocation probability of an exact or right-limit bid, one opponent at a time."""
    if bid.limit_above:
        prob = 1.0
        for d in opp:
            prob *= prob_at_most_reference(d, bid.base)
        return prob
    q = tie_profile_reference(opp, bid.base)
    if tie is Tie.NO_ALLOCATION:
        return q[0]
    share = 0.0
    for t, qt in enumerate(q):
        share += qt / (t + 1)
    return share


def utility_reference(fmt, v, base, alloc) -> float:
    return alloc * v - base if fmt is Format.ALL_PAY else alloc * (v - base)


def best_response_profile_reference(rule, values, opp, bid_grid) -> list[tuple[float, float]]:
    """(value, bid) per distinct value: the first best grid bid in a strict-> scan
    over the sorted grid, or 0.0 if that bid never wins."""
    grid = sorted(set(bid_grid))
    allocs = [allocation_probability_reference(rule.tie, opp, CandidateBid(b, False)) for b in grid]
    out = []
    for v in sorted(set(float(x) for x in values)):
        sup, bid = None, None
        for b, alloc in zip(grid, allocs):
            u = utility_reference(rule.format, v, b, alloc)
            if sup is None or u > sup:
                sup, bid = u, (0.0 if alloc == 0.0 else b)
        out.append((v, bid))
    return out


def verify_bne_reference(rule, f, profile) -> BNECertificate:
    """The exact certificate with one strict-> scan over the candidates per value."""
    pushed = [push_forward(m, s) for m, s in zip(f.marginals, profile)]
    eps, worst, gap_rows = 0.0, (0, 0.0, CandidateBid(0.0, False)), []
    for i in range(f.n):
        opp = pushed[:i] + pushed[i + 1 :]
        bases = sorted({0.0} | {a for d in opp for a in d.atoms})
        cands = [CandidateBid(b, above) for b in bases for above in (False, True)]
        allocs = [allocation_probability_reference(rule.tie, opp, c) for c in cands]
        row = []
        for v in f.marginals[i].atoms:
            own_bid = CandidateBid(profile[i].eval(v), False)
            own_alloc = allocation_probability_reference(rule.tie, opp, own_bid)
            own = utility_reference(rule.format, v, own_bid.base, own_alloc)
            sup, dev = None, None
            for c, alloc in zip(cands, allocs):
                u = utility_reference(rule.format, v, c.base, alloc)
                if sup is None or u > sup:
                    sup, dev = u, c
            gap = sup - own
            assert gap >= -1e-9
            gap = max(gap, 0.0)
            row.append((v, gap))
            if gap > eps:
                eps, worst = gap, (i, v, dev)
        gap_rows.append(tuple(row))
    return BNECertificate(eps, tuple(gap_rows), worst)


def candidate_allocations_reference(tie, opp) -> np.ndarray:
    """The candidate table in two passes: the tie DP at every base, then the right
    limits from ``cdf_of_max``, each with its own binary searches."""
    bases = sorted({0.0} | {a for d in opp for a in d.atoms})
    out = np.empty(2 * len(bases), [("base", float), ("limit_above", bool), ("alloc", float)])
    out["base"] = np.repeat(bases, 2)
    out["limit_above"] = np.tile([False, True], len(bases))
    out["alloc"][0::2] = allocation_probability_by_search(tie, opp, bases)
    out["alloc"][1::2] = cdf_of_max(opp, bases)
    return out


def leave_one_out_allocations_reference(tie: Tie, masses: np.ndarray) -> np.ndarray:
    """Every bidder's allocation probabilities on a shared bid axis, against all the
    other bidders: row i of the (n, 2G) result holds base k's exact bid in column
    2k and its right limit in column 2k + 1.

    ``masses[j, k]`` is P(bidder j bids axis[k]), on one sorted axis that holds 0.0
    and every bid. The tie DP runs over the bidders in order, on blocks of bidder
    rows with rows x n x G <= ``BEST_RESPONSE_BLOCK`` (one row at least, so no
    (n, n, G) tensor), with bidder i's own factor (P(below), P(at)) = (1.0, 0.0);
    the right limits multiply P(bid <= base) in bidder order, 1.0 at the own row.

    Row i has the bits of the table of bidder i's opponents alone, because
    (a) a base where an opponent has no mass adds +0.0 to its prefix sums;
    (b) the own factor leaves every DP coefficient as it was and appends a +0.0
        one, whose random-allocation share adds +0.0 (and 1.0 changes no product);
    (c) at a base that is no opponent's atom, the exact and the right-limit
        allocation equal the right limit of the opponent base (or 0) below it. Its
        base is higher, so its utility never strictly beats that earlier candidate,
        and a first-maximum ``argmax`` or ``np.maximum.accumulate`` keeps the same
        pick; an exact bid read at its own base has the bits of
        :func:`allocation_probability_by_search`;
    (d) :func:`_bid_masses` adds the weights of equal consecutive bids left to
        right from 0.0, as the merge of :func:`dist._push_values` does.
    """
    n, g = masses.shape
    cum = np.zeros((n, g + 1))  # P(bid < base k) in column k, P(bid <= base k) in k + 1
    np.cumsum(masses, axis=1, out=cum[:, 1:])
    out = np.empty((n, 2 * g))
    rows = max(1, BEST_RESPONSE_BLOCK // (n * g))
    for lo in range(0, n, rows):
        block = out[lo : lo + rows]
        own = np.arange(lo, lo + len(block))[:, None]
        factors = (
            (np.where(own == j, 1.0, cum[j, :-1]), np.where(own == j, 0.0, masses[j]))
            for j in range(n)
        )
        block[:, 0::2] = _tie_dp(tie, block[:, 0::2], factors)
        limit = 1.0
        for j in range(n):
            limit = limit * np.where(own == j, 1.0, cum[j, 1:])
        block[:, 1::2] = limit
    return out


def certify_reference(rule, f, profile, pushed):
    """``equilibrium._certificate`` with a CandidateBid per atom and one Python step per gap."""
    rows = {}
    for i in range(f.n):
        m = f.marginals[i]
        opp = pushed[:i] + pushed[i + 1 :]
        cands = candidate_allocations_reference(rule.tie, opp)
        u = _utility(rule.format, m.arrays[0][:, None], cands["base"], cands["alloc"])
        ks = u.argmax(axis=1)
        sups = u[np.arange(len(ks)), ks].tolist()
        picked = cands[ks]
        devs = list(map(CandidateBid, picked["base"].tolist(), picked["limit_above"].tolist()))
        bids = np.array([profile[i].eval(v) for v in m.atoms])
        alloc = allocation_probability_by_search(rule.tie, opp, bids)
        own = _utility(rule.format, m.arrays[0], bids, alloc)
        gaps = []
        for own_u, sup in zip(own.tolist(), sups):
            gap = sup - own_u
            if not gap >= -1e-9:
                raise AssertionError(f"gap {gap} is negative or NaN: candidates not exhaustive")
            gaps.append(max(gap, 0.0))
        rows[i] = (m.atoms, gaps, devs)
    eps, worst = 0.0, (0, 0.0, CandidateBid(0.0, False))
    for i in range(f.n):
        for v, gap, dev in zip(*rows[i]):
            if gap > eps:
                eps, worst = gap, (i, v, dev)
    return BNECertificate(eps, tuple(tuple(zip(*rows[i][:2])) for i in range(f.n)), worst)


def monotone_best_response_profile(
    rule: AuctionRule, values: Sequence[float], opp: Sequence[DiscreteDistribution], bid_grid
) -> MonotoneStrategy:
    """Pointwise best-response bids on ``bid_grid`` over a value grid, emitted as a
    strategy: the solver's grid best response, the ``_argmax_picks`` bid or 0.0 where
    it never wins, with the tie DP on every grid bid. Bids that are not nondecreasing
    raise the solver's ``ValueError``."""
    grid_bids = np.array(sorted(set(bid_grid)), dtype=float)
    if not grid_bids.size:
        raise ValueError("bid_grid is empty")
    alloc = allocation_probability_by_search(rule.tie, opp, grid_bids)
    values = sorted(set(float(v) for v in values))
    (picks,), (won,) = _argmax_picks(rule.format, np.array(values), grid_bids, alloc[None])
    bids = np.where(won == 0.0, 0.0, grid_bids[picks]).tolist()
    if any(b2 < b1 for b1, b2 in zip(bids, bids[1:])):
        raise ValueError(f"best-response bids not monotone: {list(zip(values, bids))}")
    return MonotoneStrategy(tuple(zip(values, bids)))


def replace_strategy(profile: StrategyProfile, i: int, s: MonotoneStrategy) -> StrategyProfile:
    """``profile`` with bidder i's strategy replaced by ``s``."""
    return StrategyProfile(profile.strategies[:i] + (s,) + profile.strategies[i + 1 :])


def solve_bne_reference(rule, f, bid_grid, max_iters, damping=0.5, seed=0, trace=None):
    """The certified best-response solver with a full ``verify_bne`` per considered
    profile, run sequentially: restart after restart, from one random stream.

    Same dynamics, random stream and acceptance rule (strictly smaller epsilon) as
    ``solve_bne``, without batches, lockstep restarts or reuse of the pushed-forward
    bid distributions. A ``trace`` list receives (restart, profile, epsilon) for
    every considered profile, in order.
    """
    grid = sorted(set(float(b) for b in bid_grid))
    rng = np.random.default_rng(seed)
    starts = [0.0, 0.25, 0.5, 0.75, 1.0]
    best = None

    def consider(profile):
        nonlocal best
        cert = verify_bne(rule, f, profile)
        if trace is not None:
            trace.append((restart, profile, cert.epsilon))
        if best is None or cert.epsilon < best[1].epsilon:
            best = (profile, cert)

    for restart, alpha in enumerate(starts):
        profile = StrategyProfile(
            tuple(shade_on_grid_reference(m.atoms, alpha, grid) for m in f.marginals)
        )
        consider(profile)
        for _ in range(max_iters // len(starts)):
            if best[1].epsilon == 0.0:
                return best
            for i in range(f.n):
                opp = [push_forward(f.marginals[j], profile[j]) for j in range(f.n) if j != i]
                values = f.marginals[i].atoms
                br = monotone_best_response_profile(rule, values, opp, grid)
                consider(replace_strategy(profile, i, br))
                nxt = br
                if damping > 0:
                    nxt = damped_mix_reference(profile[i], br, values, damping, rng)
                profile = replace_strategy(profile, i, nxt)
                consider(profile)
    return best


def truncate_at_reference(f: DiscreteDistribution, sigma: float) -> DiscreteDistribution:
    """``dist.truncate_at`` with one list pass per part: the atoms below sigma, then
    sigma carrying the weights of the others, summed left to right."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma >= f.max_atom:
        return f
    below = [(a, w) for a, w in f if a < sigma]
    tail = sum(w for a, w in f if a >= sigma)
    atoms = tuple(a for a, _ in below) + (float(sigma),)
    weights = tuple(w for _, w in below) + (tail,)
    return DiscreteDistribution(atoms, weights)


def da_bidder_terms_reference(inst, profile, i) -> tuple[float, float]:
    """(ex ante utility, welfare share) of bidder i in the descending auction with
    one Python step per atom: the atom's share of the item times its value and its
    claim, each added in atom order from 0.0."""
    claims = [_claim_distribution(f, d) for f, d in zip(inst.boxes.marginals, profile)]
    opp = claims[:i] + claims[i + 1 :]
    f_i, d_i = inst.boxes.marginals[i], profile[i]
    bids = d_i.beta.eval(f_i.arrays[0])
    alloc = allocation_probability_by_search(Tie.RANDOM_ALLOCATION, opp, bids).tolist()
    won = paid = 0.0
    for a, wv, b, p in zip(f_i.atoms, f_i.weights, bids.tolist(), alloc):
        share = wv * p
        won += share * a
        paid += share * b
    cost = inst.costs[i] * cdf_of_max(opp, d_i.tau)
    return won - paid - cost, won - cost


def ex_ante_utility_fpa(f, profile, i, rule=FPA_RANDOM) -> float:
    """Exact ex ante first-price utility of bidder i under mixed monotone strategies.

    Enumerates every joint (value, mixture component) draw and prices each
    with the ex post oracle; this is the oracle side of the
    utility-transfer checks, independent of the interim machinery.
    """
    per_bidder = []
    for marg, s in zip(f.marginals, profile):
        mx = s if isinstance(s, MonotoneMixture) else MonotoneMixture.pure(s)
        per_bidder.append(
            [(wv * wc, a, comp.eval(a)) for a, wv in marg for wc, comp in mx.components]
        )
    draws = np.array(list(itertools.product(*per_bidder)))  # (draw, bidder, field)
    prob = np.prod(draws[:, :, 0], axis=1)
    return float(prob @ ex_post_utility_reference(rule, i, draws[:, i, 1], draws[:, :, 2]))


def permutation_identity_check(s, rule, i, v_i, profile) -> tuple[float, float]:
    """Exact permutation average of the empirical estimator vs. the product-form one.

    Averages the empirical estimate over all (m!)^(n-1) joint permutations of
    the opponents' columns; the result must equal the product-form estimate.
    Only tiny instances are enumerable.
    """
    m, n = s.m, s.n
    if m > 5 or n > 3:
        raise ValueError(f"m={m}, n={n} exceeds the (m!)^(n-1) enumeration limit")
    opp_cols = [j for j in range(n) if j != i]
    # rows[c, k, r]: the sample row that opponent opp_cols[k] reads at
    # position r under joint permutation c.
    joint = list(itertools.product(itertools.permutations(range(m)), repeat=len(opp_cols)))
    rows = np.array(joint, dtype=int).reshape(len(joint), len(opp_cols), m)
    base = profile.bids(s.values)
    base[:, i] = profile[i].eval(v_i)
    bids = np.broadcast_to(base, (len(rows), m, n)).copy()
    for k, col in enumerate(opp_cols):
        bids[..., col] = base[rows[:, k], col]
    # Every permutation averages over the same m rows, so the mean of the
    # per-permutation averages is the mean over all of them.
    emp = float(np.mean(ex_post_utility_reference(rule, i, v_i, bids)))
    return emp, empp_estimate(s, rule, i, v_i, profile)


def optimal_adaptive_oracle(inst: SearchInstance) -> float:
    """Exact optimum over all adaptive open/stop policies, by backward induction.

    State space is (set of opened boxes) x (best value so far); only tiny
    instances are admitted.
    """
    if inst.n > 4 or any(len(f.atoms) > 4 for f in inst.boxes.marginals):
        raise ValueError("oracle limited to n <= 4 and <= 4 atoms per box")
    marginals = inst.boxes.marginals
    costs = inst.costs
    n = inst.n

    @lru_cache(maxsize=None)
    def value(open_mask: int, best: float) -> float:
        out = best
        for j in range(n):
            if open_mask & (1 << j):
                continue
            cont = -costs[j]
            for a, w in marginals[j]:
                cont += w * value(open_mask | (1 << j), max(best, a))
            out = max(out, cont)
        return out

    result = value(0, 0.0)
    value.cache_clear()
    return result


def da_outcomes_by_enumeration(inst, profile):
    """Yield (probability, DAOutcome) over every joint value draw."""
    for combo in itertools.product(*inst.boxes.marginals):
        prob = 1.0
        for _, w in combo:
            prob *= w
        yield prob, simulate_da(inst, profile, [a for a, _ in combo])


# --- Pandora's box references -------------------------------------------------
#
# The dict DP that ``policy_payoff_exact`` replaced, the per-point CDF loop
# that ``opt_welfare`` replaced, and a one-run simulation of an index policy.


def policy_payoff_reference(inst: SearchInstance, p: IndexPolicy) -> float:
    """Exact expected payoff of an index policy, by a dict DP over best values.

    Forward DP over the sub-distribution of the best value so far among the
    runs that are still searching; runtime O(n * (total atoms)^2).
    """
    if len(p.indices) != inst.n:
        raise ValueError("policy and instance sizes differ")
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


def opt_welfare_reference(inst: SearchInstance) -> float:
    """E[max_i min(v_i, sigma_i)] with sigma the exact indices, one support point at a time."""
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


def simulate_policy(p: IndexPolicy, values: Sequence[float]) -> float:
    """Run the index procedure on one realized value vector; returns the payoff."""
    if len(values) != len(p.indices):
        raise ValueError("values length must match the policy")
    order = p.order()
    if p.indices[order[0]] < 0:
        return 0.0
    best = None
    paid = 0.0
    for pos, i in enumerate(order):
        if paid + p.costs[i] > p.truncation_budget:
            break
        paid += p.costs[i]
        best = values[i] if best is None else max(best, values[i])
        if pos == len(order) - 1:
            break
        if best >= p.indices[order[pos + 1]]:
            break
    return (best if best is not None else 0.0) - paid


# --- the mu map: the inverse of da.lambda_map ---------------------------------


@dataclass(frozen=True)
class MonotoneMixture:
    """Finite mixture over monotone first-price strategies (mu-map images)."""

    components: tuple[tuple[float, MonotoneStrategy], ...]

    @classmethod
    def pure(cls, s: MonotoneStrategy) -> "MonotoneMixture":
        return cls(((1.0, s),))


def mu_map(d: DAPureStrategy, f: DiscreteDistribution, sigma: float) -> MonotoneMixture:
    """Descending strategy -> mixture of first-price strategies on [0, sigma].

    Each component copies the purchase prices below sigma and bids, at value
    sigma, the purchase price of one conditional draw v' ~ f | v' >= sigma.
    When f puts no mass at or above sigma the mixture degenerates to the
    single component bidding beta(sigma) there.
    """
    below = tuple((t, b) for t, b in d.beta.breakpoints if t < sigma)

    def component(bid_at_sigma: float) -> MonotoneStrategy:
        return MonotoneStrategy(below + ((float(sigma), bid_at_sigma),), d.beta.default_bid)

    tail = [(a, w) for a, w in f if a >= sigma]
    if not tail:
        return MonotoneMixture.pure(component(d.beta.eval(sigma)))
    total = sum(w for _, w in tail)
    merged: dict[float, float] = {}
    for a, w in tail:
        bid = d.beta.eval(a)
        merged[bid] = merged.get(bid, 0.0) + w / total
    return MonotoneMixture(tuple((w, component(b)) for b, w in sorted(merged.items())))


def roundtrip_check(
    strategy: DAPureStrategy | MonotoneStrategy, f: DiscreteDistribution, sigma: float
) -> bool:
    """Check the lambda/mu round-trip identity pointwise on supp(f) and sigma."""
    probes = sorted(set(f.atoms) | {float(sigma)})
    if isinstance(strategy, MonotoneStrategy):
        # mu(lambda(f)) must reproduce f on the truncated domain.
        image = mu_map(lambda_map(strategy, sigma), f, sigma)
        pts = sorted({min(p, sigma) for p in probes})
        return all(
            comp.eval(p) == strategy.eval(p) for _, comp in image.components for p in pts
        )
    image = mu_map(strategy, f, sigma)
    for _, comp in image.components:
        back = lambda_map(comp, sigma)
        if back.tau != strategy.tau:
            return False
        if any(back.beta.eval(p) != strategy.beta.eval(p) for p in probes):
            return False
    return True


# --- descending-auction deviations -------------------------------------------
#
# The finite deviation class the pipeline's gap used before it became the exact
# supremum (lambda-images of linear shades and the 1/z smoothness mixture), and
# a brute-force oracle for that supremum on the quarter grid.

SHADE_ALPHAS = tuple(k / 10 for k in range(11))


def smoothness_component(sigma: float, z: float, value_grid: Sequence[float]) -> DAPureStrategy:
    """One deviation component: inspect at (1-z)*sigma, claim at (1-z)*min(v, sigma)."""
    pts = sorted(set(float(g) for g in value_grid) | {float(sigma)})
    bps = tuple((g, (1.0 - z) * min(g, sigma)) for g in pts)
    return DAPureStrategy((1.0 - z) * sigma, MonotoneStrategy(bps, 0.0))


def smoothness_deviation(
    sigma: float, value_grid: Sequence[float], k_points: int = 64
) -> list[tuple[float, DAPureStrategy]]:
    """The welfare-guarantee deviation: Z on [1/e, 1] with density 1/z, as
    (weight, pure strategy) pairs.

    Z is discretized on k equal-probability quantiles (inverse CDF
    z = exp(u - 1)); every component claims above sigma.
    """
    comps = []
    for k in range(k_points):
        u = (k + 0.5) / k_points
        z = math.exp(u - 1.0)
        comps.append((1.0 / k_points, smoothness_component(sigma, z, value_grid)))
    return comps


def finite_class_gap(inst: SearchInstance, da_profile, sigmas: Sequence[float]) -> float:
    """Largest gain over the lambda-images of linear shades on the truncated support
    and the smoothness mixture, per bidder; a lower bound on the exact gap.

    Against fixed opponents utility is linear in the own strategy, so the
    mixture is priced as the weighted sum of its components' utilities.
    """
    gap = 0.0
    for i in range(inst.n):
        own = ex_ante_utility_da(inst, da_profile, i)
        grid = sorted({min(a, sigmas[i]) for a in inst.boxes.marginals[i].atoms} | {sigmas[i]})
        shades = [lambda_map(shade(grid, a), sigmas[i]) for a in SHADE_ALPHAS]
        mixtures = [[(1.0, d)] for d in shades] + [smoothness_deviation(sigmas[i], grid)]
        for mixture in mixtures:
            u = 0.0
            for w, d in mixture:
                trial = list(da_profile)
                trial[i] = d
                u += w * ex_ante_utility_da(inst, trial, i)
            gap = max(gap, u - own)
    return gap


# Threshold and claim prices of the brute-force deviation oracle: the quarter
# grid, and 1e-7 above each point in place of the right limits.
ORACLE_PRICES = sorted(q + d for q in (0.0, 0.25, 0.5, 0.75, 1.0) for d in (0.0, 1e-7))


def best_deviation_by_enumeration(inst: SearchInstance, profile, i: int) -> float:
    """Best ex ante utility of bidder i over every threshold and every per-value claim
    on ``ORACLE_PRICES``, from :func:`simulate_da` over every joint opponent draw.

    Given the threshold, each value's claim is chosen on its own: the inspection
    probability depends only on the threshold, since the own claim never exceeds it.
    """
    draws = [[(1.0, None)] if j == i else [(wv, a) for a, wv in f]
             for j, f in enumerate(inst.boxes.marginals)]
    joint = list(itertools.product(*draws))
    # claim_u[v][b]: E[share * (v - b)] at claim b; inspect[b]: P(inspect) at threshold b.
    claim_u: dict[float, dict[float, float]] = {}
    inspect: dict[float, float] = {}
    for b in ORACLE_PRICES:
        trial = list(profile)
        trial[i] = DAPureStrategy(b, constant(b))
        for v, _ in inst.boxes.marginals[i]:
            u = p_inspect = 0.0
            for combo in joint:
                prob = float(np.prod([w for w, _ in combo]))
                values = [v if j == i else a for j, (_, a) in enumerate(combo)]
                out = simulate_da(inst, trial, values)
                u += prob * out.utilities[i]
                p_inspect += prob * out.inspected[i]
            claim_u.setdefault(v, {})[b] = u + inst.costs[i] * p_inspect
            inspect[b] = p_inspect
    return max(
        sum(wv * max(u for b, u in claim_u[v].items() if b <= tau)
            for v, wv in inst.boxes.marginals[i])
        - inst.costs[i] * inspect[tau]
        for tau in ORACLE_PRICES
    )


# --- check-only helpers --------------------------------------------------------


def median_ratio_table(rows: Sequence[dict]) -> list[tuple[int, float]]:
    """Median sup_error per sample size, sorted by m (for scaling reports)."""
    by_m: dict[int, list[float]] = {}
    for r in rows:
        by_m.setdefault(r["m"], []).append(r["sup_error"])
    return [(m, float(np.median(v))) for m, v in sorted(by_m.items())]


def equilibrium_transfer_check(
    rule: AuctionRule,
    f_true: ProductDistribution,
    s: SampleMatrix,
    profile: StrategyProfile,
) -> tuple[float, float]:
    """Certified epsilon of one profile on the true and the empirical product distribution."""
    eps_true = verify_bne(rule, f_true, profile).epsilon
    emp = empirical_marginals(s, h=f_true.h)
    eps_emp = verify_bne(rule, emp, profile).epsilon
    return eps_true, eps_emp


# --- the hard two-point family of the lower bound ------------------------------
#
# ``hard_instance`` measures its bias in units of the family's fixed
# normalization constant C1; the distinguisher takes the total bias amplitude
# directly, P(v = 1) = (1 +/- eps) / n, the same family under
# eps_total = C1 * eps_hard.
C1 = 2000.0


def biased_marginal(n: int, bias: float, plus: bool) -> DiscreteDistribution:
    """Two-point marginal with P(v = 1) = (1 +/- bias) / n."""
    p_one = (1.0 + bias) / n if plus else (1.0 - bias) / n
    if not 0.0 < p_one < 1.0:
        raise ValueError(f"bias {bias} makes P(v=1) = {p_one} invalid for n = {n}")
    return make_discrete([0.0, 1.0], [1.0 - p_one, p_one])


def hard_instance(n: int, eps: float, s: Iterable[int]) -> ProductDistribution:
    """The hard product distribution F_S; bidders in s get the favorable marginal.

    Bidders are 0-indexed; ``s`` must be a subset of {0, ..., n-2}, and the
    last bidder always has a point mass on value 1.
    """
    s = set(s)
    if not 0 < eps < 1.0 / 4000.0:
        raise ValueError(f"eps = {eps} must lie in (0, 1/4000)")
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
    return MonotoneStrategy(((1.0, 0.5 + eta),), 0.0)


def distinguisher_trials_reference(
    n: int, eps: float, m: int, trials: int, seed: int
) -> np.ndarray:
    """The distinguisher that sums counts over every mask for each candidate set."""
    if n < 2:
        raise ValueError(f"the distinguisher needs n >= 2 bidders, got n = {n}")
    if m < 1 or trials < 0:
        raise ValueError(f"the distinguisher needs m >= 1 and trials >= 0, got {m} and {trials}")
    if n > 16:
        raise ValueError("subset argmax limited to n <= 16")
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
    subsets = list(itertools.combinations(range(n - 1), k))
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


def count_calls(monkeypatch, owner, name: str) -> list[tuple]:
    """Wrap ``owner.name``, a module's function or a class's method, for one test;
    each call appends its positional arguments to the returned list."""
    calls = []
    fn = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
