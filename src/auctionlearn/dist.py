"""Finite-support value distributions: products, sampling, empirical marginals.

Everything in this module is exact: distributions are atom/weight lists,
expectations are finite sums, and sampling is a pure function of a seed.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, repeat
from typing import Iterable, Sequence

import numpy as np


# Tolerance for "weights sum to 1"; inputs are renormalized on construction.
WEIGHT_TOL = 1e-12

# Rows per block when drawing and counting a sample: every m-sized temporary is one block.
SAMPLE_BLOCK = 1 << 15


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability distribution over finitely many nonnegative atoms.

    Atoms are strictly increasing, weights positive and summing to one.
    Use :func:`make_discrete` to build one from raw (possibly duplicated,
    unnormalized) data. Probability queries are binary searches into prefix
    sums of the weights, built on first use.
    """

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.atoms or len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must be nonempty and equal length")
        if not all(map(math.isfinite, self.atoms)):
            raise ValueError("atoms must be finite")
        if any(map(operator.le, self.atoms[1:], self.atoms)):
            raise ValueError("atoms must be strictly increasing")
        if self.atoms[0] < 0:
            raise ValueError(f"atom {self.atoms[0]} < 0")
        if any(map(operator.le, self.weights, repeat(0))):
            raise ValueError("all weights must be strictly positive")
        if not abs(sum_floats(self.weights) - 1.0) <= WEIGHT_TOL:  # also rejects NaN
            raise ValueError("weights must sum to 1 within 1e-12")

    def __iter__(self):
        return iter(zip(self.atoms, self.weights))

    @property
    def max_atom(self) -> float:
        return self.atoms[-1]

    def mean(self) -> float:
        return sum_floats(map(operator.mul, self.atoms, self.weights))

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Numpy atoms, weights and weight prefix sums (0.0, w0, w0 + w1, ...), added in order."""
        prefix = np.array((0.0, *accumulate(self.weights)))
        return np.array(self.atoms), np.array(self.weights), prefix

    def _guide_table(self, scale: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The guide table of :func:`sample_matrix` for ``scale`` buckets, built on first use
        and kept per scale: the normalized prefix sums of the weights times ``scale``, each
        bucket's start index in the narrowest unsigned type, and whether the bucket holds a
        step. About 8 * len(atoms) + 2 * scale bytes (10 KB at 200 atoms and 4,096 buckets);
        the arithmetic is the per-draw one's, so a kept table has its bits."""
        tables = self.__dict__.setdefault("_guide_tables", {})
        if scale not in tables:
            cdf = self.arrays[1].cumsum()
            cdf /= cdf[-1]
            cdf *= scale
            # Bucket k < scale starts at index #{c <= k} < len(cdf), as c[-1] == scale.
            edges = cdf.searchsorted(np.arange(scale + 1.0), "right")
            starts = edges[:-1].astype(np.min_scalar_type(len(cdf) - 1))
            tables[scale] = cdf, starts, edges[:-1] != edges[1:]
        return tables[scale]

    def prob_at(self, x: float) -> float:
        """P(v == x), exact float comparison."""
        k = bisect_left(self.atoms, x)
        return self.weights[k] if k < len(self.atoms) and self.atoms[k] == x else 0.0

    def prob_below(self, x: float) -> float:
        """P(v < x)."""
        return float(self.arrays[2][bisect_left(self.atoms, x)])

    def prob_at_most(self, x: float) -> float:
        """P(v <= x)."""
        return float(self.arrays[2][bisect_right(self.atoms, x)])

    def expected_excess(self, sigma: float) -> float:
        """E[max(v - sigma, 0)]."""
        return sum_floats(w * (a - sigma) for a, w in self if a > sigma)

    def to_json(self) -> dict:
        return {"atoms": list(self.atoms), "weights": list(self.weights)}

    @classmethod
    def from_json(cls, obj: dict) -> "DiscreteDistribution":
        if not (isinstance(obj, dict) and "atoms" in obj and "weights" in obj):
            raise ValueError("a distribution must be an object with atoms and weights")
        return make_discrete(*(json_numbers(obj[k], k) for k in ("atoms", "weights")))


def json_number(a, what: str) -> float:
    """The float of a finite JSON number (not a boolean); ``ValueError`` otherwise."""
    if type(a) not in (int, float) or not abs(a) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number, got {a!r:.40}")
    return float(a)


def json_numbers(x, what: str) -> list[float]:
    """The floats of a JSON list of finite numbers; ``ValueError`` otherwise.

    A list of finite floats is returned as a copy at once; any other list is
    checked number by number, so the first bad one is named."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list of numbers, got {x!r:.40}")
    if set(map(type, x)) <= {float} and all(map(math.isfinite, x)):
        return list(x)
    return [json_number(a, what) for a in x]


def make_discrete(atoms: Sequence[float], weights: Sequence[float]) -> DiscreteDistribution:
    """Build a distribution from raw atom/weight lists.

    Sorts atoms, merges duplicates by summing weights, drops zero-weight
    atoms, and renormalizes.
    """
    if not atoms or len(atoms) != len(weights):
        raise ValueError("atoms and weights must be nonempty and equal length")
    if not all(map(math.isfinite, [*atoms, *weights])):
        raise ValueError("atoms and weights must be finite")
    if any(map(operator.lt, weights, repeat(0))):
        raise ValueError("weights must be nonnegative")
    total = float(sum_floats(weights))
    if total <= WEIGHT_TOL:
        raise ValueError("weights sum to zero")
    for a in compress(atoms, map(operator.lt, atoms, repeat(0))):
        raise ValueError(f"atom {a} < 0")
    merged: dict[float, float] = {}
    for a, w in zip(atoms, weights):
        if w > 0:
            merged[float(a)] = merged.get(float(a), 0.0) + w / total
    pairs = sorted(merged.items())
    return DiscreteDistribution(tuple(a for a, _ in pairs), tuple(w for _, w in pairs))


def cdf_of_max(dists: Sequence[DiscreteDistribution], x):
    """P(max of independent draws from ``dists`` <= x) at every point of ``x``.

    The product of the CDFs runs in list order; no distributions give 1.0.
    A scalar ``x`` gives a float.
    """
    x = np.asarray(x, dtype=float)
    prob = np.ones_like(x)
    for d in dists:
        atoms, _, cum = d.arrays
        prob = prob * cum[np.searchsorted(atoms, x, side="right")]
    return float(prob) if x.ndim == 0 else prob


def _sum_in_order(values: Iterable[float]) -> float:
    total = 0  # as the built-in's start: an empty sum is the int 0
    for x in values:
        total += x
    return total


# Floats added left to right from 0.0 on every Python version. Before 3.12 the built-in
# ``sum`` is this loop, in C; 3.12 made its float sum compensated.
sum_floats = sum if sys.version_info < (3, 12) else _sum_in_order


def sum_left_to_right(terms: np.ndarray) -> float:
    """The sum of ``terms`` added in order, as a loop would; a -0.0 sum gives 0.0."""
    return float(0.0 + np.cumsum(terms)[-1])


def uniform_on(atoms: Sequence[float]) -> DiscreteDistribution:
    return make_discrete(list(atoms), [1.0] * len(atoms))


def _push_values(f: DiscreteDistribution, values: np.ndarray) -> DiscreteDistribution:
    """Distribution of ``values[k]`` at atom k of f, equal values merged by adding
    their weights left to right. ``values`` must not decrease in atom order (a
    monotone map of the atoms), so the merged values arrive sorted."""
    merged: dict[float, float] = {}
    for x, w in zip(values.tolist(), f.weights):
        merged[x] = merged.get(x, 0.0) + w
    return DiscreteDistribution(tuple(merged), tuple(merged.values()))


def truncate_at(f: DiscreteDistribution, sigma: float) -> DiscreteDistribution:
    """Distribution of min(v, sigma): mass above sigma collapses onto sigma."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if sigma >= f.max_atom:
        return f
    atoms = np.array(f.atoms)
    return _push_values(f, np.where(atoms < sigma, atoms, float(sigma)))


@dataclass(frozen=True)
class ProductDistribution:
    """Independent product of per-bidder discrete distributions.

    ``h`` is the common upper bound on values (and bids); it defaults to the
    largest atom across marginals.
    """

    marginals: tuple[DiscreteDistribution, ...]
    h: float

    def __post_init__(self) -> None:
        if not self.marginals:
            raise ValueError("need at least one marginal")
        if not math.isfinite(self.h):
            raise ValueError(f"H must be finite, got {self.h}")
        for f in self.marginals:
            if f.max_atom > self.h:
                raise ValueError(f"atom {f.max_atom} exceeds H={self.h}")

    @property
    def n(self) -> int:
        return len(self.marginals)

    @cached_property
    def _cdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted union S of the marginals' atoms, and the n x (|S| + 1) array whose
        row i is P(v_i <= t) at t = -inf and at every point of S, built on first use.

        Row i reads marginal i's prefix sums with one ``searchsorted``: the bits of
        ``cdf_of_max([marginals[i]], t)``, which multiplies 1.0 by the same prefix sum.
        It takes n * (|S| + 1) doubles: 26 KB at n = 4 and 1.6 MB at n = 32, at 200
        distinct atoms a marginal.
        """
        arrays = [f.arrays for f in self.marginals]
        support = np.unique(np.concatenate([atoms for atoms, _, _ in arrays]))
        points = np.concatenate(([-np.inf], support))
        rows = [cum[atoms.searchsorted(points, "right")] for atoms, _, cum in arrays]
        return support, np.array(rows)

    def to_json(self) -> dict:
        return {"H": self.h, "marginals": [f.to_json() for f in self.marginals]}

    @classmethod
    def from_json(cls, obj: dict) -> "ProductDistribution":
        if not isinstance(obj, dict) or not isinstance(obj.get("marginals"), list):
            raise ValueError("an instance must be an object with a list of marginals")
        h = obj.get("H")
        marginals = tuple(DiscreteDistribution.from_json(f) for f in obj["marginals"])
        return product_of(marginals, None if h is None else json_number(h, "H"))

    @classmethod
    def iid(cls, f: DiscreteDistribution, n: int, h: float | None) -> "ProductDistribution":
        return product_of((f,) * n, h)


def product_of(
    marginals: Iterable[DiscreteDistribution], h: float | None = None
) -> ProductDistribution:
    ms = tuple(marginals)
    if h is None:
        h = max((f.max_atom for f in ms), default=0.0)
    return ProductDistribution(ms, float(h))


def _index(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A column's sorted distinct values, each the first of its run as ``np.unique`` keeps it
    (so of a -0.0/0.0 pair, ``np.unique``'s zero), and every row's index among them in the
    narrowest unsigned type that holds it."""
    aux = np.sort(col)
    atoms = aux[np.concatenate(([True], aux[1:] != aux[:-1]))]
    return atoms, atoms.searchsorted(col).astype(np.min_scalar_type(len(atoms) - 1))


@dataclass(frozen=True, init=False, eq=False)
class SampleMatrix:
    """m x n matrix of sampled value profiles; row j is one joint sample.

    A sample is, per column, sorted atoms (the distinct given values, or a draw's marginal's
    atoms) and every row's index among them (:attr:`columns`), in the narrowest unsigned type
    that holds it: one byte a value up to 256 atoms. :attr:`values` is gathered from them on
    first read, once, into a read-only array that owns its memory.
    """

    m: int
    n: int
    columns: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)

    def __init__(self, values) -> None:
        v = np.asarray(values, dtype=float)
        if v.ndim != 2 or 0 in v.shape:
            raise ValueError("values must be a nonempty 2-D array")
        lo, hi = v.min(initial=0.0), v.max(initial=0.0)  # a NaN value gives NaN
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("sample values must be finite")
        if lo < 0:
            raise ValueError("sample values must be nonnegative")
        self.__dict__.update(columns=tuple(map(_index, v.T)), m=v.shape[0], n=v.shape[1])

    @classmethod
    def _of_columns(cls, columns: tuple[tuple[np.ndarray, np.ndarray], ...]) -> "SampleMatrix":
        s = cls.__new__(cls)
        s.__dict__.update(columns=columns, m=len(columns[0][1]), n=len(columns))
        return s

    @cached_property
    def values(self) -> np.ndarray:
        """The m x n value matrix (read-only), gathered from :attr:`columns`."""
        values = self.gather([atoms for atoms, _ in self.columns])
        values.setflags(write=False)
        return values

    def gather(self, per_atom: Sequence[np.ndarray]) -> np.ndarray:
        """The m x n matrix whose column j is ``per_atom[j]``, given at column j's atoms,
        read at every row's atom: a map of the values that is evaluated once per atom."""
        out = np.empty((self.m, self.n))
        for col, at_atoms, (_, index) in zip(out.T, per_atom, self.columns):
            col[:] = at_atoms[index]
        return out

    def rows(self, start: int, stop: int) -> "SampleMatrix":
        """Rows ``start:stop``: every column keeps its atoms, and its index is sliced."""
        if not 0 <= start < stop <= self.m:
            raise ValueError(f"rows {start}:{stop} out of range for m={self.m}")
        return SampleMatrix._of_columns(tuple((a, index[start:stop]) for a, index in self.columns))

    def truncated(self, sigmas: Sequence[float]) -> "SampleMatrix":
        """Column j of min(v, sigmas[j]): its atoms capped and indexed anew, its index remapped."""
        if len(sigmas) != self.n or not all(map(operator.le, repeat(0.0), sigmas)):
            raise ValueError(f"need {self.n} nonnegative sigmas, got {sigmas!r:.40}")
        columns = []
        for (atoms, index), sigma in zip(self.columns, sigmas):
            capped, remap = _index(np.minimum(atoms, sigma))
            columns.append((capped, remap[index]))
        return SampleMatrix._of_columns(tuple(columns))


def sample_matrix(f: ProductDistribution, m: int, seed: int) -> SampleMatrix:
    """Draw m i.i.d. rows from the product distribution, deterministically in seed.

    Column i holds the draws ``Generator.choice(atoms, m, p=weights)`` makes for
    marginal i, from the same uniforms u and normalized prefix sums c, found
    through a guide table (Chen and Asau, 1974) instead of a binary search per
    draw. Scaling u and c by a power of two B is exact, so it leaves the index
    #{c <= u} unchanged, and that index is nondecreasing in u. Hence on a bucket
    [k, k + 1) of u * B whose two ends have the same index, that index is the
    draw's, and only draws in a bucket across a step of c * B are searched.
    B depends only on the atom count and m, and each marginal keeps its table per B
    (:meth:`DiscreteDistribution._guide_table`), so a sweep over seeds builds it once.
    The uniforms come in blocks of :data:`SAMPLE_BLOCK` rows, which continue one
    ``Generator.random`` stream, into the column's preallocated index of the
    narrowest unsigned type; the sample keeps the marginal's atoms and that index.
    ``m`` is any integer >= 1 (not a bool); anything else raises ``ValueError``.
    """
    if isinstance(m, bool) or not hasattr(type(m), "__index__"):
        raise ValueError(f"m must be an integer, got {m!r:.40}")
    m = operator.index(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    columns = []
    for marg in f.marginals:
        # About 16 buckets per atom, so that few hold a step, and not many more than draws.
        scale = 1 << (min(max(16 * len(marg.atoms), 256), m) - 1).bit_length()
        cdf, starts, steps = marg._guide_table(scale)
        index = np.empty(m, starts.dtype)
        for lo in range(0, m, SAMPLE_BLOCK):
            u = rng.random(min(SAMPLE_BLOCK, m - lo))
            u *= scale
            bucket = u.astype(np.int32)
            block = index[lo : lo + len(u)]
            starts.take(bucket, out=block)
            at = np.flatnonzero(steps.take(bucket))
            block[at] = cdf.searchsorted(u[at], "right")
        columns.append((marg.arrays[0], index))
    return SampleMatrix._of_columns(tuple(columns))


def empirical_marginals(s: SampleMatrix, h: float) -> ProductDistribution:
    """Product of per-column uniform distributions over the sampled values.

    A column's atoms are its distinct values, with weights count / m divided by
    their left-to-right sum: the bits :func:`make_discrete` gives, without its merge.
    The counts add one ``bincount`` per :data:`SAMPLE_BLOCK` rows of the column's
    index (exact integer sums); atoms never drawn drop out.
    """
    marginals = []
    for atoms, index in s.columns:
        counts = np.zeros(len(atoms), np.intp)
        for lo in range(0, s.m, SAMPLE_BLOCK):
            counts += np.bincount(index[lo : lo + SAMPLE_BLOCK], minlength=len(atoms))
        drawn = counts > 0
        w = counts[drawn] / s.m
        w /= w.cumsum()[-1]
        marginals.append(DiscreteDistribution(tuple(atoms[drawn].tolist()), tuple(w.tolist())))
    return ProductDistribution(tuple(marginals), float(h))
