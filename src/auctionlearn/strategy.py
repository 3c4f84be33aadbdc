"""Monotone bidding strategies as right-continuous step functions; their test helpers
(a constant strategy, a bisection ``eval``, one strategy replaced) are in tests/conftest.py."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .dist import json_number, json_numbers


@dataclass(frozen=True)
class MonotoneStrategy:
    """Nondecreasing map from values to bids.

    ``breakpoints`` is a sorted list of (value threshold, bid); the bid at a
    value v is the bid of the largest threshold <= v, or ``default_bid`` when
    v lies below every threshold. Right-continuity makes the representation
    lossless on discrete supports and fixes the bid at off-support values.
    """

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
        if any(map(operator.le, thresholds[1:], thresholds)):
            raise ValueError("thresholds must be strictly increasing")
        if any(map(operator.lt, bids[1:], bids)):
            raise ValueError("bids must be nondecreasing")
        if self.default_bid < 0 or (bids and bids[0] < self.default_bid):
            raise ValueError("bids must be >= default_bid >= 0")

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Numpy thresholds, and the default bid followed by the bids."""
        thresholds, bids = zip(*self.breakpoints) if self.breakpoints else ((), ())
        return np.array(thresholds, dtype=float), np.array((self.default_bid, *bids), dtype=float)

    def eval(self, v):
        """Bid at every value of ``v`` (right-continuous step lookup), with one
        ``searchsorted`` into :attr:`arrays`. A scalar ``v`` gives a float; a negative
        or NaN value raises ``ValueError``."""
        x = np.asarray(v, dtype=float)
        if not (x >= 0).all():  # also a NaN value
            raise ValueError("value must be nonnegative")
        thresholds, bids = self.arrays
        out = bids[thresholds.searchsorted(x, side="right")]
        return float(out) if x.ndim == 0 else out

    @property
    def max_bid(self) -> float:
        return self.breakpoints[-1][1] if self.breakpoints else self.default_bid

    def to_json(self) -> dict:
        return {
            "default_bid": self.default_bid,
            "breakpoints": [[t, b] for t, b in self.breakpoints],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MonotoneStrategy":
        if not isinstance(obj, dict) or not isinstance(pts := obj.get("breakpoints", []), list):
            raise ValueError("a strategy must be an object with a list of breakpoints")
        if set(map(type, pts)) <= {list} and set(map(len, pts)) <= {2}:
            # Two-element lists alone: their numbers in one list, checked at once if all
            # are finite floats and otherwise one by one, so the first bad one is named.
            flat = json_numbers(list(chain.from_iterable(pts)), "a breakpoint")
            pairs = list(zip(flat[::2], flat[1::2]))
        else:
            pairs = [json_numbers(p, "a breakpoint") for p in pts]
            if any(len(p) != 2 for p in pairs):
                raise ValueError("a breakpoint must be a [value, bid] pair")
        return cls(tuple(pairs), json_number(obj.get("default_bid", 0.0), "default_bid"))


def shade(grid: Sequence[float], alpha: float) -> MonotoneStrategy:
    """The linear-shading strategy b(v) = alpha * v on a value grid."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    pts = sorted(set(map(float, grid)))
    return MonotoneStrategy(tuple(zip(pts, map(operator.mul, repeat(alpha), pts))))


@dataclass(frozen=True)
class StrategyProfile:
    """One monotone strategy per bidder."""

    strategies: tuple[MonotoneStrategy, ...]

    def __post_init__(self) -> None:
        if not self.strategies:
            raise ValueError("profile needs at least one strategy")

    def __iter__(self):
        return iter(self.strategies)

    def __getitem__(self, i: int) -> MonotoneStrategy:
        return self.strategies[i]

    def __len__(self) -> int:
        return len(self.strategies)

    @property
    def n(self) -> int:
        return len(self.strategies)

    def bids(self, values) -> np.ndarray:
        """The m x n bid matrix of an m x n value matrix: one ``eval`` per column."""
        v = np.asarray(values, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.n:
            raise ValueError(f"values must be m x {self.n}, got shape {v.shape}")
        return np.stack([s.eval(v[:, j]) for j, s in enumerate(self.strategies)], axis=1)

    def to_json(self) -> list:
        return [s.to_json() for s in self.strategies]

    @classmethod
    def from_json(cls, obj: list) -> "StrategyProfile":
        if not isinstance(obj, list):
            raise ValueError("a profile must be a list of strategies")
        return cls(tuple(MonotoneStrategy.from_json(s) for s in obj))
