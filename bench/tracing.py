"""Out-of-package tracing: wrap the layers' public functions, record spans.

Nothing in ``auctionlearn`` knows about this module. :class:`Tracer` replaces
each target function on its defining module, in every ``auctionlearn`` module
namespace that bound the same object by import, and on the class for methods,
and puts the originals back on exit.

Span targets record one span per call: name, start, end, parent, op id, self
time and an optional note (a work count or a result). Hot leaves, which see
millions of calls per pass, are folded into the enclosing span as
(count, inclusive time, self time), so memory stays bounded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from time import perf_counter

PACKAGE = "auctionlearn"

# (module, attribute path, hot leaf?, note(args, kwargs, result) or None)
TARGETS = (
    ("dist", "DiscreteDistribution.prob_at", True, None),
    ("dist", "DiscreteDistribution.prob_below", True, None),
    ("dist", "DiscreteDistribution.prob_at_most", True, None),
    ("dist", "DiscreteDistribution.expected_excess", True, None),
    ("dist", "DiscreteDistribution.mean", True, None),
    ("dist", "make_discrete", False, None),
    ("dist", "truncate_at", False, None),
    ("dist", "product_of", False, None),
    ("dist", "sample_matrix", False, lambda a, k, r: r.m),
    ("dist", "empirical_marginals", False, lambda a, k, r: a[0].m),
    ("strategy", "MonotoneStrategy.eval", True, None),
    ("auction", "push_forward", False, None),
    ("auction", "allocation_probability", True, None),
    ("auction", "candidate_allocations", False, lambda a, k, r: len(r)),
    ("auction", "best_response", True, None),
    ("auction", "ex_post_utility", True, None),
    ("equilibrium", "verify_bne", False, lambda a, k, r: r.epsilon),
    ("equilibrium", "solve_bne", False, None),
    ("estimate", "emp_estimate", False, lambda a, k, r: a[0].m),
    ("estimate", "sup_error", False, None),
    ("pandora", "weitzman_index", False, None),
    ("pandora", "policy_payoff_exact", False, None),
    ("pandora", "opt_welfare", False, None),
    ("da", "simulate_da", True, None),
    ("da", "ex_ante_utility_da", False, None),
    ("da", "da_welfare", False, None),
    ("da", "empirical_pipeline", False, None),
    ("lowerbound", "distinguisher_trials", False, None),
    ("testkits", "dense_monotone_hypotheses", False, None),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "child", "note", "leaves")

    def __init__(self, sid, name, parent, op):
        self.id, self.name, self.parent, self.op = sid, name, parent, op
        self.start = self.end = 0.0
        self.child = 0.0  # time covered by direct children, spans and leaves
        self.note = None
        self.leaves: dict[str, list] = {}  # name -> [calls, inclusive s, self s]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "self_s": self.self_s,
            "note": self.note, "leaves": self.leaves,
        }


class _Frame:
    """Call-stack entry: the span that owns the call, and time its children took."""

    __slots__ = ("span", "child")

    def __init__(self, span):
        self.span, self.child = span, 0.0


class Tracer:
    """Context manager that installs the wrappers; ``op(name)`` opens a root span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list = []
        self.patches: list[tuple[object, str, object]] = []  # (owner, name, original)

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self.stack[-1].span if self.stack else None
        span = Span(len(self.spans), name, parent.id if parent else None,
                    parent.op if parent else name)
        self.spans.append(span)
        self.stack.append(_Frame(span))
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        span.child += self.stack.pop().child
        if self.stack:
            self.stack[-1].child += span.end - span.start

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one CLI op; its self time is the cli layer's."""
        span = self._open(f"cli.{name}")
        try:
            yield span
        finally:
            self._close(span)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span.note = note(args, kwargs, result)
                return result
            finally:
                self._close(span)

        return wrapper

    def _leaf_wrapper(self, name, fn):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # called outside any op: nothing to attribute it to
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = _Frame(parent.span)
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent.child += dt
                agg = frame.span.leaves.get(name)
                if agg is None:
                    agg = frame.span.leaves[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame.child

        return wrapper

    def __enter__(self) -> "Tracer":
        for mod_name in sorted({t[0] for t in TARGETS}):
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        try:
            for mod_name, path, hot, note in TARGETS:
                module = sys.modules[f"{PACKAGE}.{mod_name}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    owners = [(owner, attr)]
                else:
                    attr = path
                    original = getattr(module, attr)
                    owners = [(m, attr) for m in modules if getattr(m, attr, None) is original]
                wrapped = (self._leaf_wrapper(path, original) if hot
                           else self._span_wrapper(path, original, note))
                for owner, name in owners:
                    self.patches.append((owner, name, original))
                    setattr(owner, name, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)

    def unrestored(self) -> list[str]:
        """Patched bindings that do not hold their original function any more."""
        return [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self.patches
            if (owner.__dict__.get(name) if isinstance(owner, type)
                else getattr(owner, name, None)) is not original
        ]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


# --- per-layer metrics -------------------------------------------------------

# metric prefix -> target names it sums over
GROUPS = {
    "dist.query": ("DiscreteDistribution.prob_at", "DiscreteDistribution.prob_below",
                   "DiscreteDistribution.prob_at_most", "DiscreteDistribution.expected_excess",
                   "DiscreteDistribution.mean"),
    "dist.build": ("make_discrete", "truncate_at", "product_of"),
    "dist.sample": ("sample_matrix", "empirical_marginals"),
    "strategy.eval": ("MonotoneStrategy.eval",),
    "auction.push_forward": ("push_forward",),
    "auction.alloc": ("allocation_probability",),
    "auction.best_response": ("best_response",),
    "auction.ex_post": ("ex_post_utility",),
    "equilibrium.verify": ("verify_bne",),
    "equilibrium.solve": ("solve_bne",),
    "estimate.emp": ("emp_estimate",),
    "estimate.sup_error": ("sup_error",),
    "pandora.index": ("weitzman_index",),
    "pandora.policy": ("policy_payoff_exact",),
    "pandora.opt": ("opt_welfare",),
    "da.simulate": ("simulate_da",),
    "da.utility": ("ex_ante_utility_da", "da_welfare"),
    "lowerbound.trials": ("distinguisher_trials",),
    "testkits.hypotheses": ("dense_monotone_hypotheses",),
}
STAGES = {
    "solve_bne": "da.stage.solve_s",
    "verify_bne": "da.stage.certify_s",
    "sup_error": "da.stage.empp_s",
    "ex_ante_utility_da": "da.stage.gap_s",
    "da_welfare": "da.stage.welfare_s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Counts and self times per layer, solver and pipeline-stage breakdowns."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    notes: dict[str, list] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        if s.note is not None:
            notes.setdefault(s.name, []).append(s.note)
        for name, (count, _, own) in s.leaves.items():
            calls[name] = calls.get(name, 0) + count
            self_s[name] = self_s.get(name, 0.0) + own

    out: dict[str, float] = {}
    for group, names in GROUPS.items():
        out[f"{group}.calls"] = sum(calls.get(n, 0) for n in names)
        out[f"{group}.self_s"] = sum(self_s.get(n, 0.0) for n in names)
    out["dist.sample.rows"] = sum(sum(notes.get(n, [])) for n in GROUPS["dist.sample"])
    out["estimate.emp.rows"] = sum(notes.get("emp_estimate", []))
    out["auction.candidates"] = sum(notes.get("candidate_allocations", []))
    utility = out["da.utility.calls"]
    out["da.simulate_per_utility"] = out["da.simulate.calls"] / utility if utility else 0.0
    out["cli.self_s"] = sum(s.self_s for s in spans if s.parent is None)

    # Verifies directly under a solve, and the share that lowered the running best.
    by_id = {s.id: s for s in spans}
    verifies = improved = 0
    best: dict[int, float] = {}
    for s in spans:
        if s.name == "verify_bne" and s.parent is not None \
                and by_id[s.parent].name == "solve_bne":
            verifies += 1
            if s.note < best.get(s.parent, float("inf")):
                improved += 1
                best[s.parent] = s.note
    out["equilibrium.solve.verifies"] = verifies
    out["equilibrium.solve.improve_ratio"] = improved / verifies if verifies else 0.0

    # Inclusive stage times directly under empirical_pipeline.
    stage = dict.fromkeys(STAGES.values(), 0.0)
    pipeline_ids = {s.id for s in spans if s.name == "empirical_pipeline"}
    for s in spans:
        if s.parent in pipeline_ids and s.name in STAGES:
            stage[STAGES[s.name]] += s.end - s.start
    out.update(stage)
    pipeline_s = sum(by_id[i].end - by_id[i].start for i in pipeline_ids)
    out["da.stage.coverage"] = sum(stage.values()) / pipeline_s if pipeline_s else 0.0
    return out


COUNT_METRICS = tuple(
    [f"{g}.calls" for g in GROUPS]
    + ["dist.sample.rows", "estimate.emp.rows", "auction.candidates",
       "equilibrium.solve.verifies", "equilibrium.solve.improve_ratio",
       "da.simulate_per_utility"]
)
