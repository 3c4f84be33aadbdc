"""Workload definitions: seeded instances, op lists and per-op output checks.

A workload is a fixed list of CLI invocations (ops). Every input file an op
reads is generated here from the workload seed, so the program only ever sees
the generated JSON and a derived ``--seed``. Each op carries a check that
validates its output bytes outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Subcommand -> name of the per-subcommand time it is summed into.
KIND_OF = {
    "solve-bne": "solve_s",
    "verify-bne": "verify_s",
    "da-experiment": "da_experiment_s",
    "pandora": "pandora_s",
    "lowerbound": "lowerbound_s",
    "pdim-check": "pdim_check_s",
}
KINDS = (
    "verify_s", "solve_s", "da_experiment_s", "estimate_emp_s", "estimate_empp_s",
    "pandora_s", "lowerbound_s", "pdim_check_s",
)


class CheckFailed(Exception):
    """An op's output violates the invariant its subcommand promises."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv`` omits ``--out``, which the runner appends."""

    name: str
    argv: tuple[str, ...]
    kind: str
    check: Callable[[bytes], dict]


def derive_seed(seed: int, label: str) -> int:
    """Child seed sha256(seed:label) truncated to 31 bits."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


def make_instance(seed: int, n: int, k: int) -> dict:
    """n marginals of k atoms each, U[0,1] rounded to 5 decimals; costs 0.3*E[v].

    Weights are U(0,1) + 0.05, normalised. A pure function of its arguments.
    """
    rng = random.Random(seed)
    marginals, costs = [], []
    for _ in range(n):
        atoms = [round(rng.random(), 5) for _ in range(k)]
        raw = [rng.random() + 0.05 for _ in range(k)]
        total = sum(raw)
        weights = [w / total for w in raw]
        marginals.append({"atoms": atoms, "weights": weights})
        costs.append(0.3 * sum(a * w for a, w in zip(atoms, weights)))
    return {"H": 1.0, "marginals": marginals, "costs": costs}


def shade_profile(instance: dict, alpha: float) -> list:
    """The profile b(v) = alpha * v on every marginal's support."""
    return [
        {"default_bid": 0.0, "breakpoints": [[a, alpha * a] for a in sorted(set(m["atoms"]))]}
        for m in instance["marginals"]
    ]


# --- output checks -----------------------------------------------------------


def _finite(x: float, what: str) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
        raise CheckFailed(f"{what} is not a finite number: {x!r}")
    return float(x)


def _csv_rows(out: bytes, header: list[str], rows: int) -> list[dict]:
    table = list(csv.DictReader(io.StringIO(out.decode())))
    if not table or list(table[0]) != header:
        raise CheckFailed(f"CSV header is not {header}")
    if len(table) != rows:
        raise CheckFailed(f"expected {rows} CSV rows, got {len(table)}")
    return table


def check_verify(out: bytes) -> dict:
    """epsilon is the max of the gap table; every gap finite and >= 0."""
    cert = json.loads(out)
    gaps = [_finite(g, "gap") for row in cert["gaps"] for _, g in row]
    if any(g < 0 for g in gaps):
        raise CheckFailed("negative gap in the certificate")
    eps = _finite(cert["epsilon"], "epsilon")
    if eps != max(gaps, default=0.0):
        raise CheckFailed(f"epsilon {eps!r} is not the max gap {max(gaps)!r}")
    return {"eps": eps}


def make_solve_check(instance: dict, fmt: str, tie: str) -> Callable[[bytes], dict]:
    """Re-verify the emitted profile; its epsilon must match the emitted one to 1e-12."""

    def check(out: bytes) -> dict:
        from auctionlearn.cli import _rule
        from auctionlearn.dist import ProductDistribution
        from auctionlearn.equilibrium import verify_bne
        from auctionlearn.strategy import StrategyProfile

        obj = json.loads(out)
        emitted = _finite(obj["certificate"]["epsilon"], "epsilon")
        profile = StrategyProfile.from_json(obj["profile"])
        f = ProductDistribution.from_json(instance)
        again = verify_bne(_rule(fmt, tie), f, profile).epsilon
        if not abs(again - emitted) <= 1e-12:
            raise CheckFailed(f"emitted epsilon {emitted!r} but re-verified {again!r}")
        return {"eps": emitted}

    return check


def make_estimate_check(rows: int) -> Callable[[bytes], dict]:
    header = ["estimator", "m", "seed", "sup_error", "argmax_bidder", "argmax_value", "profile_id"]

    def check(out: bytes) -> dict:
        for r in _csv_rows(out, header, rows):
            for key in header[1:]:
                _finite(float(r[key]), key)
            if float(r["sup_error"]) < 0:
                raise CheckFailed("negative sup_error")
        return {}

    return check


def make_pandora_check(rows: int) -> Callable[[bytes], dict]:
    header = ["m", "seed", "learned_payoff", "optimal_payoff", "regret"]

    def check(out: bytes) -> dict:
        for r in _csv_rows(out, header, rows):
            learned = _finite(float(r["learned_payoff"]), "learned_payoff")
            optimal = _finite(float(r["optimal_payoff"]), "optimal_payoff")
            if not learned <= optimal + 1e-12:
                raise CheckFailed(f"learned payoff {learned!r} beats the optimum {optimal!r}")
        return {}

    return check


def _check_da_record(rec: dict) -> float:
    for key, val in rec.items():
        for x in val if isinstance(val, list) else [val]:
            _finite(x, key)
    eps = float(rec["eps_fpa"])
    if eps < 0:
        raise CheckFailed("negative eps_fpa")
    return eps


def make_da_check(rows: int, out_format: str) -> Callable[[bytes], dict]:
    header = ["seed", "eps_fpa", "empp_sup_error", "da_gap", "welfare", "opt",
              "poa_bound", "cost_err"]

    def check(out: bytes) -> dict:
        if out_format == "json":
            recs = json.loads(out)
            if len(recs) != rows:
                raise CheckFailed(f"expected {rows} reports, got {len(recs)}")
        else:
            recs = [{k: float(v) for k, v in r.items()} for r in _csv_rows(out, header, rows)]
        return {"eps": max(_check_da_record(r) for r in recs)}

    return check


def make_lowerbound_check(rows: int) -> Callable[[bytes], dict]:
    header = ["n", "eps", "m", "trial", "recovery_fraction"]

    def check(out: bytes) -> dict:
        for r in _csv_rows(out, header, rows):
            frac = _finite(float(r["recovery_fraction"]), "recovery_fraction")
            if not 0.0 <= frac <= 1.0:
                raise CheckFailed(f"recovery fraction {frac!r} outside [0, 1]")
        return {}

    return check


def check_pdim(out: bytes) -> dict:
    if json.loads(out).get("ok") is not True:
        raise CheckFailed("label-vector count exceeds the bound")
    return {}


# --- op lists ----------------------------------------------------------------
#
# Sizes keep one pass of each op list near 3 s on a 2-vCPU VM, so that a 20 s
# run takes five or more passes and its median is steady against host noise.


class _OpList:
    """Writes one workload's input files and collects its ops."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.ops: list[Op] = []

    def _seed(self, name: str) -> int:
        return derive_seed(self.seed, f"{self.workload}:{name}")

    def write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    def instance(self, name: str, n: int, k: int) -> tuple[dict, str]:
        inst = make_instance(self._seed(f"{name}:instance"), n, k)
        return inst, self.write(f"{name}.instance.json", inst)

    def add(self, name: str, sub: str, args: list, check, kind: str | None = None) -> None:
        argv = (sub, *(str(a) for a in args))
        self.ops.append(Op(name, argv, kind or KIND_OF[sub], check))

    def seed_arg(self, name: str) -> list:
        return ["--seed", self._seed(f"{name}:cli")]


def _certify(b: _OpList) -> None:
    for name, n, k in (("solve-n4", 4, 40), ("solve-n3", 3, 60)):
        inst, path = b.instance(name, n, k)
        b.add(name, "solve-bne",
              ["--instance", path, "--grid-step", 0.05, "--max-iters", 15, *b.seed_arg(name)],
              make_solve_check(inst, "first-price", "random-allocation"))
    for name, n, k, fmt, tie in (
        ("verify-fpa", 4, 200, "first-price", "random-allocation"),
        ("verify-allpay", 6, 100, "all-pay", "no-allocation"),
    ):
        inst, path = b.instance(name, n, k)
        prof = b.write(f"{name}.profile.json", shade_profile(inst, 0.6))
        b.add(name, "verify-bne",
              ["--instance", path, "--profile", prof, "--auction", fmt, "--tie", tie],
              check_verify)


def _pipeline(b: _OpList) -> None:
    for name, n, k, out_format in (("da-json", 4, 5, "json"), ("da-csv", 3, 10, "csv")):
        _, path = b.instance(name, n, k)
        b.add(name, "da-experiment",
              ["--instance", path, "--m", 400, "--seeds", 1, "--format", out_format,
               *b.seed_arg(name)],
              make_da_check(1, out_format))


def _learn(b: _OpList) -> None:
    for name, k, m, seeds in (("emp", 10, 200, 1), ("empp", 100, 100000, 1)):
        _, path = b.instance(name, 4, k)
        b.add(name, "estimate",
              ["--instance", path, "--estimator", name, "--m", m, "--seeds", seeds,
               *b.seed_arg(name)],
              make_estimate_check(seeds), kind=f"estimate_{name}_s")
    _, path = b.instance("pandora", 4, 200)
    b.add("pandora", "pandora",
          ["--instance", path, "--m", 10000, "--seeds", 10, *b.seed_arg("pandora")],
          make_pandora_check(10))
    b.add("lowerbound", "lowerbound",
          ["--n", 12, "--eps", 0.01, "--m", 100000, "--trials", 100, *b.seed_arg("lowerbound")],
          make_lowerbound_check(100))
    b.add("pdim", "pdim-check", ["--n", 3, "--m", 5, *b.seed_arg("pdim")], check_pdim)


WORKLOADS: dict[str, Callable[[_OpList], None]] = {
    "certify": _certify,
    "pipeline": _pipeline,
    "learn": _learn,
}


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's inputs under ``workdir`` and return its op list."""
    b = _OpList(workload, seed, workdir)
    WORKLOADS[workload](b)
    return b.ops
