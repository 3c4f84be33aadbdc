"""Benchmark of the auctionlearn CLI: seeded workloads run in-process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout. Each run

1. writes the workload's inputs, derived from ``--seed``, to a scratch
   directory in the checkout;
2. runs the op list once untimed, checking every output, then repeats it
   for ``--seconds`` (at least three passes), timing each op and requiring
   output bytes identical to the first pass;
3. times fresh-interpreter imports of ``auctionlearn.cli`` (``setup_s``),
   spread between the passes;
4. with ``--trace 1``, runs two more passes with every layer's public
   functions wrapped (see ``tracing.py``), and reports per-layer counts and
   self times instead of the end-to-end metrics.

Host speed on a shared 2-vCPU VM drifts by up to 2x over tens of seconds,
with CPU time tracking wall time. So each op is preceded by a fixed
pure-Python reference loop, and ``wall_ref`` gives the pass time in units of
that loop; ``wall_s`` keeps the raw seconds.

It prints a run record as a JSON line, then the result as the last line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_right
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

from tracing import COUNT_METRICS, Tracer, layer_metrics
from workloads import KINDS, WORKLOADS, Op, build_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Metric names and units are the ones BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 9
MIN_PASSES = 3

# Inputs of the reference loop: the kind of work the layers do, on fixed data.
_REF_ATOMS = tuple((k * 0.6180339887) % 1.0 for k in range(3000))
_REF_WEIGHTS = (1.0 / 3000,) * 3000
_REF_SORTED = sorted(_REF_ATOMS)


def load_main():
    """Import the CLI entry point from this checkout's sources, nowhere else."""
    cli_file = SRC / "auctionlearn" / "cli.py"
    if not cli_file.is_file():
        raise SystemExit(f"bench: program source {cli_file} not found")
    sys.path.insert(0, str(SRC))
    import auctionlearn.cli

    if Path(auctionlearn.cli.__file__).resolve() != cli_file.resolve():
        raise SystemExit(f"bench: imported {auctionlearn.cli.__file__}, not {cli_file}")
    return auctionlearn.cli.main


def import_seconds() -> float:
    """Time for a fresh interpreter to start and import auctionlearn.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import auctionlearn.cli"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-I", "-c", code], check=True)
    return perf_counter() - t0


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop: tuple sums, dict merges, sorting, bisect."""
    t0 = perf_counter()
    acc = 0.0
    for _ in range(20):
        acc += sum(w for a, w in zip(_REF_ATOMS, _REF_WEIGHTS) if a < 0.5)
        merged: dict[float, float] = {}
        for a in _REF_ATOMS:
            key = round(a, 2)
            merged[key] = merged.get(key, 0.0) + 1.0
        acc += len(sorted(merged.items()))
        acc += sum(bisect_right(_REF_SORTED, a) for a in _REF_ATOMS[:500])
    return perf_counter() - t0


@dataclass
class Outcome:
    code: int
    out: bytes
    err: str
    seconds: float
    ref_before: float = 0.0  # the reference loops just before and just after the op
    ref_after: float = 0.0

    @property
    def ref_seconds(self) -> float:
        return (self.ref_before + self.ref_after) / 2


def execute(main, op: Op, workdir: Path, tracer: Tracer | None = None) -> Outcome:
    """Run one op through the CLI entry point; only the main() call is timed."""
    out_path = workdir / f"{op.name}.out"
    out_path.unlink(missing_ok=True)
    err = io.StringIO()
    span = tracer.op(op.name) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stderr(err), span:
        t0 = perf_counter()
        code = main([*op.argv, "--out", str(out_path)])
        seconds = perf_counter() - t0
    out = out_path.read_bytes() if out_path.exists() else b""
    return Outcome(code, out, err.getvalue(), seconds)


def run_pass(main, ops: list[Op], workdir: Path, tracer: Tracer | None = None) -> list[Outcome]:
    """Run every op once, with a reference loop before the first op and after each."""
    gc.collect()
    outcomes = []
    before = reference_seconds()
    for op in ops:
        outcome = execute(main, op, workdir, tracer)
        outcome.ref_before, outcome.ref_after = before, reference_seconds()
        outcomes.append(outcome)
        before = outcome.ref_after
    return outcomes


def pass_seconds(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


def pass_refs(outcomes: list[Outcome]) -> float:
    """Pass time in reference-loop units, each op against its own reference."""
    return sum(o.seconds / o.ref_seconds for o in outcomes)


def run_record(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "auctionlearn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": os.getloadavg(),
    }


class Tally:
    """Attempted and failed op executions, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: Op, outcome: Outcome, reference: bytes | None, stage: str) -> dict:
        """Count one execution; check it against ``op.check`` or the reference bytes."""
        self.attempted += 1
        facts: dict = {}
        if outcome.code != 0:
            problem = f"exit {outcome.code}: {outcome.err.strip()}"
        elif reference is None:
            try:
                facts = op.check(outcome.out)
                problem = None
            except Exception as exc:  # any malformed output is a failed check
                problem = f"check failed: {type(exc).__name__}: {exc}"
        else:
            problem = None if outcome.out == reference else "output bytes differ"
        if problem:
            self.failures.append(f"{stage} {op.name}: {problem}")
        return facts


def traced_layers(main, ops: list[Op], workdir: Path, reference: list[bytes], tally: Tally,
                  trace_path: Path) -> tuple[dict, float, list[str]]:
    """Two traced passes: layer metrics of the first, its pass time, hygiene problems.

    Outputs must match the untraced bytes, every wrapper must be restored and
    every count must repeat exactly in the second pass.
    """
    problems, traced = [], []
    for k in range(2):
        with Tracer() as tracer:
            outcomes = run_pass(main, ops, workdir, tracer)
        problems += [f"traced pass {k}: {b} not restored" for b in tracer.unrestored()]
        for op, o, ref in zip(ops, outcomes, reference):
            tally.record(op, o, ref, f"traced{k}")
        traced.append((tracer, layer_metrics(tracer.spans), pass_seconds(outcomes)))
    (tracer, layers, _), (_, again, _) = traced
    problems += [f"{name} differs across traced passes: {layers[name]} vs {again[name]}"
                 for name in COUNT_METRICS if layers[name] != again[name]]
    trace_path.parent.mkdir(exist_ok=True)
    tracer.write(trace_path)
    return layers, statistics.median(t[2] for t in traced), problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    record = run_record(workload, seed)
    main = load_main()
    setup = [import_seconds()]
    workdir = ROOT / ".bench_tmp" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = Tally()
    problems: list[str] = []
    try:
        ops = build_ops(workload, seed, workdir)
        first = run_pass(main, ops, workdir)
        facts = {op.name: tally.record(op, o, None, "check") for op, o in zip(ops, first)}
        reference = [o.out for o in first]

        passes: list[list[Outcome]] = []
        start = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
            passes.append(run_pass(main, ops, workdir))
            setup.append(import_seconds())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for outcomes in passes:
            for op, o, ref in zip(ops, outcomes, reference):
                tally.record(op, o, ref, "rerun")
        while len(setup) < SETUP_REPEATS:
            setup.append(import_seconds())
        wall_s = statistics.median(pass_seconds(p) for p in passes)

        if trace:
            layers, traced_s, problems = traced_layers(
                main, ops, workdir, reference, tally,
                ROOT / ".bench_out" / f"trace-{workload}-{seed}.jsonl")
            layers["wall_s"] = wall_s
            layers["trace.overhead_frac"] = traced_s / wall_s - 1.0
            for kind in KINDS:
                layers[kind] = statistics.median(
                    sum(o.seconds for op, o in zip(ops, p) if op.kind == kind) for p in passes
                )
            for name, kind in (("solve_eps", "solve_s"), ("pipeline_eps", "da_experiment_s")):
                layers[name] = max((facts[op.name].get("eps", 0.0) for op in ops
                                    if op.kind == kind), default=0.0)
            layers["ops_failed_frac"] = len(tally.failures) / tally.attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    record.update(loadavg_end=os.getloadavg(), ops=[op.name for op in ops],
                  wall_s=wall_s, pass_seconds=[pass_seconds(p) for p in passes],
                  pass_refs=[pass_refs(p) for p in passes],
                  op_timings=[[[o.ref_before, o.seconds, o.ref_after] for o in p] for p in passes],
                  failures=tally.failures + problems)
    if trace:
        values, declared = layers, SPEC["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_ref": statistics.median(pass_refs(p) for p in passes),
                  "peak_rss_mb": peak_rss_mb}
        declared = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        "record": record,
        "result": {
            "correct": not tally.failures and not problems,
            "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in report["record"]["failures"]:
        print(f"bench: {failure}", file=sys.stderr)
    print(json.dumps({"record": report["record"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
