"""Tests of the benchmark itself: accounting, inputs, names and tracing hygiene.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

import run
from auctionlearn.cli import cli, main
from auctionlearn.dist import DiscreteDistribution
from auctionlearn.strategy import MonotoneStrategy
import auctionlearn.testkits  # noqa: F401  (the tracer wraps it; import it before the snapshot)
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Op, build_ops, check_verify, make_instance, make_solve_check

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _solve_op(tmp_path: Path) -> Op:
    inst = make_instance(7, 2, 4)
    argv = ("solve-bne", "--instance", _write(tmp_path / "i.json", inst),
            "--grid-step", "0.25", "--max-iters", "5")
    return Op("solve", argv, "solve_s", make_solve_check(inst, "first-price", "random-allocation"))


def test_instance_generator_is_a_pure_function_of_the_seed(tmp_path):
    assert make_instance(3, 4, 20) == make_instance(3, 4, 20)
    assert make_instance(3, 4, 20) != make_instance(4, 4, 20)
    for workload in WORKLOADS:
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        a.mkdir()
        b.mkdir()
        ops_a, ops_b = build_ops(workload, 11, a), build_ops(workload, 11, b)
        assert [op.argv for op in ops_a] == [
            tuple(x.replace(str(b), str(a)) for x in op.argv) for op in ops_b
        ]
        assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
        for p in a.iterdir():
            assert p.read_bytes() == (b / p.name).read_bytes()


def test_nonzero_exit_is_counted_as_failed(tmp_path):
    op = Op("verify", ("verify-bne", "--instance", str(tmp_path / "missing.json"),
                       "--profile", str(tmp_path / "missing.json")), "verify_s", check_verify)
    outcome = run.execute(main, op, tmp_path)
    assert outcome.code == 2
    tally = run.Tally()
    tally.record(op, outcome, None, "check")
    assert tally.attempted == 1 and len(tally.failures) == 1


def test_corrupted_certificate_is_counted_as_failed(tmp_path):
    op = _solve_op(tmp_path)
    outcome = run.execute(main, op, tmp_path)
    tally = run.Tally()
    assert tally.record(op, outcome, None, "check")["eps"] >= 0
    assert tally.failures == []

    obj = json.loads(outcome.out)
    obj["certificate"]["epsilon"] += 1e-9
    outcome.out = json.dumps(obj).encode()
    tally.record(op, outcome, None, "check")
    assert len(tally.failures) == 1 and "re-verified" in tally.failures[0]


def test_changed_bytes_on_rerun_are_counted_as_failed(tmp_path):
    op = _solve_op(tmp_path)
    outcome = run.execute(main, op, tmp_path)
    tally = run.Tally()
    tally.record(op, outcome, outcome.out, "rerun")
    tally.record(op, outcome, outcome.out + b" ", "rerun")
    assert tally.attempted == 2 and len(tally.failures) == 1


def test_every_declared_workload_resolves_to_runnable_ops(tmp_path):
    names = [w["name"] for w in SPEC["workloads"]]
    assert sorted(names) == sorted(WORKLOADS)
    subcommands = set()
    for workload in names:
        workdir = tmp_path / workload
        workdir.mkdir()
        ops = build_ops(workload, 5, workdir)
        assert ops
        for op in ops:
            sub, *args = op.argv
            assert sub in cli.commands
            # Parses every option and checks that every input file exists.
            cli.commands[sub].make_context(sub, [*args, "--out", str(workdir / "x")])
            subcommands.add(sub)
    assert subcommands == set(cli.commands)


def test_tracing_keeps_output_bytes_and_restores_every_wrapper(tmp_path):
    op = _solve_op(tmp_path)
    plain = run.execute(main, op, tmp_path)
    def bindings():
        namespaces = [m for key, m in sys.modules.items() if key.startswith("auctionlearn")]
        namespaces += [DiscreteDistribution, MonotoneStrategy]
        return {(id(ns), name): fn for ns in namespaces for name, fn in vars(ns).items()
                if callable(fn)}

    before = bindings()
    with Tracer() as tracer:
        assert bindings() != before
        traced = run.execute(main, op, tmp_path, tracer)
    assert tracer.unrestored() == []
    assert bindings() == before
    assert traced.code == 0 and traced.out == plain.out

    metrics = layer_metrics(tracer.spans)
    assert metrics["equilibrium.solve.verifies"] > 0
    assert metrics["equilibrium.verify.calls"] == metrics["equilibrium.solve.verifies"]
    assert metrics["auction.ex_post.calls"] == 0
    assert metrics["da.simulate.calls"] == 0
    assert metrics["strategy.eval.calls"] > 0
    assert tracer.spans[0].name == "cli.solve" and tracer.spans[0].parent is None


def test_self_times_add_up_to_the_op_time(tmp_path):
    op = _solve_op(tmp_path)
    with Tracer() as tracer:
        run.execute(main, op, tmp_path, tracer)
    root = tracer.spans[0]
    self_total = sum(s.self_s for s in tracer.spans) + sum(
        own for s in tracer.spans for _, _, own in s.leaves.values()
    )
    assert self_total == pytest.approx(root.end - root.start, rel=1e-6)


def test_declared_per_layer_metrics_are_computed():
    computed = set(layer_metrics([]))
    computed |= {"wall_s", "trace.overhead_frac", "solve_eps", "pipeline_eps", "ops_failed_frac"}
    computed |= set(run.KINDS)
    assert {m["name"] for m in SPEC["per_layer"]} <= computed
