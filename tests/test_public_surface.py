"""Every function the benchmark tracer wraps must exist on the package.

``bench/tracing.py`` patches its ``TARGETS`` by name; a deleted or renamed
target would only show when the benchmark runs with tracing on.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_targets() -> list[tuple[str, str]]:
    """The (module, attribute path) pairs of ``TARGETS``, read from the source."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError(f"no TARGETS in {TRACING}")


TARGETS = traced_targets()


def test_targets_are_read():
    assert len(TARGETS) >= 20
    assert ("da", "simulate_da") in TARGETS


@pytest.mark.parametrize("module, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_traced_name_resolves(module, path):
    obj = importlib.import_module(f"auctionlearn.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
