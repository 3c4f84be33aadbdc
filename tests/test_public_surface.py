"""The package surface that code outside ``src/`` relies on.

``bench/tracing.py`` patches its ``TARGETS`` by name; a deleted or renamed
target would only show when the benchmark runs with tracing on. The README's
library example must run as printed, and every settable value in ``src/`` is
listed here, so adding an option is a visible edit. Every ``raise`` in ``src/``
names ``ValueError`` or ``AssertionError``, so a new exception type is one too.
No ``src/`` module calls ``.choice(p=...)``: ``dist.sample_matrix`` is the one
weighted sampler. ``auction._leave_one_out_row`` is the one caller of the tie DP,
so a second allocation kernel is a visible edit, ``equilibrium._certify`` is
the one gap computation, every certificate ``src/`` returns is ``verify_bne``'s
(``test_one_certifier``), and ``auction._bid_axis`` is the one builder of a bid
axis (``test_one_bid_axis_builder``). ``auction._argmax_picks`` is the one argmax,
called only by ``best_response``, ``_certify`` and the solver's search, and
``dist.cdf_of_max`` serves only the Pandora search. ``auction._top_bids`` with
``auction._share`` is the one ex post share, of ``ex_post_utility``, ``simulate_da``
and both per-sample loops; the whole-row ``ex_post_allocation`` is an oracle in
``tests/conftest.py`` (``test_one_opponent_top_per_sample_loop``). Every private
module-level function in ``src/`` has a caller there. ``cli._read_json`` is the one
file reader of ``src/``, and ``dist`` opens no file (``test_one_file_reader``). Kept
tables live on the objects one invocation builds: ``src/`` uses no ``functools`` cache.
"""

import ast
import builtins
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
SRC = ROOT / "src" / "auctionlearn"


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


# Function parameters and dataclass fields with a default, everywhere in src/.
SETTABLE_VALUES = [
    "cli.main(argv)",
    "dist.product_of(h)",
    "equilibrium.solve_bne(damping)",
    "strategy.MonotoneStrategy.default_bid",
]


def _is_dataclass(decorator) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(func, ast.Name) and func.id == "dataclass"


def _sets_a_default(value) -> bool:
    """A field's right-hand side gives a default unless it is ``field(...)`` without one."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return value is not None


def _defaults(node, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            positional = a.posonlyargs + a.args
            named = positional[len(positional) - len(a.defaults) :]
            named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            yield from (f"{prefix}{child.name}({arg.arg})" for arg in named)
            yield from _defaults(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            if any(map(_is_dataclass, child.decorator_list)):
                yield from (
                    f"{prefix}{child.name}.{stmt.target.id}"
                    for stmt in child.body
                    if isinstance(stmt, ast.AnnAssign) and _sets_a_default(stmt.value)
                )
            yield from _defaults(child, f"{prefix}{child.name}.")


def settable_values() -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _defaults(ast.parse(path.read_text()), f"{path.stem}.")
    return sorted(found)


def test_settable_values():
    assert settable_values() == SETTABLE_VALUES


ALLOWED_RAISES = {"ValueError", "AssertionError"}
BUILTIN_EXCEPTIONS = {
    name
    for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def _name(node) -> str:
    """``X`` for ``X``, ``X(...)``, ``m.X`` or ``m.X(...)``; "" for anything else."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def _is_exception(name: str) -> bool:
    return name in BUILTIN_EXCEPTIONS or name.endswith(("Error", "Exception"))


def error_convention_breaches() -> list[str]:
    """Every ``raise`` in src/ that names no allowed type, and every exception class."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and _name(node.exc) not in ALLOWED_RAISES:
                found.append(f"{path.stem}:{node.lineno}: raise {_name(node.exc)}")
            elif isinstance(node, ast.ClassDef) and any(map(_is_exception, map(_name, node.bases))):
                found.append(f"{path.stem}:{node.lineno}: class {node.name}")
    return found


def test_one_error_convention():
    """Invalid input raises ValueError and a broken invariant AssertionError; src/
    defines no exception class of its own."""
    assert error_convention_breaches() == []


def weighted_choice_calls() -> list[str]:
    """Every ``.choice(...)`` call in src/ with a ``p=`` keyword."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "choice"
                and any(k.arg == "p" for k in node.keywords)
            ):
                found.append(f"{path.stem}:{node.lineno}: .choice(p=...)")
    return found


def test_one_weighted_sampler():
    """``dist.sample_matrix``'s guide table is the only weighted sampler in src/."""
    assert weighted_choice_calls() == []


def statements(holds, module: str = "*") -> list[str]:
    """Every module-level statement of src/ (of ``module`` alone if given) with an
    AST node for which ``holds`` is true."""
    found = []
    for path in sorted(SRC.glob(f"{module}.py")):
        for stmt in ast.parse(path.read_text()).body:
            if any(map(holds, ast.walk(stmt))):
                found.append(f"{path.stem}.{getattr(stmt, 'name', stmt.lineno)}")
    return found


def callers(name: str, module: str = "*") -> list[str]:
    """Every module-level statement of src/ (of ``module`` alone if given) that calls
    ``name``, by name."""
    return statements(lambda node: isinstance(node, ast.Call) and _name(node) == name, module)


def test_one_allocation_kernel():
    """Every exact interim allocation is a leave-one-out row: the tie DP has one caller."""
    assert callers("_tie_dp") == ["auction._leave_one_out_row"]


def test_one_opponent_top_per_sample_loop():
    """Every ex post share in src/ is read from each row's top opponent bid; no src/
    module defines or imports the whole-row ex post kernel, the tests' oracle."""
    users = [
        "auction.ex_post_utility",
        "da.simulate_da",
        "estimate.emp_estimate",
        "testkits.dense_monotone_hypotheses",
    ]
    assert callers("_top_bids") == users
    assert statements(lambda node: getattr(node, "name", None) == "ex_post_allocation") == []


def _is_zero_set(node) -> bool:
    """A set display that holds the float 0.0, as the seed of a bid axis."""
    return isinstance(node, ast.Set) and any(
        isinstance(e, ast.Constant) and type(e.value) is float and e.value == 0.0
        for e in node.elts
    )


def test_one_bid_axis_builder():
    """Every bid axis of src/, the solver's too, is built by ``auction._bid_axis``:
    it alone seeds a set with 0.0."""
    assert statements(_is_zero_set) == ["auction._bid_axis"]


def test_one_argmax_kernel():
    """Every best response and every supremum of a gap is read from
    ``auction._argmax_picks``, where it is used."""
    users = ["auction.best_response", "equilibrium._certify", "equilibrium._search_bne"]
    assert callers("_argmax_picks") == users


def test_one_product_of_cdfs_for_search():
    """CDF products serve only the Pandora search: ``dist.cdf_of_max`` the optimum, and
    the boxes' kept CDF table the policy payoff; right limits and the DA's inspection
    probabilities are read from leave-one-out rows."""
    assert callers("cdf_of_max") == ["pandora.opt_welfare"]
    reads = statements(lambda node: isinstance(node, ast.Attribute) and node.attr == "_cdf_table")
    assert reads == ["pandora.policy_payoff_exact"]


def _caches_calls(node) -> bool:
    """An import or a read of ``functools.cache`` or ``functools.lru_cache``."""
    names = {"cache", "lru_cache"}
    if isinstance(node, ast.ImportFrom) and node.module == "functools":
        return any(alias.name in names for alias in node.names)
    return (
        isinstance(node, ast.Attribute) and node.attr in names and _name(node.value) == "functools"
    )


def test_no_module_level_cache():
    """Kept tables live on the objects one invocation builds (a distribution's guide
    tables, a product's CDF table), so no cache outlives a CLI invocation."""
    assert statements(_caches_calls) == []


def test_make_discrete_only_at_the_boundary():
    """Raw atom/weight lists are merged and renormalised only where they enter: a JSON
    distribution and ``uniform_on``. The DA pushes its claims onto the bid axis."""
    assert callers("make_discrete") == ["dist.DiscreteDistribution", "dist.uniform_on"]


def test_one_certifier():
    """Every gap in ``equilibrium`` comes from ``_certify`` and every certificate from
    ``_certificate``, which only ``verify_bne`` calls, and ``solve_bne`` returns
    ``verify_bne``'s; the solver's best responses read the only other leave-one-out
    rows."""
    rows = ["equilibrium._certify", "equilibrium._search_bne"]
    assert callers("_leave_one_out_row", "equilibrium") == rows
    assert callers("BNECertificate", "equilibrium") == ["equilibrium._certificate"]
    assert callers("_certificate") == ["equilibrium.verify_bne"]
    assert callers("verify_bne", "equilibrium") == ["equilibrium.solve_bne"]


def _opens_to_read(node) -> bool:
    """An ``open(...)`` call that may read: it gives no mode, a mode with ``r`` or
    ``+``, or a mode that is no literal."""
    if not (isinstance(node, ast.Call) and _name(node) == "open"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    if not modes or not isinstance(modes[0], ast.Constant):
        return True
    return bool(set(modes[0].value) & set("r+"))


def test_one_file_reader():
    """Every input file of the CLI is read by ``cli._read_json``; the library takes
    parsed JSON values, so ``dist`` calls no ``open`` at all."""
    assert statements(_opens_to_read) == ["cli._read_json"]
    assert callers("open", "dist") == []


def test_empirical_marginals_count_without_unique():
    """Empirical marginals count a sample's atom index with ``bincount``; no column is
    sorted back into counts."""
    assert "dist.empirical_marginals" not in callers("unique", "dist")


def value_reads(root: str) -> list[str]:
    """Every read of an attribute ``values`` (a ``.values()`` call is none) in the
    module-level src/ function ``root`` and in every one it calls by name, in turn."""
    functions: dict[str, list] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions.setdefault(node.name, []).append((path.stem, node))
    found, seen, todo = [], set(), [root]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for stem, fn in functions.get(name, []):
            calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)]
            todo += map(_name, calls)
            called = set(map(id, (c.func for c in calls)))
            found += [
                f"{stem}.{fn.name}:{node.lineno}"
                for node in ast.walk(fn)
                if isinstance(node, ast.Attribute) and node.attr == "values"
                and id(node) not in called
            ]
    return found


@pytest.mark.parametrize("root", ["empirical_pipeline", "pandora_from_samples", "sup_error"])
def test_count_only_learn_paths_build_no_value_matrix(root):
    """The pipeline and the Pandora and estimation learners read a sample through its
    atoms and index alone, so no (m, n) value matrix is gathered on their paths."""
    assert value_reads(root) == []


def dead_private_functions() -> list[str]:
    """Every module-level ``_`` function in src/ that no ``Name`` or ``Attribute``
    node of src/ outside the function's own body refers to. An import or a mention
    in a docstring is no reference."""
    trees = [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    refs = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    found = []
    for stem, tree in trees:
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_"):
                own = set(map(id, ast.walk(fn)))
                if not any(name == fn.name and id(node) not in own for name, node in refs):
                    found.append(f"{stem}.{fn.name}")
    return found


def test_no_dead_private_helpers():
    """A private helper that only tests call belongs in tests/, or nowhere."""
    assert dead_private_functions() == []


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    expected = [float(x) for x in re.findall(r"print\(.*\)\s+# ~([0-9.]+)", code)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = [float(line) for line in out.getvalue().split()]
    assert len(expected) == len(printed) == 2
    for got, approx in zip(printed, expected):
        assert round(got, 4) == approx
