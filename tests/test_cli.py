import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlearn import cli
from auctionlearn.cli import _indented, _json_text, child_seed, main
from auctionlearn.dist import DiscreteDistribution, ProductDistribution
from auctionlearn.estimate import SWEEP_COLUMNS
from auctionlearn.pandora import weitzman_indices
from conftest import count_calls, indented_reference
from test_bench_bytes import versions, workloads


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps(
            {
                "H": 1.0,
                "marginals": [
                    {"atoms": [0.0, 0.5, 1.0], "weights": [0.4, 0.3, 0.3]},
                    {"atoms": [0.0, 0.5, 1.0], "weights": [0.4, 0.3, 0.3]},
                ],
                "costs": [0.05, 0.05],
            }
        )
    )
    return str(path)


@pytest.fixture
def tie_profile_file(tmp_path):
    # Both bidders bid 0.25 at value 0.5, so the certificate prices ties.
    path = tmp_path / "ties.json"
    path.write_text(
        json.dumps(
            [
                {"default_bid": 0.0, "breakpoints": [[0.5, 0.25], [1.0, 0.5]]},
                {"default_bid": 0.0, "breakpoints": [[0.5, 0.25], [1.0, 0.25]]},
            ]
        )
    )
    return str(path)


@pytest.fixture
def single_bidder_file(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps({"H": 1.0, "marginals": [{"atoms": [0.0, 1.0], "weights": [0.5, 0.5]}]})
    )
    return str(path)


@pytest.fixture
def zero_profile_file(tmp_path):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps([{"default_bid": 0.0, "breakpoints": []}]))
    return str(path)


def test_verify_bne_single_bidder(single_bidder_file, zero_profile_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(
        ["verify-bne", "--instance", single_bidder_file, "--profile", zero_profile_file,
         "--out", str(out)]
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["epsilon"] == 0.0


def test_malformed_json_exits_2(tmp_path, zero_profile_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code = main(["verify-bne", "--instance", str(bad), "--profile", zero_profile_file])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR: parse")


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().err.startswith("ERROR:")


def test_key_error_is_internal(instance_file, zero_profile_file, monkeypatch, capsys):
    # Every reader checks a key before it reads it, so a KeyError is a bug, not bad input.
    def lookup(*args):
        raise KeyError("missing")

    monkeypatch.setattr(cli, "verify_bne", lookup)
    argv = ["verify-bne", "--instance", instance_file, "--profile", zero_profile_file]
    assert main(argv) == 1
    assert capsys.readouterr().err == "ERROR: internal: KeyError: 'missing'\n"


def test_estimate_row_count(instance_file, tmp_path):
    out = tmp_path / "est.csv"
    code = main(
        ["estimate", "--instance", instance_file, "--m", "200", "--seeds", "5",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("estimator,m,seed,sup_error")
    assert len(lines) == 6  # header + one row per seed


def test_solve_bne_emits_profile(instance_file, tmp_path):
    out = tmp_path / "sol.json"
    code = main(
        ["solve-bne", "--instance", instance_file, "--grid-step", "0.1",
         "--max-iters", "10", "--out", str(out)]
    )
    assert code == 0
    blob = json.loads(out.read_text())
    assert "certificate" in blob and "profile" in blob
    assert blob["certificate"]["epsilon"] >= 0.0


@pytest.mark.parametrize("sub", ["solve-bne", "da-experiment"])
def test_zero_grid_step_exits_2(sub, instance_file, capsys):
    argv = [sub, "--instance", instance_file, "--grid-step", "0"]
    if sub == "da-experiment":
        argv += ["--m", "20"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation")


def test_nan_profile_exits_2(instance_file, tmp_path, capsys):
    prof = tmp_path / "nan.json"
    prof.write_text(
        '[{"default_bid": 0.0, "breakpoints": [[0.0, 0.0], [0.5, NaN]]},'
        ' {"default_bid": 0.0, "breakpoints": []}]'
    )
    code = main(["verify-bne", "--instance", instance_file, "--profile", str(prof)])
    assert code == 2
    assert capsys.readouterr().err.startswith("ERROR: validation")


@pytest.mark.parametrize("missing", ["atoms", "weights"])
def test_marginal_missing_a_key_exits_2(missing, zero_profile_file, tmp_path, capsys):
    # A marginal without atoms or without weights is named as such, not by the
    # bare text of a KeyError.
    marginal = {"atoms": [0.5], "weights": [1.0]}
    del marginal[missing]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"marginals": [marginal]}))
    assert main(["verify-bne", "--instance", str(inst), "--profile", zero_profile_file]) == 2
    err = capsys.readouterr().err
    assert err == "ERROR: validation: a distribution must be an object with atoms and weights\n"


def test_bid_above_h_exits_2(instance_file, tmp_path, capsys):
    prof = tmp_path / "high.json"
    prof.write_text(json.dumps([{"breakpoints": [[0.0, 5.0]]}] * 2))
    assert main(["verify-bne", "--instance", instance_file, "--profile", str(prof)]) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation: profile bids above H")


def test_negative_max_iters_exits_2(instance_file, capsys):
    assert main(["solve-bne", "--instance", instance_file, "--max-iters", "-1"]) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation: max_iters")


def test_coarse_grid_stays_below_h(tmp_path):
    # A 0.6 grid on H = 1 is {0, 0.6}. With a bid of 1.2 on the grid, two
    # bidders of value 1 who both overbid would certify at epsilon 0.1, below
    # the 0.2 of both bidding 0.6.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"H": 1.0, "marginals": [{"atoms": [1.0], "weights": [1.0]}] * 2}))
    out = tmp_path / "sol.json"
    argv = ["solve-bne", "--instance", str(inst), "--grid-step", "0.6", "--max-iters", "10"]
    assert main(argv + ["--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert [s["breakpoints"] for s in blob["profile"]] == [[[1.0, 0.6]]] * 2
    assert blob["certificate"]["epsilon"] == pytest.approx(0.2, abs=1e-12)


def test_pandora_rows(instance_file, tmp_path):
    out = tmp_path / "p.csv"
    code = main(
        ["pandora", "--instance", instance_file, "--m", "300", "--seeds", "3",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4


def test_pandora_seeds_share_the_instance_tables(instance_file, tmp_path, monkeypatch):
    """A 10-seed run builds each marginal's guide table and the boxes' CDF table once,
    and one more CDF table, of the truncated boxes of the optimum; the next run reads
    the file anew and builds tables of its own."""
    guides = []
    guide_table = DiscreteDistribution._guide_table

    def recording(self, scale):
        guides.append((self, guide_table(self, scale)))
        return guides[-1][1]

    monkeypatch.setattr(DiscreteDistribution, "_guide_table", recording)
    cdf_builds = count_calls(monkeypatch, ProductDistribution.__dict__["_cdf_table"], "func")
    argv = ["pandora", "--instance", instance_file, "--m", "300", "--seeds", "10",
            "--out", str(tmp_path / "p.csv")]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append(guides[:])
        guides.clear()
    for run in runs:
        assert len(run) == 20 and len({id(marg) for marg, _ in run}) == 2
        for marg, table in run:
            assert all(t is table for m, t in run if m is marg)
    assert not {id(t) for _, t in runs[0]} & {id(t) for _, t in runs[1]}
    assert len(cdf_builds) == 4 and len({id(boxes) for boxes, in cdf_builds}) == 4
    for (instance,), (optimum,) in zip(cdf_builds[::2], cdf_builds[1::2]):
        assert optimum == instance.truncated(weitzman_indices(instance, (0.05, 0.05)))


def test_pandora_sweep_survives_empirical_mean_below_cost(tmp_path):
    # With 4 samples some seed's empirical mean falls below a cost of 0.2;
    # that box then gets a negative learned index and is never opened.
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps(
            {
                "H": 1.0,
                "marginals": [{"atoms": [0.0, 0.5, 1.0], "weights": [0.4, 0.3, 0.3]}] * 3,
                "costs": [0.2, 0.2, 0.2],
            }
        )
    )
    out = tmp_path / "p.csv"
    argv = ["pandora", "--instance", str(path), "--m", "4", "--seeds", "30", "--out", str(out)]
    assert main(argv) == 0
    assert len(out.read_text().strip().splitlines()) == 31


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_pandora_non_finite_trunc_eps_exits_2(eps, instance_file, capsys):
    argv = ["pandora", "--instance", instance_file, "--m", "50", "--trunc-eps", eps]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation: eps must be finite")


def test_pandora_matches_recorded_payoffs(tmp_path):
    # Recorded with the dict DP that policy_payoff_exact replaced: the optimum
    # must reproduce its strings, the learned payoff and the regret its values
    # to 1e-12 (the CDF-product sums differ in the last digits).
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps(
            {
                "H": 1.0,
                "marginals": [
                    {"atoms": [0.0, 0.3, 0.7, 1.0], "weights": [0.3, 0.3, 0.2, 0.2]},
                    {"atoms": [0.1, 0.5, 0.9], "weights": [0.5, 0.25, 0.25]},
                    {"atoms": [0.0, 0.6], "weights": [0.4, 0.6]},
                ],
                "costs": [0.05, 0.1, 0.15],
            }
        )
    )
    out = tmp_path / "p.csv"
    argv = ["pandora", "--instance", str(path), "--m", "8", "--seeds", "4", "--seed", "9"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [r[:2] for r in rows] == [["8", str(1763616997 + k)] for k in range(4)]
    assert [r[3] for r in rows] == ["0.527"] * 4
    learned = [0.527, 0.48200000000000004, 0.5225, 0.527]
    regret = [0.0, 0.044999999999999984, 0.0045000000000000595, 0.0]
    assert [float(r[2]) for r in rows] == pytest.approx(learned, rel=0, abs=1e-12)
    assert [float(r[4]) for r in rows] == pytest.approx(regret, rel=0, abs=1e-12)


def test_pandora_requires_costs(single_bidder_file, tmp_path, capsys):
    code = main(["pandora", "--instance", single_bidder_file, "--m", "10"])
    assert code == 2
    assert "costs" in capsys.readouterr().err


def test_da_experiment_json(instance_file, tmp_path):
    out = tmp_path / "da.json"
    code = main(
        ["da-experiment", "--instance", instance_file, "--m", "200", "--seeds", "1",
         "--grid-step", "0.1", "--out", str(out)]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 1
    assert {"eps_fpa", "da_gap", "welfare", "opt", "poa_bound"} <= set(reports[0])


def test_da_experiment_prints_a_zero_cost_hat_as_a_float(tmp_path):
    # A zero-cost box has index H, with no atom above it: its cost_hat is an empty sum.
    path = tmp_path / "inst.json"
    marginal = {"atoms": [0.0, 0.5, 1.0], "weights": [0.4, 0.3, 0.3]}
    path.write_text(json.dumps({"H": 1.0, "marginals": [marginal] * 2, "costs": [0.0, 0.05]}))
    out = tmp_path / "da.json"
    argv = ["da-experiment", "--instance", str(path), "--m", "200", "--seeds", "1",
            "--grid-step", "0.25", "--out", str(out)]
    assert main(argv) == 0
    assert '"cost_hat": [\n      0.0,\n' in out.read_text()
    assert [type(c) for c in json.loads(out.read_text())[0]["cost_hat"]] == [float, float]


def test_da_experiment_survives_empirical_mean_below_cost(tmp_path):
    # With 4 samples per half some seed's empirical mean falls below a cost of
    # 0.2; that box's negative index is taken as 0, and the sweep keeps the row.
    path = tmp_path / "inst.json"
    marginal = {"atoms": [0.0, 0.5, 1.0], "weights": [0.4, 0.3, 0.3]}
    path.write_text(json.dumps({"H": 1.0, "marginals": [marginal] * 3, "costs": [0.2] * 3}))
    argv = ["da-experiment", "--instance", str(path), "--m", "8", "--seeds", "10",
            "--grid-step", "0.25"]
    csv_out, json_out = tmp_path / "da.csv", tmp_path / "da.json"
    assert main([*argv, "--format", "csv", "--out", str(csv_out)]) == 0
    rows = csv_out.read_text().strip().splitlines()[1:]
    assert len(rows) == 10
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
    assert main([*argv, "--out", str(json_out)]) == 0
    clamped = [
        (r, i) for r in json.loads(json_out.read_text()) for i, s in enumerate(r["sigma_hat"])
        if s == 0.0
    ]
    assert clamped
    for r, i in clamped:  # index 0 implies the cost E[v] = 0.45
        assert r["cost_hat"][i] == pytest.approx(0.45, abs=1e-12)
        assert r["cost_err"] >= 0.25 - 1e-12


def test_lowerbound_rows(tmp_path):
    out = tmp_path / "lb.csv"
    code = main(
        ["lowerbound", "--n", "4", "--eps", "0.05", "--m", "50", "--trials", "7",
         "--out", str(out)]
    )
    assert code == 0
    assert len(out.read_text().strip().splitlines()) == 8


def _plain_cell(cell: str) -> bool:
    """An int, the estimator's name, or a float written as its shortest round-trip repr."""
    if cell in ("emp", "empp"):
        return True
    with contextlib.suppress(ValueError):
        return str(int(cell)) == cell
    with contextlib.suppress(ValueError):
        return repr(float(cell)) == cell
    return False


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--m", "40", "--seeds", "2", "--estimator", "emp"],
        ["estimate", "--m", "40", "--seeds", "2", "--auction", "all-pay"],
        ["pandora", "--m", "40", "--seeds", "2"],
        ["da-experiment", "--m", "20", "--seeds", "2", "--grid-step", "0.25", "--format", "csv"],
        ["lowerbound", "--n", "2", "--eps", "0.1", "--m", "20", "--trials", "3"],
        ["lowerbound", "--n", "4", "--eps", "0.05", "--m", "20", "--trials", "3"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_csv_cells_are_plain_python_scalars(argv, instance_file, tmp_path):
    """Every cell is the text ``csv`` writes for a Python int or float, or a name:
    no numpy repr such as ``np.float64(...)`` and no fixed-width number format."""
    if argv[0] != "lowerbound":
        argv = [argv[0], "--instance", instance_file, *argv[1:]]
    out = tmp_path / "table.csv"
    assert main([*argv, "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert len(rows) >= 2
    cells = [cell for row in rows for cell in row.split(",")]
    assert len(cells) == len(rows) * len(header.split(","))
    assert [cell for cell in cells if not _plain_cell(cell)] == []


def test_da_experiment_csv_cells_are_its_json_records(instance_file, tmp_path):
    # Both formats read one list of records; a CSV float keeps every bit of its value.
    argv = ["da-experiment", "--instance", instance_file, "--m", "20", "--seeds", "2",
            "--grid-step", "0.25"]
    csv_out, json_out = tmp_path / "da.csv", tmp_path / "da.json"
    assert main([*argv, "--format", "csv", "--out", str(csv_out)]) == 0
    assert main([*argv, "--out", str(json_out)]) == 0
    header, *rows = [line.split(",") for line in csv_out.read_text().splitlines()]
    records = json.loads(json_out.read_text())
    assert rows == [[repr(r[k]) for k in header] for r in records]


def test_estimate_header_is_the_sweep_columns(instance_file, tmp_path):
    out = tmp_path / "est.csv"
    assert main(["estimate", "--instance", instance_file, "--m", "40", "--seeds", "0",
                 "--out", str(out)]) == 0
    assert out.read_text() == ",".join(SWEEP_COLUMNS) + "\n"


def test_pdim_check(tmp_path):
    out = tmp_path / "pd.json"
    assert main(["pdim-check", "--n", "2", "--m", "4", "--out", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["ok"] is True
    assert blob["count"] <= blob["bound"]


def test_byte_identical_reruns(instance_file, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert (
            main(
                ["estimate", "--instance", instance_file, "--m", "100", "--seeds", "3",
                 "--seed", "7", "--out", str(path)]
            )
            == 0
        )
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


_NUMBERS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.25]),
    st.booleans(),
)
_JSON = st.recursive(
    st.one_of(
        st.none(), _NUMBERS, st.text(max_size=8),
        st.lists(_NUMBERS, max_size=6), st.lists(st.lists(_NUMBERS, max_size=4), max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=30,
)


@given(_JSON)
@settings(max_examples=200, deadline=None)
def test_json_text_matches_indented_dumps(obj):
    # Empty and nested empty containers, -0.0, NaN and infinities, bools among the
    # numbers and keys that need escaping, in number lists and number-list lists.
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@given(st.one_of(_JSON, st.lists(st.lists(_NUMBERS, max_size=3), min_size=1, max_size=5)))
@settings(max_examples=300, deadline=None)
def test_indented_matches_the_per_row_scan(obj):
    # Lists of number lists with an empty row, a tuple row or a row that holds a
    # non-number, beside ones that take the compact path.
    assert _indented(obj, "\n") == indented_reference(obj, "\n")


def test_child_seed_stable():
    assert child_seed(7, "estimate") == child_seed(7, "estimate")
    assert child_seed(7, "estimate") != child_seed(8, "estimate")
    assert child_seed(7, "estimate") != child_seed(7, "pandora")


@pytest.mark.parametrize("h", ["Infinity", "NaN"])
@pytest.mark.parametrize("sub", ["solve-bne", "da-experiment"])
def test_non_finite_h_exits_2(sub, h, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(
        f'{{"H": {h}, "marginals": [{{"atoms": [0.0, 1.0], "weights": [0.5, 0.5]}}],'
        ' "costs": [0.05]}'
    )
    argv = [sub, "--instance", str(path)] + (["--m", "20"] if sub == "da-experiment" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation")


@pytest.mark.parametrize("sub", ["solve-bne", "da-experiment"])
@pytest.mark.parametrize(
    "h,step", [(1e16, None), (1.0, "1e-12")], ids=["h-1e16", "step-1e-12"]
)
def test_oversized_bid_grid_exits_2(sub, h, step, tmp_path, capsys):
    # One atom at H = 1e16 asks for 2e17 bids at the default step; the grid
    # must be refused before it is built.
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps({"marginals": [{"atoms": [0.0, h], "weights": [0.5, 0.5]}], "costs": [0.0]})
    )
    argv = [sub, "--instance", str(path)] + (["--m", "20"] if sub == "da-experiment" else [])
    argv += ["--grid-step", step] if step else []
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation: H=")


@pytest.mark.parametrize(
    "inst",
    [
        {"H": 0, "marginals": [{"atoms": [0], "weights": [1]}], "costs": [0]},
        {"H": 0.005, "marginals": [{"atoms": [0.0, 0.005], "weights": [0.5, 0.5]}] * 2,
         "costs": [0.0, 0.001]},
    ],
    ids=["h-0", "h-0.005"],
)
def test_pandora_h_at_most_trunc_eps(inst, tmp_path):
    # H <= --trunc-eps (0.01 by default) needs no truncation budget.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    out = tmp_path / "p.csv"
    argv = ["pandora", "--instance", str(path), "--m", "10", "--seeds", "3", "--out", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(float(x)) for row in rows for x in row)


def test_da_experiment_cost_count_exits_2(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps(
            {
                "H": 1.0,
                "marginals": [{"atoms": [0.0, 0.5, 1.0], "weights": [0.4, 0.3, 0.3]}] * 2,
                "costs": [0.05],
            }
        )
    )
    assert main(["da-experiment", "--instance", str(path), "--m", "20"]) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation: one cost per box")


def test_lowerbound_single_bidder_exits_2(capsys):
    assert main(["lowerbound", "--n", "1", "--eps", "0.05", "--m", "10"]) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation: the distinguisher needs n >= 2")


GOOD_MARGINALS = [{"atoms": [0.0, 0.5, 1.0], "weights": [0.4, 0.3, 0.3]}] * 2


@pytest.mark.parametrize(
    "inst",
    [
        {"H": 1, "marginals": 5},
        {"H": 1, "marginals": [{"atoms": "ab", "weights": [0.5, 0.5]}]},
        {"H": 1, "marginals": [{"atoms": [[0.5]], "weights": [1.0]}]},
    ],
)
def test_instance_shape_exits_2(inst, zero_profile_file, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    assert main(["verify-bne", "--instance", str(path), "--profile", zero_profile_file]) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation")


@pytest.mark.parametrize("profile", [{"a": 1}, None, [3]])
def test_profile_shape_exits_2(profile, instance_file, tmp_path, capsys):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(profile))
    assert main(["verify-bne", "--instance", instance_file, "--profile", str(path)]) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation")


@pytest.mark.parametrize("costs", [[None], 0.1, [math.nan, 0.05]])
@pytest.mark.parametrize("sub", ["pandora", "da-experiment"])
def test_cost_shape_exits_2(sub, costs, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"H": 1.0, "marginals": GOOD_MARGINALS, "costs": costs}))
    assert main([sub, "--instance", str(path), "--m", "20"]) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation: costs")


@pytest.mark.parametrize("sub", ["estimate", "pandora", "da-experiment"])
def test_negative_seeds_exits_2(sub, instance_file, capsys):
    assert main([sub, "--instance", instance_file, "--m", "20", "--seeds", "-2"]) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation: --seeds must be >= 0, got -2")


@pytest.mark.parametrize(
    "sub,empty",
    [
        ("estimate", "estimator,m,seed,sup_error,argmax_bidder,argmax_value,profile_id\n"),
        ("pandora", "m,seed,learned_payoff,optimal_payoff,regret\n"),
        ("da-experiment", "[]\n"),
    ],
)
def test_zero_seeds_emits_no_rows(sub, empty, instance_file, tmp_path):
    out = tmp_path / "out"
    argv = [sub, "--instance", instance_file, "--m", "20", "--seeds", "0", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_text() == empty


@pytest.mark.parametrize("damping", ["nan", "-1", "2"])
def test_damping_outside_unit_interval_exits_2(damping, instance_file, capsys):
    argv = ["solve-bne", "--instance", instance_file, f"--damping={damping}"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("ERROR: validation: damping must lie in [0, 1]")


@pytest.mark.parametrize(
    "args",
    [
        ["--n", "2", "--m", "0"],
        ["--n", "3", "--m", "0"],
        ["--n", "3", "--m", "5", "--trials", "-1"],
    ],
)
def test_lowerbound_bad_counts_exit_2(args, capsys):
    assert main(["lowerbound", "--eps", "0.1"] + args) == 2
    msg = "ERROR: validation: the distinguisher needs m >= 1 and trials >= 0"
    assert capsys.readouterr().err.startswith(msg)


@pytest.mark.parametrize(
    "args,option",
    [
        (["--n", "0"], "--n"),
        (["--n", "-2"], "--n"),
        (["--n", "2", "--m", "-1"], "--m"),
    ],
)
def test_pdim_check_bad_sizes_exit_2(args, option, capsys):
    assert main(["pdim-check"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ERROR: validation: pdim-check needs {option} >= ")


def test_pdim_check_caps_the_family_size(tmp_path, capsys):
    # n = 3, m = 130 would hold 111M utilities; it must fail unbuilt.
    start = time.perf_counter()
    assert main(["pdim-check", "--n", "3", "--m", "130"]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("ERROR: validation: pdim-check at n=3, m=130 needs 111077200 > 4194304 ")
    out = tmp_path / "pd.json"
    assert main(["pdim-check", "--n", "3", "--m", "25", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["m"] == 25


def test_pdim_check_zero_samples_is_one_label_vector(tmp_path):
    out = tmp_path / "out.json"
    assert main(["pdim-check", "--n", "2", "--m", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == 1


# Fuzzed instance, profile and cost JSON: well-formed shapes whose parts are
# replaced by junk one time in twenty, and numbers that are mostly valid.
NUMBER = st.one_of(
    st.sampled_from([0, 0.25, 0.5, 1, 1.0]), st.floats(0.0, 1.0), st.floats(), st.integers()
)
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=2), NUMBER),
    lambda c: st.one_of(st.lists(c, max_size=3), st.dictionaries(st.text(max_size=2), c)),
    max_leaves=6,
)


def mostly(good):
    return st.integers(0, 19).flatmap(lambda k: JUNK if k == 19 else good)


def marginal(pairs):
    return {"atoms": [a for a, _ in pairs], "weights": [w for _, w in pairs]}


WEIGHT = st.one_of(st.floats(0.05, 1.0), NUMBER)
PAIRS = st.lists(st.tuples(mostly(NUMBER), mostly(WEIGHT)), min_size=1, max_size=3)
MARGINAL = PAIRS.map(marginal)
BREAKPOINT = st.lists(mostly(NUMBER), min_size=2, max_size=2)
STRATEGY = st.fixed_dictionaries(
    {},
    optional={
        "breakpoints": mostly(st.lists(mostly(BREAKPOINT), max_size=3)),
        "default_bid": NUMBER,
    },
)
COST = st.one_of(st.floats(0.0, 0.1), NUMBER)


@st.composite
def instance_and_profile(draw):
    """An instance with costs and a profile, both mostly for the same n bidders."""
    n = draw(st.integers(1, 3))
    inst = {
        "marginals": draw(mostly(st.lists(mostly(MARGINAL), min_size=n, max_size=n))),
        "costs": draw(mostly(st.lists(mostly(COST), min_size=n, max_size=n))),
    }
    if draw(st.booleans()):
        inst["H"] = draw(mostly(NUMBER))
    k = draw(st.sampled_from([n, n, n, 1, 2, 3]))
    profile = draw(mostly(st.lists(mostly(STRATEGY), min_size=k, max_size=k)))
    return draw(mostly(st.just(inst))), profile


def numbers(obj):
    """Every number in a JSON value."""
    if isinstance(obj, dict):
        return [x for v in obj.values() for x in numbers(v)]
    if isinstance(obj, list):
        return [x for v in obj for x in numbers(v)]
    return [obj] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


@given(
    case=instance_and_profile(),
    rule=st.sampled_from([[], ["--auction", "all-pay", "--tie", "no-allocation"]]),
)
@settings(max_examples=200, deadline=None)
def test_fuzzed_json_exits_2_or_certifies(case, rule):
    """verify-bne exits 2 or certifies a finite, nonnegative epsilon; solve-bne exits 2
    or prints a finite certificate and profile; pandora and da-experiment read the
    costs and exit 2 or print finite numbers."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {k: os.path.join(tmp, f"{k}.json") for k in ("inst", "prof", "out")}
        for path, obj in zip(paths.values(), case):
            with open(path, "w") as fh:
                json.dump(obj, fh)
        runs = (
            ["verify-bne", "--profile", paths["prof"]] + rule,
            ["solve-bne", "--max-iters", "5"] + rule,
            ["pandora", "--m", "4", "--seeds", "1"],
            ["da-experiment", "--m", "8", "--grid-step", "0.25"],
        )
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--instance", paths["inst"], "--out", paths["out"]])
            if code == 2:
                assert err.getvalue().startswith(("ERROR: validation", "ERROR: parse"))
                continue
            assert code == 0, err.getvalue()
            with open(paths["out"]) as fh:
                if argv[0] == "pandora":
                    row = fh.read().splitlines()[1].split(",")
                    assert all(math.isfinite(float(x)) for x in row)
                    continue
                blob = json.load(fh)
            assert all(math.isfinite(x) for x in numbers(blob))
            if argv[0] != "da-experiment":
                cert = blob if argv[0] == "verify-bne" else blob["certificate"]
                assert cert["epsilon"] >= 0.0


# Outputs recorded before the per-row ex post loops were replaced by the
# batched kernel; the estimators and the hypothesis family must reproduce
# them byte for byte.
GOLDEN = [
    (
        ["estimate", "--m", "30", "--seeds", "3", "--seed", "5", "--estimator", "emp"],
        "estimator,m,seed,sup_error,argmax_bidder,argmax_value,profile_id\n"
        "emp,30,47327894,0.06749999999999998,1,0.5,1\n"
        "emp,30,47327895,0.04500000000000001,1,0.5,1\n"
        "emp,30,47327896,0.05999999999999961,0,1.0,1\n",
    ),
    (
        ["estimate", "--m", "30", "--seeds", "3", "--seed", "5", "--estimator", "emp",
         "--auction", "all-pay", "--tie", "no-allocation"],
        "estimator,m,seed,sup_error,argmax_bidder,argmax_value,profile_id\n"
        "emp,30,47327894,0.11666666666666681,1,0.5,2\n"
        "emp,30,47327895,0.10000000000000026,0,1.0,2\n"
        "emp,30,47327896,0.1333333333333337,0,1.0,2\n",
    ),
    (
        ["pdim-check", "--n", "2", "--m", "4", "--seed", "1"],
        '{\n  "bound": 25,\n  "count": 6,\n  "m": 4,\n  "n": 2,\n  "ok": true\n}\n',
    ),
    (
        ["pdim-check", "--n", "1", "--m", "3", "--seed", "1"],
        '{\n  "bound": 64,\n  "count": 3,\n  "m": 3,\n  "n": 1,\n  "ok": true\n}\n',
    ),
    (
        ["pdim-check", "--n", "3", "--m", "3", "--seed", "1"],
        '{\n  "bound": 262144,\n  "count": 5,\n  "m": 3,\n  "n": 3,\n  "ok": true\n}\n',
    ),
]


# sha256 of outputs recorded before the tie DP and the best responses were
# batched over arrays of bids; the verifier and the solver must reproduce them.
GOLDEN_SHA256 = [
    (
        ["verify-bne"],
        "sha256:5a3d574e9d3c6c0d1cec6b276d5868b702006ac25f04b409390fd1077a7fe59e",
    ),
    (
        ["verify-bne", "--auction", "all-pay", "--tie", "no-allocation"],
        "sha256:151f260a45c33a532e91c2105c1069b945f27cdfb3d2c0107a73abb304fdfe33",
    ),
    (
        ["solve-bne", "--grid-step", "0.25", "--max-iters", "10", "--seed", "3"],
        "sha256:54b389563a75b5a600664b79db645ad913d9f82da5eee692a5cd1905bd39601b",
    ),
    (
        ["solve-bne", "--grid-step", "0.25", "--max-iters", "10", "--seed", "3",
         "--auction", "all-pay"],
        "sha256:96af443b297b03c80447c85648417d5ddff753786faf1a88910a2716d9bbf9fe",
    ),
    # Recorded before the solver skipped profiles it had already certified and
    # shared one candidate table per bidder and opponent set. Undamped, every
    # damped iterate repeats its raw best response.
    (
        ["solve-bne", "--grid-step", "0.1", "--max-iters", "20", "--seed", "3", "--damping", "0"],
        "sha256:f24b5c077a03b0579f8df27f92accf3ff8d888ed7da9cc15be1993051d0dc81d",
    ),
    (
        ["solve-bne", "--grid-step", "0.1", "--max-iters", "20", "--seed", "3",
         "--tie", "no-allocation"],
        "sha256:826e5dcf0da802171a35ffe52d3ac11ea1c9cbda92bbb27593c97d1dc07a5b7b",
    ),
    # Recorded when da_gap became the exact supremum over all descending-auction
    # deviations; the pipeline must reproduce them.
    (
        ["da-experiment", "--m", "40", "--seeds", "2", "--seed", "3", "--grid-step", "0.25"],
        "sha256:000efe56db9cea39931a4480e68fb9dd5858fd0f9533abc90a290db9f12aea63",
    ),
    (
        ["da-experiment", "--m", "40", "--seeds", "2", "--seed", "3", "--grid-step", "0.25",
         "--format", "csv"],
        "sha256:5c50399dda96d9dab78094552fc66f7d50031e8a94b5880d08994971f880fab1",
    ),
    # Recorded before the distinguisher's per-subset scan became one subset-sum
    # transform per trial.
    (
        ["lowerbound", "--n", "12", "--eps", "0.01", "--m", "100000", "--trials", "20",
         "--seed", "3"],
        "sha256:8793e806f81b392e0af966dcbe3728b9d3650e92e100c5f36cd563fb0532b4ee",
    ),
    # Recorded before the two-bidder test compared the count of ones with m / 2;
    # an even m has trials with exactly m / 2 ones. Its own id keeps the others'.
    pytest.param(
        ["lowerbound", "--n", "2", "--eps", "0.1", "--m", "40", "--trials", "300", "--seed", "3"],
        "sha256:e7c52b5a32cd98254f6705c29b291801b00c029b241e9b673aa365b45856f41c",
        id="lowerbound-n2",
    ),
]


# sha256 of solve-bne outputs at more bidders than any bench op (n <= 6), on
# bench instances, recorded before the five restarts ran in lockstep.
GOLDEN_MANY_BIDDERS = [
    (8, 30, "15", "9c7a005dce0a6c5614900906002c54bf6c5b3129290992e1839be6caeb47028c"),
    (16, 20, "10", "fc161a9e4d65f78ae235a1b34c7fdeeebcdd4bae7dd115c0e3e97eaa48213ae5"),
]


@pytest.mark.parametrize("n, k, max_iters, expected", GOLDEN_MANY_BIDDERS)
def test_solve_bytes_at_many_bidders(n, k, max_iters, expected, tmp_path):
    instance, out = tmp_path / "instance.json", tmp_path / "out"
    instance.write_text(json.dumps(workloads.make_instance(11, n, k)))
    argv = ["solve-bne", "--instance", str(instance), "--grid-step", "0.05"]
    assert main(argv + ["--max-iters", max_iters, "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


@pytest.mark.parametrize(
    "argv,expected", GOLDEN + GOLDEN_SHA256, ids=lambda x: x[0] if isinstance(x, list) else ""
)
def test_golden_bytes(argv, expected, instance_file, tie_profile_file, tmp_path):
    out = tmp_path / "out"
    if argv[0] in ("estimate", "verify-bne", "solve-bne", "da-experiment"):
        argv = argv + ["--instance", instance_file]
    if argv[0] == "verify-bne":
        argv = argv + ["--profile", tie_profile_file]
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    if expected.startswith("sha256:"):
        data = f"sha256:{hashlib.sha256(data).hexdigest()}".encode()
    assert data == expected.encode(), versions()
