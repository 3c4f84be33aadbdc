"""Command-line front end: seeded experiment orchestration, CSV/JSON emission.

All randomness flows from a single --seed per subcommand; where an experiment
needs several streams, child seeds are derived as child = sha256(base, label)
truncated to 31 bits, so outputs are byte-identical across repeated runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import click

from .auction import AuctionRule, Format, Tie
from .da import empirical_pipeline
from .dist import ProductDistribution, json_numbers, sample_matrix
from .equilibrium import solve_bne, uniform_bid_grid, verify_bne
from .estimate import SWEEP_COLUMNS, label_vector_count, shade_family, sup_error_sweep
from .lowerbound import distinguisher_trials
from .pandora import SearchInstance, opt_welfare, pandora_from_samples
from .strategy import StrategyProfile


def child_seed(base: int, label: str) -> int:
    digest = hashlib.sha256(f"{base}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31)


def _rule(fmt: str, tie: str) -> AuctionRule:
    return AuctionRule(Format(fmt.replace("-", "_")), Tie(tie.replace("-", "_")))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _csv_text(header, rows) -> str:
    """The header and rows as CSV; ``csv`` writes a Python float as its shortest ``repr``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# Compact encoder: with no indent, ``json`` encodes in C.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` and a newline, for dicts with str keys.

    An indent makes ``json`` encode in pure Python, so a list of numbers or of
    number lists is encoded by the compact C encoder and then indented.
    """
    return _indented(obj, "\n") + "\n"


def _is_numbers(obj) -> bool:
    # A nonempty list of ints, floats and bools: no item holds a comma or a bracket.
    return type(obj) is list and bool(obj) and set(map(type, obj)) <= {int, float, bool}


def _indented(obj, nl: str) -> str:
    # `nl` is the newline and indent of the line that closes `obj`.
    inner = nl + "  "
    if isinstance(obj, dict) and obj:
        items = [encode_basestring_ascii(k) + ": " + _indented(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if not (isinstance(obj, (list, tuple)) and obj):
        return _COMPACT.encode(obj)
    if _is_numbers(obj):
        return "[" + inner + _COMPACT.encode(obj)[1:-1].replace(",", "," + inner) + nl + "]"
    # A list of nonempty number lists: rows that are lists, none empty, of numbers alone.
    rows = set(map(type, obj)) <= {list} and all(obj)
    if rows and set(map(type, chain.from_iterable(obj))) <= {int, float, bool}:
        row = inner + "  "
        text = _COMPACT.encode(obj)[2:-2].replace(",", "," + row)
        text = text.replace("]," + row + "[", inner + "]," + inner + "[" + row)
        return "[" + inner + "[" + row + text + inner + "]" + nl + "]"
    return "[" + inner + ("," + inner).join(_indented(v, inner) for v in obj) + nl + "]"


def _read_json(path):
    """The JSON value in the file at ``path``: the one way the CLI reads a file."""
    with open(path) as fh:
        return json.load(fh)


def _load_costs(path) -> tuple[ProductDistribution, list[float]]:
    obj = _read_json(path)
    f = ProductDistribution.from_json(obj)
    if "costs" not in obj:
        raise ValueError("instance file needs a 'costs' field for this command")
    return f, json_numbers(obj["costs"], "costs")


def _check_seeds(seeds: int) -> None:
    if seeds < 0:
        raise ValueError(f"--seeds must be >= 0, got {seeds}")


@click.group()
def cli() -> None:
    """Utility learning and approximate equilibria in auctions with and without search costs."""


@cli.command("verify-bne")
@click.option("--instance", required=True, type=click.Path(exists=True))
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--auction", "fmt", type=click.Choice(["first-price", "all-pay"]), default="first-price")
@click.option("--tie", type=click.Choice(["random-allocation", "no-allocation"]), default="random-allocation")
@click.option("--out", type=click.Path(), default=None)
def verify_bne_cmd(instance, profile_path, fmt, tie, out):
    """Exactly certify the epsilon of a strategy profile."""
    f = ProductDistribution.from_json(_read_json(instance))
    profile = StrategyProfile.from_json(_read_json(profile_path))
    cert = verify_bne(_rule(fmt, tie), f, profile)
    _emit(_json_text(cert.to_json()), out)


@cli.command("solve-bne")
@click.option("--instance", required=True, type=click.Path(exists=True))
@click.option("--grid-step", type=float, default=0.05)
@click.option("--max-iters", type=int, default=200)
@click.option("--damping", type=float, default=0.5)
@click.option("--seed", type=int, default=0)
@click.option("--auction", "fmt", type=click.Choice(["first-price", "all-pay"]), default="first-price")
@click.option("--tie", type=click.Choice(["random-allocation", "no-allocation"]), default="random-allocation")
@click.option("--out", type=click.Path(), default=None)
def solve_bne_cmd(instance, grid_step, max_iters, damping, seed, fmt, tie, out):
    """Search for an approximate equilibrium; output the best certified profile."""
    f = ProductDistribution.from_json(_read_json(instance))
    profile, cert = solve_bne(
        _rule(fmt, tie), f, uniform_bid_grid(f.h, grid_step), max_iters=max_iters,
        damping=damping, seed=child_seed(seed, "solve-bne"),
    )
    _emit(_json_text({"certificate": cert.to_json(), "profile": profile.to_json()}), out)


@cli.command("estimate")
@click.option("--instance", required=True, type=click.Path(exists=True))
@click.option("--m", type=int, required=True)
@click.option("--seeds", type=int, default=30)
@click.option("--seed", type=int, default=0)
@click.option("--estimator", type=click.Choice(["emp", "empp"]), default="empp")
@click.option("--auction", "fmt", type=click.Choice(["first-price", "all-pay"]), default="first-price")
@click.option("--tie", type=click.Choice(["random-allocation", "no-allocation"]), default="random-allocation")
@click.option("--out", type=click.Path(), default=None)
def estimate_cmd(instance, m, seeds, seed, estimator, fmt, tie, out):
    """Sup estimation error of the linear-shading family, one CSV row per seed."""
    _check_seeds(seeds)
    f = ProductDistribution.from_json(_read_json(instance))
    profiles = shade_family(f, [k / 10 for k in range(11)])
    rows = sup_error_sweep(
        f, _rule(fmt, tie), profiles, [m], seeds, child_seed(seed, "estimate"), estimator
    )
    _emit(_csv_text(SWEEP_COLUMNS, map(itemgetter(*SWEEP_COLUMNS), rows)), out)


@cli.command("pandora")
@click.option("--instance", required=True, type=click.Path(exists=True))
@click.option("--m", type=int, required=True)
@click.option("--seeds", type=int, default=30)
@click.option("--seed", type=int, default=0)
@click.option("--trunc-eps", type=float, default=0.01)
@click.option("--out", type=click.Path(), default=None)
def pandora_cmd(instance, m, seeds, seed, trunc_eps, out):
    """Learn search indices from samples; report payoff vs. the optimum per seed."""
    _check_seeds(seeds)
    f, costs = _load_costs(instance)
    base = child_seed(seed, "pandora")
    rows, optimal = [], None
    for k in range(seeds):
        s = sample_matrix(f, m, base + k)
        learned = pandora_from_samples(s, costs, f, trunc_eps)
        if optimal is None:  # after the first seed's checks: --seeds 0 accepts any costs
            optimal = opt_welfare(SearchInstance(f, tuple(costs)))
        rows.append([m, base + k, learned, optimal, optimal - learned])
    _emit(_csv_text(["m", "seed", "learned_payoff", "optimal_payoff", "regret"], rows), out)


@cli.command("da-experiment")
@click.option("--instance", required=True, type=click.Path(exists=True))
@click.option("--m", type=int, required=True)
@click.option("--seeds", type=int, default=1)
@click.option("--seed", type=int, default=0)
@click.option("--grid-step", type=float, default=0.05)
@click.option("--format", "out_format", type=click.Choice(["csv", "json"]), default="json")
@click.option("--out", type=click.Path(), default=None)
def da_experiment_cmd(instance, m, seeds, seed, grid_step, out_format, out):
    """End-to-end pipeline: samples to a certified descending-auction profile."""
    _check_seeds(seeds)
    f, costs = _load_costs(instance)
    base = child_seed(seed, "da-experiment")
    solver_seed = child_seed(seed, "da-solver")
    records = []
    for k in range(seeds):
        rep = empirical_pipeline(sample_matrix(f, m, base + k), costs, f, grid_step, solver_seed)
        records.append(dict(seed=base + k, **rep.to_json()))
    if out_format == "json":
        _emit(_json_text(records), out)
    else:
        header = ("seed", "eps_fpa", "empp_sup_error", "da_gap", "welfare", "opt", "poa_bound",
                  "cost_err")
        _emit(_csv_text(header, map(itemgetter(*header), records)), out)


@cli.command("lowerbound")
@click.option("--n", type=int, required=True)
@click.option("--eps", type=float, required=True)
@click.option("--m", type=int, required=True)
@click.option("--trials", type=int, default=100)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), default=None)
def lowerbound_cmd(n, eps, m, trials, seed, out):
    """Recovery fractions of the distinguisher, one CSV row per trial."""
    scores = distinguisher_trials(n, eps, m, trials, child_seed(seed, "lowerbound"))
    rows = [[n, eps, m, t, sc] for t, sc in enumerate(scores.tolist())]
    _emit(_csv_text(["n", "eps", "m", "trial", "recovery_fraction"], rows), out)


@cli.command("pdim-check")
@click.option("--n", type=int, default=2)
@click.option("--m", type=int, default=4)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), default=None)
def pdim_check_cmd(n, m, seed, out):
    """Count label vectors of a dense monotone family against the counting bound."""
    from .testkits import dense_monotone_hypotheses

    if n < 1:
        raise ValueError(f"pdim-check needs --n >= 1, got {n}")
    if m < 0:
        raise ValueError(f"pdim-check needs --m >= 0, got {m}")
    values, witnesses = dense_monotone_hypotheses(n, m, child_seed(seed, "pdim-check"))
    count = label_vector_count(values, witnesses)
    bound = (m + 1) ** 2 if n == 2 else (m + 1) ** (3 * n)
    _emit(_json_text({"n": n, "m": m, "count": count, "bound": bound, "ok": count <= bound}), out)


def main(argv=None) -> int:
    """Entry point with the documented exit codes: 0 ok, 2 bad input, 1 internal."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.Abort:
        print("ERROR: aborted", file=sys.stderr)
        return 1
    except click.ClickException as exc:
        print(f"ERROR: usage: {exc.format_message()}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"ERROR: parse: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"ERROR: validation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"ERROR: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
