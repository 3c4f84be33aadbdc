"""Every benchmark op keeps its bytes.

The certify, pipeline and learn op lists of ``bench/workloads.py`` run through
``cli.main`` in this process, at four workload seeds. One sha256 over every
op's name, exit code, output bytes and stderr must equal the digest recorded
when the test was written, so a speed change that alters any output fails
here. ``bench/`` is only read: its module is loaded from the file, without
writing bytecode next to it. A failure names the Python, numpy and click
versions the digests were recorded on and those of the failing run.
"""

import contextlib
import hashlib
import importlib.util
import io
import platform
import sys
from importlib import metadata
from pathlib import Path

import pytest

from auctionlearn.cli import main

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


workloads = load_workloads()

# The versions every recorded digest and golden output of tests/ was made on.
RECORDED_ON = "Python 3.11.7, numpy 2.4.6, click 8.4.0"


def versions() -> str:
    """The failure message of a byte check: another Python, numpy or click may
    change a float's last bit or a line of output."""
    run = ", ".join(
        [f"Python {platform.python_version()}"]
        + [f"{name} {metadata.version(name)}" for name in ("numpy", "click")]
    )
    return f"bytes recorded on {RECORDED_ON}; this run has {run}"


DIGESTS = {
    ("certify", 3): "885a14e7448078bc5952686e4d280bdb2ceb9118ba192a88c05052851ceb5161",
    ("certify", 5): "70a0826a1457784049bc54ca155c54e73c471fc7021d8f542d389f1259e4e3d0",
    ("certify", 7): "b586e94378abed5eafe9561a1c1e82280f1635b8785fe02aae4bac564acce9a8",
    ("certify", 11): "0626473e4fc1df28d166cb29126786167c56d5923f2b1d3343be83c782443fe4",
    ("pipeline", 3): "4322983930dce9335a1e6889335efaeae3be9a15ab936e7be1d42f99d051c802",
    ("pipeline", 5): "46440c3567762b02752331bd74915751eb0fce2c59332f4b3db9b7d03829e50e",
    ("pipeline", 7): "d90ebe7ce5d2f909ca6dd0d3a5a49af4e5e43746520e053f62d7d49935231f35",
    ("pipeline", 11): "4e5c2f375a310d47e0970f62ca6e3894c8ee65bb8376d5180e6bacaaac445ec2",
    ("learn", 3): "1d5c69e8b376d795b3898c9c86c5a819edeb40ec2f34604191e3aecba8130477",
    ("learn", 5): "c6d8b50d1aded2ecd25e3e24225e8af20d1a5322abec1b3168af94152f4bc71f",
    ("learn", 7): "8a695c40afed56987f366a4127cf8dc64b2c2c5280f71b9be4e87ee6ccc3408f",
    ("learn", 11): "eb21f2417b584098509424a8f7c826726c2f7b19e439533ce0d5396a2f45e4f7",
}


@pytest.mark.parametrize("workload, seed", DIGESTS, ids=[f"{w}-{s}" for w, s in DIGESTS])
def test_ops_keep_their_bytes(workload, seed, tmp_path):
    digest = hashlib.sha256()
    for op in workloads.build_ops(workload, seed, tmp_path):
        out = tmp_path / f"{op.name}.out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*op.argv, "--out", str(out)])
        data = out.read_bytes() if out.exists() else b""
        digest.update(f"{op.name} {code} {len(data)}\n".encode())
        digest.update(data)
        digest.update(err.getvalue().encode())
    assert digest.hexdigest() == DIGESTS[workload, seed], versions()
