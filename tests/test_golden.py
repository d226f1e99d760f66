"""Every canonical CLI run frozen as sha256 digests in golden.json.

Each run goes through `cli.main` in-process.  The manifest holds, per run,
the sha256 of every file written, the exit code and the stdout with the
output directory replaced by `<out>`.  Each `simulate` and `validate-bounds`
run is checked with workers 1 and 2 against the same entry.  A digest may
change only together with a CHANGES.md line that names the run, the file
and the reason.

Rewrite the manifest from the current code with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from dmcvqkd import cli
from test_cli import SIM_BASE

MANIFEST = Path(__file__).with_name("golden.json")

BENIGN = {
    "alpha": 0.5, "T": 0.5, "xi": 0.01, "beta": 0.95,
    "n": 100_000_000, "m": 1000, "k": 2_000_000_000,
    "eps_pe": 1e-10, "eps_sm": 1e-10, "eps_ent": 1e-10, "eps_cor": 1e-10,
    "p_ec": 0.99, "eps_rob": 1e-2,
}

# name -> (arguments before --config/--out, config or None for a help run)
RUNS = {
    "simulate-default": (["simulate", "--batch-csv"], {}),
    "simulate-sim-base": (["simulate", "--batch-csv"], SIM_BASE),
    "simulate-sim-base-xi0.5": (["simulate", "--batch-csv"],
                                {**SIM_BASE, "xi_actual": 0.5}),
    "keyrate-default": (["keyrate"], {}),
    "keyrate-benign": (["keyrate"], BENIGN),
    # numpy's power and Python's ** differ in the last bit of the ratio
    # sum at this amplitude, so the digests see a change of form
    "keyrate-benign-alpha0.59": (["keyrate"], {**BENIGN, "alpha": 0.59}),
    "sweep-benign-T": (["sweep", "--axis", "T", "--grid",
                        "0.4,0.5,0.6,0.7,0.8,0.9,0.95"], BENIGN),
    "validate-bounds": (["validate-bounds", "--seed", "20250825",
                         "--trials", "20000"], {}),
    "help": (["--help"], None),
    "help-keyrate": (["keyrate", "--help"], None),
    "help-sweep": (["sweep", "--help"], None),
    "help-simulate": (["simulate", "--help"], None),
    "help-validate-bounds": (["validate-bounds", "--help"], None),
}
CASES = [(name, w) for name in RUNS
         for w in ((1, 2) if name.startswith(("simulate", "validate"))
                   else (1,))]


def versions() -> dict:
    # argparse's help layout changes between feature releases of Python;
    # np.cos and the like can change in the last bit between numpy builds
    return {"python": ".".join(platform.python_version_tuple()[:2]),
            "numpy": np.__version__, "scipy": scipy.__version__}


def simd() -> list:
    # numpy picks its power kernel by CPU feature at run time, and without
    # AVX-512 keyrate-benign-alpha0.59 differs in the last bit; recorded,
    # not gated on, so that a mismatch names the CPU it came from
    return np.show_config(mode="dicts")["SIMD Extensions"]["found"]


def run(name: str, workers: int, tmp: Path) -> dict:
    """One canonical run: its exit code, stdout and file digests."""
    args, config = RUNS[name]
    out = tmp / "out"
    argv = list(args)
    if config is not None:
        cfg = tmp / "config.json"
        cfg.write_text(json.dumps({**config, "workers": workers}))
        argv += ["--config", str(cfg), "--out", str(out)]
    stdout = io.StringIO()
    # COLUMNS fixes the width argparse wraps the help text to
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(stdout):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    files = {} if config is None else {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }
    return {"exit_code": code,
            "stdout": stdout.getvalue().replace(str(out), "<out>"),
            "files": files}


@pytest.mark.parametrize("name, workers", CASES,
                         ids=[f"{n}-w{w}" for n, w in CASES])
def test_run_matches_the_manifest(name, workers, tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["versions"] == versions(), (
        f"golden.json was made with {manifest['versions']}, this is "
        f"{versions()}; rewrite it only after checking every change")
    assert run(name, workers, tmp_path) == manifest["runs"][name], (
        f"golden.json was made on a CPU with SIMD extensions "
        f"{manifest['simd']}, this one has {simd()}")


if __name__ == "__main__":
    runs = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            runs[name] = run(name, 1, Path(tmp))
    MANIFEST.write_text(json.dumps({"versions": versions(), "simd": simd(),
                                    "runs": runs},
                                   indent=1, sort_keys=True) + "\n")
