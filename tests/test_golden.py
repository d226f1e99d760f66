"""Every canonical CLI run frozen as sha256 digests in golden.json.

Each run goes through `cli.main` in-process.  The manifest holds, per run,
the sha256 of every file written, the exit code and the stdout with the
output directory replaced by `<out>`.  Each `simulate` and `validate-bounds`
run is checked with workers 1 and 2 against the same entry.  A digest may
change only together with a CHANGES.md line that names the run, the file
and the reason.

The manifest records no CPU: the digests hold on any x86-64 CPU, and a
subprocess test reruns three runs and the key-rate chain with numpy's AVX2
and AVX-512 kernels disabled and OpenBLAS's Haswell kernel.  Only the
capacity at s <= 1 can still move with the CPU (numpy's sinh and log1p);
the canonical runs' bits do not.

Rewrite the manifest from the current code with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy

from dmcvqkd import cli
from dmcvqkd.finitekey import mle_entropy
from dmcvqkd.modulation import lambda_ratio_sum_at
from dmcvqkd.reconciliation import biawgn_capacity
from test_cli import SIM_BASE
from test_pe_bounds import _pe_chain_digest

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
    assert run(name, workers, tmp_path) == manifest["runs"][name]


# numpy's kernels for the AVX2 and AVX-512 groups off, and OpenBLAS's
# Haswell kernel in place of the one it picks for this CPU; numpy ignores a
# disabled feature that the CPU lacks, so this runs on any x86-64 machine
OTHER_CPU = {"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR",
             "OPENBLAS_CORETYPE": "Haswell"}


def cpu_sensitive_bits(tmp: Path) -> dict:
    """Three canonical runs, and digests of the ratio sum, the capacity
    above s = 1, the plug-in entropy and the PE chain at seeded points.

    The points come from `random` and `math` alone: numpy's exp and the
    like would make the inputs themselves depend on the CPU.
    """
    rng = random.Random(31)
    alphas = [0.05 * (1e3 / 0.05) ** rng.random() for _ in range(2000)]
    snrs = [10.0 ** (3.0 * (1.0 - rng.random())) for _ in range(1000)]
    counts = [[rng.randrange(10 ** rng.randint(1, 9)) + 1 for _ in range(4)]
              for _ in range(20_000)]

    def digest(values: list) -> str:
        return hashlib.sha256(
            struct.pack(f"<{len(values)}d", *values)).hexdigest()

    bits = {}
    for name in ("keyrate-benign-alpha0.59", "sweep-benign-T",
                 "simulate-default"):
        (tmp / name).mkdir(parents=True)
        bits[name] = run(name, 1, tmp / name)
    bits["lambda_ratio_sum_at"] = digest([lambda_ratio_sum_at(a)
                                          for a in alphas])
    bits["biawgn_capacity"] = digest([biawgn_capacity(s) for s in snrs])
    bits["mle_entropy"] = digest([mle_entropy(c) for c in counts])
    bits["pe_chain"] = _pe_chain_digest(200, 20)
    return bits


def test_runs_and_the_key_rate_chain_do_not_depend_on_the_cpu(tmp_path):
    # the variables act only on the child process
    env = {key: value for key, value in os.environ.items()
           if key not in OTHER_CPU}
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, pathlib, sys, test_golden; print(json.dumps("
         "test_golden.cpu_sensitive_bits(pathlib.Path(sys.argv[1]))))",
         str(tmp_path / "child")],
        env={**env, **OTHER_CPU,
             "PYTHONPATH": os.pathsep.join((src, tests))},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == cpu_sensitive_bits(tmp_path / "here")


if __name__ == "__main__":
    runs = {}
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            runs[name] = run(name, 1, Path(tmp))
    MANIFEST.write_text(json.dumps({"versions": versions(), "runs": runs},
                                   indent=1, sort_keys=True) + "\n")
