"""Command-line workflows: configs, exit codes, CSV outputs, determinism."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dmcvqkd import cli
from dmcvqkd.cli import (
    EXIT_ERROR,
    EXIT_NO_KEY,
    EXIT_OK,
    RunConfig,
    config_from_dict,
    config_from_json,
    config_to_json,
    resolve_budget,
    validate_config,
)
from dmcvqkd.channel import (
    ROLE_KEY,
    apply_symmetrization,
    interleave,
    simulate_rounds,
)
from dmcvqkd.definetti import truncation_epsilon
from dmcvqkd.errors import ConfigError
from dmcvqkd.pe import gamma_estimates
from dmcvqkd.reconciliation import repetition_decode, repetition_reconcile
from dmcvqkd.rotations import OrthogonalTransform
from oracles import import_batch, role_codes, toeplitz_hash_direct

SIM_BASE = {
    "alpha": 0.5, "T": 0.6, "xi": 0.05,
    "n": 512, "m": 100, "k": 2000,
    "k_rep": 64, "k_test": 150, "seed": 424242,
}

# the README's benign operating point, l = 1325284.04
BENIGN = {
    "alpha": 0.5, "T": 0.5, "xi": 0.01, "beta": 0.95,
    "n": 100_000_000, "m": 1000, "k": 2_000_000_000,
    "eps_pe": 1e-10, "eps_sm": 1e-10, "eps_ent": 1e-10, "eps_cor": 1e-10,
}

SIM_FILES = (
    "batch.csv", "pe.csv", "ec.csv", "energy.csv",
    "keylength.csv", "reduction.csv", "key.csv", "transcript.csv",
)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), rows[1:]


def write_config(tmp_path, name, **overrides):
    data = dict(SIM_BASE)
    data.update(overrides)
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_config_json_round_trip(tmp_path):
    cfg = RunConfig(alpha=0.7, n=2048, eps_pe=1e-11, xi_actual=0.3)
    p = tmp_path / "cfg.json"
    p.write_text(config_to_json(cfg))
    assert config_from_json(p) == cfg


# log_base is no longer a field (every PE deviation log is ln), nor are
# the derived energy thresholds and eta; an old config that still sets one
# is rejected by name
@pytest.mark.parametrize("data", [{"bogus": 1}, {"log_base": "natural"},
                                  {"d_a": 1.0}, {"d_b": 1.0}, {"eta": 0.0}],
                         ids=["bogus", "log_base", "d_a", "d_b", "eta"])
def test_config_unknown_field_named(data):
    field, = data
    with pytest.raises(ConfigError, match=f"unknown config field '{field}'"):
        config_from_dict(data)


# only the derived entropy-estimation penalty remains; a config or flag
# that still asks for the old variant is an error, not a silent "no key"
def test_delta_ent_mode_other_than_derived_is_named(tmp_path, capsys):
    assert config_from_dict({"delta_ent_mode": "derived"}) == RunConfig()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"delta_ent_mode": "paper"}))
    rc = cli.main(["keyrate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_ERROR
    assert "'delta_ent_mode'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named, prog", [
    (["keyrate", "--bogus"], "--bogus", "dmcvqkd keyrate"),
    (["simulate", "--seed", "x"], "--seed", "dmcvqkd simulate"),
    (["sweep", "--axis", "T"], "--grid", "dmcvqkd sweep"),
    (["bogus"], "'bogus'", "dmcvqkd"),
    (["keyrate", "--delta-ent-mode", "paper"], "--delta-ent-mode",
     "dmcvqkd keyrate"),
    # a flag is offered only where its value is read, and the subcommand
    # that does not offer it reports it under its own usage
    (["keyrate", "--trials", "5"], "--trials", "dmcvqkd keyrate"),
    (["keyrate", "--seed", "1"], "--seed", "dmcvqkd keyrate"),
    (["sweep", "--axis", "T", "--grid", "0.5", "--seed", "1"], "--seed",
     "dmcvqkd sweep"),
    (["simulate", "--trials", "5"], "--trials", "dmcvqkd simulate"),
    # before the subcommand, an unknown flag is the top level's
    (["--bogus", "keyrate"], "--bogus", "dmcvqkd"),
], ids=["unknown-flag", "bad-int", "missing-grid", "unknown-subcommand",
        "removed-flag", "keyrate-trials", "keyrate-seed", "sweep-seed",
        "simulate-trials", "flag-before-subcommand"])
def test_usage_error_exits_1_and_names_the_argument(capsys, argv, named,
                                                    prog):
    # argparse's own code 2 would read as "no key"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == EXIT_ERROR
    usage, message = capsys.readouterr().err.split(f"\n{prog}: error: ")
    assert usage.startswith(f"usage: {prog} [-h]"), usage
    assert named in message, message


def test_validate_config_names_offending_field():
    with pytest.raises(ConfigError, match="'alpha'"):
        validate_config(RunConfig(alpha=-1.0))
    with pytest.raises(ConfigError, match="'n'"):
        validate_config(RunConfig(n=0))
    with pytest.raises(ConfigError, match="'k'"):
        validate_config(RunConfig(k=1.5))
    with pytest.raises(ConfigError, match="'eps_total'"):
        validate_config(RunConfig(eps_total=None))


# the exact text of each validate_config message
@pytest.mark.parametrize("overrides, message", [
    ({"alpha": math.nan}, "'alpha': must be a finite number, got nan"),
    ({"alpha": 2e3}, "'alpha': must lie in [0.05, 1000], got 2000.0"),
    ({"T": 0.0}, "'T': must lie in (0, 1], got 0.0"),
    ({"xi": -1.0}, "'xi': must lie in [0, 1e+06], got -1.0"),
    ({"beta": 1.5}, "'beta': must lie in (0, 1], got 1.5"),
    ({"n": 1.5}, "'n': must be an integer, got 1.5"),
    ({"m": 0}, "'m': must be >= 1"),
    ({"workers": 300}, "'workers': must lie in [1, 256], got 300"),
    ({"trials": 0}, "'trials': must be >= 1"),
    ({"seed": -1}, "'seed': must be a non-negative integer"),
    ({"eps_pe": 1.0}, "'eps_pe': must lie in (0, 1), got 1.0"),
    ({"p_ec": 0.0}, "'p_ec': must lie in (0, 1], got 0.0"),
    ({"eps_rob": 1.0}, "'eps_rob': must lie in (0, 1), got 1.0"),
    ({"eps_pe": 0.5, "eps_sm": 0.5},
     "'eps_pe', 'eps_sm': the epsilon components sum to 1.0000000005, "
     "which must be below 1"),
    ({"eps_total": 0.9, "eps_cor": 0.5},
     "'eps_cor': the epsilon components sum to 1.175, "
     "which must be below 1"),
    ({"xi_actual": 2e6},
     "'xi_actual': must lie in [0, 1e+06], got 2000000.0"),
    ({"delta_ent_mode": "paper"},
     "'delta_ent_mode': must be 'derived', got 'paper'"),
    ({"out": ""}, "'out': must be a non-empty path string"),
])
def test_validate_config_messages_are_exact(overrides, message):
    with pytest.raises(ConfigError) as exc:
        validate_config(RunConfig(**overrides))
    assert str(exc.value) == "config field " + message


@pytest.mark.parametrize("value", [0, -1, True, 1.5, "2",
                                   cli.WORKERS_MAX + 1, 10 ** 30])
def test_bad_thread_count_is_named(value):
    # checked by validate_config alone, so no test starts that many threads
    with pytest.raises(ConfigError, match="config field 'workers'"):
        config_from_dict({"workers": value})


def test_thread_count_defaults_to_every_usable_core():
    assert RunConfig().workers is None
    assert config_from_dict({"workers": None}).workers is None
    assert config_from_dict({"workers": cli.WORKERS_MAX}).workers == \
        cli.WORKERS_MAX


@pytest.mark.parametrize("field, value", [
    ("T", float("inf")),
    ("xi", 1e300),
    ("alpha", True),
    ("alpha", 1e300),
    ("xi", 1e150),
    ("xi_actual", 1e300),
    ("alpha", 0.001),
    ("alpha", 0.04),
    ("eps_pe", 1e-300),
    ("eps_total", 1e-300),
])
def test_extreme_config_values_exit_1(tmp_path, capsys, field, value):
    # Infinity, bools and finite values outside [ALPHA_MIN, ALPHA_MAX] or
    # beyond XI_MAX are rejected by name before any computation could
    # overflow or lose its digits to cancellation; an eps_pe outside the
    # estimator regime is named when the regime check fails
    cfg = write_config(tmp_path, "c.json", **{field: value})
    for command in ("keyrate", "simulate"):
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config field " + repr(field)), err


@pytest.mark.parametrize("field, derived", [("eps_pe", ""),
                                            ("eps_total", "eps_total/4 = ")])
def test_regime_error_names_k_and_eps_pe(tmp_path, capsys, field, derived):
    cfg = write_config(tmp_path, "c.json", **{field: 1e-300})
    for command in ("keyrate", "simulate"):
        assert cli.main([command, "--config", cfg,
                         "--out", str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"eps_pe = {derived}" in err, err
        assert f"config field 'k' = {SIM_BASE['k']}" in err, err


def test_energy_test_regime_error_names_k_test(tmp_path, capsys):
    # the cutoff needs k_test > 2 ln(8/eps_total); photon_cutoff's own
    # message speaks of a k, which is another config field.  sweep writes
    # no reduction, so it does not check this
    cfg = write_config(tmp_path, "c.json", k_test=3)
    for command in ("keyrate", "simulate"):
        out = tmp_path / command
        assert cli.main([command, "--config", cfg,
                         "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'k_test' = 3 with "
                              "eps_total = 1e-09 is outside"), err
        assert not out.exists()
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--axis", "T", "--grid", "0.6"]) == EXIT_NO_KEY


@pytest.mark.parametrize("config", [BENIGN, {}], ids=["benign", "default"])
def test_reduction_eta_admits_the_cutoff(config):
    # the rounded boundary K/(K + n - 5) fell just below the benign
    # point's cutoff; eta is stepped up until truncation_epsilon accepts it
    cfg = config_from_dict(config)
    report = cli._reduction(cfg, resolve_budget(cfg))
    assert 0.0 <= truncation_epsilon(report.n_modes, report.K,
                                     report.eta) <= 1.0


MALFORMED_VALUES = (math.inf, -math.inf, math.nan, 1e300, -1, 0, "x", [], {},
                    None, True)
NON_OBJECT_CONFIGS = ([], [SIM_BASE], "x", 1, 1e300, None, True)


# removed fields stay in the list: a config that sets one exits 1
REMOVED_FIELDS = ("d_a", "d_b", "eta")


@pytest.mark.parametrize("doc", [
    pytest.param(dict(SIM_BASE, **{field: value}), id=f"{field}={value!r}")
    for field in cli._FIELD_NAMES + REMOVED_FIELDS
    for value in MALFORMED_VALUES
] + [
    pytest.param(doc, id=f"document{i}")
    for i, doc in enumerate(NON_OBJECT_CONFIGS)
])
def test_malformed_config_never_raises(tmp_path, doc):
    # one field of SIM_BASE replaced by an odd value (no large integer, so
    # no huge batch), or a document that is no JSON object: every
    # subcommand returns an exit code instead of raising
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    for command in ("keyrate", "simulate", "validate-bounds"):
        rc = cli.main([command, "--config", str(cfg),
                       "--out", str(tmp_path / "out")])
        assert rc in (EXIT_OK, EXIT_ERROR, EXIT_NO_KEY)


SWEEP_GRID_VALUES = (math.nan, math.inf, -1.0, 0.0, 1e-300, 1e300, 0.5)
# config fields that never reach the key length, so no longer sweep
# axes, and removed fields
INERT_AXES = ("m", "k_test", "k_rep") + REMOVED_FIELDS


@pytest.mark.parametrize("axis", cli.SWEEP_AXES + INERT_AXES)
@pytest.mark.parametrize("value", SWEEP_GRID_VALUES, ids=repr)
def test_sweep_point_never_raises_and_names_its_axis(tmp_path, capsys, axis,
                                                     value):
    # one odd grid value on each axis of SIM_BASE: an exit code instead of
    # an exception, and an error that names the axis
    cfg = write_config(tmp_path, "c.json")
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--axis", axis, "--grid", repr(value)])
    assert rc in ((EXIT_ERROR,) if axis in INERT_AXES
                  else (EXIT_OK, EXIT_ERROR, EXIT_NO_KEY))
    err = capsys.readouterr().err
    if rc == EXIT_ERROR:
        assert repr(axis) in err, err


@pytest.mark.parametrize("axis", cli.SWEEP_AXES)
def test_every_sweep_axis_changes_the_row(tmp_path, axis):
    # a 10 % step from the default value moves some column of sweep.csv
    cfg = RunConfig()
    base = getattr(cfg, axis)
    if base is None:
        base = getattr(resolve_budget(cfg), axis)
    step = int(base * 0.9) if axis in cli._INT_FIELDS else base * 0.9
    rc = cli.main(["sweep", "--out", str(tmp_path), "--axis", axis,
                   "--grid", f"{base!r},{step!r}"])
    assert rc == EXIT_NO_KEY
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 2 and rows[0][2:] != rows[1][2:]


def test_cli_import_skips_scipy_stats():
    # the calibration quantiles come from scipy.special, so starting the
    # CLI does not pay for importing scipy.stats
    code = "import sys, dmcvqkd.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_keyrate_and_sweep_skip_scipy_integrate(tmp_path):
    # the capacity is a fixed-node sum, so no subcommand imports quad
    code = ("import sys; from dmcvqkd import cli; "
            f"cli.main(['keyrate', '--out', {str(tmp_path / 'k')!r}]); "
            f"cli.main(['sweep', '--out', {str(tmp_path / 's')!r}, "
            "'--axis', 'T', '--grid', '0.5,0.9']); "
            "print('scipy.integrate' in sys.modules)")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout
    assert (tmp_path / "k" / "keyrate.csv").is_file()
    assert (tmp_path / "s" / "sweep.csv").is_file()
    assert out.strip().splitlines()[-1] == "False"


def test_sweep_rejects_non_finite_grid_point(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json")
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--axis", "xi", "--grid", "0.01,inf"])
    assert rc == EXIT_ERROR
    assert "'xi'" in capsys.readouterr().err


@pytest.mark.parametrize("size", [0, 1, 5000])
def test_key_csv_rows_from_tolist_match_per_bit_tuples(tmp_path, size):
    bits = np.random.default_rng(size).integers(0, 2, size, dtype=np.uint8)
    cli._write_csv(tmp_path / "tuples.csv", ("bit",),
                   [(int(b),) for b in bits])
    cli._write_csv(tmp_path / "tolist.csv", ("bit",),
                   bits.reshape(-1, 1).tolist())
    got = (tmp_path / "tolist.csv").read_bytes()
    assert got == (tmp_path / "tuples.csv").read_bytes()
    assert got.count(b"\n") == size + 1


def test_resolve_budget_quarter_split():
    b = resolve_budget(RunConfig(eps_total=4e-10))
    assert b.eps_pe == b.eps_sm == b.eps_ent == b.eps_cor == 1e-10
    b2 = resolve_budget(RunConfig(eps_total=4e-10, eps_pe=1e-12))
    assert b2.eps_pe == 1e-12 and b2.eps_sm == 1e-10


def test_keyrate_default_config_no_key(tmp_path):
    # the default operating point is far too small for a positive length
    rc = cli.main(["keyrate", "--out", str(tmp_path)])
    assert rc == EXIT_NO_KEY
    header, rows = read_csv(tmp_path / "keyrate.csv")
    assert header[0] == "n_pairs" and header[-2:] == ("l", "feasible")
    assert len(rows) == 1 and rows[0][-1] == "0"
    red_header, red_rows = read_csv(tmp_path / "reduction.csv")
    assert "eps_general" in red_header and len(red_rows) == 1


def test_keyrate_feasible_point(tmp_path):
    cfg = tmp_path / "benign.json"
    cfg.write_text(json.dumps(BENIGN))
    rc = cli.main(["keyrate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "keyrate.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["l"]) == 1325284.039480323
    assert row["feasible"] == "1"


def test_per_process_caches_leave_outputs_unchanged(tmp_path, capsys):
    # the parser and the constellation sum are built once per process; a
    # usage error and --help in between must not change a later run
    assert cli.build_parser() is cli.build_parser()
    cfg = tmp_path / "benign.json"
    cfg.write_text(json.dumps(BENIGN))
    sweep = ["sweep", "--config", str(cfg), "--axis", "T",
             "--grid", "0.3,0.5,0.7,0.9", "--out"]
    assert cli.main(sweep + [str(tmp_path / "first")]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        cli.main(["keyrate", "--bogus"])
    assert exc.value.code == EXIT_ERROR
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == EXIT_OK
    assert cli.main(sweep + [str(tmp_path / "again")]) == EXIT_OK
    first = (tmp_path / "first" / "sweep.csv").read_bytes()
    assert (tmp_path / "again" / "sweep.csv").read_bytes() == first


def test_keyrate_leakage_at_vanishing_snr(tmp_path):
    # C is about 1e-20 here, so beta C vanishes against 1 and the leakage
    # is exactly the raw bits plus the 32 hash bits; adaptive quadrature
    # overstated C and wrote 65567.999999999563
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"T": 1e-20}))
    rc = cli.main(["keyrate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_NO_KEY
    header, rows = read_csv(tmp_path / "keyrate.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["leak_ec"]) == int(row["raw_bits"]) + 32 == 65568


def test_keyrate_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "c.json", out=str(tmp_path / "from_config"))
    rc = cli.main(["keyrate", "--config", cfg,
                   "--out", str(tmp_path / "from_flag")])
    assert rc in (EXIT_OK, EXIT_NO_KEY)
    assert (tmp_path / "from_flag" / "keyrate.csv").is_file()
    assert not (tmp_path / "from_config").exists()


def test_sweep_single_point_matches_keyrate(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cli.main(["keyrate", "--config", cfg, "--out", str(out_a)])
    cli.main(["sweep", "--config", cfg, "--out", str(out_b),
              "--axis", "T", "--grid", "0.6"])
    _, key_rows = read_csv(out_a / "keyrate.csv")
    sweep_header, sweep_rows = read_csv(out_b / "sweep.csv")
    assert sweep_header[:2] == ("axis", "value")
    assert len(sweep_rows) == 1
    assert sweep_rows[0][0] == "T"
    assert sweep_rows[0][2:] == key_rows[0]


def test_sweep_unknown_axis(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json")
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--axis", "volume", "--grid", "1,2"])
    assert rc == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_sweep_integer_axis(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--axis", "n", "--grid", "512,1024"])
    assert rc == EXIT_NO_KEY  # both points far below feasibility
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert [r[1] for r in rows] == ["512", "1024"]
    assert [r[2] for r in rows] == ["512", "1024"]  # n_pairs column


def test_simulate_writes_all_files_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    out4 = tmp_path / "r4"
    rc1 = cli.main(["simulate", "--config", cfg, "--out", str(out1),
                    "--batch-csv"])
    rc2 = cli.main(["simulate", "--config", cfg, "--out", str(out2),
                    "--batch-csv"])
    assert rc1 == rc2
    # a rerun and a differently-parallelized run are byte-identical
    cfg4 = write_config(tmp_path, "c4.json", workers=4)
    rc4 = cli.main(["simulate", "--config", cfg4, "--out", str(out4),
                    "--batch-csv"])
    assert rc4 == rc1
    for name in SIM_FILES:
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes(), name
        assert b1 == (out4 / name).read_bytes(), name


def test_simulate_without_batch_csv_is_the_same_for_any_workers(tmp_path):
    # the default config's 2n = 32768 key rounds stream in four chunks and
    # its 2m = 2000 decoy rounds fill a fifth, which two threads share; W
    # is drawn on the calling thread
    outs = []
    for workers in (1, 2):
        path = tmp_path / f"w{workers}.json"
        path.write_text(json.dumps({"workers": workers}))
        outs.append(tmp_path / f"out-w{workers}")
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(outs[-1])]) == EXIT_NO_KEY
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(set(SIM_FILES) - {"batch.csv"})
    for name in names:
        assert (outs[0] / name).read_bytes() == \
            (outs[1] / name).read_bytes(), name


def test_streamed_key_blocks_are_the_same_for_any_workers_and_the_rows(
        tmp_path, monkeypatch):
    # k_rep = 24: a block spans 12 modes, which does not divide
    # CHUNK_ROUNDS, so the 2n = 16392 key rounds stream in three chunks
    # that end on block edges
    config = dict(SIM_BASE, n=8196, k_rep=24)
    cfg = config_from_dict(config)
    assert cli._key_chunks(cfg) == [(0, 8184), (8184, 16368), (16368, 16392)]
    hashed = []
    real = cli.verify_hash

    def capture(bits_a, bits_b, *args, **kwargs):
        hashed.append((bits_a.copy(), bits_b.copy()))
        return real(bits_a, bits_b, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_hash", capture)
    outs = []
    for workers in (1, 2, 3):
        path = tmp_path / f"w{workers}.json"
        path.write_text(json.dumps(dict(config, workers=workers)))
        outs.append(tmp_path / f"out-w{workers}")
        assert cli.main(["simulate", "--config", str(path),
                         "--out", str(outs[-1])]) == EXIT_NO_KEY
    # a batch.csv run, which also builds the key rows, writes the same
    # files besides batch.csv
    outs.append(tmp_path / "rows")
    assert cli.main(["simulate", "--config", str(tmp_path / "w2.json"),
                     "--out", str(outs[-1]), "--batch-csv"]) == EXIT_NO_KEY
    names = sorted(set(SIM_FILES) - {"batch.csv"})
    for out in outs[1:]:
        for name in names:
            assert (out / name).read_bytes() == \
                (outs[0] / name).read_bytes(), (out.name, name)
    # every run hashed the bits of the side-information path on the rows
    batch = simulate_rounds(cli._protocol_params(cfg), cfg.seed)
    key = batch.role_indices(ROLE_KEY)
    y_hard, side, _ = repetition_reconcile(
        interleave(batch.bob_x[key], batch.bob_p[key]), cfg.k_rep)
    decoded = repetition_decode(
        interleave(batch.alice_x[key], batch.alice_p[key]), side, cfg.k_rep)
    assert len(hashed) == 4
    for bits_a, bits_b in hashed:
        np.testing.assert_array_equal(bits_b, y_hard < 0)
        np.testing.assert_array_equal(bits_a, decoded < 0)
    assert 0 < np.count_nonzero(bits_a != bits_b) < bits_b.size


def test_batch_csv_is_the_same_for_any_blas_thread_count(tmp_path):
    # the default config's gaussian rows are 4k = 40000-entry vectors, long
    # enough for a threaded BLAS to split a dot product; the bytes must not
    # depend on how many threads OpenBLAS uses
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    outs = []
    for name, threads in (("one", {"OPENBLAS_NUM_THREADS": "1"}),
                          ("default", {})):
        outs.append(tmp_path / name)
        proc = subprocess.run(
            [sys.executable, "-m", "dmcvqkd.cli", "simulate", "--batch-csv",
             "--out", str(outs[-1])],
            env={**env, **threads, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == EXIT_NO_KEY, proc.stderr
    assert (outs[0] / "batch.csv").read_bytes() == \
        (outs[1] / "batch.csv").read_bytes()


def test_batch_csv_is_written_only_on_request(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    for name, extra in (("default", []), ("flag", ["--batch-csv"])):
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / name)] + extra) == EXIT_NO_KEY
    others = sorted(set(SIM_FILES) - {"batch.csv"})
    assert sorted(p.name for p in (tmp_path / "default").iterdir()) == others
    assert sorted(p.name for p in (tmp_path / "flag").iterdir()) == \
        sorted(SIM_FILES)
    # the rotation that batch.csv shows moves no other output
    for out in others:
        want = (tmp_path / "default" / out).read_bytes()
        assert (tmp_path / "flag" / out).read_bytes() == want, out
    # batch.csv holds the symmetrized gaussian records
    seed = SIM_BASE["seed"]
    batch = simulate_rounds(cli._protocol_params(RunConfig(**SIM_BASE)), seed)
    rot = OrthogonalTransform.random(4 * SIM_BASE["k"], (seed, 1))
    want = apply_symmetrization(apply_symmetrization(batch, rot, "alice"),
                                rot, "bob")
    back = import_batch(tmp_path / "flag" / "batch.csv")
    for name in ("alice_x", "alice_p", "bob_x", "bob_p"):
        np.testing.assert_array_equal(getattr(back, name), getattr(want, name))
    np.testing.assert_array_equal(back.roles, role_codes(want.counts))


def test_simulate_transcript_contents(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    header, rows = read_csv(tmp_path / "transcript.csv")
    row = dict(zip(header, rows[0]))
    assert row["pe_verdict"] == "pass"          # honest channel
    assert row["ec_verified"] == "1"
    assert row["energy_passed"] == "1"
    assert row["xi_nominal"] == row["xi_actual"]
    assert "workers" not in header  # scheduling detail, not transcript data
    # this operating point is too small for a key: exit 2, no key bits
    assert rc == EXIT_NO_KEY and row["exit_code"] == "2"
    _, key_rows = read_csv(tmp_path / "key.csv")
    assert key_rows == []


@pytest.mark.parametrize("config", [{}, {**SIM_BASE, "xi_actual": 0.5}],
                         ids=["default", "sim-base-xi0.5"])
def test_sigma_hat_are_the_pe_statistics_per_mode(tmp_path, config):
    # transcript.csv's sigma_hat and pe.csv's gammas come from the one
    # Wishart draw W of the 2k gaussian modes
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    header, rows = read_csv(tmp_path / "transcript.csv")
    row = dict(zip(header, rows[0]))
    cfg = config_from_dict(config)
    params = cli._protocol_params(cfg).with_xi(float(row["xi_actual"]))
    totals = simulate_rounds(params, cfg.seed, rows=False).gram
    for name, total in zip("abc", totals):
        assert float(row[f"sigma_hat_{name}"]) == total / (2 * cfg.k)
    header, rows = read_csv(tmp_path / "pe.csv")
    gammas = gamma_estimates(*totals, cfg.k, resolve_budget(cfg).eps_pe)
    assert [float(rows[0][header.index(f"gamma_{name}")])
            for name in "abc"] == list(gammas)


@pytest.mark.parametrize("config", [{}, {**SIM_BASE, "xi_actual": 0.5}],
                         ids=["default", "sim-base-xi0.5"])
def test_batch_csv_gaussian_rows_reproduce_the_pe_totals(tmp_path, config):
    # the exported gaussian block gives back the W that pe.csv and
    # transcript.csv were computed from, to rounding
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    cli.main(["simulate", "--config", str(path), "--out", str(tmp_path),
              "--batch-csv"])
    back = import_batch(tmp_path / "batch.csv")
    g = back.roles == 2
    ax, ap, bx, bp = (getattr(back, name)[g]
                      for name in ("alice_x", "alice_p", "bob_x", "bob_p"))
    exported = (float(np.sum(ax * ax) + np.sum(ap * ap)),
                float(np.sum(bx * bx) + np.sum(bp * bp)),
                float(np.sum(ax * bx) - np.sum(ap * bp)))
    cfg = config_from_dict(config)
    header, rows = read_csv(tmp_path / "transcript.csv")
    row = dict(zip(header, rows[0]))
    params = cli._protocol_params(cfg).with_xi(float(row["xi_actual"]))
    gram = simulate_rounds(params, cfg.seed, rows=False).gram
    assert ax.size == 2 * cfg.k
    for name, got, want in zip("abc", exported, gram):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert got / (2 * cfg.k) == pytest.approx(
            float(row[f"sigma_hat_{name}"]), rel=1e-12, abs=0.0)


# the README's benign config holds 2(n + m + k) = 4.2e9 rounds with
# --batch-csv, 125 GiB; a plain run streams its key rounds and fits, so the
# plain case takes m = 1e8 decoy rounds, which a plain run holds: 6 GiB.
# With n = 1e12 the per-block bits alone need 29 GiB
@pytest.mark.parametrize("config, flags, fields",
                         [(dict(BENIGN, m=100_000_000), [], "'n', 'm'"),
                          (BENIGN, ["--batch-csv"], "'n', 'm', 'k'"),
                          (dict(BENIGN, n=10**12), [], "'n', 'm'")],
                         ids=["plain", "batch-csv", "plain-blocks"])
def test_simulate_beyond_the_address_space_limit_exits_1_by_name(
        tmp_path, config, flags, fields):
    # with RLIMIT_AS at 2 GB, set in the child only, the first record
    # allocation fails before it touches memory, and simulate exits 1 by
    # name without writing anything
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = ("import resource, sys, time; "
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]; "
            "resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, hard)); "
            "from dmcvqkd import cli; start = time.perf_counter(); "
            "code = cli.main(sys.argv[1:]); "
            "print(time.perf_counter() - start); sys.exit(code)")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, "simulate", "--config", str(path),
         "--out", str(tmp_path / "out")] + flags,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == EXIT_ERROR, proc.stderr
    assert proc.stderr.startswith(f"error: config field {fields}: ")
    assert "RLIMIT_AS" in proc.stderr and "Traceback" not in proc.stderr
    assert float(proc.stdout) < 1.0
    assert not (tmp_path / "out").exists()


def test_simulate_memory_error_exits_1_by_name(tmp_path, capsys,
                                               monkeypatch):
    # an allocation that fails without an address-space limit names the
    # fields too
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "simulate_rounds", no_memory)
    rc = cli.main(["simulate", "--out", str(tmp_path), "--batch-csv"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'n', 'm', 'k': simulate "
                          "holds 54768 rounds")


def test_simulate_success_branch_writes_the_hashed_key(tmp_path,
                                                       monkeypatch):
    # no config this simulator can run gives l > 0 (ROADMAP item 6), so a
    # positive key length is stubbed in; the default config passes PE, the
    # hash check and the energy test
    real = cli.key_length

    def positive(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, l=200.5, feasible=True)

    monkeypatch.setattr(cli, "key_length", positive)
    assert cli.main(["simulate", "--out", str(tmp_path)]) == EXIT_OK
    header, rows = read_csv(tmp_path / "transcript.csv")
    assert dict(zip(header, rows[0]))["exit_code"] == "0"
    # Bob's block signs, hashed to int(l) = 200 of the 4n/k_rep = 256 bits
    cfg = RunConfig()
    batch = simulate_rounds(cli._protocol_params(cfg), cfg.seed)
    key = batch.role_indices(ROLE_KEY)
    y_hard, _, _ = repetition_reconcile(
        interleave(batch.bob_x[key], batch.bob_p[key]), cfg.k_rep)
    bits_b = (y_hard < 0).astype(np.uint8)
    assert bits_b.size == 4 * cfg.n // cfg.k_rep == 256
    want = toeplitz_hash_direct(bits_b, (cfg.seed, 4), 200)
    _, key_rows = read_csv(tmp_path / "key.csv")
    assert [int(bit) for bit, in key_rows] == want.tolist()


def test_simulate_adversarial_noise_aborts(tmp_path):
    cfg = write_config(tmp_path, "c.json", xi_actual=0.6)
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_NO_KEY
    header, rows = read_csv(tmp_path / "transcript.csv")
    row = dict(zip(header, rows[0]))
    assert row["pe_verdict"] == "abort"
    assert row["xi_nominal"] != row["xi_actual"]


def test_simulate_block_length_must_divide(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", n=500)  # 2000 % 64 != 0
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_ERROR
    assert "k_rep" in capsys.readouterr().err


def test_simulate_energy_test_needs_decoy_modes(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", k_test=300)  # > 2m = 200
    rc = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_ERROR
    assert "k_test" in capsys.readouterr().err


def test_validate_bounds_cli(tmp_path):
    rc = cli.main(["validate-bounds", "--out", str(tmp_path),
                   "--trials", "1000", "--seed", "5"])
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "bounds.csv")
    assert header == ("lemma", "k", "epsilon_or_x", "claimed", "observed",
                      "trials", "verdict")
    assert len(rows) == 14
    verdicts = {r[-1] for r in rows}
    assert verdicts <= {"ok", "regime-error"}


def test_validate_bounds_rejects_tiny_trial_count(tmp_path, capsys):
    rc = cli.main(["validate-bounds", "--out", str(tmp_path),
                   "--trials", "500"])
    assert rc == EXIT_ERROR
    assert "trials" in capsys.readouterr().err


def test_missing_config_file_is_an_error(tmp_path, capsys):
    rc = cli.main(["keyrate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path)])
    assert rc == EXIT_ERROR
    assert "error:" in capsys.readouterr().err


def test_help_documents_output_columns():
    for argv in (["--help"], ["sweep", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == EXIT_OK
    text = cli.build_parser().format_help()
    for name in ("keyrate.csv", "sweep.csv", "transcript.csv", "bounds.csv"):
        assert name in text
    assert "batch.csv (simulate --batch-csv only)" in text
    assert "exit" in text.lower() or "Exit" in text
