"""Command-line workflows: configs, exit codes, CSV outputs, determinism."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
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
    CHUNK_ROUNDS,
    ROLE_KEY,
    ProtocolParams,
    QuadratureBatch,
    gaussian_gram,
    gaussian_rows,
    interleave,
    simulate_rounds,
)
from dmcvqkd.definetti import truncation_epsilon
from dmcvqkd.errors import ConfigError
from dmcvqkd.pe import gamma_estimates
from dmcvqkd.reconciliation import repetition_decode, repetition_reconcile
from oracles import (
    export_batch_rows,
    import_batch,
    role_codes,
    toeplitz_hash_direct,
)

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
    ({"k_test": 2001}, "'k_test': 2001 exceeds the 2m = 2000 decoy modes"),
    ({"k": 2 ** 50 + 1}, "'k': must be at most 2**50"),
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
    ("n", 2 ** 50 + 1),
    *(pytest.param(field, 10 ** 80, id=f"{field}-10**80")
      for field in ("n", "m", "k")),
    pytest.param("n", 10 ** 400, id="n-10**400"),
])
def test_extreme_config_values_exit_1(tmp_path, capsys, field, value):
    # Infinity, bools, finite values outside [ALPHA_MIN, ALPHA_MAX] or
    # beyond XI_MAX and round counts beyond ROUNDS_MAX are rejected by name
    # before any computation could overflow or lose its digits to
    # cancellation, by every subcommand; an eps_pe outside the estimator
    # regime is named when the regime check fails, which validate-bounds
    # does not make
    cfg = write_config(tmp_path, "c.json", **{field: value})
    regime = field in ("eps_pe", "eps_total")
    for command in ("keyrate", "simulate") + (() if regime
                                              else ("validate-bounds",)):
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


@pytest.mark.parametrize("overrides, message", [
    ({"k": 100},
     "error: config field 'eps_total': eps_pe = eps_total/4 = 2.5e-10 with "
     "config field 'k' = 100 is outside the estimator regime (regime "
     "constraint fails at k=100, eps=2.5e-10: 6.30251e+09 > 2.52065)\n"),
    ({"k_test": 40},
     "error: config field 'k_test' = 40 with eps_total = 1e-09 is outside "
     "the energy test's regime (k=40 must exceed 2 ln(8/eps) = 45.6054)\n"),
], ids=["pe", "energy"])
def test_simulate_refuses_an_out_of_regime_config_before_it_draws(
        tmp_path, capsys, monkeypatch, overrides, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("simulate drew rounds for a refused config")

    monkeypatch.setattr(cli, "round_records", no_draw)
    monkeypatch.setattr(cli, "gaussian_gram", no_draw)
    cfg = write_config(tmp_path, "c.json", **overrides)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == message
    assert not out.exists()


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


def _csv_module_bytes(header, rows):
    """What csv.writer wrote for these rows when each cell was converted
    on its own: floats as %.17g, bools as 0/1, anything else as is."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([int(v) if isinstance(v, bool)
                      else f"{v:.17g}" if isinstance(v, float) else v
                      for v in row] for row in rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("rows", [
    [],
    [(0.1, np.float64(0.1), 1, True, "pass")],
    [(-0.0, np.float64(-0.0), 0, False, "abort"),
     (math.inf, np.float64(-math.inf), -7, True, "regime-error"),
     (math.nan, np.float64(math.nan), 10 ** 30, False, "T"),
     (1325284.039480323, np.float64(5e-324), 2 ** 53 + 1, True, "eps_pe"),
     (1e300, np.float64(2.5e-10), 4_000_000_000, False, "lemma1-upper")],
    [[1, 0.5, 0, 1e-9, "ok"], (2, 3.0, False, np.float64(1), "violated")],
], ids=["empty", "one", "extremes", "lists"])
def test_write_csv_bytes_are_the_csv_module_bytes(tmp_path, rows):
    # every cell type the CLI passes: Python and numpy floats, ints, bools
    # and plain-word strings
    header = ("a", "b", "c", "d", "e")
    cli._write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() == \
        _csv_module_bytes(header, rows)


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


def _base_value(axis):
    """The SIM_BASE value of a sweep axis, resolved where it is derived."""
    cfg = RunConfig(**SIM_BASE)
    value = getattr(cfg, axis)
    return getattr(resolve_budget(cfg), axis) if value is None else value


@pytest.mark.parametrize("axis", cli.SWEEP_AXES)
def test_sweep_rows_are_the_keyrate_rows(tmp_path, axis):
    # each point's cells after axis,value are the bytes keyrate writes
    # for the config that sets the axis to that value
    base = _base_value(axis)
    points = [int(base * f) if axis in cli._INT_FIELDS else base * f
              for f in (0.8, 0.9, 1.0)]
    cfg = write_config(tmp_path, "c.json")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--axis", axis, "--grid",
                     ",".join(repr(v) for v in points)]) != EXIT_ERROR
    lines = (tmp_path / "s" / "sweep.csv").read_bytes().splitlines()[1:]
    assert len(lines) == len(points)
    for i, (value, line) in enumerate(zip(points, lines)):
        out = tmp_path / f"k{i}"
        cli.main(["keyrate", "--config",
                  write_config(tmp_path, f"k{i}.json", **{axis: value}),
                  "--out", str(out)])
        keyrate_line = (out / "keyrate.csv").read_bytes().splitlines()[1]
        assert line.split(b",", 2) == [axis.encode(), b"%.17g" % value,
                                       keyrate_line]


def test_sweep_leaves_its_config_unchanged(tmp_path):
    cfg = RunConfig(**SIM_BASE, out=str(tmp_path))
    cli.run_sweep(cfg, "eps_pe", [1e-10, 1e-9])
    assert cfg == RunConfig(**SIM_BASE, out=str(tmp_path))


# (axis, value, config overrides): one value outside each axis's domain,
# epsilon components that sum to 1 or more, and a k and an eps_pe outside
# the estimator regime
SWEEP_BAD_VALUES = [
    ("alpha", 0.01, {}),
    ("alpha", math.nan, {}),
    ("T", 0.0, {}),
    ("xi", -1.0, {}),
    ("beta", 1.5, {}),
    ("n", 0, {}),
    ("k", 0, {}),
    ("eps_total", 1.0, {}),
    ("eps_total", 1e-3, {"eps_sm": 0.5, "eps_ent": 0.4999}),
    ("eps_pe", 0.0, {}),
    ("eps_pe", 0.5, {"eps_sm": 0.5}),
    ("eps_sm", math.inf, {}),
    ("eps_ent", 1.5, {}),
    ("eps_cor", 0.7, {"eps_pe": 0.4}),
    ("p_ec", 0.0, {}),
    ("eps_rob", 1.0, {}),
    ("k", 100, {}),
    ("eps_pe", 1e-300, {}),
]


@pytest.mark.parametrize("axis, value, config", SWEEP_BAD_VALUES)
def test_sweep_reports_a_bad_value_as_keyrate_does(tmp_path, capsys, axis,
                                                   value, config):
    assert {a for a, _, _ in SWEEP_BAD_VALUES} == set(cli.SWEEP_AXES)
    cfg = write_config(tmp_path, "c.json", **config)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--axis", axis, "--grid", repr(value)]) == EXIT_ERROR
    swept = capsys.readouterr().err
    point = write_config(tmp_path, "k.json", **config, **{axis: value})
    assert cli.main(["keyrate", "--config", point,
                     "--out", str(tmp_path / "k")]) == EXIT_ERROR
    assert swept == capsys.readouterr().err
    assert swept.startswith("error: config field "), swept
    assert not (tmp_path / "s").exists()


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


@pytest.mark.parametrize("n, k_rep", [
    (16384, 256), (12294, 24), (8193, 4), (8199, 3), (25000, 20000),
    (15000, 60000), (3, 4),
])
def test_key_parts_start_on_the_first_block_edge_after_a_chunk_edge(n,
                                                                   k_rep):
    # the parts tile the 2n key rounds on repetition-block edges (a block
    # spans k_rep / gcd(k_rep, 2) rounds); each chunk edge inside the key
    # rounds is followed by a part edge less than a block later, and no
    # part starts a block or more after its chunk's edge, so a part draws
    # less than one block of a chunk that another part draws
    step = k_rep // math.gcd(k_rep, 2)
    parts = list(cli._key_chunks(config_from_dict({"n": n, "k_rep": k_rep})))
    edges = [a for a, _ in parts] + [parts[-1][1]]
    assert edges[0] == 0 and edges[-1] == 2 * n
    assert [b for _, b in parts] == edges[1:]
    assert all(a < b and a % step == 0 for a, b in parts)
    for chunk_edge in range(CHUNK_ROUNDS, 2 * n, CHUNK_ROUNDS):
        assert any(chunk_edge <= e < chunk_edge + step for e in edges)
    assert all(a % CHUNK_ROUNDS < step for a, _ in parts)


def test_streamed_key_blocks_are_the_same_for_any_workers_and_the_rows(
        tmp_path, monkeypatch):
    # k_rep = 24: a block spans 12 modes, which does not divide
    # CHUNK_ROUNDS, so the 2n = 24588 key rounds stream in four parts whose
    # edges are the first block edges at or after the chunk edges
    config = dict(SIM_BASE, n=12294, k_rep=24)
    cfg = config_from_dict(config)
    assert list(cli._key_chunks(cfg)) == [(0, 8196), (8196, 16392),
                                          (16392, 24576), (24576, 24588)]
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


@pytest.mark.parametrize("command", ["simulate", "validate-bounds"])
def test_a_seed_of_2_to_the_64_is_refused_by_name(command, tmp_path,
                                                   capsys):
    # a seed is 64 bits: 2**64 used to overflow in simulate and to give
    # validate-bounds the streams of seed 0
    out = tmp_path / "out"
    assert cli.main([command, "--seed", str(2**64), "--out",
                     str(out)]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: config field 'seed': must be below 2**64, got "
        "18446744073709551616\n")
    assert not out.exists()
    with pytest.raises(ConfigError, match="'seed': must be below 2"):
        config_from_dict({"seed": 2**70})
    assert config_from_dict({"seed": 2**64 - 1}).seed == 2**64 - 1


def test_export_import_round_trip(tmp_path):
    params = ProtocolParams(alpha=0.5, T=0.5, xi=0.05, n=20, m=10, k=30)
    path = tmp_path / "batch.csv"
    cli.export_batch(params, path, 15, gaussian_rows(params, 15)[1])
    back = import_batch(path)
    batch = simulate_rounds(params, 15)
    for name in ("alice_x", "alice_p", "bob_x", "bob_p"):
        np.testing.assert_array_equal(getattr(back, name), getattr(batch, name))
    np.testing.assert_array_equal(back.roles, role_codes(batch.counts))


def assert_export_matches_reference(params, seed, tmp_path):
    """export_batch, which streams the key and decoy rounds, writes the
    bytes of the row-by-row reference on the whole batch."""
    cli.export_batch(params, tmp_path / "streamed.csv", seed,
                     gaussian_rows(params, seed)[1])
    batch = simulate_rounds(params, seed)
    export_batch_rows(batch, tmp_path / "rows.csv")
    got = (tmp_path / "streamed.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    return batch


def test_export_bytes_match_reference_across_chunks(tmp_path):
    params = ProtocolParams(alpha=0.5, T=0.5, xi=0.05, n=5000, m=1000, k=3000)
    batch = assert_export_matches_reference(params, 16, tmp_path)
    # every block ends inside a chunk, and the key block spans two
    assert all(c % CHUNK_ROUNDS for c in batch.counts)
    assert batch.counts[ROLE_KEY] > CHUNK_ROUNDS


@pytest.mark.parametrize("blocks", [dict(k=0), dict(n=0, m=0)],
                         ids=["no-gaussian", "gaussian-only"])
def test_export_bytes_match_reference_with_empty_blocks(tmp_path, blocks):
    params = dataclasses.replace(
        ProtocolParams(alpha=0.5, T=0.5, xi=0.05, n=40, m=30, k=50), **blocks)
    batch = assert_export_matches_reference(params, 17, tmp_path)
    assert 0 in batch.counts and batch.n_rounds > 0


def test_export_bytes_match_reference_on_extreme_values(tmp_path,
                                                        monkeypatch):
    # 4 key, 2 decoy and 6 gaussian rounds: the key and decoy rounds come
    # through cli.round_records, the gaussian ones through the argument
    big = 1.7976931348623157e308
    values = np.array([-0.0, 5e-324, big, -big, math.nan, math.inf, -math.inf,
                       0.1, 1.0 / 3.0, -2.0 / 3.0, 123456789.01234567, 1e-300])
    n = values.size
    records = (values, values[::-1].copy(), np.roll(values, 3),
               np.roll(values, 7))
    monkeypatch.setattr(cli, "round_records", lambda params, seed, start,
                        stop: tuple(r[start:stop] for r in records))
    params = ProtocolParams(alpha=0.5, T=0.5, xi=0.05, n=2, m=1, k=3)
    cli.export_batch(params, tmp_path / "streamed.csv", 0,
                     tuple(r[6:] for r in records))
    export_batch_rows(QuadratureBatch(*records, (4, 2, 6)),
                      tmp_path / "rows.csv")
    got = (tmp_path / "streamed.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    text = got.decode()
    assert text.count("\n") == n + 1 and "\r" not in text
    assert "\n0,key,-0,1e-300,-0.66666666666666663,inf\n" in text
    assert "\n4,decoy,nan," in text and "\n11,gaussian,1e-300," in text
    assert "4.9406564584124654e-324" in text and ",nan" in text
    assert "-1.7976931348623157e+308" in text


def test_export_of_empty_batch_is_header_only(tmp_path):
    # no key or decoy rounds, and no gaussian rows passed in
    params = ProtocolParams(alpha=0.5, T=0.5, xi=0.05, n=0, m=0, k=1)
    empty = np.zeros(0)
    cli.export_batch(params, tmp_path / "batch.csv", 0, (empty,) * 4)
    assert (tmp_path / "batch.csv").read_bytes() == \
        b"round,role,ax,ap,bx,bp\n"


def test_batch_csv_memory_does_not_grow_with_n(tmp_path):
    # batch.csv takes the key rounds from round_records a chunk at a time:
    # the traced peak of a run grows by less than 1 MiB from 2n = 8192 to
    # 2n = 131072 key rounds (it grew by 3.7 MiB while the run held them)
    peaks = []
    for n in (4096, 65536):
        cfg = RunConfig(n=n, out=str(tmp_path / f"n{n}"))
        tracemalloc.start()
        try:
            assert cli.run_simulate(cfg, batch_csv=True) == EXIT_NO_KEY
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_batch_csv_is_written_only_on_request(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    for name, extra in (("default", []), ("flag", ["--batch-csv"])):
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / name)] + extra) == EXIT_NO_KEY
    others = sorted(set(SIM_FILES) - {"batch.csv"})
    assert sorted(p.name for p in (tmp_path / "default").iterdir()) == others
    assert sorted(p.name for p in (tmp_path / "flag").iterdir()) == \
        sorted(SIM_FILES)
    # writing batch.csv moves no other output
    for out in others:
        want = (tmp_path / "default" / out).read_bytes()
        assert (tmp_path / "flag" / out).read_bytes() == want, out
    # batch.csv holds the rounds as simulate_rounds draws them
    want = simulate_rounds(cli._protocol_params(RunConfig(**SIM_BASE)),
                           SIM_BASE["seed"])
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
    totals = gaussian_gram(params, cfg.seed)
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
    gram = gaussian_gram(params, cfg.seed)
    assert ax.size == 2 * cfg.k
    for name, got, want in zip("abc", exported, gram):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert got / (2 * cfg.k) == pytest.approx(
            float(row[f"sigma_hat_{name}"]), rel=1e-12, abs=0.0)


# a plain run streams its key rounds and holds only the k_test decoy rounds
# of its energy test, so the plain case takes k_test = 2m = 2e8 of them:
# 6 GiB.  With n = 1e12 the per-block bits alone need 29 GiB.  With
# --batch-csv, the README's benign config also holds its 2k = 4e9 gaussian
# rounds and their frame, 238 GiB
@pytest.mark.parametrize("config, flags, fields",
                         [(dict(BENIGN, m=100_000_000, k_test=200_000_000),
                           [], "'n', 'k_test', 'k_rep'"),
                          (BENIGN, ["--batch-csv"],
                           "'n', 'k', 'k_test', 'k_rep'"),
                          (dict(BENIGN, n=10**12), [],
                           "'n', 'k_test', 'k_rep'")],
                         ids=["plain-decoys", "batch-csv", "plain-blocks"])
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

    monkeypatch.setattr(cli, "gaussian_rows", no_memory)
    rc = cli.main(["simulate", "--out", str(tmp_path), "--batch-csv"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'n', 'k', 'k_test', 'k_rep': "
                          "simulate holds 1000 decoy rounds, 20000 gaussian "
                          "rounds with their frame and the bits of 256 "
                          "blocks")
    assert not any(tmp_path.iterdir())


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
    want = toeplitz_hash_direct(bits_b, (cfg.seed, 8), 200)
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


@pytest.mark.parametrize("command", [
    ["keyrate"], ["sweep", "--axis", "T", "--grid", "0.5"], ["simulate"],
    ["validate-bounds", "--trials", "1000"],
], ids=lambda command: command[0])
def test_every_subcommand_refuses_more_energy_test_modes_than_decoys(
        tmp_path, capsys, command):
    # reduction.csv's photon cutoff is certified by an energy test on
    # k_test modes, and a run has only 2m decoy modes to test
    cfg = write_config(tmp_path, "c.json", k_test=201)  # > 2m = 200
    out = tmp_path / "out"
    rc = cli.main(command + ["--config", cfg, "--out", str(out)])
    assert rc == EXIT_ERROR
    assert capsys.readouterr().err == ("error: config field 'k_test': 201 "
                                       "exceeds the 2m = 200 decoy modes\n")
    assert not out.exists()


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
