"""Command-line workflows: configs, exit codes, CSV outputs, determinism."""

import csv
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
from dmcvqkd.channel import apply_symmetrization, simulate_rounds
from dmcvqkd.errors import ConfigError
from dmcvqkd.rotations import OrthogonalTransform
from oracles import import_batch

SIM_BASE = {
    "alpha": 0.5, "T": 0.6, "xi": 0.05,
    "n": 512, "m": 100, "k": 2000,
    "k_rep": 64, "k_test": 150, "seed": 424242,
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


def test_config_unknown_field_named():
    with pytest.raises(ConfigError, match="unknown config field 'bogus'"):
        config_from_dict({"bogus": 1})


def test_validate_config_names_offending_field():
    with pytest.raises(ConfigError, match="'alpha'"):
        validate_config(RunConfig(alpha=-1.0))
    with pytest.raises(ConfigError, match="'n'"):
        validate_config(RunConfig(n=0))
    with pytest.raises(ConfigError, match="'log_base'"):
        validate_config(RunConfig(log_base="decimal"))
    with pytest.raises(ConfigError, match="'k'"):
        validate_config(RunConfig(k=1.5))
    with pytest.raises(ConfigError, match="'eps_total'"):
        validate_config(RunConfig(eps_total=None))


@pytest.mark.parametrize("field, value", [
    ("d_a", float("inf")),
    ("xi", 1e300),
    ("alpha", True),
    ("alpha", 1e300),
    ("xi", 1e150),
    ("xi_actual", 1e300),
    ("alpha", 0.001),
    ("alpha", 0.04),
])
def test_extreme_config_values_exit_1(tmp_path, capsys, field, value):
    # Infinity, bools and finite values outside [ALPHA_MIN, ALPHA_MAX] or
    # beyond XI_MAX are rejected by name before any computation could
    # overflow or lose its digits to cancellation
    cfg = write_config(tmp_path, "c.json", **{field: value})
    for command in ("keyrate", "simulate"):
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config field " + repr(field)), err


MALFORMED_VALUES = (math.inf, -math.inf, math.nan, 1e300, -1, 0, "x", [], {},
                    None, True)
NON_OBJECT_CONFIGS = ([], [SIM_BASE], "x", 1, 1e300, None, True)


@pytest.mark.parametrize("doc", [
    pytest.param(dict(SIM_BASE, **{field: value}), id=f"{field}={value!r}")
    for field in cli._FIELD_NAMES for value in MALFORMED_VALUES
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


@pytest.mark.parametrize("axis", cli.SWEEP_AXES)
@pytest.mark.parametrize("value", SWEEP_GRID_VALUES, ids=repr)
def test_sweep_point_never_raises_and_names_its_axis(tmp_path, capsys, axis,
                                                     value):
    # one odd grid value on each axis of SIM_BASE: an exit code instead of
    # an exception, and an error that names the axis
    cfg = write_config(tmp_path, "c.json")
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--axis", axis, "--grid", repr(value)])
    assert rc in (EXIT_OK, EXIT_ERROR, EXIT_NO_KEY)
    err = capsys.readouterr().err
    if rc == EXIT_ERROR:
        assert repr(axis) in err, err


def test_cli_import_skips_scipy_stats():
    # the calibration quantiles come from scipy.special, so starting the
    # CLI does not pay for importing scipy.stats
    code = "import sys, dmcvqkd.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_sweep_rejects_non_finite_grid_point(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json")
    rc = cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                   "--axis", "d_b", "--grid", "1,inf"])
    assert rc == EXIT_ERROR
    assert "'d_b'" in capsys.readouterr().err


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
    cfg.write_text(json.dumps({
        "alpha": 0.5, "T": 0.5, "xi": 0.01, "beta": 0.95,
        "n": 100_000_000, "m": 1000, "k": 2_000_000_000,
        "eps_pe": 1e-10, "eps_sm": 1e-10, "eps_ent": 1e-10,
        "eps_cor": 1e-10, "delta_ent_mode": "derived",
    }))
    rc = cli.main(["keyrate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == EXIT_OK
    header, rows = read_csv(tmp_path / "keyrate.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["l"]) == pytest.approx(1325284.0394804422, rel=1e-9)
    assert row["feasible"] == "1"
    assert row["delta_ent_mode"] == "derived"


def test_keyrate_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "c.json")
    rc = cli.main(["keyrate", "--config", cfg, "--out", str(tmp_path),
                   "--delta-ent-mode", "derived"])
    assert rc in (EXIT_OK, EXIT_NO_KEY)
    header, rows = read_csv(tmp_path / "keyrate.csv")
    assert dict(zip(header, rows[0]))["delta_ent_mode"] == "derived"


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
    for name in ("alice_x", "alice_p", "bob_x", "bob_p", "roles"):
        np.testing.assert_array_equal(getattr(back, name), getattr(want, name))


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
    text = cli.build_parser().format_help()
    for name in ("keyrate.csv", "sweep.csv", "transcript.csv", "bounds.csv"):
        assert name in text
    assert "batch.csv (simulate --batch-csv only)" in text
    assert "exit" in text.lower() or "Exit" in text
