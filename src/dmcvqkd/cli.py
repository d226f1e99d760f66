"""Command-line front end: config parsing, four workflows, CSV reports.

Subcommands: `keyrate` (analytic finite-size key length for one operating
point), `sweep` (keyrate along a grid of one numeric config field),
`simulate` (seeded end-to-end protocol run with transcript files), and
`validate-bounds` (Monte Carlo check of every concentration bound).

Configuration is a single flat JSON document; command-line flags override
file values.  Every output is CSV with a header row; column orders are
documented in `--help`.  Exit codes: 0 = feasible key / all bounds ok,
2 = no key, PE abort, or a violated bound, 1 = error.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import validate as validate_mod
from .channel import (
    ROLE_DECOY,
    ROLE_KEY,
    ProtocolParams,
    apply_symmetrization,
    empirical_sigma,
    export_batch,
    heterodyne_energy,
    interleave,
    pe_statistics,
    quadrant_bits,
    simulate_rounds,
    split_pe_sets,
)
from .definetti import (
    EnergyTestConfig,
    ReductionReport,
    energy_test,
    make_reduction_report,
)
from .errors import ConfigError, UnknownAxis
from .finitekey import (
    DELTA_ENT_MODES,
    KeyLengthReport,
    SecurityBudget,
    key_length,
    mle_entropy,
    universal_hash,
)
from .pe import LOG_BASES, calibrate_deltas, gamma_estimates, pe_decision
from .reconciliation import (
    hash_length,
    leak_model,
    repetition_decode,
    repetition_reconcile,
    snr,
    verify_hash,
)
from .rotations import OrthogonalTransform

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_KEY = 2


@dataclass
class RunConfig:
    """Flat run configuration; every field has a JSON key of the same name.

    `None` means "derive the documented default": epsilon components split
    the total budget equally, energy thresholds d_a/d_b default to three
    times the expected per-mode energies, eta to its feasibility boundary,
    and xi_actual (the channel truth used by `simulate`) to xi.  alpha lies
    in [ALPHA_MIN, ALPHA_MAX]; xi and xi_actual are capped at XI_MAX.
    """

    alpha: float = 0.5
    T: float = 0.5
    xi: float = 0.01
    beta: float = 0.95
    n: int = 16384
    m: int = 1000
    k: int = 10000
    eps_total: float = 1e-9
    eps_pe: Optional[float] = None
    eps_sm: Optional[float] = None
    eps_ent: Optional[float] = None
    eps_cor: Optional[float] = None
    p_ec: float = 0.99
    eps_rob: float = 1e-2
    k_test: int = 1000
    d_a: Optional[float] = None
    d_b: Optional[float] = None
    eta: Optional[float] = None
    k_rep: int = 256
    seed: int = 12345
    out: str = "."
    workers: int = 1
    trials: int = 100000
    log_base: str = "natural"
    delta_ent_mode: str = "paper"
    xi_actual: Optional[float] = None


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(RunConfig))

# numeric fields a sweep may scan; int fields get coerced per point
SWEEP_AXES = (
    "alpha", "T", "xi", "beta", "n", "m", "k",
    "eps_total", "eps_pe", "eps_sm", "eps_ent", "eps_cor",
    "p_ec", "eps_rob", "k_test", "d_a", "d_b", "eta", "k_rep",
)
_INT_FIELDS = ("n", "m", "k", "k_test", "k_rep", "seed", "workers", "trials")
_FLOAT_FIELDS = (
    "alpha", "T", "xi", "beta", "eps_total", "eps_pe", "eps_sm", "eps_ent",
    "eps_cor", "p_ec", "eps_rob", "d_a", "d_b", "eta", "xi_actual",
)
# Lower limit of the amplitude.  The closed-form lambda_2 and lambda_3
# cancel at small alpha: against 50-digit arithmetic every weight is within
# 4.2e-9 relative error from 0.05 on, lambda_3 is off by 1.8e-8 at 0.04 and
# 1e-7 at 0.03, and at 1e-3 it comes out negative.
ALPHA_MIN = 0.05
# Upper limits of the amplitude and of the excess noise (xi and xi_actual,
# shot-noise units).  Far beyond any key-producing point, they keep V_A =
# 2 alpha^2 and the squared symplectic eigenvalues (fourth powers of the
# covariance entries) finite and free of cancellation, so larger values are
# rejected here by name instead of failing downstream.
ALPHA_MAX = 1e3
XI_MAX = 1e6
# fields whose None default means "derive it"; every other field needs a value
_OPTIONAL_FIELDS = tuple(
    f.name for f in dataclasses.fields(RunConfig) if f.default is None
)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object with flat keys")
    for key in data:
        if key not in _FIELD_NAMES:
            raise ConfigError(f"unknown config field {key!r}")
    cfg = RunConfig(**data)
    validate_config(cfg)
    return cfg


def config_from_json(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def config_to_json(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"config field {field!r}: {message}")


def _is_finite_number(val) -> bool:
    """True for an int or float that is finite as a float; False for bools."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an int beyond the float range
        return False


def validate_config(cfg: RunConfig) -> None:
    """Domain-check every field, naming the offender in the message."""
    for name in _FLOAT_FIELDS:
        val = getattr(cfg, name)
        if val is None and name in _OPTIONAL_FIELDS:
            continue
        _require(_is_finite_number(val), name,
                 f"must be a finite number, got {val!r}")
    _require(ALPHA_MIN <= cfg.alpha <= ALPHA_MAX, "alpha",
             f"must lie in [{ALPHA_MIN:g}, {ALPHA_MAX:g}], got {cfg.alpha!r}")
    _require(0 < cfg.T <= 1, "T", f"must lie in (0, 1], got {cfg.T!r}")
    _require(0 <= cfg.xi <= XI_MAX, "xi",
             f"must lie in [0, {XI_MAX:g}], got {cfg.xi!r}")
    _require(0 < cfg.beta <= 1, "beta",
             f"must lie in (0, 1], got {cfg.beta!r}")
    for name in _INT_FIELDS:
        val = getattr(cfg, name)
        _require(isinstance(val, int) and not isinstance(val, bool),
                 name, f"must be an integer, got {val!r}")
    for name in ("n", "m", "k", "k_test", "k_rep", "workers"):
        _require(getattr(cfg, name) >= 1, name, "must be >= 1")
    _require(cfg.trials >= 1, "trials", "must be >= 1")
    _require(cfg.seed >= 0, "seed", "must be a non-negative integer")
    for name in ("eps_total", "eps_pe", "eps_sm", "eps_ent", "eps_cor"):
        val = getattr(cfg, name)
        if val is not None:
            _require(0 < val < 1, name, f"must lie in (0, 1), got {val!r}")
    _require(0 < cfg.p_ec <= 1, "p_ec", f"must lie in (0, 1], got {cfg.p_ec!r}")
    _require(0 < cfg.eps_rob < 1, "eps_rob",
             f"must lie in (0, 1), got {cfg.eps_rob!r}")
    for name in ("d_a", "d_b"):
        val = getattr(cfg, name)
        if val is not None:
            _require(val > 0, name, f"must be positive, got {val!r}")
    if cfg.eta is not None:
        _require(0 <= cfg.eta < 1, "eta",
                 f"must lie in [0, 1), got {cfg.eta!r}")
    if cfg.xi_actual is not None:
        _require(0 <= cfg.xi_actual <= XI_MAX, "xi_actual",
                 f"must lie in [0, {XI_MAX:g}], got {cfg.xi_actual!r}")
    _require(cfg.log_base in LOG_BASES, "log_base",
             f"must be one of {LOG_BASES}, got {cfg.log_base!r}")
    _require(cfg.delta_ent_mode in DELTA_ENT_MODES, "delta_ent_mode",
             f"must be one of {DELTA_ENT_MODES}, got {cfg.delta_ent_mode!r}")
    _require(isinstance(cfg.out, str) and cfg.out != "", "out",
             "must be a non-empty path string")


def resolve_budget(cfg: RunConfig) -> SecurityBudget:
    quarter = cfg.eps_total / 4.0
    return SecurityBudget(
        eps_pe=cfg.eps_pe if cfg.eps_pe is not None else quarter,
        eps_sm=cfg.eps_sm if cfg.eps_sm is not None else quarter,
        eps_ent=cfg.eps_ent if cfg.eps_ent is not None else quarter,
        eps_cor=cfg.eps_cor if cfg.eps_cor is not None else quarter,
        p_ec=cfg.p_ec,
        eps_rob=cfg.eps_rob,
    )


def resolve_energy_thresholds(cfg: RunConfig) -> tuple:
    """(d_a, d_b): configured values or 3x the expected per-mode energy."""
    v_a = 2.0 * cfg.alpha * cfg.alpha
    d_a = cfg.d_a if cfg.d_a is not None else 3.0 * v_a / 2.0
    d_b = cfg.d_b if cfg.d_b is not None else \
        3.0 * cfg.T * (v_a + cfg.xi) / 2.0
    return d_a, d_b


def _protocol_params(cfg: RunConfig) -> ProtocolParams:
    return ProtocolParams(alpha=cfg.alpha, T=cfg.T, xi=cfg.xi,
                          n=cfg.n, m=cfg.m, k=cfg.k)


def _keyrate_chain(cfg: RunConfig, budget: SecurityBudget):
    """Analytic composition: calibrated thresholds -> worst case -> l.

    The accepted worst-case covariance corner is exactly the decision
    thresholds (an accepted run certifies nothing stronger), and the
    empirical entropy is taken at its modulation value of 1 bit per
    quadrature sign.
    """
    params = _protocol_params(cfg)
    deltas = calibrate_deltas(cfg.alpha, cfg.T, cfg.xi, cfg.k,
                              budget.eps_pe, budget.eps_rob, cfg.log_base)
    v = params.v_a + 1.0
    always_pass = (float("-inf"), float("-inf"), float("inf"))
    region = pe_decision(always_pass, v, cfg.T, cfg.xi, deltas,
                         budget.eps_pe)
    s = snr(params.v_a, cfg.T, cfg.xi)
    leak = leak_model(2 * cfg.n, cfg.beta, s, budget.eps_cor)
    report = key_length(params, budget, 1.0, region.worst_case_covariance(),
                        leak, cfg.delta_ent_mode)
    return params, region, report


def _energy_config(cfg: RunConfig, budget: SecurityBudget) -> EnergyTestConfig:
    d_a, d_b = resolve_energy_thresholds(cfg)
    return EnergyTestConfig(k_test=cfg.k_test, d_a=d_a, d_b=d_b,
                            eps_test=budget.eps_total)


def _reduction(cfg: RunConfig, budget: SecurityBudget) -> ReductionReport:
    n_modes = 2 * (cfg.n + cfg.m + cfg.k)
    return make_reduction_report(n_modes, _energy_config(cfg, budget),
                                 budget.eps_total, cfg.eta)


def _cell(value):
    """A CSV cell: floats as %.17g (they read back exactly), bools as 0/1."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_keyrate(cfg: RunConfig) -> int:
    budget = resolve_budget(cfg)
    _, _, report = _keyrate_chain(cfg, budget)
    reduction = _reduction(cfg, budget)
    out = _outdir(cfg)
    _write_csv(out / "keyrate.csv", KeyLengthReport.CSV_HEADER,
               [astuple(report)])
    _write_csv(out / "reduction.csv", ReductionReport.CSV_HEADER,
               [astuple(reduction)])
    status = "feasible" if report.feasible else "no key"
    print(f"l = {report.l:.6g} bits over {report.modes} key modes "
          f"({status}); wrote keyrate.csv, reduction.csv to {out}")
    return EXIT_OK if report.feasible else EXIT_NO_KEY


def parse_grid(text: str) -> list:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"grid must be comma-separated numbers: {exc}")
    if not values:
        raise ConfigError("grid must contain at least one value")
    return values


def run_sweep(cfg: RunConfig, axis: str, grid: list) -> int:
    if axis not in SWEEP_AXES:
        raise UnknownAxis(
            f"axis {axis!r} is not a numeric config field; "
            f"choose one of {SWEEP_AXES}"
        )
    rows = []
    any_feasible = False
    for value in grid:
        if axis in _INT_FIELDS:
            if not value.is_integer():
                raise ConfigError(
                    f"axis {axis!r} needs integer grid points, got {value!r}"
                )
            value = int(value)
        point = dataclasses.replace(cfg, **{axis: value})
        validate_config(point)
        try:
            _, _, report = _keyrate_chain(point, resolve_budget(point))
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"axis {axis!r} at {float(value)!r}: "
                              f"{type(exc).__name__}: {exc}") from None
        any_feasible = any_feasible or report.feasible
        rows.append((axis, float(value)) + astuple(report))
    out = _outdir(cfg)
    _write_csv(out / "sweep.csv", ("axis", "value") + KeyLengthReport.CSV_HEADER,
               rows)
    print(f"swept {axis} over {len(grid)} points; "
          f"{'some' if any_feasible else 'no'} feasible points; "
          f"wrote sweep.csv to {out}")
    return EXIT_OK if any_feasible else EXIT_NO_KEY


PE_HEADER = ("gamma_a", "gamma_b", "gamma_c", "sigma_a_max", "sigma_b_max",
             "sigma_c_min", "delta_a", "delta_b", "delta_c", "epsilon_pe",
             "verdict")
EC_HEADER = ("n_values", "k_rep", "blocks", "disclosed_bits", "hash_bits",
             "block_errors", "verified")
ENERGY_HEADER = ("k_test", "d_a", "d_b", "mean_energy_a", "mean_energy_b",
                 "passed")
TRANSCRIPT_HEADER = ("seed", "n", "m", "k", "xi_nominal", "xi_actual",
                     "sigma_hat_a", "sigma_hat_b", "sigma_hat_c",
                     "pe_verdict", "ec_verified", "energy_passed", "l",
                     "feasible", "exit_code")


def run_simulate(cfg: RunConfig, batch_csv: bool = False) -> int:
    budget = resolve_budget(cfg)
    if (4 * cfg.n) % cfg.k_rep != 0:
        raise ConfigError(
            f"config field 'n': 4n = {4 * cfg.n} raw values must be a "
            f"multiple of k_rep = {cfg.k_rep}"
        )
    if cfg.k_test > 2 * cfg.m:
        raise ConfigError(
            f"config field 'k_test': {cfg.k_test} exceeds the 2m = "
            f"{2 * cfg.m} decoy modes"
        )
    xi_true = cfg.xi if cfg.xi_actual is None else cfg.xi_actual
    params = _protocol_params(cfg)
    batch = simulate_rounds(params.with_xi(xi_true), cfg.seed,
                            workers=cfg.workers)

    # R on Alice's gaussian records and S R S on Bob's leave ||X||^2, ||Y||^2
    # and the signed <X, Y> unchanged (rotations.apply_conjugate), so the
    # statistics are taken before the symmetrization; it is only carried
    # out for batch.csv
    sigma_hat = empirical_sigma(batch)

    norm_x2, norm_y2, ip_xy = pe_statistics(split_pe_sets(batch, cfg.k))
    gammas = gamma_estimates(norm_x2, norm_y2, ip_xy, cfg.k, budget.eps_pe,
                             cfg.log_base)
    deltas = calibrate_deltas(cfg.alpha, cfg.T, cfg.xi, cfg.k, budget.eps_pe,
                              budget.eps_rob, cfg.log_base)
    region = pe_decision(gammas, params.v_a + 1.0, cfg.T, cfg.xi, deltas,
                         budget.eps_pe)

    kidx = batch.role_indices(ROLE_KEY)
    quad = quadrant_bits(batch.alice_x[kidx], batch.alice_p[kidx])
    h_mle = mle_entropy(np.bincount(quad, minlength=4)) / 2.0

    # reverse reconciliation on the interleaved key-quadrature stream
    stream_b = interleave(batch.bob_x[kidx], batch.bob_p[kidx])
    stream_a = interleave(batch.alice_x[kidx], batch.alice_p[kidx])
    y_hard, side, disclosed = repetition_reconcile(stream_b, cfg.k_rep)
    decoded = repetition_decode(stream_a, side, cfg.k_rep)
    block_errors = int(np.count_nonzero(decoded != y_hard))
    bits_b = (y_hard < 0).astype(np.uint8)
    bits_a = (decoded < 0).astype(np.uint8)
    verified = verify_hash(bits_a, bits_b, budget.eps_cor,
                           seed=(cfg.seed, 2))
    leak_ec = float(disclosed + hash_length(budget.eps_cor))

    # energy test on the first k_test decoy modes; Alice's record is the
    # sent amplitude, so its power is already a state-energy estimate
    didx = batch.role_indices(ROLE_DECOY)[: cfg.k_test]
    energy_a = 0.5 * (batch.alice_x[didx] ** 2 + batch.alice_p[didx] ** 2)
    energy_b = heterodyne_energy(batch.bob_x[didx], batch.bob_p[didx])
    etc = _energy_config(cfg, budget)
    energy_ok = energy_test(energy_a, energy_b, etc)

    report = key_length(params, budget, h_mle, region.worst_case_covariance(),
                        leak_ec, cfg.delta_ent_mode)
    reduction = _reduction(cfg, budget)

    success = (region.passed and verified and energy_ok and report.feasible)
    if success:
        key_bits = universal_hash(bits_b, (cfg.seed, 4), int(report.l))
    else:
        key_bits = np.zeros(0, dtype=np.uint8)
    code = EXIT_OK if success else EXIT_NO_KEY

    out = _outdir(cfg)
    if batch_csv:
        transform = OrthogonalTransform.random(4 * cfg.k, (cfg.seed, 1))
        batch = apply_symmetrization(batch, transform, "alice")
        batch = apply_symmetrization(batch, transform, "bob")
        export_batch(batch, out / "batch.csv")
    _write_csv(out / "pe.csv", PE_HEADER, [
        gammas + (region.sigma_a_max, region.sigma_b_max, region.sigma_c_min)
        + deltas + (budget.eps_pe, region.verdict)
    ])
    _write_csv(out / "ec.csv", EC_HEADER, [(
        stream_b.size, cfg.k_rep, y_hard.size, disclosed,
        hash_length(budget.eps_cor), block_errors, verified,
    )])
    # the thresholds may be ints from the config; %.17g prints them as floats
    _write_csv(out / "energy.csv", ENERGY_HEADER, [(
        cfg.k_test, float(etc.d_a), float(etc.d_b),
        float(np.mean(energy_a)), float(np.mean(energy_b)), energy_ok,
    )])
    _write_csv(out / "keylength.csv", KeyLengthReport.CSV_HEADER,
               [astuple(report)])
    _write_csv(out / "reduction.csv", ReductionReport.CSV_HEADER,
               [astuple(reduction)])
    _write_csv(out / "key.csv", ("bit",), key_bits.reshape(-1, 1).tolist())
    _write_csv(out / "transcript.csv", TRANSCRIPT_HEADER, [(
        cfg.seed, cfg.n, cfg.m, cfg.k, cfg.xi, xi_true,
        *sigma_hat, region.verdict, verified, energy_ok,
        report.l, report.feasible, code,
    )])
    print(f"simulate: pe={region.verdict} ec_verified={verified} "
          f"energy={'pass' if energy_ok else 'fail'} l={report.l:.6g} "
          f"-> exit {code}; transcript in {out}")
    return code


def run_validate_bounds(cfg: RunConfig) -> int:
    if cfg.trials < 1000:
        raise ConfigError(
            f"config field 'trials': need >= 1000 for stable frequencies, "
            f"got {cfg.trials!r}"
        )
    rows = validate_mod.run_all(cfg.seed, cfg.trials, cfg.log_base)
    out = _outdir(cfg)
    _write_csv(out / "bounds.csv", validate_mod.BoundRow.CSV_HEADER,
               [astuple(r) for r in rows])
    checked = [r for r in rows if r.verdict != "regime-error"]
    ok = sum(1 for r in checked if r.verdict == "ok")
    print(f"validated {ok}/{len(checked)} bounds ok "
          f"({len(rows) - len(checked)} regime-edge rows); "
          f"wrote bounds.csv to {out}")
    return EXIT_OK if ok == len(checked) else EXIT_NO_KEY


def _csv_docs() -> str:
    lines = ["emitted CSV files (fixed column order):"]
    for name, header in (
        ("keyrate.csv", KeyLengthReport.CSV_HEADER),
        ("reduction.csv", ReductionReport.CSV_HEADER),
        ("sweep.csv", ("axis", "value") + KeyLengthReport.CSV_HEADER),
        ("batch.csv (simulate --batch-csv only)",
         ("round", "role", "ax", "ap", "bx", "bp")),
        ("pe.csv", PE_HEADER),
        ("ec.csv", EC_HEADER),
        ("energy.csv", ENERGY_HEADER),
        ("keylength.csv", KeyLengthReport.CSV_HEADER),
        ("key.csv", ("bit",)),
        ("transcript.csv", TRANSCRIPT_HEADER),
        ("bounds.csv", validate_mod.BoundRow.CSV_HEADER),
    ):
        lines.append(f"  {name}: {', '.join(header)}")
    return "\n".join(lines)


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH",
                     help="flat JSON config file; flags override its values")
    sub.add_argument("--seed", type=int, help="base seed (64-bit)")
    sub.add_argument("--out", metavar="DIR", help="output directory")
    sub.add_argument("--trials", type=int,
                     help="Monte Carlo trials for validate-bounds")
    sub.add_argument("--log-base", choices=LOG_BASES, dest="log_base",
                     help="deviation-term log convention")
    sub.add_argument("--delta-ent-mode", choices=DELTA_ENT_MODES,
                     dest="delta_ent_mode",
                     help="entropy-accumulation penalty variant")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmcvqkd",
        description="Finite-size security calculator and protocol simulator "
                    "for four-state discrete-modulation CV-QKD.",
        epilog=_csv_docs(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_key = sub.add_parser(
        "keyrate", help="analytic finite-size key length for one config",
        epilog=_csv_docs(), formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common_flags(p_key)

    p_sweep = sub.add_parser(
        "sweep", help="keyrate along a grid of one numeric config field",
        epilog=_csv_docs(), formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         help=f"config field to scan; one of {SWEEP_AXES}")
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated grid values")

    p_sim = sub.add_parser(
        "simulate", help="seeded end-to-end protocol run with transcript",
        epilog=_csv_docs(), formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common_flags(p_sim)
    p_sim.add_argument("--batch-csv", action="store_true",
                       help="also write the symmetrized rounds to batch.csv")

    p_val = sub.add_parser(
        "validate-bounds", help="Monte Carlo check of every tail bound",
        epilog=_csv_docs(), formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common_flags(p_val)

    return parser


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    overrides = {}
    for name in ("seed", "out", "trials", "log_base", "delta_ent_mode"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_json(args.config) if args.config else RunConfig()
        cfg = _merge_flags(cfg, args)
        if args.command == "keyrate":
            return run_keyrate(cfg)
        if args.command == "sweep":
            return run_sweep(cfg, args.axis, parse_grid(args.grid))
        if args.command == "simulate":
            return run_simulate(cfg, args.batch_csv)
        return run_validate_bounds(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ArithmeticError as exc:
        # a finite but extreme config value can overflow a float downstream
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
