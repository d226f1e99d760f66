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
import functools
import json
import math
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import validate as validate_mod
from .channel import (
    CHUNK_ROUNDS,
    ROLE_DECOY,
    ProtocolParams,
    apply_symmetrization,
    export_batch,
    heterodyne_energy,
    quadrant_bits,
    round_records,
    simulate_rounds,
    # unused here since the statistics come from the Wishart draw; the
    # traced `simulate` benchmark still wraps cli.split_pe_sets (ROADMAP
    # item 10)
    split_pe_sets,
)
from .definetti import (
    EnergyTestConfig,
    ReductionReport,
    energy_test,
    make_reduction_report,
)
from .errors import ConfigError, RegimeError, UnknownAxis
from .finitekey import (
    KeyLengthReport,
    SecurityBudget,
    key_length,
    mle_entropy,
    universal_hash,
)
from .parallel import run_parts
from .pe import calibrate_deltas, gamma_estimates, pe_decision
from .reconciliation import (
    hash_length,
    leak_model,
    repetition_bits,
    # unused here since repetition_bits reduces the key blocks; the traced
    # `simulate` benchmark still wraps both names on cli
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
    the total budget equally, xi_actual (the channel truth used by
    `simulate`) to xi, and workers (threads; never affects outputs) to
    every usable core.  alpha lies in [ALPHA_MIN, ALPHA_MAX]; xi and
    xi_actual are capped at XI_MAX, workers at WORKERS_MAX.  The reduction
    takes no setting: d_A and d_B are 3x the expected per-mode energies,
    and eta is the smallest value that admits the certified cutoff.
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
    k_rep: int = 256
    seed: int = 12345
    out: str = "."
    workers: Optional[int] = None
    trials: int = 100000
    # only "derived"; perfbench/workloads.py still sets it (ROADMAP item 10)
    delta_ent_mode: str = "derived"
    xi_actual: Optional[float] = None


_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(RunConfig))

# numeric fields a sweep may scan; int fields get coerced per point
SWEEP_AXES = (
    "alpha", "T", "xi", "beta", "n", "k",
    "eps_total", "eps_pe", "eps_sm", "eps_ent", "eps_cor", "p_ec", "eps_rob",
)
# in field order, so the first bad field of a config is the one named
_INT_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig)
                    if f.type in ("int", "Optional[int]"))
_FLOAT_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig)
                      if f.type in ("float", "Optional[float]"))
_EPS_COMPONENTS = ("eps_pe", "eps_sm", "eps_ent", "eps_cor")
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
# Upper limit of the thread count: far above any core count this package
# can use, it keeps a typo from asking for millions of threads.
WORKERS_MAX = 256
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


def _require(cond: bool, field: str, message: str, *args) -> None:
    """Raise ConfigError naming `field`; `message.format(*args)` is built
    only when the check fails, since most calls pass."""
    if not cond:
        raise ConfigError(f"config field {field!r}: {message.format(*args)}")


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
                 "must be a finite number, got {!r}", val)
    _require(ALPHA_MIN <= cfg.alpha <= ALPHA_MAX, "alpha",
             "must lie in [{:g}, {:g}], got {!r}",
             ALPHA_MIN, ALPHA_MAX, cfg.alpha)
    _require(0 < cfg.T <= 1, "T", "must lie in (0, 1], got {!r}", cfg.T)
    _require(0 <= cfg.xi <= XI_MAX, "xi",
             "must lie in [0, {:g}], got {!r}", XI_MAX, cfg.xi)
    _require(0 < cfg.beta <= 1, "beta",
             "must lie in (0, 1], got {!r}", cfg.beta)
    for name in _INT_FIELDS:
        val = getattr(cfg, name)
        if val is None and name in _OPTIONAL_FIELDS:
            continue
        _require(isinstance(val, int) and not isinstance(val, bool),
                 name, "must be an integer, got {!r}", val)
    for name in ("n", "m", "k", "k_test", "k_rep"):
        _require(getattr(cfg, name) >= 1, name, "must be >= 1")
    if cfg.workers is not None:
        _require(1 <= cfg.workers <= WORKERS_MAX, "workers",
                 "must lie in [1, {}], got {!r}", WORKERS_MAX, cfg.workers)
    _require(cfg.trials >= 1, "trials", "must be >= 1")
    _require(cfg.seed >= 0, "seed", "must be a non-negative integer")
    for name in ("eps_total",) + _EPS_COMPONENTS:
        val = getattr(cfg, name)
        if val is not None:
            _require(0 < val < 1, name, "must lie in (0, 1), got {!r}", val)
    _require(0 < cfg.p_ec <= 1, "p_ec", "must lie in (0, 1], got {!r}",
             cfg.p_ec)
    _require(0 < cfg.eps_rob < 1, "eps_rob",
             "must lie in (0, 1), got {!r}", cfg.eps_rob)
    if cfg.xi_actual is not None:
        _require(0 <= cfg.xi_actual <= XI_MAX, "xi_actual",
                 "must lie in [0, {:g}], got {!r}", XI_MAX, cfg.xi_actual)
    _require(cfg.delta_ent_mode == "derived", "delta_ent_mode",
             "must be 'derived', got {!r}", cfg.delta_ent_mode)
    _require(isinstance(cfg.out, str) and cfg.out != "", "out",
             "must be a non-empty path string")
    # SecurityBudget.eps_total; an unset component is eps_total/4, so only
    # set ones can push the sum to 1
    parts = {name: getattr(cfg, name) for name in _EPS_COMPONENTS}
    total = sum(cfg.eps_total / 4 if v is None else v for v in parts.values())
    if not total < 1:
        named = ", ".join(repr(n) for n, v in parts.items() if v is not None)
        raise ConfigError(f"config field {named}: the epsilon components "
                          f"sum to {total!r}, which must be below 1")


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
    """(d_a, d_b): 3x the expected per-mode energy on each side."""
    v_a = 2.0 * cfg.alpha * cfg.alpha
    return 3.0 * v_a / 2.0, 3.0 * cfg.T * (v_a + cfg.xi) / 2.0


def _regime_error(cfg: RunConfig, budget: SecurityBudget,
                  exc: RegimeError) -> ConfigError:
    """Name the config fields behind a failed estimator-regime check.

    The check depends on k and eps_pe together; eps_pe may have been
    derived from eps_total.
    """
    if cfg.eps_pe is None:
        source = (f"config field 'eps_total': eps_pe = eps_total/4 = "
                  f"{budget.eps_pe!r}")
    else:
        source = f"config field 'eps_pe': eps_pe = {budget.eps_pe!r}"
    return ConfigError(f"{source} with config field 'k' = {cfg.k} is outside "
                       f"the estimator regime ({exc})")


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
                              budget.eps_pe, budget.eps_rob)
    v = params.v_a + 1.0
    always_pass = (float("-inf"), float("-inf"), float("inf"))
    region = pe_decision(always_pass, v, cfg.T, cfg.xi, deltas,
                         budget.eps_pe)
    s = snr(params.v_a, cfg.T, cfg.xi)
    leak = leak_model(2 * cfg.n, cfg.beta, s, budget.eps_cor)
    report = key_length(params, budget, 1.0, region.worst_case_covariance(),
                        leak)
    return params, region, report


def _energy_config(cfg: RunConfig, budget: SecurityBudget) -> EnergyTestConfig:
    d_a, d_b = resolve_energy_thresholds(cfg)
    return EnergyTestConfig(k_test=cfg.k_test, d_a=d_a, d_b=d_b,
                            eps_test=budget.eps_total)


def _reduction(cfg: RunConfig, budget: SecurityBudget) -> ReductionReport:
    n_modes = 2 * (cfg.n + cfg.m + cfg.k)
    try:
        return make_reduction_report(n_modes, _energy_config(cfg, budget),
                                     budget.eps_total)
    except RegimeError as exc:  # the energy test is too short for a cutoff
        raise ConfigError(f"config field 'k_test' = {cfg.k_test} with "
                          f"eps_total = {budget.eps_total!r} is outside the "
                          f"energy test's regime ({exc})") from None


def _cell(value):
    """A CSV cell: floats as %.17g (they read back exactly), bools as 0/1."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def _row(report) -> tuple:
    """The field values of an all-scalar report, in field order (a shallow
    `astuple`)."""
    return tuple(getattr(report, f.name) for f in dataclasses.fields(report))


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
    try:
        _, _, report = _keyrate_chain(cfg, budget)
    except RegimeError as exc:
        raise _regime_error(cfg, budget, exc) from None
    reduction = _reduction(cfg, budget)
    out = _outdir(cfg)
    _write_csv(out / "keyrate.csv", KeyLengthReport.CSV_HEADER,
               [_row(report)])
    _write_csv(out / "reduction.csv", ReductionReport.CSV_HEADER,
               [_row(reduction)])
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
        rows.append((axis, float(value)) + _row(report))
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


def _key_chunk_rounds(k_rep: int) -> int:
    """Key rounds per chunk: as many whole repetition blocks as fit in
    CHUNK_ROUNDS, and at least one.  A block of k_rep stream values spans
    k_rep / gcd(k_rep, 2) modes."""
    step = k_rep // math.gcd(k_rep, 2)
    return max(step, CHUNK_ROUNDS // step * step)


def _key_chunks(cfg: RunConfig) -> list:
    """(start, stop) of the key-round chunks, each on a repetition-block
    edge: 4n is a multiple of k_rep, so the last chunk ends on one too."""
    size = _key_chunk_rounds(cfg.k_rep)
    key_rounds = 2 * cfg.n
    return [(a, min(a + size, key_rounds)) for a in range(0, key_rounds, size)]


def _memory_error(cfg: RunConfig, batch_csv: bool) -> ConfigError:
    """The error of a `simulate` run too large for this process, naming the
    config fields that size it.

    A plain run holds the 2m decoy rounds, four float64 records or 32
    bytes each, Bob's and Alice's bit of each of the 4n/k_rep repetition
    blocks, and one chunk of key rounds per thread.  With batch.csv it
    holds all 2(n + m + k) rounds.  That is a lower bound on what it
    allocates.
    """
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    where = ("more than this process could allocate"
             if limit == resource.RLIM_INFINITY else
             f"above the address-space limit (RLIMIT_AS) of "
             f"{limit / 2**30:.3g} GiB")
    if batch_csv:
        rounds = 2 * (cfg.n + cfg.m + cfg.k)
        return ConfigError(f"config field 'n', 'm', 'k': simulate holds "
                           f"{rounds} rounds, which need at least "
                           f"{32 * rounds / 2**30:.3g} GiB, {where}")
    blocks = 4 * cfg.n // cfg.k_rep
    chunk = min(_key_chunk_rounds(cfg.k_rep), 2 * cfg.n)
    return ConfigError(
        f"config field 'n', 'm': simulate holds {2 * cfg.m} decoy rounds "
        f"and the bits of {blocks} blocks, which need at least "
        f"{(64 * cfg.m + 2 * blocks) / 2**30:.3g} GiB, plus a chunk of "
        f"{chunk} key rounds per thread, {where}")


def _reduce_key_rounds(records, first: int, k_rep: int, bits_b,
                       bits_a) -> np.ndarray:
    """Reduce key rounds that start repetition block `first`: write their
    blocks' bits into bits_b and bits_a, return their quadrant counts."""
    ax, ap, bx, bp = records
    b, a = repetition_bits((ax, ap), (bx, bp), k_rep)
    blocks = slice(first, first + b.size)
    bits_b[blocks] = b
    bits_a[blocks] = a
    return np.bincount(quadrant_bits(ax, ap), minlength=4)


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
    true_params = params.with_xi(xi_true)
    # Bob's and Alice's bit of every repetition block, allocated before
    # any work so that a run too large fails first
    blocks = 4 * cfg.n // cfg.k_rep
    bits_b = np.empty(blocks, dtype=np.uint8)
    bits_a = np.empty(blocks, dtype=np.uint8)
    # the key and gaussian rows are built only for batch.csv; every chunk
    # of key rounds is generated, counted, reduced to its blocks' bits and
    # dropped
    batch = simulate_rounds(true_params, cfg.seed, workers=cfg.workers,
                            rows=batch_csv)
    quad_counts = sum(run_parts(
        lambda start, stop: _reduce_key_rounds(
            round_records(true_params, cfg.seed, start, stop),
            2 * start // cfg.k_rep, cfg.k_rep, bits_b, bits_a),
        _key_chunks(cfg), cfg.workers))

    # parameter estimation reads only W = (||X||^2, ||Y||^2, <X, S Y>) of
    # the gaussian modes, drawn whether or not their rows are built (only
    # for batch.csv, whose symmetrization leaves W unchanged).  sigma_hat
    # are the same totals per gaussian mode.
    totals = batch.gram
    sigma_hat = tuple(total / (2 * cfg.k) for total in totals)
    try:
        gammas = gamma_estimates(*totals, cfg.k, budget.eps_pe)
        deltas = calibrate_deltas(cfg.alpha, cfg.T, cfg.xi, cfg.k,
                                  budget.eps_pe, budget.eps_rob)
    except RegimeError as exc:
        raise _regime_error(cfg, budget, exc) from None
    region = pe_decision(gammas, params.v_a + 1.0, cfg.T, cfg.xi, deltas,
                         budget.eps_pe)

    h_mle = mle_entropy(quad_counts) / 2.0

    # reverse reconciliation on the interleaved key-quadrature stream: Bob
    # keeps one sign per block and discloses the (k_rep - 1) others
    # relative to it
    block_errors = int(np.count_nonzero(bits_a != bits_b))
    disclosed = blocks * (cfg.k_rep - 1)
    verified = verify_hash(bits_a, bits_b, budget.eps_cor,
                           seed=(cfg.seed, 2))
    leak_ec = float(disclosed + hash_length(budget.eps_cor))

    # energy test on the first k_test <= 2m decoy modes; Alice's record is
    # the sent amplitude, so its power is already a state-energy estimate
    first = batch.role_indices(ROLE_DECOY).start
    test = slice(first, first + cfg.k_test)
    energy_a = 0.5 * (batch.alice_x[test] ** 2 + batch.alice_p[test] ** 2)
    energy_b = heterodyne_energy(batch.bob_x[test], batch.bob_p[test])
    etc = _energy_config(cfg, budget)
    energy_ok = energy_test(energy_a, energy_b, etc)

    report = key_length(params, budget, h_mle, region.worst_case_covariance(),
                        leak_ec)
    reduction = _reduction(cfg, budget)

    success = (region.passed and verified and energy_ok and report.feasible)
    if success:
        key_bits = universal_hash(bits_b, (cfg.seed, 4), int(report.l))
    else:
        key_bits = np.zeros(0, dtype=np.uint8)
    code = EXIT_OK if success else EXIT_NO_KEY

    out = _outdir(cfg)
    if batch_csv:
        transform = OrthogonalTransform.random(4 * cfg.k, (cfg.seed, 1),
                                               cfg.workers)
        batch = apply_symmetrization(batch, transform, "alice")
        batch = apply_symmetrization(batch, transform, "bob")
        export_batch(batch, out / "batch.csv")
    _write_csv(out / "pe.csv", PE_HEADER, [
        gammas + (region.sigma_a_max, region.sigma_b_max, region.sigma_c_min)
        + deltas + (budget.eps_pe, region.verdict)
    ])
    _write_csv(out / "ec.csv", EC_HEADER, [(
        4 * cfg.n, cfg.k_rep, blocks, disclosed,
        hash_length(budget.eps_cor), block_errors, verified,
    )])
    # the thresholds may be ints from the config; %.17g prints them as floats
    _write_csv(out / "energy.csv", ENERGY_HEADER, [(
        cfg.k_test, float(etc.d_a), float(etc.d_b),
        float(np.mean(energy_a)), float(np.mean(energy_b)), energy_ok,
    )])
    _write_csv(out / "keylength.csv", KeyLengthReport.CSV_HEADER,
               [_row(report)])
    _write_csv(out / "reduction.csv", ReductionReport.CSV_HEADER,
               [_row(reduction)])
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
    rows = validate_mod.run_all(cfg.seed, cfg.trials, cfg.workers)
    out = _outdir(cfg)
    _write_csv(out / "bounds.csv", validate_mod.BoundRow.CSV_HEADER,
               [_row(r) for r in rows])
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2, this CLI's "no key"
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it
    unchanged, and `--help` reads the terminal width when it formats."""
    parser = _Parser(
        prog="dmcvqkd",
        description="Finite-size security calculator and protocol simulator "
                    "for four-state discrete-modulation CV-QKD.",
        epilog=_csv_docs(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, help_text in (
        ("keyrate", "analytic finite-size key length for one config"),
        ("sweep", "keyrate along a grid of one numeric config field"),
        ("simulate", "seeded end-to-end protocol run with transcript"),
        ("validate-bounds", "Monte Carlo check of every tail bound"),
    ):
        subs[name] = p = sub.add_parser(
            name, help=help_text, epilog=_csv_docs(),
            formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(parser=p)
        # --seed and --trials only where a run reads them
        p.add_argument("--config", metavar="PATH",
                       help="flat JSON config file; flags override its values")
        if name in ("simulate", "validate-bounds"):
            p.add_argument("--seed", type=int, help="base seed (64-bit)")
        p.add_argument("--out", metavar="DIR", help="output directory")
        if name == "validate-bounds":
            p.add_argument("--trials", type=int,
                           help="Monte Carlo trials for validate-bounds")

    subs["sweep"].add_argument(
        "--axis", required=True,
        help=f"config field to scan; one of {SWEEP_AXES}")
    subs["sweep"].add_argument("--grid", required=True,
                               help="comma-separated grid values")
    subs["simulate"].add_argument(
        "--batch-csv", action="store_true",
        help="also write the symmetrized rounds to batch.csv")
    return parser


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    overrides = {}
    for name in ("seed", "out", "trials"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        # argparse passes a subcommand's unknown arguments up to the top
        # level: report them with the subcommand's parser, and those given
        # before the subcommand with the top level's
        argv = sys.argv[1:] if argv is None else list(argv)
        args.parser.parse_args(argv[argv.index(args.command) + 1:])
        parser.parse_args(argv)
    try:
        cfg = config_from_json(args.config) if args.config else RunConfig()
        cfg = _merge_flags(cfg, args)
        if args.command == "keyrate":
            return run_keyrate(cfg)
        if args.command == "sweep":
            return run_sweep(cfg, args.axis, parse_grid(args.grid))
        if args.command == "simulate":
            try:
                return run_simulate(cfg, args.batch_csv)
            except MemoryError:
                raise _memory_error(cfg, args.batch_csv) from None
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
