"""The four benchmark workloads and the checks on their outputs.

A workload turns the benchmark seed and an operation index into the inputs
of one operation (`prepare`), runs the operation through the package's
public functions (`run`, the only timed part), reads back what the program
produced (`collect`) and finally checks every collected result against
computations made apart from the program (`check`).  `trace` registers the
spans that the traced run wraps around the calls each workload makes.

Inputs depend only on (seed, index): operation seeds come from
`numpy.random.SeedSequence([seed, index])`, the sweep grid from a Generator
keyed the same way.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path

import numpy as np
from scipy import stats

from dmcvqkd import channel, cli, pe, reconciliation
from dmcvqkd import validate as validate_mod
from dmcvqkd.rotations import OrthogonalTransform

import oracles  # tests/oracles.py: the package-independent reference code

#: binomial tail at which an honest abort count is called inconsistent
ABORT_TAIL = 1e-6
#: standard errors allowed between an observed and an exact value
SE_LIMIT = 5.0
#: operations whose every sweep row is compared with the oracle; the
#: oracle's scalar quadrature costs about 36 ms a row, 10x a sweep point
ORACLE_OPS = 4


def op_seed(seed: int, index: int) -> int:
    """Program seed of operation `index` (63-bit, non-negative)."""
    word = np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)
    return int(word[0] >> np.uint64(1))


def closed_form_z(alpha: float) -> float:
    """Certified correlation Z = V_A sum lambda_k^1.5 / lambda_{k+1}^0.5."""
    a2 = alpha * alpha
    e = math.exp(-a2)
    lam = [e * (math.cosh(a2) + math.cos(a2)) / 2.0,
           e * (math.sinh(a2) + math.sin(a2)) / 2.0,
           e * (math.cosh(a2) - math.cos(a2)) / 2.0,
           e * (math.sinh(a2) - math.sin(a2)) / 2.0]
    lrs = sum(lam[i] ** 1.5 / math.sqrt(lam[(i + 1) % 4]) for i in range(4))
    return 2.0 * a2 * lrs


def abort_allowance(runs: int, eps_rob: float) -> int:
    """Largest honest abort count consistent with an abort rate <= eps_rob."""
    if runs == 0:
        return 0
    return int(stats.binom.isf(ABORT_TAIL, runs, eps_rob))


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _file_size(position, *names):
    """Count callback: bytes of the file passed as argument `position`."""
    return lambda a, kw, r: {name: os.path.getsize(a[position])
                             for name in names}


def _apply_counts(args, kwargs, result):
    # rotate_pairs reads and writes both members of a pair and reads cos,
    # sin and two int64 indices: 8 doubles-worth per pair; the entry copy
    # reads and writes the vector once
    transform = args[0]
    pairs = sum(layer.lo.size for layer in transform.layers)
    return {"rotations.pair_rotations": pairs,
            "rotations.bytes_moved": 64 * pairs + 16 * transform.dim}


def _draw_counts(args, kwargs, result, family):
    # _draw_pair draws two (trials, 4k) normal blocks; args are
    # (seed, row, k, param, trials)
    k, trials = args[2], args[4]
    draws = 2 * 4 * k * trials
    return {"validate.normal_draws": draws,
            f"validate.{family}_normal_draws": draws}


def _trace_cli(tracer):
    """Spans on the functions `cli` calls, as `cli` sees them."""
    tracer.wrap(cli, "_write_csv", "cli.csv_write",
                _file_size(0, "cli.output_bytes"))
    tracer.wrap(cli, "calibrate_deltas", "pe.calibrate_deltas")
    tracer.wrap(cli, "pe_decision", "pe.estimate")
    tracer.wrap(cli, "key_length", "finitekey.key_length")


def _trace_rotations(tracer):
    tracer.wrap(OrthogonalTransform, "random", "rotations.build")
    tracer.wrap(OrthogonalTransform, "apply", "rotations.apply", _apply_counts)
    tracer.wrap(OrthogonalTransform, "apply_conjugate", "rotations.apply")


@contextlib.contextmanager
def _quiet():
    """Keep the program's one-line summaries off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        yield


class Workload:
    name = ""
    #: the operation kinds one round runs, in order
    kinds = ("op",)

    def __init__(self, size: str, seed: int, workdir: Path):
        self.size = size
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def kind(self, index: int) -> str:
        return self.kinds[index % len(self.kinds)]

    def setup(self):
        """Work done once before the first operation."""

    def prepare(self, index: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def collect(self, index: int, inputs, outcome) -> dict:
        raise NotImplementedError

    def check(self, results: list) -> list:
        raise NotImplementedError

    def trace(self, tracer):
        raise NotImplementedError

    def failed(self, outcome) -> bool:
        """An operation fails when the program reports a usage error."""
        return outcome == cli.EXIT_ERROR

    def _cli(self, argv):
        with _quiet():
            return cli.main(argv)

    def _config(self, cfg: dict, name: str = "config.json") -> str:
        path = self.workdir / name
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)


class Simulate(Workload):
    """`dmcvqkd simulate`; odd operations run an attacked channel."""

    name = "simulate"
    kinds = ("honest", "attacked")
    SIZES = {"full": {}, "smoke": {"n": 256, "m": 500, "k": 4000}}
    XI_ATTACK = 0.5

    def config(self, index: int, workers: int = 1) -> dict:
        cfg = dict(self.SIZES[self.size], seed=op_seed(self.seed, index),
                   workers=workers)
        if self.kind(index) == "attacked":
            cfg["xi_actual"] = self.XI_ATTACK
        return cfg

    def prepare(self, index: int, workers: int = 1, out: str = "op"):
        cfg_path = self._config(self.config(index, workers))
        return ["simulate", "--config", cfg_path,
                "--out", str(self.workdir / out)]

    def run(self, argv):
        return self._cli(argv)

    def collect(self, index, argv, code):
        row = _read_csv(self.workdir / "op" / "transcript.csv")[0]
        return {"kind": self.kind(index), "code": code,
                "verdict": row["pe_verdict"], "l": float(row["l"]),
                "sigma": tuple(float(row[f"sigma_hat_{c}"]) for c in "abc")}

    def determinism(self) -> list:
        """Byte-compare outputs of workers=1, workers=2 and a rerun."""
        outs = []
        for workers, out in ((1, "det-w1"), (2, "det-w2"), (1, "det-w1b")):
            self.run(self.prepare(0, workers, out))
            outs.append(self.workdir / out)
        names = sorted(p.name for p in outs[0].iterdir())
        problems = []
        for other in outs[1:]:
            if sorted(p.name for p in other.iterdir()) != names:
                problems.append(f"simulate: {other.name} wrote other files")
                continue
            for name in names:
                if (outs[0] / name).read_bytes() != (other / name).read_bytes():
                    problems.append(f"simulate: {name} differs in {other.name}")
        return problems

    def check(self, results):
        cfg = cli.RunConfig(**self.SIZES[self.size])
        problems = []
        for r in results:
            if r["code"] != cli.EXIT_NO_KEY or r["l"] > 0.0:
                problems.append(f"simulate: exit {r['code']}, l = {r['l']}")
        attacked = [r for r in results if r["kind"] == "attacked"]
        honest = [r for r in results if r["kind"] == "honest"]
        missed = sum(r["verdict"] != "abort" for r in attacked)
        if missed:
            problems.append(f"simulate: {missed} attacked runs passed PE")
        aborts = sum(r["verdict"] != "pass" for r in honest)
        if aborts > abort_allowance(len(honest), cfg.eps_rob):
            problems.append(f"simulate: {aborts}/{len(honest)} honest aborts")
        # sigma_hat are means over N = 2k gaussian modes of per-mode sums
        # of two quadrature products; per-entry variances va, vb and
        # cross-covariance c0 of the heterodyne record
        v_a = 2.0 * cfg.alpha ** 2
        va = (v_a + 2.0) / 2.0
        vb = (cfg.T * v_a + 2.0 + cfg.T * cfg.xi) / 2.0
        c0 = math.sqrt(cfg.T) * closed_form_z(cfg.alpha) / 2.0
        modes = 2 * cfg.k
        expect = (2.0 * va, 2.0 * vb, 2.0 * c0)
        se = (2.0 * va / math.sqrt(modes), 2.0 * vb / math.sqrt(modes),
              math.sqrt(2.0 * (va * vb + c0 * c0) / modes))
        for r in honest:
            for name, got, mu, s in zip("abc", r["sigma"], expect, se):
                if abs(got - mu) > SE_LIMIT * s:
                    problems.append(f"simulate: sigma_hat_{name} = {got}, "
                                    f"expected {mu} +- {SE_LIMIT} x {s:.3g}")
        return problems

    def trace(self, tracer):
        _trace_cli(tracer)
        _trace_rotations(tracer)
        tracer.wrap(cli, "simulate_rounds", "channel.simulate_rounds",
                    lambda a, kw, r: {"channel.modes": r.n_rounds})
        tracer.wrap(cli, "apply_symmetrization", "channel.apply_symmetrization")
        tracer.wrap(cli, "split_pe_sets", "pe.estimate")
        tracer.wrap(cli, "gamma_estimates", "pe.estimate")
        tracer.wrap(cli, "repetition_reconcile", "reconciliation.repetition")
        tracer.wrap(cli, "repetition_decode", "reconciliation.repetition")
        tracer.wrap(cli, "verify_hash", "reconciliation.verify_hash")
        tracer.wrap(cli, "energy_test", "definetti.reduction")
        tracer.wrap(cli, "make_reduction_report", "definetti.reduction")
        tracer.wrap(cli, "export_batch", "channel.export_batch",
                    _file_size(1, "channel.export_bytes", "cli.output_bytes"))


class PETrials(Workload):
    """One parameter-estimation trial as acceptance criterion 04 runs it."""

    name = "pe-trials"
    kinds = ("honest", "attacked")
    SIZES = {"full": 10_000, "smoke": 4_000}
    ALPHA, T, XI, XI_ATTACK, EPS = 0.5, 0.6, 0.05, 0.5, 1e-2

    def setup(self):
        self.k = self.SIZES[self.size]
        self.params = channel.ProtocolParams(alpha=self.ALPHA, T=self.T,
                                             xi=self.XI, n=1, m=1, k=self.k)
        self.deltas = pe.calibrate_deltas(self.ALPHA, self.T, self.XI, self.k,
                                          self.EPS, self.EPS)

    def prepare(self, index):
        xi = self.XI_ATTACK if self.kind(index) == "attacked" else self.XI
        return op_seed(self.seed, index), xi

    def run(self, inputs):
        seed, xi = inputs
        k = self.k
        batch = channel.simulate_rounds(self.params.with_xi(xi), seed)
        rot = OrthogonalTransform.random(4 * k, (seed, 1))
        sym = channel.apply_symmetrization(batch, rot, "alice")
        sym = channel.apply_symmetrization(sym, rot, "bob")
        h = channel.split_pe_sets(sym, k)
        norm_x2 = float(np.sum(h.x1 ** 2) + np.sum(h.x2 ** 2))
        norm_y2 = float(np.sum(h.y1 ** 2) + np.sum(h.y2 ** 2))
        ip = float(
            np.sum(h.x1[0::2] * h.y1[0::2]) - np.sum(h.x1[1::2] * h.y1[1::2])
            + np.sum(h.x2[0::2] * h.y2[0::2]) - np.sum(h.x2[1::2] * h.y2[1::2])
        )
        gammas = pe.gamma_estimates(norm_x2, norm_y2, ip, k, self.EPS)
        v = 2.0 * self.ALPHA ** 2 + 1.0
        region = pe.pe_decision(gammas, v, self.T, self.XI, self.deltas,
                                self.EPS)
        return batch, (norm_x2, norm_y2, ip), region.passed

    def collect(self, index, inputs, outcome):
        batch, after, passed = outcome
        g = batch.role_indices(channel.ROLE_GAUSSIAN)
        ax, ap = batch.alice_x[g], batch.alice_p[g]
        bx, bp = batch.bob_x[g], batch.bob_p[g]
        before = (float(np.sum(ax * ax) + np.sum(ap * ap)),
                  float(np.sum(bx * bx) + np.sum(bp * bp)),
                  float(np.sum(ax * bx) - np.sum(ap * bp)))
        drift = max(abs(a - b) / abs(b) for a, b in zip(after, before))
        return {"kind": self.kind(index), "passed": passed, "drift": drift}

    def check(self, results):
        problems = []
        drift = max(r["drift"] for r in results)
        if drift > 1e-12:
            problems.append(f"pe-trials: symmetrization moved a PE statistic "
                            f"by {drift:.3g} relative")
        honest = [r for r in results if r["kind"] == "honest"]
        attacked = [r for r in results if r["kind"] == "attacked"]
        aborts = sum(not r["passed"] for r in honest)
        if aborts > abort_allowance(len(honest), self.EPS):
            problems.append(f"pe-trials: {aborts}/{len(honest)} honest aborts")
        detected = sum(not r["passed"] for r in attacked)
        if detected < math.ceil(0.99 * len(attacked)):
            problems.append(f"pe-trials: {detected}/{len(attacked)} attacks "
                            f"detected")
        return problems

    def trace(self, tracer):
        _trace_rotations(tracer)
        tracer.wrap(channel, "simulate_rounds", "channel.simulate_rounds",
                    lambda a, kw, r: {"channel.modes": r.n_rounds})
        tracer.wrap(channel, "apply_symmetrization",
                    "channel.apply_symmetrization")
        tracer.wrap(channel, "split_pe_sets", "pe.estimate")
        tracer.wrap(pe, "gamma_estimates", "pe.estimate")
        tracer.wrap(pe, "pe_decision", "pe.estimate")


class ValidateBounds(Workload):
    """`dmcvqkd validate-bounds` at a fixed trial count."""

    name = "validate-bounds"
    SIZES = {"full": 20_000, "smoke": 1_000}
    LEMMA1_K, LEMMA2_K, LEMMA2_EPS = 100, 100, 0.05

    def prepare(self, index):
        cfg = {"seed": op_seed(self.seed, index),
               "trials": self.SIZES[self.size]}
        return ["validate-bounds", "--config", self._config(cfg),
                "--out", str(self.workdir / "op")]

    def run(self, argv):
        return self._cli(argv)

    def collect(self, index, argv, code):
        rows = _read_csv(self.workdir / "op" / "bounds.csv")
        return {"code": code, "rows": [
            (r["lemma"], float(r["epsilon_or_x"]), float(r["observed"]),
             int(r["trials"]), r["verdict"]) for r in rows]}

    def exact_tail(self, lemma: str, param: float) -> float:
        """Violation probability of one lemma1/lemma2 row, from scipy."""
        if lemma.startswith("lemma1"):
            k, root = self.LEMMA1_K, 2.0 * math.sqrt(self.LEMMA1_K * param)
            if lemma == "lemma1-upper":
                return float(stats.chi2.sf(k + root + 2.0 * param, k))
            return float(stats.chi2.cdf(k - root, k))
        # the norm fraction of a random half is Beta(k, k)
        k = self.LEMMA2_K
        g = math.sqrt(math.log(2.0 / param) / k)
        return float(stats.beta.cdf(0.5 * (1.0 - 2.2 * g), k, k)
                     + stats.beta.sf(0.5 * (1.0 + 2.5 * g), k, k))

    def check(self, results):
        problems = []
        pooled = {}
        for r in results:
            checked = [row for row in r["rows"] if row[4] != "regime-error"]
            ok = sum(row[4] == "ok" for row in checked)
            if r["code"] != cli.EXIT_OK or len(checked) != 13 or ok != 13:
                problems.append(f"validate-bounds: exit {r['code']}, "
                                f"{ok}/{len(checked)} rows ok")
            for lemma, param, observed, trials, _ in checked:
                if lemma.startswith(("lemma1", "lemma2")):
                    hits, total = pooled.get((lemma, param), (0, 0))
                    pooled[(lemma, param)] = (hits + round(observed * trials),
                                              total + trials)
        if results and len(pooled) != 7:
            problems.append(f"validate-bounds: {len(pooled)} lemma1/2 rows")
        for (lemma, param), (hits, total) in sorted(pooled.items()):
            p = self.exact_tail(lemma, param)
            se = math.sqrt(p * (1.0 - p) / total)
            if abs(hits / total - p) > SE_LIMIT * se:
                problems.append(f"validate-bounds: {lemma}({param}) observed "
                                f"{hits / total:.5g}, exact {p:.5g}")
        return problems

    def trace(self, tracer):
        tracer.wrap(cli, "_write_csv", "cli.csv_write",
                    _file_size(0, "cli.output_bytes"))
        for family in ("lemma1", "lemma2", "lemma3", "lemma4", "pe_theorem"):
            count = None
            if family in ("lemma3", "lemma4", "pe_theorem"):
                count = (lambda a, kw, r, f=family: _draw_counts(a, kw, r, f))
            tracer.wrap(validate_mod, f"{family}_violations",
                        f"validate.{family}", count)


class KeyrateSweep(Workload):
    """`dmcvqkd sweep --axis T` on the README's benign config."""

    name = "keyrate-sweep"
    SIZES = {"full": 16, "smoke": 3}
    T_LO, T_HI = 0.4, 0.95
    BENIGN = {"alpha": 0.5, "T": 0.5, "xi": 0.01, "beta": 0.95,
              "n": 100_000_000, "m": 1000, "k": 2_000_000_000,
              "eps_pe": 1e-10, "eps_sm": 1e-10, "eps_ent": 1e-10,
              "eps_cor": 1e-10, "p_ec": 0.99, "eps_rob": 1e-2,
              "delta_ent_mode": "derived"}

    def setup(self):
        self.cfg_path = self._config(self.BENIGN, "benign.json")

    def grid(self, index) -> list:
        """One point in each of `points` equal cells of [T_LO, T_HI]."""
        points = self.SIZES[self.size]
        u = np.random.default_rng([self.seed, index]).random(points)
        step = (self.T_HI - self.T_LO) / points
        return [float(self.T_LO + step * (i + u[i])) for i in range(points)]

    def prepare(self, index):
        grid = ",".join(repr(t) for t in self.grid(index))
        return ["sweep", "--config", self.cfg_path, "--axis", "T",
                "--grid", grid, "--out", str(self.workdir / "op")]

    def run(self, argv):
        return self._cli(argv)

    def collect(self, index, argv, code):
        # the cheap checks run here on every operation; only the first
        # ORACLE_OPS operations keep their rows for the oracle in `check`
        rows = _read_csv(self.workdir / "op" / "sweep.csv")
        problems = []
        if code != cli.EXIT_OK:
            problems.append(f"keyrate-sweep: exit {code}")
        ls = [float(r["l"]) for r in rows]
        if len(rows) != self.SIZES[self.size] or \
                any(a >= b for a, b in zip(ls, ls[1:])):
            problems.append(f"keyrate-sweep: l not increasing in T: {ls}")
        for r in rows:
            terms = [float(r[c]) for c in ("entropy_term", "holevo_term",
                                           "leak_ec", "delta_aep",
                                           "delta_ent")]
            audit = terms[0] - sum(terms[1:])
            if abs(float(r["l"]) - audit) > 1e-12 * terms[0]:
                problems.append(f"keyrate-sweep: l = {r['l']} != terms "
                                f"{audit!r} at T = {r['value']}")
        points = [float(r["value"]) for r in rows] \
            if index < ORACLE_OPS else []
        return {"problems": problems, "points": list(zip(points, ls))}

    def check(self, results):
        b = self.BENIGN
        problems = [p for r in results for p in r["problems"]]
        for r in results:
            for t, got in r["points"]:
                want = oracles.composition_key_length(
                    b["alpha"], t, b["xi"], b["beta"], b["n"], b["k"],
                    b["eps_pe"], b["eps_sm"], b["eps_ent"], b["eps_cor"],
                    b["p_ec"], b["eps_rob"])
                if abs(got - want) > 1e-6 * abs(want):
                    problems.append(f"keyrate-sweep: l = {got} at T = {t}, "
                                    f"oracle {want}")
        return problems

    def trace(self, tracer):
        _trace_cli(tracer)
        tracer.wrap(reconciliation, "biawgn_capacity",
                    "reconciliation.biawgn_capacity",
                    lambda a, kw, r:
                    {"reconciliation.biawgn_capacity_calls": 1})


WORKLOADS = {w.name: w for w in (Simulate, PETrials, ValidateBounds,
                                 KeyrateSweep)}
