#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the dmcvqkd package.

One workload per process, one closed-loop client, no worker threads:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

runs whole rounds of operations for at least `--seconds` seconds, checks
every output, prints a metric table and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  `--trace 0` reports the
end-to-end metrics; `--trace 1` reports the per-layer metrics of a traced
run in which every other round is traced.  A record with the environment,
every operation time and the spans goes to `.bench_out/records/`.

    python3 perfbench/run.py --all [--smoke] [--seed N] [--seconds S]

runs every workload in both modes, each in a fresh process; `--smoke` does
so at tiny sizes and also checks the metric names against BENCHMARK.json.
See perfbench/README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".bench_out"

#: child processes timed from spawn to the end of their warm-up
SETUP_PROBES = 3
#: one client, no worker threads: keep native thread pools at one thread
SINGLE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: traced spans reported as per-operation self time, by span name
LAYER_TIMES = (
    "channel.export_batch", "channel.simulate_rounds",
    "channel.apply_symmetrization", "rotations.build", "rotations.apply",
    "pe.calibrate_deltas", "pe.estimate", "reconciliation.biawgn_capacity",
    "reconciliation.repetition", "reconciliation.verify_hash",
    "finitekey.key_length", "definetti.reduction", "validate.lemma1",
    "validate.lemma2", "validate.lemma3", "validate.lemma4",
    "validate.pe_theorem", "cli.csv_write",
)
#: exact counts per operation, from the first traced round
LAYER_COUNTS = {
    "channel.export_bytes": "bytes",
    "channel.modes": "count",
    "rotations.pair_rotations": "count",
    "rotations.bytes_moved": "bytes_computed",
    "reconciliation.biawgn_capacity_calls": "count",
    "validate.normal_draws": "count",
    "validate.lemma3_normal_draws": "count",
    "validate.lemma4_normal_draws": "count",
    "validate.pe_theorem_normal_draws": "count",
    "cli.output_bytes": "bytes",
}
PER_LAYER = dict(
    {f"{name}_ms": "ms" for name in LAYER_TIMES},
    **{"cli.self_ms": "ms", "trace.op_ms": "ms", "setup.import_ms": "ms"},
    **LAYER_COUNTS,
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(3)


def import_package() -> float:
    """Import dmcvqkd.cli from this checkout; returns the seconds taken."""
    if not (SRC / "dmcvqkd" / "cli.py").is_file() \
            or not (TESTS / "oracles.py").is_file():
        fail(f"no package source under {SRC} or no {TESTS / 'oracles.py'}")
    sys.path[:0] = [str(SRC), str(TESTS), str(HERE)]
    start = time.perf_counter()
    import dmcvqkd.cli
    elapsed = time.perf_counter() - start
    if Path(dmcvqkd.cli.__file__).resolve().parent.parent != SRC:
        fail(f"imported dmcvqkd from {dmcvqkd.cli.__file__}, not {SRC}")
    return elapsed


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def threads():
    """Threads of this process, from /proc where it exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy
    from dmcvqkd.rotations import kernel_name

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel": kernel_name(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def warm_up(cls, seed: int, workdir: Path):
    """One smoke-size operation: imports and lazy set-up finish here."""
    warm = cls("smoke", seed, workdir)
    warm.setup()
    inputs = warm.prepare(0)
    warm.collect(0, inputs, warm.run(inputs))


def setup_probe(args) -> None:
    """Child side of `setup_s`: the parent's set-up, then a ready line."""
    import_package()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workdir = OUT / f"probe-{os.getpid()}"
    cls(args.size, args.seed, workdir / "run").setup()
    warm_up(cls, args.seed, workdir / "warm")
    print("ready", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)


def time_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to its first operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        fail(f"set-up probe exited {code} without becoming ready")
    return elapsed


def run_loop(wl, seconds: float, tracer):
    """Whole rounds of operations until `seconds` have passed."""
    per_round = len(wl.kinds) * (2 if tracer else 1)
    ops, results, failures = [], [], []
    index = 0
    start = time.perf_counter()
    while True:
        for _ in range(per_round):
            traced = tracer is not None and (index // len(wl.kinds)) % 2 == 1
            inputs = wl.prepare(index)
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.active(index):
                        outcome = wl.run(inputs)
                else:
                    outcome = wl.run(inputs)
                elapsed = time.perf_counter() - t0
                bad = wl.failed(outcome)
            except Exception:  # an operation that raises is a failed one
                elapsed = time.perf_counter() - t0
                outcome, bad = traceback.format_exc(), True
            if bad:
                failures.append({"index": index, "outcome": str(outcome)})
            else:
                results.append(wl.collect(index, inputs, outcome))
            ops.append({"index": index, "kind": wl.kind(index),
                        "traced": traced, "seconds": elapsed})
            index += 1
        if time.perf_counter() - start >= seconds:
            return ops, results, failures


def layer_metrics(wl, tracer, ops, import_s, record):
    """(metrics, problems): per-operation self times and exact counts."""
    traced = [op["index"] for op in ops if op["traced"]]
    self_t = tracer.self_times()
    root = tracer.op_durations()
    mean_op = statistics.fmean(root[i] for i in traced)

    def per_op(name):
        return sum(self_t.get((i, name), 0.0) for i in traced) / len(traced)

    metrics = {f"{name}_ms": per_op(name) * 1e3 for name in LAYER_TIMES}
    metrics["cli.self_ms"] = per_op("op") * 1e3
    metrics["trace.op_ms"] = mean_op * 1e3
    metrics["setup.import_ms"] = import_s * 1e3

    count_ops = traced[: len(wl.kinds)]
    for name in LAYER_COUNTS:
        metrics[name] = statistics.fmean(
            tracer.counts[i].get(name, 0) for i in count_ops)

    # run the counted operations again: every count must repeat exactly
    problems = []
    for i in count_ops:
        with tracer.active(("recheck", i)):
            wl.run(wl.prepare(i))
        if tracer.counts[("recheck", i)] != tracer.counts[i]:
            problems.append(f"counts of operation {i} differ on a rerun: "
                            f"{dict(tracer.counts[i])} vs "
                            f"{dict(tracer.counts[('recheck', i)])}")

    def median_time(flag):
        return statistics.median(op["seconds"] for op in ops
                                 if op["traced"] == flag)

    record["trace_overhead_ms"] = (median_time(True) - median_time(False)) * 1e3
    record["layer_share_of_op"] = {
        name: per_op(name) / mean_op for name in LAYER_TIMES + ("op",)}
    record["unaccounted_ms"] = (mean_op - sum(
        per_op(name) for name in LAYER_TIMES + ("op",))) * 1e3
    record["counts_per_op"] = {str(i): dict(tracer.counts[i])
                               for i in count_ops}
    return metrics, problems


def run_workload(args) -> int:
    import_s = import_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    wl = cls(args.size, args.seed, workdir / "run")
    wl.setup()
    warm_up(cls, args.seed, workdir / "warm")
    record = {"environment": environment(args)}

    problems = []
    if not args.trace:
        record["setup_samples_s"] = [time_setup(args)
                                     for _ in range(SETUP_PROBES)]
    if hasattr(wl, "determinism"):
        problems += wl.determinism()

    tracer = None
    if args.trace:
        tracer = Tracer()
        wl.trace(tracer)
    ops, results, failures = run_loop(wl, args.seconds, tracer)
    problems += wl.check(results)

    times = [op["seconds"] for op in ops]
    if args.trace:
        metrics, count_problems = layer_metrics(wl, tracer, ops, import_s,
                                                record)
        problems += count_problems
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(record["setup_samples_s"]),
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": statistics.median(times) * 1e3,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    record.update(ops=ops, failures=failures, problems=problems,
                  metrics=metrics)
    if tracer is not None:
        record["spans"] = tracer.dump()
    (OUT / "records").mkdir(parents=True, exist_ok=True)
    record_path = OUT / "records" / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1))
    shutil.rmtree(workdir, ignore_errors=True)

    for message in problems:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for f in failures:
        print(f"FAILED operation {f['index']}: {f['outcome']}", file=sys.stderr)
    print(f"{args.workload}: {len(ops)} operations in whole rounds, "
          f"{len(failures)} failed, checks {'ok' if not problems else 'FAILED'}"
          f"; record {record_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    seconds = args.seconds if args.seconds is not None else \
        (1 if args.smoke else spec["run_seconds"])
    ok = True
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(trace),
                   "--size", "smoke" if args.smoke else "full"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT, timeout=900)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct") \
                    or result.get("failed") \
                    or set(result.get("metrics", ())) != expected[trace]:
                print(f"  -> {name} trace {trace} NOT OK: exit "
                      f"{proc.returncode}, {result}", flush=True)
                ok = False
    print("all workloads ok" if ok else "some workloads NOT OK")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, traced and untraced")
    parser.add_argument("--smoke", action="store_true",
                        help="with --all: tiny sizes, one second each")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    for name in SINGLE_THREAD_ENV:
        os.environ.setdefault(name, "1")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.seconds is None:
        parser.error("--seconds is required with --workload")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
