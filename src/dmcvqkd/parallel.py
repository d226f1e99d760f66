"""Seeded streams and threads for the seed-keyed stages.

Every seeded draw in the package is `stream(seed, *spawn_key)`: SFC64 on
SeedSequence(seed, spawn_key), which keeps every seed in [0, 2^64) and
every spawn key apart.  No two draws share a spawn key:

    (0, c, i)  key-round chunk c: i = 0 quadrants, 1 normals (channel)
    (1, c, 1)  decoy-round chunk c: normals (channel)
    (2,)       the gaussian block: W, then the rows' frame (channel)
    (6,)       the error-correction verification hash (cli)
    (8,)       the privacy-amplification hash (cli)
    (r,)       validate's row family r, r in {0, 3, 4, 5, 7}
    (s, c)     angle chunk c of the transform keyed (seed, s) (rotations);
               the benchmark's pe-trials workload passes (seed, 1)

A key (seed, *s), passed wherever a seed is taken, is that seed with s in
front of the spawn key.

Each seed-keyed stage (key and decoy rounds, transform angles, the Monte
Carlo row families) splits its work into parts that draw from their own
streams and write their own output slice or return their own result.  The
parts can therefore run on any number of threads: `run_parts` returns the
results in part order, so the output is the same bits for every thread
count.  numpy releases the GIL inside its generators and array loops,
which is where the parts spend their time.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import ConfigError

#: pool size -> executor, kept for the life of the process: a call starts
#: no thread that an earlier call started, and a pool thread keeps the CPU
#: the kernel moved it to instead of starting next to the calling thread
_EXECUTORS = {}
# a forked child has none of its parent's threads
os.register_at_fork(after_in_child=_EXECUTORS.clear)


def stream(seed, *spawn_key) -> np.random.Generator:
    """The SFC64 stream of `seed` and `spawn_key` (the table above); a
    key (seed, *s) is seed with s put in front of `spawn_key`."""
    if isinstance(seed, tuple):
        seed, spawn_key = seed[0], seed[1:] + spawn_key
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(seed, spawn_key=spawn_key)))


def thread_count(workers=None) -> int:
    """The threads that `workers` asks for; None means every usable core.

    The usable cores are the CPUs this process may run on
    (`os.sched_getaffinity`), or `os.cpu_count()` where that call does not
    exist.
    """
    if workers is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1
    count = int(workers)
    if count < 1:
        raise ConfigError(f"workers must be >= 1, got {workers!r}")
    return count


def run_parts(fn, parts, workers=None) -> list:
    """[fn(*part) for part in parts], on up to `workers` threads, in order.

    `workers` is a thread count; None means every usable core.  The calling
    thread and min(workers, len(parts)) - 1 pool threads each take the
    next part that no thread has taken, until none is left, so parts
    listed longest first are spread as longest-processing-time scheduling
    spreads them, and each pool thread is handed work once per call.  With
    one thread or one part, everything runs on the calling thread.  After
    an error no thread takes another part, and the error is raised.
    A part may call `run_parts` itself.
    """
    parts = list(parts)
    threads = min(thread_count(workers), len(parts))
    if threads < 2:
        return [fn(*part) for part in parts]
    results = [None] * len(parts)
    pending = list(range(len(parts) - 1, -1, -1))
    lock = threading.Lock()

    def work():
        try:
            while True:
                with lock:
                    if not pending:
                        return
                    i = pending.pop()
                results[i] = fn(*parts[i])
        except BaseException:
            with lock:
                pending.clear()
            raise

    executor = _EXECUTORS.get(threads - 1)
    if executor is None:
        executor = _EXECUTORS.setdefault(
            threads - 1, ThreadPoolExecutor(max_workers=threads - 1))
    futures = [executor.submit(work) for _ in range(threads - 1)]
    try:
        work()
    finally:
        # a task that no pool thread has started has nothing left to take;
        # cancelling it also keeps a call made from a pool thread from
        # waiting for itself
        started = [future for future in futures if not future.cancel()]
        wait(started)
    for future in started:
        future.result()  # raises a pool thread's error
    return results
