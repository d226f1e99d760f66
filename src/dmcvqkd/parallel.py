"""Threads for the counter-keyed stages: simulated key and decoy rounds,
transform angles and the Monte Carlo row families.

Each of these stages splits its work into parts whose random numbers come
from fixed counter windows (a round's 4 Philox words, an angle's word, a
row's (seed, row, chunk) substreams), and every part writes its own output
slice or returns its own result.  The parts can therefore run on any
number of threads: `run_parts` returns the results in part order, so the
output is the same bits for every thread count.  numpy releases the GIL
inside its generators and array loops, which is where the parts spend
their time.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

from .errors import ConfigError

#: pool size -> executor, kept for the life of the process: a call starts
#: no thread that an earlier call started, and a pool thread keeps the CPU
#: the kernel moved it to instead of starting next to the calling thread
_EXECUTORS = {}
# a forked child has none of its parent's threads
os.register_at_fork(after_in_child=_EXECUTORS.clear)


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
