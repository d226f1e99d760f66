"""The thread helper of the counter-keyed stages."""

import os
import sys
import threading

import pytest

from dmcvqkd.errors import ConfigError
from dmcvqkd.parallel import run_parts, thread_count


def test_none_means_every_usable_core():
    assert thread_count(None) == len(os.sched_getaffinity(0))
    assert thread_count(3) == 3
    for bad in (0, -1):
        with pytest.raises(ConfigError, match="workers"):
            thread_count(bad)


@pytest.mark.parametrize("workers", [1, 2, 3, None])
@pytest.mark.parametrize("n_parts", [0, 1, 2, 5, 7])
def test_results_come_back_in_part_order(workers, n_parts):
    parts = [(i, i * i) for i in range(n_parts)]
    assert run_parts(lambda a, b: a + b, parts, workers) == \
        [a + b for a, b in parts]


def test_no_more_threads_than_parts():
    before = threading.active_count()
    alive = []

    def record(_):
        alive.append(threading.active_count())

    run_parts(record, [(i,) for i in range(2)], 8)
    assert max(alive) <= before + 1
    seen = set()
    # one part or one thread: everything on the calling thread
    run_parts(lambda _: seen.add(threading.get_ident()), [(0,)], 8)
    run_parts(lambda _: seen.add(threading.get_ident()),
              [(0,), (1,), (2,)], 1)
    assert seen == {threading.get_ident()}


def test_each_part_runs_once_under_fast_switching():
    # more threads than cores and a short switch interval: a part taken
    # twice, or never, shows in the counts
    runs = [0] * 2000

    def take(i):
        runs[i] += 1
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_parts(take, [(i,) for i in range(2000)], 8)
    finally:
        sys.setswitchinterval(interval)
    assert got == list(range(2000))
    assert runs == [1] * 2000


def test_an_error_stops_every_thread():
    taken = []

    def fail_on_first(i):
        taken.append(i)
        if i == 0:
            raise ValueError("part 0")

    with pytest.raises(ValueError, match="part 0"):
        run_parts(fail_on_first, [(i,) for i in range(1000)], 2)
    assert 0 in taken and len(taken) < 1000


def test_a_part_may_call_run_parts_itself():
    # a part that runs a stage of its own, as a row family might
    def inner(i):
        return sum(run_parts(lambda a: a, [(i,), (i,)], 2))

    assert run_parts(inner, [(1,), (2,), (3,)], 2) == [2, 4, 6]
