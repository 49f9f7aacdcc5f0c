import gc
import os
import signal
import time

import pytest

from adlrec.parallel import fork_map


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sleep_then(task):
    """Sleep the task's delay, then raise its exception or return its value
    with the time it finished."""
    delay, value = task
    time.sleep(delay)
    if isinstance(value, Exception):
        raise value
    return value, time.monotonic()


def test_results_come_in_task_order_when_the_early_tasks_are_slow(two_cpus):
    tasks = [(0.6, "a"), (0.1, "b")] + [(0.0, n) for n in range(6)]
    results = list(fork_map(_sleep_then, tasks))
    assert [value for value, _ in results] == ["a", "b", 0, 1, 2, 3, 4, 5]
    # the second worker took every later task while the first slept
    assert max(finished for _, finished in results[1:]) < results[0][1]
    _no_child_left()


def test_the_first_failure_in_task_order_is_raised_with_its_type(two_cpus):
    tasks = [(0.5, KeyError("first in order")), (0.0, ValueError("first in time"))]
    with pytest.raises(KeyError, match="first in order"):
        list(fork_map(_sleep_then, tasks))
    _no_child_left()


def test_closing_the_generator_early_leaves_no_child(two_cpus):
    results = fork_map(_sleep_then, [(0.0, "a")] + [(0.2, n) for n in range(4)])
    assert next(results)[0] == "a"
    results.close()
    _no_child_left()


def test_a_killed_worker_raises_one_child_process_error(two_cpus):
    def die_on_the_second(task):
        if task == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return task

    with pytest.raises(ChildProcessError, match="^a worker ended without an answer$"):
        list(fork_map(die_on_the_second, range(3)))
    _no_child_left()


def test_one_cpu_runs_every_task_here(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert [value for value, _ in fork_map(_sleep_then, [(0.0, n) for n in range(5)])] == list(range(5))


def test_a_callers_freeze_is_left_as_it_was(two_cpus):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert list(fork_map(abs, [-1, -2, -3])) == [1, 2, 3]
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
    assert list(fork_map(abs, [-1, -2, -3])) == [1, 2, 3]
    assert gc.get_freeze_count() == 0
    _no_child_left()
