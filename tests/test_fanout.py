import multiprocessing
import os
import time

import pytest

from smoothcure.fanout import _fan_out


def _pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


def _square_or_fail(i):
    if i == 3:
        raise ValueError("task 3")
    return i * i


def _die_at(i):
    if i == 2:
        os._exit(1)
    return i


class TestFanOut:
    def test_results_in_task_order(self):
        tasks = [(7 * i) % 5 * 0.002 for i in range(12)]
        assert _fan_out(_square_or_fail, list(range(3)), 2) == [0, 1, 4]
        pids = _fan_out(_pid_after, tasks, 2)
        assert len(pids) == 12 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_slow_worker_takes_fewer_tasks(self):
        # One task outlasts the other twenty together, so the worker that
        # takes it takes no other.
        pids = _fan_out(_pid_after, [0.5] + [0.0] * 20, 2)
        assert pids.count(pids[0]) == 1
        assert len(set(pids)) == 2

    def test_worker_error_is_raised(self):
        with pytest.raises(ValueError, match="task 3"):
            _fan_out(_square_or_fail, list(range(10)), 2)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_is_an_error(self):
        with pytest.raises(RuntimeError, match="without sending its results"):
            _fan_out(_die_at, list(range(6)), 2)
        assert multiprocessing.active_children() == []

    def test_serial_runs_here(self):
        assert _fan_out(_pid_after, [0.0, 0.0], 1) == [os.getpid()] * 2
