"""The process-wide worker pool: one set of helper threads, reused by every
call, sized by the usable CPUs, safe to nest and dropped across a fork."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from statmap import _threads
from statmap._threads import map_in_order, shared_pool


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def idents_of(count):
    """map_in_order over count slow items: the thread ident of each."""
    def work(item):
        time.sleep(0.002)       # long enough for every helper to take items
        return threading.get_ident()
    return map_in_order(work, list(range(count)))


def test_calls_share_one_set_of_helper_threads(monkeypatch):
    usable_cpus(monkeypatch, 2)
    caller = threading.get_ident()
    first, second = (set(idents_of(16)) - {caller} for _ in range(2))
    assert len(first) == 1
    assert first == second
    assert shared_pool() is shared_pool()


def test_pool_is_made_again_when_the_cpu_count_changes(monkeypatch):
    usable_cpus(monkeypatch, 2)
    two = shared_pool()
    usable_cpus(monkeypatch, 4)
    four = shared_pool()
    assert four is not two
    assert len(set(idents_of(32)) - {threading.get_ident()}) <= 3
    usable_cpus(monkeypatch, 1)
    assert shared_pool() is None
    assert set(idents_of(4)) == {threading.get_ident()}


def test_nested_calls_finish_and_run_inline_on_a_helper(monkeypatch):
    # with idle helpers left over, a nested call on a helper could hand them
    # its items; it must keep them on its own thread
    usable_cpus(monkeypatch, 4)
    done = []

    def inner(j):
        time.sleep(0.001)
        return threading.get_ident()

    def outer(i):
        time.sleep(0.002)
        return threading.get_ident(), map_in_order(inner, list(range(6)))

    runner = threading.Thread(
        target=lambda: done.append(map_in_order(outer, list(range(2)))))
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive()
    [results] = done
    assert len(results) == 2
    helpers = {ident for ident, _ in results} - {runner.ident}
    assert helpers
    for ident, inner_idents in results:
        if ident in helpers:
            assert set(inner_idents) == {ident}


def test_every_item_runs_once_under_frequent_switches(monkeypatch):
    # more threads than this host has cores, switching often: a lost update
    # of the shared item counter would run an item twice or never
    usable_cpus(monkeypatch, 4)
    runs = []

    def work(i):
        runs.append(i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            runs.clear()
            assert map_in_order(work, list(range(300))) == [
                i * i for i in range(300)]
            assert sorted(runs) == list(range(300))
    finally:
        sys.setswitchinterval(interval)


def test_the_lowest_failing_item_raises(monkeypatch):
    usable_cpus(monkeypatch, 2)

    def work(i):
        # item 4 fails after item 5, which another thread has taken by then
        time.sleep(0.02 if i == 4 else 0.001 if i != 5 else 0.0)
        if i in (4, 5):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 4"):
        map_in_order(work, list(range(40)))


def test_helpers_run_under_the_callers_error_state(monkeypatch):
    usable_cpus(monkeypatch, 2)
    caller = threading.get_ident()

    def state(_):
        time.sleep(0.002)
        return threading.get_ident(), np.geterr()

    with np.errstate(all="raise", under="ignore"):
        want = np.geterr()
        seen = map_in_order(state, list(range(16)))
    assert {ident for ident, _ in seen} - {caller}
    assert all(errs == want for _, errs in seen)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_makes_its_own_pool(monkeypatch):
    usable_cpus(monkeypatch, 2)
    shared_pool()
    pid = os.fork()
    if pid == 0:    # the child: no parent helpers, and a working pool
        ok = (_threads._pool is None
              and map_in_order(lambda i: i + 1, [1, 2, 3]) == [2, 3, 4])
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert _threads._pool is not None
