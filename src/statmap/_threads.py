"""Worker threads, made here and nowhere else in the package.

The process has one pool of helper threads, made on first use: one helper
fewer than the CPUs the process may use, as the calling thread works too.
It is made again when that count changes, and dropped in a forked child.
Each helper runs under the numpy error state of the thread that hands it
work (numpy keeps one per thread). A task that no helper has taken by the
time its caller wants the result runs on the caller instead, so no caller
waits for a busy pool; work that a helper runs gets no pool, and runs any
work of its own inline, so nested use cannot deadlock.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

_pool = None                # (helper count, executor), made on first use
_pool_lock = threading.Lock()
_in_helper = threading.local()


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


def _mark_helper():
    _in_helper.marked = True


def _forget_pool():
    """In a forked child, where the parent's helper threads do not exist."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def shared_pool():
    """The process's pool of ``_worker_count() - 1`` helper threads, or None
    where work runs inline: on one CPU, and on the pool's own helpers."""
    global _pool
    helpers = _worker_count() - 1
    if helpers < 1 or getattr(_in_helper, "marked", False):
        return None
    with _pool_lock:
        if _pool is None or _pool[0] != helpers:
            if _pool is not None:
                _pool[1].shutdown(wait=False)   # its queued tasks still run
            _pool = helpers, ThreadPoolExecutor(max_workers=helpers,
                                                initializer=_mark_helper)
        return _pool[1]


def _under_errstate(errs: dict, work, *args):
    """work(*args) under errs, the error state of the caller's thread."""
    with np.errstate(**errs):
        return work(*args)


def start(pool, work, *args):
    """Begin work(*args) on a helper of pool, and return the call that
    waits for its result. Without a pool, or when no helper has taken the
    task by then, that call runs work inline."""
    if pool is None:
        return partial(work, *args)
    task = pool.submit(_under_errstate, np.geterr(), work, *args)
    return lambda: work(*args) if task.cancel() else task.result()


def map_in_order(work, items: list) -> list:
    """[work(item) for item in items], on up to one thread per usable CPU,
    the calling thread included, or inline when that makes one.

    The threads take items by index from one counter, so the items spread
    over the threads however long each takes; results come back in item
    order. After an item raises, no thread takes another, and the error of
    the lowest item that raised is raised here, as the inline loop would."""
    helpers = min(len(items), _worker_count()) - 1
    pool = shared_pool() if helpers > 0 else None
    if pool is None:
        return [work(item) for item in items]
    results, errors = [None] * len(items), {}
    indices, take = iter(range(len(items))), threading.Lock()

    def drain():
        while not errors:
            with take:
                i = next(indices, None)
            if i is None:
                return
            try:
                results[i] = work(items[i])
            except BaseException as exc:    # raised on the calling thread
                errors[i] = exc

    waits = [start(pool, drain) for _ in range(helpers)]
    drain()
    for wait in waits:
        wait()
    if errors:
        raise errors[min(errors)]
    return results
