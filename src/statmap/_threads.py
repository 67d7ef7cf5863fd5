"""Worker threads, made here and nowhere else in the package. Workers are
sized by the CPUs the process may use, and each runs under the numpy error
state of the thread that hands it work (numpy keeps one per thread)."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from functools import partial

import numpy as np


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


def _under_errstate(errs: dict, work, *args):
    """work(*args) under errs, the error state of the caller's thread."""
    with np.errstate(**errs):
        return work(*args)


def map_in_order(work, items: list) -> list:
    """[work(item) for item in items], on min(len(items), usable CPUs)
    threads, or inline when that count is 1."""
    threads = min(len(items), _worker_count())
    if threads <= 1:
        return [work(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(partial(_under_errstate, np.geterr(), work),
                             items))


def helper_pool():
    """One helper thread for ``start`` on more than one CPU, else None."""
    return (ThreadPoolExecutor(max_workers=1) if _worker_count() > 1
            else nullcontext())


def start(pool, work, *args):
    """Begin work(*args) on pool's helper thread, and return the call that
    waits for its result; without a pool, that call runs work inline."""
    if pool is None:
        return partial(work, *args)
    return pool.submit(_under_errstate, np.geterr(), work, *args).result
