"""Worker threads: how many CPUs the process may use, and the numpy error
state that a worker must share with its caller (numpy keeps one per
thread). The chart trainer, the GP fit and the experiments' judging pool
size their workers by the first; the trainer and the fit hand their work
over with the second."""

from __future__ import annotations

import os

import numpy as np


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # platforms without CPU affinity
        return os.cpu_count() or 1


def _under_errstate(errs: dict, work, *args):
    """work(*args) under the numpy error state errs (``np.geterr()`` of the
    thread that handed the work over)."""
    with np.errstate(**errs):
        return work(*args)
