"""Forked worker processes: the one place kronlift decides when to fork.

A command keeps at most worker_count() processes busy: the CPUs it may
run on divided by the BLAS thread count.  The BLAS reads that count from
the environment when numpy loads and starts one thread per CPU when none
is set.  Its idle threads spin, so a second process would oversubscribe
the CPUs: with 2 processes of 2 OpenBLAS threads on 2 CPUs a k=2 run
took 3.6x as long as the serial loop.  Without fork, as on Windows, the
count is 1.

run_forked runs independent tasks: the first here, the next
worker_count() - 1 in forked children, and any others here after them.
Children report only through their exit status, so every task but the
first writes its results into a shared_array, an anonymous shared
mapping that the parent reads.  A forked child runs only numpy and this
package, takes no lock another thread could hold, and leaves by
os._exit, so fork is safe here; OpenBLAS stops its own thread pool
before each fork.  If the first task raises, the children are killed
and reaped before the error propagates.  A task whose child did not exit
0 or never started runs again here, in task order, so an error surfaces
exactly as running the tasks in order raises it.  Each task runs the
same code in whichever process runs it, so results do not depend on the
worker count.

rmt_detector runs one chunk of windows per worker this way, and
spectral solves a tall window's covariance here while a child solves
its ring.  Window workers never fork again.
"""

from __future__ import annotations

import mmap
import os
import signal

import numpy as np

# where OpenBLAS reads its thread count, in its order (MKL also honours
# OMP_NUM_THREADS); an unknown count means the BLAS takes every CPU
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def worker_count() -> int:
    """Processes one command may keep busy: CPUs per BLAS thread count."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


def shared_array(size: int, dtype) -> np.ndarray:
    """A zeroed 1-D array that a forked child writes and its parent reads."""
    dtype = np.dtype(dtype)
    buf = mmap.mmap(-1, max(1, size) * dtype.itemsize)
    return np.frombuffer(buf, dtype, count=size)


def run_forked(tasks):
    """Run tasks as the module docstring says; return the first one's value."""
    pids: dict[int, int] = {}  # task index -> child pid
    try:
        for j in range(1, min(len(tasks), worker_count())):
            try:
                pids[j] = os.fork()
            except OSError:
                continue
            if pids[j] == 0:
                code = 1
                try:
                    tasks[j]()
                    code = 0
                finally:
                    os._exit(code)  # skip the parent's exit handlers and buffers
        result = tasks[0]()
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = {j: os.waitpid(pid, 0)[1] for j, pid in pids.items()}
    for j in range(1, len(tasks)):
        if status.get(j, 1) != 0:  # failed, or never forked
            tasks[j]()
    return result
