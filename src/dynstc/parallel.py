"""Independent work items on every CPU, in forked children, with serial errors.

One helper, ``_fill_in_parallel(fill, n)``, calls ``fill(i)`` for each
of the items 0..n-1, split into one contiguous range per CPU the process
may use (at most n): forked children fill every range but the last, and
the calling process the last.  The synthesis grid pass's items are
blocks of x rows.  ``dynstc run``'s are the CSV writes of its jobs, all
simulated before the fork; with fewer jobs than CPUs, a job's trajectory
CSV is written in several row ranges, an item each.  A child reports
nothing but its exit status; what it computes goes into a table in an
anonymous shared mapping (``_shared_table``), made before the fork, or
into files.  A range whose child fails is filled again by the parent, so
every error is raised in the parent as a serial loop over the items
raises it.  A child whose parent was killed stops before its next item
(``_fork``).  Only ``os`` and ``mmap`` are used: ``multiprocessing`` and
``concurrent.futures`` would cost every command 12-13 ms of imports.
"""

from __future__ import annotations

import errno
import os

import numpy as np


def _cpus():
    """The CPUs this process may run on; 1 where os.fork or os.sched_getaffinity is missing."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _shared_table(n_rows, n_cols, name):
    """A zeroed (n_rows, n_cols) float32 table `name` in one anonymous shared mapping.

    float32, 4 bytes an entry: the one table it holds, of the synthesis
    pass's block maxima, takes each rounded up to a float32 (half the
    mapping of doubles).  A forked child's writes to it are seen by the
    parent.  mmap reports a failed allocation as OSError(ENOMEM); it is
    raised as the MemoryError that numpy raises for an array too large to
    allocate.
    """
    import mmap  # here, so that commands which fork nothing do not load it

    n_bytes = n_rows * n_cols * 4
    try:
        buf = mmap.mmap(-1, n_bytes)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map a {name} of {n_bytes} bytes") from exc
    return np.frombuffer(buf, dtype=np.float32).reshape(n_rows, n_cols)


def _fork(fill, lo, hi):
    """The pid of a child that runs fill(i) for i in lo..hi-1, or None if fork fails.

    The child exits 0 iff every fill returns and 1 on any exception,
    interrupts included; os._exit runs no handler and flushes no buffer of
    the parent's.  A parent killed by a signal runs no `finally`, so
    nothing kills its children: before each item the child compares its
    parent's pid with the one at the fork and exits 1 once they differ, so
    it stops after the item it is on, not at the end of its range.
    """
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the parent fills the range itself
        return None
    if pid == 0:
        code = 1
        try:
            for i in range(lo, hi):
                if os.getppid() != parent:
                    os._exit(1)
                fill(i)
            code = 0
        finally:
            os._exit(code)
    return pid


def _kill_and_reap(pids):
    """SIGKILL and reap the children `pids`, which have not been waited for."""
    if pids:
        from signal import SIGKILL  # only here, so no call without an error loads it
        for pid in pids:
            os.kill(pid, SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _fill_in_parallel(fill, n):
    """fill(i) for each of the items 0..n-1 on k CPUs (_cpus, at most n), with serial errors.

    The items are split into k contiguous ranges; forked children fill
    every range but the last, and this process the last.  It then waits
    for the children in range order, fills again each range whose child
    did not exit 0 or could not be forked, and raises the error of its own
    range last.  So the error raised is the first failing item's, as a
    serial loop raises it; children are killed and reaped on every way out.
    """
    k = min(_cpus(), n)
    ranges = [(n * j // k, n * (j + 1) // k) for j in range(k)]
    pids = {}  # lo -> pid of each child not yet reaped
    try:
        for lo, hi in ranges[:-1]:
            pids[lo] = _fork(fill, lo, hi)
        error = None
        try:
            for i in range(*ranges[-1]):
                fill(i)
        except Exception as exc:  # raised after those of the earlier ranges
            error = exc
        for lo, hi in ranges[:-1]:
            status = 1 if pids[lo] is None else os.waitpid(pids[lo], 0)[1]
            del pids[lo]  # reaped
            if status != 0:
                for i in range(lo, hi):
                    fill(i)
        if error is not None:
            raise error
    finally:
        _kill_and_reap([pid for pid in pids.values() if pid is not None])
