"""Independent work items on every CPU, in forked children, with serial errors.

Two callers split their items into contiguous ranges.  The synthesis grid
pass uses ``_fill_in_parallel(fill, n)``, which calls ``fill(lo, hi)``
for ranges 1..k-1 in forked children and for range 0 in the calling
process, k being the number of CPUs the process may use.  ``dynstc run``
uses ``_fill_behind(make, fill, n)``: the calling process makes each item
in turn and forked children fill the items already made meanwhile.  There
an item is a run, simulated by make and written to its CSVs by fill; with
fewer runs than CPUs it is one of a run's write parts, a row range of its
trajectory CSV, and make simulates the run at its first part only.  A
child reports nothing but its exit status; what it computes goes into a
table in an anonymous shared mapping (``_shared_table``), made before the
fork, or into files.  A range whose child fails is filled again by the
parent, so every error is raised in the parent as a serial loop over the
items raises it.  A child whose parent was killed stops before its next
item (``_exit_if_orphaned``).
Only ``os`` and ``mmap`` are used: ``multiprocessing`` and
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
    """A zeroed (n_rows, n_cols) float table `name` in one anonymous shared mapping.

    A forked child's writes to it are seen by the parent.  mmap reports a
    failed allocation as OSError(ENOMEM); it is raised as the MemoryError
    that numpy raises for an array too large to allocate.
    """
    import mmap  # here, so that commands which fork nothing do not load it

    n_bytes = n_rows * n_cols * 8
    try:
        buf = mmap.mmap(-1, n_bytes)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map a {name} of {n_bytes} bytes") from exc
    return np.frombuffer(buf, dtype=float).reshape(n_rows, n_cols)


_forked_by = None  # in a child of _fork: the pid of the process that forked it


def _exit_if_orphaned():
    """In a child of _fork whose parent has exited, exit at once with status 1.

    A parent killed by a signal runs no `finally`, so nothing kills its
    children.  Each fill calls this before each of its items, so such a
    child stops after the item it is on, not at the end of its range.  In
    the parent it does nothing.
    """
    if _forked_by is not None and os.getppid() != _forked_by:
        os._exit(1)


def _fork(fill, lo, hi):
    """The pid of a child that runs fill(lo, hi), or None if fork fails.

    The child exits 0 iff fill returns and 1 on any exception, interrupts
    included; os._exit runs no handler and flushes no buffer of the parent's.
    """
    global _forked_by
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the parent fills the range itself
        return None
    if pid == 0:
        _forked_by = parent
        code = 1
        try:
            fill(lo, hi)
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
    """fill(lo, hi) over items 0..n-1, split into k contiguous ranges.

    k is the number of CPUs (_cpus), at most n.  Ranges 1..k-1 go to
    forked children and the parent fills range 0, then waits for the
    children in range order and refills any range whose child did not exit
    0 or could not be forked.  So each error is raised by the parent, at the
    first failing item in item order, as a serial loop raises it; and
    children are killed and reaped on every way out of the call.
    """
    k = min(_cpus(), n)
    edges = [n * i // k for i in range(k + 1)]
    pids = []
    try:
        for lo, hi in zip(edges[1:-1], edges[2:]):
            pids.append(_fork(fill, lo, hi))
        fill(edges[0], edges[1])
        for i, pid in enumerate(pids):
            status = 1 if pid is None else os.waitpid(pid, 0)[1]
            pids[i] = None
            if status != 0:
                fill(edges[i + 1], edges[i + 2])
    finally:
        _kill_and_reap([pid for pid in pids if pid is not None])


def _fill_behind(make, fill, n):
    """make(i) for items 0..n-1 in this process, fill over them in forked children.

    After each make but the last, if fewer than k - 1 children run (k
    being the number of CPUs, _cpus, at most n), a child is forked to fill
    every item made and not yet handed out.  So children fill the earlier
    items while the parent makes the later ones, and a range grows while
    the children lag.  After the last make the parent fills the items no
    child took (at k = 1, all of them) beside the children, then waits for
    them in range order and fills again each range whose child did not
    exit 0 or could not be forked.  An error of make is raised at once,
    and one of fill after every make, at the first failing item, as a loop
    over make and then one over fill raise them; children are killed and
    reaped on every way out of the call.
    """
    k = min(_cpus(), n)
    running, refill = {}, []  # lo -> (hi, pid) of each child; ranges the parent fills
    taken = 0  # the items before it are handed out

    def reap(lo, hang):
        hi, pid = running[lo]
        done, status = os.waitpid(pid, 0 if hang else os.WNOHANG)
        if done:
            del running[lo]
            if status != 0:
                refill.append((lo, hi))

    try:
        for i in range(n):
            make(i)
            for lo in list(running):
                reap(lo, hang=False)
            if i < n - 1 and len(running) < k - 1:
                pid = _fork(fill, taken, i + 1)
                if pid is None:
                    refill.append((taken, i + 1))
                else:
                    running[taken] = (i + 1, pid)
                taken = i + 1
        error = None
        try:
            fill(taken, n)
        except Exception as exc:  # raised after those of the earlier items
            error = exc
        for lo in list(running):
            reap(lo, hang=True)
        for lo, hi in sorted(refill):
            fill(lo, hi)
        if error is not None:
            raise error
    finally:
        _kill_and_reap([pid for _, pid in running.values()])
