"""Independent work items on every CPU, in forked children, with serial errors.

One helper, ``_fill_in_parallel(fill, n, make=None)``, calls ``fill(i)``
for each of the items 0..n-1, over contiguous ranges of them, on k CPUs,
k being the number the process may use.  Given ``make``, the calling
process makes each item in turn and forked children fill the items
already made meanwhile; the items left once every item is made (all of
them without ``make``) are split into one range per free CPU, children
fill every range but the last, and the calling process the last.  The
synthesis grid pass passes no ``make``: its items are blocks of x rows.
``dynstc run`` passes one: an item is a run, simulated by make and
written to its CSVs by fill; with fewer runs than CPUs it is one of a
run's write parts, a row range of its trajectory CSV, and make simulates
the run at its first part only.  A child reports nothing but its exit
status; what it computes goes into a table in an anonymous shared
mapping (``_shared_table``), made before the fork, or into files.  A
range whose child fails is filled again by the parent, so every error is
raised in the parent as a serial loop over the items raises it.  A child
whose parent was killed stops before its next item (``_fork``).
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


def _fill_in_parallel(fill, n, make=None):
    """fill(i) for each of the items 0..n-1 on k CPUs (_cpus, at most n), with serial errors.

    With `make`, this process calls make(i) for each item in turn, and
    after each make but the last, if fewer than k - 1 children run, forks
    a child to fill every item made and not yet handed out.  So children
    fill the earlier items while this process makes the later ones.  Once
    every item is made (at once without make), the items left are split
    into one contiguous range per free CPU; children fill every range but
    the last, and this process the last.  It then waits for the children
    in range order, fills again each range whose child did not exit 0 or
    could not be forked, and raises the error of its own range last.  So
    an error of make is raised at once, and one of fill after every make,
    at the first failing item, as a loop over make and then one over fill
    raise them; children are killed and reaped on every way out.
    """
    k = min(_cpus(), n)
    handed, failed, pids = [], set(), {}  # ranges in item order; lo of those failed; lo -> pid

    def hand_out(lo, hi):
        handed.append((lo, hi))
        pid = _fork(fill, lo, hi)
        if pid is None:
            failed.add(lo)
        else:
            pids[lo] = pid

    def reap(lo, flags=0):
        done, status = os.waitpid(pids[lo], flags)
        if done:
            del pids[lo]
            if status != 0:
                failed.add(lo)

    try:
        taken = 0  # the items before it are handed out
        for i in range(n if make else 0):
            make(i)
            for lo in list(pids):
                reap(lo, os.WNOHANG)
            if i < n - 1 and len(pids) < k - 1:
                hand_out(taken, i + 1)
                taken = i + 1
        free = max(1, min(k - len(pids), n - taken))
        edges = [taken + (n - taken) * j // free for j in range(free + 1)]
        for lo, hi in zip(edges[:-2], edges[1:-1]):
            hand_out(lo, hi)
        error = None
        try:
            for i in range(edges[-2], edges[-1]):
                fill(i)
        except Exception as exc:  # raised after those of the earlier ranges
            error = exc
        for lo, hi in handed:
            if lo in pids:
                reap(lo)
            if lo in failed:
                for i in range(lo, hi):
                    fill(i)
        if error is not None:
            raise error
    finally:
        _kill_and_reap(list(pids.values()))
