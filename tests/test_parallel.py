import errno
import os
import select
import signal
import time

import pytest

from dynstc import parallel


def _counting_forks(monkeypatch):
    forks = []
    real = parallel._fork

    def fork(fill, lo, hi):
        forks.append((lo, hi))
        return real(fill, lo, hi)

    monkeypatch.setattr(parallel, "_fork", fork)
    return forks


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_fill_behind_fills_each_made_item_once(monkeypatch, k, n):
    monkeypatch.setattr(parallel, "_cpus", lambda: k)
    forks = _counting_forks(monkeypatch)
    made = [False] * n
    table = parallel._shared_table(n, 2, "test table")

    def make(i):
        time.sleep(0.002)
        made[i] = True

    def fill(i):
        table[i, 0] += 1
        table[i, 1] = made[i]  # the copy a child got at its fork

    parallel._fill_in_parallel(fill, n, make)
    assert table.tolist() == [[1.0, 1.0]] * n
    # ranges handed to children are contiguous, in item order
    assert [lo for lo, _ in forks] == [0, *(hi for _, hi in forks)][:len(forks)]
    assert (len(forks) > 0) == (min(k, n) > 1)


@pytest.mark.parametrize("bad", [{8}, {2, 8}, {4, 5}, {0, 1, 2, 3, 4, 5, 6, 7, 8}])
def test_fill_behind_raises_the_first_failing_item(monkeypatch, bad):
    # whichever process fills an item, the parent raises the error of the
    # first failing one, after every make
    made = []

    def make(i):
        time.sleep(0.002)
        made.append(i)

    def fill(i):
        if i in bad:
            raise ValueError(f"item {i}")

    for k in (1, 2, 3):
        monkeypatch.setattr(parallel, "_cpus", lambda: k)
        made.clear()
        with pytest.raises(ValueError, match=f"^item {min(bad)}$"):
            parallel._fill_in_parallel(fill, 9, make)
        assert made == list(range(9))


def test_fill_behind_raises_an_error_of_make_at_once(monkeypatch):
    monkeypatch.setattr(parallel, "_cpus", lambda: 3)
    filled = parallel._shared_table(9, 1, "test table")

    def make(i):
        time.sleep(0.002)
        if i == 6:
            raise KeyboardInterrupt

    def fill(i):
        time.sleep(0.01)
        filled[i] = 1.0

    with pytest.raises(KeyboardInterrupt):
        parallel._fill_in_parallel(fill, 9, make)
    # no item from 6 on is filled, and the children are reaped (conftest)
    assert not filled[6:].any()


def test_fill_behind_fills_what_it_could_not_hand_off(monkeypatch):
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    seen = []
    parallel._fill_in_parallel(seen.append, 4, lambda i: None)
    # the parent fills every item, once
    assert sorted(seen) == [0, 1, 2, 3]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_static_split_hands_every_range_but_the_last_to_children(monkeypatch, k, n):
    # without make: one contiguous range per CPU, children fill the first
    # min(k, n) - 1 and the parent the last
    monkeypatch.setattr(parallel, "_cpus", lambda: k)
    forks = _counting_forks(monkeypatch)
    parent = os.getpid()
    table = parallel._shared_table(n, 2, "test table")

    def fill(i):
        table[i, 0] += 1
        table[i, 1] = os.getpid() == parent

    parallel._fill_in_parallel(fill, n)
    m = min(k, n)
    assert forks == [(n * j // m, n * (j + 1) // m) for j in range(m - 1)]
    assert table[:, 0].tolist() == [1.0] * n
    assert table[:, 1].tolist() == [float(i >= n * (m - 1) // m) for i in range(n)]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_static_split_raises_the_first_failing_item(monkeypatch, k, n):
    # the first item of each range fails, the parent's last; the error of
    # item 0 is raised, whichever process filled it
    monkeypatch.setattr(parallel, "_cpus", lambda: k)
    m = min(k, n)
    firsts = {n * j // m for j in range(m)}

    def fill(i):
        if i in firsts:
            raise ValueError(f"item {i}")

    with pytest.raises(ValueError, match="^item 0$"):
        parallel._fill_in_parallel(fill, n)
    # the parent's range alone fails: its error, after the children's ranges
    last = n * (m - 1) // m
    seen = parallel._shared_table(n, 1, "test table")

    def fill_last(i):
        seen[i] = 1.0
        if i == last:
            raise ValueError(f"item {i}")

    with pytest.raises(ValueError, match=f"^item {last}$"):
        parallel._fill_in_parallel(fill_last, n)
    assert seen[:last + 1].all()



def test_a_child_whose_parent_is_killed_stops_before_its_next_item(tmp_path):
    # a forked process runs the static split at k = 2 and is SIGKILLed
    # while its child is on its first item; the child, re-parented, starts
    # no further item of its range
    log = tmp_path / "log"

    def fill(i):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {time.time()!r}\n")
        time.sleep(0.3)

    # the child inherits the write end, so the read end sees EOF once it exits
    done, held = os.pipe()
    parent = os.fork()
    if parent == 0:
        try:
            parallel._cpus = lambda: 2
            parallel._fill_in_parallel(fill, 8)
        finally:
            os._exit(0)
    os.close(held)
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            pids = {int(line.split()[0]) for line in
                    (log.read_text().splitlines() if log.exists() else [])}
            if pids - {parent}:
                break
            time.sleep(0.01)
        else:
            pytest.fail(f"the child filled no item: {pids}")
    finally:
        os.kill(parent, signal.SIGKILL)
        os.waitpid(parent, 0)
    killed = time.time()
    try:
        assert select.select([done], [], [], 30)[0] and os.read(done, 1) == b""
    finally:
        os.close(done)
    (child,) = pids - {parent}
    lines = [line.split() for line in log.read_text().splitlines()]
    assert [t for pid, t in lines if int(pid) == child and float(t) > killed] == []
    assert 1 <= sum(int(pid) == child for pid, _ in lines) < 4
