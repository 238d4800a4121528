"""Worker pool and process-count tests."""

import multiprocessing
import os
import threading
import time

import pytest

from emsim.pool import _BLAS_THREAD_VARS, WorkerPool, available_cpus, processes_for


@pytest.mark.parametrize("affinity, cpu_count, want", [
    ({1}, 8, 1),      # pinned to one of eight CPUs
    ({0, 3}, 8, 2),
    (None, 6, 6),     # no affinity call on this OS
    (None, None, 1),  # and no CPU count either
])
def test_available_cpus_reads_the_affinity_set(monkeypatch, affinity, cpu_count, want):
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    assert available_cpus() == want


def square_or_fail(item, caller, started, caller_delay, worker_delay, failing):
    """`item` squared, with the id of the process that computed it, after
    that process's delay; raises for the `failing` items. A worker sets the
    `started` event; the calling process waits for it, when one is given,
    so it starts only after a worker has claimed an item."""
    if os.getpid() == caller:
        if started is not None:
            assert started.wait(30)
        time.sleep(caller_delay)
    else:
        started.set()
        time.sleep(worker_delay)
    if item in failing:
        raise ValueError(f"item {item} failed")
    return item * item, os.getpid()


def _started(workers):
    return multiprocessing.Event() if workers > 1 else None


@pytest.mark.parametrize("workers", [1, 3])
def test_worker_pool_yields_in_item_order_and_the_caller_takes_what_no_worker_started(workers):
    items = list(range(10))
    # slow workers: the caller overtakes them
    with WorkerPool(workers, square_or_fail, os.getpid(), _started(workers),
                    0.0, 0.1, ()) as pool:
        results = list(pool.in_order(items))
    assert [value for value, _ in results] == [i * i for i in items]
    by_caller = [i for i, (_, pid) in zip(items, results) if pid == os.getpid()]
    if workers == 1:
        assert by_caller == items
    else:  # the caller computes the first item, and the workers claim from the last
        assert by_caller[:2] == [0, 1] and 9 not in by_caller
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 3])
def test_worker_pool_raises_the_error_of_the_first_failing_item(workers):
    results = []
    # a slow caller: the workers fail on item 9 before it reads item 6
    with pytest.raises(ValueError, match="^item 6 failed$"):
        with WorkerPool(workers, square_or_fail, os.getpid(), _started(workers),
                        0.05, 0.0, (6, 9)) as pool:
            for value, _ in pool.in_order(range(10)):
                results.append(value)
    assert results == [i * i for i in range(6)]
    assert multiprocessing.active_children() == []


def test_worker_pool_submits_before_the_first_result_is_read():
    # the calling process can do other work while the workers start
    started = multiprocessing.Event()
    with WorkerPool(2, square_or_fail, os.getpid(), started, 0.0, 0.0, ()) as pool:
        results = pool.in_order(range(3))
        assert started.wait(30)
        assert [value for value, _ in results] == [0, 1, 4]
    assert multiprocessing.active_children() == []


def test_worker_pool_caller_computes_every_item_no_worker_has_claimed():
    # one pool process that takes 0.5 s an item: it claims the last item, and
    # the calling process computes the first two instead of waiting for it
    started = multiprocessing.Event()
    with WorkerPool(2, square_or_fail, os.getpid(), started, 0.0, 0.5, ()) as pool:
        results = pool.in_order(range(3))
        assert started.wait(30)
        begin = time.perf_counter()
        results = list(results)
        elapsed = time.perf_counter() - begin
    assert [value for value, _ in results] == [0, 1, 4]
    assert [pid for _, pid in results[:2]] == [os.getpid()] * 2
    assert elapsed < 2 * 0.5
    assert multiprocessing.active_children() == []


def test_worker_pool_drops_a_result_of_an_earlier_round():
    # the pool process is still on item 2 of round one when round two
    # starts; its result (4) reaches the calling process during round two,
    # after the calling process has claimed item 2 of round two
    with WorkerPool(2, square_or_fail, os.getpid(), multiprocessing.Event(),
                    0.2, 0.5, ()) as pool:
        first = pool.in_order(range(3))
        assert next(first)[0] == 0
        assert [value for value, _ in pool.in_order(range(3, 7))] == [9, 16, 25, 36]
        with pytest.raises(RuntimeError, match="later in_order call"):
            next(first)
    assert multiprocessing.active_children() == []


def test_worker_pool_stops_a_worker_mid_item_when_its_iterator_is_abandoned():
    started = multiprocessing.Event()
    begin = time.perf_counter()
    with WorkerPool(2, square_or_fail, os.getpid(), started, 0.0, 30.0, ()) as pool:
        results = pool.in_order(range(3))
        assert next(results)[0] == 0  # once the pool process has begun item 2
    assert time.perf_counter() - begin < 30
    assert multiprocessing.active_children() == []


class Unreadable(Exception):
    """An error that pickles but cannot be unpickled: its pickle holds one
    of the two arguments its constructor needs."""

    def __init__(self, what, why):
        super().__init__(what)


def unsendable(item, caller, started):
    """`item`, in the calling process once a pool process has started an
    item; in a pool process, an outcome that cannot reach the calling
    process: a lock ("result"), an error holding a lock ("error"), an
    `Unreadable` error or none, the process exiting ("exit")."""
    if os.getpid() == caller:
        assert started.wait(30)
        return item
    started.set()
    if item == "result":
        return threading.Lock()
    if item == "error":
        raise ValueError(threading.Lock())
    if item == "exit":
        os._exit(3)
    raise Unreadable(item, "why")


@pytest.mark.parametrize("kind, message", [
    ("result", "cannot send back a lock"), ("error", "cannot send back a ValueError"),
    ("unreadable", "cannot read back"), ("exit", "exited before sending its result"),
])
def test_worker_pool_raises_an_outcome_that_cannot_come_back_as_the_items_error(kind, message):
    with WorkerPool(2, unsendable, os.getpid(), multiprocessing.Event()) as pool:
        results = pool.in_order(["first", kind])
        assert next(results) == "first"
        with pytest.raises(RuntimeError, match=message):
            next(results)
    assert multiprocessing.active_children() == []


def exits(item, caller):
    """`item`, in the calling process once no pool process is left; a pool
    process exits."""
    if os.getpid() != caller:
        os._exit(3)
    deadline = time.monotonic() + 30
    while multiprocessing.active_children():
        assert time.monotonic() < deadline
        time.sleep(0.01)
    return item


def test_a_pool_process_that_exits_fails_only_the_item_it_took():
    """The calling process's own item comes back although the pool process
    had exited by the time it was computed."""
    with WorkerPool(2, exits, os.getpid()) as pool:
        results = pool.in_order(["first", "second"])
        assert next(results) == "first"
        with pytest.raises(RuntimeError, match="exited before sending its result"):
            next(results)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, blas, n_k, want", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 24, 2),
    (2, {}, 24, 1),                                            # BLAS takes every CPU
    (8, {"OPENBLAS_NUM_THREADS": "2"}, 24, 4),
    (8, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),                  # at most one per k
    (1, {"OPENBLAS_NUM_THREADS": "1"}, 24, 1),
    (4, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 24, 1),  # the largest cap
    (4, {"MKL_NUM_THREADS": "8"}, 24, 1),
    (4, {"OMP_NUM_THREADS": "junk"}, 24, 1),
])
def test_the_sweep_threads_share_the_cpus_with_blas(monkeypatch, cpus, blas, n_k, want):
    for name in _BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in blas.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr("emsim.pool.available_cpus", lambda: cpus)
    assert processes_for(n_k) == want
