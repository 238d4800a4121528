"""The worker processes shared by the repdays sweep and the GA.

`WorkerPool` computes one function over a list of items on the calling
process and `workers` - 1 pool processes; `available_cpus` and
`processes_for` say how many processes to run.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import multiprocessing.connection
import os
import pickle
import socket


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The send buffer asked for on a pool process's socket: room for one result
# (a repdays sweep result pickles to about 290 KB), so a process that has
# computed an item goes on to claim the next without waiting for the calling
# process to read. Linux grants at most twice net.core.wmem_max.
RESULT_BUFFER = 1 << 20


def _outcome(fn, item, shared) -> tuple[bool, object]:
    """(True, fn(item, *shared)), or (False, the exception it raised)."""
    try:
        return True, fn(item, *shared)
    except Exception as exc:
        return False, exc


def _pickled(outcome) -> bytes:
    """An outcome as bytes; one whose value cannot be pickled becomes an error."""
    try:
        return pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        error = RuntimeError(f"cannot send back a {type(outcome[1]).__name__}: {exc!r}")
        return pickle.dumps((False, error), pickle.HIGHEST_PROTOCOL)


def _unpickled(payload: bytes) -> tuple[bool, object]:
    """The outcome a pool process sent; one that cannot be unpickled is an error."""
    try:
        return pickle.loads(payload)
    except Exception as exc:
        return False, RuntimeError(f"cannot read back an item's outcome: {exc!r}")


def _serve(conn, cursor, lock, fn, *shared) -> None:
    """A pool process: for each round of items the calling process sends,
    claim items of that round from the high end of the shared (round, low,
    high) cursor and send back (round, index, pickled outcome) for each,
    until the calling process closes its end of the pipe."""
    try:
        while True:
            rnd, items = conn.recv()
            while True:
                with lock:
                    if cursor[0] != rnd or cursor[1] >= cursor[2]:
                        break
                    cursor[2] -= 1
                    i = cursor[2]
                conn.send((rnd, i, _pickled(_outcome(fn, items[i], shared))))
    except (EOFError, OSError):  # the calling process closed its end
        pass


class WorkerPool:
    """`workers` processes, the calling one included, that compute
    `fn(item, *shared)`.

    The `workers` - 1 pool processes (none for one worker) are started
    once, with the platform's start method, and get `fn` and `shared` then,
    so a round of items carries only the items. Each has one duplex pipe to
    the calling process. The garbage collector's heap is frozen while they
    start, so a forked process's collections leave the pages it shares with
    the calling process alone. A `with` block stops them."""

    def __init__(self, workers: int, fn, *shared):
        self.workers, self._fn, self._shared = workers, fn, shared
        self._round = 0
        self._conns, self._procs = [], []
        if workers < 2:
            return
        ctx = multiprocessing.get_context()
        self._lock = ctx.Lock()
        self._cursor = ctx.RawArray("q", 3)  # round, low, high: items low..high-1 are unclaimed
        gc.freeze()
        try:
            for _ in range(workers - 1):
                ours, theirs = ctx.Pipe()
                self._conns.append(ours)
                try:
                    with socket.socket(fileno=os.dup(theirs.fileno())) as sock, \
                            contextlib.suppress(OSError):  # a size the OS refuses: keep its own
                        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, RESULT_BUFFER)
                    proc = ctx.Process(target=_serve, daemon=True,
                                       args=(theirs, self._cursor, self._lock, fn, *shared))
                    proc.start()
                finally:
                    theirs.close()
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise
        finally:
            gc.unfreeze()

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the pool processes, one still computing an item included."""
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            proc.join()
            proc.close()
        self._conns, self._procs = [], []

    def in_order(self, items):
        """Send the items to the pool processes now and return an iterator
        over `fn(item, *shared)` for each item, in item order.

        The calling process computes the first item and claims the others
        from the low end as the iterator reaches them; each pool process
        claims them from the high end. So the calling process computes
        every item no pool process has claimed, and waits only for an item
        one has. Between its own items it reads the results that have come
        in. The error raised is that of the first failing item. A later
        call starts a new round: the pool processes then claim none of this
        round's items, their results for it are dropped, and this round's
        iterator raises RuntimeError."""
        items = list(items)
        if not self._procs:
            return (self._fn(item, *self._shared) for item in items)
        self._round += 1
        with self._lock:
            self._cursor[:] = self._round, 1, len(items)
        if len(items) > 1:
            message = pickle.dumps((self._round, items), pickle.HIGHEST_PROTOCOL)
            for conn in self._conns:
                conn.send_bytes(message)
        return self._results(self._round, items)

    def _results(self, rnd: int, items: list):
        done: dict[int, tuple[bool, object]] = {}
        for i, item in enumerate(items):
            if self._round != rnd:
                raise RuntimeError("a later in_order call has taken the pool")
            if i not in done and (i == 0 or self._claim()):
                done[i] = _outcome(self._fn, item, self._shared)
                self._receive(rnd, done, 0)
            while i not in done:
                self._receive(rnd, done, None)
            ok, value = done.pop(i)
            if not ok:
                raise value
            yield value

    def _claim(self) -> bool:
        """Claim the lowest unclaimed item of the round, if any is left; the
        iterator asks only when that item is the one it has reached."""
        with self._lock:
            if self._cursor[1] >= self._cursor[2]:
                return False
            self._cursor[1] += 1
            return True

    def _receive(self, rnd: int, done: dict, timeout) -> None:
        """Read one message from each pool process that has one ready within
        `timeout` seconds (None: until one has), keeping round `rnd`'s. A
        pool process that has exited is an error only to a caller waiting
        on the pool (`timeout` None); a poll passes it by."""
        for conn in multiprocessing.connection.wait(self._conns, timeout):
            try:
                got, i, payload = conn.recv()
            except EOFError:
                if timeout is not None:
                    continue
                raise RuntimeError("a pool process exited before sending its result") from None
            if got == rnd:
                done[i] = _unpickled(payload)


# the variables a BLAS library reads its thread count from
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def processes_for(n_items: int) -> int:
    """Processes for `n_items` items whose work runs on BLAS, the calling
    one included: the CPUs BLAS leaves free.

    Each item's matrix products run on the BLAS library's own threads, which
    take every CPU unless one of `_BLAS_THREAD_VARS` caps them (the largest
    set value counts), so default BLAS threading gives one process and a
    one-thread BLAS one process per CPU, at most one per item.
    """
    caps = [int(v) for v in map(os.environ.get, _BLAS_THREAD_VARS) if v and v.isdigit() and int(v) > 0]
    blas = max(caps) if caps else available_cpus()
    return max(1, min(n_items, available_cpus() // blas))
