"""One way to fan work out: round-robin shares on a pool of forked workers.

``deal`` is the only place that decides how work fans out: how many workers
share it (no more than the workers asked for, the items to share or the
usable CPUs) and whether it leaves the process at all.  Workers are forked
on first need and reused by every later ``deal`` of the process, so a call
pays neither a fork nor the copy-on-write faults that follow one.  Each
worker reads pickled ``(job, args, share)`` messages from its one duplex
connection to the parent and answers on it with ``("ok", result)`` or
``("error", traceback)``.  So a job is a module-level function of its
pickled arguments, and a worker runs the module state it was forked with:
a test that patches code or constants the workers read stops the pool
(``stop``), and the next ``deal`` forks a fresh one from the parent as it
is then.  With one share, inside a worker, or where the platform has no
fork, the job runs in-process.  The pool serves one caller at a time:
``deal`` is not for concurrent use from several threads."""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import signal
import traceback

# The pool: (pid, connection) of each worker, worker k taking share k; the
# node counter every worker inherits (a SemLock cannot be pickled, so it is
# made before the first fork); and whether this process is a pool worker.
_pool: list[tuple] = []
_counter = None
_in_worker = False


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def shared_counter():
    """The integer Value, with its lock, that every share of a pool ``deal``
    adds its nodes to (the parent zeroes it before each deal), when called
    from a job in a pool worker; None in any other process, where a job runs
    in-process and a plain counter needs no lock."""
    return _counter if _in_worker else None


def _serve(conn) -> None:
    """A worker's loop: run each job message from ``conn`` and send its reply
    back on it, until EOF (the parent closed its end, or is gone)."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides
    while True:
        try:
            message = conn.recv_bytes()
        except (EOFError, OSError):
            return
        try:
            job, args, share = pickle.loads(message)
            conn.send(("ok", job(*args, share)))
        except Exception:
            conn.send(("error", traceback.format_exc()))


def _fork_worker() -> tuple:
    """Fork one worker and return its (pid, connection)."""
    global _counter, _in_worker
    conn, theirs = multiprocessing.Pipe()
    counter = _counter
    pid = os.fork()
    if pid == 0:  # _forget has dropped the parent's pool and counter
        try:
            _counter, _in_worker = counter, True
            conn.close()
            _serve(theirs)
        finally:
            os._exit(0)  # a worker never returns into its parent's code or exit hooks
    theirs.close()
    return pid, conn


def _forget() -> None:
    """In a forked child: drop the parent's pool and counter, closing the
    child's copies of the parent's connections, so that no worker is kept
    from seeing EOF by a sibling and a ``deal`` here never writes to them."""
    global _counter
    for _, conn in _pool:
        conn.close()
    _pool.clear()
    _counter = None


def stop() -> None:
    """Kill and reap every pool worker.  The next ``deal`` forks a fresh pool,
    which inherits the parent's module state as it is then."""
    pool = list(_pool)
    _pool.clear()
    for pid, conn in pool:
        conn.close()
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid, _ in pool:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
atexit.register(stop)


def deal(job, args: tuple, items, workers: int) -> list:
    """``job(*args, items[k::n])`` for k in range(n), share k on pool worker
    k, with n = min(workers, len(items), usable CPUs) and ``items`` any
    sliceable sequence (a range pickles as its three ends); returns the
    results in order of k.  The pool grows to n workers if it holds fewer.
    With n <= 1, in a pool worker, or where the platform has no fork, returns
    ``[job(*args, items)]``, run in-process.

    A share that raises, or a worker that exits without a result, raises
    RuntimeError carrying its traceback.  Then, as on any exception here
    (KeyboardInterrupt too), the whole pool is killed and reaped before this
    raises, and the next call forks a fresh one."""
    global _counter
    n = min(workers, len(items), usable_cpus())
    if n <= 1 or _in_worker or not hasattr(os, "fork"):
        return [job(*args, items)]
    try:
        if _counter is None:
            _counter = multiprocessing.Value("q", 0)
        while len(_pool) < n:
            _pool.append(_fork_worker())
        _counter.value = 0
        for k, (_, conn) in enumerate(_pool[:n]):
            conn.send((job, args, items[k::n]))
        results = []
        for _, conn in _pool[:n]:
            try:
                status, payload = conn.recv()
            except EOFError:
                raise RuntimeError("a pool worker exited without a result") from None
            if status != "ok":
                raise RuntimeError(f"a pool worker failed:\n{payload}")
            results.append(payload)
        return results
    except BaseException:
        stop()
        raise
