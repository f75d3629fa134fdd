"""One way to fan work out: round-robin shares on forked processes.

``deal`` is the only place that decides how work fans out: how many children
to fork (no more than the workers asked for, the items to share or the
usable CPUs) and whether to fork at all.  Fork, not spawn: a child inherits
the parent's tables and imports, and a spawned one would re-import numpy and
the package on every call.  With one share, or where the platform has no
fork, the work runs in-process.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _child(conn, job, share) -> None:
    try:
        conn.send(("ok", job(share)))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def deal(job, items, workers: int) -> list:
    """``job(items[k::n])`` for k in range(n), each in its own forked child,
    with n = min(workers, len(items), usable CPUs); returns the results in
    order of k.  With n <= 1, or where the platform has no fork, returns
    ``[job(items)]``, run in-process.

    A child that raises, or exits without a result, raises RuntimeError
    carrying its traceback; every child is then terminated, and every child
    is joined before this returns or raises."""
    n = min(workers, len(items), usable_cpus())
    try:
        ctx = multiprocessing.get_context("fork") if n > 1 else None
    except ValueError:
        ctx = None
    if ctx is None:
        return [job(items)]
    procs = []
    try:
        for k in range(n):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(send, job, items[k::n]), daemon=True)
            proc.start()
            send.close()
            procs.append((proc, recv))
        results = []
        for _, recv in procs:
            try:
                status, payload = recv.recv()
            except EOFError:
                raise RuntimeError("forked worker exited without a result") from None
            if status != "ok":
                raise RuntimeError(f"forked worker failed:\n{payload}")
            results.append(payload)
        return results
    except BaseException:
        for proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for proc, recv in procs:
            recv.close()
            proc.join()
