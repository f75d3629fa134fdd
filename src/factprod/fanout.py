"""One way to fan work out: round-robin shares on forked processes.

Fork, not spawn: a child inherits the parent's tables and imports, and a
spawned one would re-import numpy and the package on every call.  Where the
platform has no fork the callers run their work in-process.
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


def fork_context(workers: int):
    """The fork start method when more than one worker is asked for, more
    than one CPU is usable and the platform has fork; None means run
    in-process."""
    if min(workers, usable_cpus()) > 1:
        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            pass
    return None


def _child(conn, job, share) -> None:
    try:
        conn.send(("ok", job(share)))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def run_forked(ctx, job, items, workers: int) -> list:
    """``job(items[k::workers])`` for k in range(workers), each in its own
    forked child; returns the results in order of k.  No more children are
    forked than there are usable CPUs: ``workers`` is capped first.

    A child that raises, or exits without a result, raises RuntimeError
    carrying its traceback; every child is then terminated, and every child
    is joined before this returns or raises."""
    workers = min(workers, usable_cpus())
    procs = []
    try:
        for k in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(send, job, items[k::workers]), daemon=True)
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
