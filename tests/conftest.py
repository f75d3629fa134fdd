import contextlib

import pytest

from factprod import fanout


@contextlib.contextmanager
def patched_pool(*patches):
    """For code that patches what the pool's workers run or read: sets each
    (target, name, value) of ``patches`` and then stops the pool, so that the
    next ``deal`` forks workers that carry the patches, and stops it again
    after undoing them, so that no later ``deal`` meets a patched worker.
    A plain context manager, so hypothesis tests can use it per example."""
    try:
        with pytest.MonkeyPatch.context() as m:
            for target, name, value in patches:
                m.setattr(target, name, value)
            fanout.stop()
            yield
    finally:
        fanout.stop()


@pytest.fixture
def fresh_pool():
    """For a test that counts the pool's workers, or patches what they run
    with ``monkeypatch``: the pool is stopped before the test, so that the
    first ``deal`` after a patch forks workers that carry it, and again after
    (patched_pool).  Yields the pids of the workers forked during the test,
    through the pool's one starter."""
    forked = []
    fork = fanout._fork_worker

    def counted():
        worker = fork()
        forked.append(worker[0])
        return worker

    with patched_pool((fanout, "_fork_worker", counted)):
        yield forked
