import pytest

from factprod import fanout


@pytest.fixture
def fresh_pool(monkeypatch):
    """For a test that patches code the pool's workers run, or counts them:
    the pool is stopped before the test, so the first ``deal`` after a patch
    forks workers that carry it, and again after, so that no later test meets
    a worker forked while the patch was in place.  Yields the pids of the
    workers forked during the test, through the pool's one starter."""
    fanout.stop()
    forked = []
    fork = fanout._fork_worker

    def counted():
        worker = fork()
        forked.append(worker[0])
        return worker

    monkeypatch.setattr(fanout, "_fork_worker", counted)
    yield forked
    fanout.stop()
