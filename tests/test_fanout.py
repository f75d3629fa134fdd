"""The fork fan-out never starts more children than there are usable CPUs.

A fake context runs each "process" inline when it is started and counts the
starts, so no process is ever forked here."""

import json
import os
import threading

import pytest

from factprod import density, fanout
from factprod.cli import main


class _Conn:
    def __init__(self) -> None:
        self.sent = []

    def send(self, obj) -> None:
        self.sent.append(obj)

    def recv(self):
        return self.sent.pop(0)

    def close(self) -> None:
        pass


class _Value:
    def __init__(self, typecode, value) -> None:
        self.value = value
        self._lock = threading.Lock()

    def get_lock(self):
        return self._lock


class _Process:
    def __init__(self, ctx, target, args) -> None:
        self.ctx, self.target, self.args = ctx, target, args

    def start(self) -> None:
        self.ctx.started += 1
        self.target(*self.args)

    def terminate(self) -> None:
        pass

    def join(self) -> None:
        pass


class FakeContext:
    def __init__(self) -> None:
        self.started = 0

    def Pipe(self, duplex=True):
        conn = _Conn()
        return conn, conn

    def Process(self, target, args, daemon):
        return _Process(self, target, args)

    def Value(self, typecode, value):
        return _Value(typecode, value)


@pytest.fixture
def three_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    ctx = FakeContext()
    monkeypatch.setattr(fanout.multiprocessing, "get_context", lambda method: ctx)
    return ctx


def test_usable_cpus_follows_affinity_then_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert fanout.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert fanout.usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert fanout.usable_cpus() == 1


def test_run_forked_caps_children_at_usable_cpus(three_cpus):
    items = range(10)
    out = fanout.run_forked(fanout.fork_context(10_000), list, items, 10_000)
    assert three_cpus.started == 3
    assert out == [list(items[k::3]) for k in range(3)]


def test_one_usable_cpu_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert fanout.fork_context(10_000) is None


def test_search_and_density_fork_at_most_usable_cpus(three_cpus, capsys, tmp_path):
    payloads = []
    for workers in ("1", "10000"):
        out = tmp_path / f"census-{workers}.jsonl"
        argv = ["search", "--n1-max", "12", "--t-max", "4", "--s-max", "2",
                "--workers", workers, "--out", str(out)]
        assert main(argv) == 0
        payloads.append(out.read_text().split("\n", 1)[1])
    assert three_cpus.started == 3
    assert payloads[0] == payloads[1]
    capsys.readouterr()

    means = []
    for workers in ("1", "10000"):
        argv = ["density", "--t", "3", "--s", "2", "--c", "2",
                "--samples", str(4 * density._BATCH), "--workers", workers]
        assert main(argv) == 0
        means.append(json.loads(capsys.readouterr().out)["result"]["mc_mean"])
    assert three_cpus.started == 6
    assert means[0] == means[1]
