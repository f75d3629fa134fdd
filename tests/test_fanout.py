"""The one fork fan-out, ``fanout.deal``: how many children it starts, and
when it runs in-process.

A fake context runs each "process" inline when it is started and counts the
starts, so no process is ever forked here."""

import ast
import json
import os
from pathlib import Path

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


def test_deal_forks_one_child_per_share_in_order(three_cpus):
    items = range(10)
    # n = min(workers, len(items), usable CPUs)
    for workers, n, started in ((10_000, 3, 3), (2, 2, 5)):
        out = fanout.deal(list, items, workers)
        assert three_cpus.started == started
        assert out == [list(items[k::n]) for k in range(n)]
    assert fanout.deal(list, range(2), 10_000) == [[0], [1]]
    assert three_cpus.started == 7


def test_deal_runs_in_process_for_one_share(three_cpus):
    for items, workers in ((range(1), 10_000), (range(0), 10_000), (range(10), 1)):
        assert fanout.deal(list, items, workers) == [list(items)]
    assert three_cpus.started == 0


def test_one_usable_cpu_runs_in_process(three_cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert fanout.deal(list, range(10), 10_000) == [list(range(10))]
    assert three_cpus.started == 0


def test_no_fork_runs_in_process(three_cpus, monkeypatch):
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(fanout.multiprocessing, "get_context", no_fork)
    assert fanout.deal(list, range(10), 3) == [list(range(10))]
    assert three_cpus.started == 0


def test_deal_raises_a_failing_share_with_its_traceback(three_cpus):
    def job(share):
        if 1 in share:
            raise ZeroDivisionError("share 1 failed")
        return list(share)

    with pytest.raises(RuntimeError, match="ZeroDivisionError: share 1 failed"):
        fanout.deal(job, range(10), 3)
    assert three_cpus.started == 3


def test_only_fanout_starts_processes():
    """One way to fan out: no other module of the package picks a start
    method, starts a process, forks or makes a pool."""
    starters = {"get_context", "Process", "fork"}
    calls = {}
    for path in sorted(Path(fanout.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                if name in starters or "Pool" in name:
                    calls.setdefault(path.stem, set()).add(name)
    assert calls == {"fanout": {"get_context", "Process"}}


def test_no_class_builds_on_a_missing_name():
    """One way to build on first read: cached_property or functools.cache,
    never a class hook for names or keys not set yet."""
    hooks = {"__getattr__", "__missing__"}
    found = []
    for path in sorted(Path(fanout.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.stem}.{node.name}.{f.name}" for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name in hooks
                ]
    assert found == []


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
