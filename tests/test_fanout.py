"""The one fan-out, ``fanout.deal``: how many workers share a call, when it
runs in-process, and the life of its pool of forked workers.

The ``three_cpus`` fixture makes the process see three usable CPUs and
gives ``fresh_pool``'s list of the workers forked in the test, through the
pool's one starter, ``fanout._fork_worker``.  Jobs are module-level
functions, since a worker unpickles them by name."""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from factprod import density, fanout, search
from factprod.cli import main
from factprod.density import RegionSpec, mc_density
from factprod.search import SearchGuards, SearchSpec, search_factorial_products

from conftest import patched_pool


def _share_and_pid(share):
    return list(share), os.getpid()


def _fail_on_one(share):
    if 1 in share:
        raise ZeroDivisionError("share 1 failed")
    return list(share)


def _exit_worker(share):
    os._exit(3)


def _nested(share):
    return os.getpid(), fanout.deal(_share_and_pid, (), share, 10_000)


def _spend_one_at_a_time(times, share):
    budget = search._Budget(SearchGuards(max_nodes=10**9), None, fanout.shared_counter())
    for _ in range(times):
        budget.spend(1)
    return budget.nodes


@pytest.fixture
def three_cpus(monkeypatch, fresh_pool):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    return fresh_pool


def _reaped(pid) -> bool:
    """True when ``pid``, a child of this process, has exited and been reaped."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _alive(pid) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def test_usable_cpus_follows_affinity_then_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert fanout.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert fanout.usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert fanout.usable_cpus() == 1


def test_deal_reuses_one_pool_for_its_shares_in_order(three_cpus):
    items = range(10)
    # n = min(workers, len(items), usable CPUs); share k runs on worker k
    for workers, n in ((10_000, 3), (2, 2)):
        out = fanout.deal(_share_and_pid, (), items, workers)
        assert len(three_cpus) == 3
        assert out == [(list(items[k::n]), three_cpus[k]) for k in range(n)]
    assert fanout.deal(list, (), range(2), 10_000) == [[0], [1]]
    assert len(three_cpus) == 3


def test_deal_runs_in_process_for_one_share(three_cpus):
    for items, workers in ((range(1), 10_000), (range(0), 10_000), (range(10), 1)):
        assert fanout.deal(_share_and_pid, (), items, workers) == [(list(items), os.getpid())]
    assert three_cpus == []


def test_one_usable_cpu_runs_in_process(three_cpus, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert fanout.deal(_share_and_pid, (), range(10), 10_000) == [(list(range(10)), os.getpid())]
    assert three_cpus == []


def test_no_fork_runs_in_process(three_cpus, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fanout.deal(_share_and_pid, (), range(10), 3) == [(list(range(10)), os.getpid())]
    assert three_cpus == []


def test_deal_raises_a_failing_share_with_its_traceback(three_cpus):
    with pytest.raises(RuntimeError, match="ZeroDivisionError: share 1 failed"):
        fanout.deal(_fail_on_one, (), range(10), 3)
    assert len(three_cpus) == 3
    assert fanout._pool == [] and all(map(_reaped, three_cpus))


def test_a_worker_that_exits_is_replaced_by_a_fresh_pool(three_cpus):
    assert fanout.deal(list, (), range(4), 2) == [[0, 2], [1, 3]]
    with pytest.raises(RuntimeError, match="exited without a result"):
        fanout.deal(_exit_worker, (), range(4), 2)
    assert fanout._pool == [] and all(map(_reaped, three_cpus))
    assert fanout.deal(list, (), range(4), 2) == [[0, 2], [1, 3]]
    assert len(three_cpus) == 4


def test_a_deal_inside_a_worker_runs_in_that_worker(three_cpus):
    out = fanout.deal(_nested, (), range(6), 3)
    assert [pid for pid, _ in out] == three_cpus
    assert [inner for _, inner in out] == [[(list(range(6))[k::3], three_cpus[k])] for k in range(3)]


def test_the_shared_node_counter_loses_no_update(three_cpus):
    """Three workers on at most two cores spend one node at a time on the
    pool's counter: it ends at their sum, and the next deal starts it at 0."""
    for _ in range(2):
        assert fanout.deal(_spend_one_at_a_time, (20_000,), range(3), 3) == [20_000] * 3
        assert fanout._counter.value == 60_000
    assert fanout.deal(_spend_one_at_a_time, (20_000,), range(1), 3) == [20_000]
    assert fanout._counter.value == 60_000  # an in-process share takes no lock


def test_search_and_density_fork_at_most_usable_cpus(three_cpus, capsys, tmp_path):
    payloads = []
    for workers in ("1", "10000"):
        out = tmp_path / f"census-{workers}.jsonl"
        argv = ["search", "--n1-max", "12", "--t-max", "4", "--s-max", "2",
                "--workers", workers, "--out", str(out)]
        assert main(argv) == 0
        payloads.append(out.read_text().split("\n", 1)[1])
    assert len(three_cpus) == 3
    assert payloads[0] == payloads[1]
    capsys.readouterr()

    means = []
    for workers in ("1", "10000"):
        argv = ["density", "--t", "3", "--s", "2", "--c", "2",
                "--samples", str(4 * density._BATCH), "--workers", workers]
        assert main(argv) == 0
        means.append(json.loads(capsys.readouterr().out)["result"]["mc_mean"])
    assert len(three_cpus) == 3
    assert means[0] == means[1]


def test_results_are_identical_at_any_worker_count_on_a_warm_pool(three_cpus, capsys, tmp_path):
    """Census JSON lines and CSV rows, and the Monte Carlo mean, at workers 1,
    2 and 3 over repeated calls in one process, after a guard trip (which
    keeps the pool) and after a failed job (which forks a fresh one)."""
    out, csv = tmp_path / "census.jsonl", tmp_path / "census.csv"
    shape = ["--n1-max", "24", "--t-max", "6", "--s-max", "3"]

    def run(workers):
        argv = ["search", *shape, "--workers", str(workers), "--out", str(out),
                "--census-csv", str(csv)]
        assert main(argv) == 0
        capsys.readouterr()
        argv = ["density", "--t", "3", "--s", "3", "--c", "1",
                "--samples", str(3 * density._BATCH), "--workers", str(workers)]
        assert main(argv) == 0
        mean = json.loads(capsys.readouterr().out)["result"]["mc_mean"]
        return out.read_text().split("\n", 1)[1], csv.read_text().split("\n", 1)[1], mean

    want = run(1)
    for workers in (2, 3, 1, 3, 2):
        assert run(workers) == want
    assert main(["search", *shape, "--max-nodes", "500", "--workers", "3"]) == 3
    capsys.readouterr()
    assert run(3) == run(2) == want
    assert len(three_cpus) == 3
    with pytest.raises(RuntimeError):
        fanout.deal(_fail_on_one, (), range(10), 3)
    assert run(2) == run(3) == run(1) == want
    assert len(three_cpus) == 6


def test_sizes_patched_after_the_pool_started_reach_the_workers(three_cpus, monkeypatch):
    """mc_density deals each block as its (start, count), so density._BATCH
    patched on the warm pool is exact: blocks of 1000 samples count each
    sample once.  A search share reads _CELLS, _UNIT_BATCH and
    _UNIT_BATCH_MAX where it runs, so patched_pool forks workers that carry
    the patched sizes: one unit a batch gives one batch a unit."""
    spec, region = SearchSpec(24, 6, 3), RegionSpec(t=3, s=2, c=2)
    base = mc_density(region, 123_457, seed=5, workers=1).mc_mean
    stats = {}
    want = search_factorial_products(spec, workers=3, stats=stats)
    assert len(three_cpus) == 3 and stats["batches"] < stats["units"] // 100
    monkeypatch.setattr(density, "_BATCH", 1000)
    assert mc_density(region, 123_457, seed=5, workers=3).mc_mean == base
    assert len(three_cpus) == 3
    sizes = ((search, "_CELLS", 7), (search, "_UNIT_BATCH", 1), (search, "_UNIT_BATCH_MAX", 1))
    with patched_pool(*sizes):
        assert search_factorial_products(spec, workers=3, stats=stats) == want
        assert stats["batches"] == stats["units"] > 3
    assert len(three_cpus) == 6 and fanout._pool == []


_CHILD = """
import json, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from factprod import fanout
from factprod.cli import main
main(["search", "--n1-max", "16", "--t-max", "5", "--s-max", "2", "--workers", "2"])
main(["density", "--t", "3", "--s", "2", "--c", "2", "--samples", "300000", "--workers", "2"])
sys.stderr.write(json.dumps([pid for pid, _ in fanout._pool]))
sys.stderr.flush()
"""


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc"),
                    reason="needs fork and /proc")
@pytest.mark.parametrize("ending", ["", "os._exit(0)"])
def test_no_worker_outlives_its_process(ending):
    """A process that ran search and density at --workers 2 leaves none of
    its workers alive: at a normal exit its exit hook reaps them, and when it
    vanishes without running exit hooks they exit on EOF of their pipes."""
    src = Path(fanout.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _CHILD + ending], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pids = json.loads(proc.stderr)
    assert len(pids) == 2
    deadline = time.monotonic() + 10
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, pids))


def test_only_fanout_starts_processes():
    """One way to fan out: no other module of the package picks a start
    method, starts a process, forks or makes a pool, or imports
    multiprocessing."""
    starters = {"get_context", "Process", "fork"}
    calls, imports = {}, set()
    for path in sorted(Path(fanout.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
                if name in starters or "Pool" in name:
                    calls.setdefault(path.stem, set()).add(name)
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(n.split(".")[0] == "multiprocessing" for n in names):
                imports.add(path.stem)
    assert calls == {"fanout": {"fork"}}
    assert imports == {"fanout"}


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


def test_no_module_keeps_a_dict_memo():
    """One way to memoize a function: functools.cache, never a module-level
    dict that the module fills in by key."""
    found = []
    for path in sorted(Path(fanout.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        dicts = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            value = node.value
            if isinstance(value, (ast.Dict, ast.DictComp)) or (
                isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"
            ):
                dicts |= {t.id for t in targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            stored = isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
            filled = isinstance(node, ast.Attribute) and node.attr in {"setdefault", "update"}
            if (stored or filled) and getattr(node.value, "id", None) in dicts:
                found.append(f"{path.stem}.{node.value.id}")
    assert found == []
