"""factprod benchmark runner.

    python3 perfbench/run.py --workload {census,scan,density} \\
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Runs from the root of a source checkout and imports ``factprod`` from its
``src`` directory.  One process runs one workload as a closed loop: passes of
the workload's ops, one op at a time, until the next pass would take them
past ``--seconds`` (at least three passes).  Every op's output is checked;
a wrong output, an unexpected exit code or an exception counts as a failed
op and is printed to stderr by name.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before it
records the environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans as sp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"  # spans and temporary CLI outputs
SETUP_REPEATS = 9
MIN_PASSES = 3

# A fresh interpreter's set-up: import numpy and factprod and build the
# shared prime table.  It prints the wall-clock time at which it was ready.
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, factprod\n"
    "from factprod import factorint\n"
    "factorint.table()\n"
    "print(repr(time.time()))\n"
)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def setup_time() -> float:
    """Interpreter start to ready, in a fresh process."""
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def timings(passes: list[list[tuple[str, float, float]]]) -> dict:
    """wall_s, cpu_s, call_p50_ms and call_p99_ms from the (op name, wall,
    cpu) times of every pass.  Every pass runs the same ops, and each op's
    time is its minimum over passes: the machine's speed follows its
    neighbours' load, and the fastest run of an op is the one least slowed
    by them.  A pass makes a few commands, so the 99th percentile is the
    slowest op."""
    best: dict[str, tuple[float, float]] = {}
    for times in passes:
        for name, wall, cpu in times:
            w, c = best.get(name, (math.inf, math.inf))
            best[name] = (min(w, wall), min(c, cpu))
    walls = [w for w, _ in best.values()]
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(c for _, c in best.values()),
        "call_p50_ms": statistics.median(walls) * 1e3,
        "call_p99_ms": p99(walls) * 1e3,
    }


class Runner:
    """Runs passes of ops, times each op, checks its output, tallies failures."""

    def __init__(self, reference: dict, check) -> None:
        self.reference = reference
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.op_names: dict[int, str] = {}

    def run_pass(self, ops, tracer=None):
        wall = cpu = 0.0
        times = []
        facts: dict[str, float] = {}
        for op in ops:
            self.attempted += 1
            if tracer is not None:
                tracer.op_id = self.attempted
                self.op_names[self.attempted] = op.name
            raw = error = None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    raw = op.call()
                else:
                    with tracer.span("op"):
                        raw = op.call()
            except Exception:
                error = traceback.format_exc(limit=3)
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            wall += dt
            cpu += dc
            times.append((op.name, dt, dc))
            if error is None:
                try:
                    observed, problems = self.check(op, raw, self.reference)
                except Exception:
                    problems = ["output unreadable: " + traceback.format_exc(limit=3)]
                else:
                    for k in ("out_bytes", "quad_s3_abs_err"):
                        if k in observed:
                            facts[k] = facts.get(k, 0) + observed[k]
            else:
                problems = ["raised " + error]
            if problems:
                self.failed += 1
                for p in problems:
                    print(f"FAILED {op.name}: {p}", file=sys.stderr)
        return wall, cpu, times, facts


def measure(workload, runner: Runner, seconds: float):
    """Untraced passes until the next one would take their summed time past
    ``seconds``, and at least MIN_PASSES of them; returns the set-up samples
    and each pass's op times.  The set-up samples are taken between passes,
    spread over the run so that a slow spell of the machine cannot take all
    of them, and their time is not counted against ``seconds``."""
    passes, setups = [], []
    elapsed = 0.0
    while True:
        due = 1 + int(SETUP_REPEATS * elapsed / seconds)
        while len(setups) < min(due, SETUP_REPEATS):
            setups.append(setup_time())
        t0 = time.perf_counter()
        passes.append(runner.run_pass(workload.next_pass())[2])
        last = time.perf_counter() - t0
        elapsed += last
        if elapsed + last > seconds and len(passes) >= MIN_PASSES:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time())
    return setups, passes


def factorial_expvec_mean_us() -> float:
    from factprod import factorint

    t0 = time.perf_counter()
    for n in range(2, 101):
        factorint.factorial_expvec(n)
    return (time.perf_counter() - t0) / 99 * 1e6


def traced(workload, runner: Runner, seconds: float, sieve_s: float):
    """Pairs of an untraced and a traced pass over the same ops, then the
    workers=1 counterpart; returns the per-layer metrics and all spans."""
    fexp_cold = factorial_expvec_mean_us()
    tracer = sp.Tracer()
    untraced_walls, traced_walls, facts = [], [], {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ops = workload.next_pass()
        untraced_walls.append(runner.run_pass(ops)[0])
        sp.install(tracer)
        try:
            wall, _, _, f = runner.run_pass(ops, tracer)
        finally:
            tracer.unpatch_all()
        traced_walls.append(wall)
        for k, v in f.items():
            facts[k] = facts.get(k, 0) + v
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    fexp_warm = factorial_expvec_mean_us()

    single = sp.Tracer()
    w1_ops = workload.speedup_ops()
    if w1_ops:
        sp.install(single)
        try:
            runner.run_pass(w1_ops, single)
        finally:
            single.unpatch_all()

    n_pass = len(traced_walls)
    S = tracer.spans
    self_t = sp.self_times(S)

    def total(*names):
        return sum(s.duration for s in S if s.name in names) / n_pass

    def calls(*names):
        return sum(1 for s in S if s.name in names) / n_pass

    def work(*names):
        return sum(s.count for s in S if s.name in names) / n_pass

    def self_total(name):
        return sum(self_t[s.id] for s in S if s.name == name) / n_pass

    def rate(n, secs):
        return n / secs if secs > 0 else 0.0

    def op_total(spans, name, op_prefix):
        return sum(s.duration for s in spans
                   if s.name == name and runner.op_names.get(s.op, "").startswith(op_prefix))

    census_s = total("search.search_factorial_products")
    census_w1 = sum(s.duration for s in single.spans if s.name == "search.search_factorial_products")
    mc_s = total("density.mc_density")
    mc_w2 = op_total(S, "density.mc_density", "density t3s2") / n_pass
    mc_w1 = op_total(single.spans, "density.mc_density", "density t3s2")
    prefix = ("audit.audit_theta", "audit.audit_mertens", "audit.audit_stirling_lower")
    finding_spans = prefix + ("audit.audit_erdos_pdelta",)
    metrics = {
        "factorint.sieve_s": sieve_s,
        "factorint.radical_table_s": total("factorint.radical_table"),
        "factorint.radical_table_calls": calls("factorint.radical_table"),
        "factorint.lpf_table_s": total("factorint.lpf_table"),
        "factorint.factorial_expvec_cold_us": fexp_cold,
        "factorint.factorial_expvec_warm_us": fexp_warm,
        "equations.verify_calls": calls("equations.verify"),
        "equations.verify_s": total("equations.verify"),
        "equations.delta_form_s": total("equations.default_pairing", "equations.to_delta_form"),
        "search.census_s": census_s,
        "search.descent_self_s": self_total("search.search_factorial_products"),
        "search.records": work("search.search_factorial_products"),
        "search.records_per_s": rate(work("search.search_factorial_products"), census_s),
        "search.report_s": total("search.census_report"),
        "search.speedup_w2": rate(census_w1, census_s),
        "audit.abc_scan_s": total("audit.abc_scan"),
        "audit.windows": work("audit.abc_scan"),
        "audit.windows_per_s": rate(work("audit.abc_scan"), total("audit.abc_scan")),
        "audit.erdos_s": total("audit.audit_erdos_pdelta"),
        "audit.prefix_audits_s": total(*prefix),
        "audit.findings": work(*finding_spans),
        "density.mc_s": mc_s,
        "density.samples_per_s": rate(work("density.mc_density"), mc_s),
        "density.sample_block_s": total("density.sample_block"),
        "density.mc_self_s": self_total("density.mc_density"),
        "density.mc_speedup_w2": rate(mc_w1, mc_w2),
        "density.quad_s2_s": total("density.quadrature_s2"),
        "density.quad_s3_s": total("density.quadrature_s3"),
        "density.quad_s3_abs_err": facts.get("quad_s3_abs_err", 0.0) / n_pass,
        "cli.self_s": self_total("cli.main"),
        "cli.out_bytes": facts.get("out_bytes", 0) / n_pass,
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
    }
    return metrics, S + single.spans, n_pass


def emit(names_units: list[dict], values: dict) -> dict:
    """Metrics in BENCHMARK.json order with its units; the two name sets
    must agree exactly."""
    declared = [m["name"] for m in names_units]
    if set(declared) != set(values):
        fail(f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names_units}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test sizes")
    args = ap.parse_args(argv)

    if not (SRC / "factprod" / "__init__.py").is_file():
        fail(f"no factprod sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import factprod
    from factprod import factorint

    if Path(factprod.__file__).resolve().parent != SRC / "factprod":
        fail(f"imported factprod from {factprod.__file__}, not from {SRC}")
    t0 = time.perf_counter()
    factorint.table()
    sieve_s = time.perf_counter() - t0

    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())[args.size]
    runner = Runner(reference, wl.check)

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        workload = wl.Workload(args.workload, args.size, args.seed, tmp)
        if args.trace:
            values, spans, passes = traced(workload, runner, args.seconds, sieve_s)
            metrics = emit(bench["per_layer"], values)
            sp.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", spans,
                           runner.op_names)
        else:
            setups, times = measure(workload, runner, args.seconds)
            passes = len(times)
            values = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                **timings(times),
            }
            metrics = emit(bench["end_to_end"], values)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workload.workers,
        "passes": passes,
        "calls": runner.attempted,
        "ops_failed": f"{runner.failed}/{runner.attempted}",
    }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
