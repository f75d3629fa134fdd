"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--size tiny`` and
checks that each run exits 0 with every output check passing, that the
printed metric names and units are exactly those of BENCHMARK.json, and that
no span in the traced runs has a negative self time.  Exits 1 on the first
problem.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans as sp  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7


def problem(msg: str) -> None:
    print(f"smoke: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        problem(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problem(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problem(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problem(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
            if trace:
                path = ROOT / ".perfbench" / f"spans-{workload}-seed{SEED}.jsonl"
                spans = [sp.Span(r["id"], r["name"], r["start"], r["end"], r["parent"], r["op"],
                                 r["count"]) for r in map(json.loads, path.read_text().splitlines())]
                negative = {i: t for i, t in sp.self_times(spans).items() if t < 0}
                if negative:
                    problem(f"{label}: negative self times {negative}")
                for name in ("search.descent_self_s", "density.mc_self_s", "cli.self_s"):
                    if result["metrics"][name]["value"] < 0:
                        problem(f"{label}: {name} is negative")
            print(f"ok {label}: {result['attempted']} ops")


if __name__ == "__main__":
    main()
