"""The benchmark's three workloads: the ops each pass runs, their seeded
inputs, and the checks on every op's output.

An op is one CLI command.  ``Op.call`` is the timed part; ``Op.observe``
extracts the outputs after the clock has stopped.  Observed fields named in
``Op.ref_fields`` must equal the values stored in ``reference.json``, which
were recorded from the seed commit; ``Op.rules`` holds the checks that need
no stored value (analytic densities).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from factprod import cli

WORKERS = 2  # passed explicitly to census and density; equals nproc here

WORKLOADS = ("census", "scan", "density")

SIZES = {
    "full": {
        "census": [(40, 8, 3), (100, 8, 2)],
        "window": (10_000, "3:50"),
        "nu_max": "1e6",
        "stirling_n_max": 10_000,
        "erdos": ("2:5000", "10:200"),
        "mc_samples": (10_000_000, 2_000_000, 1_000_000),
        "s3_resolution": 96,
    },
    "tiny": {
        "census": [(16, 5, 2), (12, 4, 3)],
        "window": (100, "3:20"),
        "nu_max": "1e4",
        "stirling_n_max": 200,
        "erdos": ("2:500", "10:50"),
        "mc_samples": (200_000, 100_000, 100_000),
        "s3_resolution": 96,
    },
}

MC_SIGMAS = 5.0
S2_QUAD_TOL = 1e-6
S3_QUAD_TOL = 2e-6
S3_EXACT = 1.0 / 480.0
FLOAT_REL_TOL = 1e-12  # "equal" for floats stored in reference.json


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    observe: Callable[[object], dict]
    ref_key: str | None = None
    ref_fields: tuple[str, ...] = ()
    rules: Callable[[dict, dict | None], list[str]] | None = None
    ref_values: tuple[str, ...] = ()  # stored with the reference, checked by rules


def _equal(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and math.isclose(a, b, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return a == b


def check(op: Op, raw, reference: dict) -> tuple[dict, list[str]]:
    """Observed values of one op and the names of every check it failed."""
    observed = op.observe(raw)
    problems = []
    expected = None
    if op.ref_key is not None:
        expected = reference.get(op.ref_key)
        if expected is None:
            problems.append(f"no stored reference {op.ref_key!r}")
        else:
            for k in op.ref_fields:
                if not _equal(observed.get(k), expected.get(k)):
                    problems.append(f"{k}: expected {expected.get(k)!r}, got {observed.get(k)!r}")
    if op.rules is not None:
        problems += op.rules(observed, expected)
    return observed, problems


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _result(run: CliRun) -> dict:
    if run.code != 0:
        raise RuntimeError(f"exit {run.code}: {run.stderr.strip()[:300]}")
    return json.loads(run.stdout)["result"]


def census_ops(size: str, tmp: Path, workers: int = WORKERS) -> list[Op]:
    """The record-heavy and the node-heavy census shapes, through cli.main."""
    ops = []
    for n1, t, s in SIZES[size]["census"]:
        key = f"search n1<={n1} t<={t} s<={s}"
        out = tmp / f"census-{n1}-{t}-{s}.jsonl"
        csv = tmp / f"census-{n1}-{t}-{s}.csv"
        argv = ["search", "--n1-max", str(n1), "--t-max", str(t), "--s-max", str(s),
                "--workers", str(workers), "--out", str(out), "--census-csv", str(csv)]

        def observe(run, out=out, csv=csv):
            result = _result(run)
            lines = out.read_text().splitlines(keepends=True)
            csv_lines = csv.read_text().splitlines(keepends=True)
            return {
                "exit": run.code,
                "records": len(lines) - 1,
                "summary_total": result["total"],
                # the first line of each file is the meta header (timestamped)
                "payload_sha256": _sha256("".join(lines[1:])),
                "csv_sha256": _sha256("".join(csv_lines[1:])),
                "out_bytes": len(run.stdout) + out.stat().st_size + csv.stat().st_size,
            }

        ops.append(Op(f"{key} workers={workers}", lambda argv=argv: run_cli(argv), observe, key,
                      ("exit", "records", "summary_total", "payload_sha256", "csv_sha256")))
    return ops


def _no_violations(obs: dict, _ref) -> list[str]:
    return [f"violations: {obs['violations']}"] if obs["violations"] else []


def scan_ops(size: str) -> list[Op]:
    """The 480k-window abc scan, the prefix audits and the Erdos ratio scan."""
    cfg = SIZES[size]
    m1_max, k1 = cfg["window"]
    x, k = cfg["erdos"]

    def window(run):
        r = _result(run)
        return {"exit": run.code, "windows": r["windows"],
                "explicit_abc_failures": len(r["explicit_abc_failures"]),
                "max_quality": r["max_quality"], "max_quality_at": r["max_quality_at"],
                "out_bytes": len(run.stdout)}

    def prefix(run):
        r = _result(run)
        return {"exit": run.code, "checked": r["checked"], "violations": r["violations"],
                "min_margin": r["min_margin"], "out_bytes": len(run.stdout)}

    def erdos(run):
        r = _result(run)
        return {"exit": run.code, "eligible_windows": r["eligible_windows"],
                "min_ratio": r["min_ratio"], "min_at": r["min_at"], "out_bytes": len(run.stdout)}

    def window_rules(obs, _ref):
        n = obs["explicit_abc_failures"]
        return [f"explicit-abc failures: {n}"] if n else []

    prefix_fields = ("exit", "checked", "violations", "min_margin")
    specs = [
        (f"audit window m1<={m1_max} k1={k1}",
         ["audit", "--check", "window", "--m1-max", str(m1_max), "--k1", k1], window,
         ("exit", "windows", "explicit_abc_failures", "max_quality", "max_quality_at"), window_rules),
        (f"audit theta nu<={cfg['nu_max']}",
         ["audit", "--check", "theta", "--nu-max", cfg["nu_max"]], prefix, prefix_fields, _no_violations),
        (f"audit mertens nu<={cfg['nu_max']}",
         ["audit", "--check", "mertens", "--nu-max", cfg["nu_max"]], prefix, prefix_fields, _no_violations),
        (f"audit stirling n<={cfg['stirling_n_max']}",
         ["audit", "--check", "stirling", "--n-max", str(cfg["stirling_n_max"])], prefix, prefix_fields,
         _no_violations),
        (f"audit erdos x={x} k={k}", ["audit", "--check", "erdos", "--x", x, "--k", k], erdos,
         ("exit", "eligible_windows", "min_ratio", "min_at"), None),
    ]
    return [Op(key, lambda argv=argv: run_cli(argv), obs, key, fields, rules)
            for key, argv, obs, fields, rules in specs]


def _density_observe(run):
    r = _result(run)
    return {"exit": run.code, "analytic": r["analytic"], "mc_mean": r["mc_mean"],
            "mc_stderr": r["mc_stderr"], "samples": r["samples"], "quadrature": r["quadrature"],
            "out_bytes": len(run.stdout)}


def _mc_within(obs: dict, exact: float) -> list[str]:
    dev = abs(obs["mc_mean"] - exact)
    if dev > MC_SIGMAS * obs["mc_stderr"]:
        return [f"mc_mean {obs['mc_mean']!r} is {dev / obs['mc_stderr']:.1f} stderr from {exact!r}"]
    return []


def _t3s2_rules(obs, _ref):
    exact = float(Fraction(1, 60) - Fraction(1, 240))
    problems = _mc_within(obs, exact)
    if not abs(obs["quadrature"] - exact) <= S2_QUAD_TOL:
        problems.append(f"quadrature {obs['quadrature']!r} not within {S2_QUAD_TOL} of {exact!r}")
    return problems


def _t4s2_rules(obs, ref):
    # the s = 2 quadrature is exact to roundoff, so the seed commit's value is
    # the reference for both the quadrature and the Monte Carlo estimate
    exact = ref["quadrature"]
    problems = _mc_within(obs, exact)
    if not abs(obs["quadrature"] - exact) <= S2_QUAD_TOL:
        problems.append(f"quadrature {obs['quadrature']!r} not within {S2_QUAD_TOL} of {exact!r}")
    return problems


def _t3s3_rules(obs, _ref):
    problems = _mc_within(obs, S3_EXACT)
    if not obs["quad_s3_abs_err"] <= S3_QUAD_TOL:
        problems.append(f"quadrature {obs['quadrature']!r} not within {S3_QUAD_TOL} of 1/480")
    return problems


def density_ops(size: str, seed: int, workers: int = WORKERS, only_t3s2: bool = False) -> list[Op]:
    """t3s2 at large sample count, t4s2, and t3s3 with the O(res^4) quadrature.
    The workload seed is the Monte Carlo seed."""
    cfg = SIZES[size]
    n32, n42, n33 = cfg["mc_samples"]
    res = cfg["s3_resolution"]

    def s3_observe(run):
        obs = _density_observe(run)
        obs["quad_s3_abs_err"] = abs(obs["quadrature"] - S3_EXACT)
        return obs

    specs = [
        (f"density t3s2 c=2 samples={n32}", ["--t", "3", "--s", "2", "--c", "2", "--samples", str(n32)],
         _density_observe, ("exit", "analytic", "samples"), _t3s2_rules),
        (f"density t4s2 c=2 samples={n42}", ["--t", "4", "--s", "2", "--c", "2", "--samples", str(n42)],
         _density_observe, ("exit", "samples"), _t4s2_rules),
        (f"density t3s3 c=1 res={res} samples={n33}",
         ["--t", "3", "--s", "3", "--c", "1", "--resolution", str(res), "--samples", str(n33)],
         s3_observe, ("exit", "samples"), _t3s3_rules),
    ]
    if only_t3s2:
        specs = specs[:1]
    ops = []
    for key, args, obs, fields, rules in specs:
        argv = ["density", *args, "--seed", str(seed), "--workers", str(workers)]
        stored = ("quadrature",) if rules is _t4s2_rules else ()
        ops.append(Op(f"{key} workers={workers}", lambda argv=argv: run_cli(argv), obs, key, fields,
                      rules, stored))
    return ops


@dataclass
class Workload:
    """Builds the ops of each pass.  Density uses the seed as its Monte Carlo
    seed.  Census and scan run the fixed shapes the stored references
    describe, so the seed changes nothing there."""

    name: str
    size: str
    seed: int
    tmp: Path

    @property
    def workers(self) -> int | None:
        return WORKERS if self.name in ("census", "density") else None

    def next_pass(self) -> list[Op]:
        if self.name == "census":
            return census_ops(self.size, self.tmp)
        if self.name == "scan":
            return scan_ops(self.size)
        return density_ops(self.size, self.seed)

    def speedup_ops(self) -> list[Op]:
        """The workers=1 counterpart the traced run times against workers=2."""
        if self.name == "census":
            return census_ops(self.size, self.tmp, workers=1)
        if self.name == "density":
            return density_ops(self.size, self.seed, workers=1, only_t3s2=True)
        return []


def reference_ops(size: str, tmp: Path) -> list[Op]:
    """Every op whose outputs are compared with reference.json."""
    return census_ops(size, tmp) + scan_ops(size) + density_ops(size, 0)
