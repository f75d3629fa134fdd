"""Command-line surface.

Subcommands: verify, search, density, audit, abc.  Exit codes: 0 success (or
identity holds), 1 completed with a negative result (identity fails, or an
audit found violations), 2 usage / validation error, 3 resource guard.

Every run prints a JSON document with a ``meta`` block (schema, version,
config echo, timestamp; for ``search`` also ``stats``: nodes, units, batches,
records, the pool workers that ran a share and seconds per phase) and a
``result`` block; the result payload is a pure function of flags and seed, so
reruns are byte-identical once the metadata timestamp and phase seconds are
excluded.  File outputs carry the same metadata as a header line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
from dataclasses import asdict, replace

from . import __version__, fanout
from .audit import (
    ABC_COLUMNS,
    abc_scan,
    abc_window_report,
    audit_erdos_pdelta,
    audit_mertens,
    audit_proof_chain,
    audit_solution_window,
    audit_stirling_lower,
    audit_theta,
    findings_csv,
)
from .density import (
    QuadratureBudgetError,
    RegionSpec,
    _analytic_density,
    mc_density,
    quadrature_density,
)
from .equations import EquationError, FactorialEquation, default_pairing, Pairing, to_delta_form, verify
from .factorint import SieveCeilingError
from .search import (
    ResourceGuardError,
    SearchGuards,
    SearchSpec,
    census_report,
    search_factorial_products,
)

SCHEMA = "factprod/1"
EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

def _meta(command: str, config: dict) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": command,
        "config": config,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def _print_doc(meta: dict, result: dict) -> None:
    print(json.dumps({"meta": meta, "result": result}, indent=2, sort_keys=False))


def _workers(args) -> int:
    if args.workers is not None:
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        return args.workers
    return fanout.usable_cpus()


def _record_obj(rec) -> dict:
    return {
        "lhs": list(rec.eq.lhs),
        "rhs": list(rec.eq.rhs),
        "holds": rec.holds,
        "class": rec.classification,
        "t": rec.eq.t,
        "s": rec.eq.s,
    }


def _jsonl_line(t: int, s: int, cls) -> str:
    return (
        '{"lhs":[' + ",".join(["%d"] * t) + '],"rhs":[' + ",".join(["%d"] * s)
        + f'],"holds":{json.dumps(cls is not None)},"class":{json.dumps(cls)},'
        + f'"t":{t},"s":{s}}}\n'
    )


def record_jsonl(result) -> str:
    """The census payload, formatted from the columns of a CensusResult: per
    row, in canonical order, the compact json.dumps of _record_obj of its
    record; deterministic.  The rows of each (t, s, class) group share one
    line format, filled for the whole group at once (CensusResult.lines)."""
    return "".join(result.lines(_jsonl_line))


def _parse_range(flag: str, text: str, least: int) -> tuple[int, int]:
    """A ``lo:hi`` or single-integer flag value with least <= lo <= hi."""
    lo, colon, hi = text.partition(":")
    try:
        lo, hi = (int(lo), int(hi)) if colon else (int(lo), int(lo))
    except ValueError:
        raise ValueError(f"{flag} must be lo:hi or one integer, got {text!r}") from None
    if not least <= lo <= hi:
        raise ValueError(f"{flag} must be lo:hi with {least} <= lo <= hi, got {text!r}")
    return lo, hi


def cmd_verify(args) -> int:
    eq = FactorialEquation.parse(args.equation)
    rec = verify(eq)
    result = _record_obj(rec)
    result["adjacent_pairs"] = [list(p) for p in rec.adjacent]
    result["census_note"] = rec.census_note
    pairing = default_pairing(eq)
    if pairing is not None:
        df = to_delta_form(eq, pairing)
        result["delta_form"] = {
            "pairing": list(pairing.indices),
            "blocks": [list(b) for b in df.blocks],
            "leftover": list(df.leftover),
            "unit_gap_blocks": list(df.unit_gap_blocks),
        }
        if args.audit_window and rec.holds and df.k1 >= 2:
            findings = audit_solution_window(df)
            result["window_audit"] = {
                "ok": all(f.ok for f in findings),
                "findings": len(findings),
                "failures": [f.check_id for f in findings if not f.ok],
            }
    _print_doc(_meta("verify", {"equation": str(eq)}), result)
    return EXIT_OK if rec.holds else EXIT_NEGATIVE


def cmd_search(args) -> int:
    spec = SearchSpec(
        n1_max=args.n1_max,
        t_max=args.t_max,
        s_max=args.s_max,
        c=args.c,
        nontrivial_only=args.nontrivial_only,
    )
    guards = SearchGuards(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    workers = _workers(args)
    meta = _meta("search", {**asdict(spec), "workers": workers})
    stats: dict = {}
    result = search_factorial_products(spec, guards=guards, workers=workers, stats=stats)
    start = time.perf_counter()
    payload = record_jsonl(result) if args.out else ""
    summary = census_report(result, c=spec.c)
    table = "\n".join(summary.csv_rows()) + "\n" if args.census_csv else ""
    stats["seconds"]["report"] = round(time.perf_counter() - start, 6)
    meta["stats"] = stats
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps({"meta": meta}, separators=(",", ":")) + "\n")
            fh.write(payload)
    if args.census_csv:
        with _out_file(args.census_csv, meta) as fh:
            fh.write(table)
    _print_doc(meta, summary.to_json_obj())
    return EXIT_OK


def _parse_pairing(text: str) -> tuple[int, ...]:
    """A ``--pairing`` value: comma-separated integer indices."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"--pairing must be comma-separated integers, got {text!r}") from None


def cmd_density(args) -> int:
    pairing = _parse_pairing(args.pairing) if args.pairing else ()
    spec = RegionSpec(t=args.t, s=args.s, c=args.c, pairing=pairing)
    workers = _workers(args)
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    # the quadrature refuses what it cannot run before any sampling
    quad = quadrature_density(spec, args.resolution)
    est = mc_density(spec, args.samples, args.seed, workers=workers)
    est = replace(est, analytic=_analytic_density(spec), quadrature=quad)
    config = {**asdict(spec), "samples": args.samples, "seed": args.seed, "workers": workers}
    _print_doc(_meta("density", config), est.to_json_obj())
    return EXIT_OK


def _chain_findings(args):
    if args.equation is None:
        raise ValueError("--check chain requires --equation")
    eq = FactorialEquation.parse(args.equation)
    rec = verify(eq)
    if not rec.holds:
        raise EquationError("not-a-solution", f"{eq} does not hold")
    if args.pairing:
        try:
            df = to_delta_form(eq, Pairing(_parse_pairing(args.pairing)))
        except EquationError as exc:
            raise ValueError(f"--pairing must be a valid pairing for {eq}: {exc}") from None
    else:
        pairing = default_pairing(eq)
        if pairing is None:
            raise EquationError("pairing", f"no valid pairing for {eq}")
        df = to_delta_form(eq, pairing)
    return audit_proof_chain(df, args.ratio_c, args.kappa)


def _out_file(path, meta: dict):
    """``path`` opened for writing, the run metadata already written as its
    leading comment line; a null context when no path is given."""
    if not path:
        return contextlib.nullcontext()
    fh = open(path, "w")
    fh.write("# " + json.dumps(meta, separators=(",", ":")) + "\n")
    return fh


def cmd_audit(args) -> int:
    check = args.check
    if args.violations_only and check not in ("theta", "mertens", "stirling"):
        raise ValueError(
            f"--violations-only applies to --check theta, mertens and stirling, not {check}"
        )
    meta_cfg: dict = {"check": check}
    meta = _meta("audit", meta_cfg)
    result: dict
    # the --out text, formatted as it is written: the window scan writes each
    # block as it is scanned, every other check leaves its pieces in rows
    rows = None
    violations = 0
    if check in ("theta", "mertens", "stirling"):
        if check == "stirling":
            if args.n_max is None or args.n_max < 2:
                raise ValueError("--n-max must be >= 2")
            prefix = audit_stirling_lower(args.n_max)
            meta_cfg["n_max"] = args.n_max
        else:
            if args.nu_max is None or not 2 <= args.nu_max < float("inf"):
                raise ValueError(f"--nu-max must be a finite number >= 2, got {args.nu_max}")
            fn = audit_theta if check == "theta" else audit_mertens
            prefix = fn(args.nu_max)
            meta_cfg["nu_max"] = args.nu_max
        violations = prefix.violations
        result = {
            "checked": len(prefix),
            "violations": violations,
            "min_margin": prefix.min_margin,
        }
        rows = prefix.csv(args.violations_only)
    elif check == "erdos":
        scan = audit_erdos_pdelta(_parse_range("--x", args.x, 2), _parse_range("--k", args.k, 2))
        meta_cfg.update({"x": args.x, "k": args.k})
        result = {
            "eligible_windows": len(scan),
            "min_ratio": scan.min_ratio,
            "min_at": list(scan.min_at) if scan.min_at else None,
        }
        rows = scan.csv()
    elif check == "chain":
        findings = _chain_findings(args)
        meta_cfg.update(
            {"equation": args.equation, "c": args.ratio_c, "kappa": args.kappa}
        )
        violations = sum(1 for f in findings if not f.ok)
        result = {
            "findings": [
                {
                    "check_id": f.check_id,
                    "parameters": f.parameters,
                    "lhs": f.lhs_value,
                    "rhs": f.rhs_value,
                    "margin": f.margin,
                    "ok": f.ok,
                }
                for f in findings
            ],
            "violations": violations,
        }
        rows = [findings_csv(findings)]
    elif check == "window":
        if args.m1_max is None or args.m1_max < 1:
            raise ValueError("--m1-max must be >= 1")
        k_lo, k_hi = _parse_range("--k1", args.k1, 3)
        meta_cfg.update({"m1_max": args.m1_max, "k1": args.k1})
        count = 0
        explicit_failures = []
        best_quality = 0.0
        best_at = None
        blocks = abc_scan(args.m1_max, k_lo, k_hi)
        block = next(blocks)  # before --out is opened: a sieve-ceiling refusal leaves no file
        with _out_file(args.out, meta) as fh:
            if fh:
                fh.write(",".join(ABC_COLUMNS) + "\n")
            while block is not None:
                count += len(block)
                quality, at = block.max_quality()
                if quality > best_quality:
                    best_quality, best_at = quality, at
                explicit_failures.extend(block.explicit_failures())
                if fh:
                    fh.writelines(block.csv())
                block = next(blocks, None)
        violations = len(explicit_failures)
        if violations:
            print(
                f"WARNING: {violations} window(s) violate c < N(abc)^(7/4): "
                f"{explicit_failures[:10]}",
                file=sys.stderr,
            )
        result = {
            "windows": count,
            "explicit_abc_failures": explicit_failures,
            "max_quality": best_quality,
            "max_quality_at": list(best_at) if best_at else None,
        }
    else:  # pragma: no cover
        raise ValueError(f"unknown check {check!r}")
    if args.out and rows is not None:
        with _out_file(args.out, meta) as fh:
            fh.writelines(rows)
    _print_doc(meta, result)
    return EXIT_NEGATIVE if violations else EXIT_OK


def cmd_abc(args) -> int:
    rep = abc_window_report(args.m1, args.k1, args.a2)
    result = {name: getattr(rep, name) for name in ABC_COLUMNS}
    for name, f in (("window_bound", rep.window_bound), ("ineq4", rep.ineq4)):
        if f is not None:
            result[name] = {"lhs": f.lhs_value, "rhs": f.rhs_value, "ok": f.ok}
    _print_doc(_meta("abc", {"m1": args.m1, "k1": args.k1, "a2": args.a2}), result)
    return EXIT_OK if rep.explicit_ok else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The factprod argument parser, built once per process: parse_args
    leaves it unchanged (no argument has a mutable default or an append
    action), so every call of main parses on the same one."""
    p = argparse.ArgumentParser(prog="factprod", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify one equation literal, e.g. 7,3,3,2=9")
    v.add_argument("equation")
    v.add_argument("--audit-window", action="store_true")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("search", help="bounded census of factorial-product identities")
    s.add_argument("--n1-max", type=int, required=True, dest="n1_max")
    s.add_argument("--t-max", type=int, required=True, dest="t_max")
    s.add_argument("--s-max", type=int, required=True, dest="s_max")
    s.add_argument("--c", type=int, default=None)
    s.add_argument("--nontrivial-only", action="store_true", dest="nontrivial_only")
    s.add_argument("--out", help="JSON-lines census file")
    s.add_argument("--census-csv", dest="census_csv", help="summary CSV file")
    s.add_argument("--workers", type=int, default=None)
    s.add_argument(
        "--max-nodes",
        type=int,
        default=50_000_000,
        dest="max_nodes",
        help="node budget: descent values walked, over all workers (default 50,000,000); "
        "a trip exits 3 and reports (N of M units completed, K nodes)",
    )
    s.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        dest="max_seconds",
        help="wall-time budget in seconds (default none); a trip exits 3 and reports "
        "(N of M units completed, K nodes)",
    )
    s.set_defaults(fn=cmd_search)

    d = sub.add_parser("density", help="constraint-region density estimates")
    d.add_argument("--t", type=int, required=True)
    d.add_argument("--s", type=int, required=True)
    d.add_argument("--c", type=float, required=True)
    d.add_argument("--pairing", default=None, help="comma-separated indices i2..is")
    d.add_argument("--samples", type=int, default=1_000_000)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument(
        "--resolution",
        type=int,
        default=None,
        help="s = 3 quadrature grid size per axis (default 64, at most 2048); "
        "s <= 2 is exact and ignores it",
    )
    d.add_argument("--workers", type=int, default=None)
    d.set_defaults(fn=cmd_density)

    a = sub.add_parser("audit", help="inequality audits and scans")
    a.add_argument(
        "--check",
        required=True,
        choices=["theta", "mertens", "stirling", "erdos", "chain", "window"],
    )
    a.add_argument("--nu-max", type=float, default=None, dest="nu_max")
    a.add_argument("--n-max", type=int, default=None, dest="n_max")
    a.add_argument("--x", default="2:5000", help="x range lo:hi (erdos)")
    a.add_argument("--k", default="10:200", help="k range lo:hi (erdos)")
    a.add_argument("--equation", default=None, help="equation literal (chain)")
    a.add_argument("--pairing", default=None, help="pairing indices (chain)")
    a.add_argument("--ratio-c", type=int, default=1, dest="ratio_c")
    a.add_argument("--kappa", type=int, default=2)
    a.add_argument("--m1-max", type=int, default=None, dest="m1_max")
    a.add_argument("--k1", default="3:50", help="k1 range lo:hi (window)")
    a.add_argument("--out", help="findings CSV file")
    a.add_argument(
        "--violations-only",
        action="store_true",
        dest="violations_only",
        help="--out keeps only the violated rows (theta, mertens, stirling)",
    )
    a.set_defaults(fn=cmd_audit)

    b = sub.add_parser("abc", help="smallest-radical abc triple for one window")
    b.add_argument("--m1", type=int, required=True)
    b.add_argument("--k1", type=int, required=True)
    b.add_argument("--a2", type=int, default=None)
    b.set_defaults(fn=cmd_abc)
    return p


def _flag_message(args, message: str) -> str:
    """A library message of the form ``<name> must ...`` about a parameter
    that a flag sets, reworded to name the flag (n1_max -> --n1-max)."""
    name, must, rest = message.partition(" must ")
    if must and name in vars(args):
        return "--" + name.replace("_", "-") + must + rest
    return message


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ResourceGuardError, SieveCeilingError, QuadratureBudgetError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (EquationError, ValueError) as exc:
        print(f"error: {_flag_message(args, str(exc))}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
