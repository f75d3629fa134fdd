"""Command-line surface.

Subcommands: verify, search, density, audit, abc.  Exit codes: 0 success (or
identity holds), 1 completed with a negative result (identity fails, or an
audit found violations), 2 usage / validation error, 3 resource guard.

Every run prints a JSON document with a ``meta`` block (schema, version,
config echo, timestamp) and a ``result`` block; the result payload is a pure
function of flags and seed, so reruns are byte-identical once the metadata
timestamp is excluded.  File outputs carry the same metadata as a header
line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
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
    DensityEstimate,
    QuadratureBudgetError,
    RegionSpec,
    _quad_panels,
    analytic_density_t3s2,
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
    env = os.environ.get("FACTPROD_WORKERS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"FACTPROD_WORKERS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ValueError(f"FACTPROD_WORKERS must be >= 1, got {workers}")
        return workers
    return os.cpu_count() or 1


def _record_obj(rec) -> dict:
    return {
        "lhs": list(rec.eq.lhs),
        "rhs": list(rec.eq.rhs),
        "holds": rec.holds,
        "class": rec.classification,
        "t": rec.eq.t,
        "s": rec.eq.s,
    }


def record_jsonl(records) -> str:
    """The census payload: one compact JSON object per record, in canonical
    order; deterministic for identical search parameters."""
    return "".join(json.dumps(_record_obj(r), separators=(",", ":")) + "\n" for r in records)


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
    guards = SearchGuards(
        n1_ceiling=args.n1_ceiling,
        max_nodes=args.max_nodes,
        max_seconds=args.max_seconds,
    )
    workers = _workers(args)
    config = {
        "n1_max": spec.n1_max,
        "t_max": spec.t_max,
        "s_max": spec.s_max,
        "c": spec.c,
        "nontrivial_only": spec.nontrivial_only,
        "workers": workers,
    }
    meta = _meta("search", config)
    records = search_factorial_products(spec, guards=guards, workers=workers)
    payload = record_jsonl(records)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(json.dumps({"meta": meta}, separators=(",", ":")) + "\n")
            fh.write(payload)
    summary = census_report(records, c=spec.c)
    if args.census_csv:
        with open(args.census_csv, "w") as fh:
            fh.write("# " + json.dumps(meta, separators=(",", ":")) + "\n")
            fh.write("\n".join(summary.csv_rows()) + "\n")
    _print_doc(meta, summary.to_json_obj())
    return EXIT_OK


def cmd_density(args) -> int:
    pairing = tuple(int(v) for v in args.pairing.split(",")) if args.pairing else ()
    spec = RegionSpec(t=args.t, s=args.s, c=args.c, pairing=pairing)
    workers = _workers(args)
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    _quad_panels(spec, args.resolution)  # reject what the quadrature cannot run before sampling
    est = mc_density(spec, args.samples, args.seed, workers=workers)
    quad = quadrature_density(spec, args.resolution)
    analytic = None
    if (spec.t, spec.s, spec.pairing) == (3, 2, (2,)) and float(spec.c).is_integer():
        analytic = analytic_density_t3s2(int(spec.c))
    est = DensityEstimate(analytic, est.mc_mean, est.mc_stderr, est.samples, est.seed, quad)
    config = {
        "t": spec.t,
        "s": spec.s,
        "c": spec.c,
        "pairing": list(spec.pairing),
        "samples": args.samples,
        "seed": args.seed,
        "workers": workers,
    }
    _print_doc(_meta("density", config), est.to_json_obj())
    return EXIT_OK


def _chain_findings(args):
    if args.equation is None:
        raise ValueError("--check chain requires --equation")
    eq = FactorialEquation.parse(args.equation)
    rec = verify(eq)
    if not rec.holds:
        raise EquationError("not-a-solution", f"{eq} does not hold")
    pairing = (
        Pairing(tuple(int(v) for v in args.pairing.split(",")))
        if args.pairing
        else default_pairing(eq)
    )
    if pairing is None:
        raise EquationError("pairing", f"no valid pairing for {eq}")
    df = to_delta_form(eq, pairing)
    return audit_proof_chain(df, args.ratio_c, args.kappa)


def cmd_audit(args) -> int:
    check = args.check
    meta_cfg: dict = {"check": check}
    result: dict
    findings_text = None
    violations = 0
    if check in ("theta", "mertens", "stirling"):
        if check == "stirling":
            if args.n_max is None or args.n_max < 2:
                raise ValueError("--n-max must be >= 2")
            prefix = audit_stirling_lower(args.n_max)
            meta_cfg["n_max"] = args.n_max
        else:
            if args.nu_max is None or args.nu_max < 2:
                raise ValueError("--nu-max must be >= 2")
            fn = audit_theta if check == "theta" else audit_mertens
            prefix = fn(args.nu_max)
            meta_cfg["nu_max"] = args.nu_max
        violations = prefix.violations
        result = {
            "checked": len(prefix),
            "violations": violations,
            "min_margin": prefix.min_margin,
        }
        if args.out:
            findings_text = findings_csv(prefix.findings(args.violations_only), None)
    elif check == "erdos":
        scan = audit_erdos_pdelta(_parse_range("--x", args.x, 2), _parse_range("--k", args.k, 2))
        meta_cfg.update({"x": args.x, "k": args.k})
        result = {
            "eligible_windows": len(scan.findings),
            "min_ratio": scan.min_ratio,
            "min_at": list(scan.min_at) if scan.min_at else None,
        }
        if args.out:
            findings_text = findings_csv(scan.findings, None)
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
        if args.out:
            findings_text = findings_csv(findings, None)
    elif check == "window":
        if args.m1_max is None or args.m1_max < 1:
            raise ValueError("--m1-max must be >= 1")
        k_lo, k_hi = _parse_range("--k1", args.k1, 3)
        meta_cfg.update({"m1_max": args.m1_max, "k1": args.k1})
        count = 0
        explicit_failures = []
        best_quality = 0.0
        best_at = None
        rows = [",".join(ABC_COLUMNS)]
        keep_rows = args.out is not None
        for block in abc_scan(args.m1_max, k_lo, k_hi):
            count += len(block)
            i = int(block.quality.argmax())  # the first row of the block's maximum
            if block.quality[i] > best_quality:
                best_quality = float(block.quality[i])
                best_at = (int(block.m1[i]), int(block.k1[i]))
            bad = ~block.explicit_ok
            explicit_failures.extend(zip(block.m1[bad].tolist(), block.k1[bad].tolist()))
            if keep_rows:
                cols = [getattr(block, name).tolist() for name in ABC_COLUMNS]
                cols[-1] = ["true" if ok else "false" for ok in cols[-1]]
                rows.extend(",".join(map(str, row)) for row in zip(*cols))
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
        if keep_rows:
            findings_text = "\n".join(rows) + "\n"
    else:  # pragma: no cover
        raise ValueError(f"unknown check {check!r}")
    meta = _meta("audit", meta_cfg)
    if args.out and findings_text is not None:
        with open(args.out, "w") as fh:
            fh.write("# " + json.dumps(meta, separators=(",", ":")) + "\n")
            fh.write(findings_text)
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


def build_parser() -> argparse.ArgumentParser:
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
    s.add_argument("--n1-ceiling", type=int, default=100, dest="n1_ceiling")
    s.add_argument("--max-nodes", type=int, default=50_000_000, dest="max_nodes")
    s.add_argument("--max-seconds", type=float, default=None, dest="max_seconds")
    s.set_defaults(fn=cmd_search)

    d = sub.add_parser("density", help="constraint-region density estimates")
    d.add_argument("--t", type=int, required=True)
    d.add_argument("--s", type=int, required=True)
    d.add_argument("--c", type=float, required=True)
    d.add_argument("--pairing", default=None, help="comma-separated indices i2..is")
    d.add_argument("--samples", type=int, default=1_000_000)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--resolution", type=int, default=None)
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
    a.add_argument("--violations-only", action="store_true", dest="violations_only")
    a.set_defaults(fn=cmd_audit)

    b = sub.add_parser("abc", help="smallest-radical abc triple for one window")
    b.add_argument("--m1", type=int, required=True)
    b.add_argument("--k1", type=int, required=True)
    b.add_argument("--a2", type=int, default=None)
    b.set_defaults(fn=cmd_abc)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceGuardError as exc:
        print(
            f"resource guard: {exc.reason} ({exc.completed_units} of {exc.total_units} "
            f"units completed, {exc.nodes} nodes)",
            file=sys.stderr,
        )
        return EXIT_GUARD
    except (SieveCeilingError, QuadratureBudgetError) as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (EquationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
