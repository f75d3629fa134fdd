import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from factprod import audit, factorint
from factprod.cli import _record_obj, main, record_jsonl
from factprod.equations import NONTRIVIAL, TRIVIAL
from factprod.search import CensusResult, SearchSpec, search_factorial_products

from oracles import record_jsonl_per_row


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_doc(out):
    doc = json.loads(out)
    return doc["meta"], doc["result"]


# ---------------------------------------------------------------- verify

def test_verify_holds(capsys):
    code, out, _ = run_cli(capsys, "verify", "7,6=10")
    assert code == 0
    meta, result = parse_doc(out)
    assert meta["schema"] == "factprod/1"
    assert result["holds"] and result["class"] == "nontrivial"
    assert result["delta_form"]["blocks"] == [[8, 3]]


def test_verify_not_holds_exit_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "8,3=9")
    assert code == 1
    _, result = parse_doc(out)
    assert result["holds"] is False


def test_verify_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "7,6=")
    assert code == 2 and "error" in err


def test_verify_census_note_surfaced(capsys):
    code, out, _ = run_cli(capsys, "verify", "15,2,2,2,2=16")
    assert code == 0
    _, result = parse_doc(out)
    assert result["class"] == "trivial"
    assert result["census_note"] and "nontrivial" in result["census_note"]
    assert result["adjacent_pairs"] == [[15, 16]]


def test_verify_audit_window_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "14,5,2=16", "--audit-window")
    assert code == 0
    _, result = parse_doc(out)
    assert result["window_audit"]["ok"] is True
    assert result["window_audit"]["failures"] == []


# ---------------------------------------------------------------- search

def test_search_writes_census_files(capsys, tmp_path):
    out_path = tmp_path / "census.jsonl"
    csv_path = tmp_path / "summary.csv"
    code, out, _ = run_cli(
        capsys,
        "search",
        "--n1-max", "16", "--t-max", "5", "--s-max", "1",
        "--out", str(out_path), "--census-csv", str(csv_path),
    )
    assert code == 0
    _, result = parse_doc(out)
    assert result["extremal_n1"] == 16
    assert len(result["nontrivial"]) == 4
    lines = out_path.read_text().strip().split("\n")
    assert json.loads(lines[0])["meta"]["schema"] == "factprod/1"
    records = [json.loads(l) for l in lines[1:]]
    assert {"lhs", "rhs", "holds", "class", "t", "s"} == set(records[0])
    assert sum(1 for r in records if r["class"] == "nontrivial") == 4
    csv = csv_path.read_text().strip().split("\n")
    assert csv[0].startswith("#") and csv[1] == "t,s,classification,count"


def test_search_payload_identical_across_workers(capsys, tmp_path):
    payloads = []
    for w in ("1", "2", "8"):
        p = tmp_path / f"census_{w}.jsonl"
        code, _, _ = run_cli(
            capsys,
            "search",
            "--n1-max", "12", "--t-max", "4", "--s-max", "2",
            "--workers", w, "--out", str(p),
        )
        assert code == 0
        payloads.append(p.read_text().split("\n", 1)[1])  # skip metadata line
    assert payloads[0] == payloads[1] == payloads[2]


CENSUS_SHAPES = [
    ("16", "5", "1"),
    ("12", "4", "2"),
    ("24", "6", "3"),
    ("16", "5", "2", "--c", "1", "--nontrivial-only"),
]


@pytest.mark.parametrize("shape", CENSUS_SHAPES)
def test_search_payload_is_the_records_json(capsys, tmp_path, shape):
    # the columns are formatted directly; the bytes must be those of the
    # records the result builds, at any worker count
    n1, t, s, *flags = shape
    c = int(flags[1]) if flags else None
    spec = SearchSpec(int(n1), int(t), int(s), c=c, nontrivial_only=bool(flags))
    want = "".join(
        json.dumps(_record_obj(r), separators=(",", ":")) + "\n"
        for r in search_factorial_products(spec).records
    )
    assert want
    for w in ("1", "2", "3"):
        p = tmp_path / f"census_{w}.jsonl"
        argv = ["search", "--n1-max", n1, "--t-max", t, "--s-max", s, *flags]
        code, _, _ = run_cli(capsys, *argv, "--workers", w, "--out", str(p))
        assert code == 0
        assert p.read_text().split("\n", 1)[1] == want


def test_record_jsonl_is_the_per_row_format():
    """The payload formatted one (t, s, class) group at a time is byte for
    byte the per-row format, in canonical order: on censuses with and without
    --c/--nontrivial-only, an empty one, and rows of every class, None too."""
    results = [
        search_factorial_products(SearchSpec(n1, t, s, c=c, nontrivial_only=c is not None))
        for n1, t, s, c in ((12, 4, 2, None), (24, 6, 3, None), (16, 5, 2, 1), (40, 8, 3, 2))
    ]
    results.append(search_factorial_products(SearchSpec(5, 3, 1, nontrivial_only=True)))
    results.append(CensusResult.from_rows(()))
    rows = (((4, 3), (5,), None), ((9,), (9, 2), TRIVIAL), ((5, 3), (6,), None))
    results.append(CensusResult.from_rows(rows))
    assert not results[-3]
    assert {None, TRIVIAL, NONTRIVIAL} <= {k for r in results for k in r.classification}
    for result in results:
        assert record_jsonl(result) == record_jsonl_per_row(result)


@pytest.mark.parametrize("flags", [(), ("--nontrivial-only",), ("--c", "1")])
def test_a_completed_search_builds_no_per_row_python(capsys, monkeypatch, tmp_path, flags):
    """A search that completes formats its summary, JSON lines and CSV from the
    columns: no row becomes a tuple or a SolutionRecord, and a FactorialEquation
    is built only for the --c filter and tallies."""
    from factprod import equations, search

    calls = {"_tuples": 0, "SolutionRecord": 0, "FactorialEquation": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(search, "_tuples", counting("_tuples", search._tuples))
    monkeypatch.setattr(
        equations.SolutionRecord, "__init__",
        counting("SolutionRecord", equations.SolutionRecord.__init__),
    )
    monkeypatch.setattr(
        equations.FactorialEquation, "__post_init__",
        counting("FactorialEquation", equations.FactorialEquation.__post_init__),
    )
    code, out, err = run_cli(
        capsys, "search", "--n1-max", "40", "--t-max", "8", "--s-max", "3", *flags,
        "--workers", "1", "--out", str(tmp_path / "census.jsonl"),
        "--census-csv", str(tmp_path / "census.csv"),
    )
    assert code == 0, err
    assert parse_doc(out)[1]["total"] > 0
    assert calls["_tuples"] == calls["SolutionRecord"] == 0
    assert (calls["FactorialEquation"] > 0) == ("--c" in flags)


# nodes, then the sha256 of the result object (json.dumps with sorted keys), of
# the --out body and of the --census-csv body
SEARCH_PINS = {
    (40, 8, 3): (
        305_502,
        "bfd39691bdcfa1d49f95e89c3c6c1263f44c2c8127e39ad75a388417c20b1033",
        "928e0b66e66daba87d201c86b102e582321d362fc40e70815a3b3faf77457d5e",
        "798758d12c8adb597615c6f85876b2521c2330df4b43871942fcbe115ce92231",
    ),
    (100, 8, 2): (
        54_390,
        "104657b25c2417844b36a749494e4e989e17fdb5c49f6dbe08c5e3d20c21d42e",
        "39512f435ea9c9e16a7cc36f36a2e1b8b0f1b66fb91a7864ed850f92660393e3",
        "5f2ca0e75ed90e3759e53d304bb7084d33462ba66438abba4ed3e6b89fc6f1ca",
    ),
    (7876, 12, 1): (
        44_380,
        "d77e3d2fae7632a3abbc118785ec5932b29e36d9ea4724f3604f527207ac70bf",
        "44d1ec7453504d1b8cb7923e72ef1f957ab92a4c95a6027c41a063af980d5684",
        "dce27aef64301ea6381fae9c88dcae9a4bc5e96cb53774c399fb99de6bf9bc59",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shape", list(SEARCH_PINS))
def test_search_reports_its_stats_in_meta_only(capsys, tmp_path, shape, workers):
    """meta.stats, the same on stdout, in the --out header and in the CSV
    comment, counts the pinned nodes, every unit completed, the records and
    the children forked, and times each phase; the result, the JSON lines
    and the CSV rows keep their digests."""
    import hashlib

    from factprod import fanout

    nodes, *digests = SEARCH_PINS[shape]
    out, csv = tmp_path / "census.jsonl", tmp_path / "census.csv"
    argv = [str(v) for v in shape]
    code, text, err = run_cli(
        capsys, "search", "--n1-max", argv[0], "--t-max", argv[1], "--s-max", argv[2],
        "--workers", str(workers), "--out", str(out), "--census-csv", str(csv),
    )
    assert code == 0, err
    meta, result = parse_doc(text)
    header, body = out.read_text().split("\n", 1)
    comment, rows = csv.read_text().split("\n", 1)
    assert json.loads(header)["meta"] == json.loads(comment[2:]) == meta
    texts = (json.dumps(result, sort_keys=True), body, rows)
    assert [hashlib.sha256(t.encode()).hexdigest() for t in texts] == digests
    stats = meta["stats"]
    forked = min(workers, fanout.usable_cpus())
    assert stats["nodes"] == nodes and stats["records"] == result["total"]
    assert stats["units"] == stats["units_completed"] > 0
    assert stats["children"] == (forked if forked > 1 else 0)
    assert set(stats["seconds"]) == {"tables", "descent", "merge", "report"}
    assert all(v >= 0 for v in stats["seconds"].values())
    assert "stats" not in result


@pytest.mark.parametrize("flags", [(), ("--c", "1", "--nontrivial-only"), ("--c", "2")])
def test_search_builds_no_delta_form_and_pickles_no_record(
    capsys, monkeypatch, tmp_path, flags, fresh_pool
):
    from factprod import equations, search

    def boom(*args, **kwargs):
        raise AssertionError("built on the search command's path")

    for module in (equations, search):
        monkeypatch.setattr(module, "to_delta_form", boom)
        monkeypatch.setattr(module, "default_pairing", boom)
    monkeypatch.setattr(equations.SolutionRecord, "__reduce_ex__", boom)
    for w in ("1", "2"):
        code, out, err = run_cli(
            capsys, "search", "--n1-max", "24", "--t-max", "6", "--s-max", "3", *flags,
            "--workers", w, "--out", str(tmp_path / "census.jsonl"),
        )
        assert code == 0, err
        assert parse_doc(out)[1]["total"] > 0


def test_search_guard_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "search", "--n1-max", "1000000000", "--t-max", "4", "--s-max", "1"
    )
    assert code == 3 and "resource guard" in err


def test_search_table_guard_has_no_units_suffix(capsys):
    from factprod.search import _TABLE_PAIRS, _table_pairs

    code, out, err = run_cli(
        capsys, "search", "--n1-max", "1000000000", "--t-max", "4", "--s-max", "1"
    )
    assert code == 3 and out == ""
    assert err.strip() == (
        f"resource guard: factorial tables up to 1000000000! need {_table_pairs(10**9)} "
        f"(rank, exponent) pairs, above the budget of {_TABLE_PAIRS}"
    )


def test_search_unit_guard_exits_3(capsys):
    from factprod.search import _UNIT_BUDGET, _unit_count

    code, out, err = run_cli(
        capsys, "search", "--n1-max", "5000", "--t-max", "4", "--s-max", "3"
    )
    assert code == 3 and out == ""
    assert err.strip() == (
        f"resource guard: the search has at least {_unit_count(5000, 2, 1, 3)} work units, "
        f"above the budget of {_UNIT_BUDGET}"
    )


def test_search_n1_ceiling_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as e:
        main(["search", "--n1-max", "10", "--t-max", "4", "--s-max", "1", "--n1-ceiling", "10"])
    assert e.value.code == 2
    assert "--n1-ceiling" in capsys.readouterr().err


def test_search_guard_message_counts_units_and_nodes(capsys):
    code, _, err = run_cli(
        capsys,
        "search", "--n1-max", "16", "--t-max", "5", "--s-max", "2",
        "--workers", "1", "--max-nodes", "500",
    )
    assert code == 3
    assert re.search(r"\(\d+ of \d+ units completed, \d+ nodes\)", err), err


def test_search_at_the_table_bound_fits_the_default_guards(capsys):
    # the default node budget counts only the values the descent walks
    code, out, err = run_cli(
        capsys,
        "search", "--n1-max", "7876", "--t-max", "12", "--s-max", "1", "--workers", "2",
    )
    assert code == 0, err
    assert parse_doc(out)[1]["total"] == 89


@pytest.mark.parametrize("workers, needle", [("0", "--workers"), ("-3", "--workers")])
def test_search_rejects_nonpositive_workers(capsys, workers, needle):
    code, out, err = run_cli(
        capsys, "search", "--n1-max", "8", "--t-max", "4", "--s-max", "1", "--workers", workers
    )
    assert code == 2 and out == ""
    assert needle in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-nodes", "-5"),
        ("--max-nodes", "0"),
        ("--max-seconds", "0"),
        ("--max-seconds", "nan"),
        ("--max-seconds", "-1"),
        ("--max-seconds", "inf"),
        ("--c", "0"),
        ("--n1-max", "2"),
        ("--t-max", "1"),
        ("--s-max", "0"),
    ],
)
def test_search_rejects_bad_guard_flags(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "search", "--n1-max", "8", "--t-max", "4", "--s-max", "1", flag, value
    )
    assert code == 2 and out == ""
    assert f"error: {flag} must be" in err


def test_default_workers_follow_cpu_affinity(capsys, monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    code, out, _ = run_cli(capsys, "search", "--n1-max", "8", "--t-max", "4", "--s-max", "1")
    assert code == 0
    assert parse_doc(out)[0]["config"]["workers"] == 1


# ---------------------------------------------------------------- density

def test_density_flagship(capsys):
    code, out, _ = run_cli(
        capsys,
        "density",
        "--t", "3", "--s", "2", "--c", "2",
        "--samples", "50000", "--seed", "42",
    )
    assert code == 0
    _, result = parse_doc(out)
    assert result["analytic"] == "1/80"
    assert result["quadrature"] == pytest.approx(0.0125, abs=1e-9)
    assert abs(result["mc_mean"] - 0.0125) < 5 * result["mc_stderr"]
    assert result["seed"] == 42 and result["samples"] == 50000


def test_density_validation_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "density", "--t", "2", "--s", "3", "--c", "1", "--samples", "10"
    )
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--c", "nan"),
        ("--c", "0.5"),
        ("--pairing", "x"),
        ("--pairing", "2,"),
        ("--t", "1"),
        ("--s", "0"),
        ("--s", "4"),  # above --t 3
        ("--pairing", "2,2"),
        ("--pairing", "5"),
        ("--resolution", "0"),
    ],
)
def test_density_bad_flag_names_it(capsys, monkeypatch, flag, value):
    def estimate_ran(*args, **kwargs):
        raise AssertionError("an estimate ran on rejected input")

    monkeypatch.setattr("factprod.cli.mc_density", estimate_ran)
    args = {"--t": "3", "--s": "2", "--c": "2", flag: value}
    code, out, err = run_cli(capsys, "density", *[v for kv in args.items() for v in kv])
    assert code == 2 and out == ""
    assert f"error: {flag} must be" in err


def test_density_rejects_before_estimating(capsys, monkeypatch):
    def estimate_ran(*args, **kwargs):
        raise AssertionError("an estimate ran on rejected input")

    # the quadrature validates its inputs before it integrates anything, and
    # runs before the Monte Carlo
    monkeypatch.setattr("factprod.cli.mc_density", estimate_ran)
    for name in ("_slice_s2", "_slice_s3"):
        monkeypatch.setattr(f"factprod.density.{name}", estimate_ran)
    code, _, err = run_cli(capsys, "density", "--t", "4", "--s", "3", "--c", "1")
    assert code == 2 and "dimension guard" in err
    code, _, err = run_cli(
        capsys, "density", "--t", "3", "--s", "2", "--c", "1", "--samples", "0"
    )
    assert code == 2 and "--samples" in err
    code, _, err = run_cli(
        capsys, "density", "--t", "3", "--s", "2", "--c", "1", "--resolution", "0"
    )
    assert code == 2 and "resolution" in err


@pytest.mark.parametrize(
    "resolution,cells",
    [("100000", 10**10), ("2049", 2049**2)],
)
def test_density_quadrature_budget_is_a_resource_guard(capsys, monkeypatch, resolution, cells):
    import numpy as np

    def allocated(*args, **kwargs):
        raise AssertionError("an array was allocated past the quadrature guard")

    for name in ("empty", "zeros", "ones", "arange", "linspace", "full"):
        monkeypatch.setattr(np, name, allocated)
    monkeypatch.setattr("factprod.cli.mc_density", allocated)
    code, _, err = run_cli(
        capsys, "density", "--t", "3", "--s", "3", "--c", "1",
        "--samples", "1", "--resolution", resolution,
    )
    assert code == 3
    assert err.strip() == (
        f"resource guard: quadrature resolution {resolution} needs {cells} cells, "
        f"above the budget of 4194304"
    )


@pytest.mark.parametrize("s", ["1", "2"])
def test_density_resolution_has_no_effect_below_s3(capsys, s):
    results = []
    for extra in ((), ("--resolution", "1000000")):
        code, out, _ = run_cli(
            capsys, "density", "--t", "3", "--s", s, "--c", "1", "--samples", "1", *extra
        )
        assert code == 0
        results.append(parse_doc(out)[1])
    assert results[0] == results[1]


def test_density_analytic_for_s1(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--t", "4", "--s", "1", "--c", "2", "--samples", "20000"
    )
    assert code == 0
    _, result = parse_doc(out)
    assert result["analytic"] == "1/120"
    assert result["quadrature"] == 1 / 120


def test_density_no_analytic_off_flagship(capsys):
    code, out, _ = run_cli(
        capsys,
        "density",
        "--t", "4", "--s", "2", "--c", "1", "--samples", "20000", "--seed", "1",
    )
    assert code == 0
    _, result = parse_doc(out)
    assert result["analytic"] is None


# ---------------------------------------------------------------- audit

def test_audit_theta_clean(capsys, tmp_path):
    out_csv = tmp_path / "theta.csv"
    code, out, _ = run_cli(
        capsys, "audit", "--check", "theta", "--nu-max", "100000", "--out", str(out_csv)
    )
    assert code == 0
    _, result = parse_doc(out)
    assert result["violations"] == 0
    text = out_csv.read_text()
    assert text.split("\n")[1] == "check_id,nu,lhs,rhs,margin,ok"


def test_audit_bad_flags_exit_2(capsys):
    code, _, _ = run_cli(capsys, "audit", "--check", "theta", "--nu-max", "-1")
    assert code == 2
    code, _, _ = run_cli(capsys, "audit", "--check", "stirling")
    assert code == 2


def test_audit_erdos_deterministic_csv(capsys, tmp_path):
    texts = []
    for i in range(2):
        p = tmp_path / f"erdos_{i}.csv"
        code, out, _ = run_cli(
            capsys,
            "audit", "--check", "erdos", "--x", "2:500", "--k", "5:40",
            "--out", str(p),
        )
        assert code == 0
        texts.append(p.read_text().split("\n", 1)[1])  # drop metadata comment
    assert texts[0] == texts[1]
    _, result = parse_doc(out)
    assert result["min_ratio"] is not None


def test_audit_chain(capsys):
    code, out, _ = run_cli(
        capsys,
        "audit", "--check", "chain", "--equation", "14,5,2=16",
        "--ratio-c", "1", "--kappa", "2",
    )
    assert code == 0
    _, result = parse_doc(out)
    ids = [f["check_id"] for f in result["findings"]]
    assert "chain_ineq4" in ids


@pytest.mark.parametrize("value", ["x", "5", "1,2"])
def test_audit_chain_bad_pairing_names_it(capsys, value):
    code, out, err = run_cli(
        capsys, "audit", "--check", "chain", "--equation", "14,5,2=16", "--pairing", value
    )
    assert code == 2 and out == ""
    assert "error: --pairing must be" in err


def test_audit_erdos_builds_no_rows_without_out(capsys, monkeypatch):
    def row_built(*args, **kwargs):
        raise AssertionError("a finding row was built without --out")

    monkeypatch.setattr("factprod.audit.AuditFinding", row_built)
    code, out, _ = run_cli(capsys, "audit", "--check", "erdos")
    assert code == 0
    _, result = parse_doc(out)
    assert result["eligible_windows"] == 4250


@pytest.mark.parametrize(
    "argv",
    [
        ("--check", "erdos"),
        ("--check", "theta", "--nu-max", "100000"),
        ("--check", "mertens", "--nu-max", "1000.5", "--violations-only"),
        ("--check", "stirling", "--n-max", "5000"),
    ],
)
def test_audit_out_builds_no_finding_rows(capsys, monkeypatch, tmp_path, argv):
    """--out formats the Erdos and prefix-audit rows from their columns."""
    def row_built(*args, **kwargs):
        raise AssertionError("a finding row was built for --out")

    monkeypatch.setattr("factprod.audit.AuditFinding", row_built)
    path = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, "audit", *argv, "--out", str(path))
    assert code == 0, err
    assert len(path.read_text().splitlines()) > 2 or "--violations-only" in argv


def _out_payload(capsys, tmp_path, *argv):
    """The --out text of ``audit *argv`` below its metadata line."""
    path = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, "audit", *argv, "--out", str(path))
    assert code in (0, 1), err
    meta_line, payload = path.read_text().split("\n", 1)
    assert meta_line.startswith("# {")
    return payload


@pytest.mark.parametrize("violations_only", [False, True])
@pytest.mark.parametrize(
    "argv, coefficient, audit_of",
    [
        (("--check", "theta", "--nu-max", "30000"), None, lambda: audit.audit_theta(30000)),
        # 0.95 nu is below theta(nu) from a few thousand on: violations and passes mix
        (("--check", "theta", "--nu-max", "30000"), 0.95, lambda: audit.audit_theta(30000)),
        (("--check", "mertens", "--nu-max", "1000.5"), None, lambda: audit.audit_mertens(1000.5)),
        (("--check", "stirling", "--n-max", "3000"), None, lambda: audit.audit_stirling_lower(3000)),
        # the Erdos ratios are informational: --violations-only is refused
        (
            ("--check", "erdos", "--x", "2:5000", "--k", "10:200"), None,
            lambda: audit.audit_erdos_pdelta((2, 5000), (10, 200)),
        ),
    ],
)
def test_audit_out_is_findings_csv_of_the_row_views(
    capsys, tmp_path, monkeypatch, argv, coefficient, audit_of, violations_only
):
    """The --out text, formatted a slice of columns at a time (slices of
    1000 rows here), equals findings_csv of the row views, the empty header
    of a check with no violations included."""
    monkeypatch.setattr(audit, "_CHUNK", 1000)
    if coefficient is not None:
        monkeypatch.setattr(audit, "THETA_COEFF", coefficient)
    flags = ("--violations-only",) if violations_only else ()
    if violations_only and argv[1] == "erdos":
        path = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "audit", *argv, *flags, "--out", str(path))
        assert code == 2 and out == "" and "--violations-only" in err
        assert not path.exists()
        return
    payload = _out_payload(capsys, tmp_path, *argv, *flags)
    result = audit_of()
    if isinstance(result, audit.ErdosScanResult):
        findings = result.findings
    else:
        findings = result.findings(violations_only)
        assert (0 < result.violations < len(result)) == (coefficient is not None)
    # as lines: a failing comparison then names the first line that differs
    assert payload.splitlines(True) == audit.findings_csv(findings).splitlines(True)


@pytest.mark.parametrize(
    "argv",
    [
        ("--check", "chain", "--equation", "14,5,2=16"),
        ("--check", "window", "--m1-max", "100"),
    ],
)
def test_audit_refuses_violations_only_off_the_prefix_audits(capsys, argv):
    """As for erdos (test_audit_out_is_findings_csv_of_the_row_views), the
    flag is refused where it would be ignored."""
    code, out, err = run_cli(capsys, "audit", *argv, "--violations-only")
    assert code == 2 and out == ""
    assert "--violations-only" in err and "theta, mertens and stirling" in err
    assert f"not {argv[1]}" in err


def test_audit_window_out_is_the_block_columns(capsys, tmp_path, monkeypatch):
    """The window --out text, written a block at a time, equals the rows
    joined from the block columns (two blocks, slices of 1000 rows)."""
    monkeypatch.setattr(audit, "_CHUNK", 1000)
    payload = _out_payload(capsys, tmp_path, "--check", "window", "--m1-max", "3000", "--k1", "3:40")
    rows = [",".join(audit.ABC_COLUMNS) + "\n"]
    blocks = list(audit.abc_scan(3000, 3, 40))
    for block in blocks:
        cols = [getattr(block, name).tolist() for name in audit.ABC_COLUMNS]
        cols[-1] = ["true" if ok else "false" for ok in cols[-1]]
        rows.extend(",".join(map(str, row)) + "\n" for row in zip(*cols))
    assert len(blocks) == 2 and len(rows) == 1 + 3000 * 38
    assert payload.splitlines(True) == rows


def test_audit_and_abc_commands_leave_numpy_ma_unloaded(tmp_path):
    # the plain np.unique and np.isin import numpy.ma on first use: 10-16 ms per process
    script = (
        "import contextlib, io, sys\n"
        "from factprod import cli\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv.split())\n"
        "    print(argv.split()[0], code, 'numpy.ma' in sys.modules)\n"
    )
    commands = [
        f"audit --check erdos --x 2:500 --k 5:40 --out {tmp_path / 'erdos.csv'}",
        "abc --m1 1000 --k1 10",
        "verify 7,3,3,2=9 --audit-window",
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script, *commands],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["audit 0 False", "abc 0 False", "verify 0 False", ""]


@pytest.mark.parametrize(
    "argv",
    [
        ("--check", "theta", "--nu-max", "100000"),
        ("--check", "mertens", "--nu-max", "100000.5"),
        ("--check", "stirling", "--n-max", "10000"),
        ("--check", "window", "--m1-max", "2000", "--k1", "3:30"),
    ],
)
def test_audit_summary_builds_no_rows_without_out(capsys, monkeypatch, argv):
    from factprod import audit

    kahan = audit._prefix_sums

    def short_kahan(values):
        if len(values) > 100:
            raise AssertionError(f"a Kahan pass over {len(values)} points without --out")
        return kahan(values)

    def no_rows(name):
        def build(self):
            raise AssertionError(f"the per-row column {name} was built without --out")
        return property(build)

    monkeypatch.setattr(audit, "_prefix_sums", short_kahan)
    # every AbcBlock column built on first read: the 11 per-row columns
    # and the row-to-triple index they share
    built = [n for n, v in vars(audit.AbcBlock).items() if isinstance(v, functools.cached_property)]
    assert set(built) >= set(audit.ABC_COLUMNS)
    for name in built:
        monkeypatch.setattr(audit.AbcBlock, name, no_rows(name))
    code, out, err = run_cli(capsys, "audit", *argv)
    assert code == 0, err
    _, result = parse_doc(out)
    assert result.get("checked", result.get("windows")) > 1000


def test_audit_window_summary_takes_no_per_triple_log(capsys, monkeypatch, tmp_path):
    from factprod import audit

    logged = [0]
    log = audit._log

    def counting_log(values):
        logged[0] += len(values)
        return log(values)

    monkeypatch.setattr(audit, "_log", counting_log)
    argv = ("audit", "--check", "window", "--m1-max", "10000", "--k1", "3:50")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and parse_doc(out)[1]["windows"] == 480_000
    # 58,269 distinct triples: math.log runs only for those near the maximum
    assert logged[0] < 100
    # --out still prints the math.log quality of every row
    path = tmp_path / "windows.csv"
    argv = ("audit", "--check", "window", "--m1-max", "300", "--k1", "3:50", "--out", str(path))
    assert run_cli(capsys, *argv)[0] == 0
    rows = path.read_text().splitlines()[2:]
    assert len(rows) == 300 * 48
    for row in rows:
        c, radical_abc, quality = row.split(",")[7:10]
        assert quality == repr(math.log(int(c)) / math.log(int(radical_abc)))


def test_parser_reuse_leaks_nothing_between_calls(capsys, tmp_path):
    from factprod import cli

    # the meta block's clock readings: its timestamp and the search's phase seconds
    timestamp = re.compile(r'"(timestamp|seconds)": ?("[^"]*"|\{[^}]*\})')
    path = tmp_path / "out.txt"
    window = ("audit", "--check", "window", "--m1-max", "200", "--k1", "3:20")
    search = ("search", "--n1-max", "16", "--t-max", "5", "--s-max", "2", "--c", "1", "--workers", "1")
    calls = [
        (*window, "--out", str(path)),
        window,
        (*search, "--nontrivial-only"),
        search,
        ("search", "--n1-max", "16"),  # argparse error: exit 2
        ("abc", "--m1", "8", "--k1", "3"),
    ]

    def run(argv):
        """(exit code, stdout or argparse's stderr, --out file), clock readings masked."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            return exc.code, capsys.readouterr().err, None
        text = path.read_text() if path.exists() else None
        path.unlink(missing_ok=True)
        return code, timestamp.sub("", capsys.readouterr().out), text and timestamp.sub("", text)

    reused = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 0, 0, 2, 0]
    assert reused[0][2] is not None and reused[1][2] is None
    assert reused[2][1] != reused[3][1]  # --nontrivial-only did not stick


def test_audit_chain_requires_equation(capsys):
    code, _, err = run_cli(capsys, "audit", "--check", "chain")
    assert code == 2 and "--equation" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--check", "window", "--m1-max", "10", "--k1", "3:5:7"),
        ("--check", "window", "--m1-max", "10", "--k1", "5:"),
        ("--check", "window", "--m1-max", "10", "--k1", ":5"),
        ("--check", "window", "--m1-max", "10", "--k1", "2:5"),
        ("--check", "window", "--m1-max", "10", "--k1", "6:5"),
        ("--check", "erdos", "--x", "2:abc"),
        ("--check", "erdos", "--x", "1:5"),
        ("--check", "erdos", "--k", "40:5"),
        ("--check", "theta", "--nu-max", "inf"),
        ("--check", "theta", "--nu-max", "nan"),
        ("--check", "mertens", "--nu-max", "nan"),
    ],
)
def test_audit_bad_range_names_flag(capsys, argv):
    code, _, err = run_cli(capsys, "audit", *argv)
    assert code == 2 and f"error: {argv[-2]} must be" in err


def test_audit_window_scan(capsys, tmp_path):
    p = tmp_path / "windows.csv"
    code, out, _ = run_cli(
        capsys,
        "audit", "--check", "window", "--m1-max", "50", "--k1", "3:6",
        "--out", str(p),
    )
    assert code == 0
    _, result = parse_doc(out)
    assert result["windows"] == 50 * 4
    assert result["explicit_abc_failures"] == []
    rows = p.read_text().strip().split("\n")
    assert rows[1] == "m1,k1,j1,j2,d,a,b,c,radical_abc,quality,explicit_ok"
    assert len(rows) == 2 + 200


def test_audit_window_scan_at_scale(capsys):
    # 4.8M windows; the expected maximum was recorded from the per-window
    # Python walk in tests/oracles.py over the same range
    code, out, _ = run_cli(capsys, "audit", "--check", "window", "--m1-max", "100000", "--k1", "3:50")
    assert code == 0
    _, result = parse_doc(out)
    assert result["windows"] == 4_800_000
    assert result["explicit_abc_failures"] == []
    assert result["max_quality"] == 1.567887264400461
    assert result["max_quality_at"] == [4353, 23]


def test_sieve_ceiling_is_a_resource_guard(capsys, monkeypatch, tmp_path):
    # abc --m1 no longer sieves (test_abc_far_above_the_sieve); the window
    # scan's radical table still meets the ceiling
    argv = ("audit", "--check", "window", "--m1-max", str(3 * 10**8), "--k1", "3:50")
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.strip() == "resource guard: sieve limit 300000050 exceeds ceiling 200000000"
    monkeypatch.setattr(factorint, "SIEVE_CEILING", 1000)
    path = tmp_path / "windows.csv"
    argv = ("audit", "--check", "window", "--m1-max", "2000", "--k1", "3:5", "--out", str(path))
    code, _, err = run_cli(capsys, *argv)
    assert code == 3 and not path.exists()  # refused before --out is opened
    assert err.strip() == "resource guard: sieve limit 2005 exceeds ceiling 1000"


def test_stirling_n_max_above_the_ceiling_is_a_resource_guard(capsys, monkeypatch):
    # refused before its columns are allocated, like theta at the same bound
    monkeypatch.setattr(factorint, "SIEVE_CEILING", 1000)
    code, out, err = run_cli(capsys, "audit", "--check", "stirling", "--n-max", "1001")
    assert code == 3 and out == ""
    assert err.strip() == "resource guard: sieve limit 1001 exceeds ceiling 1000"
    code, out, _ = run_cli(capsys, "audit", "--check", "stirling", "--n-max", "1000")
    assert code == 0 and parse_doc(out)[1]["checked"] == 999


# ---------------------------------------------------------------- abc

def test_abc_report(capsys):
    code, out, _ = run_cli(capsys, "abc", "--m1", "8", "--k1", "3")
    assert code == 0
    _, result = parse_doc(out)
    assert (result["a"], result["b"], result["c"]) == (8, 1, 9)
    assert result["quality"] == pytest.approx(1.226294385530917)


def test_abc_k1_too_small_exit_2(capsys):
    code, _, _ = run_cli(capsys, "abc", "--m1", "15", "--k1", "2")
    assert code == 2


def test_abc_2_4(capsys):
    code, out, _ = run_cli(capsys, "abc", "--m1", "2", "--k1", "4")
    assert code == 0
    _, result = parse_doc(out)
    assert (result["a"], result["b"], result["c"]) == (1, 1, 2)
    assert result["quality"] == pytest.approx(1.0)


def test_abc_far_above_the_sieve(capsys):
    # near 10^16 the terms are factored without a sieve to 10^8; past 2^63
    # the window still reports, and past the Miller-Rabin bound it is refused
    code, out, _ = run_cli(capsys, "abc", "--m1", str(10**16), "--k1", "20")
    assert code == 0
    _, result = parse_doc(out)
    assert (result["j1"], result["j2"], result["c"]) == (0, 17, 10**16 + 17)
    for m1 in (10**18, 10**20):
        code, out, _ = run_cli(capsys, "abc", "--m1", str(m1), "--k1", "5")
        assert code == 0 and parse_doc(out)[1]["m1"] == m1
    code, _, err = run_cli(capsys, "abc", "--m1", str(10**25), "--k1", "5")
    assert code == 2
    assert err.strip() == "error: --m1 must be <= 3317044064679887385961976, got 10000000000000000000000000"
