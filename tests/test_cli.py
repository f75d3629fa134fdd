import json
import re

import pytest

from factprod import factorint
from factprod.cli import main


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


def test_search_guard_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "search", "--n1-max", "1000000000", "--t-max", "4", "--s-max", "1"
    )
    assert code == 3 and "resource guard" in err


def test_search_guard_message_counts_units_and_nodes(capsys):
    code, _, err = run_cli(
        capsys,
        "search", "--n1-max", "16", "--t-max", "5", "--s-max", "2",
        "--workers", "1", "--max-nodes", "2000",
    )
    assert code == 3
    assert re.search(r"\(\d+ of \d+ units completed, \d+ nodes\)", err), err


@pytest.mark.parametrize("workers, needle", [("0", "--workers"), ("-3", "--workers")])
def test_search_rejects_nonpositive_workers(capsys, workers, needle):
    code, out, err = run_cli(
        capsys, "search", "--n1-max", "8", "--t-max", "4", "--s-max", "1", "--workers", workers
    )
    assert code == 2 and out == ""
    assert needle in err


def test_search_rejects_malformed_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("FACTPROD_WORKERS", "abc")
    code, out, err = run_cli(capsys, "search", "--n1-max", "8", "--t-max", "4", "--s-max", "1")
    assert code == 2 and out == ""
    assert "FACTPROD_WORKERS" in err and "abc" in err


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


def test_density_rejects_before_estimating(capsys, monkeypatch):
    def estimate_ran(*args, **kwargs):
        raise AssertionError("an estimate ran on rejected input")

    monkeypatch.setattr("factprod.cli.mc_density", estimate_ran)
    code, _, err = run_cli(capsys, "density", "--t", "4", "--s", "3", "--c", "1")
    assert code == 2 and "dimension guard" in err
    monkeypatch.setattr("factprod.cli.quadrature_density", estimate_ran)
    code, _, err = run_cli(
        capsys, "density", "--t", "3", "--s", "2", "--c", "1", "--samples", "0"
    )
    assert code == 2 and "--samples" in err
    code, _, err = run_cli(
        capsys, "density", "--t", "3", "--s", "2", "--c", "1", "--resolution", "0"
    )
    assert code == 2 and "resolution" in err


@pytest.mark.parametrize(
    "s,resolution,cells",
    [("3", "100000", 10**10), ("2", "1000000", 64 * 10**12), ("1", "1000000", 8 * 10**6)],
)
def test_density_quadrature_budget_is_a_resource_guard(capsys, monkeypatch, s, resolution, cells):
    import numpy as np

    def allocated(*args, **kwargs):
        raise AssertionError("an array was allocated past the quadrature guard")

    for name in ("empty", "zeros", "ones", "arange", "linspace", "full"):
        monkeypatch.setattr(np, name, allocated)
    monkeypatch.setattr("factprod.cli.mc_density", allocated)
    code, _, err = run_cli(
        capsys, "density", "--t", "3", "--s", s, "--c", "1",
        "--samples", "1", "--resolution", resolution,
    )
    assert code == 3
    assert err.strip() == (
        f"resource guard: quadrature resolution {resolution} needs {cells} cells "
        "per array, above the budget of 4194304"
    )


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


def test_sieve_ceiling_is_a_resource_guard(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "abc", "--m1", str(10**18), "--k1", "20")
    assert code == 3
    assert err.strip() == "resource guard: sieve limit 1000000000 exceeds ceiling 200000000"
    monkeypatch.setattr(factorint, "SIEVE_CEILING", 1000)
    code, _, err = run_cli(capsys, "audit", "--check", "window", "--m1-max", "2000", "--k1", "3:5")
    assert code == 3
    assert err.strip() == "resource guard: sieve limit 2005 exceeds ceiling 1000"


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
