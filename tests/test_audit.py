import json
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprod import audit
from factprod.cli import main
from factprod.audit import (
    ERDOS_COEFF,
    THETA_COEFF,
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
from factprod.equations import DeltaForm, FactorialEquation, Pairing, to_delta_form
from factprod.factorint import delta, radical, table

from oracles import abc_scan_rows, abc_window_row, erdos_pdelta_reference, factor_literal


def _block_rows(blocks, *names):
    """The named columns of every AbcBlock, row by row, as Python values."""
    for block in blocks:
        yield from zip(*(getattr(block, name).tolist() for name in names))


# ---------------------------------------------------------------- theta / mertens

def test_audit_theta_small():
    th = audit_theta(10)
    assert th.points.tolist() == [2, 3, 5, 7]
    assert th.ok.all()
    assert th.lhs[-1] == pytest.approx(math.log(210), abs=1e-12)
    assert th.rhs[-1] == pytest.approx(7 * THETA_COEFF)


def test_audit_theta_empty_below_two():
    th = audit_theta(1.5)
    assert len(th) == 0 and th.findings() == []
    assert th.violations == 0 and th.min_margin is None


def test_audit_mertens_small():
    me = audit_mertens(10)
    assert me.points.tolist() == [2, 3, 5, 7, 10.0]
    assert me.ok.all()
    assert me.lhs[0] == pytest.approx(math.log(2) / 2)
    assert me.rhs[0] == pytest.approx(math.log(2))
    assert me.lhs[-1] == pytest.approx(1.312652433140255, abs=1e-12)
    assert me.rhs[-1] == pytest.approx(math.log(10))


def test_theta_mertens_no_violations_to_1e4():
    assert audit_theta(10_000).ok.all()
    assert audit_mertens(10_000).ok.all()


def test_kahan_accumulation_matches_fsum():
    th = audit_theta(10_000)
    exact = math.fsum(math.log(p) for p in th.points.tolist())
    assert th.lhs[-1] == pytest.approx(exact, abs=1e-9)


def test_prefix_findings_are_the_columns():
    me = audit_mertens(1000.5)
    rows = me.findings()
    assert len(rows) == len(me) and me.violations == 0
    assert [f.parameters["nu"] for f in rows] == me.points.tolist()
    assert type(rows[0].parameters["nu"]) is int and rows[-1].parameters["nu"] == 1000.5
    assert [(f.lhs_value, f.rhs_value, f.ok, f.margin) for f in rows] == list(
        zip(me.lhs.tolist(), me.rhs.tolist(), me.ok.tolist(), me.margin.tolist())
    )
    assert me.min_margin == min(f.margin for f in rows)
    assert me.findings(violations_only=True) == []


# ---------------------------------------------------------------- prefix summaries

PREFIX_AUDITS = {"theta": audit_theta, "mertens": audit_mertens, "stirling": audit_stirling_lower}


def _run_prefix(name, x):
    return PREFIX_AUDITS[name](int(x) if name == "stirling" else x)


def _from_columns(res):
    """violations and min_margin recomputed from the full Kahan columns."""
    return len(res) - int(np.count_nonzero(res.ok)), float(res.margin.min())


def _decided_prefixes(mp):
    """The m of every build(m) the prefix audits run, the decision's first."""
    calls = []
    decide = audit._prefix_audit

    def spy(check_id, param, build, *estimates):
        def counted(m):
            calls.append(m)
            return build(m)

        return decide(check_id, param, counted, *estimates)

    mp.setattr(audit, "_prefix_audit", spy)
    return calls


prefix_names = st.sampled_from(sorted(PREFIX_AUDITS))
prefix_points = st.one_of(
    st.integers(min_value=2, max_value=30000), st.floats(min_value=2, max_value=30000)
)


@settings(max_examples=60, deadline=None)
@given(prefix_names, prefix_points)
def test_prefix_summary_equals_the_full_columns(name, x):
    # a float nu above its last prime adds the Mertens float end point
    res = _run_prefix(name, x)
    assert (res.violations, res.min_margin) == _from_columns(res)


@settings(max_examples=40, deadline=None)
@given(prefix_names, prefix_points, st.floats(min_value=0, max_value=1))
def test_prefix_summary_decided_exactly_inside_the_band(name, x, where):
    # SLACK = -margin of point i puts point i on the boundary, inside any
    # band: the exact fallback must run through it
    margins = _run_prefix(name, x).margin
    i = int(where * (len(margins) - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(audit, "SLACK", -float(margins[i]))
        calls = _decided_prefixes(mp)
        res = _run_prefix(name, x)
        assert calls[0] > i
        assert (res.violations, res.min_margin) == _from_columns(res)


@pytest.mark.parametrize("coeff", [0.97, 0.99, 0.995])
def test_theta_violations_decided_over_many_points(monkeypatch, coeff):
    # below 1 the coefficient makes theta(nu) cross it: the band is decided
    # exactly up to the last crossing, thousands of points in
    monkeypatch.setattr(audit, "THETA_COEFF", coeff)
    calls = _decided_prefixes(monkeypatch)
    res = audit_theta(30000)
    assert calls[0] > 2000 and res.violations > 0
    assert (res.violations, res.min_margin) == _from_columns(res)


def test_mertens_float_end_point_in_the_exact_prefix(monkeypatch):
    # one ulp above 2 the end point's margin is within the band of the
    # least margin, at p = 2: the exact prefix must include the end point
    nu = math.nextafter(2.0, 3.0)
    calls = _decided_prefixes(monkeypatch)
    res = audit_mertens(nu)
    assert res.points.tolist() == [2, nu] and calls[0] == 2
    assert (res.violations, res.min_margin) == _from_columns(res)


def test_mertens_minimum_at_the_float_end_point(monkeypatch):
    # log is increasing, so the end point never holds the least margin on
    # its own; a math.log that lowers log(nu_max) alone puts it there
    nu = 1000.5

    def log(v):
        return math.log(v) - (1.0 if v == nu else 0.0)

    monkeypatch.setattr(audit, "math", types.SimpleNamespace(log=log))
    calls = _decided_prefixes(monkeypatch)
    res = audit_mertens(nu)
    assert int(res.margin.argmin()) == len(res) - 1 and calls[0] == len(res)
    assert (res.violations, res.min_margin) == _from_columns(res)


@pytest.mark.parametrize("name,x", [("theta", 30000), ("mertens", 30000.5), ("stirling", 3000)])
def test_prefix_summary_is_the_same_in_any_chunking(monkeypatch, name, x):
    # the estimates run in chunks of _CHUNK points with the running sums
    # carried across: small odd chunks must decide exactly as one chunk
    whole = _run_prefix(name, x)
    monkeypatch.setattr(audit, "_CHUNK", 7)
    res = _run_prefix(name, x)
    assert (res.violations, res.min_margin) == (whole.violations, whole.min_margin)
    assert (res.violations, res.min_margin) == _from_columns(res)


def test_chunked_running_sums_are_the_whole_cumsum():
    x = np.log(table(10**5).primes_upto(10**5).astype(np.float64))
    sums = np.zeros(1)
    chunks = []
    for lo in range(0, len(x), 1000):
        sums = audit._cumsum(x[lo : lo + 1000], sums[-1])
        chunks.append(sums)
    assert np.concatenate(chunks).tobytes() == np.cumsum(x).tobytes()


@pytest.mark.parametrize(
    "run",
    [lambda: audit_theta(1e6), lambda: audit_mertens(1e6), lambda: next(abc_scan(1365, 3, 50))],
    ids=["theta 1e6", "mertens 1e6", "one 65,536-window abc block"],
)
def test_scan_kernels_hold_no_full_length_temporaries(run):
    # numpy reports its buffers to tracemalloc: one float64 per prime to
    # 10^6 is 628 KB, and one int64 per window of a block 512 KB
    run()  # builds the shared prime table outside the trace
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_np_log_stays_inside_the_prefilter_band():
    # the prefix audits estimate their math.log columns by np.log within
    # _LOG_BAND; a libm or numpy build outside it must fail here, not decide
    for xs in (table(10**6 + 1).primes_upto(10**6), np.arange(2, 10**4 + 1)):
        est = np.log(xs.astype(np.float64))
        assert (np.abs(est - audit._log(xs)) <= audit._LOG_BAND * est).all()


# ---------------------------------------------------------------- stirling

def test_audit_stirling_examples():
    st = audit_stirling_lower(10)
    by_a = dict(zip(st.points.tolist(), zip(st.lhs.tolist(), st.rhs.tolist())))
    assert by_a[2][0] == pytest.approx(2 * math.log(2) - 2)
    assert by_a[2][1] == pytest.approx(math.log(2))
    assert by_a[10][0] == pytest.approx(10 * math.log(10) - 10)
    assert by_a[10][1] == pytest.approx(math.log(math.factorial(10)), abs=1e-9)
    assert st.ok.all()


def test_audit_stirling_scan():
    assert audit_stirling_lower(2000).ok.all()


# ---------------------------------------------------------------- solution window

def _df(literal, pairing=(1,)):
    eq = FactorialEquation.parse(literal)
    return to_delta_form(eq, Pairing(pairing))


def test_window_14_5_2():
    findings = audit_solution_window(_df("14,5,2=16"))
    assert all(f.ok for f in findings)
    st = [f for f in findings if f.check_id == "window_stirling_bound"][0]
    assert st.lhs_value == pytest.approx(5 * math.log(5) - 5)
    assert st.rhs_value == pytest.approx(2 * math.log(30))


def test_window_7_6():
    findings = audit_solution_window(_df("7,6=10"))
    comps = [f for f in findings if f.check_id == "window_term_composite"]
    assert [f.parameters["term"] for f in comps] == [8, 9, 10]
    assert all(f.ok for f in findings)


def test_window_synthetic_prime_flags_not_ok():
    # 2*3*4 = 24 = 4! balances, but the window [2,4] contains primes:
    # the not-ok findings signal the input was not a genuine solution.
    df = DeltaForm(((2, 3),), (4,))
    findings = audit_solution_window(df)
    bad = [f for f in findings if not f.ok]
    assert bad
    prime_terms = {
        f.parameters["term"] for f in bad if f.check_id == "window_term_composite"
    }
    assert prime_terms == {2, 3}
    # the m1 >= k1 property fails too on this fabricated window (2 < 3)
    assert any(f.check_id == "window_m1_ge_k1" for f in bad)


def test_window_rejects_k1_one_and_unbalanced():
    with pytest.raises(ValueError):
        audit_solution_window(_df("23,4=24"))  # k1 = 1
    with pytest.raises(ValueError):
        audit_solution_window(DeltaForm(((15, 2),), (5, 3)))  # does not balance


# ---------------------------------------------------------------- erdos scan

def test_erdos_window_114_13():
    res = audit_erdos_pdelta((114, 114), (13, 13))
    assert len(res.findings) == 1
    f = res.findings[0]
    # independent route: factor the literal window product
    _, vec = delta(114, 13)
    assert f.parameters["p_max"] == vec.max_prime() == 61
    assert f.rhs_value >= 7
    assert res.min_ratio == pytest.approx(61 / (ERDOS_COEFF * 13 * math.log(13)))
    assert res.min_at == (114, 13)


def test_erdos_findings_are_built_once():
    res = audit_erdos_pdelta((2, 600), (5, 40))
    assert len(res.findings) == len(res) > 0
    assert res.findings is res.findings


def test_erdos_skips_windows_with_primes():
    # 113 is prime, so no window starting at 112 with k >= 2 is eligible
    res = audit_erdos_pdelta((112, 112), (2, 13))
    assert res.findings == ()


def test_erdos_scan_deterministic():
    a = audit_erdos_pdelta((2, 600), (5, 40))
    b = audit_erdos_pdelta((2, 600), (5, 40))
    assert a == b
    assert a.min_ratio is not None
    c = audit_erdos_pdelta((2, 602), (5, 40))  # 602..606 adds one window
    assert (len(c), c.min_ratio, c.min_at) == (len(a) + 1, a.min_ratio, a.min_at)
    assert a != c  # equality reads the columns


def test_erdos_k2_pair_context():
    # consecutive-composite pairs, e.g. 8*9: P = 3 vs (2/7)*2*log 2
    res = audit_erdos_pdelta((8, 9), (2, 2))
    assert [f.parameters["x"] for f in res.findings] == [8, 9]
    f8 = res.findings[0]
    assert f8.rhs_value == 3.0  # P(8*9) = 3
    assert f8.lhs_value == pytest.approx(ERDOS_COEFF * 2 * math.log(2))


def test_erdos_eligibility_is_all_composite():
    res = audit_erdos_pdelta((2, 200), (3, 30))
    for f in res.findings:
        x, k = f.parameters["x"], f.parameters["k"]
        for term in range(x, x + k):
            assert factor_literal(term).get(term) is None  # term is composite


ERDOS_SHAPES = [
    # (x_range, k_range, _BLOCK_WINDOWS or None for the default)
    ((2, 3000), (2, 40), None),  # k_lo = 2
    ((1330, 1340), (5, 12), None),  # inside the gap 1328..1360: runs cut by the limit
    ((114, 114), (2, 13), None),  # a single x
    ((120, 120), (2, 30), None),  # a single x whose run ends at a prime
    ((113, 113), (2, 5), None),  # primes only: no eligible window
    ((2, 3), (2, 5), None),
    ((2, 2000), (5, 40), 1),  # one x per block
    ((2, 2000), (5, 40), 50),  # blocks smaller than one row's cells
    ((2, 5000), (10, 200), 300),  # block edges across many blocks
    ((2, 600), (2, 2), 7),
    ((9, 100), (2, 2), 2),  # P = 5 at x = 9, 15, 24, 80, one x per block: the first wins
]


@pytest.mark.parametrize(
    "x_range,k_range,block_windows", ERDOS_SHAPES, ids=[f"{x}-{k}-{b}" for x, k, b in ERDOS_SHAPES]
)
def test_erdos_scan_matches_python_walk(monkeypatch, x_range, k_range, block_windows):
    if block_windows is not None:
        monkeypatch.setattr(audit, "_BLOCK_WINDOWS", block_windows)
    res = audit_erdos_pdelta(x_range, k_range)
    findings, min_ratio, min_at = erdos_pdelta_reference(x_range, k_range)
    assert len(res) == len(findings)
    assert (res.min_ratio, res.min_at) == (min_ratio, min_at)
    assert res.findings == tuple(findings)
    assert findings_csv(res.findings) == findings_csv(findings)


def test_erdos_scan_to_1e5_pinned():
    # the oracle takes seconds here; these values are the walk's
    res = audit_erdos_pdelta((2, 100000), (10, 200))
    assert len(res) == 246693
    assert res.min_ratio == 6.4028854508575614
    assert res.min_at == (114, 13)


# ---------------------------------------------------------------- abc window

def test_abc_8_3_example():
    rep = abc_window_report(8, 3)
    assert (rep.j1, rep.j2) == (0, 1)
    assert (rep.a, rep.b, rep.c, rep.d) == (8, 1, 9, 1)
    assert rep.radical_abc == 6
    assert rep.quality == pytest.approx(math.log(9) / math.log(6))
    assert rep.explicit_ok  # 9 < 6^(7/4) ~ 23.0


def test_abc_2_4_example():
    rep = abc_window_report(2, 4)
    # radicals 2,3,2,5 -> offsets 0 and 2; terms 2 and 4, d = 2 -> 1 + 1 = 2
    assert (rep.j1, rep.j2) == (0, 2)
    assert (rep.a, rep.b, rep.c, rep.d) == (1, 1, 2, 2)
    assert rep.radical_abc == 2
    assert rep.quality == pytest.approx(1.0)


def test_abc_rejects_small_k1():
    with pytest.raises(ValueError):
        abc_window_report(15, 2)


def test_abc_structural_invariants_exhaustive_small():
    rows = _block_rows(abc_scan(200, 3, 12), "a", "b", "c", "radical_abc", "explicit_ok")
    for a, b, c, radical_abc, explicit_ok in rows:
        assert a + b == c
        assert math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1
        # radical product law vs independent factorization of the literal product
        lit = factor_literal(a * b * c)
        assert radical_abc == math.prod(lit.keys())
        assert explicit_ok == (c**4 < radical_abc**7)


def test_abc_selection_minimality():
    for m1, k1 in ((8, 3), (2, 4), (100, 20), (1, 5)):
        rep = abc_window_report(m1, k1)
        rads = [radical(m1 + i) for i in range(k1)]
        chosen = sorted([rads[rep.j1], rads[rep.j2]])
        assert chosen == sorted(rads)[:2]


def test_abc_scan_agrees_with_single_reports():
    singles = [abc_window_report(m1, k1) for m1 in range(1, 30) for k1 in (3, 4, 5)]
    scanned = _block_rows(abc_scan(29, 3, 5), "m1", "k1", "a", "b", "c")
    assert {(m1, k1): (a, b, c) for m1, k1, a, b, c in scanned} == {
        (r.m1, r.k1): (r.a, r.b, r.c) for r in singles
    }


def test_abc_window_report_builds_no_radical_table(monkeypatch):
    def no_table(limit):
        raise AssertionError(f"radical_table({limit}) built for one window")

    monkeypatch.setattr(audit, "radical_table", no_table)
    rep = abc_window_report(10**7, 20)
    # N(10^7) = 10 and N(10^7 + 17) = 370371 are the two smallest radicals
    assert (rep.j1, rep.j2, rep.d) == (0, 17, 1)
    assert (rep.a, rep.b, rep.c) == (10**7, 17, 10**7 + 17)
    assert rep.radical_abc == 62963070
    assert rep.explicit_ok


def test_abc_window_report_factors_each_term_once(monkeypatch):
    factored = []
    factor = audit.radical

    def counting_radical(n):
        factored.append(n)
        return factor(n)

    monkeypatch.setattr(audit, "radical", counting_radical)
    rep = abc_window_report(10**7, 20, a2=5)
    # d = 1, so a and c are window terms: only b is factored besides the window
    assert rep.d == 1
    assert sorted(factored) == sorted([*range(10**7, 10**7 + 20), rep.b])


def test_reyssat_triple_is_pinned():
    """Reyssat's 2 + 3^10 * 109 = 23^5, the abc triple of highest known
    quality, 1.62991..., is the smallest-radical triple of the window
    [6436340, 6436344)."""
    rep = abc_window_report(6436340, 4)
    assert (rep.a, rep.b, rep.c, rep.d) == (3**10 * 109, 2, 23**5, 1)
    assert rep.radical_abc == 2 * 3 * 23 * 109
    assert rep.quality == pytest.approx(math.log(23**5) / math.log(15042), rel=1e-12)
    assert rep.quality == pytest.approx(1.6299116841, abs=1e-10)
    assert rep.explicit_ok


def test_abc_window_bound_and_ineq4():
    rep = abc_window_report(8, 3, a2=6)
    # product of window radicals: N(8)N(9)N(10) = 2*3*10 = 60
    assert rep.window_bound is not None
    assert rep.window_bound.lhs_value == pytest.approx(math.log(60), abs=1e-12)
    assert rep.window_bound.rhs_value == pytest.approx(THETA_COEFF * 6 + 3 * math.log(3))
    assert rep.window_bound.ok
    assert rep.ineq4 is not None and rep.ineq4.ok
    with pytest.raises(ValueError):
        abc_window_report(8, 3, a2=1)


ABC_SHAPES = [
    # ((m1_max, k1_min, k1_max), windows per block or None for the default)
    ((3000, 3, 50), None),  # crosses two block boundaries
    ((1500, 7, 12), 1000),  # 166 rows per block
    ((1000, 3, 50), None),  # below one block
    ((60, 9, 9), 1),  # k1_min == k1_max, one row per block
    ((2000, 7, 30), None),
]


@pytest.mark.parametrize("shape,block_windows", ABC_SHAPES, ids=[str(s) for s, _ in ABC_SHAPES])
def test_abc_scan_matches_python_walk(monkeypatch, shape, block_windows):
    if block_windows is not None:
        monkeypatch.setattr(audit, "_BLOCK_WINDOWS", block_windows)
    scanned = list(_block_rows(abc_scan(*shape), *audit.ABC_COLUMNS))
    expected = abc_scan_rows(*shape)
    assert scanned == expected
    # quality bit for bit, not merely equal as floats
    assert [r[9].hex() for r in scanned] == [r[9].hex() for r in expected]


def test_abc_scan_python_int_products_match_python_walk(monkeypatch):
    # force the radical product onto Python ints, as for windows whose
    # product bound reaches 2^63
    monkeypatch.setattr(audit, "_INT64_BOUND", 0)
    blocks = list(abc_scan(300, 3, 30))
    assert all(block.radical_abc.dtype == object for block in blocks)
    assert list(_block_rows(blocks, *audit.ABC_COLUMNS)) == abc_scan_rows(300, 3, 30)


@pytest.mark.parametrize(
    "m1,k1", [(10**12, 5), (8, 3), (100, 20), (10**7, 20), (1, 3), (10**20, 5)]
)
def test_abc_window_report_matches_python_walk(m1, k1):
    rep = abc_window_report(m1, k1)
    assert tuple(getattr(rep, name) for name in audit.ABC_COLUMNS) == abc_window_row(m1, k1)
    assert type(rep.radical_abc) is int and type(rep.explicit_ok) is bool


# the summary shapes add the benchmark-scale scan, too large for the Python walk
SUMMARY_SHAPES = [*ABC_SHAPES, ((100000, 3, 50), None)]


@pytest.mark.parametrize(
    "shape,block_windows", SUMMARY_SHAPES, ids=[str(s) for s, _ in SUMMARY_SHAPES]
)
def test_abc_triple_summary_matches_the_rows(monkeypatch, shape, block_windows):
    if block_windows is not None:
        monkeypatch.setattr(audit, "_BLOCK_WINDOWS", block_windows)
    for block in abc_scan(*shape):
        i = int(block.quality.argmax())
        bad = ~block.explicit_ok
        assert block.max_quality() == (float(block.quality[i]), (int(block.m1[i]), int(block.k1[i])))
        assert block.explicit_failures() == list(zip(block.m1[bad].tolist(), block.k1[bad].tolist()))


def test_abc_quality_estimate_stays_inside_its_band(monkeypatch):
    # max_quality reads np.log estimates within _QUALITY_BAND of the math.log
    # quality; a libm or numpy build outside it must fail here, not decide
    band = audit._QUALITY_BAND
    for block in abc_scan(10**5, 3, 50):
        quality = audit._quality(block.triples["c"], block.triples["radical_abc"])
        assert (np.abs(block._estimate - quality) <= band * quality).all()
    # the Python-int radical products of a single window near 10^12
    decide = audit._abc_decision
    seen = []

    def keep(c, n):
        estimate, ok = decide(c, n)
        seen.append((c, n, estimate))
        return estimate, ok

    monkeypatch.setattr(audit, "_abc_decision", keep)
    for m1 in range(10**12, 10**12 + 30, 3):
        rep = abc_window_report(m1, 12)
        c, n, estimate = seen[-1]
        assert n.dtype == object
        assert abs(float(estimate[0]) - rep.quality) <= band * rep.quality
        assert rep.quality == math.log(int(c[0])) / math.log(int(n[0]))


def test_abc_max_quality_is_exact_when_the_estimate_errs(monkeypatch):
    # an estimate error inside the band, rising along each block, moves the
    # estimated maximum onto the last of the tied triples of (125, 3, 128);
    # the exact quality still gives the first row of the first of them
    decide = audit._abc_decision

    def rising_error(c, n):
        estimate, ok = decide(c, n)
        return estimate * (1 + 0.5 * audit._QUALITY_BAND * np.linspace(0, 1, len(c))), ok

    monkeypatch.setattr(audit, "_abc_decision", rising_error)
    monkeypatch.setattr(audit, "_BLOCK_WINDOWS", 500)
    moved = 0
    for block in abc_scan(300, 3, 30):
        i = int(block.quality.argmax())
        assert block.max_quality() == (float(block.quality[i]), (int(block.m1[i]), int(block.k1[i])))
        moved += int(block.first[block._estimate.argmax()]) != i
    assert moved > 0


def test_abc_explicit_failures_list_every_row_of_their_triples(monkeypatch, capsys):
    decide = audit._abc_decision

    def fail_c_divisible_by_5(c, n):
        estimate, ok = decide(c, n)
        return estimate, ok & (c % 5 != 0)

    monkeypatch.setattr(audit, "_abc_decision", fail_c_divisible_by_5)
    monkeypatch.setattr(audit, "_BLOCK_WINDOWS", 1000)
    blocks = list(abc_scan(300, 3, 30))
    rows = list(_block_rows(blocks, "m1", "k1", "c", "explicit_ok"))
    failed = [(m1, k1) for m1, k1, c, ok in rows if not ok]
    assert failed == [(m1, k1) for m1, k1, c, _ in rows if c % 5 == 0]
    assert sum(len(b.first) for b in blocks) < len(rows)  # triples span many rows
    assert [w for b in blocks for w in b.explicit_failures()] == failed
    assert main(["audit", "--check", "window", "--m1-max", "300", "--k1", "3:30"]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["explicit_abc_failures"] == [
        list(w) for w in failed
    ]


def test_abc_max_quality_tie_goes_to_the_first_row(monkeypatch, capsys):
    # (125, 3, 128) holds the maximum in 525 rows of 34 windows starts, over
    # many blocks: the first row must win
    monkeypatch.setattr(audit, "_BLOCK_WINDOWS", 500)
    rows = list(_block_rows(abc_scan(300, 3, 30), "m1", "k1", "quality"))
    best = max(q for _, _, q in rows)
    tied = [(m1, k1) for m1, k1, q in rows if q == best]
    assert len({m1 for m1, _ in tied}) > 1
    assert main(["audit", "--check", "window", "--m1-max", "300", "--k1", "3:30"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["max_quality"], result["max_quality_at"]) == (best, list(tied[0]))


@pytest.mark.parametrize("width", [2, 3, 4, 5, 8, 9, 16, 17, 64, 65])
def test_smallest_pairs_break_ties_by_the_smaller_offset(width):
    # widths 2^m and 2^m + 1 bracket a change in the offset's bit width, and
    # largest radicals 2^(31 - bits) - 2 and 2^(31 - bits) - 1 the switch
    # from int32 to int64 keys
    bits = (width - 1).bit_length()
    small = np.random.default_rng(width).integers(1, 4, size=100 + width - 1)
    for top, dtype in ((None, np.int32), (-2, np.int32), (-1, np.int64)):
        rad = small if top is None else small + (1 << (31 - bits)) + top - 3
        assert top is None or rad.max() == (1 << (31 - bits)) + top
        assert audit._keys(rad, bits).dtype == dtype
        first, j1, j2 = audit._smallest_pairs(rad, 2, width)
        n_k = width - 1
        run_of_row = np.repeat(np.arange(len(first)), np.diff(first, append=100 * n_k))
        for i in range(100):
            row = rad[i : i + width].tolist()
            for k in range(2, width + 1):
                least, second = sorted((r, j) for j, r in enumerate(row[:k]))[:2]
                t = run_of_row[i * n_k + k - 2]
                assert (j1[t], j2[t]) == (least[1], second[1])


def test_abc_scan_int64_keys_match_python_walk(monkeypatch):
    # one 65,536-window block with its keys forced onto int64, as for
    # radicals too large for int32 keys
    monkeypatch.setattr(audit, "_INT32_BOUND", 0)
    keys = audit._keys
    dtypes = set()

    def spy(rad, bits):
        out = keys(rad, bits)
        dtypes.add(out.dtype)
        return out

    monkeypatch.setattr(audit, "_keys", spy)
    blocks = list(abc_scan(1365, 3, 50))
    assert len(blocks) == 1 and len(blocks[0]) == 65520
    assert dtypes == {np.dtype(np.int64)}
    assert list(_block_rows(blocks, *audit.ABC_COLUMNS)) == abc_scan_rows(1365, 3, 50)


def test_explicit_abc_boundary_decided_on_integers():
    # c = 128, N = 16: c^4 = N^7 = 2^28, so c < N^(7/4) fails exactly at equality
    assert abs(7 * math.log(16) - 4 * math.log(128)) <= audit._EXACT_BAND * 7 * math.log(16)
    _, ok = audit._abc_decision(np.array([128]), np.array([16]))
    assert ok.tolist() == [False]
    # c and c + 1 round to the same float, so only integers can tell them apart
    n = 6 * 10**10
    c = math.isqrt(math.isqrt(n**7))
    assert c**4 < n**7 < (c + 1) ** 4 and float(c) == float(c + 1)
    for dtype in (np.int64, object):
        _, ok = audit._abc_decision(np.array([c, c + 1], dtype=dtype), np.array([n, n], dtype=dtype))
        assert ok.tolist() == [True, False]


# ---------------------------------------------------------------- proof chain

def test_proof_chain_14_5_2():
    findings = audit_proof_chain(_df("14,5,2=16"), c=1)
    ids = [f.check_id for f in findings]
    assert "chain_ineq4" in ids and "chain_branch" in ids and "chain_ineq6_ratio" in ids
    branch = [f for f in findings if f.check_id == "chain_branch"][0]
    assert branch.parameters["branch"] == "single-block"
    ineq4 = [f for f in findings if f.check_id == "chain_ineq4"][0]
    assert ineq4.lhs_value == pytest.approx(2 * math.log(15))
    assert ineq4.ok


def test_proof_chain_synthetic():
    df = DeltaForm(((100, 10),), (40, 12))
    findings = audit_proof_chain(df, c=1, kappa=5)
    ineq5 = [f for f in findings if f.check_id == "chain_ineq5"][0]
    assert ineq5.lhs_value == pytest.approx(ERDOS_COEFF * 10 * math.log(10))  # ~6.58
    assert ineq5.rhs_value == 40.0
    assert ineq5.ok


def test_proof_chain_kappa_gates_ineq5():
    df = DeltaForm(((100, 10),), (40,))
    with_k = audit_proof_chain(df, c=1, kappa=10)
    without = audit_proof_chain(df, c=1, kappa=11)
    assert any(f.check_id == "chain_ineq5" for f in with_k)
    assert not any(f.check_id == "chain_ineq5" for f in without)


def test_proof_chain_branch_two_blocks():
    eq = FactorialEquation((7, 7, 6, 6), (10, 10))
    findings = audit_proof_chain(to_delta_form(eq, Pairing((1, 2))), c=1)
    branch = [f for f in findings if f.check_id == "chain_branch"][0]
    assert branch.parameters["branch"] == "k2<=k1"
    assert branch.ok


def test_proof_chain_rejects():
    with pytest.raises(ValueError):
        audit_proof_chain(_df("23,4=24"), c=1)  # k1 = 1
    with pytest.raises(ValueError):
        audit_proof_chain(DeltaForm(((8, 3),), ()), c=1)  # no leftover


# ---------------------------------------------------------------- CSV export

def test_findings_csv_shape_and_determinism():
    findings = audit_theta(30).findings()
    text = findings_csv(findings)
    lines = text.strip().split("\n")
    assert lines[0] == "check_id,nu,lhs,rhs,margin,ok"
    assert len(lines) == 1 + len(findings)
    assert text == findings_csv(audit_theta(30).findings())
