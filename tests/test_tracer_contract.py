"""The traced benchmark wraps named entry points of factprod; each must still
exist and be called by the command that the benchmark traces through it."""

import importlib.util
import sys
from pathlib import Path

from factprod import cli

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# one tiny command per traced entry point, and the spans it must record
TRACED = [
    (
        ["search", "--n1-max", "10", "--t-max", "4", "--s-max", "2", "--workers", "1"],
        # the census builds no delta form or SolutionRecord: default_pairing,
        # to_delta_form and verify run only when CensusResult.records is read
        {"search.search_factorial_products", "search.census_report"},
    ),
    (
        ["audit", "--check", "erdos", "--x", "2:50", "--k", "10:20"],
        {"audit.audit_erdos_pdelta", "factorint.lpf_table"},
    ),
    (["audit", "--check", "theta", "--nu-max", "100"], {"audit.audit_theta"}),
    (["audit", "--check", "mertens", "--nu-max", "100"], {"audit.audit_mertens"}),
    (["audit", "--check", "stirling", "--n-max", "50"], {"audit.audit_stirling_lower"}),
    (
        ["audit", "--check", "window", "--m1-max", "50", "--k1", "3:5"],
        {"audit.abc_scan", "factorint.radical_table"},
    ),
    (
        ["density", "--t", "3", "--s", "2", "--c", "1", "--samples", "1000", "--workers", "1"],
        {"density.mc_density", "density.sample_block", "density.quadrature_s2"},
    ),
]


def _spans_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_record_their_spans(capsys, monkeypatch):
    sp = _spans_module(monkeypatch)
    tracer = sp.Tracer()
    missing = {}
    sp.install(tracer)
    try:
        for argv, want in TRACED:
            start = len(tracer.spans)
            assert cli.main(argv) == 0, argv  # the traced cli.main
            lost = (want | {"cli.main"}) - {s.name for s in tracer.spans[start:]}
            if lost:
                missing[" ".join(argv[:3])] = sorted(lost)
    finally:
        tracer.unpatch_all()
    capsys.readouterr()
    assert missing == {}
    assert not hasattr(cli.main, "__wrapped__")  # unpatched
