"""In-memory span tracer for the traced benchmark run.

Spans are recorded only at coarse public boundaries: the names that
``factprod.cli``, ``factprod.search``, ``factprod.density`` and
``factprod.audit`` import from the layer below.  Per-node calls inside the
census descent (``factorial_expvec``) are deliberately not wrapped: that
would time the wrapper, not the search.

Each span records (id, name, start, end, parent id, op id, count).  The op id
is shared by every span of one benchmark op, the count carries the amount of
work a call returned (records, windows, findings, samples).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # A pool thread has no stack of its own: its calls belong to the span
        # the main thread is blocked in while it waits for the pool.
        return self._main_stack[-1] if self._main_stack else None

    @contextmanager
    def span(self, name: str):
        """Record one span; yields a one-element list the caller may set to
        the amount of work done."""
        stack = self._stack()
        parent = self._parent(stack)
        with self._lock:
            sid = next(self._ids)
        count = [0]
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield count
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.op_id, count[0]))

    def wrap(self, fn, name, count=None):
        """Traced version of fn.  ``name`` may be a callable of the call's
        arguments; ``count`` maps the return value to a work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as n:
                result = fn(*args, **kwargs)
                if count is not None:
                    n[0] = count(result)
                return result

        return traced

    def wrap_iter(self, fn, name, chunk=4096):
        """Traced version of a generator function.  Items are pulled in
        chunks inside one span each, so the span covers the producer only and
        the consumer loop stays outside it, at a cost of one span per chunk."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                with self.span(name) as n:
                    block = list(itertools.islice(it, chunk))
                    n[0] = len(block)
                if not block:
                    return
                yield from block

        return traced

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch_all(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def write_spans(path, spans: list[Span], op_names: dict[int, str]) -> None:
    """One JSON object per span, with the name of the op it belongs to."""
    with open(path, "w") as fh:
        for s in spans:
            row = {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                   "parent": s.parent, "op": s.op, "op_name": op_names.get(s.op), "count": s.count}
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public boundaries of every factprod module."""
    from factprod import audit, cli, density, search

    cli_names = {
        "search_factorial_products": ("search.search_factorial_products", len),
        "census_report": ("search.census_report", None),
        "mc_density": ("density.mc_density", lambda est: est.samples),
        "quadrature_density": (lambda spec, *a, **k: f"density.quadrature_s{spec.s}", None),
        "audit_theta": ("audit.audit_theta", len),
        "audit_mertens": ("audit.audit_mertens", len),
        "audit_stirling_lower": ("audit.audit_stirling_lower", len),
        "audit_erdos_pdelta": ("audit.audit_erdos_pdelta", lambda r: len(r.findings)),
    }
    for attr, (name, count) in cli_names.items():
        tracer.patch(cli, attr, tracer.wrap(getattr(cli, attr), name, count))
    tracer.patch(cli, "abc_scan", tracer.wrap_iter(cli.abc_scan, "audit.abc_scan"))
    tracer.patch(cli, "main", tracer.wrap(cli.main, "cli.main"))

    for attr in ("verify", "default_pairing", "to_delta_form"):
        tracer.patch(search, attr, tracer.wrap(getattr(search, attr), f"equations.{attr}"))
    tracer.patch(density, "sample_block", tracer.wrap(density.sample_block, "density.sample_block"))
    for attr in ("radical_table", "lpf_table"):
        tracer.patch(audit, attr, tracer.wrap(getattr(audit, attr), f"factorint.{attr}"))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children on pool threads may overlap each other; their union is what the
    parent did not spend itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end) for s in spans
    }
