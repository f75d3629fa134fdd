"""Complete enumeration of factorial-product identities within bounds.

The engine enumerates right-hand multisets, forms the target exponent vector,
and extends the left side depth-first while maintaining the residual.  Three
prunes keep it exact and fast: (a) any negative exponent kills the branch,
(b) the largest outstanding prime p* forces the next entry to be >= p* (only
a! with a >= p* can supply p*), and (c) depth is capped by t_max.  Orientation
(rhs[0] > lhs[0]) is built into the descent bound; disjointness is enforced at
emission so the same engine can optionally report cancelling identities for
diagnostics.

The residual is dense: a list of exponents indexed by prime rank, with
running counts of its negative and of its nonzero entries, so prune (a) and
the zero test are O(1).  One descent level subtracts ub! once and then walks
a = ub, ub-1, ..., p*; since a! = a * (a-1)!, each step only adds back the
exponents of factorize(a) (at most three primes for a <= 100), and the level
ends by adding lo! back.  One node is one value of a tried at one level, and
the node budget is polled every _POLL nodes.

Enumeration is structurally duplicate-free (both sides are generated
non-increasing) and the merged output is sorted on (n1, rhs, lhs), so results
are identical for any worker count.  Work units (one per right-hand side, or
per x vector in the fixed-gap search) fan out over forked processes that
share one node counter.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

from .equations import (
    NONTRIVIAL,
    FactorialEquation,
    SolutionRecord,
    all_pairings,
    default_pairing,
    gap_ratio_ok,
    in_nc,
    to_delta_form,
    verify,
)
from .factorint import factorial_expvec, factorize, table


@dataclass(frozen=True, slots=True)
class SearchSpec:
    """Bounds for the factorial-product census."""

    n1_max: int
    t_max: int
    s_max: int
    c: int | None = None
    nontrivial_only: bool = False

    def __post_init__(self) -> None:
        if self.n1_max < 3:
            raise ValueError("n1_max must be >= 3")
        if self.t_max < 2:
            raise ValueError("t_max must be >= 2")
        if self.s_max < 1:
            raise ValueError("s_max must be >= 1")
        if self.c is not None and self.c < 1:
            raise ValueError("c must be >= 1")


@dataclass(frozen=True, slots=True)
class DeltaSearchSpec:
    """Fixed-gap consecutive-product search: find prod(a_i!) = prod of
    k_j-term consecutive blocks starting at x_j."""

    k_list: tuple[int, ...]
    x_max: int
    t_max: int
    c: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_list", tuple(self.k_list))
        if not self.k_list or any(k < 1 for k in self.k_list):
            raise ValueError("k_list entries must be >= 1")
        if self.x_max < 1:
            raise ValueError("x_max must be >= 1")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.c is not None and self.c < 1:
            raise ValueError("c must be >= 1")

    def ratio_ok(self) -> bool:
        """``gap_ratio_ok`` on k_list; vacuous when c is unset.  The gaps are
        fixed inputs, so this decides the whole run."""
        return self.c is None or gap_ratio_ok(self.k_list, self.c)


@dataclass(frozen=True, slots=True)
class SearchGuards:
    """Resource ceilings; exceeding any of them is an explicit error carrying
    the records from completed work units, never a silent truncation."""

    n1_ceiling: int = 100
    max_nodes: int = 50_000_000
    max_seconds: float | None = None


@dataclass(frozen=True, slots=True)
class DeltaSolution:
    x: tuple[int, ...]
    a: tuple[int, ...]


class ResourceGuardError(RuntimeError):
    """A guard tripped.  ``records`` holds the results of the work units in
    ``completed`` (in unit order), out of ``total_units``; ``nodes`` is the
    number of descent nodes spent."""

    def __init__(
        self, reason: str, records: list, completed=(), total_units: int = 0, nodes: int = 0
    ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.records = records
        self.completed = tuple(completed)
        self.total_units = total_units
        self.nodes = nodes

    @property
    def completed_units(self) -> int:
        return len(self.completed)


class _GuardTrip(Exception):
    pass


class _Budget:
    """Node/time budget polled by the descent in batches.  ``shared`` is a
    multiprocessing integer Value when forked workers draw on one budget."""

    __slots__ = ("max_nodes", "deadline", "nodes", "shared", "reason")

    def __init__(self, guards: SearchGuards, shared=None) -> None:
        self.max_nodes = guards.max_nodes
        self.deadline = (
            time.monotonic() + guards.max_seconds if guards.max_seconds else None
        )
        self.nodes = 0
        self.shared = shared
        self.reason = ""

    def spend(self, n: int) -> None:
        if self.shared is None:
            self.nodes += n
            total = self.nodes
        else:
            with self.shared.get_lock():
                self.shared.value += n
                total = self.shared.value
        # Node counts and the clock only grow, so once one worker trips,
        # every other worker trips at its next poll.
        if total > self.max_nodes:
            self.reason = f"node budget exceeded ({total} > {self.max_nodes})"
        elif self.deadline is not None and time.monotonic() > self.deadline:
            self.reason = "wall-time budget exceeded"
        else:
            return
        raise _GuardTrip()

    def spent(self) -> int:
        return self.nodes if self.shared is None else self.shared.value


_POLL = 2048  # budget poll granularity, in descent nodes


class _Tables:
    """Dense-residual lookup tables, built once per search.

    ``primes`` lists the primes up to ``prime_max`` (the largest factorial in
    any target) by rank; ``step[a]`` and ``fact[a]`` are the (rank, exponent)
    pairs of factorize(a) and of a!, for the entries a <= ``n_max`` the
    descent can place."""

    __slots__ = ("primes", "rank", "step", "fact")

    def __init__(self, n_max: int, prime_max: int) -> None:
        self.primes = [int(p) for p in table(prime_max).primes_upto(prime_max)]
        self.rank = {p: i for i, p in enumerate(self.primes)}
        self.step = [()] * 2 + [self._ranked(factorize(a)) for a in range(2, n_max + 1)]
        self.fact = [self._ranked(factorial_expvec(a).entries) for a in range(n_max + 1)]

    def _ranked(self, entries) -> tuple[tuple[int, int], ...]:
        return tuple((self.rank[p], e) for p, e in entries)

    def add_factorial(self, R: list[int], n: int, sign: int) -> None:
        for p, e in factorial_expvec(n).entries:
            R[self.rank[p]] += sign * e


class _Walk:
    """What one work unit's descent reads but never changes."""

    __slots__ = ("primes", "step", "fact", "t_max", "budget", "emit")

    def __init__(self, tables: _Tables, t_max: int, budget: _Budget, emit) -> None:
        self.primes = tables.primes
        self.step = tables.step
        self.fact = tables.fact
        self.t_max = t_max
        self.budget = budget
        self.emit = emit

    def run(self, R: list[int], ub: int) -> None:
        """Descend from a nonnegative residual; the budget is settled at the
        end, so a unit's nodes are all counted before it completes."""
        nz = sum(1 for v in R if v)
        if nz:
            self.budget.spend(_descend(self, R, nz, len(R) - 1, [], ub, 0))


def _descend(w: _Walk, R, nz, top, lhs, ub, pending) -> int:
    """One level of the descent over a residual with no negative entry and
    ``nz`` nonzero ones, none above rank ``top``.  Leaves R as it found it;
    returns the count of nodes not yet charged to the budget."""
    while not R[top]:
        top -= 1
    lo = w.primes[top]  # p*: only a! with a >= p* supplies it
    if lo > ub:
        return pending
    step = w.step
    budget = w.budget
    deeper = len(lhs) + 1 < w.t_max
    neg = 0
    for r, e in w.fact[ub]:
        v = R[r]
        R[r] = v - e
        if v < e:
            neg += 1
            if not v:
                nz += 1
        elif v == e:
            nz -= 1
    a = ub
    while True:
        pending += 1
        if pending >= _POLL:
            budget.spend(pending)
            pending = 0
        if not neg:
            lhs.append(a)
            if not nz:
                w.emit(tuple(lhs))
            elif deeper:
                pending = _descend(w, R, nz, top, lhs, a, pending)
            lhs.pop()
        if a == lo:
            break
        for r, e in step[a]:  # R - a! becomes R - (a-1)!
            v = R[r]
            R[r] = v + e
            if v < 0:
                if v >= -e:
                    neg -= 1
                    if v == -e:
                        nz -= 1
            elif not v:
                nz += 1
        a -= 1
    for r, e in w.fact[lo]:
        R[r] += e
    return pending


def _rhs_units(spec: SearchSpec) -> list[tuple[int, ...]]:
    units: list[tuple[int, ...]] = []

    def grow(prefix: list[int]) -> None:
        units.append(tuple(prefix))
        if len(prefix) < spec.s_max:
            for v in range(prefix[-1], 1, -1):
                prefix.append(v)
                grow(prefix)
                prefix.pop()

    for n1 in range(3, spec.n1_max + 1):
        grow([n1])
    return units


def _passes_nc(rec: SolutionRecord, c: int) -> bool:
    if rec.classification != NONTRIVIAL:
        return False
    return any(
        gap_ratio_ok([k for _, k in to_delta_form(rec.eq, pairing).blocks], c)
        for pairing in all_pairings(rec.eq)
    )


def _attach_delta_form(rec: SolutionRecord) -> SolutionRecord:
    pairing = default_pairing(rec.eq)
    if pairing is None:
        return rec
    return rec.with_delta_form(to_delta_form(rec.eq, pairing))


def _census_unit(
    rhs: tuple[int, ...],
    spec: SearchSpec,
    tables: _Tables,
    budget: _Budget,
    keep_cancelling: bool,
) -> tuple[list[SolutionRecord], list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The records of one right-hand side, and its cancelling (lhs, rhs)
    pairs when ``keep_cancelling``."""
    records: list[SolutionRecord] = []
    cancelling: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    rhs_set = set(rhs)

    def emit(lhs: tuple[int, ...]) -> None:
        if rhs_set.intersection(lhs):
            if keep_cancelling:
                cancelling.append((lhs, rhs))
            return
        rec = _attach_delta_form(verify(FactorialEquation(lhs, rhs)))
        if spec.nontrivial_only and rec.classification != NONTRIVIAL:
            return
        if spec.c is not None and not _passes_nc(rec, spec.c):
            return
        records.append(rec)

    R = [0] * len(tables.primes)
    for n in rhs:
        tables.add_factorial(R, n, 1)
    _Walk(tables, spec.t_max, budget, emit).run(R, rhs[0] - 1)
    return records, cancelling


def _run_slice(units, indices, work, budget: _Budget) -> tuple[dict, str]:
    """Run the units at ``indices`` in order until the budget trips; returns
    ({index: result} for the completed units, trip reason or "")."""
    done = {}
    for i in indices:
        try:
            done[i] = work(units[i], budget)
        except _GuardTrip:
            return done, budget.reason
    return done, ""


def _forked_slice(conn, units, indices, work, budget: _Budget) -> None:
    try:
        conn.send(("ok", _run_slice(units, indices, work, budget)))
    except Exception:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _run_units(units, work, workers: int, guards: SearchGuards) -> tuple[dict, str, int]:
    """Run independent work units ``work(unit, budget)`` under one node/time
    budget; returns ({index: result} for the completed units, trip reason or
    "", nodes spent).

    With ``workers > 1`` the units are dealt round-robin (unit i to worker
    i mod workers, since unit cost grows with n1) to forked processes that
    share one node counter, so max_nodes stays a global ceiling.  Fork, not
    spawn: the children inherit the search tables and run only the
    pure-Python descent, and a spawned worker would re-import numpy and the
    package on every call.  Without fork the units run in-process.
    """
    workers = min(workers, len(units))
    if workers <= 1:
        budget = _Budget(guards)
        done, reason = _run_slice(units, range(len(units)), work, budget)
        return done, reason, budget.spent()
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return _run_units(units, work, 1, guards)
    budget = _Budget(guards, ctx.Value("q", 0))
    procs = []
    done: dict = {}
    reasons = []
    try:
        for k in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_forked_slice,
                args=(send, units, range(k, len(units), workers), work, budget),
                daemon=True,
            )
            proc.start()
            send.close()
            procs.append((proc, recv))
        for proc, recv in procs:
            try:
                status, payload = recv.recv()
            except EOFError:
                raise RuntimeError("search worker exited without a result") from None
            if status != "ok":
                raise RuntimeError(f"search worker failed:\n{payload}")
            part, reason = payload
            done.update(part)
            if reason:
                reasons.append(reason)
    except BaseException:
        for proc, _ in procs:
            proc.terminate()
        raise
    finally:
        for proc, recv in procs:
            recv.close()
            proc.join()
    return done, (reasons[0] if reasons else ""), budget.spent()


def search_factorial_products(
    spec: SearchSpec,
    *,
    guards: SearchGuards | None = None,
    workers: int = 1,
    cancelling_sink: list | None = None,
) -> list[SolutionRecord]:
    """All identities within the requested bounds, canonically ordered.

    ``cancelling_sink``, when given, is extended with the (lhs, rhs) pairs
    whose sides share an entry, in unit order.  Raises ResourceGuardError
    (with partial results from completed right-hand units) when a guard
    ceiling is exceeded.
    """
    guards = guards or SearchGuards()
    if spec.n1_max > guards.n1_ceiling:
        raise ResourceGuardError(
            f"n1_max = {spec.n1_max} exceeds ceiling {guards.n1_ceiling}", []
        )
    tables = _Tables(spec.n1_max, spec.n1_max)
    keep_cancelling = cancelling_sink is not None
    units = _rhs_units(spec)
    done, reason, nodes = _run_units(
        units,
        lambda rhs, budget: _census_unit(rhs, spec, tables, budget, keep_cancelling),
        workers,
        guards,
    )
    order = sorted(done)
    records = [rec for i in order for rec in done[i][0]]
    records.sort(key=lambda r: (r.eq.rhs[0], r.eq.rhs, r.eq.lhs))
    if keep_cancelling:
        cancelling_sink.extend(pair for i in order for pair in done[i][1])
    if reason:
        raise ResourceGuardError(reason, records, [units[i] for i in order], len(units), nodes)
    return records


def _x_units(spec: DeltaSearchSpec) -> list[tuple[int, ...]]:
    s = len(spec.k_list)
    units: list[tuple[int, ...]] = []

    def grow(prefix: list[int]) -> None:
        if len(prefix) == s:
            units.append(tuple(prefix))
            return
        for v in range(prefix[-1], 0, -1):
            prefix.append(v)
            grow(prefix)
            prefix.pop()

    for x1 in range(3, spec.x_max + 1):
        grow([x1])
    return units


def _delta_unit(
    xs: tuple[int, ...], spec: DeltaSearchSpec, tables: _Tables, budget: _Budget
) -> list[DeltaSolution]:
    R = [0] * len(tables.primes)
    for x, k in zip(xs, spec.k_list):
        tables.add_factorial(R, x + k - 1, 1)
        tables.add_factorial(R, x - 1, -1)
    sols: list[DeltaSolution] = []
    _Walk(tables, spec.t_max, budget, lambda lhs: sols.append(DeltaSolution(xs, lhs))).run(
        R, xs[0] - 1
    )
    return sols


def search_delta(
    spec: DeltaSearchSpec,
    *,
    guards: SearchGuards | None = None,
    workers: int = 1,
) -> list[DeltaSolution]:
    """All solutions of the fixed-gap consecutive-product equation with
    x non-increasing, x1 <= x_max, x1 > a1, t <= t_max."""
    guards = guards or SearchGuards()
    if spec.x_max > guards.n1_ceiling:
        raise ResourceGuardError(
            f"x_max = {spec.x_max} exceeds ceiling {guards.n1_ceiling}", []
        )
    if not spec.ratio_ok():
        return []
    # the largest factorial in any target is x + k - 1 <= x_max + max(k) - 1
    tables = _Tables(spec.x_max, spec.x_max + max(spec.k_list) - 1)
    units = _x_units(spec)
    done, reason, nodes = _run_units(
        units, lambda xs, budget: _delta_unit(xs, spec, tables, budget), workers, guards
    )
    order = sorted(done)
    sols = [s for i in order for s in done[i]]
    sols.sort(key=lambda r: (r.x[0], r.x, r.a))
    if reason:
        raise ResourceGuardError(reason, sols, [units[i] for i in order], len(units), nodes)
    return sols


@dataclass(slots=True)
class CensusSummary:
    total: int
    counts: dict[tuple[int, int, str], int]
    extremal_n1: int | None
    nontrivial: list[str]
    c: int | None = None
    nc_tallies: dict[str, tuple[int, int]] = field(default_factory=dict)

    def csv_rows(self) -> list[str]:
        rows = ["t,s,classification,count"]
        for (t, s, cls), count in sorted(self.counts.items()):
            rows.append(f"{t},{s},{cls},{count}")
        return rows

    def to_json_obj(self) -> dict:
        return {
            "total": self.total,
            "counts": [
                {"t": t, "s": s, "classification": cls, "count": n}
                for (t, s, cls), n in sorted(self.counts.items())
            ],
            "extremal_n1": self.extremal_n1,
            "nontrivial": self.nontrivial,
            "c": self.c,
            "nc_tallies": {
                eq: {"pairings": p, "in_nc": m} for eq, (p, m) in self.nc_tallies.items()
            },
        }


def census_report(records, c: int | None = None) -> CensusSummary:
    """Counts by (t, s, classification), the extremal n1, the nontrivial
    identities, and (when c is given) N(c) membership tallies per pairing."""
    records = list(records)
    counts: dict[tuple[int, int, str], int] = {}
    extremal = None
    nontrivial: list[str] = []
    tallies: dict[str, tuple[int, int]] = {}
    for rec in records:
        key = (rec.eq.t, rec.eq.s, rec.classification or "non-solution")
        counts[key] = counts.get(key, 0) + 1
        if rec.holds:
            extremal = max(extremal or 0, rec.eq.rhs[0])
        if rec.classification == NONTRIVIAL:
            nontrivial.append(str(rec.eq))
            if c is not None:
                pairings = list(all_pairings(rec.eq))
                member = sum(1 for p in pairings if in_nc(rec.eq, p, c))
                tallies[str(rec.eq)] = (len(pairings), member)
    return CensusSummary(len(records), counts, extremal, nontrivial, c, tallies)
