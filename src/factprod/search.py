"""Complete enumeration of factorial-product identities within bounds.

The engine enumerates right-hand multisets, forms the target exponent vector,
and extends the left side depth-first while maintaining the residual R.  Four
prunes keep it exact and fast: (a) any negative exponent kills the branch,
(b) the largest outstanding prime p* forces the next entry to be >= p* (only
a! with a >= p* can supply p*), (c) depth is capped by t_max, and (d) the
size cap: a! | R needs a! <= R, so a level starts at the largest a with
log(a!) <= log R (plus a small float margin) instead of at its upper bound
ub.  Orientation (rhs[0] > lhs[0]) is built into the descent bound.  In
the census a left side may share no entry with its right side, so a walked
value that is a right-hand entry is counted as a node but never placed.

The residual is one Python integer: prime rank r owns a fixed-width bit
field holding its exponent plus a bias, wide enough that no field ever
borrows from its neighbour.  One integer add then updates every prime at
once, prune (a) is one AND against the packed biases, R = 1 is one compare,
and p* is read off the bit length; beside R the descent carries log R as a
float.  One descent level subtracts cap! once and then walks a = cap,
cap-1, ..., p*; since a! = a * (a-1)!, each step adds the packed factorize(a).
R is immutable, so nothing is restored on the way back.  The float cap only
skips values that cannot divide R; every value walked is still decided
exactly on exponents.  One node is one value a level walks, cap >= a >= p*:
a level charges its cap - p* + 1 nodes on entry, and the node budget is
settled whenever _POLL or more are pending, so it bounds the work done.

The census and the fixed-gap search are two target builders on one driver.
A work unit is a non-increasing tuple: a right-hand side (n_1, ..., n_s),
whose target is prod n_j!, or a start vector x, whose target is
prod (x_j + k_j - 1)! / (x_j - 1)!.  ``_Tables.left_sides`` descends the
target; ``fanout.deal`` shares the units out, over forked processes that
share one node counter or in-process, a census unit sends back plain (lhs,
rhs, classification) rows, and they are merged in unit order and sorted on
a canonical key ((n1, rhs, lhs) for the census), so results are identical
for any worker count.  The census returns its rows as columns
(``CensusResult``) and builds SolutionRecords only when they are read.
Enumeration is structurally duplicate-free: both sides are generated
non-increasing.
"""

from __future__ import annotations

import multiprocessing
import time
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from math import comb, inf, lgamma

from . import fanout
from .equations import (
    NONTRIVIAL,
    FactorialEquation,
    SolutionRecord,
    default_pairing,
    gap_ratio_ok,
    nc_pairings,
    to_delta_form,
    verify,
)
from .factorint import _legendre, factorize, table


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
            raise ValueError(f"n1_max must be >= 3, got {self.n1_max}")
        if self.t_max < 2:
            raise ValueError(f"t_max must be >= 2, got {self.t_max}")
        if self.s_max < 1:
            raise ValueError(f"s_max must be >= 1, got {self.s_max}")
        if self.c is not None and self.c < 1:
            raise ValueError(f"c must be >= 1, got {self.c}")


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
    the records from completed work units, never a silent truncation.
    ``max_nodes`` bounds the descent values walked, over all workers; the
    values the size cap skips cost nothing."""

    max_nodes: int = 50_000_000
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        # bool is an int subclass; nan fails every comparison, so it is refused
        n, sec = self.max_nodes, self.max_seconds
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"max_nodes must be an integer >= 1, got {n!r}")
        if sec is not None and (isinstance(sec, bool) or not 0 < sec < inf):
            raise ValueError(f"max_seconds must be a finite number > 0, got {sec!r}")


@dataclass(frozen=True, slots=True)
class DeltaSolution:
    x: tuple[int, ...]
    a: tuple[int, ...]

    def __reduce__(self):
        # a constructor call: half the pickle round trip of the default reduction
        return DeltaSolution, (self.x, self.a)


class ResourceGuardError(RuntimeError):
    """A guard tripped.  ``records`` holds the results of the work units in
    ``completed`` (in unit order; a CensusResult for the census), out of
    ``total_units``; ``nodes`` is the number of descent nodes spent.  The
    message reports them once units ran."""

    def __init__(
        self, reason: str, records, completed=(), total_units: int = 0, nodes: int = 0
    ) -> None:
        self.reason = reason
        self.records = records
        self.completed = tuple(completed)
        self.total_units = total_units
        self.nodes = nodes
        if total_units:
            reason += f" ({len(self.completed)} of {total_units} units completed, {nodes} nodes)"
        super().__init__(reason)

    @property
    def completed_units(self) -> int:
        return len(self.completed)


class _GuardTrip(Exception):
    pass


class _Budget:
    """Node/time budget polled by the descent in batches.  ``shared`` is a
    multiprocessing integer Value when more than one worker may draw on the
    budget, and None for a plain counter that takes no lock."""

    __slots__ = ("max_nodes", "deadline", "nodes", "shared", "reason")

    def __init__(self, guards: SearchGuards, shared=None) -> None:
        self.max_nodes = guards.max_nodes
        self.deadline = (
            None if guards.max_seconds is None else time.monotonic() + guards.max_seconds
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

# Slack on the size cap log(a!) <= log R, whose two sides are sums of float
# lgamma values.  The cap binds only where log R < log(n_max!) <= log(7876!)
# ~ 6.3e4, and there each sum errs by well under 1e-9 (7e-12 for a! * b! at
# the table bound).  With no slack at all, exact ties lose records.
_LOG_MARGIN = 1e-6

# Most (rank, exponent) pairs the tables of every a! with a <= n_max may hold.
# The packed row of a! spends one field of _Tables.width bits (16 at n_max =
# 7876 with s = 3) on each of its pi(a) pairs, so a pair takes at most 8 bytes.
_TABLE_PAIRS = 1 << 22


def _table_pairs(n_max: int) -> int:
    """Sum of pi(a) over a <= n_max, i.e. sum of (n_max - p + 1) over primes
    p <= n_max, counted on the shared prime table without growing it; past
    its limit this is a lower bound."""
    tbl = table()
    ps = tbl.primes_upto(min(n_max, tbl.limit))
    return len(ps) * (n_max + 1) - int(ps.sum())


# Most work units one search may list: a unit of s entries is a tuple of
# about 100 bytes with its list slot, so 2^20 units are about 100 MiB.
_UNIT_BUDGET = 1 << 20


def _unit_count(first_max: int, least: int, min_len: int, max_len: int) -> int:
    """How many tuples _non_increasing yields, exact up to _UNIT_BUDGET and
    past it a lower bound: with first entry f the other L - 1 entries are a
    multiset of [least, f], and C(f - least + L - 1, L - 1) summed over
    f = 3..first_max telescopes."""
    count = 0
    for n in range(min_len, max_len + 1):
        if count > _UNIT_BUDGET:
            break
        count += comb(max(first_max, 2) - least + n, n) - comb(2 - least + n, n)
    return count


class _Tables:
    """Packed-residual lookup tables, built once per search.

    ``primes`` lists the primes up to ``n_max`` by rank.  An exponent vector
    is one integer: prime rank r owns the ``width`` bits at offset r * width.
    ``step[a]`` and ``fact[a]`` pack factorize(a) and a!, and ``logfact[a]``
    is log(a!), for every a <= ``n_max``: the entries the descent can place
    and every factorial a target reads; left sides have at most ``t_max``
    entries.  A residual holds each exponent e as e + 2^(width-1), and
    ``zero`` packs the exponent-free residual, so R & zero == zero says that
    no exponent is negative and R == zero that R = 1.  A target divides
    ``terms`` factorials of at most n_max; the width holds their summed
    exponents, and the exponent of one subtracted a!, with a sign bit to
    spare, so no field ever borrows from its neighbour; it is rounded up to
    8, 16, 32 or 64 bits.  Tables over the _TABLE_PAIRS budget, or for a
    search of ``units`` work units (from _unit_count) over _UNIT_BUDGET,
    raise ResourceGuardError before anything is built."""

    __slots__ = ("primes", "width", "zero", "step", "fact", "logfact", "t_max")

    def __init__(self, n_max: int, t_max: int, units: int = 0, terms: int = 1) -> None:
        pairs = _table_pairs(n_max)
        if pairs > _TABLE_PAIRS:
            raise ResourceGuardError(
                f"factorial tables up to {n_max}! need {pairs} (rank, exponent) pairs, "
                f"above the budget of {_TABLE_PAIRS}",
                [],
            )
        if units > _UNIT_BUDGET:
            raise ResourceGuardError(
                f"the search has at least {units} work units, "
                f"above the budget of {_UNIT_BUDGET}",
                [],
            )
        self.primes = [int(p) for p in table(n_max).primes_upto(n_max)]
        # 2 has the largest exponent in any factorial
        bits = (terms * _legendre(n_max, 2)).bit_length() + 1
        w = self.width = max(8, 1 << (bits - 1).bit_length())
        self.zero = int.from_bytes(
            (1 << (w - 1)).to_bytes(w // 8, "little") * len(self.primes), "little"
        )
        shift = {p: r * w for r, p in enumerate(self.primes)}
        self.step = [0, 0] + [
            sum(e << shift[p] for p, e in factorize(a)) for a in range(2, n_max + 1)
        ]
        self.fact = [0, 0]
        for step in self.step[2:]:  # a! = (a-1)! * a
            self.fact.append(self.fact[-1] + step)
        self.logfact = [lgamma(a + 1) for a in range(n_max + 1)]
        self.t_max = t_max

    def residual(self, target) -> tuple[int, float]:
        """The packed exponent vector and the logarithm of the target, the
        integer prod(n! ** sign) over its (n, sign) terms, each n <= n_max."""
        R, log_r = self.zero, 0.0
        for n, sign in target:
            R += sign * self.fact[n]
            log_r += sign * self.logfact[n]
        return R, log_r

    def left_sides(
        self, target, ub: int, budget: _Budget, skip=frozenset()
    ) -> list[tuple[int, ...]]:
        """Every non-increasing (a_1, ..., a_t) with ub >= a_1, a_t >= 2,
        t <= t_max and no entry in ``skip`` whose factorials multiply to the
        target.  The budget is settled before returning, so a unit's nodes
        are all counted before it completes."""
        out: list[tuple[int, ...]] = []
        R, log_r = self.residual(target)
        if R != self.zero:
            budget.spend(_descend(self, budget, out, R, [], ub, log_r, 0, skip))
        return out


def _size_cap(logfact: list[float], log_r: float, ub: int) -> int:
    """The largest a <= ub with log(a!) <= log_r, up to _LOG_MARGIN: a! can
    divide a residual R = exp(log_r) only if a! <= R."""
    return bisect_right(logfact, log_r + _LOG_MARGIN, 0, ub + 1) - 1


def _descend(t: _Tables, budget: _Budget, out, R, lhs, ub, log_r, pending, skip) -> int:
    """One level of the descent over a packed residual R != 1 with no
    negative exponent and logarithm ``log_r``; appends every completed left
    side to ``out``.  It walks a = cap, ..., p* and charges those values as
    nodes on entry; a walked value in ``skip`` is never placed.  Returns the
    count of nodes not yet charged to the budget."""
    Z = t.zero
    # p*, the prime of the top nonzero field: only a! with a >= p* supplies it
    lo = t.primes[((R ^ Z).bit_length() - 1) // t.width]
    cap = _size_cap(t.logfact, log_r, ub)
    if cap < lo:
        return pending
    pending += cap - lo + 1
    if pending >= _POLL:
        budget.spend(pending)
        pending = 0
    step = t.step
    deeper = len(lhs) + 1 < t.t_max
    R -= t.fact[cap]
    for a in range(cap, lo - 1, -1):
        if R & Z == Z and a not in skip:
            lhs.append(a)
            if R == Z:
                out.append(tuple(lhs))
            elif deeper:
                pending = _descend(
                    t, budget, out, R, lhs, a, log_r - t.logfact[a], pending, skip
                )
            lhs.pop()
        R += step[a]  # R - a! becomes R - (a-1)!
    return pending


def _non_increasing(first_max: int, least: int, min_len: int, max_len: int):
    """Non-increasing tuples with first entry 3..first_max, later entries
    >= least and min_len..max_len entries, each before its extensions."""

    def grow(prefix: tuple[int, ...]):
        if len(prefix) >= min_len:
            yield prefix
        if len(prefix) < max_len:
            for v in range(prefix[-1], least - 1, -1):
                yield from grow(prefix + (v,))

    for first in range(3, first_max + 1):
        yield from grow((first,))


def _census_unit(rhs: tuple[int, ...], spec: SearchSpec, tables: _Tables, budget: _Budget):
    """The (lhs, rhs, classification) rows of one right-hand side: its left
    sides that share no entry with it, verified and filtered."""
    rows = []
    target = [(n, 1) for n in rhs]
    for lhs in tables.left_sides(target, rhs[0] - 1, budget, frozenset(rhs)):
        rec = verify(FactorialEquation(lhs, rhs))
        cls = rec.classification
        if cls != NONTRIVIAL and (spec.nontrivial_only or spec.c is not None):
            continue
        if spec.c is not None and not any(nc_pairings(rec.eq, spec.c)):
            continue
        rows.append((lhs, rhs, cls))
    return rows


@dataclass(frozen=True, slots=True)
class CensusResult:
    """The census rows as columns in canonical (n1, rhs, lhs) order: row i is
    the identity lhs[i]! = rhs[i]! with the classification ``verify`` gave it
    (None if it does not hold).  ``records`` builds the SolutionRecords on
    each read, verified again and with the default delta form."""

    lhs: tuple[tuple[int, ...], ...] = ()
    rhs: tuple[tuple[int, ...], ...] = ()
    classification: tuple[str | None, ...] = ()

    def __len__(self) -> int:
        return len(self.lhs)

    @property
    def records(self) -> list[SolutionRecord]:
        out = []
        for lhs, rhs in zip(self.lhs, self.rhs):
            rec = verify(FactorialEquation(lhs, rhs))
            pairing = default_pairing(rec.eq)
            if pairing is not None:
                rec = replace(rec, delta_form=to_delta_form(rec.eq, pairing))
            out.append(rec)
        return out


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


def _run_units(units, work, workers: int, guards: SearchGuards, key, collect=list):
    """Run independent work units ``work(unit, budget) -> list`` under one
    node/time budget; returns ``collect`` of their results joined in unit
    order and sorted stably on ``key``.  A tripped guard raises
    ResourceGuardError carrying ``collect`` of the completed units' results.

    ``fanout.deal`` deals the units round-robin (unit i to share i mod n,
    since unit cost grows with the first entry) to forked processes, or runs
    them in-process.  With ``workers > 1`` the shares draw on one shared node
    counter, so max_nodes stays a global ceiling; with one worker the
    counter is a plain integer and takes no lock.  The children inherit the
    search tables and run only the pure-Python descent; their results cross
    the pipe as they are.
    """
    units = list(units)
    budget = _Budget(guards, multiprocessing.Value("q", 0) if workers > 1 else None)
    parts = fanout.deal(
        lambda share: _run_slice(units, share, work, budget), range(len(units)), workers
    )
    done: dict = {}
    for part, _ in parts:
        done.update(part)
    reason = next((r for _, r in parts if r), "")
    order = sorted(done)
    results = collect(sorted((r for i in order for r in done[i]), key=key))
    if reason:
        raise ResourceGuardError(
            reason, results, [units[i] for i in order], len(units), budget.spent()
        )
    return results


def search_factorial_products(
    spec: SearchSpec,
    *,
    guards: SearchGuards | None = None,
    workers: int = 1,
) -> CensusResult:
    """All identities within the requested bounds, canonically ordered.

    Raises ResourceGuardError when the tables or the work units exceed their
    budget (before any work) or a guard ceiling is exceeded (with partial
    results from completed right-hand units).
    """
    guards = guards or SearchGuards()
    shape = (spec.n1_max, 2, 1, spec.s_max)
    tables = _Tables(spec.n1_max, spec.t_max, _unit_count(*shape), spec.s_max)
    return _run_units(
        _non_increasing(*shape),
        lambda rhs, budget: _census_unit(rhs, spec, tables, budget),
        workers,
        guards,
        key=lambda row: (row[1][0], row[1], row[0]),
        collect=lambda rows: CensusResult(*zip(*rows)),
    )


def search_delta(
    spec: DeltaSearchSpec,
    *,
    guards: SearchGuards | None = None,
    workers: int = 1,
) -> list[DeltaSolution]:
    """All solutions of the fixed-gap consecutive-product equation with
    x non-increasing, x1 <= x_max, x1 > a1, t <= t_max."""
    guards = guards or SearchGuards()
    if not spec.ratio_ok():
        return []
    shape = (spec.x_max, 1, len(spec.k_list), len(spec.k_list))
    # A block x(x+1)...(x+k-1) = (x+k-1)! / (x-1)! ends at most at
    # x_max + max(k) - 1.  One that reaches q, the first prime above x_max,
    # has no solution, since no left side can supply q; so the tables end
    # below q, and hold no prime above x_max.  The scan reads the shared
    # sieve without growing it: tables past its limit are refused anyway.
    sieve, top = table(), spec.x_max
    end = min(spec.x_max + max(spec.k_list) - 1, sieve.limit)
    while top < end and not sieve.is_prime(top + 1):
        top += 1
    tables = _Tables(top, spec.t_max, _unit_count(*shape), len(spec.k_list))

    def unit(xs: tuple[int, ...], budget: _Budget) -> list[DeltaSolution]:
        ends = [x + k - 1 for x, k in zip(xs, spec.k_list)]
        if max(ends) > top:
            return []
        target = [(n, 1) for n in ends] + [(x - 1, -1) for x in xs]
        return [DeltaSolution(xs, lhs) for lhs in tables.left_sides(target, xs[0] - 1, budget)]

    return _run_units(
        _non_increasing(*shape),
        unit,
        workers,
        guards,
        key=lambda r: (r.x[0], r.x, r.a),
    )


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


def census_report(result: CensusResult, c: int | None = None) -> CensusSummary:
    """Counts by (t, s, classification), the extremal n1, the nontrivial
    identities, and (when c is given) N(c) membership tallies per pairing."""
    counts: dict[tuple[int, int, str], int] = {}
    extremal = None
    nontrivial: list[str] = []
    tallies: dict[str, tuple[int, int]] = {}
    for lhs, rhs, cls in zip(result.lhs, result.rhs, result.classification):
        key = (len(lhs), len(rhs), cls or "non-solution")
        counts[key] = counts.get(key, 0) + 1
        if cls is not None:
            extremal = max(extremal or 0, rhs[0])
        if cls == NONTRIVIAL:
            eq = FactorialEquation(lhs, rhs)
            nontrivial.append(str(eq))
            if c is not None:
                member = nc_pairings(eq, c)
                tallies[str(eq)] = (len(member), sum(member))
    return CensusSummary(len(result), counts, extremal, nontrivial, c, tallies)
