"""Complete enumeration of factorial-product identities within bounds.

A work unit is a non-increasing row: a right-hand side (n_1, ..., n_s),
whose target is prod n_j!, or a start vector x of the fixed-gap search,
whose target is prod (x_j + k_j - 1)! / (x_j - 1)!.  A left side is found
by a descent over the residual R, the target over the factorials placed so
far.  A state's next entry a is at least p*, the largest prime dividing R
(only a! with a >= p* supplies it), and at most its size cap, the largest a
up to the last entry with log(a!) <= log R (plus a float margin); those
cap - p* + 1 values are its nodes, charged to the node budget before its
children are built.  A child is built only where a! | R, a zero child is a
left side, depth is capped by t_max, and in the census a right-hand entry
is walked but never placed.  Orientation (rhs[0] > lhs[0]) is built into
the bound of the first entry, and both sides are non-increasing, so the
enumeration is duplicate-free.

The residual is a dense row of exponents over the primes up to n_max, and
``_Tables`` expands every live state of a level at once in numpy, a batch
of units at a time (_UNIT_BATCH at first, then twice as many each time, up
to _UNIT_BATCH_MAX), depth first over chunks of at most _CELLS cells.  The
units are the rows of one zero-padded int array, s ints each, and
``fanout.deal`` shares them out to ``_share`` on its pool of forked workers,
which share one node counter, or runs them in-process.  A share takes only
its work (the spec, the guards, an absolute deadline and its unit rows),
builds its own tables where it runs, and reads the chunk and batch sizes
there: the rows of ``_units`` do not depend on _CELLS, so the caller and
the share never need to agree on one.
Left sides leave the descent as zero-padded columns, the census checks a
batch of them at once with ``verify_rows`` on the equations' own exponent
vectors, and the columns are merged by one lexsort on a canonical key
((n1, rhs, lhs) for the census), so results are identical for any worker
count.  ``CensusResult`` stores only the merged columns: ``census_report``
and the JSON lines are computed from them, and its tuples and SolutionRecords
are built only when they are read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from math import comb, inf, isqrt, lgamma

import numpy as np

from . import fanout
from .equations import (
    CLASSES,
    NONTRIVIAL,
    FactorialEquation,
    SolutionRecord,
    default_pairing,
    gap_ratio_ok,
    nc_pairings,
    to_delta_form,
    verify,
    verify_rows,
)
from .factorint import _legendre, lpf_table, table


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
    """Node/time budget polled by the descent in batches.  ``deadline`` is the
    time.monotonic() reading at which ``guards.max_seconds`` runs out, read
    once by the caller so that every worker stops at the same time, or None.
    ``shared`` is the pool's node counter (fanout.shared_counter) when the
    share runs in a pool worker, and None for a plain counter that takes no
    lock; ``nodes`` counts this share's own nodes either way."""

    __slots__ = ("max_nodes", "deadline", "nodes", "shared", "reason")

    def __init__(self, guards: SearchGuards, deadline: float | None = None, shared=None) -> None:
        self.max_nodes = guards.max_nodes
        self.deadline = deadline
        self.nodes = 0
        self.shared = shared
        self.reason = ""

    def spend(self, n: int) -> None:
        self.nodes += n
        if self.shared is None:
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


# Slack on the size cap log(a!) <= log R, whose two sides are sums of float
# lgamma values.  The cap binds only where log R < log(n_max!) <= log(7876!)
# ~ 6.3e4, and there each sum errs by well under 1e-9 (7e-12 for a! * b! at
# the table bound).  With no slack at all, exact ties lose records.
_LOG_MARGIN = 1e-6

# Most (rank, exponent) pairs the tables of every a! with a <= n_max may hold:
# the nonzero entries of the dense rows, so the tables stay below 16 MiB.
_TABLE_PAIRS = 1 << 22

# Most rows x columns one chunk of children (or one block of work units) may
# hold; the work units of a worker's first batch of the descent, and the most
# that any later batch, twice the one before it, may hold.
_CELLS = 1 << 17
_UNIT_BATCH = 512
_UNIT_BATCH_MAX = 1 << 13


def _table_pairs(n_max: int) -> int:
    """Sum of pi(a) over a <= n_max, i.e. sum of (n_max - p + 1) over primes
    p <= n_max, counted on the shared prime table without growing it; past
    its limit this is a lower bound."""
    tbl = table()
    ps = tbl.primes_upto(min(n_max, tbl.limit))
    return len(ps) * (n_max + 1) - int(ps.sum())


# Most work units one search may list.  A unit is a row of s ints of the unit
# array (8s bytes) plus an 8-byte index once done, but a guard trip reports
# the completed units as tuples of about 100 bytes each, so 2^20 units keep
# that report near 100 MiB.
_UNIT_BUDGET = 1 << 20


def _unit_count(first_max: int, least: int, min_len: int, max_len: int) -> int:
    """How many rows _units holds, exact up to _UNIT_BUDGET and
    past it a lower bound: with first entry f the other L - 1 entries are a
    multiset of [least, f], and C(f - least + L - 1, L - 1) summed over
    f = 3..first_max telescopes."""
    count = 0
    for n in range(min_len, max_len + 1):
        if count > _UNIT_BUDGET:
            break
        count += comb(max(first_max, 2) - least + n, n) - comb(2 - least + n, n)
    return count


def _size_cap(logfact: np.ndarray, log_r, ub):
    """The largest a <= ub with log(a!) <= log_r, up to _LOG_MARGIN, for
    each entry: a! can divide a residual R = exp(log_r) only if a! <= R."""
    return np.minimum(np.searchsorted(logfact, log_r + _LOG_MARGIN, "right"), ub + 1) - 1


def _ranks(count):
    """0, 1, ..., count[i] - 1 for each i, concatenated."""
    ends = np.cumsum(count)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - count, count)


class _Chunk:
    """Live states of one depth: state i placed ``lhs[i]``, costs ``nodes[i]``, and has
    ``count[i]`` children down from ``high[i]`` (at the census root, its ``kids``)."""

    def __init__(self, unit, rows, logr, lhs, high, count, nodes, width, kids=None):
        self.unit, self.rows, self.logr, self.lhs, self.high = unit, rows, logr, lhs, high
        self.count, self.nodes, self.width, self.kids = count, nodes, width, kids
        self.ends, self.start = np.cumsum(count), 0


def _refuse(n_max: int, units: int = 0) -> None:
    """Raise ResourceGuardError, before anything is built, when the tables up to
    n_max! hold more than _TABLE_PAIRS (rank, exponent) pairs, or ``units`` (from
    _unit_count) work units exceed _UNIT_BUDGET."""
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


class _Tables:
    """Dense factorial tables, built once per search share, and the descent.

    ``fact[a]`` is the Legendre row of a!: its exponent of each prime up to
    ``n_max``, by rank, for every a <= n_max (the entries the descent can
    place and every factorial a target reads), and ``logfact[a]`` is
    log(a!).  ``most[off[r] + e]`` is the largest a with v_p(a!) <= e for
    the prime p of rank r.  A target divides ``terms`` factorials and a
    residual is never negative, so the dtype holds ``terms`` times the
    exponent of 2 in n_max!.  Tables over the _TABLE_PAIRS budget raise
    ResourceGuardError before anything is built."""

    __slots__ = ("primes", "fact", "logfact", "top", "off", "most", "below", "lpf", "t_max")

    def __init__(self, n_max: int, t_max: int, terms: int = 1) -> None:
        _refuse(n_max)
        primes = self.primes = table(n_max).primes_upto(n_max)
        # 2 has the largest exponent in any factorial; the guards keep it < 2^31
        dtype = np.int16 if (terms * _legendre(n_max, 2)).bit_length() < 16 else np.int32
        self.fact = np.zeros((n_max + 1, 0), dtype)
        small = int(np.searchsorted(primes, isqrt(n_max), "right"))
        fact = self.columns(small)
        # v_p(a!) = a // p for p > sqrt(n_max), so there A = p(e + 1) - 1
        top = self.top = n_max // primes
        top[:small] = fact[-1]
        self.off = np.cumsum(top + 1) - top - 1
        self.most = np.minimum(np.repeat(primes, top + 1) * (_ranks(top + 1) + 1) - 1, n_max)
        for j, e in enumerate(top[:small].tolist()):
            run = np.searchsorted(fact[:, j], np.arange(e + 1), "right") - 1
            self.most[self.off[j] : self.off[j] + e + 1] = run
        self.logfact = np.array([lgamma(a + 1) for a in range(n_max + 1)])
        lpf = self.lpf = lpf_table(max(n_max, 1))
        n = np.arange(len(lpf))
        self.below = np.maximum.accumulate(np.where(lpf == n, n, 0))  # largest prime <= n
        self.t_max = t_max

    def columns(self, width: int) -> np.ndarray:
        """``fact`` with at least ``width`` columns: a level reads only those up to
        its largest cap, so they are built when first read, twice as many each time."""
        if width > self.fact.shape[1]:
            ps = self.primes[: min(len(self.primes), max(width, 2 * self.fact.shape[1]))]
            a = np.arange(len(self.fact), dtype=self.fact.dtype)
            self.fact = a[:, None] // ps.astype(a.dtype)
            for j, p in enumerate(ps[ps * ps < len(a)].tolist()):
                q = p * p
                while q < len(a):
                    self.fact[:, j] += a // q
                    q *= p
        return self.fact

    def residual(self, target, width=None):
        """The rows (``width`` columns) and logarithms of the targets prod(n! ** sign)
        over (n, sign) terms, n <= n_max an array with one entry per target, or an int."""
        fact = self.columns(len(self.primes) if width is None else width)
        rows, log_r = 0, 0.0
        for n, sign in target:
            rows = rows + sign * fact[n, :width]
            log_r = log_r + sign * self.logfact[n]
        return rows, log_r

    def left_sides(self, target, ub, budget: _Budget, unit):
        """Every non-increasing (a_1, ..., a_t) with ub >= a_1, a_t >= 2 and t <= t_max
        whose factorials multiply to the target (> 1) of each ``unit``; see _walk."""
        rows, logr = self.residual(target)
        lhs = np.zeros((len(unit), 0), np.intp)
        return self._walk(unit, budget, lambda: self._expand(unit, rows, logr, ub, lhs))

    def census(self, rhs, budget: _Budget):
        """The left sides placing no right-hand entry of each zero-padded row of ``rhs``;
        see _walk.  The root runs on scalars: (n_1, ..., n_s) has p* = p(n_1), the largest
        prime <= n_1, and cap n_1 - 1; its child a_1 is the block (a_1 + 1)...n_1 times
        n_2! ... n_s!, whose p* is the larger of the block's largest prime factor (a
        running max of ``lpf``) and p(n_2), so a dead child (cap < p*) builds no row."""
        unit = np.arange(len(rhs))
        logr = self.residual([(n, 1) for n in rhs.T], 0)[1]

        def root():
            nodes = np.maximum(rhs[:, 0] - self.below[rhs[:, 0]], 0)
            rep = np.repeat(unit, nodes)
            a = rhs[rep, 0] - 1 - _ranks(nodes)
            shift = rep * len(self.lpf)
            block = np.maximum.accumulate(self.lpf[a + 1] + shift) - shift
            low = block if rhs.shape[1] < 2 else np.maximum(block, self.below[rhs[rep, 1]])
            cap = _size_cap(self.logfact, logr[rep] - self.logfact[a], a)
            live = cap >= low
            width = np.searchsorted(self.primes, cap[live].max(initial=0), "right")
            count = np.bincount(rep[live], minlength=len(unit))
            return _Chunk(unit, None, logr, rhs[:, :0], None, count, nodes, width, a[live])

        return self._walk(unit, budget, root, rhs)

    def _expand(self, unit, rows, logr, ub, lhs):
        """The live states (cap >= p*), each with its cap - p* + 1 nodes, on the
        columns up to their largest cap.  Children a run down from min(cap, A), A the
        largest a with a! | R; at the last level only R = A! completes a left side."""
        width = rows.shape[1]
        low = self.primes[width - 1 - np.argmax(rows[:, ::-1] != 0, axis=1)]
        cap = _size_cap(self.logfact, logr, ub)
        live = np.flatnonzero(cap >= low)
        if not len(live):
            return None
        low, cap = low[live], cap[live]
        width = np.searchsorted(self.primes, cap.max(), "right")
        rows = rows[live, :width]
        most = self.most[self.off[:width] + np.minimum(rows, self.top[:width])].min(1)
        # no live row has a nonzero column past its cap, so the prime after
        # the columns kept (or n_max + 1) bounds A
        most = np.minimum(most, np.append(self.primes, len(self.logfact))[width] - 1)
        high = np.minimum(cap, most)
        if lhs.shape[1] + 1 < self.t_max:
            count = np.maximum(high - low + 1, 0)
        else:
            count = ((most <= cap) & (most >= low)).astype(np.intp)
        return _Chunk(unit[live], rows, logr[live], lhs[live], high, count, cap - low + 1, width)

    def _walk(self, unit, budget: _Budget, root, rhs=None):
        """Run the descent from ``root()`` depth first over chunks: the top chunk charges
        its next states, as many as have children fitting in _CELLS cells, then builds
        those; a zero row is a left side.  Returns the left sides, their units and their
        entries zero-padded to t_max columns, and the set of units with a state on the
        stack or charged last, empty unless the budget tripped."""
        units, lefts, stack, left = [unit[:0]], [np.zeros((0, self.t_max), np.intp)], [], set()

        def push(chunk):
            if chunk is not None:
                stack.append(chunk)

        try:
            push(root())
            while stack:
                par = stack[-1]
                s0 = par.start
                limit = (par.ends[s0 - 1] if s0 else 0) + _CELLS // max(par.width, 1)
                par.start = max(s0 + 1, int(np.searchsorted(par.ends, limit, "right")))
                if par.start == len(par.ends):
                    stack.pop()
                current = par.unit[s0 : par.start]
                budget.spend(int(par.nodes[s0 : par.start].sum()))
                count = par.count[s0 : par.start]
                if not count.any():
                    continue
                rep = np.repeat(np.arange(s0, par.start), count)
                if par.kids is None:
                    a = par.high[rep] - _ranks(count)
                else:
                    first = par.ends[s0] - count[0]
                    a = par.kids[first : first + len(rep)]
                if rhs is not None:  # the census never places n_2, ..., n_s (nor n_1 > a)
                    keep = np.ones(len(a), bool)
                    for n in rhs.T[1:]:
                        keep &= a != n[par.unit[rep]]
                    rep, a = rep[keep], a[keep]
                u = par.unit[rep]
                if par.rows is None:
                    rows = self.residual([(n, 1) for n in rhs[u].T], par.width)[0]
                else:
                    rows = par.rows[rep]
                rows -= self.columns(par.width)[a, : par.width]
                lhs = np.column_stack((par.lhs[rep], a))
                go = rows.any(1)
                if not go.all():  # zero-padded to t_max columns
                    units.append(u[~go])
                    lefts.append(np.zeros((len(go) - np.count_nonzero(go), self.t_max), lhs.dtype))
                    lefts[-1][:, : lhs.shape[1]] = lhs[~go]
                if lhs.shape[1] < self.t_max and go.any():
                    logr = par.logr[rep[go]] - self.logfact[a[go]]
                    push(self._expand(u[go], rows[go], logr, a[go], lhs[go]))
        except _GuardTrip:
            left = {k for par in stack for k in par.unit[par.start :].tolist()}
            left |= set(current.tolist())
        return np.concatenate(units), np.concatenate(lefts), left


def _units(first_max: int, least: int, min_len: int, max_len: int) -> np.ndarray:
    """The work units as the rows of an (N, max_len) array, zero-padded: the
    non-increasing rows with first entry 3..first_max, later entries >= least
    and min_len..max_len entries, each before its extensions, which follow it
    with their next entry descending.  They are built level by level with no
    sort, over blocks of first entries of at most _CELLS cells: a row's place
    is its parent's, plus one if the parent is a unit, plus the units under its
    larger siblings."""
    top = max(first_max, 2)
    # under[d - 1][u]: the units at or under the rows of length d ending in least..u
    under = [np.zeros(top + 1, np.intp)]
    for d in range(max_len, 0, -1):
        size = (d >= min_len) + under[-1]
        size[:least] = 0
        under.append(np.cumsum(size))
    under.reverse()
    first = np.arange(3, first_max + 1)
    ends = np.append(under[0][first - 1], under[0][top]) - under[0][2]
    out = np.zeros((ends[-1], max_len), np.intp)
    lo = 0
    while lo < len(first):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + _CELLS // max_len, "right")) - 1)
        place, rows = ends[lo:hi], first[lo:hi, None]
        for d in range(1, max_len + 1):
            if d >= min_len:
                out[place, :d] = rows
            if d < max_len:
                last = rows[:, -1]
                count = last - least + 1
                rep = np.repeat(np.arange(len(rows)), count)
                entry = last[rep] - _ranks(count)
                place = place[rep] + (d >= min_len) + under[d][last[rep]] - under[d][entry]
                rows = np.column_stack((rows[rep], entry))
        lo = hi
    return out


class CensusResult:
    """The census rows as columns in canonical (n1, rhs, lhs) order: row i is
    the identity lhs[i]! = rhs[i]! of the zero-padded int arrays ``lhs_cols``
    and ``rhs_cols``, less the padding, with the classification
    CLASSES[codes[i]] that verify_rows gave it (None if it does not hold).
    The columns are all it stores: the ``lhs``, ``rhs`` and ``classification``
    tuples, and the SolutionRecords of ``records`` (verified again and with the
    default delta form), are built on first read.  Two results are equal when
    they hold the same rows in the same order."""

    def __init__(self, lhs_cols: np.ndarray, rhs_cols: np.ndarray, codes: np.ndarray) -> None:
        self.lhs_cols, self.rhs_cols, self.codes = lhs_cols, rhs_cols, codes

    @classmethod
    def from_rows(cls, rows) -> CensusResult:
        """The result of (lhs, rhs, classification) rows, each side zero-padded."""
        rows = list(rows)
        width = [max((len(row[k]) for row in rows), default=1) for k in (0, 1)]
        cols = [np.zeros((len(rows), w), np.intp) for w in width]
        for i, (lhs, rhs, _) in enumerate(rows):
            cols[0][i, : len(lhs)], cols[1][i, : len(rhs)] = lhs, rhs
        return cls(*cols, np.array([CLASSES.index(row[2]) for row in rows], np.int8))

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CensusResult):
            return NotImplemented
        return (self.lhs, self.rhs, self.classification) == (
            other.lhs, other.rhs, other.classification
        )

    lhs = cached_property(lambda self: _tuples(self.lhs_cols))
    rhs = cached_property(lambda self: _tuples(self.rhs_cols))
    classification = cached_property(
        lambda self: tuple(map(CLASSES.__getitem__, self.codes.tolist()))
    )

    @cached_property
    def records(self) -> list[SolutionRecord]:
        out = []
        for lhs, rhs in zip(self.lhs, self.rhs):
            rec = verify(FactorialEquation(lhs, rhs))
            pairing = default_pairing(rec.eq)
            if pairing is not None:
                rec = replace(rec, delta_form=to_delta_form(rec.eq, pairing))
            out.append(rec)
        return out

    @cached_property
    def _groups(self) -> np.ndarray:
        """Per row, its (t, s, class) as one int: (t * (S + 1) + s) * len(CLASSES) +
        class code, with S the width of ``rhs_cols``."""
        t, s = (np.count_nonzero(m, 1) for m in (self.lhs_cols, self.rhs_cols))
        return (t * (self.rhs_cols.shape[1] + 1) + s) * len(CLASSES) + self.codes

    def _group(self, key: int) -> tuple[int, int, str | None]:
        """The (t, s, classification) of a _groups value."""
        rest, code = divmod(key, len(CLASSES))
        return (*divmod(rest, self.rhs_cols.shape[1] + 1), CLASSES[code])

    def lines(self, line, rows=None) -> list[str]:
        """One string per row (or per row of the index array ``rows``), in order: the
        %-format ``line(t, s, classification)`` of t + s integers and one newline,
        filled with the row's entries less the padding.  One stable argsort groups the
        rows by (t, s, class), each group fills its format at once from its column
        slices, and the lines are scattered back into row order.  No temporary holds
        every row's entries: one that did kept raising the peak RSS of a process that
        ran the census again and again."""
        rows = np.arange(len(self)) if rows is None else rows
        key = self._groups[rows]
        order = np.argsort(key, kind="stable")
        key, rows = key[order], rows[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
        texts = []
        for lo, hi in zip(starts, starts[1:] + [len(key)]):
            t, s, cls = self._group(int(key[lo]))
            part = rows[lo:hi]
            values = np.column_stack((self.lhs_cols[part, :t], self.rhs_cols[part, :s]))
            texts += (line(t, s, cls) * (hi - lo) % tuple(values.ravel().tolist())).splitlines(True)
        place = np.empty_like(order)
        place[order] = np.arange(len(order))
        return list(map(texts.__getitem__, place.tolist()))


def _tuples(m: np.ndarray) -> tuple:
    """The rows of a zero-padded array as tuples of Python ints, less the padding."""
    return tuple(tuple(r[:n]) for r, n in zip(m.tolist(), np.count_nonzero(m, 1).tolist()))


def _share(plan, guards, deadline, units):
    """One share of a search's work units, the rows of ``units``, run wherever
    ``fanout.deal`` puts it: ``plan()`` builds the share's tables there and
    gives its (descend, finish) (see _run_units).  The units run in batches
    of _UNIT_BATCH and then twice as many each time, up to _UNIT_BATCH_MAX.
    Returns the positions in ``units`` of each batch's completed units, their
    result columns, the trip reason ("" if none) and the nodes spent."""
    descend, finish = plan()
    budget = _Budget(guards, deadline, fanout.shared_counter())
    done, parts, k, size = [], [], 0, _UNIT_BATCH
    while k < len(units) and not budget.reason:
        batch = np.arange(k, min(k + size, len(units)))
        k, size = k + size, min(2 * size, _UNIT_BATCH_MAX)
        keys = units[batch]
        unit, lhs, left = descend(keys, budget)
        finished = np.ones(len(batch), bool)
        finished[list(left)] = False  # not np.isin: it imports numpy.ma
        keep = finished[unit]
        parts.append(finish(keys[unit[keep]], lhs[keep]))
        done.append(batch[finished])
    return done, parts, budget.reason, budget.nodes


def _run_units(units, plan, collect, workers, guards, stats=None, start=None):
    """Run independent work units, the rows of ``units`` (at least one), under one
    node/time budget.  ``plan()``, a picklable callable, builds the tables
    where a share runs and gives two functions: ``descend(keys, budget)``, the left
    sides of the batch of units ``keys`` as (their units, rows zero-padded to t_max,
    the units a trip left unfinished), and ``finish(keys, lhs)``, their result
    columns, the first two the sort key.  Returns ``collect`` of the columns merged
    in key order (every entry is >= 1, so the padding sorts as tuples do); a tripped
    guard raises ResourceGuardError carrying ``collect`` of the completed units'
    columns.  ``stats``, if given, is filled (on a trip too) with the nodes spent,
    the units and those completed, the descent batches, the records, the pool
    workers that ran a share (0 in-process) and the seconds of each phase: from
    ``start`` (a perf_counter reading) to the descent, the descent (each share
    builds its tables first) and the merge.

    ``fanout.deal`` deals the units round-robin (unit cost grows with the first entry)
    to _share on the pool's workers, which draw on the pool's one node counter, or
    runs them in-process, where the counter is a plain integer that takes no lock.
    Each share returns the nodes it spent with its columns."""
    deadline = None if guards.max_seconds is None else time.monotonic() + guards.max_seconds
    dealt = time.perf_counter()
    results = fanout.deal(_share, (plan, guards, deadline), units, workers)
    merged = time.perf_counter()
    keys, lhs, *more = map(np.concatenate, zip(*(p for _, ps, _, _ in results for p in ps)))
    order = np.lexsort(np.column_stack((keys, lhs)).T[::-1])
    out = collect(keys[order], lhs[order], *(c[order] for c in more))
    n = len(results)
    done = [np.arange(k, len(units), n)[i] for k, (d, _, _, _) in enumerate(results) for i in d]
    nodes = sum(r[3] for r in results)
    if stats is not None:
        stats.update(
            nodes=nodes,
            units=len(units),
            units_completed=sum(map(len, done)),
            batches=len(done),
            records=len(out),
            children=n if n > 1 else 0,
            seconds={
                "tables": round(dealt - start, 6),
                "descent": round(merged - dealt, 6),
                "merge": round(time.perf_counter() - merged, 6),
            },
        )
    reason = next((r for _, _, r, _ in results if r), "")
    if reason:
        done = np.sort(np.concatenate(done))
        raise ResourceGuardError(reason, out, _tuples(units[done]), len(units), nodes)
    return out


def _census_plan(spec: SearchSpec):
    """The census share's descent and result columns (see _run_units)."""
    tables = _Tables(spec.n1_max, spec.t_max, spec.s_max)

    def finish(rhs, lhs):
        cls = verify_rows(lhs, rhs)
        least = CLASSES.index(NONTRIVIAL) if spec.nontrivial_only or spec.c is not None else 0
        keep = cls >= least
        for i in np.flatnonzero(keep).tolist() if spec.c is not None else ():
            eq = FactorialEquation(*(np.trim_zeros(m[i], "b").tolist() for m in (lhs, rhs)))
            keep[i] = any(nc_pairings(eq, spec.c))
        return rhs[keep], lhs[keep], cls[keep]

    return tables.census, finish


def search_factorial_products(
    spec: SearchSpec,
    *,
    guards: SearchGuards | None = None,
    workers: int = 1,
    stats: dict | None = None,
) -> CensusResult:
    """All identities within the requested bounds, canonically ordered.  ``stats``,
    if given, is filled with the run's counters and phase seconds (see _run_units;
    "tables" covers the guards and the work units).

    Raises ResourceGuardError when the tables or the work units exceed their
    budget (before any work) or a guard ceiling is exceeded (with partial
    results from completed right-hand units).
    """
    start = time.perf_counter()
    guards = guards or SearchGuards()
    shape = (spec.n1_max, 2, 1, spec.s_max)
    _refuse(spec.n1_max, _unit_count(*shape))
    return _run_units(
        _units(*shape),
        partial(_census_plan, spec),
        lambda rhs, lhs, cls: CensusResult(lhs, rhs, cls),
        workers,
        guards,
        stats,
        start,
    )


def _delta_plan(spec: DeltaSearchSpec, top: int):
    """The fixed-gap share's descent and result columns (see _run_units), on
    tables up to ``top``; a unit whose block ends past ``top`` has no state."""
    tables = _Tables(top, spec.t_max, len(spec.k_list))

    def descend(xs, budget: _Budget):
        ends = xs + np.array(spec.k_list) - 1
        unit = np.flatnonzero(ends.max(1) <= top)
        xs, ends = xs[unit], ends[unit]
        target = [(n, 1) for n in ends.T] + [(x - 1, -1) for x in xs.T]
        return tables.left_sides(target, xs[:, 0] - 1, budget, unit)

    return descend, lambda xs, lhs: (xs, lhs)


def search_delta(
    spec: DeltaSearchSpec,
    *,
    guards: SearchGuards | None = None,
    workers: int = 1,
) -> list[DeltaSolution]:
    """All solutions of the fixed-gap consecutive-product equation with
    x non-increasing, x1 <= x_max, x1 > a1, t <= t_max."""
    guards = guards or SearchGuards()
    if not spec.ratio_ok() or spec.x_max < 3:  # x_1 > a_1 >= 2: no unit
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
    _refuse(top, _unit_count(*shape))
    return _run_units(
        _units(*shape),
        partial(_delta_plan, spec, top),
        lambda xs, lhs: [DeltaSolution(*row) for row in zip(_tuples(xs), _tuples(lhs))],
        workers,
        guards,
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
    """Counts by (t, s, classification), the extremal n1, the nontrivial identities
    and N(c) tallies per pairing if c is set, from the columns: one bincount of the
    (t, s, class) of each row, a masked max, and the nontrivial rows formatted as
    str(FactorialEquation) gives them.  Only the tallies build an equation."""
    groups = np.bincount(result._groups)
    counts = {}
    for key in np.flatnonzero(groups).tolist():
        t, s, cls = result._group(key)
        counts[t, s, cls or "non-solution"] = int(groups[key])
    holds = result.codes != CLASSES.index(None)
    extremal = int(result.rhs_cols[holds, 0].max()) if holds.any() else None
    rows = np.flatnonzero(result.codes == CLASSES.index(NONTRIVIAL))
    nontrivial = [text[:-1] for text in result.lines(_equation_line, rows)]
    tallies: dict[str, tuple[int, int]] = {}
    for text in nontrivial if c is not None else ():
        member = nc_pairings(FactorialEquation.parse(text), c)
        tallies[text] = (len(member), sum(member))
    return CensusSummary(len(result), counts, extremal, nontrivial, c, tallies)


def _equation_line(t: int, s: int, cls) -> str:
    return ",".join(["%d"] * t) + "=" + ",".join(["%d"] * s) + "\n"
