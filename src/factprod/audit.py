"""Numeric certificate evaluators for the inequality chain behind the
conditional finiteness argument.

Every check evaluates both sides of an inequality at concrete parameters and
reports the outcome with its margin; nothing here proves anything.  Checks:

* theta_upper        -- sum of log p over p <= nu stays below 1.00008 * nu
* mertens_upper      -- sum of (log p)/p over p <= nu stays below log nu
* stirling_lower     -- a*log(a) - a <= log(a!)
* window audits      -- no prime among the k1 consecutive terms of a genuine
                        solution's leading block, m1 >= k1, and the
                        log-factorial bound on the largest leftover entry
* erdos ratio scan   -- P(product of k consecutive composites) against
                        (2/7) * k * log k (informational: the threshold kappa
                        above which the bound is proven is not quantified)
* abc window reports -- the two smallest radicals in a window yield a coprime
                        triple a + b = c; quality and the explicit-abc test
                        c < N(abc)^(7/4) are recorded, never asserted
* proof-chain audits -- the window-length/gap inequalities relating k1, m1,
                        and the largest leftover entry

Every strict real-valued bound lhs < rhs (the prefix sums, the Stirling
bounds, the abc window bound and chain inequalities 4 and 5) is decided by
one helper, ``_bound``, with the same float slack and margin rhs - lhs.  The
chain_ineq4 bound has one definition shared by the abc report and the proof
chain, and the (2/7) k log k bound one shared by the Erdos scan and
chain_ineq5.

The prefix audits return a ``PrefixAudit``: its violations and min_margin,
and columns built only when read, from which AuditFinding rows are built
only on request.  The columns sum with ``_prefix_sums`` (Kahan) and take
logs with math.log, one Python call per point; the summary needs neither
over every point.  It is a float prefilter plus an exact fallback, like the
abc decision below.  With T_k the exact sum of the first k summands, all
nonnegative, np.cumsum of the same summands is within gamma_{k-1} T_k of
it and the Kahan sum within (2u + O(k u^2)) T_k (Higham, Accuracy and
Stability of Numerical Algorithms, ch. 4), and np.log is within a relative
_LOG_BAND of math.log (a test guards it); so each point's estimated margin
lies in a known band around the column's.  A point whose band leaves out
-SLACK and cannot hold the least margin is decided from the estimates; the
columns are computed exactly up to the last point that is not, and
min_margin is read from them.  The estimates are made in chunks of _CHUNK
points, with the running sum carried from chunk to chunk, so no array
they make is as long as the columns.

The Erdos ratio scan is columnar too: ``audit_erdos_pdelta`` takes, for
blocks of x at once, the running max of the lpf table along k over each x's
run of composites, k-major like the abc kernel (``_running_max``), and
returns the eligible windows as columns (``ErdosScanResult``); its
AuditFinding rows are built once, when first read.

The abc window scan is columnar: ``abc_scan`` yields ``AbcBlock``s of
consecutive m1 rows, each from two running minima along k
(``_smallest_pairs``) over (radical, offset) keys, int32 where they fit.
The kernel runs k-major: one step per k over every window start of the
block, so no array it makes holds more than one entry per start, besides
the triples it returns.  ``abc_window_report`` is the one-row view of the
same code.  A block holds each distinct triple once with the run of rows
it covers; its summaries (the first row of the largest quality, the rows
failing the explicit-abc test) are read off the triples, and its per-row
columns are built only when read.  The triples' logs are np.log estimates; the
explicit-abc test is a float prefilter on 7*log N - 4*log c plus an exact
c**4 < N**7 on Python ints for every triple near the boundary, so the
decision is made on integers.  The per-row quality column is math.log of
every triple; the largest quality is found among the estimates and made
exact only for the triples within a few _QUALITY_BAND of the estimated
maximum.

Whatever is built on first read (the PrefixAudit columns, the Erdos
findings, the AbcBlock per-row columns) is a cached_property, built once.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .equations import DeltaForm, delta_form_holds
from .factorint import (
    _CHUNK, _MR_LIMIT, _check_ceiling, is_prime, lpf_table, radical, radical_table, table,
)

THETA_COEFF = 1.00008
ERDOS_COEFF = 2.0 / 7.0
SLACK = 1e-9  # comparison slack for real-valued checks (float roundoff only)


@dataclass(frozen=True, slots=True)
class AuditFinding:
    """One evaluated inequality: ok iff it holds at these parameters.

    margin is rhs - lhs except for ratio-style checks (erdos_ratio,
    chain_ineq6_ratio), where it is the lhs/rhs or rhs/lhs ratio as noted.
    """

    check_id: str
    parameters: dict
    lhs_value: float
    rhs_value: float
    ok: bool
    margin: float


def _bound(lhs, rhs):
    """The strict real-valued bound lhs < rhs, up to SLACK: (ok, margin rhs - lhs).
    Works on floats and on numpy columns alike."""
    return lhs < rhs + SLACK, rhs - lhs


def _upper(check_id: str, parameters: dict, lhs: float, rhs: float) -> AuditFinding:
    return AuditFinding(check_id, parameters, lhs, rhs, *_bound(lhs, rhs))


def _kahan(values):
    """Running compensated prefix sums."""
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        yield total


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    return np.fromiter(_kahan(values.tolist()), np.float64, count=len(values))


def _log(values: np.ndarray) -> np.ndarray:
    """math.log of every entry of an int64 or Python-int array.  np.log may
    differ from math.log in the last place; quality and the prefix-audit
    columns keep math.log where the per-row code used it."""
    return np.fromiter(map(math.log, values.tolist()), np.float64, count=len(values))


_U = 2.0**-53  # unit roundoff of float64
# Relative bound on |np.log(x) - math.log(x)| for the x the prefix audits
# read: the prefilter estimates math.log columns by np.log within it.  Both
# take the log of the same float64 (math.log converts an int first), and
# differ only by their libraries' rounding, an ulp or two.
_LOG_BAND = 1e-14


def _sum_band(sums: np.ndarray, lo: int) -> np.ndarray:
    """Bound on |np.cumsum(x) - _prefix_sums(x)| at the prefixes lo,
    lo + 1, ... of nonnegative summands x, given their sums = np.cumsum(x).

    With T_k the exact sum of the first k summands, recursive summation errs
    by at most gamma_{k-1} T_k and compensated summation by
    (2u + O(k u^2)) T_k (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4), and T_k <= sums_k / (1 - gamma_{k-1}).  Twice
    gamma_{k+2} = 2 (k+2) u / (1 - (k+2) u) covers the lot while k u is small."""
    # 2 * ku / (1 - ku) * sums, in place
    ku = np.arange(lo + 3, lo + len(sums) + 3, dtype=np.float64)
    ku *= _U
    one_less = 1 - ku
    ku *= 2
    ku /= one_less
    ku *= sums
    return ku


def _chunks(size: int):
    """(lo, hi) of the consecutive slices of at most _CHUNK points that
    cover range(size)."""
    return ((lo, min(lo + _CHUNK, size)) for lo in range(0, size, _CHUNK))


def _cumsum(x: np.ndarray, carry: float) -> np.ndarray:
    """The running sums of x after summands of total carry: with the carry
    prepended, each equals the whole array's np.cumsum bit for bit."""
    sums = np.concatenate(([carry], x))
    np.cumsum(sums, out=sums)
    return sums[1:]


@dataclass(frozen=True, eq=False)
class PrefixAudit:
    """One prefix-sum bound lhs < rhs (up to SLACK) evaluated at ``size``
    points: its violations and min_margin, and the columns points, lhs, rhs,
    ok and margin (rhs - lhs), built on first read as build(size).  build(m)
    returns (points, lhs, rhs) of the first m points; ``points`` holds the
    parameter values (an object array when a float end point follows
    integer ones)."""

    check_id: str
    param: str
    size: int
    violations: int
    min_margin: float | None
    build: Callable[[int], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)

    def __len__(self) -> int:
        return self.size

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        points, lhs, rhs = self.build(self.size)
        return (points, lhs, rhs, *_bound(lhs, rhs))

    points = property(lambda self: self._columns[0])
    lhs = property(lambda self: self._columns[1])
    rhs = property(lambda self: self._columns[2])
    ok = property(lambda self: self._columns[3])
    margin = property(lambda self: self._columns[4])

    def findings(self, violations_only: bool = False) -> list[AuditFinding]:
        """The rows as AuditFindings (all, or only those not ok)."""
        rows = zip(
            self.points.tolist(), self.lhs.tolist(), self.rhs.tolist(),
            self.ok.tolist(), self.margin.tolist(),
        )
        return [
            AuditFinding(self.check_id, {self.param: p}, lhs, rhs, ok, margin)
            for p, lhs, rhs, ok, margin in rows
            if not (ok and violations_only)
        ]


def _primes(nu_max: float) -> np.ndarray:
    if nu_max < 0:
        raise ValueError("nu_max must be nonnegative")
    if nu_max < 2:
        return np.zeros(0, dtype=np.int64)
    return table(int(nu_max)).primes_upto(nu_max)


def _margin_band(lhs: np.ndarray, rhs: np.ndarray, err: np.ndarray):
    """The estimated margin rhs - lhs of a chunk of points, from estimates
    lhs and rhs of the columns with err bounding |lhs - column lhs| +
    |rhs - column rhs|, and a bound on its distance to the column's margin:
    err widened by 4u (|lhs| + |rhs| + |SLACK|), which covers the rounding
    of both margins and of rhs + SLACK."""
    wide = np.abs(lhs)  # err + 4 * _U * (|lhs| + |rhs| + |SLACK|), in place
    wide += np.abs(rhs)
    wide += abs(SLACK)
    wide *= 4 * _U
    wide += err
    return rhs - lhs, wide


def _prefix_audit(check_id: str, param: str, build, size: int, estimates) -> PrefixAudit:
    """The PrefixAudit of build (see PrefixAudit) at ``size`` points, with
    violations and min_margin decided from estimates: it yields, chunk by
    chunk in point order, the _margin_band of each point's margin and a bound
    err on its distance to the column's.

    A point is decided when its band margin +- err leaves out -SLACK and the
    point cannot hold the least margin; build runs up to the last point that is
    not, and the points after it are read off the estimates.  The least
    margin + err is known only after the last chunk: each chunk keeps its
    points whose margin - err is at most the least so far, a superset of
    those at most the final least, which then filters them."""
    if not size:
        return PrefixAudit(check_id, param, 0, 0, None, build)
    least = np.inf  # of margin + err
    m = 0  # one past the last point whose band holds -SLACK
    kept, below = [], []  # (points, margin - err) that may be undecided; margins below -SLACK
    lo = 0
    for margin, err in estimates:
        band = np.flatnonzero(np.abs(margin + SLACK) <= err)
        if len(band):
            m = lo + int(band[-1]) + 1
        least = min(least, float((margin + err).min()))
        low = np.subtract(margin, err, out=err)
        near = np.flatnonzero(low <= least)
        kept.append((near + lo, low[near]))
        below.append(np.flatnonzero(margin < -SLACK) + lo)
        lo += len(margin)
    at, low = (np.concatenate(col) for col in zip(*kept))
    m = max(m, int(at[low <= least][-1]) + 1)
    ok, exact = _bound(*build(m)[1:])
    below = np.concatenate(below)
    violations = m - int(np.count_nonzero(ok)) + int(np.count_nonzero(below >= m))
    return PrefixAudit(check_id, param, size, violations, float(exact.min()), build)


def audit_theta(nu_max: float) -> PrefixAudit:
    """Check theta(nu) < 1.00008 * nu at every prime <= nu_max (the only
    points where the left side jumps)."""
    ps = _primes(nu_max)

    def build(m):
        return ps[:m], _prefix_sums(np.log(ps[:m].astype(np.float64))), THETA_COEFF * ps[:m]

    def estimates():
        lhs = np.zeros(1)
        for lo, hi in _chunks(len(ps)):
            lhs = _cumsum(np.log(ps[lo:hi].astype(np.float64)), lhs[-1])
            yield _margin_band(lhs, THETA_COEFF * ps[lo:hi], _sum_band(lhs, lo))

    return _prefix_audit("theta_upper", "nu", build, len(ps), estimates())


def audit_mertens(nu_max: float) -> PrefixAudit:
    """Check sum of (log p)/p < log(nu) at every prime <= nu_max and at
    nu = nu_max itself."""
    ps = _primes(nu_max)
    end = len(ps) > 0 and float(nu_max) > float(ps[-1])  # the float end point

    def build(m):
        arr = ps[:m].astype(np.float64)
        points, lhs, rhs = ps[:m], _prefix_sums(np.log(arr) / arr), _log(ps[:m])
        if m > len(ps):
            points = np.array([*ps.tolist(), float(nu_max)], dtype=object)
            lhs = np.append(lhs, lhs[-1])
            rhs = np.append(rhs, math.log(nu_max))
        return points, lhs, rhs

    def estimates():
        lhs = np.zeros(1)
        for lo, hi in _chunks(len(ps)):
            arr = ps[lo:hi].astype(np.float64)
            log_p = np.log(arr)
            lhs = _cumsum(np.divide(log_p, arr, out=arr), lhs[-1])
            err = _sum_band(lhs, lo)
            err += _LOG_BAND * log_p
            yield _margin_band(lhs, log_p, err)
        if end:
            yield _margin_band(lhs[-1:], np.array([math.log(nu_max)]), err[-1:])

    return _prefix_audit("mertens_upper", "nu", build, len(ps) + end, estimates())


def audit_stirling_lower(n_max: int) -> PrefixAudit:
    """Check a*log(a) - a <= log(a!) for 2 <= a <= n_max, with log(a!)
    accumulated as a compensated sum of log i."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    _check_ceiling(n_max)

    def build(m):
        a = np.arange(2, m + 2, dtype=np.int64)
        af = a.astype(np.float64)
        return a, af * _log(a) - af, _prefix_sums(np.log(af))

    def estimates():
        rhs = np.zeros(1)
        for lo, hi in _chunks(n_max - 1):
            af = np.arange(lo + 2, hi + 2, dtype=np.float64)
            x = np.log(af)
            rhs = _cumsum(x, rhs[-1])
            # a*log(a) - a from np.log errs by _LOG_BAND a log(a), plus the
            # rounding of the product and the difference on either side
            a_log_a = np.multiply(af, x, out=x)
            err = _sum_band(rhs, lo)
            err += (_LOG_BAND + 5 * _U) * a_log_a
            yield _margin_band(np.subtract(a_log_a, af, out=af), rhs, err)

    return _prefix_audit("stirling_lower", "a", build, n_max - 1, estimates())


def audit_solution_window(df: DeltaForm) -> list[AuditFinding]:
    """Solution-window properties of a gap form from a genuine identity:
    every term of the leading block composite, m1 >= k1, and
    a*log(a) - a <= (k1 + ... + ks) * log(2*m1) for the largest leftover a.

    Gap forms that do not balance on exponent vectors are rejected: the
    window properties are only meaningful for holding identities.
    """
    if df.k1 < 2:
        raise ValueError("window audit requires k1 >= 2")
    if not delta_form_holds(df):
        raise ValueError("gap form does not balance; not derived from a holding identity")
    m1, k1 = df.blocks[0]
    findings = []
    for i in range(k1):
        term = m1 + i
        prime = is_prime(term)
        findings.append(
            AuditFinding(
                "window_term_composite",
                {"m1": m1, "k1": k1, "i": i, "term": term},
                1.0 if prime else 0.0,
                0.0,
                not prime,
                -1.0 if prime else 0.0,
            )
        )
    findings.append(
        AuditFinding(
            "window_m1_ge_k1",
            {"m1": m1, "k1": k1},
            float(k1),
            float(m1),
            m1 >= k1,
            float(m1 - k1),
        )
    )
    if df.leftover:
        a = max(df.leftover)
        ksum = sum(k for _, k in df.blocks)
        findings.append(
            _upper(
                "window_stirling_bound",
                {"m1": m1, "k1": k1, "a": a, "k_sum": ksum},
                a * math.log(a) - a,
                ksum * math.log(2 * m1),
            )
        )
    return findings


# Windows per block of the columnar Erdos and abc window scans, whatever the
# k range.  Both kernels run k-major over a block's rows, so their per-k
# arrays hold one entry per row, not per window; an abc block keeps its
# per-triple columns, about 8,000 int64 entries each at 2^16 windows, within
# factorint's _CHUNK.  Larger blocks cut the per-k numpy calls but cross it.
_BLOCK_WINDOWS = 1 << 16


def _erdos_bound(k: int) -> float:
    return ERDOS_COEFF * k * math.log(k)


@dataclass(frozen=True, eq=False)
class ErdosScanResult:
    """The eligible windows of an Erdos ratio scan as int64 columns in
    (x, k) order: window [x, x + k) has largest prime factor p_max.  Its
    ratio is p_max / ((2/7) k log k); min_at is the first (x, k) of the
    least ratio.  ``findings`` holds the AuditFinding rows, built on first
    read (lhs the bound, rhs p_max, ok iff p_max exceeds the bound, margin
    the ratio)."""

    x: np.ndarray
    k: np.ndarray
    p_max: np.ndarray
    min_ratio: float | None
    min_at: tuple[int, int] | None

    def __len__(self) -> int:
        return len(self.x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ErdosScanResult):
            return NotImplemented
        return (self.min_ratio, self.min_at) == (other.min_ratio, other.min_at) and all(
            np.array_equal(getattr(self, col), getattr(other, col)) for col in ("x", "k", "p_max")
        )

    @cached_property
    def findings(self) -> tuple[AuditFinding, ...]:
        bound = {k: _erdos_bound(k) for k in set(self.k.tolist())}  # np.unique imports numpy.ma
        return tuple(
            AuditFinding(
                "erdos_ratio", {"x": x, "k": k, "p_max": p},
                bound[k], float(p), p > bound[k], p / bound[k],
            )
            for x, k, p in zip(self.x.tolist(), self.k.tolist(), self.p_max.tolist())
        )


def audit_erdos_pdelta(
    x_range: tuple[int, int], k_range: tuple[int, int]
) -> ErdosScanResult:
    """Ratio P(x(x+1)...(x+k-1)) / ((2/7) k log k) over windows of composites.

    Only windows whose k terms are all composite are eligible: x must start
    a run of at least k_lo composites, and k runs up to that run's length
    (at most k_hi).  Columnar, in blocks of consecutive eligible x that hold
    at most _BLOCK_WINDOWS windows (or one x): each block takes the running
    max of the lpf table along k over exactly its windows (_running_max).
    The ratios are informational: there is no hard pass/fail because the
    proven threshold kappa is not quantified.
    """
    x_lo, x_hi = x_range
    k_lo, k_hi = k_range
    if x_lo < 2 or x_hi < x_lo:
        raise ValueError("x range must satisfy 2 <= lo <= hi")
    if k_lo < 2 or k_hi < k_lo:
        raise ValueError("k range must satisfy 2 <= lo <= hi")
    limit = x_hi + k_hi - 1
    lpf = lpf_table(limit)
    primes = np.flatnonzero(table(limit).flags[x_lo : limit + 1]) + x_lo
    xs = np.arange(x_lo, x_hi + 1, dtype=np.int64)
    # the run of composites from x ends at the next prime, or past the limit
    next_prime = np.append(primes, limit + 1)[np.searchsorted(primes, xs)]
    run = np.minimum(next_prime - xs, k_hi)
    keep = run >= k_lo
    xs, run = xs[keep], run[keep]
    if not len(xs):
        empty = np.zeros(0, dtype=np.int64)
        return ErdosScanResult(empty, empty, empty, None, None)
    bound = np.array([_erdos_bound(k) for k in range(k_lo, int(run.max()) + 1)])
    windows = run - (k_lo - 1)  # of each x
    ends = np.cumsum(windows)
    x, k, p_max = (np.empty(int(ends[-1]), dtype=np.int64) for _ in range(3))
    min_ratio = None
    min_at = None
    lo = 0
    while lo < len(xs):
        a = int(ends[lo] - windows[lo])  # the block's first window
        hi = max(lo + 1, int(np.searchsorted(ends, a + _BLOCK_WINDOWS, side="right")))
        b, n = int(ends[hi - 1]), windows[lo:hi]
        first = ends[lo:hi] - n - a  # of each x's windows, in the block
        x[a:b] = np.repeat(xs[lo:hi], n)
        k[a:b] = np.arange(k_lo, b - a + k_lo) - np.repeat(first, n)
        _running_max(lpf, xs[lo:hi], run[lo:hi], first, k_lo, p_max[a:b])
        ratio = p_max[a:b] / bound[k[a:b] - k_lo]
        i = int(ratio.argmin())  # the first cell of the block's minimum
        if min_ratio is None or ratio[i] < min_ratio:
            min_ratio, min_at = float(ratio[i]), (int(x[a + i]), int(k[a + i]))
        lo = hi
    return ErdosScanResult(x, k, p_max, min_ratio, min_at)


def _running_max(lpf, x: np.ndarray, run: np.ndarray, first: np.ndarray, k_lo: int, out):
    """Write the largest lpf in each window [x, x + k), for each x and
    k_lo <= k <= its run, to out[first + k - k_lo], where first holds each
    x's first place; k_lo >= 2.

    k-major, like the abc pair kernel: with the rows sorted by run, longest
    first, the windows still growing at each k are a prefix of them, so each
    k is one np.maximum over that prefix."""
    order = np.argsort(-run, kind="stable")
    x, run, first = x[order], run[order], first[order]
    p = lpf[x]
    growing = np.searchsorted(-run, -np.arange(2, int(run[0]) + 1), side="right")
    for k, n in enumerate(growing.tolist(), 2):
        np.maximum(p[:n], lpf[x[:n] + (k - 1)], out=p[:n])
        if k >= k_lo:
            out[first[:n] + (k - k_lo)] = p[:n]


# Radical products below this fit int64.
_INT64_BOUND = 2**63
# Relative band around 4*log(c) = 7*log(N) inside which float logs cannot
# decide c < N^(7/4); triples there are decided by c**4 < N**7 on Python ints.
_EXACT_BAND = 1e-9
# Relative bound on |estimate - quality| of an abc triple, where quality is
# math.log(c) / math.log(N) and the estimate the same ratio of np.log values:
# with both logs within _LOG_BAND, the ratio is within about 2 * _LOG_BAND,
# far inside this band (a test guards it on the scan's triples).
_QUALITY_BAND = 1e-12


# The columns of an abc window row, in output order.
ABC_COLUMNS = ("m1", "k1", "j1", "j2", "d", "a", "b", "c", "radical_abc", "quality", "explicit_ok")


def _per_row(name: str) -> cached_property:
    """The AbcBlock per-row column of triples[name], built on first read."""
    return cached_property(lambda self: self.triples[name][self._triple_of_row])


@dataclass(frozen=True, eq=False)
class AbcBlock:
    """Smallest-radical abc triples of consecutive windows, as columns in
    (m1, k1) order: one row per window start in ``starts`` and per
    k1_min <= k1 <= k1_max.  Row i is the window [m1, m1 + k1): with terms
    u = m1 + j1 and v = m1 + j2 of the two smallest radicals (ties broken by
    smaller offset) and d = gcd(u, v), c is the larger of u/d, v/d, a the
    smaller and b = |j1 - j2| / d, so a + b = c with a, b, c pairwise
    coprime.

    quality = math.log(c) / math.log(N(abc)); explicit_ok records
    c < N(abc)^(7/4).  radical_abc is int64, or an object array of Python
    ints where the product could overflow int64.  The explicit-abc
    inequality is conjectural: a False here is a reportable event, not an
    error.

    Along k the pair, and with it the triple, changes only when a new term
    enters the two smallest, so each distinct triple is held once:
    ``triples`` maps j1, j2, d, a, b, c, radical_abc and explicit_ok to one
    entry per triple, and triple t covers the rows first[t] to
    first[t + 1] - 1.  All 11 per-row columns are built on first read.
    ``_estimate`` holds the np.log quality of each triple, within a relative
    _QUALITY_BAND of its quality: max_quality reads it, and takes math.log
    only of the triples near its maximum.
    """

    starts: np.ndarray
    k1_min: int
    k1_max: int
    first: np.ndarray
    triples: dict[str, np.ndarray] = field(repr=False)
    _estimate: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.starts) * self._n_k

    @property
    def _n_k(self) -> int:
        return self.k1_max - self.k1_min + 1

    @cached_property
    def m1(self) -> np.ndarray:
        return np.repeat(self.starts, self._n_k)

    @cached_property
    def k1(self) -> np.ndarray:
        return np.arange(len(self), dtype=np.int64) % self._n_k + self.k1_min

    @cached_property
    def _triple_of_row(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.first)), np.diff(self.first, append=len(self)))

    j1, j2, d, a, b, c, radical_abc, explicit_ok = map(
        _per_row, ("j1", "j2", "d", "a", "b", "c", "radical_abc", "explicit_ok")
    )

    @cached_property
    def quality(self) -> np.ndarray:
        return _quality(self.triples["c"], self.triples["radical_abc"])[self._triple_of_row]

    def _windows(self, rows: np.ndarray) -> list[tuple[int, int]]:
        """(m1, k1) of each of the given row indices."""
        n_k = self._n_k
        return list(zip(self.starts[rows // n_k].tolist(), (rows % n_k + self.k1_min).tolist()))

    def max_quality(self) -> tuple[float, tuple[int, int]]:
        """The largest quality and the (m1, k1) of the first row that has it.

        Qualities are positive and their estimates within a relative
        _QUALITY_BAND b, so a triple of the largest quality Q has an estimate
        of at least Q (1 - b) >= top (1 - b) / (1 + b) > top (1 - 3b), top
        the largest estimate, with room to spare for rounding: only the
        triples above that are made exact.  Most of them repeat one (c, N)
        from neighbouring window starts, so math.log runs once per distinct
        pair, at the first triple that has it."""
        near = np.flatnonzero(self._estimate > self._estimate.max() * (1 - 3 * _QUALITY_BAND))
        pairs = zip(self.triples["c"][near].tolist(), self.triples["radical_abc"][near].tolist())
        first_of: dict[tuple[int, int], int] = {}
        for i, pair in enumerate(pairs):
            first_of.setdefault(pair, i)
        c, n = (np.array(col, dtype=object) for col in zip(*first_of))
        quality = _quality(c, n)
        best = int(quality.argmax())  # the first pair, and so the first triple, of the maximum
        t = int(near[list(first_of.values())[best]])
        return float(quality[best]), self._windows(self.first[t : t + 1])[0]

    def explicit_failures(self) -> list[tuple[int, int]]:
        """(m1, k1) of every row whose triple fails c < N(abc)^(7/4), in row order."""
        bad = np.flatnonzero(~self.triples["explicit_ok"]).tolist()
        ends = np.append(self.first[1:], len(self))
        rows = [row for t in bad for row in range(self.first[t], ends[t])]
        return self._windows(np.array(rows, dtype=np.int64))


@dataclass(frozen=True, slots=True)
class AbcTripleReport:
    """One row of an AbcBlock as Python values (see AbcBlock), plus the
    window radical-product bound and chained inequality when a2 is given."""

    m1: int
    k1: int
    j1: int
    j2: int
    d: int
    a: int
    b: int
    c: int
    radical_abc: int
    quality: float
    explicit_ok: bool
    window_bound: AuditFinding | None = None
    ineq4: AuditFinding | None = None


# Window keys are int32 while (largest radical + 1) << bits stays below this,
# int64 beyond: the int32 steps move half the bytes.
_INT32_BOUND = 2**31


def _keys(rad: np.ndarray, bits: int) -> np.ndarray:
    """rad << bits, in the narrowest of int32 and int64 that holds every key
    (rad << bits) | offset with offset < 2^bits strictly below its largest
    value, the kernel's sentinel."""
    dtype = np.int32 if (int(rad.max()) + 1) << bits < _INT32_BOUND else np.int64
    return rad.astype(dtype) << bits


def _smallest_pairs(rad: np.ndarray, k1_min: int, k1_max: int):
    """The runs of windows over which the two smallest radicals stay the
    same, for the windows [i, i + k) of the radicals ``rad`` of consecutive
    terms, every start i < len(rad) - k1_max + 1 and k1_min <= k <= k1_max,
    k1_min >= 2; rows are in (i, k) order, k1_max - k1_min + 1 per start.

    Returns (first, j1, j2), one entry per run: the run's first row, and
    the offsets of the lexicographically smallest and second smallest
    (radical, offset) pairs in its windows.  Each pair is one key
    (radical << bits) | offset, so the smallest among the first k terms is
    a running minimum s1, and the second smallest s2 is the least of
    max(s1 before, key) over the keys since.  The kernel runs k-major: each
    k is one np.maximum and two np.minimum over every start, and a new key
    below s2 starts a run.  The keys must stay below 2^63: the scan's
    radicals are below the sieve ceiling, 2^28, and abc_window_report
    passes ranks."""
    rows = len(rad) - k1_max + 1
    n_k = k1_max - k1_min + 1
    bits = (k1_max - 1).bit_length()
    keys = _keys(rad, bits)
    s1 = keys[:rows].copy()
    s2 = np.full(rows, np.iinfo(keys.dtype).max, dtype=keys.dtype)
    key, t = np.empty_like(s1), np.empty_like(s1)
    new = np.ones(rows, dtype=bool)  # every row starts a run at k = k1_min
    runs = []
    for j in range(1, k1_max):  # the windows grow to k = j + 1 terms
        np.bitwise_or(keys[j : j + rows], j, out=key)
        if j >= k1_min:
            np.less(key, s2, out=new)
        np.maximum(s1, key, out=t)
        np.minimum(s2, t, out=s2)
        np.minimum(s1, key, out=s1)
        if j >= k1_min - 1:
            at = new.nonzero()[0]
            runs.append((at, s1[at], s2[at]))
    at, s1, s2 = (np.concatenate(col) for col in zip(*runs))
    k = np.repeat(np.arange(n_k), [len(r[0]) for r in runs])
    # k-major to row order: within each k the starts ascend, so a stable
    # sort by start (a radix sort while starts fit 16 bits) leaves each
    # start's runs in k order
    order = np.argsort(at.astype(np.min_scalar_type(rows - 1)), kind="stable")
    offset = (1 << bits) - 1
    return (at * n_k + k)[order], s1[order] & offset, s2[order] & offset


def _quality(c: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The exact quality math.log(c) / math.log(n) per entry."""
    return _log(c) / _log(n)


def _abc_decision(c: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quality estimate log(c) / log(n) and the explicit-abc test
    c < n^(7/4) per entry, from np.log of the float64 values of c and n
    (Python ints too).

    The test is read off 7*log(n) - 4*log(c) outside a relative _EXACT_BAND
    of 7*log(n), far wider than the logs' rounding; every entry inside it is
    decided exactly by c**4 < n**7 on Python ints.  np.log and math.log take
    the log of the same float64 and both land within that rounding, so the
    test is the one the math.log values gave.
    """
    log_c, log_n = np.log(c.astype(np.float64)), np.log(n.astype(np.float64))
    gap = 7 * log_n - 4 * log_c
    ok = gap > 0
    for i in np.flatnonzero(np.abs(gap) <= _EXACT_BAND * 7 * log_n).tolist():
        ok[i] = int(c[i]) ** 4 < int(n[i]) ** 7
    return log_c / log_n, ok


def _abc_block(m1: np.ndarray, rad: np.ndarray, k1_min: int, k1_max: int, rad_of) -> AbcBlock:
    """The AbcBlock of windows starting at each m1 (int64, or Python ints)
    with k1_min <= k1 <= k1_max.  rad[j] is the radical of m1[0] + j, for
    j < len(m1) + k1_max - 1, or its rank among them (only their order is
    read); rad_of maps an array of terms to their radicals (int64 or Python
    ints)."""
    first, j1, j2 = _smallest_pairs(rad, k1_min, k1_max)
    lo = m1[first // (k1_max - k1_min + 1)] + np.minimum(j1, j2)
    diff = np.abs(j1 - j2)
    d = np.gcd(lo, diff)  # gcd(u, v) = gcd(lo, hi - lo)
    a, b, c = lo // d, diff // d, (lo + diff) // d
    radical_abc = rad_of(a) * rad_of(b) * rad_of(c)
    estimate, explicit_ok = _abc_decision(c, radical_abc)
    triples = dict(
        j1=j1, j2=j2, d=d, a=a, b=b, c=c, radical_abc=radical_abc, explicit_ok=explicit_ok
    )
    return AbcBlock(m1, k1_min, k1_max, first, triples, estimate)


def _chain_ineq4(m1: int, k1: int, a2: int) -> AuditFinding:
    rhs = 1.75 * (
        k1 * (2 * THETA_COEFF) * a2 / (k1 - 1)
        + 2 * k1 * k1 * math.log(k1) / (k1 - 1)
        + k1 * math.log(k1)
    )
    return _upper("chain_ineq4", {"m1": m1, "k1": k1, "a2": a2}, k1 * math.log(m1), rhs)


def abc_window_report(m1: int, k1: int, a2: int | None = None) -> AbcTripleReport:
    """Smallest-radical abc triple for the window [m1, m1 + k1).

    The one-row AbcBlock of the scan's selection and triple code, with the
    radicals found by factoring and the radical product on Python ints.
    With a2 given, also evaluates the window radical-product bound
    exp(1.00008*a2 + k1*log k1) and the chained inequality bounding
    k1*log(m1).
    """
    if m1 < 1:
        raise ValueError("m1 must be >= 1")
    if k1 < 3:
        raise ValueError("k1 must be >= 3 so two distinct minimal-radical terms exist")
    if m1 > _MR_LIMIT - k1:  # factorize takes every term below _MR_LIMIT
        raise ValueError(f"m1 must be <= {_MR_LIMIT - k1}, got {m1}")
    if a2 is not None and a2 < 2:
        raise ValueError("a2 must be >= 2")
    # one window needs k1 + 3 radicals, not a table up to m1 + k1; each
    # term is factored once, though a and c are window terms when d = 1
    rad = cache(radical)
    window = [rad(m1 + j) for j in range(k1)]
    # the selection reads only the order of the radicals: their ranks keep
    # the selection keys small however large the radicals are
    ranks = np.unique(window, return_inverse=True)[1]
    block = _abc_block(
        np.array([m1], dtype=object),  # m1 may pass 2^63: factorize reaches 3.3e24
        ranks,
        k1,
        k1,
        lambda xs: np.array([rad(x) for x in xs.tolist()], dtype=object),
    )
    row = {name: getattr(block, name).tolist()[0] for name in ABC_COLUMNS}
    # selection invariant: the chosen radicals are <= every other in the window
    j1, j2 = row["j1"], row["j2"]
    assert max(window[j1], window[j2]) <= min(r for j, r in enumerate(window) if j not in (j1, j2))
    if a2 is None:
        return AbcTripleReport(**row)
    log_prod = math.fsum(math.log(r) for r in window)
    window_bound = _upper(
        "abc_window_bound",
        {"m1": m1, "k1": k1, "a2": a2},
        log_prod,
        THETA_COEFF * a2 + k1 * math.log(k1),
    )
    return AbcTripleReport(**row, window_bound=window_bound, ineq4=_chain_ineq4(m1, k1, a2))


def abc_scan(m1_max: int, k1_min: int = 3, k1_max: int = 50):
    """Yield AbcBlocks covering every window with m1 <= m1_max and
    k1_min <= k1 <= k1_max in (m1, k1) order, from one radical table;
    linear in the number of windows.  The radical product is int64 while
    a, c < m1_max + k1_max and b < k1_max bound it below 2^63, Python ints
    beyond."""
    if k1_min < 3:
        raise ValueError("k1_min must be >= 3")
    if k1_max < k1_min:
        raise ValueError("k1_max must be >= k1_min")
    if m1_max < 1:
        raise ValueError("m1_max must be >= 1")
    rad = radical_table(m1_max + k1_max)
    if (m1_max + k1_max) ** 2 * k1_max < _INT64_BOUND:
        rad_of = rad.__getitem__
    else:
        def rad_of(xs):
            return rad[xs].astype(object)
    rows = max(1, _BLOCK_WINDOWS // (k1_max - k1_min + 1))
    for lo in range(1, m1_max + 1, rows):
        hi = min(lo + rows, m1_max + 1)
        m1 = np.arange(lo, hi, dtype=np.int64)
        yield _abc_block(m1, rad[lo : hi + k1_max - 1], k1_min, k1_max, rad_of)


def audit_proof_chain(df: DeltaForm, c: int, kappa: int = 2) -> list[AuditFinding]:
    """Evaluate the chained inequalities for a gap form (synthetic forms
    allowed): the k1*log(m1) bound, the largest-leftover lower bound (only
    when k1 >= kappa, the unquantified threshold), the gap-size branch, and
    the raw ratio k1*log(k1) / a2 (the constant the chain would need).

    Purely diagnostic: findings carry values and margins, no theorem is
    claimed.  The ratio finding's margin is the implied constant itself.
    """
    if df.k1 < 2:
        raise ValueError("proof-chain audit requires k1 >= 2")
    if not df.leftover:
        raise ValueError("no leftover entries: the largest leftover a2 is undefined")
    if c < 1:
        raise ValueError("c must be >= 1")
    m1, k1 = df.blocks[0]
    a2 = max(df.leftover)
    findings = [_chain_ineq4(m1, k1, a2)]
    if k1 >= kappa:
        findings.append(
            _upper(
                "chain_ineq5",
                {"k1": k1, "a2": a2, "kappa": kappa},
                _erdos_bound(k1),
                float(a2),
            )
        )
    ks = [k for _, k in df.blocks]
    if len(ks) == 1:
        findings.append(
            AuditFinding(
                "chain_branch",
                {"k1": k1, "branch": "single-block", "c": c},
                0.0,
                float(c),
                True,
                float(c),
            )
        )
    else:
        k_rest = max(ks[1:])
        branch = "k2<=k1" if k_rest <= k1 else "k1<k2"
        ratio = k_rest / k1
        findings.append(
            AuditFinding(
                "chain_branch",
                {"k1": k1, "k_rest_max": k_rest, "branch": branch, "c": c},
                ratio,
                float(c),
                ratio <= c + SLACK,
                c - ratio,
            )
        )
    lhs6 = k1 * math.log(k1)
    findings.append(
        AuditFinding(
            "chain_ineq6_ratio",
            {"k1": k1, "a2": a2},
            lhs6,
            float(a2),
            True,
            lhs6 / a2,
        )
    )
    return findings


def findings_csv(findings, meta: dict | None = None) -> str:
    """Render findings as CSV: check_id, flattened parameters, lhs, rhs,
    margin, ok.  Deterministic for identical inputs; an optional run-metadata
    header goes into a leading comment line."""
    lines = []
    if meta:
        lines.append("# " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)))
    findings = list(findings)
    keys: list[str] = []
    for f in findings:
        for k in f.parameters:
            if k not in keys:
                keys.append(k)
    lines.append(",".join(["check_id", *keys, "lhs", "rhs", "margin", "ok"]))
    for f in findings:
        params = [str(f.parameters.get(k, "")) for k in keys]
        lines.append(
            ",".join(
                [
                    f.check_id,
                    *params,
                    repr(float(f.lhs_value)),
                    repr(float(f.rhs_value)),
                    repr(float(f.margin)),
                    "true" if f.ok else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"
