"""Independent oracles for the test suite.

The brute-force oracles decide questions by literal big-integer arithmetic
(or raw trial division of the literal value), deliberately avoiding the
package's exponent-vector machinery so the two routes can check each other.
The full-vector descent at the end is the census engine's reference: the same
pruned search over a dict residual that subtracts and re-adds the whole a!
vector at every value, walked from the level's upper bound.  It counts a node
for each value whose factorial is at most the literal residual, so its count
is the engine's without the engine's float size cap, including the census
rule that a right-hand entry is walked (one node) but never placed on the
left.  ``non_increasing`` lists the engine's work units recursively, in
the engine's order, and ``record_jsonl_per_row`` and ``census_report_per_row``
format the census payload and count its summary one row at a time.
The per-window Python walk is the reference for the columnar abc window scan,
and the per-(x, k) walk for the columnar Erdos ratio scan; both read radical
and largest-prime-factor tables built here, one strided op per prime, not
the package's tables.
The density section at the end counts orderings for the c = inf region volume,
keeps the Monte Carlo sampler in its first, one-array-per-operation form and
the dense hit counter that tests every constraint on every sample, and
states the conjectured s = 2 closed form (a conjecture the quadrature is
tested against, not a proof).
"""

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np

from factprod.audit import ERDOS_COEFF, AuditFinding
from factprod.equations import NONTRIVIAL, FactorialEquation, nc_pairings
from factprod.factorint import factorial_expvec, radical, table
from factprod.search import CensusSummary


def factor_literal(n: int) -> dict[int, int]:
    """Trial-division factorization of a literal big integer."""
    out: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def exponent_in_literal_factorial(n: int, p: int) -> int:
    """Exponent of p in n! by repeatedly dividing the literal value."""
    val = math.factorial(n)
    e = 0
    while val % p == 0:
        val //= p
        e += 1
    return e


def brute_census(n1_max: int, t_max: int, s_max: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (lhs, rhs) with non-increasing sides, entries >= 2, disjoint sides,
    rhs[0] > lhs[0], and equal big-integer factorial products."""
    sols = set()
    rhs_list: list[tuple[int, ...]] = []

    def grow(prefix):
        rhs_list.append(tuple(prefix))
        if len(prefix) < s_max:
            for v in range(prefix[-1], 1, -1):
                grow(prefix + [v])

    for n1 in range(3, n1_max + 1):
        grow([n1])
    for rhs in rhs_list:
        target = math.prod(math.factorial(n) for n in rhs)
        n1 = rhs[0]
        for t in range(1, t_max + 1):
            for combo in combinations_with_replacement(range(2, n1), t):
                lhs = tuple(sorted(combo, reverse=True))
                if set(lhs) & set(rhs):
                    continue
                if math.prod(math.factorial(a) for a in lhs) == target:
                    sols.add((lhs, rhs))
    return sols


def brute_delta_search(k_list, x_max: int, t_max: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Big-integer oracle for the fixed-gap consecutive-product search."""
    s = len(k_list)
    sols = set()

    def xs_iter(prefix):
        if len(prefix) == s:
            yield tuple(prefix)
            return
        hi = prefix[-1] if prefix else x_max
        for v in range(hi, 0, -1):
            yield from xs_iter(prefix + [v])

    for xs in xs_iter([]):
        if xs[0] < 3:
            continue
        target = 1
        for x, k in zip(xs, k_list):
            target *= math.prod(range(x, x + k))
        for t in range(1, t_max + 1):
            for combo in combinations_with_replacement(range(2, xs[0]), t):
                if math.prod(math.factorial(a) for a in combo) == target:
                    sols.add((xs, tuple(sorted(combo, reverse=True))))
    return sols


def classify_brute(lhs, rhs) -> str:
    return "trivial" if any(abs(a - n) == 1 for a in lhs for n in rhs) else "nontrivial"


# ---------------------------------------------------------------- full-vector descent

def _sub_entries(R: dict[int, int], entries) -> bool:
    """Subtract factorial exponents from the residual; True when no exponent
    went negative.  Zero entries are deleted so max(R) is the top outstanding
    prime.  Always fully applied; undo with _add_entries."""
    clean = True
    for p, e in entries:
        v = R.get(p, 0) - e
        if v:
            R[p] = v
            if v < 0:
                clean = False
        else:
            R.pop(p, None)
    return clean


def _add_entries(R: dict[int, int], entries) -> None:
    for p, e in entries:
        v = R.get(p, 0) + e
        if v:
            R[p] = v
        else:
            R.pop(p, None)


def _full_vector_descend(R, lhs, ub, t_max, nodes, emit, skip=frozenset()) -> None:
    """Walk a = ub, ..., p* over the dict residual R.  A node is one walked a
    with a! <= the literal residual prod p^e, the values the engine's size
    cap lets a level walk, decided here on big integers."""
    if len(lhs) >= t_max:
        return
    p_star = max(R)
    if p_star > ub:
        return
    literal = math.prod(p**e for p, e in R.items())
    for a in range(ub, max(p_star, 2) - 1, -1):
        nodes[0] += math.factorial(a) <= literal
        if a in skip:
            continue
        entries = factorial_expvec(a).entries
        if _sub_entries(R, entries):
            lhs.append(a)
            if not R:
                emit(tuple(lhs))
            else:
                _full_vector_descend(R, lhs, a, t_max, nodes, emit, skip)
            lhs.pop()
        _add_entries(R, entries)


def full_vector_census(n1_max: int, t_max: int, s_max: int, skip_rhs: bool = True):
    """(disjoint (lhs, rhs) pairs in canonical (n1, rhs, lhs) order, nodes).
    With ``skip_rhs`` a left side never places a right-hand entry; without it
    such left sides are found and dropped, at the cost of more nodes."""
    rhs_list: list[tuple[int, ...]] = []

    def grow(prefix):
        rhs_list.append(tuple(prefix))
        if len(prefix) < s_max:
            for v in range(prefix[-1], 1, -1):
                grow(prefix + [v])

    for n1 in range(3, n1_max + 1):
        grow([n1])
    sols, nodes = [], [0]
    for rhs in rhs_list:
        R: dict[int, int] = {}
        for n in rhs:
            _add_entries(R, factorial_expvec(n).entries)

        def emit(lhs, rhs=rhs):
            if not set(lhs) & set(rhs):
                sols.append((lhs, rhs))

        skip = frozenset(rhs) if skip_rhs else frozenset()
        _full_vector_descend(R, [], rhs[0] - 1, t_max, nodes, emit, skip)
    sols.sort(key=lambda k: (k[1][0], k[1], k[0]))
    return sols, nodes[0]


def full_vector_delta(k_list, x_max: int, t_max: int):
    """(sorted (xs, lhs) solutions of the fixed-gap search, nodes)."""
    s = len(k_list)
    sols, nodes = [], [0]

    def xs_iter(prefix):
        if len(prefix) == s:
            yield tuple(prefix)
            return
        for v in range(prefix[-1], 0, -1):
            yield from xs_iter(prefix + [v])

    for x1 in range(3, x_max + 1):
        for xs in xs_iter([x1]):
            R: dict[int, int] = {}
            for x, k in zip(xs, k_list):
                _add_entries(R, factorial_expvec(x + k - 1).entries)
                _sub_entries(R, factorial_expvec(x - 1).entries)
            if R:
                _full_vector_descend(
                    R, [], xs[0] - 1, t_max, nodes, lambda lhs, xs=xs: sols.append((xs, lhs))
                )
    sols.sort(key=lambda r: (r[0][0], r[0], r[1]))
    return sols, nodes[0]


def non_increasing(first_max: int, least: int, min_len: int, max_len: int):
    """The census and fixed-gap work units in the engine's order, recursively:
    non-increasing tuples with first entry 3..first_max, later entries
    >= least and min_len..max_len entries, each before its extensions."""

    def grow(prefix: tuple[int, ...]):
        if len(prefix) >= min_len:
            yield prefix
        if len(prefix) < max_len:
            for v in range(prefix[-1], least - 1, -1):
                yield from grow(prefix + (v,))

    for first in range(3, first_max + 1):
        yield from grow((first,))


def record_jsonl_per_row(result) -> str:
    """The census payload one row at a time, each distinct rhs and class
    formatted once: the reference for ``cli.record_jsonl``."""
    tail = {
        cls: f',"holds":{json.dumps(cls is not None)},"class":{json.dumps(cls)},'
        for cls in set(result.classification)
    }
    rhs_text = {rhs: ",".join(map(str, rhs)) for rhs in set(result.rhs)}
    return "".join(
        f'{{"lhs":[{",".join(map(str, lhs))}],"rhs":[{rhs_text[rhs]}]'
        f'{tail[cls]}"t":{len(lhs)},"s":{len(rhs)}}}\n'
        for lhs, rhs, cls in zip(result.lhs, result.rhs, result.classification)
    )


def _primes_upto(limit: int) -> list[int]:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).tolist()


def radical_table_reference(limit: int) -> np.ndarray:
    """rad[i] for 0 <= i <= limit: every prime multiplies into all its
    multiples, one strided op per prime; rad[0] = 0."""
    rad = np.ones(limit + 1, dtype=np.int64)
    rad[0] = 0
    for p in _primes_upto(limit):
        rad[p::p] *= p
    return rad


def lpf_table_reference(limit: int) -> np.ndarray:
    """The largest prime factor of each i <= limit: every prime, in
    increasing order, writes all its multiples; lpf[0] = 0 and lpf[1] = 1."""
    lpf = np.zeros(limit + 1, dtype=np.int64)
    lpf[1] = 1
    for p in _primes_upto(limit):
        lpf[p::p] = p
    return lpf


def _abc_walk(rad, m1s, k1_min: int, k1_max: int):
    """(m1, k1, j1, j2, d, a, b, c, radical_abc, quality, explicit_ok) for
    every m1 in m1s and k1_min <= k1 <= k1_max, one window at a time.

    rad[n] is the radical of n as a Python int.  The two lexicographically
    smallest (radical, offset) pairs are kept as the window grows; the
    radical product is a Python int and the explicit-abc test is decided by
    c**4 < N**7 on it.
    """
    for m1 in m1s:
        b0 = b1 = None
        for k in range(1, k1_max + 1):
            cand = (rad[m1 + k - 1], k - 1)
            if b0 is None or cand < b0:
                b0, b1 = cand, b0
            elif b1 is None or cand < b1:
                b1 = cand
            if k < k1_min:
                continue
            j1, j2 = b0[1], b1[1]
            u, v = m1 + j1, m1 + j2
            hi, lo = (u, v) if u >= v else (v, u)
            d = math.gcd(hi, lo)
            cc, aa, bb = hi // d, lo // d, (hi - lo) // d
            rad_abc = rad[aa] * rad[bb] * rad[cc]
            yield (
                m1, k, j1, j2, d, aa, bb, cc, rad_abc,
                math.log(cc) / math.log(rad_abc), cc**4 < rad_abc**7,
            )


def abc_scan_rows(m1_max: int, k1_min: int, k1_max: int) -> list[tuple]:
    """Every window row of the scan over m1 <= m1_max, from a list radical table."""
    rad = radical_table_reference(m1_max + k1_max).tolist()
    return list(_abc_walk(rad, range(1, m1_max + 1), k1_min, k1_max))


class _Radicals(dict):
    def __missing__(self, n: int) -> int:
        self[n] = r = radical(n)
        return r


def abc_window_row(m1: int, k1: int) -> tuple:
    """The row of one window, with every radical found by factoring."""
    return next(_abc_walk(_Radicals(), (m1,), k1, k1))


def erdos_pdelta_reference(x_range, k_range):
    """(findings, min_ratio, min_at) of the Erdos ratio scan, one (x, k)
    window at a time: each x walks k up from 1, keeping the running max of
    the largest prime factor, and stops at the first prime term."""
    x_lo, x_hi = x_range
    k_lo, k_hi = k_range
    limit = x_hi + k_hi - 1
    lpf = lpf_table_reference(limit)
    flags = table(limit).flags
    findings = []
    min_ratio = None
    min_at = None
    for x in range(x_lo, x_hi + 1):
        if flags[x]:
            continue
        pmax = 0
        for k in range(1, k_hi + 1):
            term = x + k - 1
            if term > limit or flags[term]:
                break
            pmax = max(pmax, int(lpf[term]))
            if k < k_lo:
                continue
            bound = ERDOS_COEFF * k * math.log(k)
            ratio = pmax / bound
            findings.append(
                AuditFinding(
                    "erdos_ratio",
                    {"x": x, "k": k, "p_max": pmax},
                    bound,
                    float(pmax),
                    pmax > bound,
                    ratio,
                )
            )
            if min_ratio is None or ratio < min_ratio:
                min_ratio = ratio
                min_at = (x, k)
    return findings, min_ratio, min_at


# ---------------------------------------------------------------- densities

def ordering_density(t: int, s: int, pairing: tuple[int, ...]) -> Fraction:
    """Exact volume of the c = inf constraint region: the share of the (s+t)!
    strict orders of x_1..x_s, y_1..y_t with x_1 > ... > x_s, y_1 > ... > y_t,
    x_1 > y_1 and x_j > y_{i_j} (ties have measure zero)."""
    count = 0
    for rank in permutations(range(s + t)):
        x, y = rank[:s], rank[s:]
        if (
            all(x[j] > x[j + 1] for j in range(s - 1))
            and all(y[i] > y[i + 1] for i in range(t - 1))
            and x[0] > y[0]
            and all(x[j - 1] > y[i - 1] for j, i in enumerate(pairing, start=2))
        ):
            count += 1
    return Fraction(count, math.factorial(s + t))


def sample_block_reference(seed: int, start: int, count: int, dims: int) -> np.ndarray:
    """The counter-based sampler written one whole-array expression per step."""
    phi = np.uint64(0x9E3779B97F4A7C15)
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    idx = np.arange(start * dims, (start + count) * dims, dtype=np.uint64)
    z = base + (idx + np.uint64(1)) * phi
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = z ^ (z >> np.uint64(31))
    return ((u >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))).reshape(count, dims)


def count_hits_reference(pts: np.ndarray, spec) -> int:
    """Points of a (count, s + t) block inside the region: every constraint
    tested on every row, as the indicator writes it."""
    s, t = spec.s, spec.t
    x = pts[:, :s]
    y = pts[:, s:]
    ok = np.ones(len(pts), dtype=bool)
    for j in range(s - 1):
        ok &= x[:, j] >= x[:, j + 1]
    for i in range(t - 1):
        ok &= y[:, i] >= y[:, i + 1]
    k1 = x[:, 0] - y[:, 0]
    ok &= k1 > 0
    for j, i in enumerate(spec.pairing, start=2):
        gap = x[:, j - 1] - y[:, i - 1]
        ok &= gap > 0
        if math.isfinite(spec.c):
            ok &= gap <= spec.c * k1
    return int(np.count_nonzero(ok))


def s2_density_conjecture(t: int, u: int, c) -> Fraction:
    """CONJECTURE, not a proven closed form: the s = 2 region with pairing
    (u,) and finite c >= 1 has volume c * (1 - (1 - 1/c)^u) / (t + 2)!.

    It was fitted to exact rational volumes of small shapes and reduces to
    the paper's 1/60 - 1/(120c) at t = 3, u = 2; c is taken exactly."""
    c = Fraction(c)
    return c * (1 - (1 - 1 / c) ** u) / math.factorial(t + 2)


def trivial_family_census(n1_max: int, t_max: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The trivial family of the s = 1 census, (n-1)! b_2! ... b_t! = n! with
    n = b_2! ... b_t! <= n1_max, t <= t_max and n - 1 >= b_2 >= ... >= b_t >= 2,
    as (lhs, rhs) pairs, enumerated on integers."""
    out = set()

    def grow(tail: tuple[int, ...], n: int) -> None:
        if tail and n - 1 >= tail[0]:
            out.add(((n - 1,) + tail, (n,)))
        if len(tail) < t_max - 1:
            for b in range(2, (tail[-1] if tail else n1_max) + 1):
                if n * math.factorial(b) > n1_max:
                    break
                grow(tail + (b,), n * math.factorial(b))

    grow((), 1)
    return out


def census_report_per_row(result, c=None):
    """``census_report`` one row at a time on the tuple views of a
    CensusResult, building a FactorialEquation for every nontrivial row: the
    reference for the columnar report."""
    cls = result.classification
    labels = (k or "non-solution" for k in cls)
    counts = dict(Counter(zip(map(len, result.lhs), map(len, result.rhs), labels)))
    extremal = max((r[0] for r, k in zip(result.rhs, cls) if k is not None), default=None)
    nontrivial: list[str] = []
    tallies: dict[str, tuple[int, int]] = {}
    for i in (i for i, k in enumerate(cls) if k == NONTRIVIAL):
        eq = FactorialEquation(result.lhs[i], result.rhs[i])
        nontrivial.append(str(eq))
        if c is not None:
            member = nc_pairings(eq, c)
            tallies[str(eq)] = (len(member), sum(member))
    return CensusSummary(len(result), counts, extremal, nontrivial, c, tallies)
