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
bounds, the abc window bound and chain inequalities 4 and 5) is built by one
helper, ``_upper``, with the same float slack and margin rhs - lhs.  The
chain_ineq4 bound has one definition shared by the abc report and the proof
chain.  The smallest-radical pair is selected by one window walk,
``_abc_rows``: ``abc_scan`` streams it over every m1, and
``abc_window_report`` takes its single row for one window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .equations import DeltaForm, delta_form_holds
from .factorint import is_prime, lpf_table, radical, radical_table, table

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


def _upper(check_id: str, parameters: dict, lhs: float, rhs: float) -> AuditFinding:
    """The strict real-valued bound lhs < rhs, up to SLACK; margin rhs - lhs."""
    return AuditFinding(check_id, parameters, lhs, rhs, lhs < rhs + SLACK, rhs - lhs)


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


def audit_theta(nu_max: float) -> list[AuditFinding]:
    """Check theta(nu) < 1.00008 * nu at every prime <= nu_max (the only
    points where the left side jumps)."""
    if nu_max < 0:
        raise ValueError("nu_max must be nonnegative")
    if nu_max < 2:
        return []
    ps = table(int(nu_max) + 1).primes_upto(nu_max)
    logs = np.log(ps.astype(np.float64))
    return [
        _upper("theta_upper", {"nu": p}, total, THETA_COEFF * p)
        for p, total in zip(ps.tolist(), _kahan(logs.tolist()))
    ]


def audit_mertens(nu_max: float) -> list[AuditFinding]:
    """Check sum of (log p)/p < log(nu) at every prime <= nu_max and at
    nu = nu_max itself."""
    if nu_max < 0:
        raise ValueError("nu_max must be nonnegative")
    if nu_max < 2:
        return []
    ps = table(int(nu_max) + 1).primes_upto(nu_max)
    arr = ps.astype(np.float64)
    terms = np.log(arr) / arr
    findings = []
    total = 0.0
    for p, total in zip(ps.tolist(), _kahan(terms.tolist())):
        findings.append(_upper("mertens_upper", {"nu": p}, total, math.log(p)))
    if float(nu_max) > float(ps[-1]):
        findings.append(_upper("mertens_upper", {"nu": float(nu_max)}, total, math.log(nu_max)))
    return findings


def audit_stirling_lower(n_max: int) -> list[AuditFinding]:
    """Check a*log(a) - a <= log(a!) for 2 <= a <= n_max, with log(a!)
    accumulated as a compensated sum of log i."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    logs = np.log(np.arange(2, n_max + 1, dtype=np.float64))
    return [
        _upper("stirling_lower", {"a": a}, a * math.log(a) - a, logfact)
        for a, logfact in zip(range(2, n_max + 1), _kahan(logs.tolist()))
    ]


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


@dataclass(frozen=True, slots=True)
class ErdosScanResult:
    findings: tuple[AuditFinding, ...]
    min_ratio: float | None
    min_at: tuple[int, int] | None


def audit_erdos_pdelta(
    x_range: tuple[int, int], k_range: tuple[int, int]
) -> ErdosScanResult:
    """Ratio P(x(x+1)...(x+k-1)) / ((2/7) k log k) over windows of composites.

    Only windows whose k terms are all composite are eligible.  Findings are
    informational (ok records whether the ratio exceeds 1); there is no hard
    pass/fail because the proven threshold kappa is not quantified.  margin
    carries the ratio.
    """
    x_lo, x_hi = x_range
    k_lo, k_hi = k_range
    if x_lo < 2 or x_hi < x_lo:
        raise ValueError("x range must satisfy 2 <= lo <= hi")
    if k_lo < 2 or k_hi < k_lo:
        raise ValueError("k range must satisfy 2 <= lo <= hi")
    limit = x_hi + k_hi - 1
    lpf = lpf_table(limit)
    flags = table(limit).flags
    findings: list[AuditFinding] = []
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
    return ErdosScanResult(tuple(findings), min_ratio, min_at)


@dataclass(frozen=True, slots=True)
class AbcTripleReport:
    """Coprime triple built from the two smallest radicals in the window
    [m1, m1 + k1): with terms u = m1 + j1 and v = m1 + j2 and d = gcd(u, v),
    c is the larger of u/d, v/d, a the smaller, and b = |j1 - j2| / d, so
    a + b = c with a, b, c pairwise coprime.

    quality = log(c) / log(N(abc)); explicit_ok records c < N(abc)^(7/4)
    (decided exactly on integers).  The explicit-abc inequality is
    conjectural: a False here is a reportable event, not an error.
    """

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


def _abc_rows(rad, m1s, k1_min: int, k1_max: int):
    """AbcTripleReports for every m1 in m1s and k1_min <= k1 <= k1_max.

    rad[n] is the radical of n as a Python int (so the radical product
    cannot overflow), from a list covering m1 + k1_max - 1 or a _Radicals
    lookup.  The two lexicographically smallest (radical, offset) pairs are
    kept as the window grows, so each m1 costs k1_max steps.
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
            yield AbcTripleReport(
                m1, k, j1, j2, d, aa, bb, cc, rad_abc,
                math.log(cc) / math.log(rad_abc), cc**4 < rad_abc**7,
            )


def _chain_ineq4(m1: int, k1: int, a2: int) -> AuditFinding:
    rhs = 1.75 * (
        k1 * (2 * THETA_COEFF) * a2 / (k1 - 1)
        + 2 * k1 * k1 * math.log(k1) / (k1 - 1)
        + k1 * math.log(k1)
    )
    return _upper("chain_ineq4", {"m1": m1, "k1": k1, "a2": a2}, k1 * math.log(m1), rhs)


class _Radicals(dict):
    """rad[n] by factoring n on first use: one window needs k1 + 3 radicals,
    not a table up to m1 + k1."""

    def __missing__(self, n: int) -> int:
        self[n] = r = radical(n)
        return r


def abc_window_report(m1: int, k1: int, a2: int | None = None) -> AbcTripleReport:
    """Smallest-radical abc triple for the window [m1, m1 + k1).

    Selects the two smallest N(m1 + i) (ties broken by smaller offset) and
    forms the coprime triple.  With a2 given, also evaluates the window
    radical-product bound exp(1.00008*a2 + k1*log k1) and the chained
    inequality bounding k1*log(m1).
    """
    if m1 < 1:
        raise ValueError("m1 must be >= 1")
    if k1 < 3:
        raise ValueError("k1 must be >= 3 so two distinct minimal-radical terms exist")
    if a2 is not None and a2 < 2:
        raise ValueError("a2 must be >= 2")
    rad = _Radicals()
    rep = next(_abc_rows(rad, (m1,), k1, k1))
    window = [rad[m1 + j] for j in range(k1)]
    # selection invariant: the chosen radicals are <= every other in the window
    others = [r for j, r in enumerate(window) if j not in (rep.j1, rep.j2)]
    assert max(window[rep.j1], window[rep.j2]) <= min(others)
    if a2 is None:
        return rep
    log_prod = math.fsum(math.log(r) for r in window)
    window_bound = _upper(
        "abc_window_bound",
        {"m1": m1, "k1": k1, "a2": a2},
        log_prod,
        THETA_COEFF * a2 + k1 * math.log(k1),
    )
    return replace(rep, window_bound=window_bound, ineq4=_chain_ineq4(m1, k1, a2))


def abc_scan(m1_max: int, k1_min: int = 3, k1_max: int = 50):
    """Stream AbcTripleReports for every window with m1 <= m1_max and
    k1_min <= k1 <= k1_max, sharing one radical table; linear in the number
    of (m1, k1) pairs."""
    if k1_min < 3:
        raise ValueError("k1_min must be >= 3")
    if k1_max < k1_min:
        raise ValueError("k1_max must be >= k1_min")
    if m1_max < 1:
        raise ValueError("m1_max must be >= 1")
    rad = radical_table(m1_max + k1_max).tolist()
    yield from _abc_rows(rad, range(1, m1_max + 1), k1_min, k1_max)


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
                ERDOS_COEFF * k1 * math.log(k1),
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
