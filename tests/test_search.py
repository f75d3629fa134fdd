import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprod.equations import NONTRIVIAL, TRIVIAL, SolutionRecord, verify
from factprod.search import (
    CensusResult,
    DeltaSearchSpec,
    ResourceGuardError,
    SearchGuards,
    SearchSpec,
    census_report,
    search_delta,
    search_factorial_products,
)

from conftest import patched_pool
from oracles import (
    brute_census,
    brute_delta_search,
    classify_brute,
    full_vector_census,
    full_vector_delta,
    non_increasing,
    trivial_family_census,
)


def keyset(records):
    return {(r.eq.lhs, r.eq.rhs) for r in records}


def fields(t, row):
    """The exponents of a dense row of ``_Tables`` t (a residual or a
    Legendre row of ``fact``), one per prime rank, as Python ints."""
    assert len(row) == len(t.primes)
    return [int(e) for e in row]


def expvec(t, row):
    """``fields`` as the (prime, exponent) pairs of its nonzero entries."""
    return tuple((p, e) for p, e in zip(t.primes.tolist(), fields(t, row)) if e)


def full_fact(t):
    """Every column of t's Legendre rows, which it builds on demand."""
    return t.columns(len(t.primes))


def left_sides(t, target, ub, budget):
    """The engine's left sides of one target given as (n, sign) terms."""
    terms = [(np.array([n]), sign) for n, sign in target]
    unit, lhs, left = t.left_sides(terms, np.array([ub]), budget, np.array([0]))
    assert not left and not unit.any()
    return [tuple(a for a in row if a) for row in lhs.tolist()]


def literal_fields(t, n):
    """The exponents of the literal integer n over the primes of ``_Tables``
    t, found by division, and the cofactor left once they are divided out."""
    out = []
    for p in t.primes.tolist():
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append(e)
    return out, n


# ---------------------------------------------------------------- censuses

def test_census_n10_nontrivial_matches_known_list():
    recs = search_factorial_products(
        SearchSpec(n1_max=10, t_max=4, s_max=1, nontrivial_only=True)
    ).records
    assert keyset(recs) == {
        ((7, 3, 3, 2), (9,)),
        ((7, 6), (10,)),
        ((7, 5, 3), (10,)),
    }


def test_census_n16_formal_rule():
    recs = search_factorial_products(SearchSpec(n1_max=16, t_max=5, s_max=1)).records
    nontrivial = {(r.eq.lhs, r.eq.rhs) for r in recs if r.classification == NONTRIVIAL}
    assert nontrivial == {
        ((7, 3, 3, 2), (9,)),
        ((7, 6), (10,)),
        ((7, 5, 3), (10,)),
        ((14, 5, 2), (16,)),
    }
    trivial = {(r.eq.lhs, r.eq.rhs) for r in recs if r.classification == TRIVIAL}
    assert ((15, 2, 2, 2, 2), (16,)) in trivial  # found, classified trivial
    assert ((7, 2, 2, 2), (8,)) in trivial


def test_census_oracle_equivalence_small():
    spec = SearchSpec(n1_max=10, t_max=4, s_max=2)
    recs = search_factorial_products(spec).records
    want = brute_census(10, 4, 2)
    assert keyset(recs) == want
    for r in recs:
        assert r.classification == classify_brute(r.eq.lhs, r.eq.rhs)


def test_every_record_verifies_and_no_duplicates():
    recs = search_factorial_products(SearchSpec(n1_max=12, t_max=4, s_max=2)).records
    seen = set()
    for r in recs:
        assert r.holds and verify(r.eq).holds
        key = (r.eq.lhs, r.eq.rhs)
        assert key not in seen
        seen.add(key)


def test_canonical_order_and_worker_determinism():
    spec = SearchSpec(n1_max=12, t_max=4, s_max=2)
    base = search_factorial_products(spec, workers=1).records
    keys = [(r.eq.rhs[0], r.eq.rhs, r.eq.lhs) for r in base]
    assert keys == sorted(keys)
    for w in (2, 5):
        assert [
            (r.eq.lhs, r.eq.rhs) for r in search_factorial_products(spec, workers=w).records
        ] == [(r.eq.lhs, r.eq.rhs) for r in base]


def test_forked_records_equal_in_process_records():
    # forked workers send plain rows; the parent's columns build records
    # equal to the serial ones (a guard trip: see the workers=2 trip test)
    spec = SearchSpec(n1_max=24, t_max=6, s_max=3)
    base = search_factorial_products(spec, workers=1)
    forked = search_factorial_products(spec, workers=2)
    assert forked == base and forked.records == base.records
    dspec = DeltaSearchSpec((2, 3), 30, 5)
    assert search_delta(dspec, workers=2) == search_delta(dspec, workers=1)


def test_nc_filter():
    spec = SearchSpec(n1_max=10, t_max=4, s_max=2, c=1, nontrivial_only=True)
    recs = search_factorial_products(spec).records
    # (7,7,6,6)=(10,10) is the nontrivial s=2 solution and has a ratio-1 pairing
    assert ((7, 7, 6, 6), (10, 10)) in keyset(recs)


def test_delta_form_attached_to_solutions():
    recs = search_factorial_products(SearchSpec(n1_max=10, t_max=4, s_max=1)).records
    for r in recs:
        assert r.delta_form is not None
        assert r.delta_form.m1 == r.eq.lhs[0] + 1


def test_cancelling_diagnostics_off_by_default():
    spec = SearchSpec(n1_max=8, t_max=4, s_max=2)
    recs = search_factorial_products(spec).records
    assert all(not (set(r.eq.lhs) & set(r.eq.rhs)) for r in recs)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n1_max=st.integers(12, 30),
    t_max=st.integers(3, 6),
    s_max=st.integers(1, 3),
    workers=st.integers(1, 3),
)
def test_census_invariants_property(n1_max, t_max, s_max, workers):
    recs = search_factorial_products(SearchSpec(n1_max, t_max, s_max), workers=workers).records
    keys = [(r.eq.rhs[0], r.eq.rhs, r.eq.lhs) for r in recs]
    assert keys == sorted(set(keys))  # canonical order, each record once
    for r in recs:
        lhs, rhs = r.eq.lhs, r.eq.rhs
        assert r.holds and verify(r.eq).holds
        assert rhs[0] > lhs[0]  # oriented
        assert not set(lhs) & set(rhs)  # disjoint
        assert list(lhs) == sorted(lhs, reverse=True) and list(rhs) == sorted(rhs, reverse=True)
        assert rhs[0] <= n1_max and len(lhs) <= t_max and len(rhs) <= s_max


# ---------------------------------------------------------------- full-vector oracle

def assert_node_count(run, nodes):
    """The search spends exactly ``nodes``: it fits a budget of that many
    and trips one node below, having spent them all.  With more workers than
    cores the shared counter must lose no update."""
    for workers in (1, 4):
        run(SearchGuards(max_nodes=nodes), workers)
        with pytest.raises(ResourceGuardError) as e:
            run(SearchGuards(max_nodes=nodes - 1), workers)
        assert e.value.nodes == nodes


def test_right_hand_entry_rule_is_exact():
    # a left side with a right-hand entry is dropped, and so is every
    # extension of it: never placing the entry loses no record, only nodes
    for bounds in ((24, 6, 3), (30, 6, 2), (16, 5, 2)):
        want, nodes = full_vector_census(*bounds)
        every, every_nodes = full_vector_census(*bounds, skip_rhs=False)
        assert want == every
        assert nodes < every_nodes


@pytest.mark.parametrize("bounds", [(24, 6, 3), (60, 6, 2)])
def test_census_matches_full_vector_oracle(bounds):
    want, nodes = full_vector_census(*bounds)
    recs = search_factorial_products(SearchSpec(*bounds)).records
    assert [(r.eq.lhs, r.eq.rhs) for r in recs] == want
    assert_node_count(
        lambda g, w: search_factorial_products(SearchSpec(*bounds), guards=g, workers=w),
        nodes,
    )


def test_search_delta_matches_full_vector_oracle():
    # targets reach (x_max + 1)! = 61!, so the prime 61 > x_max enters the residual
    k_list, x_max, t_max = (2, 3), 60, 5
    want, nodes = full_vector_delta(k_list, x_max, t_max)
    spec = DeltaSearchSpec(k_list, x_max, t_max)
    assert [(r.x, r.a) for r in search_delta(spec)] == want
    assert [(r.x, r.a) for r in search_delta(spec, workers=2)] == want
    assert_node_count(lambda g, w: search_delta(spec, guards=g, workers=w), nodes)


# ---------------------------------------------------------------- size cap

def test_size_cap_keeps_every_dividing_factorial():
    """Over random integer targets inside the tables (products of
    factorials, divided by smaller factorials, as in search_delta's blocks)
    the residual decodes to the exponents of the literal integer; the cap
    is at least every a <= ub with a! | R, decided on the literal integer,
    and a! <= R at the cap itself, so the cap is also as low as it may be."""
    from factprod import search

    rng = random.Random(8)
    t = search._Tables(200, 8, terms=5)
    binding = 0
    for _ in range(300):
        target = [(rng.randint(2, 200), 1) for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(0 if target else 1, 3)):
            x = rng.randint(1, 200)
            k = rng.randint(1, min(rng.choice((8, 200)), 201 - x))
            target += [(x + k - 1, 1), (x - 1, -1)]
        R_int = math.prod(math.factorial(n) for n, sign in target if sign > 0)
        R_int //= math.prod(math.factorial(n) for n, sign in target if sign < 0)
        exps, rest = literal_fields(t, R_int)
        assert rest == 1
        R, log_r = t.residual(target)
        assert fields(t, R) == exps
        ub = rng.randint(2, 200)
        cap = int(search._size_cap(t.logfact, log_r, ub))
        dividing = [a for a in range(2, ub + 1) if R_int % math.factorial(a) == 0]
        assert cap >= max(dividing, default=1)
        assert cap <= ub and math.factorial(cap) <= R_int
        binding += cap < ub
    assert binding > 50


def test_size_cap_at_the_table_bound():
    """For every a up to 7876, the largest n_max the table guard admits and
    where the summed lgamma values carry the largest rounding error, a
    target of a! * b! (b sampled below a) caps the first level at a or more
    and, once a is placed, the second level at b or more; every 16th pair
    also runs through the descent."""
    from factprod import search

    rng = random.Random(7876)
    t = search._Tables(7876, 2, terms=2)
    budget = search._Budget(SearchGuards(max_nodes=10**12))
    for a in range(2, 7877):
        b = rng.randint(2, a)
        _, log_r = t.residual([(a, 1), (b, 1)])
        assert search._size_cap(t.logfact, log_r, a) == a
        assert search._size_cap(t.logfact, log_r - t.logfact[a], b) == b
        if a % 16 == 0:
            assert (a,) in left_sides(t, [(a, 1)], a, budget)
            assert (a, b) in left_sides(t, [(a, 1), (b, 1)], a, budget)


def rows_of(result, done):
    """The rows of a CensusResult whose right-hand side is in ``done``."""
    rows = zip(result.lhs, result.rhs, result.classification)
    return CensusResult.from_rows(row for row in rows if row[1] in done)


def test_census_at_the_table_bound_is_pinned():
    """The s = 1 census up to 7876, the largest n_max the table guard
    admits: record count and a digest of its (lhs, rhs) list, pinned from
    the dense-residual engine that preceded the packed one, and its nodes,
    the values the size-capped descent walks.  It fits the default guards.
    One node less trips at the last chunk charged, which holds a state of
    the rhs (7776,) before it reached its record 7775! (3!)^5 = 7776!."""
    import hashlib

    spec = SearchSpec(7876, 12, 1)
    recs = search_factorial_products(spec)
    pairs = [(r.eq.lhs, r.eq.rhs) for r in recs.records]
    assert len(pairs) == 89
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
        "5fb02e8461b073abafeb588419fc461d4a9a1d46f64f8b81b3b1db9d78a96f2f"
    )
    nodes = 44_380
    search_factorial_products(spec, guards=SearchGuards(max_nodes=nodes))
    with pytest.raises(ResourceGuardError) as e:
        search_factorial_products(spec, guards=SearchGuards(max_nodes=nodes - 1))
    units = [(n,) for n in range(3, 7877)]
    assert e.value.nodes == nodes and e.value.total_units == len(units)
    assert list(e.value.completed) == [u for u in units if u != (7776,)]
    assert e.value.records == rows_of(recs, set(units) - {(7776,)})
    assert len(e.value.records) == 88


def test_s1_census_is_the_trivial_family_and_four_identities():
    """The s = 1, t <= 12 census up to the table bound is exactly the closed
    form: the trivial family (n-1)! b_2! ... b_t! = n!, n = b_2! ... b_t!,
    classified trivial, and the four nontrivial identities (Erdos--Graham;
    Guy, Unsolved Problems in Number Theory, B23).  A fifth identity would
    be a finding, not a pin to move."""
    result = search_factorial_products(SearchSpec(7876, 12, 1))
    family = trivial_family_census(7876, 12)
    four = {((7, 3, 3, 2), (9,)), ((7, 6), (10,)), ((7, 5, 3), (10,)), ((14, 5, 2), (16,))}
    assert len(family) == 85 and len(result) == 89
    assert dict(zip(zip(result.lhs, result.rhs), result.classification)) == {
        **{row: TRIVIAL for row in family},
        **{row: NONTRIVIAL for row in four},
    }


def test_table_fields_hold_the_widest_exponents(monkeypatch):
    """Every column of the largest residuals the searches can form decodes
    to the exponent of the literal integer, in the dtype the width rule
    picks: three 7876! on the right (s = 3 at the table bound) fit int16
    and five need int32, and so does that residual less 7876!, the most a
    level subtracts (it subtracts a! only where a! divides the residual, so
    no residual is negative).  So do the search_delta blocks that end below
    the first prime q above x_max, in the tables search_delta builds for
    blocks of k = 2000 and 100000 terms; those tables end at q - 1 and hold
    int16.  A unit whose block reaches q has no solution, since no left side
    can supply q: it builds no row and spends no node."""
    from factprod import search
    from factprod.factorint import _legendre

    for terms, dtype in ((3, np.int16), (5, np.int32)):
        t = search._Tables(7876, 4, terms=terms)
        v = [_legendre(7876, p) for p in t.primes.tolist()]
        R, _ = t.residual([(7876, 1)] * terms)
        assert R.dtype == dtype and fields(t, R) == [terms * e for e in v]
        assert fields(t, R - t.fact[7876]) == [(terms - 1) * e for e in v]

    built = []
    tables = search._Tables
    residual = tables.residual

    class Recorded(tables):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    def reached(self, target, width=None):
        assert all(len(n) == 0 for n, _ in target), "a unit whose block reaches q built a row"
        return residual(self, target, width)

    shapes = ((114, 2000, 127), (20, 100_000, 23))
    with monkeypatch.context() as m:
        m.setattr(search, "_Tables", Recorded)
        m.setattr(tables, "residual", reached)
        for x_max, k, _ in shapes:
            spec = DeltaSearchSpec((k,), x_max, 4)
            assert search_delta(spec, guards=SearchGuards(max_nodes=1)) == []
    for t, (x_max, k, q) in zip(built, shapes, strict=True):
        assert len(t.fact) == q and t.primes[-1] <= x_max and t.fact.dtype == np.int16
        top, _ = literal_fields(t, math.factorial(x_max))
        for x in (1, 2, 17, x_max):
            for end in range(x_max, q):
                R, _ = t.residual([(end, 1), (x - 1, -1)])
                block, rest = literal_fields(t, math.prod(range(x, end + 1)))
                assert rest == 1 and fields(t, R) == block
                assert fields(t, R - t.fact[x_max]) == [e - f for e, f in zip(block, top)]


# ---------------------------------------------------------------- guards

@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_nodes": 0},
        {"max_nodes": -5},
        {"max_nodes": True},
        {"max_nodes": 2.5},
        {"max_seconds": 0},
        {"max_seconds": -1.0},
        {"max_seconds": float("nan")},
        {"max_seconds": float("inf")},
        {"max_seconds": True},
    ],
)
def test_search_guards_reject_what_cannot_bound(kwargs):
    # each would give a guard that never trips (0 s, nan, inf) or trips at
    # the first poll (a node budget below 1)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SearchGuards(**kwargs)


def test_search_guards_accept_positive_bounds():
    assert SearchGuards(max_nodes=1, max_seconds=1e-9).max_nodes == 1
    assert SearchGuards(max_seconds=3).max_seconds == 3
    with pytest.raises(ResourceGuardError) as e:
        search_factorial_products(
            SearchSpec(40, 8, 3), guards=SearchGuards(max_seconds=1e-9)
        )
    assert e.value.reason == "wall-time budget exceeded"

def test_guard_n1_ceiling():
    with pytest.raises(ResourceGuardError):
        search_factorial_products(SearchSpec(n1_max=10**9, t_max=4, s_max=1))


def test_table_guard_builds_nothing_first(monkeypatch):
    import numpy as np

    from factprod import search
    from factprod.factorint import table

    table()  # the shared prime table the guard counts on

    def built(*args, **kwargs):
        raise AssertionError("a table was built past the guard")

    for name in ("empty", "zeros", "ones", "arange", "linspace", "full"):
        monkeypatch.setattr(np, name, built)
    for name in ("lpf_table", "_legendre"):
        monkeypatch.setattr(search, name, built)
    for run, bound in (
        (lambda: search_factorial_products(SearchSpec(10**9, 4, 1), workers=2), 10**9),
        # search_delta's tables reach the longest block end below the first
        # prime above x_max: 8000 + 3 - 1, since 8001 and 8002 are composite
        (lambda: search_delta(DeltaSearchSpec((2, 3), 8000, 5), workers=2), 8002),
        # past the shared sieve's limit the prime scan stops at x_max
        (lambda: search_delta(DeltaSearchSpec((2, 3), 10**25, 5)), 10**25),
    ):
        with pytest.raises(ResourceGuardError) as e:
            run()
        assert e.value.reason == (
            f"factorial tables up to {bound}! need {search._table_pairs(bound)} "
            f"(rank, exponent) pairs, above the budget of {search._TABLE_PAIRS}"
        )
        assert e.value.records == [] and e.value.total_units == 0 and e.value.nodes == 0


def test_unit_guard_builds_nothing_first(monkeypatch):
    import numpy as np

    from factprod import search
    from factprod.factorint import table

    table()

    def built(*args, **kwargs):
        raise AssertionError("a table or a unit list was built past the guard")

    for name in ("empty", "zeros", "ones", "arange", "linspace", "full"):
        monkeypatch.setattr(np, name, built)
    for name in ("lpf_table", "_legendre", "_units"):
        monkeypatch.setattr(search, name, built)
    for run, shape in (
        (lambda: search_factorial_products(SearchSpec(5000, 4, 3), workers=2), (5000, 2, 1, 3)),
        (lambda: search_delta(DeltaSearchSpec((2, 3, 4), 7876, 5), workers=2), (7876, 1, 3, 3)),
    ):
        with pytest.raises(ResourceGuardError) as e:
            run()
        assert e.value.reason == (
            f"the search has at least {search._unit_count(*shape)} work units, "
            f"above the budget of {search._UNIT_BUDGET}"
        )
        assert e.value.records == [] and e.value.total_units == 0 and e.value.nodes == 0


def test_unit_count_is_the_listing_length():
    from factprod import search

    for first_max in range(1, 14):
        for least in (1, 2):
            for min_len in range(1, 5):
                for max_len in range(min_len, 6):
                    shape = (first_max, least, min_len, max_len)
                    assert search._unit_count(*shape) == len(search._units(*shape))
    # the parent's default census ceiling with s_max = 3 stays inside the budget
    assert search._unit_count(100, 2, 1, 3) == 171_696 <= search._UNIT_BUDGET
    assert search._unit_count(183, 2, 1, 3) <= search._UNIT_BUDGET < search._unit_count(184, 2, 1, 3)
    # past the budget the count stops early, so a huge s_max costs nothing
    assert search._UNIT_BUDGET < search._unit_count(3, 2, 1, 10**12) < 2 * search._UNIT_BUDGET


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    first_max=st.integers(0, 40),
    least=st.integers(1, 2),
    min_len=st.integers(1, 4),
    extra=st.integers(0, 3),
    cells=st.sampled_from([1, 7, 1 << 17]),
)
def test_units_are_the_recursive_listing(first_max, least, min_len, extra, cells):
    """The unit array holds the recursive listing's tuples row for row, zero-padded,
    in its order, for blocks of first entries of any size; with first_max < 3 it is
    empty."""
    from factprod import search

    max_len = min(min_len + extra, 4)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(search, "_CELLS", cells)
        got = search._units(first_max, least, min_len, max_len)
    want = [u + (0,) * (max_len - len(u)) for u in non_increasing(first_max, least, min_len, max_len)]
    assert got.shape == (len(want), max_len)
    assert [tuple(r) for r in got.tolist()] == want


def test_table_budget_is_the_pair_count(monkeypatch):
    from factprod import search
    from factprod.factorint import table

    primes = table().primes_upto(400).tolist()
    for n in (0, 1, 2, 3, 10, 97, 400):
        assert search._table_pairs(n) == sum(sum(1 for p in primes if p <= a) for a in range(n + 1))
    # the default budget admits the n1 <= 3000 census, and stops at the
    # first n_max whose tables exceed it
    assert search._table_pairs(7876) <= search._TABLE_PAIRS < search._table_pairs(7877)
    search._Tables(3000, 6)
    monkeypatch.setattr(search, "_TABLE_PAIRS", search._table_pairs(400))
    t = search._Tables(400, 4)
    assert np.count_nonzero(full_fact(t)) == search._TABLE_PAIRS
    with pytest.raises(ResourceGuardError):
        search._Tables(401, 4)


def test_tables_build_factorials_without_factorial_expvec():
    from factprod import search
    from factprod.factorint import factorial_expvec

    # the search reads every factorial from its own tables
    assert not hasattr(search, "factorial_expvec")
    t = search._Tables(120, 4)
    assert [expvec(t, f) for f in full_fact(t)] == [
        factorial_expvec(a).entries for a in range(121)
    ]


def test_search_delta_block_ends_stay_out_of_the_factorial_cache(monkeypatch):
    from factprod import factorint, search

    empty = factorint.ExpVec()
    monkeypatch.setattr(factorint, "_fact_cache", {0: empty, 1: empty})
    for k_list, x_max in (((3, 2), 8), ((2000, 3), 12)):  # block ends past x_max
        got = search_delta(DeltaSearchSpec(k_list, x_max, 4))
        assert set(factorint._fact_cache) == {0, 1}
        assert {(d.x, d.a) for d in got} == brute_delta_search(k_list, x_max, 4)
    # search_delta's tables for x_max = 24 end at 28, below 29, the first
    # prime above x_max; every n! they hold decodes to its literal exponents
    t = search._Tables(28, 4)
    for n in range(20, 29):
        R, log_r = t.residual([(n, 1)])
        exps, rest = literal_fields(t, math.factorial(n))
        assert rest == 1 and fields(t, R) == exps and log_r == math.lgamma(n + 1)
    assert set(factorint._fact_cache) == {0, 1}


def test_guard_node_budget_carries_partial():
    with pytest.raises(ResourceGuardError) as e:
        search_factorial_products(
            SearchSpec(n1_max=16, t_max=5, s_max=2),
            guards=SearchGuards(max_nodes=500),  # of the 938 nodes it spends
        )
    assert isinstance(e.value.records, CensusResult)
    assert e.value.completed_units >= 0


def test_guard_node_budget_serial_trip_point():
    with pytest.raises(ResourceGuardError) as e:
        search_factorial_products(
            SearchSpec(n1_max=40, t_max=8, s_max=3),
            guards=SearchGuards(max_nodes=100_000),  # of the 305,502 nodes it spends
        )
    assert e.value.reason == "node budget exceeded (123059 > 100000)"
    assert len(e.value.records) == 1815
    assert e.value.completed_units == 4920
    assert e.value.nodes == 123059


def test_guard_node_budget_workers_2_keeps_completed_units():
    spec = SearchSpec(n1_max=24, t_max=6, s_max=3)
    full = search_factorial_products(spec)
    with pytest.raises(ResourceGuardError) as e:
        search_factorial_products(spec, guards=SearchGuards(max_nodes=15_000), workers=2)
    err = e.value
    assert err.reason.startswith("node budget exceeded")
    assert err.nodes > 15_000
    assert 0 < err.completed_units < err.total_units
    done = set(err.completed)
    assert len(done) == err.completed_units
    # exactly the completed units' rows, and the records the serial run builds
    assert err.records == rows_of(full, done)
    part = err.records.records
    assert part and all(type(r) is SolutionRecord for r in part)
    assert part == [r for r in full.records if r.eq.rhs in done]


@pytest.mark.parametrize("cells, batch", [(1 << 17, 512), (40, 7), (40, 1)])
def test_guard_trips_keep_exactly_the_completed_units(monkeypatch, cells, batch):
    """At trip points over the whole of a serial run, ``completed`` is in
    unit order and only grows with the budget; it holds every unit before
    the first unfinished one and none past that unit's batch, whose end the
    doubling batch schedule gives, and ``records`` holds exactly their rows.
    With one unit in every batch, ``completed`` is exactly the units before
    the one the trip stopped."""
    from factprod import search

    monkeypatch.setattr(search, "_CELLS", cells)
    monkeypatch.setattr(search, "_UNIT_BATCH", batch)
    if batch == 1:
        monkeypatch.setattr(search, "_UNIT_BATCH_MAX", 1)
    spec = SearchSpec(14, 5, 3)
    full = search_factorial_products(spec)
    units = list(non_increasing(14, 2, 1, 3))
    index = {u: i for i, u in enumerate(units)}
    ends, size = [batch], batch
    while ends[-1] < len(units):
        size = min(2 * size, search._UNIT_BATCH_MAX)
        ends.append(ends[-1] + size)
    _, nodes = full_vector_census(14, 5, 3)
    before = set()
    for max_nodes in range(1, nodes, nodes // 30):
        with pytest.raises(ResourceGuardError) as e:
            search_factorial_products(spec, guards=SearchGuards(max_nodes=max_nodes))
        err = e.value
        order = [index[u] for u in err.completed]
        stop = next(i for i in range(len(units)) if units[i] not in set(err.completed))
        assert order == sorted(order) and set(order) >= before and err.nodes > max_nodes
        assert set(order) >= set(range(stop)) and max(order, default=0) < min(e for e in ends if e > stop)
        if batch == 1:
            assert order == list(range(stop))
        assert err.records == rows_of(full, set(err.completed))
        before = set(order)


def test_batches_double_from_the_first_up_to_the_cap():
    """A worker's first batch holds _UNIT_BATCH units, and each later one
    twice the one before, up to _UNIT_BATCH_MAX, in unit order."""
    from factprod import search

    batches = []

    def descend(keys, budget):
        batches.append(keys[:, 0].tolist())
        return np.zeros(0, np.intp), np.zeros((0, 2), np.intp), set()

    units = np.zeros((30_000, 2), np.intp)
    units[:, 0] = np.arange(1, 30_001)

    def plan():
        return descend, lambda k, lhs: (k, lhs)

    search._run_units(units, plan, lambda k, lhs: k, 1, SearchGuards())
    assert [len(b) for b in batches] == [512, 1024, 2048, 4096, 8192, 8192, 5936]
    assert sum(batches, []) == list(range(1, 30_001))


def test_a_wrong_table_row_gives_non_solutions_not_wrong_identities(monkeypatch, fresh_pool):
    """The exact check does not read the engine's tables: with the Legendre
    row of 5! replaced by that of 6!, the engine proposes left sides that do
    not hold, and the census keeps them as non-solution rows (class None,
    counted "non-solution" by census_report); a row that holds on big
    integers is classified by the adjacent-pair rule, and no other row
    gets a class."""
    from factprod import search

    columns = search._Tables.columns

    def wrong(self, width):
        fact = columns(self, width)
        fact[5] = fact[6]
        return fact

    monkeypatch.setattr(search._Tables, "columns", wrong)
    for workers in (1, 2):
        result = search_factorial_products(SearchSpec(16, 5, 2), workers=workers)
        bad = 0
        for lhs, rhs, cls in zip(result.lhs, result.rhs, result.classification):
            holds = math.prod(map(math.factorial, lhs)) == math.prod(map(math.factorial, rhs))
            assert cls == (classify_brute(lhs, rhs) if holds else None)
            bad += not holds
        counts = census_report(result).counts
        assert bad > 0 and sum(n for k, n in counts.items() if k[2] == "non-solution") == bad


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(
    n1_max=st.integers(8, 20),
    t_max=st.integers(2, 5),
    s_max=st.integers(1, 3),
    k_list=st.lists(st.integers(1, 4), min_size=1, max_size=2),
    x_max=st.integers(4, 24),
    cells=st.integers(1, 48),
    batch=st.integers(1, 9),
)
def test_engine_matches_the_full_vector_oracles(n1_max, t_max, s_max, k_list, x_max, cells, batch):
    """Records and node totals equal the full-vector descent's at workers
    1, 2 and 4, with chunks of a few cells and batches of a few units, so
    that chunk and batch boundaries fall everywhere; the pool is forked with
    those sizes (patched_pool), since a worker reads its own."""
    from factprod import search

    census = SearchSpec(n1_max, t_max, s_max)
    delta = DeltaSearchSpec(k_list, x_max, t_max)
    cases = (
        (lambda g, w: search_factorial_products(census, guards=g, workers=w),
         lambda r: list(zip(r.lhs, r.rhs)), full_vector_census(n1_max, t_max, s_max)),
        (lambda g, w: search_delta(delta, guards=g, workers=w),
         lambda r: [(d.x, d.a) for d in r], full_vector_delta(k_list, x_max, t_max)),
    )
    with patched_pool((search, "_CELLS", cells), (search, "_UNIT_BATCH", batch)):
        for run, pairs, (want, nodes) in cases:
            for workers in (1, 2, 4):
                assert pairs(run(SearchGuards(max_nodes=max(nodes, 1)), workers)) == want
                if nodes > 1:
                    with pytest.raises(ResourceGuardError) as e:
                        run(SearchGuards(max_nodes=nodes - 1), workers)
                    assert e.value.nodes == nodes


def test_search_delta_guard_workers_2_keeps_completed_units():
    spec = DeltaSearchSpec((2, 3), 60, 5)
    full = search_delta(spec)
    with pytest.raises(ResourceGuardError) as e:
        search_delta(spec, guards=SearchGuards(max_nodes=150), workers=2)  # of 302
    err = e.value
    assert err.reason.startswith("node budget exceeded")
    assert err.nodes > 150
    assert 0 < err.completed_units < err.total_units
    done = set(err.completed)
    assert len(done) == err.completed_units
    assert [(r.x, r.a) for r in err.records] == [(r.x, r.a) for r in full if r.x in done]


def test_search_delta_guard_serial_trip_keeps_a_strict_part():
    # which units finish before a shared-budget trip depends on scheduling;
    # a serial trip point does not, and the x1 = 35 solutions lie past it
    spec = DeltaSearchSpec((2, 3), 60, 5)
    full = search_delta(spec)
    with pytest.raises(ResourceGuardError) as e:
        search_delta(spec, guards=SearchGuards(max_nodes=150), workers=1)
    err = e.value
    done = set(err.completed)
    assert [(r.x, r.a) for r in err.records] == [(r.x, r.a) for r in full if r.x in done]
    assert 0 < len(err.records) < len(full)


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(n1_max=2, t_max=4, s_max=1)
    with pytest.raises(ValueError):
        SearchSpec(n1_max=10, t_max=1, s_max=1)


# ---------------------------------------------------------------- delta search

def test_search_delta_examples_against_oracle():
    for k_list, x_max, t_max in (((3,), 8, 2), ((2,), 15, 3), ((1,), 12, 2)):
        got = {(r.x, r.a) for r in search_delta(DeltaSearchSpec(k_list, x_max, t_max))}
        assert got == brute_delta_search(k_list, x_max, t_max)


def test_search_delta_known_records():
    got = {(r.x, r.a) for r in search_delta(DeltaSearchSpec((3,), 8, 2))}
    assert got == {((8,), (6,)), ((8,), (5, 3))}  # 8*9*10 = 720 = 6! = 5!*3!
    got = {(r.x, r.a) for r in search_delta(DeltaSearchSpec((2,), 15, 3))}
    assert ((15,), (5, 2)) in got  # 15*16 = 240 = 5!*2!
    got = {(r.x, r.a) for r in search_delta(DeltaSearchSpec((1,), 4, 2))}
    assert got == {((4,), (2, 2))}  # 4 = 2!*2!


def test_search_delta_two_blocks_oracle():
    spec = DeltaSearchSpec((2, 2), 10, 3)
    got = {(r.x, r.a) for r in search_delta(spec)}
    assert got == brute_delta_search((2, 2), 10, 3)


def test_search_delta_ratio_predicate():
    # fixed gaps k = (2, 5): ratio 5/2 > 2, so L is empty for c = 2
    spec = DeltaSearchSpec((2, 5), 20, 3, c=2)
    assert not spec.ratio_ok()
    assert search_delta(spec) == []
    assert DeltaSearchSpec((2, 5), 20, 3, c=3).ratio_ok()


def test_search_delta_workers_deterministic():
    spec = DeltaSearchSpec((2,), 30, 3)
    a = search_delta(spec, workers=1)
    b = search_delta(spec, workers=4)
    assert a == b


# ---------------------------------------------------------------- census report

def test_census_report_counts():
    recs = search_factorial_products(SearchSpec(n1_max=16, t_max=5, s_max=1))
    summary = census_report(recs, c=1)
    assert summary.extremal_n1 == 16
    assert len(summary.nontrivial) == 4
    assert sum(summary.counts.values()) == summary.total == len(recs)
    assert summary.counts[(2, 1, NONTRIVIAL)] == 1  # 7!6! = 10!
    # every nontrivial s=1 record has exactly one pairing, always in N(c)
    for eq, (pairings, member) in summary.nc_tallies.items():
        assert pairings == member == 1
    rows = summary.csv_rows()
    assert rows[0] == "t,s,classification,count"


@pytest.mark.parametrize("c", [None, 1])
def test_the_census_path_builds_equations_only_for_nontrivial_rows(monkeypatch, c):
    """The census, its report and its JSONL payload build no SolutionRecord,
    and a FactorialEquation only for a nontrivial row with --c: the filter's
    before it keeps the row, and the report's for its N(c) tallies."""
    from factprod import equations
    from factprod.cli import record_jsonl

    spec = SearchSpec(24, 6, 3, c=c)
    nontrivial = search_factorial_products(SearchSpec(24, 6, 3)).classification.count(NONTRIVIAL)
    built = []
    check = equations.FactorialEquation.__post_init__

    def counted(self):
        built.append((self.lhs, self.rhs))
        check(self)

    def boom(*args, **kwargs):
        raise AssertionError("a SolutionRecord was built")

    monkeypatch.setattr(equations.FactorialEquation, "__post_init__", counted)
    monkeypatch.setattr(equations.SolutionRecord, "__init__", boom)
    result = search_factorial_products(spec)
    record_jsonl(result)
    report = census_report(result, c=c)
    assert len(report.nontrivial) == (len(result) if c else nontrivial)
    assert len(built) == (nontrivial + len(result) if c else 0) and nontrivial > 0


def test_census_report_empty():
    summary = census_report(CensusResult.from_rows(()))
    assert summary.total == 0 and summary.extremal_n1 is None
    assert summary.nontrivial == []


# sha256 of repr(list(zip(lhs, rhs, classification))) and of repr(records), as
# the CensusResult that held tuples gave them
ROW_DIGESTS = {
    "40-8-3": ("4cdc6f55a13d1c6b36cf3aa6e0ca92360077a5d7a52752b41bc525bd9fb43561",
               "592a4ae08e5f97a9d19f8688affa53699be4625c58b115721f14011f39ad4675"),
    "100-8-2": ("ee708c31406bfeb2ba873c0ecb403e49216e51f4e64bc0e6cad81e717afd9469",
                "1355311fd8ae517352cd53a2037fdea96e136a5954dd3632cabe664658838ac3"),
    "24-6-3-c1": ("bcfeb8e34bf94fa6005c5242d6b7f346411c1b8b5f56d3030c1e2f4c13b3e34d",
                  "ed016c290e1a47e2d04dad4d1a3fb64daf8108b08362198de0fa4e97fa58d964"),
    "24-6-3-nontrivial": ("ea94ce6fb81b06493c553b4e215f34eadbd8a52d0b53061bd246ff3eb14c4e9c",
                          "d12f486c8d0cd48f242fb1a4b424164edf2997a7e95a2cc82c50066b059d5314"),
    "7876-12-1": ("0aad8e998de5901a6cd04ebd6f82e7bdad208b5452bb7b3e30e0837b8c212ec9",
                  "78e0e65a73e95666a962d7d76812ff85e9e74bff73110fdef7e5c61fb82f6e69"),
    "trip-40-8-3": ("1f45cd6feddec2d39400e6f836927ecc805946b499402b02eb5873e6839e2fa1",
                    "143f7115adad3b04c15ea15c517b5092e5aa5d7e609122da8adbc63659d2f3f8"),
}
# rows of every class; the largest n1 is a row that does not hold
HAND_MADE = (((4, 3), (5,), None), ((3, 2, 2), (4,), TRIVIAL), ((7, 6), (10,), NONTRIVIAL),
             ((11, 2), (12,), None), ((7, 5, 3), (10,), NONTRIVIAL))


def _columnar_case(name):
    """The census result of a named case, and the c its run filtered on."""
    if name == "empty":
        return CensusResult.from_rows(()), None
    if name == "hand-made":
        return CensusResult.from_rows(HAND_MADE), None
    if name == "trip-40-8-3":
        with pytest.raises(ResourceGuardError) as e:
            search_factorial_products(SearchSpec(40, 8, 3), guards=SearchGuards(max_nodes=100_000))
        return e.value.records, None
    n1, t, s, *flag = name.split("-")
    c = 1 if flag == ["c1"] else None
    spec = SearchSpec(int(n1), int(t), int(s), c=c, nontrivial_only=flag == ["nontrivial"])
    return search_factorial_products(spec), c


@pytest.mark.parametrize("name", [*ROW_DIGESTS, "empty", "hand-made"])
def test_columnar_report_and_payload_equal_the_per_row_oracles(name):
    """census_report and record_jsonl, computed from the columns, equal their
    per-row references (counts, extremal n1, the nontrivial list in order and
    the N(c) tallies; the JSONL bytes), and the tuple views and records built
    on first read equal, row for row, those the tuple-holding result gave."""
    import hashlib

    from factprod.cli import record_jsonl

    from oracles import census_report_per_row, record_jsonl_per_row

    result, c = _columnar_case(name)
    for tally in {c, 2}:
        assert census_report(result, tally) == census_report_per_row(result, tally)
    assert record_jsonl(result) == record_jsonl_per_row(result)
    rows = list(zip(result.lhs, result.rhs, result.classification))
    if name in ROW_DIGESTS:
        digests = [hashlib.sha256(repr(x).encode()).hexdigest() for x in (rows, result.records)]
        assert tuple(digests) == ROW_DIGESTS[name]
    else:
        assert rows == list(HAND_MADE if name == "hand-made" else ())
        assert [(r.eq.lhs, r.eq.rhs, r.classification) for r in result.records] == rows
    assert result == CensusResult.from_rows(rows)
    assert result.lhs_cols.dtype.kind == "i" and result.codes.dtype == np.int8


def test_census_result_stores_only_columns():
    """A CensusResult holds its three columns; the tuple views are built on
    first read, once, and equality compares rows, whatever the padding."""
    result = CensusResult.from_rows(HAND_MADE)
    assert set(vars(result)) == {"lhs_cols", "rhs_cols", "codes"}
    assert result.lhs is result.lhs and "lhs" in vars(result)
    wide = CensusResult(
        np.pad(result.lhs_cols, ((0, 0), (0, 2))), np.pad(result.rhs_cols, ((0, 0), (0, 1))),
        result.codes,
    )
    assert wide == result and wide != CensusResult.from_rows(HAND_MADE[:-1])
    assert wide != CensusResult.from_rows(HAND_MADE[:-1] + (((7, 5, 3), (10,), None),))
