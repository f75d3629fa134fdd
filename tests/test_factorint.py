import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprod import factorint
from factprod.factorint import (
    ExpVec,
    PrimeTable,
    SieveCeilingError,
    delta,
    factorial_expvec,
    factorize,
    largest_prime_factor,
    lpf_table,
    mertens_log_sum,
    radical,
    radical_table,
    theta,
    vp_factorial,
)

from oracles import (
    exponent_in_literal_factorial,
    factor_literal,
    lpf_table_reference,
    radical_table_reference,
)


# ---------------------------------------------------------------- primes

def test_prime_table_complete_against_trial_division():
    tbl = PrimeTable(2000)
    def is_prime_naive(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
    want = [n for n in range(2001) if is_prime_naive(n)]
    assert tbl.primes.tolist() == want


def test_prime_table_extended_is_new_table():
    tbl = PrimeTable(100)
    bigger = tbl.extended(1000)
    assert bigger is not tbl and bigger.limit == 1000
    assert tbl.extended(50) is tbl


def test_is_prime_beyond_limit_uses_trial_division():
    tbl = PrimeTable(100)
    assert tbl.is_prime(10007)
    assert not tbl.is_prime(10009 * 3)


def test_is_prime_beyond_limit_matches_sieve():
    small, big = PrimeTable(1000), PrimeTable(20000)
    assert all(small.is_prime(n) == bool(big.flags[n]) for n in range(1001, 20001))


def test_is_prime_miller_rabin_large():
    tbl = PrimeTable(1000)
    assert tbl.is_prime(2**61 - 1)
    assert not tbl.is_prime(2**61 + 1)
    assert not tbl.is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    with pytest.raises(ValueError):
        tbl.is_prime(3_317_044_064_679_887_385_961_981)


# ---------------------------------------------------------------- vp / factorial vectors

def test_vp_factorial_examples():
    assert vp_factorial(10, 2) == 8
    assert vp_factorial(5, 7) == 0
    assert vp_factorial(100, 5) == 24


def test_vp_factorial_rejects_non_prime():
    with pytest.raises(ValueError):
        vp_factorial(10, 4)
    with pytest.raises(ValueError):
        vp_factorial(10, 1)
    with pytest.raises(ValueError):
        vp_factorial(-1, 2)


def test_vp_factorial_against_literal_factorial():
    # full n <= 300 scan lives in the acceptance suite
    for n in (2, 7, 25, 60):
        for p in (2, 3, 5, 7, 11, 53):
            if p <= n:
                assert vp_factorial(n, p) == exponent_in_literal_factorial(n, p)


def test_factorial_expvec_examples():
    assert factorial_expvec(0) == ExpVec()
    assert factorial_expvec(1) == ExpVec()
    assert factorial_expvec(6).as_dict() == {2: 4, 3: 2, 5: 1}
    assert factorial_expvec(10).as_dict() == {2: 8, 3: 4, 5: 2, 7: 1}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=1000))
def test_factorial_expvec_recurrence(n):
    # Legendre route vs trial-division route
    assert factorial_expvec(n) == factorial_expvec(n - 1) + ExpVec.of_int(n)


# ---------------------------------------------------------------- radical / lpf

def test_radical_examples():
    assert radical(1) == 1
    assert radical(720) == 30
    assert radical(13) == 13


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=30000), st.integers(min_value=1, max_value=30000))
def test_radical_submultiplicative_and_idempotent(a, b):
    assert (radical(a) * radical(b)) % radical(a * b) == 0
    assert radical(radical(a)) == radical(a)


def test_largest_prime_factor_examples():
    assert largest_prime_factor(1) == 1
    assert largest_prime_factor(24) == 3
    # 9699690 is the primorial of 19; the primorial of 23 is 223092870
    assert largest_prime_factor(9699690) == 19
    assert largest_prime_factor(223092870) == 23


def test_factorize_matches_literal():
    for n in (2, 97, 360, 1024, 9699690, 3628800):
        assert dict(factorize(n)) == factor_literal(n)


def test_factorize_matches_the_lpf_table():
    # below 1000^2 factorize is trial division alone; 1009^2 is the first
    # composite left for Pollard-Brent
    top = 1009**2 + 10
    lpf = lpf_table(top)
    for n in list(range(1, 5000)) + list(range(1009**2 - 10, top + 1)):
        want, m = {}, n
        while m > 1:
            p = int(lpf[m])
            want[p] = want.get(p, 0) + 1
            m //= p
        assert factorize(n) == sorted(want.items())


def test_factorize_above_the_table_does_not_grow_it():
    limit = factorint.table().limit
    assert math.isqrt(10**16 + 1) > limit
    assert factorize(10**16 + 1) == [(353, 1), (449, 1), (641, 1), (1409, 1), (69857, 1)]
    assert factorint.table().limit == limit


def test_factorize_splits_semiprimes_near_1e16():
    p, q = 99999989, 100000007  # the primes either side of 10^8
    limit = factorint.table().limit
    cases = {
        p * q: [(p, 1), (q, 1)],
        p * p: [(p, 2)],
        8 * 3 * 999999999989: [(2, 3), (3, 1), (999999999989, 1)],
        1009 * 1013 * 1019 * 10007: [(1009, 1), (1013, 1), (1019, 1), (10007, 1)],
    }
    for n, factors in cases.items():
        got = factorize(n)
        assert got == factors
        assert math.prod(f**e for f, e in got) == n
        assert all(factorint.is_prime(f) for f, _ in got)
    assert factorint.table().limit == limit


def test_ascending_limits_grow_the_shared_sieve_by_doubling(monkeypatch):
    """Four ascending limits just above the shared sieve build one new table,
    at twice the old limit; a single request from the default table past
    twice its limit builds exactly that limit; growth stops at the ceiling."""
    built = []

    class Counted(factorint.PrimeTable):
        def __init__(self, limit):
            built.append(limit)
            super().__init__(limit)

    base = factorint.DEFAULT_SIEVE_LIMIT
    monkeypatch.setattr(factorint, "PrimeTable", Counted)
    monkeypatch.setattr(factorint, "_shared_table", None)
    assert factorint.table().limit == base
    for k in range(1, 5):
        assert factorint.table(base + k).limit == 2 * base
    assert built == [base, 2 * base]
    assert factorint.table(2 * base).primes_upto(2 * base)[-1] == 1999993

    monkeypatch.setattr(factorint, "_shared_table", None)
    factorint.table()
    assert factorint.table(5 * base + 3).limit == 5 * base + 3
    assert built[2:] == [base, 5 * base + 3]

    monkeypatch.setattr(factorint, "SIEVE_CEILING", 6 * base)
    assert factorint.table(5 * base + 4).limit == 6 * base
    with pytest.raises(factorint.SieveCeilingError):
        factorint.table(6 * base + 1)
    assert built[4] == 6 * base and factorint.table().limit == 6 * base


def test_primes_up_to_the_sieve_limit_build_no_new_table():
    """The primes <= nu need the sieve only up to floor(nu): theta, Mertens'
    sum and the prefix audits' primes at nu = the shared limit, or half above
    it, read the shared table as it is."""
    from factprod import audit

    tbl = factorint.table()
    assert len(tbl.primes_upto(tbl.limit + 0.5)) == len(tbl.primes)
    for nu in (tbl.limit, tbl.limit + 0.5):
        factorint.theta(nu)
        factorint.mertens_log_sum(nu)
        assert len(audit._primes(nu)) == len(tbl.primes)
        assert factorint.table() is tbl


def test_tables_match_pointwise():
    rad = radical_table(500)
    lpf = lpf_table(500)
    for n in range(1, 501):
        assert int(rad[n]) == radical(n)
        assert int(lpf[n]) == largest_prime_factor(n)


# every small limit, the limits on either side of each prime square (where
# isqrt(limit) and with it the split into small and large primes moves), and
# the benchmark's tables
_SQUARES = [p * p + e for p in range(2, 1010) if largest_prime_factor(p) == p for e in (-1, 0, 1)]
TABLE_LIMITS = [*range(1, 201), *_SQUARES, 10**5 + 49, 10**6 + 50]


@functools.cache
def _reference_tables() -> tuple[np.ndarray, np.ndarray]:
    # rad(n) and P(n) do not depend on the limit: one reference table at the
    # largest limit, sliced, serves every limit
    top = max(TABLE_LIMITS)
    return radical_table_reference(top), lpf_table_reference(top)


@pytest.mark.parametrize("limit", TABLE_LIMITS)
def test_tables_match_the_stride_reference(limit):
    rad, lpf = _reference_tables()
    assert np.array_equal(radical_table(limit), rad[: limit + 1])
    assert np.array_equal(lpf_table(limit), lpf[: limit + 1])


def test_tables_check_ceiling_before_allocating(monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("array allocated above the sieve ceiling")

    monkeypatch.setattr(factorint, "SIEVE_CEILING", 1000)
    monkeypatch.setattr(np, "ones", no_alloc)
    monkeypatch.setattr(np, "zeros", no_alloc)
    for build in (radical_table, lpf_table, PrimeTable):
        with pytest.raises(SieveCeilingError, match="sieve limit 1001 exceeds ceiling 1000"):
            build(1001)


# ---------------------------------------------------------------- delta

def test_delta_examples():
    assert delta(5, 3)[0] == 210
    assert delta(15, 2)[0] == 240
    for m in (1, 7, 30):
        assert delta(m, 1)[0] == m


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=50))
def test_delta_matches_factorial_quotient(m, k):
    _, vec = delta(m, k)
    assert vec == factorial_expvec(m + k - 1) - factorial_expvec(m - 1)


def test_delta_value_matches_vec():
    for m, k in ((2, 5), (10, 4), (100, 3)):
        value, vec = delta(m, k)
        assert vec.value() == value


# ---------------------------------------------------------------- theta / mertens

def test_theta_examples():
    assert theta(1.5) == 0.0
    assert theta(2) == pytest.approx(math.log(2), abs=1e-15)
    assert theta(10) == pytest.approx(math.log(210), abs=1e-12)


def test_mertens_examples():
    assert mertens_log_sum(1.9) == 0.0
    assert mertens_log_sum(3) == pytest.approx(math.log(2) / 2 + math.log(3) / 3, abs=1e-15)
    expected_10 = math.fsum(math.log(p) / p for p in (2, 3, 5, 7))  # 1.3126524...
    assert mertens_log_sum(10) == pytest.approx(expected_10, abs=1e-15)
    assert mertens_log_sum(10) == pytest.approx(1.312652433140255, abs=1e-12)


def test_theta_mertens_reject_below_one():
    with pytest.raises(ValueError):
        theta(0.5)
    with pytest.raises(ValueError):
        mertens_log_sum(0.0)


# ---------------------------------------------------------------- ExpVec algebra

def test_expvec_canonical_form():
    v = ExpVec.from_items([(5, 1), (2, 3), (3, 0), (2, -3)])
    assert v.entries == ((5, 1),)
    with pytest.raises(ValueError):
        ExpVec.from_items([(4, 1)])


def test_expvec_value_and_exponent():
    v = ExpVec.of_int(720)
    assert v.value() == 720
    assert v.exponent(2) == 4 and v.exponent(11) == 0
    with pytest.raises(ValueError):
        (v - ExpVec.of_int(7)).value()


small_vec = st.lists(
    st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(-5, 5)), max_size=6
).map(ExpVec.from_items)


@settings(max_examples=100, deadline=None)
@given(small_vec, small_vec, small_vec)
def test_expvec_algebra(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a - b) + b == a
    assert (a - a).is_zero()
    assert a + ExpVec() == a
    pa, pb = (ExpVec(tuple((p, abs(e)) for p, e in v.entries)) for v in (a, b))
    assert (pa + pb).value() == pa.value() * pb.value()
