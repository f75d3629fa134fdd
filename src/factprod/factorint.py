"""Exact prime-side arithmetic.

Prime sieves, Legendre exponents of factorials, radicals and largest prime
factors, products of consecutive integers, and the Chebyshev/Mertens prefix
sums theta and mertens_log_sum (the inequality audits keep their own running
columns of the same sums).  Everything here is pure and immutable
after construction, so values can be shared freely between threads; a forked
pool worker inherits those built before it was forked and grows its own
copies after.  The two process-lifetime stores are the shared prime table,
replaced whole under a lock, and factorial_expvec's functools.cache.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

DEFAULT_SIEVE_LIMIT = 1_000_000

# Desk-scale ceiling for on-demand sieve growth; anything beyond this is a
# misuse of the toolkit, not a workload it should silently attempt.
SIEVE_CEILING = 200_000_000


class SieveCeilingError(RuntimeError):
    """A sieve or table above SIEVE_CEILING was asked for: a resource
    guard, raised before anything of that size is allocated."""


def _check_ceiling(limit: int) -> None:
    if limit > SIEVE_CEILING:
        raise SieveCeilingError(f"sieve limit {limit} exceeds ceiling {SIEVE_CEILING}")


# Miller-Rabin with the first 13 prime bases is exact below _MR_LIMIT
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# Chunked numpy kernels (density's Monte Carlo survivors, audit's prefix
# estimates) make no array of more than _CHUNK 8-byte entries (96 KiB), below
# glibc's 128 KiB mmap threshold, so their speed does not depend on where
# earlier frees have moved that threshold.
_CHUNK = 12 * 1024


def _sieve_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


# factorize divides out the primes below _TRIAL_BOUND and splits the
# cofactor by Pollard-Brent.
_TRIAL_BOUND = 1000
_SMALL_PRIMES = np.flatnonzero(_sieve_flags(_TRIAL_BOUND - 1)).tolist()


class PrimeTable:
    """All primes up to ``limit``, from a boolean Eratosthenes sieve;
    ``is_prime`` above the limit is deterministic Miller-Rabin.

    Instances are immutable, so a shared table is safe for concurrent
    readers; tables never grow in place: ``table()`` swaps in a new, larger
    one under a lock.
    """

    __slots__ = ("limit", "flags", "primes")

    def __init__(self, limit: int = DEFAULT_SIEVE_LIMIT) -> None:
        limit = int(limit)
        _check_ceiling(limit)
        self.limit = max(limit, 2)
        self.flags = _sieve_flags(self.limit)
        self.flags.setflags(write=False)
        self.primes = np.flatnonzero(self.flags).astype(np.int64)
        self.primes.setflags(write=False)

    def is_prime(self, n: int) -> bool:
        if n < 2:
            return False
        if n <= self.limit:
            return bool(self.flags[n])
        return _miller_rabin(int(n))

    def primes_upto(self, x: float) -> np.ndarray:
        """Increasing array of all primes <= x (requires floor(x) <= limit)."""
        top = math.floor(x)
        if top > self.limit:
            raise ValueError(f"primes_upto({x}) beyond table limit {self.limit}")
        hi = int(np.searchsorted(self.primes, top, side="right"))
        return self.primes[:hi]

    def __repr__(self) -> str:  # pragma: no cover
        return f"PrimeTable(limit={self.limit}, count={len(self.primes)})"


def _miller_rabin(n: int) -> bool:
    """Deterministic primality for 2 <= n < _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime({n}): n must be below {_MR_LIMIT}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_table_lock = threading.Lock()
_shared_table: PrimeTable | None = None


def table(min_limit: int = 0) -> PrimeTable:
    """Shared prime table, grown on demand: a new table replaces the old, to
    max(min_limit, 2 * old limit) but no further than SIEVE_CEILING, so that a
    run of ascending limits re-sieves only a few times."""
    global _shared_table
    t = _shared_table
    if t is not None and t.limit >= min_limit:
        return t
    with _table_lock:
        t = _shared_table
        if t is None:
            _shared_table = PrimeTable(max(min_limit, DEFAULT_SIEVE_LIMIT))
        elif t.limit < min_limit:
            _shared_table = PrimeTable(max(min_limit, min(2 * t.limit, SIEVE_CEILING)))
        return _shared_table


def is_prime(n: int) -> bool:
    return table().is_prime(n)


def _trial_division(n: int) -> tuple[list[tuple[int, int]], int]:
    """(prime, exponent) pairs of n over the primes below _TRIAL_BOUND,
    stopping once p^2 exceeds what is left, and the cofactor left: 1, a
    prime, or a number with no prime factor below _TRIAL_BOUND."""
    out: list[tuple[int, int]] = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    return out, n


def _pollard_brent(n: int) -> int:
    """A proper divisor of the odd composite n: Brent's cycle search on
    x^2 + c mod n, its gcds batched over 128 steps, for c = 1, 2, ... until
    one splits n.  Deterministic."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step it again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of 1 <= n < _MR_LIMIT, primes increasing.

    Trial division by the primes below _TRIAL_BOUND, then Pollard-Brent
    splits the cofactor, every factor confirmed prime by Miller-Rabin and
    the product checked against n.  No sieve is built or grown.  Below
    _TRIAL_BOUND^2 this is plain trial division: the cofactor is 1 or a
    prime."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n >= _MR_LIMIT:
        raise ValueError(f"factorize requires n below {_MR_LIMIT}, got {n}")
    out, rest = _trial_division(n)
    large: dict[int, int] = {}
    stack = [rest] if rest > 1 else []
    while stack:
        m = stack.pop()
        if _miller_rabin(m):
            large[m] = large.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            stack += [d, m // d]
    out += sorted(large.items())
    assert math.prod(p**e for p, e in out) == n
    return out


@dataclass(frozen=True, slots=True)
class ExpVec:
    """Signed sparse prime -> exponent vector in canonical form.

    ``entries`` holds (prime, exponent) pairs with primes strictly increasing
    and no zero exponents, so equality is structural and the zero test is
    O(1).  Addition and subtraction re-canonicalize.
    """

    entries: tuple[tuple[int, int], ...] = ()

    @classmethod
    def _of(cls, pairs) -> "ExpVec":
        """Canonical form of (prime, exponent) pairs: the exponents of each
        prime summed, zeros dropped, primes increasing.  No validation."""
        acc: dict[int, int] = {}
        for p, e in pairs:
            acc[p] = acc.get(p, 0) + e
        return cls(tuple((int(p), int(e)) for p, e in sorted(acc.items()) if e))

    @classmethod
    def from_items(cls, items) -> "ExpVec":
        """Canonicalize arbitrary (prime, exponent) pairs; rejects non-primes."""
        v = cls._of(items)
        for p, _ in v.entries:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        return v

    @classmethod
    def of_int(cls, n: int) -> "ExpVec":
        """Exponent vector of an integer n >= 1 (trial division)."""
        return cls(tuple(factorize(n)))

    def exponent(self, p: int) -> int:
        for q, e in self.entries:
            if q == p:
                return e
            if q > p:
                break
        return 0

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def max_prime(self) -> int | None:
        return self.entries[-1][0] if self.entries else None

    def value(self) -> int:
        """The represented integer; requires all exponents nonnegative."""
        if any(e < 0 for _, e in self.entries):
            raise ValueError("negative exponent: no integer value")
        return math.prod(p**e for p, e in self.entries)

    def __add__(self, other: "ExpVec") -> "ExpVec":
        return ExpVec._of(self.entries + other.entries)

    def __sub__(self, other: "ExpVec") -> "ExpVec":
        return self + -other

    def __neg__(self) -> "ExpVec":
        return ExpVec(tuple((p, -e) for p, e in self.entries))

    def __str__(self) -> str:
        if not self.entries:
            return "1"
        return "*".join(f"{p}^{e}" if e != 1 else str(p) for p, e in self.entries)


def _legendre(n: int, p: int) -> int:
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def vp_factorial(n: int, p: int) -> int:
    """Exponent of prime p in n!: sum of floor(n / p^e) over e >= 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if p < 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return _legendre(n, p)


@cache
def factorial_expvec(n: int) -> ExpVec:
    """Exponent vector of n! over all primes <= n (Legendre's formula),
    memoized for the lifetime of the process by functools.cache, whose own
    lock makes it safe for threads: two threads may both compute one n!, and
    both get equal immutable values.  The census descent reads its own
    factorial tables instead."""
    if n < 0:
        raise ValueError("n must be >= 0")
    tbl = table(max(n, 2))
    return ExpVec(tuple((int(p), _legendre(n, int(p))) for p in tbl.primes_upto(n)))


def radical(a: int) -> int:
    """Product of the distinct primes dividing a; radical(1) = 1."""
    if a < 1:
        raise ValueError("radical requires a >= 1")
    return math.prod(p for p, _ in factorize(a))


def largest_prime_factor(n: int) -> int:
    """Greatest prime dividing n, with the convention P(1) = 1."""
    if n < 1:
        raise ValueError("largest_prime_factor requires n >= 1")
    f = factorize(n)
    return f[-1][0] if f else 1


def delta(m: int, k: int) -> tuple[int, ExpVec]:
    """m(m+1)...(m+k-1) as (big integer, exponent vector).

    The vector is built by factoring each term, independently of
    factorial_expvec, so the identity delta(m,k) = (m+k-1)!/(m-1)! is a
    testable cross-check rather than a definition.
    """
    if m < 1 or k < 1:
        raise ValueError("delta requires m >= 1 and k >= 1")
    terms = range(m, m + k)
    return math.prod(terms), ExpVec._of(pe for term in terms for pe in factorize(term))


def theta(nu: float) -> float:
    """Chebyshev theta: sum of log p over primes p <= nu (natural log)."""
    if nu < 1:
        raise ValueError("theta requires nu >= 1")
    if nu < 2:
        return 0.0
    ps = table(int(nu)).primes_upto(nu)
    return float(math.fsum(np.log(ps.astype(np.float64))))


def mertens_log_sum(nu: float) -> float:
    """Sum of (log p)/p over primes p <= nu."""
    if nu < 1:
        raise ValueError("mertens_log_sum requires nu >= 1")
    if nu < 2:
        return 0.0
    ps = table(int(nu)).primes_upto(nu).astype(np.float64)
    return float(math.fsum(np.log(ps) / ps))


def _sieve_primes(limit: int):
    """The primes up to limit, split for the radical and lpf sieves: the
    small ones, p <= isqrt(limit), as Python ints in increasing order, one
    strided op each; and one pass per multiplier j = 1 .. limit //
    (isqrt(limit) + 1) over the large primes q with j*q <= limit, as arrays
    (j*q, q).  An n <= limit has at most one prime factor above
    isqrt(limit), since two would multiply past limit: so the indices j*q
    are distinct within a pass and over all passes, and q is the largest
    prime factor of j*q."""
    primes = table(limit).primes_upto(limit)
    root = math.isqrt(limit)
    cut = int(np.searchsorted(primes, root, side="right"))
    large = primes[cut:]
    counts = np.searchsorted(large, limit // np.arange(1, limit // (root + 1) + 1), side="right")
    passes = ((j * large[:n], large[:n]) for j, n in enumerate(counts.tolist(), 1))
    return primes[:cut].tolist(), passes


def radical_table(limit: int) -> np.ndarray:
    """rad[i] for 0 <= i <= limit by sieve; rad[0] = 0 and rad[1] = 1.
    Each small prime multiplies into its multiples by a strided op; the
    large primes, each at most once a factor of any n <= limit, go in one
    fancy-indexed pass per multiplier (see _sieve_primes)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    _check_ceiling(limit)
    rad = np.ones(limit + 1, dtype=np.int64)
    rad[0] = 0
    small, passes = _sieve_primes(limit)
    for p in small:
        rad[p::p] *= p
    for at, q in passes:
        rad[at] *= q
    return rad


def lpf_table(limit: int) -> np.ndarray:
    """Largest-prime-factor table for 0 <= i <= limit; entry 1 is 1.
    The small primes write their multiples in increasing order, so a larger
    prime overwrites a smaller; then each large prime, the largest factor of
    every n <= limit it divides, writes its multiples in one fancy-indexed
    pass per multiplier (see _sieve_primes)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    _check_ceiling(limit)
    lpf = np.zeros(limit + 1, dtype=np.int64)
    lpf[1] = 1
    small, passes = _sieve_primes(limit)
    for p in small:
        lpf[p::p] = p
    for at, q in passes:
        lpf[at] = q
    return lpf
