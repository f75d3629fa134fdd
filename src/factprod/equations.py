"""Factorial-product identities.

Models lhs_1! ... lhs_t! = rhs_1! ... rhs_s!, verifies it exactly on exponent
vectors, classifies solutions as trivial/nontrivial by the adjacent-pair rule
|a - n| = 1, rewrites solutions into gap form (products of consecutive-integer
blocks), and decides membership in the bounded-gap-ratio set N(c).

Equality is always decided on exponent vectors, never by multiplying the
factorials out; big-integer products belong to the test oracles.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Iterator

import numpy as np

from .factorint import ExpVec, factorial_expvec

TRIVIAL = "trivial"
NONTRIVIAL = "nontrivial"
# a classification by its index, as verify_rows gives it; None: does not hold
CLASSES = (None, TRIVIAL, NONTRIVIAL)

# The five identities of the classical bounded census (the Suranyi--Hickerson
# context); customary tabulations (Nair--Shorey) list all five as nontrivial,
# while the adjacent-pair rule classifies 15!*2!^4 = 16! as trivial.  verify()
# surfaces that discrepancy in the record's census_note.
KNOWN_BOUNDED_CENSUS = frozenset(
    {
        ((7, 3, 3, 2), (9,)),
        ((7, 6), (10,)),
        ((7, 5, 3), (10,)),
        ((14, 5, 2), (16,)),
        ((15, 2, 2, 2, 2), (16,)),
    }
)


class EquationError(ValueError):
    """Invalid equation, pairing, or literal; ``code`` names the violation."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _check_side(name: str, seq: tuple[int, ...]) -> None:
    if not seq:
        raise EquationError("empty", f"{name} side is empty")
    for v in seq:
        if type(v) is not int and (not isinstance(v, int) or isinstance(v, bool)):
            raise EquationError("entries", f"{name} entry {v!r} is not an integer")
        if v < 2:
            raise EquationError("entries", f"{name} entry {v} is below 2")
    if any(map(operator.lt, seq, seq[1:])):
        raise EquationError("ordering", f"{name} side not non-increasing: {seq}")


@dataclass(frozen=True, slots=True)
class FactorialEquation:
    """Candidate identity with both sides non-increasing, entries >= 2,
    no entry shared across sides, and rhs[0] > lhs[0] (canonical orientation)."""

    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        _check_side("lhs", self.lhs)
        _check_side("rhs", self.rhs)
        shared = set(self.lhs) & set(self.rhs)
        if shared:
            raise EquationError("overlap", f"entries on both sides: {sorted(shared)}")
        if self.rhs[0] <= self.lhs[0]:
            raise EquationError(
                "orientation", f"rhs[0] = {self.rhs[0]} must exceed lhs[0] = {self.lhs[0]}"
            )

    @property
    def t(self) -> int:
        return len(self.lhs)

    @property
    def s(self) -> int:
        return len(self.rhs)

    @classmethod
    def from_multisets(cls, lhs, rhs) -> "FactorialEquation":
        """Build from unordered entries (sorted into canonical form)."""
        return cls(tuple(sorted(lhs, reverse=True)), tuple(sorted(rhs, reverse=True)))

    @classmethod
    def parse(cls, literal: str) -> "FactorialEquation":
        """Parse "a1,...,at=n1,...,ns" (whitespace-insensitive, any entry order)."""
        text = "".join(literal.split())
        if text.count("=") != 1:
            raise EquationError("parse", f"expected exactly one '=' in {literal!r}")
        left, right = text.split("=")
        try:
            lhs = [int(v) for v in left.split(",") if v != ""] if left else []
            rhs = [int(v) for v in right.split(",") if v != ""] if right else []
        except ValueError as exc:
            raise EquationError("parse", f"bad integer in {literal!r}") from exc
        if not lhs or not rhs:
            raise EquationError("parse", f"missing side in {literal!r}")
        return cls.from_multisets(lhs, rhs)

    def __str__(self) -> str:
        return ",".join(map(str, self.lhs)) + "=" + ",".join(map(str, self.rhs))


def raw_residual(lhs, rhs) -> ExpVec:
    """Sum of rhs factorial vectors minus lhs factorial vectors, no validation.

    Relaxed entry point for ad-hoc queries (ordering/disjointness not
    enforced); entries must still be integers >= 0.
    """
    acc: dict[int, int] = {}
    for side, sign in ((rhs, 1), (lhs, -1)):
        for n in side:
            for p, e in factorial_expvec(n).entries:
                acc[p] = acc.get(p, 0) + sign * e
    return ExpVec(tuple((p, e) for p, e in sorted(acc.items()) if e))


def residual(eq: FactorialEquation) -> ExpVec:
    """Exponent-vector defect of the identity; zero iff the equation holds."""
    return raw_residual(eq.lhs, eq.rhs)


@cache
def _packed(n: int) -> int:
    """factorial_expvec(n) as one integer, the exponent of the i-th prime in its
    i-th 64-bit field, memoized.  No field of a sum of fewer than 2^36 of them
    carries: the sieve ceiling keeps every exponent below 2^28."""
    fields = b"".join(e.to_bytes(8, "little") for _, e in factorial_expvec(n).entries)
    return int.from_bytes(fields, "little")


def _sides_equal(lhs, rhs) -> bool:
    """raw_residual(lhs, rhs).is_zero(), decided on the packed vectors."""
    return sum(map(_packed, lhs)) == sum(map(_packed, rhs))


def verify_rows(lhs, rhs) -> np.ndarray:
    """``verify`` on the equations of row i of the zero-padded 2-D integer arrays
    ``lhs`` and ``rhs``, less trailing zeros: the index into CLASSES of each one's
    classification.  The first row that is no FactorialEquation raises its
    EquationError.  Each side sums the ``_packed`` vectors of its entries, as in
    verify; a pair |a - n| = 1 makes a holding row trivial, as in adjacent_pairs."""
    lhs, rhs = (np.hstack((m, np.zeros((len(m), 1), np.int64))) for m in (lhs, rhs))
    gaps = lhs[:, :, None] - rhs[:, None, :]
    ok = (rhs[:, 0] > lhs[:, 0]) & ~((gaps == 0) & (lhs[:, :, None] != 0)).any((1, 2))
    for m in (lhs, rhs):  # nonempty, entries >= 2 or 0, non-increasing (so zeros trail)
        ok &= (m[:, 0] != 0) & ((m >= 2) | (m == 0)).all(1) & (m[:, :-1] >= m[:, 1:]).all(1)
    if not ok.all():
        i = int(np.argmin(ok))
        FactorialEquation(*(np.trim_zeros(m[i], "b").tolist() for m in (lhs, rhs)))
    # entries (and 0, which pads) index a table as long as the largest, no longer
    # than the sieve its vector needs
    entries = np.concatenate((rhs, lhs), 1)
    present = np.arange(int(entries.max(initial=0)) + 1) == 0
    present[entries] = True
    size = 8 * len(factorial_expvec(len(present) - 1).entries)
    packed = map(_packed, np.flatnonzero(present).tolist())
    vecs = np.array([np.frombuffer(v.to_bytes(size, "little"), "<i8") for v in packed])
    index = (np.cumsum(present) - 1)[entries].T
    diff = vecs[index[0]]
    for j, k in enumerate(index[1:], 1):
        diff += vecs[k] if j < rhs.shape[1] else -vecs[k]
    holds = ~diff.any(1)
    return np.where(holds, np.where((np.abs(gaps) == 1).any((1, 2)), 1, 2), 0).astype(np.int8)


def adjacent_pairs(eq: FactorialEquation) -> tuple[tuple[int, int], ...]:
    """Distinct (a, n) value pairs with |a - n| = 1, sorted."""
    rhs = set(eq.rhs)
    found = {(a, n) for a in set(eq.lhs) for n in (a - 1, a + 1) if n in rhs}
    return tuple(sorted(found))


@dataclass(frozen=True, slots=True)
class SolutionRecord:
    """Verification outcome; classification is defined only when holds."""

    eq: FactorialEquation
    holds: bool
    classification: str | None
    delta_form: "DeltaForm | None" = None
    adjacent: tuple[tuple[int, int], ...] = ()
    census_note: str | None = None


def verify(eq: FactorialEquation) -> SolutionRecord:
    """Exactly decide the identity and classify it.

    A holding solution is trivial iff some pair (a_i, n_j) has |a_i - n_j| = 1;
    otherwise nontrivial.  For identities of the classical bounded census whose
    customary label disagrees with the adjacent-pair rule, census_note records
    the discrepancy.
    """
    holds = _sides_equal(eq.lhs, eq.rhs)
    if not holds:
        return SolutionRecord(eq, False, None)
    adj = adjacent_pairs(eq)
    classification = TRIVIAL if adj else NONTRIVIAL
    note = None
    if classification == TRIVIAL and (eq.lhs, eq.rhs) in KNOWN_BOUNDED_CENSUS:
        note = (
            "adjacent-pair rule classifies this identity trivial "
            f"(witness {adj[0][0]} vs {adj[0][1]}), but classical census "
            "tabulations (Nair--Shorey / Suranyi--Hickerson) list it as nontrivial"
        )
    return SolutionRecord(eq, True, classification, None, adj, note)


def trivial_family(tail, max_n: int = 1_000_000) -> FactorialEquation:
    """The trivial-family equation (n-1)! * prod(tail!) = n! with n = prod(tail!).

    Degenerate tails (n <= 2) fail validation; n beyond max_n trips the
    overflow guard.
    """
    tail_t = tuple(sorted(tail, reverse=True))
    if not tail_t:
        raise EquationError("empty", "tail is empty")
    for a in tail_t:
        if not isinstance(a, int) or a < 2:
            raise EquationError("entries", f"tail entry {a!r} is below 2")
    n = math.prod(math.factorial(a) for a in tail_t)
    if n > max_n:
        raise EquationError("overflow", f"n = {n} exceeds the configured bound {max_n}")
    lhs = tuple(sorted((n - 1,) + tail_t, reverse=True))
    return FactorialEquation(lhs, (n,))


@dataclass(frozen=True, slots=True)
class Pairing:
    """1-based lhs indices (i_1, ..., i_s); i_1 = 1 and all indices distinct."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))
        if not self.indices:
            raise EquationError("pairing", "pairing is empty")
        if self.indices[0] != 1:
            raise EquationError("pairing", "first index must be 1 (n1 pairs with a1)")
        if len(set(self.indices)) != len(self.indices):
            raise EquationError("pairing", f"indices not distinct: {self.indices}")
        if any(i < 1 for i in self.indices):
            raise EquationError("pairing", f"indices must be >= 1: {self.indices}")

    def validate_for(self, eq: FactorialEquation) -> None:
        if len(self.indices) != eq.s:
            raise EquationError(
                "pairing", f"pairing length {len(self.indices)} != s = {eq.s}"
            )
        for j, i in enumerate(self.indices):
            if i > eq.t:
                raise EquationError("pairing", f"index {i} exceeds t = {eq.t}")
            if eq.rhs[j] <= eq.lhs[i - 1]:
                raise EquationError(
                    "pairing",
                    f"n_{j + 1} = {eq.rhs[j]} must exceed paired a_{i} = {eq.lhs[i - 1]}",
                )


@dataclass(frozen=True, slots=True)
class DeltaForm:
    """Gap-form rewrite: one (m_j, k_j) block per rhs entry plus the leftover
    lhs entries.  m_j = a_{i_j} + 1 and k_j = n_j - a_{i_j}, so m_j + k_j - 1 = n_j.

    Blocks with k_j = 1 witness an adjacent pair (a trivial solution); they are
    surfaced by unit_gap_blocks rather than rejected here.
    """

    blocks: tuple[tuple[int, int], ...]
    leftover: tuple[int, ...]

    @property
    def m1(self) -> int:
        return self.blocks[0][0]

    @property
    def k1(self) -> int:
        return self.blocks[0][1]

    @property
    def unit_gap_blocks(self) -> tuple[int, ...]:
        """1-based block positions with k_j = 1."""
        return tuple(j for j, (_, k) in enumerate(self.blocks, start=1) if k == 1)


def to_delta_form(eq: FactorialEquation, pairing: Pairing) -> DeltaForm:
    """Rewrite the identity as prod(leftover!) = prod of consecutive blocks."""
    pairing.validate_for(eq)
    blocks = tuple(
        (eq.lhs[i - 1] + 1, k) for i, k in zip(pairing.indices, block_gaps(eq, pairing))
    )
    used = set(pairing.indices)
    leftover = tuple(a for i, a in enumerate(eq.lhs, start=1) if i not in used)
    return DeltaForm(blocks, leftover)


def delta_form_holds(df: DeltaForm) -> bool:
    """True iff prod(leftover!) equals prod of the blocks on exponent vectors:
    block (m, k) is (m + k - 1)! / (m - 1)!."""
    lhs = [*df.leftover, *(m - 1 for m, _ in df.blocks)]
    return _sides_equal(lhs, [m + k - 1 for m, k in df.blocks])


def default_pairing(eq: FactorialEquation) -> Pairing | None:
    """Greedy deterministic pairing: n_1 with a_1, then each n_j with the
    smallest unused lhs index it exceeds; None when no valid pairing exists."""
    if eq.s > eq.t:
        return None
    indices = [1]
    for j in range(1, eq.s):
        pick = None
        for i in range(2, eq.t + 1):
            if i not in indices and eq.rhs[j] > eq.lhs[i - 1]:
                pick = i
                break
        if pick is None:
            return None
        indices.append(pick)
    return Pairing(tuple(indices))


def all_pairings(eq: FactorialEquation) -> Iterator[Pairing]:
    """All valid pairings (ordered assignments of rhs entries to lhs indices)."""
    if eq.s > eq.t:
        return
    for rest in permutations(range(2, eq.t + 1), eq.s - 1):
        indices = (1,) + rest
        if all(eq.rhs[j] > eq.lhs[i - 1] for j, i in enumerate(indices)):
            yield Pairing(indices)


def block_gaps(eq: FactorialEquation, pairing: Pairing) -> list[int]:
    """The block lengths k_j = n_j - a_{i_j} of the gap form for ``pairing``,
    which is not validated."""
    return [n - eq.lhs[i - 1] for n, i in zip(eq.rhs, pairing.indices)]


def nc_pairings(eq: FactorialEquation, c) -> list[bool]:
    """For each pairing of ``all_pairings(eq)``, in order, whether its block
    gaps meet the gap-ratio condition of N(c): ``in_nc`` over every valid
    pairing of a solution already verified nontrivial."""
    return [gap_ratio_ok(block_gaps(eq, p), c) for p in all_pairings(eq)]


def gap_ratio_ok(ks, c) -> bool:
    """The gap-ratio condition of N(c) on block lengths k_1..k_s:
    max(k_2..k_s) <= c * k_1, vacuous when s = 1."""
    return len(ks) == 1 or max(ks[1:]) <= c * ks[0]


def in_nc(eq: FactorialEquation, pairing: Pairing, c) -> bool:
    """Membership in N(c) for this pairing: the solution must hold, be
    nontrivial, satisfy n_j > a_{i_j} for all j, and have
    max(k_2..k_s) <= c * k_1 (no gap-ratio constraint when s = 1)."""
    if c <= 0:
        raise ValueError("c must be positive")
    rec = verify(eq)
    if not rec.holds:
        raise EquationError("not-a-solution", f"{eq} does not hold")
    pairing.validate_for(eq)
    if rec.classification != NONTRIVIAL:
        return False
    return gap_ratio_ok(block_gaps(eq, pairing), c)
