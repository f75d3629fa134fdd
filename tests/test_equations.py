import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprod.equations import (
    CLASSES,
    NONTRIVIAL,
    TRIVIAL,
    DeltaForm,
    EquationError,
    FactorialEquation,
    Pairing,
    adjacent_pairs,
    all_pairings,
    default_pairing,
    delta_form_holds,
    in_nc,
    raw_residual,
    residual,
    to_delta_form,
    trivial_family,
    verify,
    verify_rows,
)
from factprod.factorint import ExpVec, factorial_expvec
from factprod.search import DeltaSolution

from oracles import trivial_family_census


# ---------------------------------------------------------------- validation

def test_constructor_error_codes():
    with pytest.raises(EquationError) as e:
        FactorialEquation((7, 8), (10,))
    assert e.value.code == "ordering"
    with pytest.raises(EquationError) as e:
        FactorialEquation((7, 1), (10,))
    assert e.value.code == "entries"
    with pytest.raises(EquationError) as e:
        FactorialEquation((7, 5), (10, 5))
    assert e.value.code == "overlap"
    with pytest.raises(EquationError) as e:
        FactorialEquation((10, 2), (7,))
    assert e.value.code == "orientation"
    with pytest.raises(EquationError) as e:
        FactorialEquation((), (7,))
    assert e.value.code == "empty"


def test_parse_and_format():
    eq = FactorialEquation.parse(" 7, 3,3 ,2 = 9 ")
    assert eq.lhs == (7, 3, 3, 2) and eq.rhs == (9,)
    assert str(eq) == "7,3,3,2=9"
    assert FactorialEquation.parse("3,7,2,3=9") == eq  # any entry order
    for bad in ("7,6=", "=9", "7;6=9", "7,6=10=11", "a,b=c"):
        with pytest.raises(EquationError) as e:
            FactorialEquation.parse(bad)
        assert e.value.code in ("parse", "empty")


# ---------------------------------------------------------------- residual

def test_residual_known_identity_is_zero():
    assert residual(FactorialEquation((7, 6), (10,))).is_zero()


def test_residual_near_miss_value():
    # 10!/(7!5!) = 6 = 2*3, so the defect is exactly {2:+1, 3:+1}
    r = residual(FactorialEquation((7, 5), (10,)))
    assert r.as_dict() == {2: 1, 3: 1}


def test_raw_residual_relaxed_mode():
    # rejected upstream by disjointness, but the relaxed route answers anyway
    assert raw_residual((2,), (2,)).is_zero()
    assert not raw_residual([3, 3], [4]).is_zero()  # 36 != 24
    assert raw_residual([4, 3], [2]) == -(raw_residual([2], [4, 3]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 60), max_size=6),
    st.lists(st.integers(0, 60), max_size=4),
)
def test_raw_residual_is_the_termwise_difference(lhs, rhs):
    # one pass over every term gives the vector that adding and subtracting
    # one factorial vector at a time gives: sorted, without zero exponents
    acc = ExpVec()
    for n in rhs:
        acc = acc + factorial_expvec(n)
    for a in lhs:
        acc = acc - factorial_expvec(a)
    got = raw_residual(lhs, rhs)
    assert got == acc
    assert all(e for _, e in got.entries)
    assert [p for p, _ in got.entries] == sorted({p for p, _ in got.entries})


# ---------------------------------------------------------------- verify / classify

def test_verify_examples():
    rec = verify(FactorialEquation((7, 3, 3, 2), (9,)))
    assert rec.holds and rec.classification == NONTRIVIAL
    rec = verify(FactorialEquation((23, 4), (24,)))
    assert rec.holds and rec.classification == TRIVIAL
    rec = verify(FactorialEquation((15, 2, 2, 2, 2), (16,)))
    assert rec.holds and rec.classification == TRIVIAL
    assert rec.census_note is not None  # formal rule disagrees with the classical tabulation
    rec = verify(FactorialEquation((8, 3), (9,)))
    assert not rec.holds and rec.classification is None


def test_solution_record_pickle_round_trip():
    for eq in (
        FactorialEquation((7, 6), (10,)),
        FactorialEquation((15, 2, 2, 2, 2), (16,)),  # trivial, with a census note
        FactorialEquation((8, 3), (9,)),  # does not hold
    ):
        rec = verify(eq)
        pairing = default_pairing(eq)
        for r in (rec, replace(rec, delta_form=to_delta_form(eq, pairing))):
            assert pickle.loads(pickle.dumps(r)) == r
    sol = DeltaSolution((35, 34), (36, 3))
    assert pickle.loads(pickle.dumps(sol)) == sol


def test_census_note_only_on_disagreement():
    assert verify(FactorialEquation((14, 5, 2), (16,))).census_note is None
    assert verify(FactorialEquation((23, 4), (24,))).census_note is None


def test_adjacent_pairs():
    assert adjacent_pairs(FactorialEquation((15, 2, 2, 2, 2), (16,))) == ((15, 16),)
    assert adjacent_pairs(FactorialEquation((7, 6), (10,))) == ()
    assert adjacent_pairs(FactorialEquation((11, 9, 2), (12, 10))) == ((9, 10), (11, 10), (11, 12))


@settings(max_examples=40, deadline=None)
@given(st.permutations([7, 3, 3, 2]))
def test_classification_reorder_invariant(shuffled):
    rec = verify(FactorialEquation.from_multisets(shuffled, [9]))
    assert rec.holds and rec.classification == NONTRIVIAL


# ---------------------------------------------------------------- trivial family

def test_trivial_family_examples():
    eq = trivial_family([4])
    assert eq.lhs == (23, 4) and eq.rhs == (24,)
    rec = verify(eq)
    assert rec.holds and rec.classification == TRIVIAL
    eq = trivial_family([3, 3])
    assert eq.lhs == (35, 3, 3) and eq.rhs == (36,)
    assert verify(eq).holds
    with pytest.raises(EquationError):
        trivial_family([2])  # n = 2 degenerates to an entry below 2


def test_trivial_family_overflow_guard():
    with pytest.raises(EquationError) as e:
        trivial_family([10])
    assert e.value.code == "overflow"
    assert trivial_family([10], max_n=10**7).rhs == (math.factorial(10),)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=3))
def test_trivial_family_always_verifies_trivial(tail):
    try:
        eq = trivial_family(tail)
    except EquationError:
        return  # degenerate tail
    rec = verify(eq)
    assert rec.holds and rec.classification == TRIVIAL


# ---------------------------------------------------------------- gap form

def test_to_delta_form_examples():
    eq = FactorialEquation((14, 5, 2), (16,))
    df = to_delta_form(eq, Pairing((1,)))
    assert df.blocks == ((15, 2),) and df.leftover == (5, 2)
    assert math.prod(math.factorial(a) for a in df.leftover) == 240 == 15 * 16

    eq = FactorialEquation((10, 6, 4, 2), (12, 8))
    df = to_delta_form(eq, Pairing((1, 2)))
    assert df.blocks == ((11, 2), (7, 2)) and df.leftover == (4, 2)

    eq = FactorialEquation((7, 6), (10,))
    df = to_delta_form(eq, Pairing((1,)))
    assert df.blocks == ((8, 3),) and df.leftover == (6,)
    assert 8 * 9 * 10 == 720 == math.factorial(6)


def test_pairing_validation():
    eq = FactorialEquation((10, 6, 4, 2), (12, 8))
    with pytest.raises(EquationError):
        Pairing((2, 1))  # first index must be 1
    with pytest.raises(EquationError):
        Pairing((1, 1))  # distinct
    with pytest.raises(EquationError):
        to_delta_form(eq, Pairing((1,)))  # wrong length
    with pytest.raises(EquationError):
        to_delta_form(FactorialEquation((10, 9), (12, 8)), Pairing((1, 2)))  # 8 < 9


def test_unit_gap_flagging():
    df = to_delta_form(FactorialEquation((23, 4), (24,)), Pairing((1,)))
    assert df.blocks == ((24, 1),) and df.unit_gap_blocks == (1,)


def test_delta_form_holds():
    eq = FactorialEquation((14, 5, 2), (16,))
    assert delta_form_holds(to_delta_form(eq, Pairing((1,))))
    bad = DeltaForm(((15, 2),), (5, 3))
    assert not delta_form_holds(bad)


def test_reexpansion_reproduces_residual():
    # blocks minus leftover equals the residual, for any valid pairing
    for eq in (
        FactorialEquation((14, 5, 2), (16,)),
        FactorialEquation((10, 6, 4, 2), (12, 8)),
        FactorialEquation((8, 3), (9,)),  # non-holding: still an identity on vectors
    ):
        for pairing in all_pairings(eq):
            df = to_delta_form(eq, pairing)
            acc = ExpVec()
            for j, i in enumerate(pairing.indices):
                acc = acc + factorial_expvec(eq.rhs[j]) - factorial_expvec(eq.lhs[i - 1])
            for a in df.leftover:
                acc = acc - factorial_expvec(a)
            assert acc == residual(eq)


def test_default_pairing_deterministic_and_valid():
    eq = FactorialEquation((10, 6, 4, 2), (12, 8))
    p = default_pairing(eq)
    assert p.indices == (1, 2)
    p.validate_for(eq)
    # no valid pairing when s > t
    assert default_pairing(FactorialEquation((5,), (7, 6))) is None


# ---------------------------------------------------------------- N(c)

def test_in_nc_examples():
    eq = FactorialEquation((14, 5, 2), (16,))
    assert in_nc(eq, Pairing((1,)), 1)  # s = 1: no gap-ratio constraint
    with pytest.raises(EquationError):
        in_nc(FactorialEquation((8, 3), (9,)), Pairing((1,)), 1)  # not a solution


def test_in_nc_ratio_on_s2_solution():
    # 7!7!6!6! = 10!10! is nontrivial with s = 2
    eq = FactorialEquation((7, 7, 6, 6), (10, 10))
    rec = verify(eq)
    assert rec.holds and rec.classification == NONTRIVIAL
    # pairing (1,2): gaps (3,3) -> ratio 1, in N(c) for every c >= 1
    assert in_nc(eq, Pairing((1, 2)), 1)
    # pairing (1,3): gaps (3,4) -> ratio 4/3 > 1 but <= 2
    assert not in_nc(eq, Pairing((1, 3)), 1)
    assert in_nc(eq, Pairing((1, 3)), 2)


def test_in_nc_rejects_trivial_solution():
    eq = FactorialEquation((23, 4), (24,))
    assert verify(eq).classification == TRIVIAL
    assert not in_nc(eq, Pairing((1,)), 5)


# ---------------------------------------------------------------- exact check

class _IntSub(int):
    pass


# (lhs, rhs, (code, message) or None), as FactorialEquation raised them
# before its side check took the fast path: the same checks, entry by entry
BAD_SIDES = [
    ((), (7,), ("empty", "lhs side is empty")),
    ((7,), (), ("empty", "rhs side is empty")),
    ((7, 8), (10,), ("ordering", "lhs side not non-increasing: (7, 8)")),
    ((7, 1), (10,), ("entries", "lhs entry 1 is below 2")),
    ((1, "x"), (10,), ("entries", "lhs entry 1 is below 2")),
    (("x", 1), (10,), ("entries", "lhs entry 'x' is not an integer")),
    ((7, 2.0), (10,), ("entries", "lhs entry 2.0 is not an integer")),
    ((True,), (10,), ("entries", "lhs entry True is not an integer")),
    ((7, None), (10,), ("entries", "lhs entry None is not an integer")),
    ((7, 0), (10,), ("entries", "lhs entry 0 is below 2")),
    ((7, -3), (10,), ("entries", "lhs entry -3 is below 2")),
    ((3, 3, 4, 2), (10,), ("ordering", "lhs side not non-increasing: (3, 3, 4, 2)")),
    ((7, 5, 3), (10, 11), ("ordering", "rhs side not non-increasing: (10, 11)")),
    ((7, 5), (10, 1), ("entries", "rhs entry 1 is below 2")),
    ((7, 5), (10, 2.5), ("entries", "rhs entry 2.5 is not an integer")),
    ((7, 5), (10, False), ("entries", "rhs entry False is not an integer")),
    ((7, 5), (10, 5), ("overlap", "entries on both sides: [5]")),
    ((10, 2), (7,), ("orientation", "rhs[0] = 7 must exceed lhs[0] = 10")),
    ((7, 6), (7,), ("overlap", "entries on both sides: [7]")),
    ((_IntSub(7), _IntSub(6)), (_IntSub(10),), None),
    ((2, 2, 1, 5), (10,), ("entries", "lhs entry 1 is below 2")),
    ((7, 6), (10, 3, 1, "y"), ("entries", "rhs entry 1 is below 2")),
]


@pytest.mark.parametrize("lhs, rhs, want", BAD_SIDES)
def test_side_check_codes_and_messages_are_pinned(lhs, rhs, want):
    if want is None:
        assert FactorialEquation(lhs, rhs).lhs == tuple(lhs)
        return
    with pytest.raises(EquationError) as e:
        FactorialEquation(lhs, rhs)
    assert (e.value.code, str(e.value)) == want


_IDENTITIES = [((7, 3, 3, 2), (9,)), ((7, 6), (10,)), ((14, 5, 2), (16,)), ((7, 7, 6, 6), (10, 10))]
_entries = st.lists(st.integers(0, 10_000), max_size=36)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    common=_entries,
    left=_entries,
    right=_entries,
    identity=st.sampled_from(_IDENTITIES),
    order=st.randoms(use_true_random=False),
)
def test_exact_check_matches_the_residual(common, left, right, identity, order):
    """The packed-vector comparison decides exactly what the per-prime
    residual decides, on equations made to hold (a known identity plus a
    shared multiset, in any order) and on arbitrary sides, with repeats;
    each side has at most 40 entries up to 10^4."""
    from factprod.equations import _sides_equal

    lhs, rhs = common + list(identity[0]), common + list(identity[1])
    order.shuffle(lhs)
    order.shuffle(rhs)
    assert _sides_equal(lhs, rhs) and raw_residual(lhs, rhs).is_zero()
    for lhs, rhs in ((common + left[:4], common + right[:4]), (left, right), (left, left[::-1])):
        assert _sides_equal(lhs, rhs) == raw_residual(lhs, rhs).is_zero()


def _padded(sides):
    """Sides as the rows of a zero-padded int array."""
    width = max(map(len, sides), default=0)
    rows = [list(v) + [0] * (width - len(v)) for v in sides]
    return np.array(rows, np.int64).reshape(len(sides), width)


def _trim(side):
    """A side as verify_rows reads its zero-padded row, less trailing zeros."""
    side = list(side)
    while side and side[-1] == 0:
        side.pop()
    return tuple(side)


def _nudged(row, k, step):
    """``row`` with its k-th lhs entry (mod t) moved by ``step``, re-sorted."""
    lhs = list(row[0])
    lhs[k % len(lhs)] += step
    return tuple(sorted(lhs, reverse=True)), row[1]


_HOLDING = _IDENTITIES + sorted(trivial_family_census(10_000, 12))
_anything = st.lists(st.one_of(st.integers(-1, 40), st.integers(2, 10_000)), max_size=12)
_row = st.one_of(
    st.sampled_from(_HOLDING),
    st.builds(_nudged, st.sampled_from(_HOLDING), st.integers(0, 11), st.sampled_from((-1, 1))),
    st.tuples(_anything, _anything),
    st.tuples(_anything.map(sorted), _anything.map(sorted)).map(lambda r: (r[0][::-1], r[1][::-1])),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(_row, min_size=1, max_size=10))
def test_batched_check_matches_verify(rows):
    """verify_rows gives, row by row, the holds and classification verify
    gives, on identities, near misses and arbitrary sides (entries up to
    10^4, with repeats); where a row is no equation, it raises the
    EquationError FactorialEquation raises on the first such row, and the
    rows that are equations are checked again on their own."""
    first, valid, want = None, [], []
    for left, right in rows:
        try:
            eq = FactorialEquation(_trim(left), _trim(right))
        except EquationError as err:
            first = first or err
            continue
        valid.append((left, right))
        want.append(CLASSES.index(verify(eq).classification))
    if first is not None:
        with pytest.raises(EquationError) as got:
            verify_rows(_padded([r[0] for r in rows]), _padded([r[1] for r in rows]))
        assert (got.value.code, str(got.value)) == (first.code, str(first))
    got = verify_rows(_padded([r[0] for r in valid]), _padded([r[1] for r in valid]))
    assert got.tolist() == want


# the cases an int array can hold: no other types, and no side ending in 0,
# which its zero padding cannot tell apart from a shorter side
_INT_SIDES = [c for c in BAD_SIDES if c[2] and all(type(v) is int for v in c[0] + c[1])]


@pytest.mark.parametrize("lhs, rhs, want", [c for c in _INT_SIDES if c[0][-1:] != (0,)])
def test_batched_check_codes_and_messages_are_pinned(lhs, rhs, want):
    # after a row that holds, so the first invalid row of the batch raises
    with pytest.raises(EquationError) as e:
        verify_rows(_padded([(7, 6), lhs]), _padded([(10,), rhs]))
    assert (e.value.code, str(e.value)) == want


def test_verify_and_delta_form_use_the_exact_check(monkeypatch):
    # neither builds the per-prime defect vector any more
    from factprod import equations

    def boom(*args):
        raise AssertionError("raw_residual called")

    monkeypatch.setattr(equations, "raw_residual", boom)
    assert verify(FactorialEquation((14, 5, 2), (16,))).holds
    assert not verify(FactorialEquation((14, 5, 3), (16,))).holds
    eq = FactorialEquation((7, 7, 6, 6), (10, 10))
    assert delta_form_holds(to_delta_form(eq, default_pairing(eq)))
