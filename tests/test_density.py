import math
import os
import sys
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprod import density, fanout
from factprod.density import (
    RegionSpec,
    analytic_density_t3s2,
    indicator,
    mc_density,
    quadrature_density,
    sample_block,
)
from oracles import (
    count_hits_reference,
    ordering_density,
    s2_density_conjecture,
    sample_block_reference,
)


# ---------------------------------------------------------------- analytic

def test_analytic_values():
    assert analytic_density_t3s2(1) == Fraction(1, 120)
    assert analytic_density_t3s2(2) == Fraction(1, 80)
    assert analytic_density_t3s2(3) == Fraction(1, 72)
    assert analytic_density_t3s2(10) == Fraction(19, 1200)


def test_analytic_limit_is_one_sixtieth():
    assert analytic_density_t3s2(10**9) < Fraction(1, 60)
    assert float(Fraction(1, 60) - analytic_density_t3s2(10**9)) < 1e-10


def test_analytic_rejects_bad_c():
    with pytest.raises(ValueError):
        analytic_density_t3s2(0)
    with pytest.raises(ValueError):
        analytic_density_t3s2(1.5)
    with pytest.raises(ValueError):
        analytic_density_t3s2(True)


# ---------------------------------------------------------------- spec / indicator

def test_region_spec_validation():
    with pytest.raises(ValueError):
        RegionSpec(t=2, s=3, c=1)  # s > t
    with pytest.raises(ValueError):
        RegionSpec(t=3, s=2, c=0.5)
    with pytest.raises(ValueError):
        RegionSpec(t=3, s=2, c=1, pairing=(5,))
    with pytest.raises(ValueError):
        RegionSpec(t=4, s=3, c=1, pairing=(2, 2))
    assert RegionSpec(t=3, s=2, c=1).pairing == (2,)
    assert RegionSpec(t=4, s=3, c=1).pairing == (2, 3)


def test_indicator_examples():
    spec = RegionSpec(t=3, s=2, c=1)
    assert indicator((0.9, 0.5, 0.6, 0.3, 0.1), spec) is True
    assert indicator((0.9, 0.8, 0.85, 0.3, 0.1), spec) is False  # 0.5 > 0.05
    assert indicator((0.9, 0.5, 0.9, 0.3, 0.1), spec) is False  # boundary x1 = y1
    with pytest.raises(ValueError):
        indicator((0.5, 0.5, 0.5), spec)


def test_indicator_orderings():
    spec = RegionSpec(t=3, s=2, c=5)
    assert not indicator((0.5, 0.9, 0.4, 0.3, 0.1), spec)  # x not sorted
    assert not indicator((0.9, 0.5, 0.4, 0.1, 0.3), spec)  # y not sorted


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**63 - 1), st.integers(0, 5000))
def test_scalar_indicator_matches_vectorized(seed, start):
    spec = RegionSpec(t=3, s=2, c=1)
    pts = sample_block(seed, start, 64, spec.dims)
    scalar = sum(indicator(tuple(row), spec) for row in pts)
    assert scalar == density._survivor_hits(spec, seed, start, 64)


def _region_shapes():
    """Every (t, s, pairing) under the dimension guard s + t <= 6."""
    for t in range(2, 6):
        for s in range(1, min(t, 6 - t) + 1):
            for pairing in permutations(range(2, t + 1), s - 1):
                yield t, s, pairing


@pytest.mark.parametrize("t,s,pairing", list(_region_shapes()), ids=str)
def test_survivor_kernel_matches_dense_oracle(t, s, pairing):
    # counts of one row, a few rows, one chunk either side and several chunks;
    # each count is a prefix of one block, since samples are counter-based
    chunk = density._CHUNK
    counts = (1, 7, chunk - 1, chunk + 1, 3 * chunk + 5)
    for seed in (0, 2**63 + 7, 2**64 - 1, -5):
        for start in (0, 2**40 - 3, 2**40 + 3):
            pts = sample_block(seed, start, max(counts), s + t)
            for c in (1, 1.5, 2, 7 / 3, math.inf):
                spec = RegionSpec(t=t, s=s, c=c, pairing=pairing)
                for count in counts:
                    want = count_hits_reference(pts[:count], spec)
                    got = density._survivor_hits(spec, seed, start, count)
                    assert got == want, (spec, seed, start, count)


KEY_MAX = 2**53 - 1
RATIO_CS = (1, 1 + 2**-52, 1.5, 7 / 3, 2, 1e300, sys.float_info.max)


@st.composite
def _ratio_points(draw, c):
    """Keys (x1, x2, y1, y2) of a t = s = 2 sample that passes every test but
    the ratio test, with gap one key below, at or above the double c * k1
    where that is below 2^53: an exact tie when it is an integer (k1 = 2^51
    for c = 7/3, even k1 for c = 1.5, 2^52 for c = 1 + 2^-52)."""
    k1 = draw(st.integers(1, KEY_MAX) | st.sampled_from([1, 2, 3, 2**51, 2**52, KEY_MAX]))
    tie = c * float(k1)
    if tie < KEY_MAX:
        gap = min(max(int(tie) + draw(st.sampled_from([-1, 0, 1])), 1), KEY_MAX)
    else:
        gap = draw(st.integers(1, KEY_MAX))
    y1 = draw(st.integers(max(0, gap - k1), KEY_MAX - k1))
    y2 = draw(st.integers(0, min(y1, y1 + k1 - gap)))
    return (y1 + k1, y2 + gap, y1, y2)


@st.composite
def _key_rows(draw):
    c = draw(st.sampled_from(RATIO_CS))
    raw = st.tuples(*[st.integers(0, KEY_MAX)] * 4)
    return c, draw(st.lists(_ratio_points(c) | raw, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(_key_rows())
def test_survivor_kernel_key_tests_equal_the_float_tests(case):
    # the kernel, fed chosen keys, counts what the float indicator counts on
    # the doubles key * 2^-53, at the key extremes and at ratio ties
    c, points = case
    spec = RegionSpec(t=2, s=2, c=c)
    table = np.array(points, dtype=np.uint64)

    def chosen(seed, start, count, dims, *, dim, rows, keys):
        assert keys
        return table[rows, dim]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "sample_block", chosen)
        got = density._survivor_hits(spec, 0, 0, len(table))
    doubles = table.astype(np.float64) * 2.0**-53
    assert got == count_hits_reference(doubles, spec)
    assert got == sum(indicator(tuple(row), spec) for row in doubles)


# ---------------------------------------------------------------- sampler

def test_sampler_counter_based():
    a = sample_block(42, 0, 100, 5)
    b = np.vstack([sample_block(42, 0, 37, 5), sample_block(42, 37, 63, 5)])
    assert np.array_equal(a, b)
    c = sample_block(43, 0, 100, 5)
    assert not np.array_equal(a, c)
    assert float(a.min()) >= 0.0 and float(a.max()) < 1.0


@pytest.mark.parametrize("dims", range(1, 7))
def test_sampler_bytes_equal_reference(dims):
    # seeds at and above 2^63, past 2^64 (masked) and negative; starts near
    # 2^40; odd counts, the largest spanning several in-place chunks
    for seed in (0, 2**63, 2**63 + 12345, 2**64 - 1, 2**64 + 7, 2**70 + 3, -5):
        for start in (0, 2**40 - 3, 2**40 + 1):
            for count in (1, 7, 40_001):
                got = sample_block(seed, start, count, dims)
                want = sample_block_reference(seed, start, count, dims)
                assert got.shape == want.shape == (count, dims)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (seed, start, count, dims)


@pytest.mark.parametrize("dims", range(1, 7))
def test_sampler_column_equals_block_column(dims):
    # random offsets with repeats, the empty array, and a list
    rng = np.random.default_rng(dims)
    count = 20_001
    for seed in (0, 2**63 + 7, -5):
        for start in (0, 2**40 + 1):
            block = sample_block(seed, start, count, dims)
            for d in range(dims):
                for rows in (
                    rng.integers(0, count, size=500),
                    np.array([], dtype=np.int64),
                    [count - 1, 0, 5, 5],
                ):
                    got = sample_block(seed, start, count, dims, dim=d, rows=rows)
                    assert got.tobytes() == block[rows, d].tobytes(), (seed, start, d)
    with pytest.raises(ValueError):
        sample_block(0, 0, 10, dims, dim=dims, rows=[0])


@pytest.mark.parametrize("dims", [1, 4, 6])
def test_sampler_column_is_keys_times_2_to_minus_53(dims):
    # the survivor kernel decides on the keys the sampler scales
    rows = np.array([9, 0, 3, 3, 40_000], dtype=np.int64)
    for seed in (0, 2**63 + 7, 2**64 - 1, -5):
        for start in (0, 2**40 + 1):
            for d in range(dims):
                keys = sample_block(seed, start, 40_001, dims, dim=d, rows=rows, keys=True)
                assert keys.dtype == np.uint64 and int(keys.max()) < 2**53
                got = sample_block(seed, start, 40_001, dims, dim=d, rows=rows)
                assert (keys.astype(np.float64) * 2.0**-53).tobytes() == got.tobytes()


def test_sampler_is_roughly_uniform():
    u = sample_block(7, 0, 200_000, 1).ravel()
    assert abs(u.mean() - 0.5) < 0.005
    hist, _ = np.histogram(u, bins=10, range=(0, 1))
    assert hist.min() > 18_000


# ---------------------------------------------------------------- monte carlo

def test_mc_density_flagship():
    spec = RegionSpec(t=3, s=2, c=1)
    est = mc_density(spec, 400_000, seed=11)
    assert abs(est.mc_mean - 1 / 120) < 4 * est.mc_stderr
    assert est.mc_stderr == pytest.approx(
        math.sqrt(est.mc_mean * (1 - est.mc_mean) / est.samples)
    )


def test_mc_density_worker_and_batch_invariance(monkeypatch):
    spec = RegionSpec(t=3, s=2, c=2)
    base = mc_density(spec, 123_457, seed=5, workers=1)
    for workers in (2, 3, 8):
        assert mc_density(spec, 123_457, seed=5, workers=workers).mc_mean == base.mc_mean
    monkeypatch.setattr(density, "_BATCH", 1000)
    for workers in (1, 3):
        assert mc_density(spec, 123_457, seed=5, workers=workers).mc_mean == base.mc_mean


def test_mc_density_single_block_runs_in_process(monkeypatch):
    def no_fork(*args):
        raise AssertionError("a single block was sent to a forked worker")

    monkeypatch.setattr(fanout, "_fork_worker", no_fork)
    monkeypatch.setattr(fanout, "_pool", [])
    spec = RegionSpec(t=3, s=2, c=2)
    est = mc_density(spec, density._BATCH, seed=3, workers=2)
    assert est.mc_mean == mc_density(spec, density._BATCH, seed=3, workers=1).mc_mean


@pytest.mark.skipif(
    fanout.usable_cpus() < 2 or not hasattr(os, "fork"),
    reason="needs fork and two usable CPUs",
)
def test_mc_density_failing_worker_raises_and_leaves_no_process(monkeypatch, fresh_pool):
    # block 0 fails in the first worker while the second is still counting
    sampler = density.sample_block

    def failing(seed, start, *args, **kwargs):
        if start == 0:
            raise ZeroDivisionError("sampler failed at block 0")
        return sampler(seed, start, *args, **kwargs)

    monkeypatch.setattr(density, "sample_block", failing)
    with pytest.raises(RuntimeError, match="ZeroDivisionError: sampler failed at block 0"):
        mc_density(RegionSpec(t=3, s=2, c=2), 4 * density._BATCH, seed=1, workers=2)
    # the pool was killed and every worker reaped: none is left, not even a zombie
    assert len(fresh_pool) == 2 and fanout._pool == []
    for pid in fresh_pool:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# mc_mean and mc_stderr of the three benchmark density shapes at seed 0 and
# workers=2, recorded before the in-place sampler: hit counts 124593, 4182, 2063
MC_PINNED = [
    (RegionSpec(t=3, s=2, c=2), 10_000_000, 0.0124593, 3.507715188482383e-05),
    (RegionSpec(t=4, s=2, c=2), 2_000_000, 0.002091, 3.230036933999362e-05),
    (RegionSpec(t=3, s=3, c=1), 1_000_000, 0.002063, 4.537338461036382e-05),
]


@pytest.mark.parametrize("spec,samples,mean,stderr", MC_PINNED, ids=lambda v: str(v))
def test_mc_density_pinned(spec, samples, mean, stderr):
    est = mc_density(spec, samples, seed=0, workers=2)
    assert (est.mc_mean, est.mc_stderr) == (mean, stderr)


def test_mc_density_validation():
    with pytest.raises(ValueError):
        mc_density(RegionSpec(t=3, s=2, c=1), 0, seed=1)


# ---------------------------------------------------------------- quadrature

def test_quadrature_matches_analytic():
    for c in (1, 2, 3, 5, 10):
        q = quadrature_density(RegionSpec(t=3, s=2, c=c))
        assert q == pytest.approx(float(analytic_density_t3s2(c)), abs=1e-6)


def test_quadrature_v1_alone():
    q = quadrature_density(RegionSpec(t=3, s=2, c=math.inf))
    assert q == pytest.approx(1 / 60, abs=1e-6)


def test_quadrature_v2_complement():
    v1 = quadrature_density(RegionSpec(t=3, s=2, c=math.inf))
    for c in (1, 2):
        v2 = v1 - quadrature_density(RegionSpec(t=3, s=2, c=c))
        assert v2 == pytest.approx(1 / (120 * c), abs=1e-6)


def test_quadrature_s1_known_value():
    # x1 > y1 >= y2: one ordering of three coordinates -> 1/6
    q = quadrature_density(RegionSpec(t=2, s=1, c=1))
    assert q == pytest.approx(1 / 6, abs=1e-9)
    q = quadrature_density(RegionSpec(t=3, s=1, c=1))
    assert q == pytest.approx(1 / 24, abs=1e-9)


def test_quadrature_s3_exact_value_c1():
    # exact value 1/480; see test_quadrature_s3_exact_values for more cases
    q = quadrature_density(RegionSpec(t=3, s=3, c=1), 96)
    assert q == pytest.approx(1 / 480, abs=2e-6)


@pytest.mark.parametrize(
    "pairing,c,exact",
    [((2, 3), 1, Fraction(1, 480)), ((2, 3), 2, Fraction(37, 8640)), ((3, 2), 1, Fraction(1, 1440))],
)
def test_quadrature_s3_exact_values(pairing, c, exact):
    q = quadrature_density(RegionSpec(t=3, s=3, c=c, pairing=pairing), 96)
    assert type(q) is float
    assert abs(q - float(exact)) <= 2e-6


@pytest.mark.parametrize(
    "pairing,c,exact",
    [
        ((2, 3), 1, Fraction(1, 480)),
        ((2, 3), 2, Fraction(37, 8640)),
        ((3, 2), 1, Fraction(1, 1440)),
        ((2, 3), math.inf, ordering_density(3, 3, (2, 3))),
        ((3, 2), math.inf, ordering_density(3, 3, (3, 2))),
    ],
)
def test_quadrature_s3_within_3e_7_at_96(pairing, c, exact):
    q = quadrature_density(RegionSpec(t=3, s=3, c=c, pairing=pairing), 96)
    assert abs(q - float(exact)) <= 3e-7


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "pairing, small",
    [
        ((2, 3), {1: "0x1.1110b2dcbe059p-9", 2: "0x1.18a8177bae7e7p-8"}),
        ((3, 2), {1: "0x1.6c183b391a2c7p-11", 2: "0x1.18a8a38b12bf0p-9"}),
    ],
)
def test_quadrature_s3_huge_c_is_the_c_inf_value(pairing, small):
    """No gap on the s = 3 slice exceeds x1 = 1, so a huge finite c gives the
    c = inf value, with no overflow warning, and the values at c = 1 and 2 are
    the ones the uncapped gap bound gave, to the bit."""
    def q(c):
        return quadrature_density(RegionSpec(t=3, s=3, c=c, pairing=pairing), 96)

    at_inf = q(math.inf)
    for c in (1e200, 1e300, sys.float_info.max):
        assert q(c) == at_inf
    assert {c: float.hex(q(c)) for c in small} == small


@pytest.mark.parametrize("t", range(2, 6))
def test_quadrature_s1_is_the_closed_form(t):
    for c in (1, 2.5, math.inf):
        for res in (None, 1, 1000):
            assert quadrature_density(RegionSpec(t=t, s=1, c=c), res) == 1 / math.factorial(t + 1)


# every (t, s, pairing) under the dimension guard s + t <= 6
GUARDED_SHAPES = [
    (t, s, pairing)
    for s in (1, 2, 3)
    for t in range(max(s, 2), 7 - s)
    for pairing in (
        [()] if s == 1 else [(u,) for u in range(2, t + 1)] if s == 2 else [(2, 3), (3, 2)]
    )
]


def test_ordering_density_known_values():
    assert ordering_density(3, 2, (2,)) == Fraction(1, 60)
    assert ordering_density(4, 2, (3,)) == Fraction(1, 240)
    assert ordering_density(2, 2, (2,)) == Fraction(1, 12)
    assert ordering_density(3, 3, (2, 3)) == Fraction(1, 144)
    assert ordering_density(3, 3, (3, 2)) == Fraction(1, 240)


@pytest.mark.parametrize("t,s,pairing", GUARDED_SHAPES)
def test_quadrature_c_inf_matches_ordering_count(t, s, pairing):
    spec = RegionSpec(t=t, s=s, c=math.inf, pairing=pairing)
    exact = float(ordering_density(t, s, pairing))
    if s <= 2:
        assert abs(quadrature_density(spec) - exact) <= 1e-12
    else:
        assert abs(quadrature_density(spec, 96) - exact) <= 2e-6


# s = 2 quadrature at c = inf, by float.hex; the rule is exact on each piece,
# so resolutions default, 7 and 48 give the same bits
S2_C_INF_HEX = {
    (2, 2): "0x1.5555555555554p-4",
    (3, 2): "0x1.1111111111112p-6",
    (3, 3): "0x1.999999999999bp-6",
    (4, 2): "0x1.6c16c16c16c18p-9",
    (4, 3): "0x1.1111111111115p-8",
    (4, 4): "0x1.6c16c16c16c1bp-8",
}


@pytest.mark.parametrize("t,u", sorted(S2_C_INF_HEX))
def test_quadrature_s2_c_inf_pinned(t, u):
    spec = RegionSpec(t=t, s=2, c=math.inf, pairing=(u,))
    got = {float.hex(quadrature_density(spec, res)) for res in (None, 7, 48)}
    assert got == {S2_C_INF_HEX[t, u]}
    exact = float(ordering_density(t, 2, (u,)))
    assert abs(float.fromhex(S2_C_INF_HEX[t, u]) - exact) <= 4e-15 * exact


@pytest.mark.parametrize("t,u", sorted(S2_C_INF_HEX))
def test_quadrature_s2_matches_conjectured_closed_form(t, u):
    for c in [*range(1, 21), 1.5, 2.5, 7.25]:
        q = quadrature_density(RegionSpec(t=t, s=2, c=c, pairing=(u,)))
        want = float(s2_density_conjecture(t, u, c))
        assert abs(q - want) <= 1e-14 * want, c


@pytest.mark.parametrize("t,s,pairing", GUARDED_SHAPES)
def test_mc_c_inf_matches_ordering_count(t, s, pairing):
    spec = RegionSpec(t=t, s=s, c=math.inf, pairing=pairing)
    est = mc_density(spec, 200_000, seed=31)
    assert abs(est.mc_mean - float(ordering_density(t, s, pairing))) <= 5 * est.mc_stderr


def test_quadrature_dimension_guard():
    with pytest.raises(ValueError):
        quadrature_density(RegionSpec(t=5, s=2, c=1))
    with pytest.raises(ValueError):
        quadrature_density(RegionSpec(t=3, s=2, c=1), 0)


def test_quadrature_s3_work_budget():
    from factprod.density import _QUAD_CELLS, QuadratureBudgetError, _quad_resolution

    # one budget, on the s = 3 grid of res^2 cells: 2048 is admitted, 2049 is not
    s3 = RegionSpec(t=3, s=3, c=1)
    assert _quad_resolution(s3, None) == 64
    assert 2048**2 == _QUAD_CELLS
    assert _quad_resolution(s3, 2048) == 2048
    for resolution in (2049, 100_000):
        with pytest.raises(QuadratureBudgetError):
            _quad_resolution(s3, resolution)


def test_quadrature_cell_budget(monkeypatch):
    from factprod.density import QuadratureBudgetError

    s3 = RegionSpec(t=3, s=3, c=1)
    # s <= 2 is exact at any resolution, so none is refused
    for spec in (RegionSpec(t=3, s=1, c=1), RegionSpec(t=3, s=2, c=1)):
        assert quadrature_density(spec, 1_000_000) == quadrature_density(spec)

    def allocated(*args, **kwargs):
        raise AssertionError("an array was allocated past the quadrature guard")

    for name in ("empty", "zeros", "ones", "arange", "linspace", "full"):
        monkeypatch.setattr(np, name, allocated)
    for resolution in (2049, 100_000):
        with pytest.raises(QuadratureBudgetError):
            quadrature_density(s3, resolution)


def test_quadrature_monotone_in_c():
    vals = [quadrature_density(RegionSpec(t=3, s=2, c=c)) for c in (1, 2, 3, 5, 10)]
    assert vals == sorted(vals)
    vals = [quadrature_density(RegionSpec(t=4, s=2, c=c)) for c in (1, 2, 5)]
    assert vals == sorted(vals)


def test_quadrature_positive_with_margin():
    for spec in (
        RegionSpec(t=3, s=2, c=1),
        RegionSpec(t=4, s=2, c=1, pairing=(3,)),
        RegionSpec(t=3, s=3, c=1),
    ):
        q_hi = quadrature_density(spec, 64)
        q_lo = quadrature_density(spec, 32)
        err_est = abs(q_hi - q_lo) + 1e-12
        assert q_hi > 10 * err_est


# ---------------------------------------------------------------- cross-route matrix

MATRIX = [
    (RegionSpec(t=2, s=1, c=1), 120_000),
    (RegionSpec(t=3, s=1, c=1), 120_000),
    (RegionSpec(t=4, s=1, c=1), 120_000),
    (RegionSpec(t=2, s=2, c=1), 120_000),
    (RegionSpec(t=3, s=2, c=1), 200_000),
    (RegionSpec(t=3, s=2, c=2, pairing=(3,)), 200_000),
    (RegionSpec(t=4, s=2, c=2, pairing=(3,)), 200_000),
    (RegionSpec(t=4, s=2, c=5, pairing=(4,)), 200_000),
    (RegionSpec(t=3, s=3, c=1), 400_000),
    (RegionSpec(t=3, s=3, c=2, pairing=(3, 2)), 400_000),
]


@pytest.mark.parametrize("spec,samples", MATRIX, ids=lambda v: str(v))
def test_mc_agrees_with_quadrature(spec, samples):
    if not isinstance(spec, RegionSpec):
        pytest.skip()
    q = quadrature_density(spec)
    est = mc_density(spec, samples, seed=97)
    assert abs(est.mc_mean - q) <= 4 * est.mc_stderr
