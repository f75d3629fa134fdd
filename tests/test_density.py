import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factprod.density import (
    RegionSpec,
    analytic_density_t3s2,
    indicator,
    mc_density,
    quadrature_density,
    sample_block,
)
from oracles import ordering_density, sample_block_reference


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
    from factprod.density import _count_hits

    spec = RegionSpec(t=3, s=2, c=1)
    pts = sample_block(seed, start, 64, spec.dims)
    scalar = sum(indicator(tuple(row), spec) for row in pts)
    assert scalar == _count_hits(pts, spec)


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


def test_mc_density_worker_and_batch_invariance():
    spec = RegionSpec(t=3, s=2, c=2)
    base = mc_density(spec, 123_457, seed=5, workers=1)
    for workers in (2, 3, 8):
        assert mc_density(spec, 123_457, seed=5, workers=workers).mc_mean == base.mc_mean
    assert mc_density(spec, 123_457, seed=5, batch=1000).mc_mean == base.mc_mean


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


def test_quadrature_cell_budget():
    from factprod.density import _DEFAULT_PANELS, _QUAD_CELLS, QuadratureBudgetError, _quad_panels

    # the defaults and the benchmark's 96 stay far inside the budget
    for spec in (RegionSpec(t=3, s=1, c=1), RegionSpec(t=3, s=2, c=1), RegionSpec(t=3, s=3, c=1)):
        assert _quad_panels(spec, None) == _DEFAULT_PANELS[spec.s]
        assert _quad_panels(spec, 96) == 96
    assert (8 * _DEFAULT_PANELS[2]) ** 2 * 16 < _QUAD_CELLS
    assert 96**2 * 16 < _QUAD_CELLS
    with pytest.raises(QuadratureBudgetError):
        quadrature_density(RegionSpec(t=3, s=3, c=1), 100_000)
    with pytest.raises(QuadratureBudgetError):
        quadrature_density(RegionSpec(t=3, s=2, c=1), 1_000_000)


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
