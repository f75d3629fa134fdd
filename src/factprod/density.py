"""Asymptotic density of the solution-constraint region.

The region in the unit cube [0,1]^(s+t) (coordinates x_1..x_s, y_1..y_t)
is cut out by the orderings x_1 >= ... >= x_s and y_1 >= ... >= y_t, the
strict cross constraints x_1 > y_1 and x_j > y_{i_j} for the paired indices,
and the gap-ratio constraint max_j (x_j - y_{i_j}) <= c * (x_1 - y_1).

Three routes to its volume:

* analytic_density_t3s2 -- the exact closed form 1/60 - 1/(120c) for the
  flagship case t = 3, s = 2, pairing (2,).
* mc_density            -- counter-based Monte Carlo: coordinate (i, d)
  depends only on (seed, i, d), so the estimate is identical for any worker
  count or batch split.
* quadrature_density    -- nested integration: unpaired y coordinates and the
  innermost x block are integrated in closed form, the remaining outer
  variables numerically (Gauss-Legendre panels for s <= 2, where the reduced
  integrand is piecewise polynomial with a known breakpoint; midpoint panels
  for s = 3).

The region measures the CONSTRAINT set (orderings plus gap ratio), not the
solution set of the factorial equation, which has density zero; the indicator
performs no equation check.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / (1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def sample_block(seed: int, start: int, count: int, dims: int) -> np.ndarray:
    """Uniform [0,1) doubles for sample indices start..start+count-1,
    shape (count, dims); pure function of (seed, index, dimension)."""
    base = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    idx = np.arange(start * dims, (start + count) * dims, dtype=np.uint64)
    z = base + (idx + np.uint64(1)) * _PHI
    u = _mix64(z)
    return ((u >> np.uint64(11)).astype(np.float64) * _INV53).reshape(count, dims)


@dataclass(frozen=True, slots=True)
class RegionSpec:
    """Region parameters: t lhs coordinates, s rhs coordinates, gap-ratio
    bound c (>= 1; math.inf drops the ratio constraint), and the 1-based
    pairing indices (i_2, ..., i_s) into {2..t}; defaults to (2, ..., s)."""

    t: int
    s: int
    c: float
    pairing: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.t < 2:
            raise ValueError("t must be >= 2")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if self.s > self.t:
            raise ValueError("s must be <= t")
        if not self.c >= 1:
            raise ValueError("c must be >= 1")
        pairing = tuple(self.pairing) or tuple(range(2, self.s + 1))
        object.__setattr__(self, "pairing", pairing)
        if len(pairing) != self.s - 1:
            raise ValueError(f"pairing needs {self.s - 1} indices, got {pairing}")
        if len(set(pairing)) != len(pairing):
            raise ValueError(f"pairing indices not distinct: {pairing}")
        if any(i < 2 or i > self.t for i in pairing):
            raise ValueError(f"pairing indices must lie in 2..{self.t}: {pairing}")

    @property
    def dims(self) -> int:
        return self.s + self.t


def indicator(point, spec: RegionSpec) -> bool:
    """Indicator of the constraint region at one point (x's then y's)."""
    if len(point) != spec.dims:
        raise ValueError(f"point has {len(point)} coordinates, need {spec.dims}")
    x = point[: spec.s]
    y = point[spec.s :]
    if any(x[j] < x[j + 1] for j in range(spec.s - 1)):
        return False
    if any(y[i] < y[i + 1] for i in range(spec.t - 1)):
        return False
    k1 = x[0] - y[0]
    if not k1 > 0:
        return False
    for j, i in enumerate(spec.pairing, start=2):
        gap = x[j - 1] - y[i - 1]
        if not gap > 0:
            return False
        if math.isfinite(spec.c) and gap > spec.c * k1:
            return False
    return True


def _count_hits(pts: np.ndarray, spec: RegionSpec) -> int:
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


@dataclass(frozen=True, slots=True)
class DensityEstimate:
    analytic: Fraction | None
    mc_mean: float
    mc_stderr: float
    samples: int
    seed: int
    quadrature: float | None

    def to_json_obj(self) -> dict:
        return {
            "analytic": None
            if self.analytic is None
            else f"{self.analytic.numerator}/{self.analytic.denominator}",
            "mc_mean": self.mc_mean,
            "mc_stderr": self.mc_stderr,
            "samples": self.samples,
            "seed": self.seed,
            "quadrature": self.quadrature,
        }


def analytic_density_t3s2(c: int) -> Fraction:
    """Exact density 1/60 - 1/(120c) of the t = 3, s = 2, pairing (2,)
    constraint region, for integer c >= 1."""
    if isinstance(c, bool) or not isinstance(c, int):
        raise ValueError("c must be a positive integer")
    if c < 1:
        raise ValueError("c must be a positive integer")
    return Fraction(1, 60) - Fraction(1, 120 * c)


def mc_density(
    spec: RegionSpec,
    samples: int,
    seed: int,
    *,
    workers: int = 1,
    batch: int = 1 << 17,
) -> DensityEstimate:
    """Monte Carlo estimate of the region's volume.

    The sample-index range is split contiguously across workers; every
    coordinate is a pure function of (seed, sample index, dimension) and the
    merge is an exact integer sum, so the mean is identical for 1, 2, or any
    number of workers.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")

    def run(lo: int, hi: int) -> int:
        hits = 0
        pos = lo
        while pos < hi:
            n = min(batch, hi - pos)
            hits += _count_hits(sample_block(seed, pos, n, spec.dims), spec)
            pos += n
        return hits

    workers = max(1, workers)
    if workers == 1:
        hits = run(0, samples)
    else:
        step = (samples + workers - 1) // workers
        ranges = [
            (w * step, min((w + 1) * step, samples))
            for w in range(workers)
            if w * step < samples
        ]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(lambda r: run(*r), ranges))
    mean = hits / samples
    stderr = math.sqrt(mean * (1.0 - mean) / samples)
    return DensityEstimate(None, mean, stderr, samples, seed, None)


# ----------------------------------------------------------------------
# Nested-integration oracle
# ----------------------------------------------------------------------

_GL_NODES = 8


def _gl_panels(lo: float, hi: float, panels: int):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    xs = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    ws = (half[:, None] * weights[None, :]).ravel()
    return xs, ws


def _runs(spec: RegionSpec) -> tuple[int, int]:
    """Unpaired-y run lengths for s = 2: r1 strictly between y_1 and the
    paired coordinate, r2 below it."""
    u = spec.pairing[0]
    return u - 2, spec.t - u


def _S(q: int, z: np.ndarray, y1: np.ndarray, r1: int) -> np.ndarray:
    """Integral of (y1 - u)^r1 * u^q du from 0 to z, elementwise."""
    out = np.zeros_like(z)
    for i in range(r1 + 1):
        coeff = math.comb(r1, i) * (-1.0) ** i / (q + i + 1)
        out += coeff * y1 ** (r1 - i) * z ** (q + i + 1)
    return out


def _quad_s1(spec: RegionSpec, panels: int) -> float:
    # all y's integrate to y1^(t-1)/(t-1)!, then y1 to x1^t/t!
    xs, ws = _gl_panels(0.0, 1.0, panels)
    tfac = math.factorial(spec.t)
    return float(np.dot(ws, xs**spec.t / tfac))


def _quad_s2(spec: RegionSpec, panels: int) -> float:
    r1, r2 = _runs(spec)
    norm = math.factorial(r1) * math.factorial(r2)
    c = spec.c
    xs, wx = _gl_panels(0.0, 1.0, panels)

    def inner(v_nodes: np.ndarray, wv: np.ndarray, ratio_active: bool) -> float:
        X = xs[:, None]
        V = v_nodes[None, :]
        Y1 = X * V
        if ratio_active:
            G = c * (X - Y1)
            ustar = np.clip(X - G, 0.0, Y1)
            a_part = G * _S(r2, ustar, Y1, r1)
            b_full = X * _S(r2, Y1, Y1, r1) - _S(r2 + 1, Y1, Y1, r1)
            b_cut = X * _S(r2, ustar, Y1, r1) - _S(r2 + 1, ustar, Y1, r1)
            I = (a_part + b_full - b_cut) / norm
        else:
            I = (X * _S(r2, Y1, Y1, r1) - _S(r2 + 1, Y1, Y1, r1)) / norm
        return float(np.einsum("i,j,ij->", wx, wv, X * I))

    if not math.isfinite(c):
        vs, wv = _gl_panels(0.0, 1.0, panels)
        return inner(vs, wv, ratio_active=False)
    total = 0.0
    v0 = (c - 1.0) / c
    if v0 > 0.0:
        vs, wv = _gl_panels(0.0, v0, panels)
        total += inner(vs, wv, ratio_active=True)
    vs, wv = _gl_panels(v0, 1.0, panels)
    total += inner(vs, wv, ratio_active=True)
    return total


def _quad_s3(spec: RegionSpec, n: int) -> float:
    # s = 3 forces t = 3 under the dimension guard: all y's are paired.
    i2, i3 = spec.pairing
    c = spec.c
    nodes = (np.arange(n) + 0.5) / n
    A = nodes[None, :, None]  # y2 = y1 * alpha
    B = nodes[None, None, :]  # y3 = y2 * beta
    V = nodes[:, None, None]  # y1 = x1 * v
    total = 0.0
    for x1 in nodes:
        Y1 = x1 * V
        Y2 = Y1 * A
        Y3 = Y2 * B
        ys = {2: Y2, 3: Y3}
        G = c * (x1 - Y1) if math.isfinite(c) else np.inf
        A2 = ys[i2]
        B2 = np.minimum(x1, A2 + G)
        A3 = ys[i3]
        hi = np.minimum(A3 + G, B2)
        m = np.clip(A2, A3, hi)
        area = (m - A3) * (B2 - A2) + 0.5 * ((B2 - m) ** 2 - (B2 - hi) ** 2)
        area = np.where(hi > A3, area, 0.0)
        total += float(np.sum(x1 * Y1 * Y2 * area))
    return total / n**4


_DEFAULT_PANELS = {1: 512, 2: 48, 3: 64}


def _quad_panels(spec: RegionSpec, resolution: int | None) -> int:
    """Panel count for quadrature_density; rejects the shapes and
    resolutions it does not support."""
    if spec.s + spec.t > 6:
        raise ValueError("dimension guard: s + t must be <= 6")
    panels = resolution if resolution is not None else _DEFAULT_PANELS[min(spec.s, 3)]
    if panels < 1:
        raise ValueError("resolution must be >= 1")
    return panels


def quadrature_density(spec: RegionSpec, resolution: int | None = None) -> float:
    """Deterministic nested-integration estimate of the region's volume.

    ``resolution`` is the panel count per numeric axis (per-path defaults).
    For s <= 2 the reduced integrand is piecewise polynomial and the panels
    are Gauss-Legendre with the pieces split at the known breakpoint, so the
    result is exact to roundoff at any resolution; for s = 3 the outer axes
    use midpoint panels and the error decays like resolution^-2.
    """
    panels = _quad_panels(spec, resolution)
    if spec.s == 1:
        return _quad_s1(spec, panels)
    if spec.s == 2:
        return _quad_s2(spec, panels)
    if spec.s == 3:
        return _quad_s3(spec, panels)
    raise ValueError("the nested-integration oracle supports s <= 3")
