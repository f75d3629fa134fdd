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
  integrand is piecewise polynomial with a known breakpoint; for s = 3 the
  innermost y coordinate is integrated in closed form as well and midpoint
  panels cover the three outer axes).

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

_MASK64 = 0xFFFFFFFFFFFFFFFF
_PHI = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / (1 << 53)
# The sampler mixes one cache-sized chunk of counters at a time, in place.
_CHUNK = 1 << 15


def sample_block(seed: int, start: int, count: int, dims: int) -> np.ndarray:
    """Uniform [0,1) doubles for sample indices start..start+count-1,
    shape (count, dims); pure function of (seed, index, dimension).

    Counter k = index * dims + dimension maps to the splitmix64 output of
    seed + (k + 1) * phi (mod 2^64), whose top 53 bits form the double."""
    total = count * dims
    out = np.empty(total, dtype=np.float64)
    z = np.empty(min(_CHUNK, total), dtype=np.uint64)
    tmp = np.empty_like(z)
    steps = np.arange(len(z), dtype=np.uint64)
    steps *= np.uint64(_PHI)  # k * phi (mod 2^64) for offset k within a chunk
    first = start * dims + 1
    for pos in range(0, total, _CHUNK):
        m = min(_CHUNK, total - pos)
        zm, tm = z[:m], tmp[:m]
        np.add(steps[:m], np.uint64((seed + (first + pos) * _PHI) & _MASK64), out=zm)
        for shift, mul in ((30, _MIX1), (27, _MIX2), (31, None)):
            np.right_shift(zm, np.uint64(shift), out=tm)
            zm ^= tm
            if mul is not None:
                zm *= mul
        zm >>= np.uint64(11)
        np.multiply(zm, _INV53, out=out[pos : pos + m])
    return out.reshape(count, dims)


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
    # unpaired y runs: r1 strictly between y_1 and the paired y_u, r2 below it
    u = spec.pairing[0]
    r1, r2 = u - 2, spec.t - u
    norm = math.factorial(r1) * math.factorial(r2)
    c = spec.c
    xs, wx = _gl_panels(0.0, 1.0, panels)
    X = xs[:, None]

    def inner(v_nodes: np.ndarray, wv: np.ndarray) -> float:
        Y1 = X * v_nodes[None, :]
        G = c * (X - Y1) if math.isfinite(c) else 1.0
        ustar = np.clip(X - G, 0.0, Y1)
        a_part = G * _S(r2, ustar, Y1, r1)
        b_full = X * _S(r2, Y1, Y1, r1) - _S(r2 + 1, Y1, Y1, r1)
        b_cut = X * _S(r2, ustar, Y1, r1) - _S(r2 + 1, ustar, Y1, r1)
        I = (a_part + b_full - b_cut) / norm
        return float(np.einsum("i,j,ij->", wx, wv, X * I))

    # G, the ratio bound on the paired gap, binds only for v = y1 / x1 below
    # v0 = (c - 1) / c, so the v axis splits there.  At c = inf no gap
    # exceeds 1, so G = 1 and v0 = 1 leave it inactive.
    v0 = (c - 1.0) / c if math.isfinite(c) else 1.0
    total = 0.0
    for lo, hi in ((0.0, v0), (v0, 1.0)):
        if lo < hi:
            total += inner(*_gl_panels(lo, hi, panels))
    return total


def _K(w: np.ndarray, G) -> np.ndarray:
    """Double antiderivative of min(G, u) in u, vanishing at 0:
    (w^3 - (w - G)_+^3) / 6 for w >= 0."""
    return (w**3 - np.maximum(w - G, 0.0) ** 3) / 6.0


def _L(w: np.ndarray, G) -> np.ndarray:
    """Antiderivative of min(G, u) in u, vanishing at 0 (the derivative of _K)."""
    return (w**2 - np.maximum(w - G, 0.0) ** 2) / 2.0


def _quad_s3(spec: RegionSpec, n: int) -> float:
    # s = 3 forces t = 3 under the dimension guard: all y's are paired.  F is
    # the (x2, x3) area integrated over y3 in [0, y2], in closed form because
    # the x3 extent min(G, x2 - y_paired) is piecewise linear; x1, v = y1 / x1
    # and alpha = y2 / y1 take midpoint panels with Jacobian x1 * y1.  At
    # c = inf no gap exceeds 1, so G = 1 leaves the ratio constraint inactive.
    c = spec.c
    nodes = (np.arange(n) + 0.5) / n
    V = nodes[:, None]
    A = nodes[None, :]
    total = 0.0
    for x1 in nodes:
        Y1 = x1 * V
        Y2 = Y1 * A
        G = c * (x1 - Y1) if math.isfinite(c) else 1.0
        if spec.pairing == (2, 3):
            # x2 in [y2, min(x1, y2 + G)], x3 in [y3, y3 + min(G, x2 - y3)]
            B2 = np.minimum(x1, Y2 + G)
            F = _K(B2, G) - _K(Y2, G) - _K(B2 - Y2, G)
        else:
            # x2 in [y2, min(x1, y3 + G)], x3 in [y2, y2 + min(G, x2 - y2)]:
            # empty for y3 below y2 - G, and x2's bound is x1 above y3 = x1 - G
            lo = np.maximum(Y2 - G, 0.0)
            mid = np.clip(x1 - G, 0.0, Y2)
            F = _K(mid + G - Y2, G) - _K(lo + G - Y2, G) + _L(x1 - Y2, G) * (Y2 - mid)
        total += float(x1 * np.sum(Y1 * F))
    return total / n**3


_DEFAULT_PANELS = {1: 512, 2: 48, 3: 64}
# Most float64 cells an s <= 2 quadrature may evaluate: 32 MiB as one array.
_QUAD_CELLS = 1 << 22
# The s = 3 rule holds O(res^2) cells at a time but does res^3 cell work;
# 2^26 of it (resolution 406) took about 6 s on a 2-core VM.
_QUAD_S3_CELLS = 1 << 26


class QuadratureBudgetError(RuntimeError):
    """A quadrature that evaluates more cells than its budget was asked
    for: a resource guard, raised before anything is allocated."""


def _quad_panels(spec: RegionSpec, resolution: int | None) -> int:
    """Panel count for quadrature_density; rejects the shapes and
    resolutions it does not support or whose work exceeds the cell budget."""
    if spec.s + spec.t > 6:
        raise ValueError("dimension guard: s + t must be <= 6")
    panels = resolution if resolution is not None else _DEFAULT_PANELS[min(spec.s, 3)]
    if panels < 1:
        raise ValueError("resolution must be >= 1")
    # s <= 2: one array over the Gauss-Legendre grid; s = 3: n arrays of (n, n)
    cells = {1: _GL_NODES * panels, 2: (_GL_NODES * panels) ** 2, 3: panels**3}[spec.s]
    budget = _QUAD_S3_CELLS if spec.s == 3 else _QUAD_CELLS
    if cells > budget:
        raise QuadratureBudgetError(
            f"quadrature resolution {panels} needs {cells} cells, "
            f"above the budget of {budget}"
        )
    return panels


def quadrature_density(spec: RegionSpec, resolution: int | None = None) -> float:
    """Deterministic nested-integration estimate of the region's volume.

    ``resolution`` is the panel count per numeric axis (per-path defaults).
    For s <= 2 the reduced integrand is piecewise polynomial and the panels
    are Gauss-Legendre with the pieces split at the known breakpoint, so the
    result is exact to roundoff at any resolution.  For s = 3 the (x2, x3)
    area and the innermost y coordinate are integrated in closed form and the
    three outer axes (x1, y1/x1, y2/y1) use midpoint panels, so the error
    decays like resolution^-2 (about 3e-7 at 96), time is O(resolution^3)
    and memory O(resolution^2).  A resolution whose cell count (the largest
    array for s <= 2, all resolution^3 cells for s = 3) would exceed its
    budget raises QuadratureBudgetError before anything is allocated.
    """
    panels = _quad_panels(spec, resolution)
    if spec.s == 1:
        return _quad_s1(spec, panels)
    if spec.s == 2:
        return _quad_s2(spec, panels)
    if spec.s == 3:
        return _quad_s3(spec, panels)
    raise ValueError("the nested-integration oracle supports s <= 3")
