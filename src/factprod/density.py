"""Asymptotic density of the solution-constraint region.

The region in the unit cube [0,1]^(s+t) (coordinates x_1..x_s, y_1..y_t)
is cut out by the orderings x_1 >= ... >= x_s and y_1 >= ... >= y_t, the
strict cross constraints x_1 > y_1 and x_j > y_{i_j} for the paired indices,
and the gap-ratio constraint max_j (x_j - y_{i_j}) <= c * (x_1 - y_1).

Three routes to its volume:

* analytic_density_t3s2 -- the exact closed form 1/60 - 1/(120c) for the
  flagship case t = 3, s = 2, pairing (2,); every s = 1 region is the
  ordered simplex, of volume 1/(t+1)!.
* mc_density            -- counter-based Monte Carlo: coordinate (i, d)
  depends only on (seed, i, d), so it can be drawn alone, for any subset of
  samples.  Each coordinate is drawn only for the samples that passed every
  constraint before it, and every constraint is decided on the sampler's
  53-bit integer keys, with doubles made only for the gap-ratio test: the
  hits equal those of the indicator on the doubles key * 2^-53.  Fixed
  sample blocks are dealt out by ``fanout.deal`` to ``_hits``, a pure
  function of its pickled arguments, on the pool's warm workers, so the
  estimate is identical for any worker count.
* quadrature_density    -- nested integration on a cone: every constraint is
  homogeneous and every coordinate is at most x_1, so the volume is that of
  the slice x_1 = 1 divided by s + t.  On the slice the unpaired y
  coordinates and the innermost x block are integrated in closed form; for
  s = 2 one Gauss-Legendre panel on each side of a known breakpoint takes
  the piecewise-polynomial remainder in y_1 exactly, and for s = 3 the
  innermost y coordinate is integrated in closed form as well and a midpoint
  grid covers (y_1, y_2 / y_1) in O(resolution^2) time.

The region measures the CONSTRAINT set (orderings plus gap ratio), not the
solution set of the factorial equation, which has density zero; the indicator
performs no equation check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fanout
from .factorint import _CHUNK

_MASK64 = 0xFFFFFFFFFFFFFFFF
_PHI = 0x9E3779B97F4A7C15
_ROUNDS = (
    (np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
    (np.uint64(27), np.uint64(0x94D049BB133111EB)),
    (np.uint64(31), None),
)
_INV53 = 1.0 / (1 << 53)
# The survivor kernel works on one chunk of _CHUNK rows at a time (see
# factorint): no array it makes holds more than _CHUNK 8-byte keys (measured:
# 16K-row chunks ran slower than 12K with the mmap threshold held at 128 KiB,
# and mixing into preallocated buffers gained nothing).  The one exception is
# its pool of the rows that pass the y ordering, about count / t! row
# offsets, made once per call.  mc_density counts whole blocks of _BATCH
# samples.
_BATCH = 1 << 17


def _keys(seed: int, start: int, dims: int, dim: int, rows: np.ndarray) -> np.ndarray:
    """53-bit keys (uint64, below 2^53) of coordinate ``dim`` of samples
    start + rows: the one mixing routine.  The coordinate itself is the
    double key * 2^-53."""
    # counter k = (start + r) * dims + dim, and z = seed + (k + 1) * phi (mod 2^64)
    z = np.multiply(rows.view(np.uint64), np.uint64(dims * _PHI & _MASK64))
    z += np.uint64((seed + (start * dims + dim + 1) * _PHI) & _MASK64)
    tmp = np.empty_like(z)
    for shift, mul in _ROUNDS:
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        if mul is not None:
            z *= mul
    z >>= np.uint64(11)
    return z


def sample_block(
    seed: int,
    start: int,
    count: int,
    dims: int,
    *,
    dim: int | None = None,
    rows=None,
    keys: bool = False,
) -> np.ndarray:
    """Uniform [0,1) doubles for sample indices start..start+count-1,
    shape (count, dims); pure function of (seed, index, dimension).

    Counter k = index * dims + dimension maps to the splitmix64 output of
    seed + (k + 1) * phi (mod 2^64), whose top 53 bits form the double.

    With ``dim`` and ``rows`` it returns only coordinate ``dim`` of samples
    start + r for the integer offsets r in ``rows``, equal byte for byte to
    ``sample_block(seed, start, count, dims)[rows, dim]``.  With ``keys`` it
    returns the 53-bit integer keys (uint64) instead of the doubles
    key * 2^-53."""
    if dim is not None:
        if not 0 <= dim < dims:
            raise ValueError(f"dim must be in range({dims}), got {dim}")
        out = _keys(seed, start, dims, dim, np.asarray(rows, dtype=np.int64))
    else:
        rows = np.arange(count)
        out = np.stack([_keys(seed, start, dims, d, rows) for d in range(dims)], axis=1)
    # exact below 2^53, and int64 converts faster than uint64
    return out if keys else out.view(np.int64) * _INV53


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
            raise ValueError(f"t must be >= 2, got {self.t}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if self.s > self.t:
            raise ValueError(f"s must be <= t, got s = {self.s} > t = {self.t}")
        if not self.c >= 1:
            raise ValueError(f"c must be >= 1 (inf drops the ratio bound), got {self.c}")
        pairing = tuple(self.pairing) or tuple(range(2, self.s + 1))
        object.__setattr__(self, "pairing", pairing)
        if len(pairing) != self.s - 1:
            raise ValueError(f"pairing must be s - 1 = {self.s - 1} indices, got {pairing}")
        if len(set(pairing)) != len(pairing):
            raise ValueError(f"pairing must be distinct indices, got {pairing}")
        if any(i < 2 or i > self.t for i in pairing):
            raise ValueError(f"pairing must be indices in 2..{self.t}, got {pairing}")

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


def _survivor_hits(spec: RegionSpec, seed: int, start: int, count: int) -> int:
    """How many of samples start..start+count-1 lie in the region.

    The y ordering is tested one chunk of rows at a time: the keys of y1 and
    y2 are drawn for every row, and each later y only for the rows still
    ordered.  The rows that pass are pooled over all chunks, and the pool is
    cut into chunks again for the sparser tests: x1 > y1, then each x_j with
    its paired y, each coordinate drawn only for the rows that passed every
    test before it (a y read again is drawn again).  Pooling pays the
    per-call cost of those small arrays once per pooled chunk instead of
    once per chunk of samples.

    Every test is decided on the keys K (coordinate u = K * 2^-53) and
    decides as the indicator does on the doubles, so the hits equal those of
    testing the whole block at once:
    * the orderings, x1 > y1 and gap > 0 compare keys: u_a >= u_b exactly
      when K_a >= K_b;
    * k1 = x1 - y1 and gap = xj - yi are exact doubles, multiples of 2^-53
      below 1, so they are the key differences K1 and G times 2^-53;
    * scaling by 2^53 commutes with rounding, since c * K1 >= 1 is never
      subnormal and overflows to inf only where c * k1 is far above any gap;
      so gap <= c * k1 exactly when float(G) <= c * float(K1).
    Doubles are made only from the key differences of rows with x1 > y1."""
    s, dims, c = spec.s, spec.dims, spec.c

    def key(d: int, rows: np.ndarray) -> np.ndarray:
        return sample_block(seed, start, count, dims, dim=d, rows=rows, keys=True).view(np.int64)

    # dimension j - 1 holds x_j and dimension s + i - 1 holds y_i
    ordered = []
    for pos in range(0, count, _CHUNK):
        rows = np.arange(pos, min(pos + _CHUNK, count))
        y = key(s, rows)
        for d in range(s + 1, dims):
            yd = key(d, rows)
            live = np.flatnonzero(y >= yd)
            rows, y = rows[live], yd[live]
        ordered.append(rows)
    ordered = np.concatenate(ordered)
    hits = 0
    for pos in range(0, len(ordered), _CHUNK):
        rows = ordered[pos : pos + _CHUNK]
        x = key(0, rows)
        k1 = x - key(s, rows)
        live = np.flatnonzero(k1 > 0)
        rows, x = rows[live], x[live]
        # c * K1 overflows only far above every gap, and c = inf makes every
        # bound inf, which drops the ratio test as the indicator does
        with np.errstate(over="ignore"):
            bound = c * k1[live].astype(np.float64)
        for j, i in enumerate(spec.pairing, start=1):
            xj = key(j, rows)
            gap = xj - key(s + i - 1, rows)
            ok = x >= xj
            ok &= gap > 0
            ok &= gap.astype(np.float64) <= bound
            live = np.flatnonzero(ok)
            rows, x, bound = rows[live], xj[live], bound[live]
        hits += len(rows)
    return hits


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


def _analytic_density(spec: RegionSpec) -> Fraction | None:
    """The region's exact volume where a closed form is known: 1/(t+1)! for
    s = 1 (x1 above an ordered y run) and analytic_density_t3s2 for t = 3,
    s = 2, pairing (2,) at integer c; None for every other shape."""
    if spec.s == 1:
        return Fraction(1, math.factorial(spec.t + 1))
    if (spec.t, spec.s, spec.pairing) == (3, 2, (2,)) and float(spec.c).is_integer():
        return analytic_density_t3s2(int(spec.c))
    return None


def _hits(spec: RegionSpec, seed: int, samples: int, batch: int, blocks) -> int:
    """The hits of the blocks of ``batch`` samples starting at each of ``blocks``
    (the last one cut at ``samples``): a ``fanout.deal`` job, so the caller's
    _BATCH comes as ``batch``."""
    return sum(_survivor_hits(spec, seed, pos, min(batch, samples - pos)) for pos in blocks)


def mc_density(spec: RegionSpec, samples: int, seed: int, *, workers: int = 1) -> DensityEstimate:
    """Monte Carlo estimate of the region's volume.

    The sample indices are cut into blocks of _BATCH and dealt round-robin
    to ``workers`` by ``fanout.deal``, which decides how many of its pool's
    forked workers share them or whether they run in-process.  Each block is
    counted by the survivor kernel, which draws a coordinate only for the
    samples that passed every earlier constraint.
    Every coordinate is a pure function of (seed, sample index, dimension)
    and the hits are an exact integer sum, so the mean is identical for any
    worker count or block size.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    blocks = range(0, samples, _BATCH)
    total = sum(fanout.deal(_hits, (spec, seed, samples, _BATCH), blocks, workers))
    mean = total / samples
    stderr = math.sqrt(mean * (1.0 - mean) / samples)
    return DensityEstimate(None, mean, stderr, samples, seed, None)


# ----------------------------------------------------------------------
# Nested-integration oracle
# ----------------------------------------------------------------------
#
# Every constraint is homogeneous and every coordinate is at most x1 (x_j <=
# x1, y_i <= y1 < x1), so the region is a cone over its slice at x1 = 1 and
# its volume is vol(slice) / (s + t).  On the slice the ratio bound on each
# paired gap is G = c * (1 - y1); at c = inf it is G = x1 = 1, which no gap
# exceeds, so the ratio constraint is inactive.

_GL_NODES = 8


def _gl_panel(lo: float, hi: float):
    """Gauss-Legendre nodes/weights on [lo, hi], exact to degree 15."""
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    half = 0.5 * (hi - lo)
    return lo + half * (nodes + 1.0), half * weights


def _S(q: int, z: np.ndarray, y1: np.ndarray, r1: int) -> np.ndarray:
    """Integral of (y1 - u)^r1 * u^q du from 0 to z, elementwise."""
    out = np.zeros_like(z)
    for i in range(r1 + 1):
        coeff = math.comb(r1, i) * (-1.0) ** i / (q + i + 1)
        out += coeff * y1 ** (r1 - i) * z ** (q + i + 1)
    return out


def _slice_s2(spec: RegionSpec) -> float:
    # unpaired y runs: r1 strictly between y1 and the paired y_u, r2 below it;
    # x2 in (y_u, min(1, y_u + G)] has length G for y_u below 1 - G, else 1 - y_u
    u = spec.pairing[0]
    r1, r2 = u - 2, spec.t - u
    norm = math.factorial(r1) * math.factorial(r2)
    c = spec.c
    # G drops below 1 at y1 = v0 = (c - 1) / c; on each side of it the
    # integrand is a polynomial in y1 of degree t, so one panel is exact
    v0 = (c - 1.0) / c if math.isfinite(c) else 1.0
    total = 0.0
    for lo, hi in ((0.0, v0), (v0, 1.0)):
        if lo < hi:
            y1, w = _gl_panel(lo, hi)
            G = c * (1.0 - y1) if math.isfinite(c) else 1.0
            ustar = np.clip(1.0 - G, 0.0, y1)
            a_part = G * _S(r2, ustar, y1, r1)
            b_full = _S(r2, y1, y1, r1) - _S(r2 + 1, y1, y1, r1)
            b_cut = _S(r2, ustar, y1, r1) - _S(r2 + 1, ustar, y1, r1)
            total += float(np.dot(w, a_part + b_full - b_cut))
    return total / norm


def _K(w: np.ndarray, G) -> np.ndarray:
    """Double antiderivative of min(G, u) in u, vanishing at 0:
    (w^3 - (w - G)_+^3) / 6 for w >= 0."""
    return (w**3 - np.maximum(w - G, 0.0) ** 3) / 6.0


def _L(w: np.ndarray, G) -> np.ndarray:
    """Antiderivative of min(G, u) in u, vanishing at 0 (the derivative of _K)."""
    return (w**2 - np.maximum(w - G, 0.0) ** 2) / 2.0


def _slice_s3(spec: RegionSpec, n: int) -> float:
    # s = 3 forces t = 3 under the dimension guard: all y's are paired.  F is
    # the (x2, x3) area integrated over y3 in [0, y2], in closed form because
    # the x3 extent min(G, x2 - y_paired) is piecewise linear; y1 and
    # alpha = y2 / y1 take midpoint panels with Jacobian y1.
    nodes = (np.arange(n) + 0.5) / n
    Y1 = nodes[:, None]
    Y2 = Y1 * nodes[None, :]
    # no gap on the slice exceeds x1 = 1, so G = c (1 - y1) is capped there: at
    # huge c, _K would cube it past the float range
    G = np.minimum(spec.c * (1.0 - Y1), 1.0)
    if spec.pairing == (2, 3):
        # x2 in [y2, min(1, y2 + G)], x3 in [y3, y3 + min(G, x2 - y3)]
        B2 = np.minimum(1.0, Y2 + G)
        F = _K(B2, G) - _K(Y2, G) - _K(B2 - Y2, G)
    else:
        # x2 in [y2, min(1, y3 + G)], x3 in [y2, y2 + min(G, x2 - y2)]:
        # empty for y3 below y2 - G, and x2's bound is 1 above y3 = 1 - G
        lo = np.maximum(Y2 - G, 0.0)
        mid = np.clip(1.0 - G, 0.0, Y2)
        F = _K(mid + G - Y2, G) - _K(lo + G - Y2, G) + _L(1.0 - Y2, G) * (Y2 - mid)
    return float(np.sum(Y1 * F)) / n**2


_S3_RESOLUTION = 64
# Most float64 cells the s = 3 grid may hold in one array: 32 MiB, resolution 2048.
_QUAD_CELLS = 1 << 22


class QuadratureBudgetError(RuntimeError):
    """A quadrature that evaluates more cells than its budget was asked
    for: a resource guard, raised before anything is allocated."""


def _quad_resolution(spec: RegionSpec, resolution: int | None) -> int:
    """Grid size for quadrature_density; rejects the shapes and resolutions
    it does not support or whose s = 3 grid exceeds the cell budget."""
    if spec.s + spec.t > 6:
        raise ValueError("dimension guard: s + t must be <= 6")
    n = _S3_RESOLUTION if resolution is None else resolution
    if n < 1:
        raise ValueError(f"resolution must be >= 1, got {n}")
    if spec.s == 3 and n * n > _QUAD_CELLS:
        raise QuadratureBudgetError(
            f"quadrature resolution {n} needs {n * n} cells, "
            f"above the budget of {_QUAD_CELLS}"
        )
    return n


def quadrature_density(spec: RegionSpec, resolution: int | None = None) -> float:
    """Deterministic nested-integration estimate of the region's volume.

    The region is a cone in x1, so its volume is that of the slice x1 = 1
    divided by s + t.  For s = 1 the slice is the ordered simplex and the
    result is 1/(t+1)!; for s = 2 the slice integrand is piecewise polynomial
    in y1 with a known breakpoint, one Gauss-Legendre panel per piece makes it
    exact to roundoff, and ``resolution`` (validated >= 1) has no effect.  For
    s = 3 the (x2, x3) area and the innermost y coordinate are integrated in
    closed form and (y1, y2/y1) take a resolution x resolution midpoint grid
    (default 64), so the error decays like resolution^-2 (about 1e-8 against
    1/480 at 96) in O(resolution^2) time and memory.  An s = 3 resolution
    whose grid would exceed 2^22 cells (above 2048) raises
    QuadratureBudgetError before anything is allocated.
    """
    n = _quad_resolution(spec, resolution)
    if spec.s == 1:
        return 1.0 / math.factorial(spec.t + 1)
    vol = _slice_s2(spec) if spec.s == 2 else _slice_s3(spec, n)
    return vol / spec.dims
