"""Analytical moving-Gaussian-laser temperature field and melt-pool depth.

The temperature rise at (x, y, z) after the laser has travelled for time t
along +x at speed v is the time integral of a Gaussian surface source over
a semi-infinite body:

    T - T0 = C * int_0^t (t-t')^(-1/2) / (2*a*(t-t') + sigma^2)
             * exp(-((x - v*t')^2 + y^2) / (4*a*(t-t') + 2*sigma^2)
                   - z^2 / (4*a*(t-t'))) dt'

with C = gain * absorptivity * P / (pi * rho * cp * sqrt(4*pi*a)).  The
integrand has an integrable (t-t')^(-1/2) singularity at t' = t;
substituting u = sqrt(t - t') removes it analytically, after which
composite Gauss-Legendre quadrature with panel doubling converges quickly.

Two calibration conventions are baked into the defaults, fitted against
measured single-track SS316L depths on a powder-fed L-DED machine:

* the machine's quoted beam parameter (0.918 mm) is an e^-2 radius, so the
  Gaussian distribution parameter is half of it (0.459 mm);
* a dimensionless source gain (2.42) folds the net difference between the
  idealized conduction model and the real process (powder preheat, bead
  reinforcement, convection in the pool) into the source amplitude.

All internal quantities are SI (m, s, K, W).  Depths are reported in mm at
the interface, matching how process parameters are quoted for L-DED.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MM_PER_M = 1e3
MMPM_TO_MPS = 1.0 / 60000.0  # mm/min -> m/s

#: distribution parameter = BEAM_TO_SIGMA * quoted beam parameter
BEAM_TO_SIGMA = 0.5
#: the machine's quoted beam parameter, mm (an e^-2 radius)
DEFAULT_BEAM_MM = 0.918
#: dimensionless source amplitude calibration (see module docstring)
DEFAULT_SOURCE_GAIN = 2.42

# Depth-extraction protocol constants
_X_WINDOW_BEHIND = 5.0  # trailing window, multiples of sigma
_X_WINDOW_AHEAD = 2.0
_N_X_SAMPLES = 64
_QUAD_REL_TOL = 1e-6  # panel doubling stops at this relative change
#: depth bracket of the liquidus root search, m
Z_MAX = 5e-3
_T_START = 2.0  # s
_T_GROWTH = 1.5
_MAX_EXTENSIONS = 4
_DEPTH_TOL_MM = 1e-3
#: final bisection intervals (leaves) in [0, Z_MAX], each 7.6e-8 m wide
_LEAVES = 2**16


def _bisection_nodes() -> np.ndarray:
    """Depth (m) of every bisection tree node i, 0 <= i <= _LEAVES: the
    boundary between leaves i - 1 and i, as the bisection computes it,
    0.5 * (left end + right end) level by level, in place."""
    nodes = np.empty(_LEAVES + 1)
    nodes[0], nodes[_LEAVES] = 0.0, Z_MAX
    span = _LEAVES
    while span > 1:
        mid = nodes[span // 2::span]
        np.add(nodes[:-1:span], nodes[span::span], out=mid)
        mid *= 0.5
        span //= 2
    return nodes


_NODES = _bisection_nodes()

#: 12-point Gauss-Legendre rule on [-1, 1], applied on every panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


class QuadratureError(ArithmeticError):
    """Raised when the temperature integral produces non-finite values
    or fails to converge (signals bad units or corrupted inputs)."""


@dataclass(frozen=True)
class MaterialEnv:
    """Physical constants of the thermal model (SI units).

    Defaults are the SS316L values used throughout: ambient 300 K,
    liquidus 1700 K, cp 680 J/(kg K), rho 7400 kg/m^3, diffusivity
    7.1542e-6 m^2/s, distribution parameter 0.459 mm (half the 0.918 mm
    beam parameter), absorptivity 0.3.
    """

    t0: float = 300.0
    t_liq: float = 1700.0
    cp: float = 680.0
    rho: float = 7400.0
    diffusivity: float = 7.1542e-6
    sigma: float = BEAM_TO_SIGMA * DEFAULT_BEAM_MM * 1e-3
    absorptivity: float = 0.3
    source_gain: float = DEFAULT_SOURCE_GAIN

    def __post_init__(self):
        for name in ("t0", "t_liq", "cp", "rho", "diffusivity", "sigma",
                     "absorptivity", "source_gain"):
            if not getattr(self, name) > 0:
                raise ValueError(f"material.{name} must be strictly positive")
        if not self.t_liq > self.t0:
            raise ValueError("material.t_liq must exceed material.t0")
        if self.absorptivity > 1:
            raise ValueError("material.absorptivity must be in (0, 1]")

    @property
    def amplitude_per_watt(self) -> float:
        """Source amplitude C / P of the time integral."""
        return (self.source_gain * self.absorptivity
                / (math.pi * self.rho * self.cp
                   * math.sqrt(4.0 * math.pi * self.diffusivity)))


@dataclass(frozen=True)
class LaserQuery:
    """A single temperature-field query: power P (W), speed v (m/s),
    position (x, y, z) in m with z >= 0 the depth, and elapsed time t (s)."""

    p: float
    v: float
    x: float
    y: float
    z: float
    t: float

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("power must be >= 0")
        if self.v < 0:
            raise ValueError("speed must be >= 0")
        if self.t < 0:
            raise ValueError("time must be >= 0")
        if self.z < 0:
            raise ValueError("depth z must be >= 0")


@dataclass(frozen=True)
class DepthResult:
    """Melt-pool depth in mm, whether the steady-state test passed, and
    the simulated time actually used.  at_edge marks a depth whose
    isotherm reached the Z_MAX bracket edge, so it is only a lower bound
    and not converged; it is left out of the repr."""

    depth_mm: float
    converged: bool
    t_used: float
    at_edge: bool = field(default=False, repr=False)


def _profile_basis(env: MaterialEnv, v: float, xs: np.ndarray, y: float,
                   t: float, n_panels: int):
    """Power-independent part of the profile on u in [0, sqrt(t)]: damping
    denominators den_k = 4*a*u_k^2 at the Gauss-Legendre nodes u_k, weights
    w_k and kernel g_ik.  At power p the coefficients
    c_ik = amplitude_per_watt * p * w_k * g_ik give

        T(x_i, z) = T0 + sum_k c_ik * exp(-z^2 / den_k),

    so one basis serves every power and every trial depth, and xs may be
    a whole scan-line batch.

    g_ik = 2 / (2*a*u_k^2 + sigma^2)
           * exp(-((x_i - v*(t - u_k^2))^2 + y^2) / (den_k + 2*sigma^2))
    is built in one buffer, with the same bits as the one-expression form:
    y^2 is added only when y != 0 (adding +0 to a square, itself >= +0,
    changes nothing), and the square is divided by the negated
    denominator rather than negated itself ((-q)/d == q/(-d) in IEEE)."""
    a = env.diffusivity
    sig2 = env.sigma ** 2

    edges = np.linspace(0.0, math.sqrt(t), n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()

    den = 4.0 * a * u * u
    g = np.atleast_1d(xs)[:, None] - v * (t - u * u)[None, :]
    # at a huge speed the exponent overflows to -inf, and exp(-inf) = 0 is
    # the limit
    with np.errstate(over="ignore"):
        np.multiply(g, g, out=g)
        if y != 0.0:
            np.add(g, y * y, out=g)
        np.divide(g, -(den + 2.0 * sig2), out=g)
    np.exp(g, out=g)
    np.multiply(g, 2.0 / (2.0 * a * u * u + sig2), out=g)
    return den, w, g


def _profile_eval(env: MaterialEnv, den: np.ndarray, coef: np.ndarray,
                  z: float) -> np.ndarray:
    """Temperature at one scalar depth z for every row of coef (rows, K).
    The damping row exp(-z^2/den_k) is shared by all rows and computed
    once.  einsum's inner loop runs along k, where coef and the damping row
    are both contiguous, so each row's sum over k takes the same kernel and
    order as with one damping row per row: only the step between rows
    changes, to 0.  tests/test_thermal.py pins this bit for bit.  Deep z
    underflows damping terms to 0, which numpy ignores by default."""
    damp = np.exp(-(z * z) / den)
    return env.t0 + np.einsum("ik,k->i", coef, damp)


def _adaptive_basis(env: MaterialEnv, v: float, xs, y: float, t: float):
    """Panel-doubling composite Gauss-Legendre basis, converged at the
    surface and at mid-depth (z = 0.5 mm).  The test is relative and the
    rise is linear in P, so it runs at unit power and its panel count
    holds for every power.

    The two checkpoints do not bound the error at every depth.  Just
    below the surface the damping exp(-z^2/4au^2) is a near-step at
    u ~ z/sqrt(4a), inside the first panel, so the basis can stop short
    there: at 800 W, 700 mm/min, t = 2 s and 1 sigma behind the laser it
    stops at 32 panels, with relative errors against 4096 panels of
    1.8e-4 at z = 0.005 mm, 3.6e-5 at 0.05 mm and 2e-10 at 0.5 mm.  A
    third checkpoint would change panel counts, and with them depths.

    Doubling starts at 8 panels: 4 panels can agree with 8 by chance (at
    v = 0 and t in about [4.9416, 4.9453] s to 9.6e-7 relative while
    8 -> 16 still changes by 4.1e-5), so that first comparison is never
    made."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))

    def checkpoints(den, w, g):
        coef = env.amplitude_per_watt * w * g
        return np.array([_profile_eval(env, den, coef, z)
                         for z in (0.0, 0.5e-3)]) - env.t0

    n_panels = 8
    basis = _profile_basis(env, v, xs, y, t, n_panels)
    prev = checkpoints(*basis)
    while True:
        n_panels *= 2
        basis = _profile_basis(env, v, xs, y, t, n_panels)
        cur = checkpoints(*basis)
        if not np.all(np.isfinite(cur)):
            raise QuadratureError("quadrature divergence")
        scale = max(float(np.max(np.abs(cur))), 1e-12)
        if float(np.max(np.abs(cur - prev))) <= _QUAD_REL_TOL * scale:
            return basis
        if n_panels > 8192:
            raise QuadratureError("quadrature divergence")
        prev = cur


def temperature(env: MaterialEnv, q: LaserQuery) -> float:
    """Temperature (K) at a single query point.

    Exact T0 for t = 0 (empty interval) or P = 0 (integrand scales with P).
    """
    if q.t == 0.0 or q.p == 0.0:
        return env.t0
    den, w, g = _adaptive_basis(env, q.v, q.x, q.y, q.t)
    coef = env.amplitude_per_watt * q.p * w * g
    val = float(_profile_eval(env, den, coef, q.z)[0])
    if not math.isfinite(val):
        raise QuadratureError("quadrature divergence")
    return val


def _depth_at_time(env: MaterialEnv, p: float, v: float, t: float,
                   bases: dict, guess: float | None = None) -> tuple[float, bool]:
    """Max over the scan line of the liquidus-isotherm root depth (m), and
    whether a root lies at the bracket edge Z_MAX (the pool is deeper
    than the bracket, so the depth is only a lower bound).

    The pool maximum trails the laser, so x spans [x_laser - 5*sigma,
    x_laser + 2*sigma]; its basis is kept in bases under t for the other
    powers at speed v.

    The bisection is a fixed tree, whose node depths _NODES holds, and
    the search works on node indices alone.  Along one scan-line point the
    float temperature never rises from one tree node to a deeper one:
    the coefficients are positive; two nodes at least one leaf
    (Z_MAX / 2**16) apart move each damping term not flushed to 0 by
    leaf^2 / (4*a*t) relative or more (2e-11 for the default material at
    t = 10.125 s), far above exp's rounding; and einsum's fixed summation
    order is monotone in each term.  So if some point is at or
    above the liquidus at a node, every shallower node is decided
    "above", and if none is at a node, every deeper one is "below"; the
    bisection path, and with it the result, depends only on which side
    of the isotherm each node it visits lies.

    The search keeps lo, the deepest node known "above", with the points
    above there, and hi, the shallowest node known "below" (_LEAVES:
    none).  A guess (m) sets them by galloping from the leaf j that holds
    it: node j is probed first, then j + 1, j + 2, j + 4, ... while they
    are above, or j - 1, j - 3, j - 7, ... while they are below, until
    the isotherm is bracketed (or the bracket's edge is reached).  Without
    a guess only the surface is probed.  Until lo and hi are adjacent,
    the node between them nearest the root is then probed: the one the
    bisection itself visits next, as every node it visits before lies
    outside (lo, hi).  A guess changes how many nodes are evaluated, never
    the result: a right one costs 2 evaluations, one k leaves off about
    2*log2(k) + 2.  Points below the liquidus at an evaluated node are
    dropped, as they end shallower than the final midpoint.
    """
    if t not in bases:
        x_laser = v * t
        xs = np.linspace(x_laser - _X_WINDOW_BEHIND * env.sigma,
                         x_laser + _X_WINDOW_AHEAD * env.sigma, _N_X_SAMPLES)
        bases[t] = _adaptive_basis(env, v, xs, 0.0, t)
    den, w, g = bases[t]
    coef = env.amplitude_per_watt * p * w * g

    def above(rows, i):
        return _profile_eval(env, den, rows, _NODES[i]) >= env.t_liq

    lo, hi = 0, _LEAVES
    if guess is None:
        melted = above(coef, 0)
        if not melted.any():
            return 0.0, False
        rows = coef[melted]
    else:
        j = min(int(min(guess, Z_MAX) / Z_MAX * _LEAVES), _LEAVES - 1) if guess > 0.0 else 0
        melted = above(coef, j)
        if melted.any():
            lo, rows, step = j, coef[melted], 1
            while j + step < _LEAVES:
                melted = above(rows, j + step)
                if not melted.any():
                    hi = j + step
                    break
                lo, rows, step = j + step, rows[melted], 2 * step
        else:
            hi, step = j, 1
            while True:
                if hi == 0:  # not even the surface melts
                    return 0.0, False
                lo = max(j - step, 0)
                melted = above(coef, lo)
                if melted.any():
                    rows = coef[melted]
                    break
                hi, step = lo, 2 * step + 1
    while hi - lo > 1:
        k = (lo ^ (hi - 1)).bit_length() - 1
        m = (hi - 1) >> k << k
        melted = above(rows, m)
        if melted.any():
            lo, rows = m, rows[melted]
        else:
            hi = m
    return float(0.5 * (_NODES[lo] + _NODES[hi])), hi == _LEAVES


def melt_pool_depth(env: MaterialEnv, p: float, v: float) -> DepthResult:
    """Steady-state melt-pool depth for power p (W) and speed v (m/s).

    Starts at t = 2 s and extends the simulated time by x1.5 (up to 4
    times) until two successive depths agree within 1e-3 mm.  Returns
    converged = False with the last depth if that never happens, or if
    the isotherm reaches the 5 mm bracket edge.
    """
    return _steady_depth(env, p, v, {})


def _start_guess(p: float, prior: tuple) -> float | None:
    """Guess at the t = 2 s depth of power p from prior, the (power,
    depths) pairs of the last three powers at this speed: the quadratic
    in Newton form through their t = 2 s depths, or the line through
    the last two while fewer than three distinct powers exist."""
    points = [(q, depths[0]) for q, depths in prior]
    if len(points) < 2 or points[-2][0] == points[-1][0]:
        return None
    (p1, d1), (p2, d2) = points[-2:]
    slope = (d2 - d1) / (p2 - p1)
    guess = d2 + slope * (p - p2)
    if len(points) == 3 and points[0][0] not in (p1, p2):
        p0, d0 = points[0]
        curve = (slope - (d1 - d0) / (p1 - p0)) / (p2 - p0)
        guess += curve * (p - p2) * (p - p1)
    return guess


def _steady_depth(env: MaterialEnv, p: float, v: float, bases: dict) -> DepthResult:
    """melt_pool_depth, sharing the scan-line bases of speed v.  Under
    "powers" bases also keeps the depths at 2, 3, 4.5, ... s of the last
    three powers at v.  They warm-start each bisection of the next power:
    at t = 2 s through _start_guess, and at each later time from this
    power's previous depth plus the previous power's change in depth
    between the same two times."""
    if not 0 <= p < math.inf:
        raise ValueError("power must be finite and >= 0")
    if not 0 < v < math.inf:
        raise ValueError("speed must be finite and > 0")
    if p == 0.0:
        return DepthResult(0.0, True, 0.0)

    t = _T_START
    prior = bases.get("powers", ())
    prev = prior[-1][1] if prior else ()
    d_prev, at_edge = _depth_at_time(env, p, v, t, bases, _start_guess(float(p), prior))
    depths = [d_prev]  # grows below, also as the next power's prev
    bases["powers"] = (*prior[-2:], (float(p), depths))
    for k in range(1, _MAX_EXTENSIONS + 1):
        t_next = t * _T_GROWTH
        guess = d_prev + (prev[k] - prev[k - 1]) if len(prev) > k else d_prev
        d_next, at_edge = _depth_at_time(env, p, v, t_next, bases, guess)
        depths.append(d_next)
        if abs(d_next - d_prev) * MM_PER_M < _DEPTH_TOL_MM:
            return DepthResult(d_next * MM_PER_M, not at_edge, t_next, at_edge)
        t, d_prev = t_next, d_next
    return DepthResult(d_prev * MM_PER_M, False, t, at_edge)


def batch_depths(env: MaterialEnv, queries) -> list[DepthResult]:
    """Element-wise melt_pool_depth over (p, v) pairs.

    Queries are visited speed by speed, so each speed's scan-line bases
    are built once for all of its powers, and each power's first
    bisection is warm-started from the powers before it.  Results are
    identical to individual calls; failures carry the offending query
    index.
    """
    queries = list(queries)
    by_speed: dict[float, list[int]] = {}
    for idx, (_, v) in enumerate(queries):
        by_speed.setdefault(v, []).append(idx)
    out: list[DepthResult] = [None] * len(queries)
    for v, idxs in by_speed.items():
        bases: dict = {}
        for idx in idxs:
            p = queries[idx][0]
            try:
                out[idx] = _steady_depth(env, p, v, bases)
            except Exception as exc:
                raise RuntimeError(f"depth evaluation failed for query {idx} "
                                   f"(P={p} W, v={v} m/s): {exc}") from exc
    return out
