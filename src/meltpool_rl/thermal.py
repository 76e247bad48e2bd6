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
_Z_TOL = 1e-7  # m (1e-4 mm)
_T_START = 2.0  # s
_T_GROWTH = 1.5
_MAX_EXTENSIONS = 4
_DEPTH_TOL_MM = 1e-3

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
    a whole scan-line batch."""
    a = env.diffusivity
    sig2 = env.sigma ** 2

    edges = np.linspace(0.0, math.sqrt(t), n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()

    den = 4.0 * a * u * u
    xd = np.atleast_1d(xs)[:, None] - v * (t - u * u)[None, :]
    # at a huge speed xd*xd overflows to inf, and exp(-inf) = 0 is the limit
    with np.errstate(over="ignore"):
        g = 2.0 / (2.0 * a * u * u + sig2) * np.exp(-(xd * xd + y * y) / (den + 2.0 * sig2))
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
    third checkpoint would change panel counts, and with them depths."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))

    def checkpoints(den, w, g):
        coef = env.amplitude_per_watt * w * g
        return np.array([_profile_eval(env, den, coef, z)
                         for z in (0.0, 0.5e-3)]) - env.t0

    n_panels = 4
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
                   bases: dict) -> tuple[float, bool]:
    """Max over the scan line of the liquidus-isotherm root depth (m), and
    whether a root lies at the bracket edge Z_MAX (the pool is deeper
    than the bracket, so the depth is only a lower bound).

    The pool maximum trails the laser, so x spans [x_laser - 5*sigma,
    x_laser + 2*sigma]; its basis is kept in bases under t for the other
    powers at speed v.  T is strictly decreasing in z at fixed (x, y, t),
    which makes plain bisection valid.

    One bisection serves the line: a point below the liquidus at a midpoint
    where another is above ends shallower than the final midpoint, so it is
    dropped; the rest follow that bisection exactly, so depth and edge flag
    equal those of bisecting every melted point alone, bit for bit.
    """
    if t not in bases:
        x_laser = v * t
        xs = np.linspace(x_laser - _X_WINDOW_BEHIND * env.sigma,
                         x_laser + _X_WINDOW_AHEAD * env.sigma, _N_X_SAMPLES)
        bases[t] = _adaptive_basis(env, v, xs, 0.0, t)
    den, w, g = bases[t]
    coef = env.amplitude_per_watt * p * w * g

    melted = _profile_eval(env, den, coef, 0.0) >= env.t_liq
    if not melted.any():
        return 0.0, False
    rows = coef[melted]
    lo, hi = 0.0, Z_MAX
    while hi - lo > _Z_TOL:
        m = 0.5 * (lo + hi)
        above = _profile_eval(env, den, rows, m) >= env.t_liq
        if above.any():
            lo, rows = m, rows[above]
        else:
            hi = m
    return 0.5 * (lo + hi), hi == Z_MAX


def melt_pool_depth(env: MaterialEnv, p: float, v: float) -> DepthResult:
    """Steady-state melt-pool depth for power p (W) and speed v (m/s).

    Starts at t = 2 s and extends the simulated time by x1.5 (up to 4
    times) until two successive depths agree within 1e-3 mm.  Returns
    converged = False with the last depth if that never happens, or if
    the isotherm reaches the 5 mm bracket edge.
    """
    return _steady_depth(env, p, v, {})


def _steady_depth(env: MaterialEnv, p: float, v: float, bases: dict) -> DepthResult:
    """melt_pool_depth, sharing the scan-line bases of speed v."""
    if not 0 <= p < math.inf:
        raise ValueError("power must be finite and >= 0")
    if not 0 < v < math.inf:
        raise ValueError("speed must be finite and > 0")
    if p == 0.0:
        return DepthResult(0.0, True, 0.0)

    t = _T_START
    d_prev, at_edge = _depth_at_time(env, p, v, t, bases)
    for _ in range(_MAX_EXTENSIONS):
        t_next = t * _T_GROWTH
        d_next, at_edge = _depth_at_time(env, p, v, t_next, bases)
        if abs(d_next - d_prev) * MM_PER_M < _DEPTH_TOL_MM:
            return DepthResult(d_next * MM_PER_M, not at_edge, t_next, at_edge)
        t, d_prev = t_next, d_next
    return DepthResult(d_prev * MM_PER_M, False, t, at_edge)


def batch_depths(env: MaterialEnv, queries) -> list[DepthResult]:
    """Element-wise melt_pool_depth over (p, v) pairs.

    Queries are visited speed by speed, so each speed's scan-line bases
    are built once for all of its powers.  Results are identical to
    individual calls; failures carry the offending query index.
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
