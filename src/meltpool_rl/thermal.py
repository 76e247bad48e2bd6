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
from dataclasses import dataclass, field, fields

import numpy as np

MM_PER_M = 1e3
MMPM_TO_MPS = 1.0 / 60000.0  # mm/min -> m/s

#: distribution parameter = BEAM_TO_SIGMA * quoted beam parameter
BEAM_TO_SIGMA = 0.5

# Depth-extraction protocol constants
_X_WINDOW_BEHIND = 5.0  # trailing window, multiples of sigma
_X_WINDOW_AHEAD = 2.0
_N_X_SAMPLES = 64
_QUAD_REL_TOL = 1e-6  # panel doubling stops at this relative change
#: depth bracket of the liquidus root search, m
Z_MAX = 5e-3
#: simulated times (s) of the steady-state search: 2 s grown by x1.5 four
#: times, each exact in binary
_TIMES = (2.0, 3.0, 4.5, 6.75, 10.125)
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
#: the first search round's nodes: every eighth of the tree and its last node
_COARSE = np.append(np.arange(0, _LEAVES, _LEAVES // 8), _LEAVES - 1)
#: the least positive float
_TINY = math.ulp(0.0)

#: 12-point Gauss-Legendre rule on [-1, 1], applied on every panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


class QuadratureError(ArithmeticError):
    """Raised when the temperature integral produces non-finite values
    or fails to converge (signals bad units or corrupted inputs)."""


@dataclass(frozen=True)
class MaterialEnv:
    """Physical constants of the thermal model, each field named as its
    key in the config file's material section; SI units, except the beam
    parameter sigma_l_mm, which is in mm as the file gives it.

    Defaults are the SS316L values used throughout: ambient 300 K,
    liquidus 1700 K, cp 680 J/(kg K), rho 7400 kg/m^3, diffusivity
    7.1542e-6 m^2/s, the machine's 0.918 mm beam parameter (an e^-2
    radius), absorptivity 0.3 and the calibrated source gain 2.42 (see
    the module docstring).  The thermal code reads the Gaussian
    distribution parameter, half the beam parameter in m, from sigma.
    """

    t0_k: float = 300.0
    t_liq_k: float = 1700.0
    cp: float = 680.0
    rho: float = 7400.0
    diffusivity: float = 7.1542e-6
    sigma_l_mm: float = 0.918
    absorptivity: float = 0.3
    source_gain: float = 2.42

    def __post_init__(self):
        for f in fields(self):
            # a beam parameter whose sigma underflows to 0 is no beam
            value = self.sigma if f.name == "sigma_l_mm" else getattr(self, f.name)
            if not value > 0:
                raise ValueError(f"material.{f.name} must be strictly positive")
        if not self.t_liq_k > self.t0_k:
            raise ValueError("material.t_liq_k must exceed material.t0_k")
        if self.absorptivity > 1:
            raise ValueError("material.absorptivity must be in (0, 1]")

    @property
    def sigma(self) -> float:
        """Gaussian distribution parameter (m), half the beam parameter."""
        return BEAM_TO_SIGMA * self.sigma_l_mm * 1e-3

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
        for name in ("p", "v", "x", "y", "z", "t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"LaserQuery.{name} must be finite, "
                                 f"got {getattr(self, name)!r}")
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


def _quadrature_rule(a: float, sig2: float, t: float, n_panels: int) -> tuple:
    """The speed-free arrays of _profile_basis at diffusivity a, sigma^2
    sig2, time t and n_panels panels: den_k, w_k, t - u_k^2,
    -(den_k + 2*sigma^2) and 2 / (2*a*u_k^2 + sigma^2) at the
    Gauss-Legendre nodes u_k on [0, sqrt(t)].  Every speed of one
    batch_depths call walks the same (t, n_panels) stages, so
    _profile_basis shares each rule among them; its arrays are read-only."""
    edges = np.linspace(0.0, math.sqrt(t), n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    u = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    den = 4.0 * a * u * u
    rule = (den, w, t - u * u, -(den + 2.0 * sig2), 2.0 / (2.0 * a * u * u + sig2))
    for array in rule:
        array.flags.writeable = False
    return rule


def _profile_basis(env: MaterialEnv, v: float, xs, y: float,
                   t: float, n_panels: int, rules):
    """Power-independent part of the profile on u in [0, sqrt(t)]: damping
    denominators den_k = 4*a*u_k^2 at the Gauss-Legendre nodes u_k, weights
    w_k and kernel g_ik.  At power p the coefficients
    c_ik = amplitude_per_watt * p * w_k * g_ik give

        T(x_i, z) = T0 + sum_k c_ik * exp(-z^2 / den_k),

    so one basis serves every power and every trial depth, and xs, a
    number or a whole scan-line batch, is taken as a float array.  den
    and w come read-only from the _quadrature_rule that rules holds under
    (t, n_panels), built there on first use; only g depends on v and xs.
    A rules dict serves one material, whose diffusivity and sigma its
    rules were built with.

    g_ik = 2 / (2*a*u_k^2 + sigma^2)
           * exp(-((x_i - v*(t - u_k^2))^2 + y^2) / (den_k + 2*sigma^2))
    is built in one buffer, with the same bits as the one-expression form:
    y^2 is added only when y != 0 (adding +0 to a square, itself >= +0,
    changes nothing), and the square is divided by the negated
    denominator rather than negated itself ((-q)/d == q/(-d) in IEEE)."""
    if (t, n_panels) not in rules:
        rules[t, n_panels] = _quadrature_rule(env.diffusivity, env.sigma ** 2, t, n_panels)
    den, w, lag, neg_spread, scale = rules[t, n_panels]
    g = np.atleast_1d(np.asarray(xs, dtype=float))[:, None] - v * lag[None, :]
    # at a huge speed the exponent overflows to -inf, and exp(-inf) = 0 is
    # the limit
    with np.errstate(over="ignore"):
        np.multiply(g, g, out=g)
        if y != 0.0:
            np.add(g, y * y, out=g)
        np.divide(g, neg_spread, out=g)
    np.exp(g, out=g)
    np.multiply(g, scale, out=g)
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
    return env.t0_k + np.einsum("ik,k->i", coef, damp)


def _adaptive_basis(env: MaterialEnv, v: float, xs, y: float, t: float, rules):
    """Panel-doubling composite Gauss-Legendre basis, converged at the
    surface and at mid-depth (z = 0.5 mm).  The test is relative and the
    rise is linear in P, so it runs at unit power and its panel count
    holds for every power.  Its stages take their rules from rules
    (_profile_basis).

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
    made.

    Returns den, w, g and the unit-power coefficients
    wg = amplitude_per_watt * w * g the checkpoints were computed on."""

    def checkpoints(den, w, g):
        wg = env.amplitude_per_watt * w * g
        return np.array([_profile_eval(env, den, wg, z)
                         for z in (0.0, 0.5e-3)]) - env.t0_k, wg

    n_panels = 8
    basis = _profile_basis(env, v, xs, y, t, n_panels, rules)
    prev, _ = checkpoints(*basis)
    while True:
        n_panels *= 2
        basis = _profile_basis(env, v, xs, y, t, n_panels, rules)
        cur, wg = checkpoints(*basis)
        if not np.all(np.isfinite(cur)):
            raise QuadratureError("quadrature divergence")
        scale = max(float(np.max(np.abs(cur))), 1e-12)
        if float(np.max(np.abs(cur - prev))) <= _QUAD_REL_TOL * scale:
            return (*basis, wg)
        if n_panels > 8192:
            raise QuadratureError("quadrature divergence")
        prev = cur


def temperature(env: MaterialEnv, q: LaserQuery) -> float:
    """Temperature (K) at a single query point.

    Exact T0 for t = 0 (empty interval) or P = 0 (integrand scales with P).
    """
    if q.t == 0.0 or q.p == 0.0:
        return env.t0_k
    den, w, g, _ = _adaptive_basis(env, q.v, q.x, q.y, q.t, {})
    coef = env.amplitude_per_watt * q.p * w * g
    val = float(_profile_eval(env, den, coef, q.z)[0])
    if not math.isfinite(val):
        raise QuadratureError("quadrature divergence")
    return val


def _unit_rise(den: np.ndarray, wg: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Temperature rise per watt at every tree node in nodes (rows) and
    scan-line point (columns): one exp over the nodes' damping rows, each
    the same floats _profile_eval takes at that node, and one product
    with the unit-power coefficients wg."""
    z = _NODES[nodes]
    return np.exp(-(z * z)[:, None] / den) @ wg.T


def _band(env: MaterialEnv, n_terms: int, t: float, p: float) -> float:
    """Half-width (K) of the band around the liquidus rise
    D = t_liq - t0 outside which p * r, r a unit rise from _unit_rise
    over n_terms = K quadrature terms at time t, decides a node's side
    for power p as _profile_eval does.

    Let R = A*p * sum_k w_k*g_k*d_k in exact arithmetic, over the floats
    A = amplitude_per_watt, w, g and the damping row d, which both paths
    take from the same exp of the same arguments.  _profile_eval rounds
    each term four times (A*p, *w, *g, *d) and adds K non-negative terms;
    _unit_rise rounds three times (A*w, *g, *d, the last perhaps fused)
    and adds them in BLAS order.  Non-negative terms summed in any order
    are within gamma_(K-1) of their sum (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, sec. 4.2; gamma_n = n*u / (1 - n*u),
    u = 2**-53), so the exact rise s and p * r are both within
    gamma = gamma_(K+3) of R, apart from underflow.  A rounded product
    below 2**-1022 is off by up to 2**-1075 absolute, and later factors
    grow that by at most F = max(1, 4*sqrt(t)/sigma^2) (t >= 2 s here,
    w <= sqrt(t)/16, g <= 2/sigma^2, d <= 1) and, in p * r, by p, so
    underflow adds at most a = (p + 1) * 2*K*F * 2**-1074 to |s - p*r|.

    Above: if p*r >= D + band, then s >= p*r*(1 - 2*gamma) - a >= D, so
    t0 + s >= t_liq, and rounding to the nearest float keeps that.
    Below: if p*r < D - band, then s <= (p*r + a)*(1 + 2*gamma') with
    gamma' = gamma / (1 - gamma), so s < D - u*t_liq, and a sum that far
    under t_liq cannot round up to it.  Both hold when
    band >= (2*gamma*D + u*t_liq + a) / (1 - 2*gamma), plus a few u*t_liq
    for rounding D and the thresholds (D +- band) / p; as D < t_liq, the
    band below covers that with room, and the underflow term twice.  The
    thresholds' own underflow, when D / p is subnormal, is below
    p * 2**-1075 < a.  A band that overflows to inf sends every node to
    _profile_eval."""
    spread = max(1.0, 4.0 * math.sqrt(t) / env.sigma / env.sigma)
    return (4.0 * (n_terms + 8) * 2.0 ** -53 * env.t_liq_k
            + (p + 1.0) * math.ldexp(4.0 * n_terms * spread, -1074))


def _node_probe(env: MaterialEnv, v: float, t: float, powers: list, rules):
    """The one node-decision path of the isotherm search, for the powers
    in powers (W, > 0) at speed v and time t, on one scan-line basis at
    (v, t): the pool maximum trails the laser, so x spans
    [x_laser - 5*sigma, x_laser + 2*sigma].  Returns probe(nodes), which
    computes one unit rise r (_unit_rise) at the tree nodes in nodes and
    returns its maximum over the scan line, one per node, and above(i, j):
    whether node nodes[j] is above for powers[i], as _profile_eval decides
    it on the coefficients amplitude_per_watt * p * w * g.

    The rise is linear in p, so one unit rise serves every power: a node
    is above for p when max r is >= (D + band) / p and below when it is
    < (D - band) / p, with D = t_liq - t0 and band from _band, which
    proves both decisions equal _profile_eval's.  Inside the band,
    _profile_eval decides the node on the points that are not below."""
    x_laser = v * t
    xs = np.linspace(x_laser - _X_WINDOW_BEHIND * env.sigma,
                     x_laser + _X_WINDOW_AHEAD * env.sigma, _N_X_SAMPLES)
    den, w, g, wg = _adaptive_basis(env, v, xs, 0.0, t, rules)
    rise_liq = env.t_liq_k - env.t0_k
    bands = [_band(env, len(den), t, p) for p in powers]
    # Python floats: a tiny power's threshold overflows to inf, not a warning
    upper = [(rise_liq + band) / p for p, band in zip(powers, bands)]
    lower = [(rise_liq - band) / p for p, band in zip(powers, bands)]

    def probe(nodes: np.ndarray):
        rise = _unit_rise(den, wg, nodes)
        top = rise.max(axis=1)
        tops = top.tolist()

        def above(i: int, j: int) -> bool:
            if not lower[i] <= tops[j] < upper[i]:
                return tops[j] >= upper[i]
            # inside the band: decided on the points not below
            coef = env.amplitude_per_watt * powers[i] * w * g[rise[j] >= lower[i]]
            return bool((_profile_eval(env, den, coef, _NODES[nodes[j]])
                         >= env.t_liq_k).any())
        return top, above
    return probe


def _leaf_depth(lo: int) -> float:
    """The bisection's depth (m) when node lo is the deepest node above:
    the midpoint of leaf lo, or 0 when no node is above (lo = -1)."""
    return 0.5 * (_NODES.item(lo) + _NODES.item(lo + 1)) if lo >= 0 else 0.0


def _isotherm_depths(env: MaterialEnv, v: float, t: float, powers: list, rules) -> list:
    """Max over the scan line of the liquidus-isotherm root depth (m) at
    time t of each power in powers (W, > 0) at speed v, and
    whether it lies at the bracket edge Z_MAX (the pool is deeper than
    the bracket, so the depth is only a lower bound).  One scan line
    (_node_probe) serves every power, and its basis is dropped when the
    call returns.

    The bisection is a fixed tree, whose node depths _NODES holds.  Node
    i is "above" for power p when some scan-line point is at or above the
    liquidus there, as _profile_eval computes it on the coefficients
    amplitude_per_watt * p * w * g.  Along one point the float temperature
    never rises from one tree node to a deeper one: the coefficients are
    positive; two nodes at least one leaf (Z_MAX / 2**16) apart move each
    damping term not flushed to 0 by leaf^2 / (4*a*t) relative or more
    (2e-11 for the default material at t = 10.125 s), far above exp's
    rounding; and einsum's fixed summation order is monotone in each
    term.  So a node above has only nodes above shallower than it, and
    the bisection of [0, Z_MAX] ends in the leaf n whose shallow end is
    the deepest node above: the result is _leaf_depth(n), at the edge
    when n + 1 == 2**16, and 0 when node 0 is below.  It depends only
    on which side of the isotherm each node lies, so any order of
    deciding nodes gives the bisection's bits, and _settled_at_start
    needs only two nodes to bound it.

    Each round decides its nodes on one probe of the scan line.  Each
    power keeps lo, the deepest node known above (-1: none), and hi, the
    shallowest known below (_LEAVES: none), and decides only nodes
    between them.  Round 0 decides the nodes _COARSE for every power.
    Each later round probes, for every power whose lo and hi are not
    adjacent, two adjacent nodes n, n + 1 inside (lo, hi) at a Newton
    step towards log(max r) = log(D / p), r the unit rise and
    D = t_liq - t0, through the power's freshest adjacent pair of probed
    nodes: after round 0 its lo and hi, later its own two probes.  A step
    that leaves (lo, hi), or a pair along which log(max r) does not fall
    (as where max r underflowed to 0), bisects (lo, hi) instead."""
    probe = _node_probe(env, v, t, powers, rules)
    rise_liq = env.t_liq_k - env.t0_k
    target = [math.log(rise_liq) - math.log(p) for p in powers]
    lo, hi = [-1] * len(powers), [_LEAVES] * len(powers)
    # power -> positions in nodes of the nodes it reads this round
    reads = dict.fromkeys(range(len(powers)), range(len(_COARSE)))
    nodes = _COARSE
    while reads:
        top, above = probe(nodes)
        # a maximum that underflowed to 0 takes the least float's log
        log_top = np.log(np.maximum(top, _TINY)).tolist()
        first = nodes is _COARSE
        probed = nodes.tolist()
        next_reads, nodes = {}, []
        for i, js in reads.items():
            for j in js:
                node = probed[j]
                if not lo[i] < node < hi[i]:
                    continue
                if above(i, j):
                    lo[i] = node
                else:
                    hi[i] = node
            if hi[i] - lo[i] > 1:
                ja, jb = (probed.index(lo[i]), probed.index(hi[i])) if first else js
                fall = log_top[ja] - log_top[jb]
                n = (lo[i] + hi[i]) // 2
                if fall > 0.0:
                    step = probed[ja] + (probed[jb] - probed[ja]) * (
                        (log_top[ja] - target[i]) / fall)
                    if lo[i] < step < hi[i]:
                        n = int(step)
                n = max(min(n, hi[i] - 2), lo[i] + 1)
                next_reads[i] = (len(nodes), len(nodes) + 1)
                nodes += [n, n + 1]
        reads, nodes = next_reads, np.array(nodes, dtype=int)
    return [(_leaf_depth(i), j == _LEAVES) for i, j in zip(lo, hi)]


def _settled(depth: float, prev: float) -> bool:
    """The steady-state test on a depth and the one before it (m)."""
    return abs(depth - prev) * MM_PER_M < _DEPTH_TOL_MM


def _settled_at_start(env: MaterialEnv, v: float, powers: list, depths: list,
                      rules) -> list[bool]:
    """Whether each power's depth at the second simulated time, _TIMES[1],
    in depths, settles against its depth at the first, _TIMES[0], which
    is never searched.

    That depth is _leaf_depth(prev) of its deepest node above, prev
    (-1 for none).  _leaf_depth rises with prev, and the float
    |depth - _leaf_depth(prev)| first falls, then rises with it, so the
    prev that pass _settled form one run [a, b] that holds the leaf of the
    power's depth.  Each end is stepped by the test itself from the leaf
    that holds depth -+ the tolerance, which lies on that leaf's side of
    the end.  A node above has only nodes above shallower than it
    (_isotherm_depths), so prev >= a exactly when node a is above (always
    when a = -1), and prev <= b exactly when node b + 1 is below (always
    when b + 1 = 2**16).  So one probe of the _TIMES[0] scan line decides
    at most two nodes per power."""
    tol = _DEPTH_TOL_MM / MM_PER_M
    guesses = np.searchsorted(_NODES, np.add.outer(depths, (-tol, tol))).tolist()

    def settles(depth: float, prev: int) -> bool:
        return -1 <= prev < _LEAVES and _settled(depth, _leaf_depth(prev))

    nodes, checks = [], []
    for depth, guess in zip(depths, guesses):
        checks.append([])
        for step, end in zip((-1, 1), guess):
            end -= 1
            while settles(depth, end + step):
                end += step
            while not settles(depth, end):
                end -= step
            # node a must be above, node b + 1 below
            node, want = (end, True) if step < 0 else (end + 1, False)
            if 0 <= node < _LEAVES:
                checks[-1].append((len(nodes), want))
                nodes.append(node)
    _, above = _node_probe(env, v, _TIMES[0], powers, rules)(np.array(nodes, dtype=int))
    return [all(above(i, j) == want for j, want in js) for i, js in enumerate(checks)]


def _check_query(p: float, v: float) -> None:
    if not 0 <= p < math.inf:
        raise ValueError("power must be finite and >= 0")
    if not 0 < v < math.inf:
        raise ValueError("speed must be finite and > 0")


def _query_error(idx: int, p: float, v: float, exc: Exception) -> RuntimeError:
    return RuntimeError(f"depth evaluation failed for query {idx} "
                        f"(P={p} W, v={v} m/s): {exc}")


def _steady_depths(env: MaterialEnv, v: float, powers: list, rules) -> list[DepthResult]:
    """melt_pool_depth of every power in powers at speed v.  A zero power
    is answered here as depth 0, with no search and no basis.  Each
    distinct positive power is searched once, at the times _TIMES[1:],
    and each time solves all powers not yet steady together on one
    scan-line basis.  The first time, _TIMES[0], is never searched: its
    depth serves only as the previous depth in the second time's test,
    which _settled_at_start decides on at most two nodes per power, after
    the second time's basis is dropped.  A power is done when its depth
    settles or at the last time, and steady only if it settled off the
    bracket edge; the walk stops once no power is left."""
    done = {0.0: DepthResult(0.0, True, 0.0)}
    # each unsettled power -> its depth at the previous time (None at first)
    prev = dict.fromkeys(sorted({float(p) for p in powers if p != 0.0}))
    for t in _TIMES[1:]:
        if not prev:
            break
        todo = list(prev)
        found = _isotherm_depths(env, v, t, todo, rules)
        settled = (_settled_at_start(env, v, todo, [depth for depth, _ in found], rules)
                   if t == _TIMES[1]
                   else [_settled(depth, prev[p]) for p, (depth, _) in zip(todo, found)])
        for p, (depth, at_edge), ok in zip(todo, found, settled):
            if ok or t == _TIMES[-1]:
                done[p] = DepthResult(depth * MM_PER_M, ok and not at_edge, t, at_edge)
                del prev[p]
            else:
                prev[p] = depth
    return [done[float(p)] for p in powers]


def melt_pool_depth(env: MaterialEnv, p: float, v: float) -> DepthResult:
    """Steady-state melt-pool depth for power p (W) and speed v (m/s).

    Walks the simulated times _TIMES (2 s, extended by x1.5 up to 4
    times) until two successive depths agree within 1e-3 mm.  The depth
    at t = 2 s is never searched: whether the t = 3 s depth agrees with
    it is decided on at most two bisection nodes.  Returns
    converged = False with the last depth if that never happens, or if
    the isotherm reaches the 5 mm bracket edge.  A zero power is answered
    as depth 0 with no search, at any speed.  It is batch_depths' search
    run on one power.
    """
    _check_query(p, v)
    return _steady_depths(env, v, [p], {})[0]


def batch_depths(env: MaterialEnv, queries) -> list[DepthResult]:
    """Element-wise melt_pool_depth over (p, v) pairs.

    Every query is validated first.  Then each speed's powers are solved
    together: at each simulated time from 3 s on, one scan-line basis and
    one matrix product per search round serve every power still
    unsettled, and at 2 s one basis and one product decide the at most
    two nodes per power that settle the 3 s depths.  Every speed shares
    the quadrature rules of each (time, panel count) through one dict,
    which serves this call's material and is dropped when it returns.
    A zero power is answered as depth 0 with no search.  Results are
    identical to individual calls; failures carry the offending query
    index (for a failed basis, the speed's first query with P > 0).
    """
    queries = list(queries)
    by_speed: dict[float, list[int]] = {}
    for idx, (p, v) in enumerate(queries):
        try:
            _check_query(p, v)
        except ValueError as exc:
            raise _query_error(idx, p, v, exc) from exc
        by_speed.setdefault(v, []).append(idx)
    out: list[DepthResult] = [None] * len(queries)
    rules: dict = {}
    for v, idxs in by_speed.items():
        powers = [queries[idx][0] for idx in idxs]
        try:
            results = _steady_depths(env, v, powers, rules)
        except Exception as exc:
            idx = next(idx for idx, p in zip(idxs, powers) if p != 0.0)
            raise _query_error(idx, queries[idx][0], v, exc) from exc
        for idx, res in zip(idxs, results):
            out[idx] = res
    return out

