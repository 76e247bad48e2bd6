"""Thermal model: temperature field basics, quadrature convergence, and
melt-pool depth extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meltpool_rl.thermal import (
    MMPM_TO_MPS,
    Z_MAX,
    DepthResult,
    LaserQuery,
    MaterialEnv,
    QuadratureError,
    batch_depths,
    melt_pool_depth,
    temperature,
    _GL_NODES,
    _N_X_SAMPLES,
    _X_WINDOW_AHEAD,
    _X_WINDOW_BEHIND,
    _Z_TOL,
    _adaptive_basis,
    _depth_at_time,
    _profile_basis,
    _profile_eval,
)

V_MID = 550.0 * MMPM_TO_MPS
#: the simulated times melt_pool_depth visits: 2 s grown by x1.5 four times
DEPTH_TIMES = (2.0, 3.0, 4.5, 6.75, 10.125)


def basis_nodes(t, n_panels):
    """The Gauss-Legendre nodes u_k on [0, sqrt(t)] that _profile_basis
    folds into its damping denominators."""
    edges = np.linspace(0.0, math.sqrt(t), n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()


def profile_eval_reference(env, u, coef, z_per_row):
    """_profile_eval before it took one scalar depth: one depth per row of
    coef, and an exp damping row computed for each of them."""
    z = np.asarray(z_per_row, dtype=float)
    with np.errstate(under="ignore"):
        damp = np.exp(-(z[:, None] ** 2) / (4.0 * env.diffusivity * u * u)[None, :])
    return env.t0 + np.einsum("ik,ik->i", coef, damp)


def scan_line(env, v, t):
    """The scan-line points _depth_at_time bisects at speed v and time t."""
    x_laser = v * t
    return np.linspace(x_laser - _X_WINDOW_BEHIND * env.sigma,
                       x_laser + _X_WINDOW_AHEAD * env.sigma, _N_X_SAMPLES)


def depth_at_time_reference(env, p, v, t, bases):
    """_depth_at_time before it pruned the scan line: every point is
    bisected on its own, and the deepest melted midpoint is kept."""
    if t not in bases:
        bases[t] = _adaptive_basis(env, v, scan_line(env, v, t), 0.0, t)
    den, w, g = bases[t]
    u = basis_nodes(t, len(den) // len(_GL_NODES))
    coef = env.amplitude_per_watt * p * w * g

    melted = profile_eval_reference(env, u, coef, np.zeros(_N_X_SAMPLES)) >= env.t_liq
    if not melted.any():
        return 0.0, False
    lo = np.zeros(_N_X_SAMPLES)
    hi = np.full(_N_X_SAMPLES, Z_MAX)
    while float(np.max(hi - lo)) > _Z_TOL:
        m = 0.5 * (lo + hi)
        above = profile_eval_reference(env, u, coef, m) >= env.t_liq
        lo = np.where(above, m, lo)
        hi = np.where(above, hi, m)
    return (float(np.max(np.where(melted, 0.5 * (lo + hi), 0.0))),
            bool(np.any(melted & (hi == Z_MAX))))


def assert_depths_bit_identical(env, p, v_mmpm, times=DEPTH_TIMES):
    """_depth_at_time equals the reference bit for bit, edge flag included."""
    v = v_mmpm * MMPM_TO_MPS
    bases: dict = {}
    for t in times:
        depth, at_edge = _depth_at_time(env, p, v, t, bases)
        ref_depth, ref_edge = depth_at_time_reference(env, p, v, t, bases)
        assert (depth.hex(), at_edge) == (ref_depth.hex(), ref_edge), (p, v_mmpm, t)


class TestTemperature:
    def test_ambient_at_time_zero(self, material):
        q = LaserQuery(p=800.0, v=V_MID, x=0.0, y=0.0, z=0.0, t=0.0)
        assert temperature(material, q) == material.t0

    def test_ambient_at_zero_power(self, material):
        q = LaserQuery(p=0.0, v=V_MID, x=1e-3, y=0.0, z=1e-4, t=2.0)
        assert temperature(material, q) == material.t0

    def test_rise_is_linear_in_power(self, material):
        def rise(p):
            q = LaserQuery(p=p, v=V_MID, x=V_MID * 2.0, y=0.0, z=2e-4, t=2.0)
            return temperature(material, q) - material.t0

        r1, r2, r3 = rise(400.0), rise(800.0), rise(1200.0)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-9)
        assert r3 == pytest.approx(3.0 * r1, rel=1e-9)

    def test_rise_is_positive_and_decays_with_depth(self, material):
        x = V_MID * 2.0
        temps = [temperature(material, LaserQuery(800.0, V_MID, x, 0.0, z, 2.0))
                 for z in (0.0, 2e-4, 5e-4, 1e-3, 3e-3)]
        assert all(t > material.t0 for t in temps[:-1])
        assert temps == sorted(temps, reverse=True)

    def test_decays_off_axis(self, material):
        x = V_MID * 2.0
        on = temperature(material, LaserQuery(800.0, V_MID, x, 0.0, 0.0, 2.0))
        off = temperature(material, LaserQuery(800.0, V_MID, x, 2e-3, 0.0, 2.0))
        assert off < on

    @given(p=st.floats(100.0, 1500.0), z=st.floats(0.0, 2e-3),
           y=st.floats(-1e-3, 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_never_below_ambient(self, material, p, z, y):
        q = LaserQuery(p=p, v=V_MID, x=V_MID * 2.0, y=y, z=z, t=2.0)
        assert temperature(material, q) >= material.t0

    def test_query_validation(self):
        with pytest.raises(ValueError):
            LaserQuery(p=-1.0, v=V_MID, x=0.0, y=0.0, z=0.0, t=1.0)
        with pytest.raises(ValueError):
            LaserQuery(p=100.0, v=V_MID, x=0.0, y=0.0, z=-1e-4, t=1.0)
        with pytest.raises(ValueError):
            LaserQuery(p=100.0, v=V_MID, x=0.0, y=0.0, z=0.0, t=-1.0)


class TestStationaryClosedForm:
    @given(p=st.floats(100.0, 3000.0), t=st.floats(0.01, 10.0))
    @settings(deadline=None)
    def test_surface_centre_matches_closed_form(self, material, p, t):
        """An outside reference: at v = 0 the surface point under the beam
        centre has T - T0 = C*P * 2/(sigma*sqrt(2a)) * arctan(sqrt(2at)/sigma),
        the time integral 2/(2a*u^2 + sigma^2) over u in [0, sqrt(t)]."""
        a, sigma = material.diffusivity, material.sigma
        want = (material.amplitude_per_watt * p * 2.0 / (sigma * math.sqrt(2.0 * a))
                * math.atan(math.sqrt(2.0 * a * t) / sigma))
        rise = temperature(material, LaserQuery(p, 0.0, 0.0, 0.0, 0.0, t)) - material.t0
        assert rise == pytest.approx(want, rel=1e-12, abs=0.0)


class TestQuadrature:
    def test_self_convergence_on_panel_doubling(self, material):
        """The converged rule changes by < 1e-5 relative when refined again."""
        xs = np.array([V_MID * 2.0 - 2e-4])
        den, w, g = _adaptive_basis(material, V_MID, xs, 0.0, 2.0)
        coef = material.amplitude_per_watt * 800.0 * w * g
        n_panels = (len(den) // 12) * 2
        den2, w2, g2 = _profile_basis(material, V_MID, xs, 0.0, 2.0, n_panels)
        coef2 = material.amplitude_per_watt * 800.0 * w2 * g2
        for z in (0.0, 2e-4, 1e-3):
            a = float(_profile_eval(material, den, coef, z)[0]) - material.t0
            b = float(_profile_eval(material, den2, coef2, z)[0]) - material.t0
            assert abs(a - b) <= 1e-5 * abs(b)

    def test_coefficients_scale_with_power(self, material):
        xs = np.array([1e-3])
        _, w, g = _profile_basis(material, V_MID, xs, 0.0, 2.0, 32)
        c1 = material.amplitude_per_watt * 500.0 * w * g
        c2 = material.amplitude_per_watt * 1000.0 * w * g
        assert np.allclose(c2, 2.0 * c1)


class TestMeltPoolDepth:
    def test_zero_power_is_zero_depth(self, material):
        res = melt_pool_depth(material, 0.0, V_MID)
        assert res == DepthResult(0.0, True, 0.0)

    def test_low_power_never_melts(self, material):
        res = melt_pool_depth(material, 50.0, V_MID)
        assert res.converged
        assert res.depth_mm == 0.0

    def test_depth_monotone_in_power(self, material):
        v = 550.0 * MMPM_TO_MPS
        depths = [melt_pool_depth(material, p, v).depth_mm
                  for p in (500.0, 650.0, 800.0, 950.0)]
        assert all(b > a for a, b in zip(depths, depths[1:]))

    def test_depth_monotone_in_inverse_speed(self, material):
        depths = [melt_pool_depth(material, 800.0, v * MMPM_TO_MPS).depth_mm
                  for v in (700.0, 600.0, 500.0, 400.0)]
        assert all(b > a for a, b in zip(depths, depths[1:]))

    def test_steady_state_flag_and_time(self, material):
        res = melt_pool_depth(material, 800.0, 550.0 * MMPM_TO_MPS)
        assert res.converged
        assert res.t_used >= 2.0
        assert 0.1 < res.depth_mm < 3.0

    @pytest.mark.parametrize("power", [5000.0, 20000.0])
    def test_root_at_bracket_edge_is_unconverged(self, material, power):
        """At 100 mm/min these pools are deeper than the 5 mm bracket; the
        clamped depth is flagged, not reported as a steady depth."""
        res = melt_pool_depth(material, power, 100.0 * MMPM_TO_MPS)
        assert not res.converged and res.at_edge
        assert res.depth_mm == pytest.approx(5.0, abs=1e-4)

    def test_unsettled_depth_is_not_at_edge(self, material):
        """At 919 W, 200 mm/min the depth still moves after the last time
        extension, well inside the bracket."""
        res = melt_pool_depth(material, 919.0, 200.0 * MMPM_TO_MPS)
        assert res == DepthResult(1.423988342285156, False, 10.125, at_edge=False)

    def test_input_validation(self, material):
        for p in (-10.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="power"):
                melt_pool_depth(material, p, V_MID)
        with pytest.raises(ValueError):
            melt_pool_depth(material, 500.0, 0.0)
        for v in (math.inf, math.nan):
            with pytest.raises(ValueError, match="speed must be finite"):
                melt_pool_depth(material, 500.0, v)

    def test_deterministic(self, material):
        a = melt_pool_depth(material, 777.0, 500.0 * MMPM_TO_MPS)
        b = melt_pool_depth(material, 777.0, 500.0 * MMPM_TO_MPS)
        assert a == b


class TestProfileEval:
    """The scalar-depth evaluator against one depth per row."""

    @given(v_mmpm=st.floats(100.0, 2000.0), t=st.sampled_from(DEPTH_TIMES),
           n_panels=st.sampled_from([4, 8, 16, 32, 64]), p=st.floats(0.0, 20000.0),
           z=st.floats(0.0, Z_MAX),
           mask=st.lists(st.booleans(), min_size=_N_X_SAMPLES,
                         max_size=_N_X_SAMPLES).filter(any))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_per_row_depths(self, material, v_mmpm, t, n_panels,
                                             p, z, mask):
        v = v_mmpm * MMPM_TO_MPS
        den, w, g = _profile_basis(material, v, scan_line(material, v, t), 0.0, t,
                                   n_panels)
        u = basis_nodes(t, n_panels)
        assert den.tobytes() == (4.0 * material.diffusivity * u * u).tobytes()
        rows = (material.amplitude_per_watt * p * w * g)[np.array(mask)]
        new = _profile_eval(material, den, rows, z)
        old = profile_eval_reference(material, u, rows, np.full(len(rows), z))
        assert [x.hex() for x in new.tolist()] == [x.hex() for x in old.tolist()]


class TestDepthAtTime:
    """The pruned bisection against every point bisected on its own."""

    @given(p=st.floats(0.0, 20000.0), v_mmpm=st.floats(100.0, 2000.0),
           t=st.sampled_from(DEPTH_TIMES))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_per_point_bisection(self, material, p, v_mmpm, t):
        assert_depths_bit_identical(material, p, v_mmpm, times=(t,))

    @pytest.mark.parametrize("p, v_mmpm", [
        (50.0, 550.0),      # never melts
        (5000.0, 100.0),    # isotherm at the bracket edge
        (20000.0, 100.0),
        (919.0, 200.0),     # not steady after the last time extension
    ])
    def test_named_points_bit_identical(self, material, p, v_mmpm):
        assert_depths_bit_identical(material, p, v_mmpm)


class TestBatchDepths:
    def test_matches_individual_calls(self, material):
        """Power-major order over two speeds, plus zero power, a power that
        never melts and a point whose depth never becomes steady."""
        queries = [(p, v * MMPM_TO_MPS) for p in (600.0, 900.0)
                   for v in (500.0, 650.0)]
        queries += [(0.0, 500.0 * MMPM_TO_MPS), (50.0, 650.0 * MMPM_TO_MPS),
                    (919.0, 200.0 * MMPM_TO_MPS)]
        batch = batch_depths(material, queries)
        singles = [melt_pool_depth(material, p, v) for p, v in queries]
        assert batch == singles
        assert batch[4] == DepthResult(0.0, True, 0.0)
        assert batch[5].depth_mm == 0.0
        assert not batch[6].converged

    def test_failure_names_query_index(self, material):
        with pytest.raises(RuntimeError, match="query 1"):
            batch_depths(material, [(600.0, 500.0 * MMPM_TO_MPS), (700.0, 0.0)])


class TestMaterialEnv:
    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError, match="cp"):
            MaterialEnv(cp=0.0)
        with pytest.raises(ValueError, match="t_liq"):
            MaterialEnv(t0=2000.0, t_liq=1700.0)
        with pytest.raises(ValueError, match="absorptivity"):
            MaterialEnv(absorptivity=1.5)

    def test_amplitude_per_watt(self, material):
        expected = (material.source_gain * material.absorptivity
                    / (math.pi * material.rho * material.cp
                       * math.sqrt(4.0 * math.pi * material.diffusivity)))
        assert material.amplitude_per_watt == pytest.approx(expected)
