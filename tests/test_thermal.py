"""Thermal model: temperature field basics, quadrature convergence, and
melt-pool depth extraction."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from meltpool_rl import thermal
from meltpool_rl.environment import state_params
from meltpool_rl.thermal import (
    MM_PER_M,
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
    _GL_WEIGHTS,
    _NODES,
    _N_X_SAMPLES,
    _TIMES,
    _X_WINDOW_AHEAD,
    _X_WINDOW_BEHIND,
    _adaptive_basis,
    _band,
    _isotherm_depths,
    _profile_basis,
    _profile_eval,
    _unit_rise,
)

from conftest import EDGE_GRID

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

V_MID = 550.0 * MMPM_TO_MPS
#: the simulated times melt_pool_depth visits: 2 s grown by x1.5 four times
DEPTH_TIMES = (2.0, 3.0, 4.5, 6.75, 10.125)
#: the float bisection's stopping width, m: 16 halvings of Z_MAX reach it
Z_TOL = 1e-7
#: powers for the batched search: any, near 0, never melting, near the
#: melting threshold at 500 mm/min, and deeper than the bracket at 100 mm/min
POWERS = st.floats(1e-3, 20000.0) | st.sampled_from([5e-324, 1e-300, 50.0, 190.56,
                                                     5000.0, 20000.0])
#: unsorted batches of those powers, some of them repeated
BATCHES = st.lists(POWERS, min_size=1, max_size=6).flatmap(
    lambda ps: st.permutations(ps + ps[: len(ps) // 2]))


def node_reference(i):
    """Depth (m) of bisection tree node i, 0 <= i <= 2**16, by walking
    the float bisection from [0, Z_MAX] down to it."""
    lo, hi, lo_i, span = 0.0, Z_MAX, 0, 2**16
    while i != lo_i:
        if i == lo_i + span:
            return hi
        span //= 2
        m = 0.5 * (lo + hi)
        if i >= lo_i + span:
            lo, lo_i = m, lo_i + span
        else:
            hi = m
    return lo


def basis_nodes(t, n_panels):
    """The Gauss-Legendre nodes u_k on [0, sqrt(t)] that _profile_basis
    folds into its damping denominators."""
    edges = np.linspace(0.0, math.sqrt(t), n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()


def profile_basis_reference(env, v, xs, y, t, n_panels):
    """_profile_basis before it built g in place: g in one expression."""
    a = env.diffusivity
    sig2 = env.sigma ** 2
    edges = np.linspace(0.0, math.sqrt(t), n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    u = basis_nodes(t, n_panels)
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    den = 4.0 * a * u * u
    xd = np.atleast_1d(xs)[:, None] - v * (t - u * u)[None, :]
    with np.errstate(over="ignore"):
        g = 2.0 / (2.0 * a * u * u + sig2) * np.exp(-(xd * xd + y * y) / (den + 2.0 * sig2))
    return den, w, g


def profile_eval_reference(env, u, coef, z_per_row):
    """_profile_eval before it took one scalar depth: one depth per row of
    coef, and an exp damping row computed for each of them."""
    z = np.asarray(z_per_row, dtype=float)
    with np.errstate(under="ignore"):
        damp = np.exp(-(z[:, None] ** 2) / (4.0 * env.diffusivity * u * u)[None, :])
    return env.t0_k + np.einsum("ik,ik->i", coef, damp)


def scan_line(env, v, t):
    """The scan-line points the isotherm search bisects at speed v and time t."""
    x_laser = v * t
    return np.linspace(x_laser - _X_WINDOW_BEHIND * env.sigma,
                       x_laser + _X_WINDOW_AHEAD * env.sigma, _N_X_SAMPLES)


def depth_at_time_reference(env, p, v, t, bases):
    """The isotherm depth by the plain float bisection: every scan-line
    point is bisected on its own, and the deepest melted midpoint is
    kept."""
    if t not in bases:
        bases[t] = _adaptive_basis(env, v, scan_line(env, v, t), 0.0, t, {})
    den, w, g, _ = bases[t]
    u = basis_nodes(t, len(den) // len(_GL_NODES))
    coef = env.amplitude_per_watt * p * w * g

    melted = profile_eval_reference(env, u, coef, np.zeros(_N_X_SAMPLES)) >= env.t_liq_k
    if not melted.any():
        return 0.0, False
    lo = np.zeros(_N_X_SAMPLES)
    hi = np.full(_N_X_SAMPLES, Z_MAX)
    while float(np.max(hi - lo)) > Z_TOL:
        m = 0.5 * (lo + hi)
        above = profile_eval_reference(env, u, coef, m) >= env.t_liq_k
        lo = np.where(above, m, lo)
        hi = np.where(above, hi, m)
    return (float(np.max(np.where(melted, 0.5 * (lo + hi), 0.0))),
            bool(np.any(melted & (hi == Z_MAX))))


def steady_depths_reference(env, v, powers):
    """_steady_depths when it searched every simulated time: each time,
    the first included, is searched by _isotherm_depths, and from the
    second on each power's depth settles when it lies within 1e-3 mm of
    the one before it."""
    todo = sorted({float(p) for p in powers if p != 0.0})
    done = {0.0: DepthResult(0.0, True, 0.0)}
    prev = {}
    for k, t in enumerate(DEPTH_TIMES):
        if not todo:
            break
        unsettled = []
        for p, (depth, at_edge) in zip(todo, _isotherm_depths(env, v, t, todo, {})):
            if k and abs(depth - prev[p]) * MM_PER_M < 1e-3:
                done[p] = DepthResult(depth * MM_PER_M, not at_edge, t, at_edge)
            elif k == len(DEPTH_TIMES) - 1:
                done[p] = DepthResult(depth * MM_PER_M, False, t, at_edge)
            else:
                prev[p] = depth
                unsettled.append(p)
        todo = unsettled
    return [done[float(p)] for p in powers]


def assert_steady_depths_match_reference(env, powers, v_mmpm):
    """batch_depths over powers at one speed equals the reference result
    for result: depth bits, steady flag, t_used and edge flag."""
    v = v_mmpm * MMPM_TO_MPS
    got = batch_depths(env, [(p, v) for p in powers])
    want = steady_depths_reference(env, v, powers)
    assert [(repr(r), r.at_edge) for r in got] == [(repr(r), r.at_edge) for r in want]


def assert_depths_bit_identical(env, powers, v_mmpm, times=DEPTH_TIMES):
    """The batched search over powers equals the reference power by power,
    bit for bit, edge flag included."""
    v = v_mmpm * MMPM_TO_MPS
    bases: dict = {}
    for t in times:
        got = _isotherm_depths(env, v, t, powers, {})
        for p, (depth, at_edge) in zip(powers, got, strict=True):
            ref_depth, ref_edge = depth_at_time_reference(env, p, v, t, bases)
            assert (depth.hex(), at_edge) == (ref_depth.hex(), ref_edge), (p, v_mmpm, t)


class TestTemperature:
    def test_ambient_at_time_zero(self, material):
        q = LaserQuery(p=800.0, v=V_MID, x=0.0, y=0.0, z=0.0, t=0.0)
        assert temperature(material, q) == material.t0_k

    def test_ambient_at_zero_power(self, material):
        q = LaserQuery(p=0.0, v=V_MID, x=1e-3, y=0.0, z=1e-4, t=2.0)
        assert temperature(material, q) == material.t0_k

    def test_rise_is_linear_in_power(self, material):
        def rise(p):
            q = LaserQuery(p=p, v=V_MID, x=V_MID * 2.0, y=0.0, z=2e-4, t=2.0)
            return temperature(material, q) - material.t0_k

        r1, r2, r3 = rise(400.0), rise(800.0), rise(1200.0)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-9)
        assert r3 == pytest.approx(3.0 * r1, rel=1e-9)

    def test_rise_is_positive_and_decays_with_depth(self, material):
        x = V_MID * 2.0
        temps = [temperature(material, LaserQuery(800.0, V_MID, x, 0.0, z, 2.0))
                 for z in (0.0, 2e-4, 5e-4, 1e-3, 3e-3)]
        assert all(t > material.t0_k for t in temps[:-1])
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
        assert temperature(material, q) >= material.t0_k

    def test_calls_keep_no_quadrature_rules(self, material):
        """Each call builds the rules it needs for itself, so 64 calls at
        times that never repeat keep almost nothing once they return."""
        tracemalloc.start()
        try:
            for t in range(100, 164):
                temperature(material, LaserQuery(800.0, V_MID, 0.0, 0.0, 1e-4, float(t)))
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 0.05e6

    def test_query_validation(self):
        with pytest.raises(ValueError):
            LaserQuery(p=-1.0, v=V_MID, x=0.0, y=0.0, z=0.0, t=1.0)
        with pytest.raises(ValueError):
            LaserQuery(p=100.0, v=V_MID, x=0.0, y=0.0, z=-1e-4, t=1.0)
        with pytest.raises(ValueError):
            LaserQuery(p=100.0, v=V_MID, x=0.0, y=0.0, z=0.0, t=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["p", "v", "x", "y", "z", "t"])
    def test_non_finite_field_is_named(self, name, value):
        """A NaN would end in a quadrature divergence, t = inf in overflow
        warnings and v = inf in a silent T0; each is refused by name."""
        fields = dict(p=800.0, v=V_MID, x=0.0, y=0.0, z=1e-4, t=2.0)
        with pytest.raises(ValueError, match=rf"^LaserQuery\.{name} must be finite"):
            LaserQuery(**{**fields, name: value})


class TestStationaryClosedForm:
    @given(p=st.floats(100.0, 3000.0), t=st.floats(0.01, 10.0))
    @example(p=1000.0, t=4.9453125)
    @settings(deadline=None)
    def test_surface_centre_matches_closed_form(self, material, p, t):
        """An outside reference: at v = 0 the surface point under the beam
        centre has T - T0 = C*P * 2/(sigma*sqrt(2a)) * arctan(sqrt(2at)/sigma),
        the time integral 2/(2a*u^2 + sigma^2) over u in [0, sqrt(t)].
        At t = 4.9453125 s, 4 panels agree with 8 by chance: a basis that
        accepted that agreement would stop at 8 panels, 4.2e-11 relative
        off."""
        a, sigma = material.diffusivity, material.sigma
        want = (material.amplitude_per_watt * p * 2.0 / (sigma * math.sqrt(2.0 * a))
                * math.atan(math.sqrt(2.0 * a * t) / sigma))
        rise = temperature(material, LaserQuery(p, 0.0, 0.0, 0.0, 0.0, t)) - material.t0_k
        assert rise == pytest.approx(want, rel=1e-12, abs=0.0)


class TestQuadrature:
    def test_self_convergence_on_panel_doubling(self, material):
        """The converged rule changes by < 1e-5 relative when refined again."""
        xs = np.array([V_MID * 2.0 - 2e-4])
        den, w, g, _ = _adaptive_basis(material, V_MID, xs, 0.0, 2.0, {})
        coef = material.amplitude_per_watt * 800.0 * w * g
        n_panels = (len(den) // 12) * 2
        den2, w2, g2 = _profile_basis(material, V_MID, xs, 0.0, 2.0, n_panels, {})
        coef2 = material.amplitude_per_watt * 800.0 * w2 * g2
        for z in (0.0, 2e-4, 1e-3):
            a = float(_profile_eval(material, den, coef, z)[0]) - material.t0_k
            b = float(_profile_eval(material, den2, coef2, z)[0]) - material.t0_k
            assert abs(a - b) <= 1e-5 * abs(b)

    def test_coefficients_scale_with_power(self, material):
        xs = np.array([1e-3])
        _, w, g = _profile_basis(material, V_MID, xs, 0.0, 2.0, 32, {})
        c1 = material.amplitude_per_watt * 500.0 * w * g
        c2 = material.amplitude_per_watt * 1000.0 * w * g
        assert np.allclose(c2, 2.0 * c1)


class TestMeltPoolDepth:
    def test_benchmark_counts_extensions_on_the_schedule(self, cache10, monkeypatch):
        """perfbench/workloads.py recomputes a depth's time extensions
        from t_used with 2 s and x1.5 of its own; every positive-power
        depth ends on a time of _TIMES past the first, and the benchmark
        counts time _TIMES[k] as k extensions.  perfbench/ is only
        imported, never changed."""
        monkeypatch.syspath_prepend(str(PERFBENCH))
        from workloads import extensions

        assert [extensions(t) for t in _TIMES] == list(range(len(_TIMES)))
        for s, (p, _) in enumerate(cache10.params):
            if p > 0:
                assert cache10.depth(s).t_used in _TIMES[1:]

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


class TestProfileBasis:
    """The in-place basis against the one-expression form."""

    @given(v_mmpm=st.floats(100.0, 2000.0) | st.sampled_from([1e157, 1e308]),
           y=st.just(0.0) | st.floats(-2e-3, 2e-3),
           t=st.sampled_from(DEPTH_TIMES), n_panels=st.integers(4, 64))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_one_expression(self, material, v_mmpm, y, t, n_panels):
        """1e157 mm/min overflows only the quotient, 1e308 already the
        square: both reach exp(-inf) = 0."""
        v = v_mmpm * MMPM_TO_MPS
        xs = scan_line(material, v, t)
        new = _profile_basis(material, v, xs, y, t, n_panels, {})
        old = profile_basis_reference(material, v, xs, y, t, n_panels)
        assert [a.tobytes() for a in new] == [b.tobytes() for b in old]


    def test_quadrature_rule_is_shared_and_read_only(self, material):
        """The speed-free arrays are built once per (t, n_panels) and
        rules dict: a second basis on the same dict reads the first one's
        rule, a fresh dict builds it again with the same bytes, and
        writing a rule array raises."""
        v = V_MID
        xs = scan_line(material, v, 3.0)
        rules = {}
        first = _profile_basis(material, v, xs, 0.0, 3.0, 16, rules)
        shared = _profile_basis(material, v, xs, 0.0, 3.0, 16, rules)
        fresh = _profile_basis(material, v, xs, 0.0, 3.0, 16, {})
        assert list(rules) == [(3.0, 16)]
        assert shared[0] is first[0] and fresh[0] is not first[0]
        assert [a.tobytes() for a in fresh] == [b.tobytes() for b in shared]
        for array in rules[3.0, 16]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


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
                                   n_panels, {})
        u = basis_nodes(t, n_panels)
        assert den.tobytes() == (4.0 * material.diffusivity * u * u).tobytes()
        rows = (material.amplitude_per_watt * p * w * g)[np.array(mask)]
        new = _profile_eval(material, den, rows, z)
        old = profile_eval_reference(material, u, rows, np.full(len(rows), z))
        assert [x.hex() for x in new.tolist()] == [x.hex() for x in old.tolist()]


class TestBisectionNodes:
    def test_table_is_the_float_bisection(self):
        """Every node depth is the float bisection's own, byte for byte,
        and the nodes rise strictly from 0 to Z_MAX."""
        walked = np.array([node_reference(i) for i in range(2**16 + 1)])
        assert _NODES.tobytes() == walked.tobytes()
        assert (_NODES[0], _NODES[-1]) == (0.0, Z_MAX)
        assert np.all(np.diff(_NODES) > 0.0)


class TestDepthAtTime:
    """The batched isotherm search against every point bisected on its
    own."""

    @given(p=st.floats(0.0, 20000.0, exclude_min=True), v_mmpm=st.floats(100.0, 2000.0),
           t=st.sampled_from(DEPTH_TIMES))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_per_point_bisection(self, material, p, v_mmpm, t):
        assert_depths_bit_identical(material, [p], v_mmpm, times=(t,))

    @given(powers=BATCHES,
           v_mmpm=st.floats(100.0, 2000.0) | st.sampled_from([100.0, 1e157, 1e308]),
           t=st.sampled_from(DEPTH_TIMES))
    @settings(max_examples=60, deadline=None)
    def test_batches_match_per_point_bisection(self, material, powers, v_mmpm, t):
        """Unsorted batches with repeated powers, powers near 0, powers
        that never melt and powers whose pool is deeper than the bracket;
        at 1e157 and 1e308 mm/min the kernel, and with it every scan-line
        maximum, is 0."""
        assert_depths_bit_identical(material, powers, v_mmpm, times=(t,))

    def test_exact_decisions_give_the_same_bits(self, material, cache10, monkeypatch):
        """With an infinite band every node is decided by _profile_eval,
        and every DepthResult, EDGE_GRID's edge state included, is the
        same as with the normal band."""
        def queries(grid):
            return [(p, v * MMPM_TO_MPS)
                    for p, v in (state_params(grid, s) for s in range(grid.n_states))]

        edge_depths = batch_depths(material, queries(EDGE_GRID))
        assert edge_depths[2].at_edge
        runs = [(queries(cache10.grid), [cache10.depth(s) for s in range(100)]),
                (queries(EDGE_GRID), edge_depths)]
        calls = []

        def counting(*args):
            calls.append(None)
            return _profile_eval(*args)

        monkeypatch.setattr(thermal, "_band", lambda *args: math.inf)
        monkeypatch.setattr(thermal, "_profile_eval", counting)
        for qs, want in runs:
            calls.clear()
            got = batch_depths(material, qs)
            assert [(r, r.at_edge) for r in got] == [(r, r.at_edge) for r in want]
            assert len(calls) > 10 * len(qs)

    @given(v_mmpm=st.floats(100.0, 2000.0) | st.sampled_from([1e157]),
           t=st.sampled_from(DEPTH_TIMES), n_panels=st.sampled_from([16, 32, 64, 128]),
           nodes=st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=8),
           ratio=st.floats(0.5, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_band_bounds_the_rounding(self, material, v_mmpm, t, n_panels, nodes, ratio):
        """|s - p*r| <= band for every scan-line point, where s is the rise
        _profile_eval adds to t0 and r the unit rise, with p set so that
        p * max r is ratio * (t_liq - t0): the band holds where the
        thresholds are compared.  At 1e157 mm/min every rise is 0.  The
        bound rests on both paths taking the same damping floats, which
        is checked too."""
        env, v = material, v_mmpm * MMPM_TO_MPS
        den, w, g = _profile_basis(env, v, scan_line(env, v, t), 0.0, t, n_panels, {})
        wg = env.amplitude_per_watt * w * g
        nodes = np.array(nodes)
        z = _NODES[nodes]
        damp = np.exp(-(z * z)[:, None] / den)
        rise = _unit_rise(den, wg, nodes)
        for zj, damp_j, r in zip(z, damp, rise):
            assert damp_j.tobytes() == np.exp(-(zj * zj) / den).tobytes()
            top = float(r.max())
            p = ratio * (env.t_liq_k - env.t0_k) / top if top > 0.0 else 1.0
            assume(p < math.inf)
            exact = np.einsum("ik,k->i", env.amplitude_per_watt * p * w * g, damp_j)
            assert np.all(np.abs(exact - p * r) <= _band(env, len(den), t, p))

    @pytest.mark.parametrize("p, v_mmpm", [
        (50.0, 550.0),      # never melts
        (5000.0, 100.0),    # isotherm at the bracket edge
        (20000.0, 100.0),
        (919.0, 200.0),     # not steady after the last time extension
    ])
    def test_named_points_bit_identical(self, material, p, v_mmpm):
        assert_depths_bit_identical(material, [p], v_mmpm)


class TestSettleRule:
    """The steady-state rule, whose first simulated time is settled on at
    most two node decisions per power, against a search at every time."""

    @given(powers=BATCHES,
           v_mmpm=st.floats(100.0, 2000.0) | st.sampled_from([100.0, 200.0, 500.0]))
    @settings(max_examples=40, deadline=None)
    def test_batches_match_searching_every_time(self, material, powers, v_mmpm):
        assert_steady_depths_match_reference(material, powers, v_mmpm)

    @pytest.mark.parametrize("powers, v_mmpm", [
        ([0.0, 50.0], 550.0),           # zero power, and a power that never melts
        ([919.0], 200.0),               # not steady after the last time extension
        ([5000.0, 20000.0], 100.0),     # isotherm at the bracket edge
        # near the melting threshold: the 3 s depth is 0 or so shallow that
        # a 2 s depth of 0 (no node above) still settles against it
        ([190.0, 190.56, 190.8, 191.0, 191.5, 192.0], 500.0),
        # the 2 s depth in the first leaf that settles (622.8 W, 632.5 W)
        # and one leaf short of it (642.1 W)
        ([622.8, 632.5, 642.1], 400.0),
        ([217.5, 227.2, 236.8], 300.0),
    ])
    def test_named_points_match_searching_every_time(self, material, powers, v_mmpm):
        assert_steady_depths_match_reference(material, powers, v_mmpm)

    @pytest.mark.parametrize("p, v_mmpm", [
        (800.0, 550.0),
        (190.0, 500.0),     # no node above at 2 s
        (5000.0, 100.0),    # the deepest leaf at 2 s
    ])
    def test_two_node_decisions_give_the_settle_test(self, material, p, v_mmpm):
        """For second-time depths in every leaf up to 20 leaves either
        side of the searched 2 s depth, the two node decisions give the
        settle test's answer against that depth, so both ends of the run
        of settling leaves are crossed.  Real inputs reach only the
        shallow end: over 100-5000 W x 100-2000 mm/min the 2 s depth
        exceeds the 3 s depth by at most 2.3e-4 mm, far below the 1e-3 mm
        tolerance."""
        v = v_mmpm * MMPM_TO_MPS
        [(d0, _)] = _isotherm_depths(material, v, 2.0, [p], {})
        lo0 = int(np.searchsorted(_NODES, d0)) - 1 if d0 > 0.0 else -1
        depths = [thermal._leaf_depth(lo)
                  for lo in range(max(lo0 - 20, -1), min(lo0 + 21, 2**16))]
        want = [abs(d - d0) * MM_PER_M < 1e-3 for d in depths]
        assert thermal._settled_at_start(material, v, [p] * len(depths), depths, {}) == want
        assert True in want and False in want


class TestScipyReference:
    """An outside reference for the depth: scipy's QUADPACK integrates the
    time integral in its original variable t', with the (t - t')^(-1/2)
    singularity as an algebraic weight, and brentq finds each scan-line
    point's liquidus root on it."""

    @pytest.mark.parametrize("p, v_mmpm", [
        (1000.0, 400.0), (500.0, 700.0), (888.9, 566.7), (750.0, 550.0), (1200.0, 300.0),
    ])
    def test_anchor_depth_within_resolution(self, material, p, v_mmpm):
        """The model's depth lies within 5e-5 mm of the reference at the
        model's own t_used (measured 2.4e-5 to 3.3e-5 mm: half a bisection
        leaf is 3.8e-5 mm).  Only points at or above the liquidus 5e-5 mm
        shallower than the model's depth can have a root within the bound
        of it or deeper, so only they are solved; if there are none, the
        reference is too shallow."""
        quad = pytest.importorskip("scipy.integrate").quad
        brentq = pytest.importorskip("scipy.optimize").brentq
        env, v = material, v_mmpm * MMPM_TO_MPS
        a, sig2 = env.diffusivity, env.sigma ** 2
        amplitude = env.amplitude_per_watt * p
        res = melt_pool_depth(env, p, v)
        t, depth, bound = res.t_used, res.depth_mm * 1e-3, 5e-8

        def temperature_at(x, z):
            def integrand(t_prime):
                s = t - t_prime
                if s <= 0.0:  # the damping exp(-z^2 / (4*a*s)) -> 0, as z > 0
                    return 0.0
                return (amplitude / (2.0 * a * s + sig2)
                        * math.exp(-(x - v * t_prime) ** 2 / (4.0 * a * s + 2.0 * sig2)
                                   - z * z / (4.0 * a * s)))
            rise, _ = quad(integrand, 0.0, t, weight="alg", wvar=(0.0, -0.5),
                           epsabs=0.0, epsrel=1e-12, limit=500)
            return env.t0_k + rise

        assert res.converged
        candidates = [x for x in scan_line(env, v, t)
                      if temperature_at(x, depth - bound) >= env.t_liq_k]
        assert candidates
        ref = max(brentq(lambda z: temperature_at(x, z) - env.t_liq_k, depth - bound, Z_MAX,
                         xtol=1e-13, rtol=1e-14)
                  for x in candidates)
        assert abs(depth - ref) <= bound


class TestFineReference:
    """Every default-grid depth against a 1e-13 m bisection of the same
    scan-line basis at the depth's t_used."""

    @pytest.mark.parametrize("n", [5, 10, 15, 20])
    def test_default_grid_depths_within_half_a_leaf(self, material, cache_for, n):
        """The depth is the midpoint of the leaf that holds the deepest
        root, so it lies within half a leaf of that root.  Only points at
        or above the liquidus half a leaf shallower than the depth can
        have a root there or deeper, so only they are bisected; if there
        are none, the reference is too shallow."""
        env, grid = material, cache_for(n).grid
        half_leaf = Z_MAX / 2**17
        bases: dict = {}
        for s in range(grid.n_states):
            res = cache_for(n).depth(s)
            p, v_mmpm = state_params(grid, s)
            v, t = v_mmpm * MMPM_TO_MPS, res.t_used
            if (v, t) not in bases:
                bases[v, t] = _adaptive_basis(env, v, scan_line(env, v, t), 0.0, t, {})
            den, w, g, _ = bases[v, t]
            depth = res.depth_mm / MM_PER_M
            coef = env.amplitude_per_watt * p * w * g
            rows = coef[_profile_eval(env, den, coef, depth - half_leaf) >= env.t_liq_k]
            assert len(rows), s
            u = basis_nodes(t, len(den) // len(_GL_NODES))
            lo = np.full(len(rows), depth - half_leaf)
            hi = np.full(len(rows), Z_MAX)
            while float(np.max(hi - lo)) > 1e-13:
                m = 0.5 * (lo + hi)
                above = profile_eval_reference(env, u, rows, m) >= env.t_liq_k
                lo = np.where(above, m, lo)
                hi = np.where(above, hi, m)
            assert abs(depth - float(np.max(lo))) <= half_leaf, s


class TestBatchDepths:
    def test_matches_individual_calls(self, material):
        """Power-major order over two speeds, plus zero power, a power that
        never melts and a point whose depth never becomes steady.  Two
        power ramps warm-start each t = 2 s bisection from the powers
        before it: at 300 mm/min from a power that never melts, at
        100 mm/min from a depth at the 5 mm bracket edge."""
        queries = [(p, v * MMPM_TO_MPS) for p in (600.0, 900.0)
                   for v in (500.0, 650.0)]
        queries += [(0.0, 500.0 * MMPM_TO_MPS), (50.0, 650.0 * MMPM_TO_MPS),
                    (919.0, 200.0 * MMPM_TO_MPS)]
        queries += [(p, 300.0 * MMPM_TO_MPS) for p in (100.0, 400.0, 700.0, 1000.0)]
        queries += [(p, 100.0 * MMPM_TO_MPS) for p in (3000.0, 5000.0, 1500.0)]
        batch = batch_depths(material, queries)
        singles = [melt_pool_depth(material, p, v) for p, v in queries]
        assert batch == singles  # at_edge included
        assert batch[4] == DepthResult(0.0, True, 0.0)
        assert batch[5].depth_mm == 0.0
        assert not batch[6].converged
        assert batch[7].depth_mm == 0.0 and all(res.depth_mm > 0 for res in batch[8:11])
        assert batch[12].at_edge and not batch[13].at_edge

    def test_failure_names_query_index(self, material):
        with pytest.raises(RuntimeError, match="query 1"):
            batch_depths(material, [(600.0, 500.0 * MMPM_TO_MPS), (700.0, 0.0)])

    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_bad_power_inside_a_speed_is_named(self, material, bad):
        """One speed's powers are searched together, yet a bad power
        among them is named by its own query index."""
        v = 500.0 * MMPM_TO_MPS
        with pytest.raises(RuntimeError, match=r"query 2 \(P=.* W.*power must be finite"):
            batch_depths(material, [(600.0, v), (700.0, v), (bad, v), (800.0, v)])

    def test_zero_power_never_reaches_the_model(self, material, monkeypatch):
        """A zero power is answered as depth 0 before any basis is built,
        alone and as the only power of each speed in a batch."""
        def no_basis(*args):
            raise AssertionError("a zero power reached the thermal model")

        monkeypatch.setattr(thermal, "_adaptive_basis", no_basis)
        zero = DepthResult(0.0, True, 0.0)
        v1, v2 = 500.0 * MMPM_TO_MPS, 650.0 * MMPM_TO_MPS
        assert melt_pool_depth(material, 0.0, v1) == zero
        assert batch_depths(material, [(0.0, v1), (0.0, v2)]) == [zero, zero]

    def test_zero_power_at_a_speed_no_basis_serves(self, material):
        """At 1e308 m/s the quadrature basis fails, yet a zero power there
        still has its answer, depth 0."""
        zero = DepthResult(0.0, True, 0.0)
        assert batch_depths(material, [(0.0, 1e308)]) == [zero]
        assert melt_pool_depth(material, 0.0, 1e308) == zero


class TestMaterialEnv:
    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError, match="cp"):
            MaterialEnv(cp=0.0)
        with pytest.raises(ValueError, match="t_liq"):
            MaterialEnv(t0_k=2000.0, t_liq_k=1700.0)
        with pytest.raises(ValueError, match="absorptivity"):
            MaterialEnv(absorptivity=1.5)

    def test_amplitude_per_watt(self, material):
        expected = (material.source_gain * material.absorptivity
                    / (math.pi * material.rho * material.cp
                       * math.sqrt(4.0 * math.pi * material.diffusivity)))
        assert material.amplitude_per_watt == pytest.approx(expected)
