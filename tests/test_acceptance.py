"""End-to-end acceptance suite.

Seven criteria, one test each, every test printing a single
"ACCEPTANCE n: PASS/FAIL" line with the measured numbers.  Criteria:

1. Anchor depths: d(1000 W, 400 mm/min) in [1.16, 1.36] mm and
   d(500 W, 700 mm/min) in [0.41, 0.61] mm, each evaluated in <= 10 s.
2. Brute-force optimum of the default 10x10 grid is (888.9 W,
   566.7 mm/min) (rank 1, or at worst top-3) with depth within 0.05 mm
   of the 1 mm target.
3. Statistical reproduction: over 20 seeds with default hyperparameters,
   >= 80% of runs learn a state within 0.05 mm of the target and >= 60%
   land in the oracle's top-3; <= 5 min total on a warm cache.
4. Q-update arithmetic matches hand-computed values exactly.
5. Exploration degeneracy: the epsilon = 1 convergence curve is flat
   (regression slope of mean per-epoch reward vs episode not
   significantly positive at the 5% level) while the epsilon = 0.25
   curve improves (final-quartile mean exceeds first-quartile mean).
   "Mean reward" is the episode's reward per epoch averaged across the
   10 replicates: episode *totals* shrink as the policy improves (better
   policies terminate sooner), so the per-epoch rate is the quantity
   that reflects learning.
6. Discretization ordering: mean final-episode total reward for grid
   resolutions {15, 20} exceeds that for {5, 10} over 10 replicates.
7. Always-runnable properties: depth monotonicity, linearity in power,
   ambient limits, quadrature self-convergence, Q-table shape, and
   bit-identical outputs on seed reuse and across cold caches.
"""

import time

import numpy as np
import pytest
from scipy import stats

from meltpool_rl.environment import DepthCache, StateGrid, valid_actions
from meltpool_rl.oracle import brute_force_rank, validate_run
from meltpool_rl.qlearn import Hyperparams, new_qtable, q_update, train
from meltpool_rl.experiments import SweepSpec, run_sweep
from meltpool_rl.thermal import (
    MMPM_TO_MPS,
    LaserQuery,
    melt_pool_depth,
    temperature,
    _adaptive_basis,
    _profile_basis,
    _profile_eval,
)

TARGET_MM = 1.0
DEPTH_TOL_MM = 0.05
TOP_K = 3


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {num}: {detail}"


@pytest.fixture(scope="module")
def shared_caches(material, grid, cache_for):
    """Warm caches keyed by resolution."""
    return {n: cache_for(n) for n in (5, 10, 15, 20)}


@pytest.fixture(scope="module")
def report10(cache_for, reward_config):
    return brute_force_rank(cache_for(10), reward_config)


def per_epoch_curve(runs):
    """Across-replicate mean of each episode's reward per epoch."""
    rates = np.array([[tr.total_reward / tr.epochs for tr in run.traces]
                      for run in runs])
    return rates.mean(axis=0)


def one_sided_p(curve):
    fit = stats.linregress(np.arange(len(curve)), curve)
    return fit.slope, (fit.pvalue / 2 if fit.slope > 0 else 1 - fit.pvalue / 2)


def test_acceptance_1_thermal_anchor_points(material):
    t0 = time.perf_counter()
    deep = melt_pool_depth(material, 1000.0, 400.0 * MMPM_TO_MPS)
    t1 = time.perf_counter()
    shallow = melt_pool_depth(material, 500.0, 700.0 * MMPM_TO_MPS)
    t2 = time.perf_counter()
    ok = (deep.converged and shallow.converged
          and 1.16 <= deep.depth_mm <= 1.36
          and 0.41 <= shallow.depth_mm <= 0.61
          and (t1 - t0) <= 10.0 and (t2 - t1) <= 10.0)
    report(1, ok,
           f"d(1000 W, 400 mm/min)={deep.depth_mm:.4f} mm (band [1.16, 1.36]), "
           f"d(500 W, 700 mm/min)={shallow.depth_mm:.4f} mm (band [0.41, 0.61]), "
           f"times {t1 - t0:.2f}/{t2 - t1:.2f} s (limit 10 s)")


def test_acceptance_2_grid_optimum(report10):
    target_state = 75  # (i, j) = (7, 5): (888.9 W, 566.7 mm/min)
    rank = report10.rank_of(target_state)
    best = report10.best
    gap = abs(report10.rows[target_state].depth - TARGET_MM)
    ok = rank <= TOP_K and gap <= DEPTH_TOL_MM
    report(2, ok,
           f"(888.9 W, 566.7 mm/min) oracle rank {rank} (need <= {TOP_K}, ideally 1), "
           f"depth {report10.rows[target_state].depth:.4f} mm "
           f"(need within {DEPTH_TOL_MM} of {TARGET_MM}); "
           f"rank-1 state is ({best.power:.1f} W, {best.speed:.1f} mm/min) "
           f"at {best.depth:.4f} mm")


def test_acceptance_3_statistical_reproduction(shared_caches, report10,
                                               reward_config):
    t0 = time.perf_counter()
    in_top_k, depth_ok = [], []
    for seed in range(20):
        result = train(shared_caches[10], reward_config,
                       Hyperparams(seed=seed))
        in_top_k.append(validate_run(report10, result) <= TOP_K)
        depth_ok.append(abs(result.best_depth - TARGET_MM) <= DEPTH_TOL_MM)
    elapsed = time.perf_counter() - t0
    depth_frac = sum(depth_ok) / len(depth_ok)
    topk_frac = sum(in_top_k) / len(in_top_k)
    ok = depth_frac >= 0.80 and topk_frac >= 0.60 and elapsed <= 300.0
    report(3, ok,
           f"{depth_frac:.0%} of 20 seeds within {DEPTH_TOL_MM} mm "
           f"(need >= 80%), {topk_frac:.0%} in oracle top-{TOP_K} (need >= 60%), "
           f"{elapsed:.1f} s total (limit 300 s)")


def test_acceptance_4_q_update_arithmetic(grid):
    q = new_qtable(grid.n)
    v1 = q_update(q, 0, 1, 1.0, 1, valid_actions(grid, 1),
                  Hyperparams(alpha=0.25, gamma=0.25))
    q2 = new_qtable(grid.n)
    q2[0, 1] = 0.5
    q2[1, 4] = 0.8
    v2 = q_update(q2, 0, 1, -0.2, 1, valid_actions(grid, 1),
                  Hyperparams(alpha=0.5, gamma=0.5))
    q3 = new_qtable(grid.n)
    q3[5, 3] = 123.0
    v3 = q_update(q3, 5, 3, -0.7, 6, valid_actions(grid, 6),
                  Hyperparams(alpha=1.0, gamma=0.0))
    ok = v1 == 0.25 and abs(v2 - 0.35) < 1e-15 and v3 == -0.7
    report(4, ok, f"hand-computed updates: {v1} (want 0.25), "
                  f"{v2} (want 0.35), {v3} (want -0.7, the alpha=1 gamma=0 "
                  f"identity)")


def test_acceptance_5_exploration_degeneracy(material, grid, reward_config):
    results = run_sweep(SweepSpec("epsilon", values=(0.25, 1.0)),
                        material, grid, reward_config, Hyperparams())
    by_eps = {vr.value: per_epoch_curve(vr.runs) for vr in results}

    slope1, p1 = one_sided_p(by_eps[1.0])
    curve25 = by_eps[0.25]
    quarter = len(curve25) // 4
    first_q, last_q = curve25[:quarter].mean(), curve25[-quarter:].mean()

    flat_ok = p1 >= 0.05
    improving_ok = last_q > first_q
    report(5, flat_ok and improving_ok,
           f"eps=1 slope {slope1:+.4f} one-sided p={p1:.3f} "
           f"(flat needs p >= 0.05); eps=0.25 per-epoch mean reward "
           f"first quartile {first_q:.1f} vs final quartile {last_q:.1f} "
           f"(must increase)")


def test_acceptance_6_discretization_ordering(material, grid, reward_config):
    """Expected to FAIL under the calibrated thermal model: the final
    reward level of each resolution is set by how close its nearest grid
    state happens to land to the exact target depth (the reward grows
    without bound as that gap shrinks), which is a property of the grid
    layout rather than of the discretization quality.  The 5x5 grid
    contains a state 0.0004 mm from the target and dominates every
    coarser-should-lose comparison.  Kept as an honest check of the
    claimed ordering; see the printed measurements.
    """
    results = run_sweep(SweepSpec("n"), material, grid, reward_config,
                        Hyperparams())
    final = {vr.value: float(vr.mean[-1]) for vr in results}
    ok = min(final[15], final[20]) > max(final[5], final[10])
    detail = ", ".join(f"N={n}: {final[n]:.1f}" for n in (5, 10, 15, 20))
    report(6, ok, f"mean final-episode total reward {detail} "
                  f"(need both of N=15,20 above both of N=5,10)")


def test_acceptance_7_property_suite(material, reward_config, shared_caches):
    checks = []

    # depth monotone in P (fixed v) and in 1/v (fixed P) along grid lines
    cache = shared_caches[10]
    for j in (0, 5, 9):
        depths = [cache.depth(i * 10 + j).depth_mm for i in range(10)]
        checks.append(("depth increasing in P",
                       all(b > a for a, b in zip(depths, depths[1:]))))
    for i in (0, 5, 9):
        depths = [cache.depth(i * 10 + j).depth_mm for j in range(10)]
        checks.append(("depth decreasing in v",
                       all(b < a for a, b in zip(depths, depths[1:]))))

    # temperature rise linear in P; ambient at t=0 and P=0
    v = 550.0 * MMPM_TO_MPS
    probe = dict(v=v, x=v * 2.0, y=0.0, z=2e-4, t=2.0)
    r1 = temperature(material, LaserQuery(p=300.0, **probe)) - material.t0_k
    r2 = temperature(material, LaserQuery(p=600.0, **probe)) - material.t0_k
    checks.append(("rise linear in P", abs(r2 - 2.0 * r1) < 1e-9 * r2))
    checks.append(("T=T0 at t=0", temperature(
        material, LaserQuery(800.0, v, 0.0, 0.0, 0.0, 0.0)) == material.t0_k))
    checks.append(("T=T0 at P=0", temperature(
        material, LaserQuery(0.0, v, 1e-3, 0.0, 0.0, 2.0)) == material.t0_k))

    # quadrature self-convergence < 1e-5 relative on refinement
    xs = np.array([v * 2.0 - 2e-4])
    den, w, g, _ = _adaptive_basis(material, v, xs, 0.0, 2.0, {})
    coef = material.amplitude_per_watt * 800.0 * w * g
    den2, w2, g2 = _profile_basis(material, v, xs, 0.0, 2.0, (len(den) // 12) * 2, {})
    coef2 = material.amplitude_per_watt * 800.0 * w2 * g2
    a = float(_profile_eval(material, den, coef, 2e-4)[0]) - material.t0_k
    b = float(_profile_eval(material, den2, coef2, 2e-4)[0]) - material.t0_k
    checks.append(("quadrature self-convergence", abs(a - b) <= 1e-5 * abs(b)))

    # Q-table shape for every swept resolution
    for n in (5, 10, 15, 20):
        result = train(shared_caches[n], reward_config,
                       Hyperparams(episodes=2, seed=0))
        checks.append((f"qtable shape {n}", result.qtable.shape == (n * n, 8)))

    # identical seeds give bit-identical output; two cold caches agree
    small = StateGrid(n=4)
    c1, c2 = DepthCache(material, small), DepthCache(material, small)
    checks.append(("depths equal across cold caches", c1._depths == c2._depths))
    hp = Hyperparams(episodes=15, seed=77)
    t1 = train(c1, reward_config, hp)
    t2 = train(c2, reward_config, hp)
    checks.append(("bit-identical training for equal seeds",
                   np.array_equal(t1.qtable, t2.qtable)
                   and t1.traces == t2.traces))

    failed = [name for name, ok in checks if not ok]
    report(7, not failed,
           f"{len(checks)} properties checked"
           + (f"; failed: {failed}" if failed else ", all hold"))
