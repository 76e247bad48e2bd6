"""State grid geometry, reward branches, and the step contract."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meltpool_rl import environment, thermal
from meltpool_rl.environment import (
    ACTIONS,
    N_ACTIONS,
    DepthCache,
    EnvironmentEvalError,
    RewardConfig,
    StateGrid,
    reward,
    state_params,
    step,
    valid_actions,
    write_depth_map_csv,
)
from meltpool_rl.thermal import MMPM_TO_MPS, DepthResult, MaterialEnv, melt_pool_depth

from conftest import EDGE_GRID


class TestActions:
    def test_eight_unique_king_moves(self):
        assert N_ACTIONS == 8
        assert len(set(ACTIONS)) == 8
        assert (0, 0) not in ACTIONS
        assert all(di in (-1, 0, 1) and dj in (-1, 0, 1) for di, dj in ACTIONS)


class TestStateGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            StateGrid(n=1)
        with pytest.raises(ValueError):
            StateGrid(p_min=1000.0, p_max=500.0)
        with pytest.raises(ValueError):
            StateGrid(v_min=700.0, v_max=700.0)

    def test_lower_bounds_are_named(self):
        with pytest.raises(ValueError, match=r"grid\.p_min_w must be >= 0, got -1\.0"):
            StateGrid(p_min=-1.0)
        with pytest.raises(ValueError, match=r"grid\.v_min_mmpm must be > 0, got 0\.0"):
            StateGrid(v_min=0.0)
        assert state_params(StateGrid(p_min=0.0), 0) == (0.0, 400.0)

    def test_upper_bound_is_named(self):
        """n^2 start states must fit the 2**32 range the start draw takes."""
        assert StateGrid(n=2**16).n_states == 2**32
        for n in (2**16 + 1, int("9" * 30), 10**400):
            with pytest.raises(ValueError, match=r"^grid\.n must be <= 2\*\*16, got \d+$"):
                StateGrid(n=n)

    def test_named_state_params(self, grid):
        p, v = state_params(grid, 75)
        assert p == pytest.approx(888.8889, abs=1e-3)
        assert v == pytest.approx(566.6667, abs=1e-3)
        assert state_params(grid, 0) == (500.0, 400.0)
        assert state_params(grid, 99) == (1000.0, 700.0)

    def test_out_of_range_state_rejected(self, grid):
        with pytest.raises(ValueError):
            state_params(grid, 100)
        with pytest.raises(ValueError):
            valid_actions(grid, -1)

    @given(s=st.integers(0, 99))
    def test_endpoint_inclusive_bounds(self, grid, s):
        p, v = state_params(grid, s)
        assert grid.p_min <= p <= grid.p_max
        assert grid.v_min <= v <= grid.v_max


class TestValidActions:
    def test_interior_has_all_eight(self, grid):
        assert len(valid_actions(grid, 55)) == 8

    def test_corner_has_three(self, grid):
        acts = valid_actions(grid, 0)
        assert {ACTIONS[k] for k in acts} == {(1, 0), (0, 1), (1, 1)}

    def test_edge_has_five(self, grid):
        assert len(valid_actions(grid, 5)) == 5

    @given(s=st.integers(0, 99))
    def test_landing_always_in_grid(self, grid, s):
        i, j = divmod(s, grid.n)
        for k in valid_actions(grid, s):
            di, dj = ACTIONS[k]
            assert 0 <= i + di < grid.n and 0 <= j + dj < grid.n


class TestReward:
    def test_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(tol_r=-0.1)
        with pytest.raises(ValueError):
            RewardConfig(tol_delta=0.2, tol_r=0.1)
        with pytest.raises(ValueError):
            RewardConfig(variant="bogus")

    def test_inverse_error_branches(self, reward_config):
        rc = reward_config
        assert reward(rc, 1.02) == pytest.approx(1.0 / 0.02)
        assert reward(rc, 0.98) == pytest.approx(1.0 / 0.02)
        assert reward(rc, 1.3) == pytest.approx(-0.3)
        assert reward(rc, 0.5) == pytest.approx(-0.5)

    def test_inverse_error_denominator_floor(self, reward_config):
        assert reward(reward_config, 1.0) == pytest.approx(1e6)

    def test_literal_variant_branches(self):
        rc = RewardConfig(variant="paper")
        # in band the printed form divides by |target - error|
        assert reward(rc, 1.02) == pytest.approx(1.0 / 0.98)
        assert reward(rc, 1.3) == pytest.approx(-0.7)

    @given(dd=st.floats(1e-5, 0.0989))
    @settings(max_examples=50)
    def test_inverse_error_peaks_at_target(self, reward_config, dd):
        """Positive branch strictly decreases as the error grows."""
        rc = reward_config
        assert reward(rc, 1.0 + dd) > reward(rc, 1.0 + dd + 1e-4) > 0

    @given(dd=st.floats(1e-5, 0.0989))
    @settings(max_examples=50)
    def test_literal_variant_grows_toward_band_edge(self, dd):
        """The printed form pays more the *worse* the depth gets, right up
        to the band edge; kept as a selectable variant, not the default."""
        rc = RewardConfig(variant="paper")
        assert 0 < reward(rc, 1.0 + dd) < reward(rc, 1.0 + dd + 1e-3)

    @given(depth=st.floats(0.0, 3.0))
    @settings(max_examples=50)
    def test_sign_tracks_band_membership(self, reward_config, depth):
        rc = reward_config
        dd = abs(depth - rc.delta_opt)
        if dd < rc.tol_r:
            assert reward(rc, depth) > 0
        else:
            assert reward(rc, depth) <= 0


class TestStep:
    def test_invalid_action_rejected(self, cache10, reward_config):
        with pytest.raises(ValueError, match="invalid"):
            step(cache10, 0, 0, reward_config)

    def test_outcome_matches_cache_and_reward(self, cache10, reward_config):
        s = 65
        k = ACTIONS.index((1, 0))
        out = step(cache10, s, k, reward_config)
        assert out.next_state == 75
        assert out.reward == reward(reward_config, cache10.depth(75).depth_mm)

    def test_terminal_at_target_depth(self, cache10, reward_config):
        # (7,5) is within tol_delta of the 1 mm target on the default grid
        out = step(cache10, 65, ACTIONS.index((1, 0)), reward_config)
        assert out.terminal

    def test_terminal_monotone_in_tolerance(self, cache10, reward_config):
        s, k = 44, ACTIONS.index((1, 1))
        for depth_tol in (1e-6, 1e-3, 0.05, 0.5):
            rc = RewardConfig(tol_delta=depth_tol, tol_r=max(0.1, depth_tol))
            out = step(cache10, s, k, rc)
            if out.terminal:
                wider = RewardConfig(tol_delta=0.6, tol_r=0.6)
                assert step(cache10, s, k, wider).terminal

    def test_unconverged_depth_aborts(self, cache10, monkeypatch):
        """A grid with an unsteady state gets no cache, so no step ever
        lands on that state: the failure comes when the cache is built."""
        depths = [cache10.depth(s) for s in range(100)]
        depths[33] = DepthResult(1.423988342285156, False, 10.125)  # 919 W, 200 mm/min
        monkeypatch.setattr(environment, "batch_depths", lambda env, queries: depths)
        with pytest.raises(EnvironmentEvalError,
                           match=r"^1 of 100 states have no usable depth: "
                                 r"depth not steady by t=10\.125 s at state 33 "):
            DepthCache(cache10.env, cache10.grid)

    def test_depth_beyond_bracket_aborts(self, material):
        with pytest.raises(EnvironmentEvalError,
                           match=r"deeper than the 5 mm depth bracket at state 2 "
                                 r"\(P=20000\.0 W, v=400\.0 mm/min\)"):
            DepthCache(material, EDGE_GRID)


class TestDepthCache:
    def test_memoized_and_bit_identical(self, cache10):
        assert cache10.depth(73) is cache10.depth(73)

    @pytest.mark.parametrize("s", [-1, 100])
    def test_out_of_range_state_rejected(self, cache10, s):
        with pytest.raises(ValueError, match="out of range"):
            cache10.depth(s)

    def test_warm_fills_grid_and_matches_lazy(self, cache10, material, grid):
        assert len(cache10) == grid.n_states
        p, v = state_params(grid, 75)
        assert cache10.depth(75) == melt_pool_depth(material, p, v * MMPM_TO_MPS)

    def test_warm_is_idempotent(self, cache10, grid):
        before = [cache10.depth(s) for s in range(grid.n_states)]
        cache10.warm()
        assert [cache10.depth(s) for s in range(grid.n_states)] == before

    def test_cold_20x20_warm_up_profile_evaluations(self, material, monkeypatch):
        """Every isotherm node is decided from one scan-line product per
        search round, so a cold 20x20 warm-up evaluates the temperature
        profile only at the quadrature checkpoints, 2 per basis built:
        296, against 4,493 when each power galloped from a predicted
        depth and 15,375 when every bisection started from the full
        bracket."""
        calls = []
        profile_eval = thermal._profile_eval

        def counting(*args):
            calls.append(None)
            return profile_eval(*args)

        monkeypatch.setattr(thermal, "_profile_eval", counting)
        DepthCache(material, StateGrid(n=20, p_min=450.0, p_max=1150.0,
                                       v_min=330.0, v_max=860.0))
        assert len(calls) <= 300

    def test_cold_20x20_warm_up_rounds_and_fallbacks(self, material, monkeypatch):
        """The same warm-up takes 187 search rounds over 4,755 nodes (a
        Newton step with the wrong sign took thousands), and no node
        falls inside the rounding band, so none is decided by a profile
        evaluation outside the checkpoints."""
        counts = dict.fromkeys(("rounds", "bases", "evals"), 0)

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(thermal, "_unit_rise", counting("rounds", thermal._unit_rise))
        monkeypatch.setattr(thermal, "_profile_basis", counting("bases", thermal._profile_basis))
        monkeypatch.setattr(thermal, "_profile_eval", counting("evals", thermal._profile_eval))
        DepthCache(material, StateGrid(n=20, p_min=450.0, p_max=1150.0,
                                       v_min=330.0, v_max=860.0))
        assert counts["rounds"] <= 200
        assert counts["evals"] - 2 * counts["bases"] == 0


class TestScores:
    def test_match_reward_and_tolerance(self, cache10, reward_config):
        rc = reward_config
        for s, score in enumerate(cache10.scores(rc)):
            d = cache10.depth(s).depth_mm
            assert score == (reward(rc, d), abs(d - rc.delta_opt) <= rc.tol_delta)

    def test_built_once_per_reward_config(self, cache10):
        table = cache10.scores(RewardConfig())
        other = cache10.scores(RewardConfig(variant="paper"))
        assert other is not table
        assert cache10.scores(RewardConfig()) is table



class TestNextState:
    @given(n=st.integers(2, 30))
    @settings(deadline=None)
    def test_matches_king_move_arithmetic(self, n):
        """next_state[s, a] is (i+di)*n + (j+dj) on the grid, -1 off it,
        and the moves rows the training loop reads hold the same."""
        with pytest.MonkeyPatch.context() as mp:  # the tables, not the depths
            mp.setattr(DepthCache, "warm", lambda self: None)
            cache = DepthCache(MaterialEnv(), StateGrid(n=n))
        for s in range(n * n):
            i, j = divmod(s, n)
            for a, (di, dj) in enumerate(ACTIONS):
                inside = 0 <= i + di < n and 0 <= j + dj < n
                want = (i + di) * n + (j + dj) if inside else -1
                assert cache.next_state[s, a] == want
            assert cache.moves[s] == cache.next_state[s].tolist()
            assert cache.valid[s] == valid_actions(cache.grid, s)
        assert cache.next_state.dtype == np.intp


class TestDepthMapCsv:
    def test_schema_and_values(self, tmp_path, grid, cache10):
        path = tmp_path / "depth_map.csv"
        write_depth_map_csv(path, cache10)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == grid.n_states
        assert list(rows[0]) == ["state_id", "i", "j", "power_w",
                                 "speed_mmpm", "depth_mm"]
        row = next(r for r in rows if r["state_id"] == "75")
        assert float(row["power_w"]) == pytest.approx(888.8889, abs=1e-3)
        assert float(row["depth_mm"]) == pytest.approx(
            cache10.depth(75).depth_mm, abs=5e-5)
