"""Brute-force ranking and validation of trained runs against it."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meltpool_rl.environment import (DepthCache, EnvironmentEvalError, RewardConfig,
                                     StateGrid, reward, state_params)
from meltpool_rl.oracle import (
    brute_force_rank,
    validate_run,
    write_pv_map_csv,
)
from meltpool_rl.qlearn import Hyperparams, train
from meltpool_rl.thermal import MMPM_TO_MPS, batch_depths

from conftest import EDGE_GRID


@pytest.fixture(scope="module")
def report10(cache10, reward_config):
    return brute_force_rank(cache10, reward_config)


class TestBruteForceRank:
    def test_covers_every_state_with_unique_ranks(self, report10, grid):
        assert len(report10.rows) == grid.n_states
        assert sorted(r.rank for r in report10.rows) == \
            list(range(1, grid.n_states + 1))

    def test_ranking_is_sorted_by_depth_error(self, report10):
        by_rank = sorted(report10.rows, key=lambda r: r.rank)
        errs = [r.abs_err for r in by_rank]
        assert errs == sorted(errs)

    def test_best_state_minimizes_error(self, report10):
        best = report10.best
        assert best.abs_err == min(r.abs_err for r in report10.rows)
        assert report10.rank_of(best.state_id) == 1

    def test_band_membership(self, report10, reward_config):
        for r in report10.rows:
            assert r.in_band == (r.abs_err < reward_config.tol_r_mm)
        assert 0 < sum(r.in_band for r in report10.rows) < len(report10.rows)

    def test_band_is_where_reward_pays(self, cache10):
        """in_band is reward's positive branch: state 75 lies exactly
        tol_r_mm from the target, so it is out of the band and penalized."""
        rc = RewardConfig(tol_r_mm=0.00231170654296875, tol_delta_mm=0.001)
        report = brute_force_rank(cache10, rc)
        assert report.rows[75].abs_err == rc.tol_r_mm
        for r in report.rows:
            assert r.in_band == (reward(rc, r.depth) > 0)

    @pytest.mark.parametrize("s", [-1, 100])
    def test_rank_of_out_of_range_state_rejected(self, report10, s):
        with pytest.raises(ValueError, match="out of range"):
            report10.rank_of(s)

    def test_depths_match_cache(self, report10, cache10):
        for r in report10.rows[:5]:
            assert r.depth == cache10.depth(r.state_id).depth_mm

    def test_exact_ties_rank_in_flat_id_order(self, cache_for, reward_config):
        """States whose abs_err is equal take consecutive ranks in
        ascending flat-id order.  The default 20x20 grid has eight such
        pairs; states 244 and 289 share a depth and take ranks 1 and 2."""
        rows = brute_force_rank(cache_for(20), reward_config).rows
        groups: dict[float, list] = {}
        for r in rows:  # in flat-id order
            groups.setdefault(r.abs_err, []).append(r.rank)
        ties = [ranks for ranks in groups.values() if len(ranks) > 1]
        assert len(ties) == 8
        for ranks in ties:
            assert ranks == list(range(ranks[0], ranks[0] + len(ranks)))
        assert rows[244].depth == rows[289].depth == 0.9982681274414065
        assert (rows[244].rank, rows[289].rank) == (1, 2)

    def test_deterministic(self, cache10, reward_config):
        a = brute_force_rank(cache10, reward_config)
        b = brute_force_rank(cache10, reward_config)
        assert a.rows == b.rows

    def test_depth_beyond_bracket_raises(self, material):
        """The ranking needs every state's depth, so a grid with a state
        past the bracket is refused before there is a cache to rank."""
        with pytest.raises(EnvironmentEvalError, match="5 mm depth bracket at state 2"):
            DepthCache(material, EDGE_GRID)

    @given(powers=st.lists(st.floats(100.0, 20000.0), min_size=2, max_size=2,
                           unique=True).map(sorted),
           speeds=st.lists(st.floats(100.0, 1200.0), min_size=2, max_size=2,
                           unique=True).map(sorted))
    @settings(max_examples=8, deadline=None)
    def test_edge_states_are_flagged(self, material, powers, speeds):
        """A state at the 5 mm bracket edge is unconverged at 5 mm, and
        building the grid's cache counts the unusable states, names the
        first one, and names the bracket cause exactly when some state is
        at the edge; a grid without one is cached and ranked."""
        grid = StateGrid(2, *powers, *speeds)
        results = batch_depths(material, [(p, v * MMPM_TO_MPS) for p, v in
                                          (state_params(grid, s) for s in range(4))])
        for res in results:
            if res.at_edge:
                assert not res.converged
                assert res.depth_mm == pytest.approx(5.0, abs=1e-4)
        unusable = [s for s, res in enumerate(results) if not res.converged]
        if not unusable:
            brute_force_rank(DepthCache(material, grid), RewardConfig())
            return
        with pytest.raises(EnvironmentEvalError, match=f"at state {unusable[0]} ") as exc:
            DepthCache(material, grid)
        assert f"{len(unusable)} of 4 states" in str(exc.value)
        assert ("5 mm depth bracket" in str(exc.value)) == any(r.at_edge for r in results)

    def test_every_cause_is_named_bracket_edge_first(self, material):
        """State 0 (919 W, 200 mm/min) is not steady and state 2 (20000 W,
        200 mm/min) is at the bracket edge; neither cause hides the other."""
        with pytest.raises(EnvironmentEvalError) as exc:
            DepthCache(material, StateGrid(2, 919.0, 20000.0, 200.0, 700.0))
        assert str(exc.value) == (
            "2 of 4 states have no usable depth: melt pool deeper than "
            "the 5 mm depth bracket at state 2 (P=20000.0 W, v=200.0 mm/min); "
            "depth not steady by t=10.125 s at state 0 (P=919.0 W, v=200.0 mm/min)")


class TestValidateRun:
    def test_returns_the_best_state_rank(self, report10, cache10, reward_config):
        result = train(cache10, reward_config, Hyperparams(seed=0))
        assert validate_run(report10, result) == report10.rows[result.best_state].rank

    def test_grid_mismatch_rejected(self, report10, cache_for, reward_config):
        small = train(cache_for(5), reward_config,
                      Hyperparams(episodes=5, seed=0))
        with pytest.raises(ValueError, match="grid mismatch"):
            validate_run(report10, small)

    def test_report_of_another_grid_with_as_many_states_rejected(
            self, material, cache_for, reward_config):
        """Two 4x4 grids have as many states; the report of the default
        bounds holds other (P, v) than a run over 600-1100 W, whose own
        report ranks its best state 1 (the other's row there ranks 7)."""
        shifted = DepthCache(material, StateGrid(4, 600.0, 1100.0))
        result = train(shifted, reward_config, Hyperparams(episodes=20, seed=0))
        assert validate_run(brute_force_rank(shifted, reward_config), result) == 1
        with pytest.raises(ValueError, match=f"grid mismatch .* at state {result.best_state}$"):
            validate_run(brute_force_rank(cache_for(4), reward_config), result)


class TestPvMapCsv:
    def test_schema_and_rank_column(self, tmp_path, report10, grid):
        path = tmp_path / "pv_map.csv"
        write_pv_map_csv(path, report10)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == grid.n_states
        assert list(rows[0]) == ["state_id", "i", "j", "power_w", "speed_mmpm",
                                 "depth_mm", "abs_err_mm", "rank", "in_band"]
        assert sorted(int(r["rank"]) for r in rows) == \
            list(range(1, grid.n_states + 1))
