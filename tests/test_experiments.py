"""Sweep harness: seeding scheme and the replicated runner with its
convergence curves."""

import numpy as np
import pytest

from meltpool_rl.config import DEFAULT_SWEEP_VALUES, SweepSpec
from meltpool_rl.environment import StateGrid
from meltpool_rl.experiments import replicate_seed, run_sweep
from meltpool_rl.qlearn import Hyperparams


class TestSweepSpec:
    def test_default_value_lists(self):
        assert SweepSpec("n").values == (5, 10, 15, 20)
        assert SweepSpec("epsilon").values == (0.25, 0.5, 0.75, 1.0)
        assert SweepSpec("episodes").values == (10, 25, 50, 75, 100, 200)
        for param, values in DEFAULT_SWEEP_VALUES.items():
            assert SweepSpec(param, values=None).values == values

    @pytest.mark.parametrize("values", [(), []])
    def test_empty_values_rejected(self, values):
        """Only None takes the standard list; an empty list is an error."""
        with pytest.raises(ValueError, match=r"^sweep\.values must be a non-empty list"):
            SweepSpec("epsilon", values=values)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="sweep.param"):
            SweepSpec("beta")

    @pytest.mark.parametrize("param, values", [
        ("n", (5, 4.6)), ("episodes", (10.5,)), ("n", (float("nan"),)),
        ("episodes", ("10",)),
    ])
    def test_non_integral_values_rejected(self, param, values):
        with pytest.raises(ValueError, match=r"sweep\.values"):
            SweepSpec(param, values=values)

    def test_integral_floats_accepted(self):
        assert SweepSpec("n", values=(5.0, 10)).values == (5.0, 10)

    def test_values_are_stored_typed(self):
        """Each value is stored as the field it sets, which names its
        output directory: n 3.0 and episodes 10.0 are ints, epsilon, alpha
        and gamma 1 are 1.0."""
        for param, values, stored in [("n", (3.0, 10), ["3", "10"]),
                                      ("episodes", (10.0, 25), ["10", "25"]),
                                      ("epsilon", [1, 0.5], ["1.0", "0.5"]),
                                      ("alpha", [1, 0.5], ["1.0", "0.5"]),
                                      ("gamma", [1, 0], ["1.0", "0.0"])]:
            assert [repr(v) for v in SweepSpec(param, values=values).values] == stored

    @pytest.mark.parametrize("param, values", [
        ("epsilon", [0.5, 0.5]), ("alpha", [1, 1.0]), ("n", [3, 5, 3.0]),
    ])
    def test_repeated_values_rejected(self, param, values):
        """Repeated values would share one output directory."""
        with pytest.raises(ValueError, match=r"sweep\.values: .* is listed twice"):
            SweepSpec(param, values=values)

    @pytest.mark.parametrize("param, values", [
        ("epsilon", 0.5), ("alpha", "0.5"), ("epsilon", [1.5]), ("alpha", ["abc"]),
        ("alpha", [0]), ("gamma", [float("nan")]), ("epsilon", [True]),
        ("n", [1]), ("episodes", [0]),
    ])
    def test_invalid_values_rejected(self, param, values):
        """Each value must be a valid StateGrid or Hyperparams field, so a
        bad one fails here and not partway through run_sweep."""
        with pytest.raises(ValueError, match=r"sweep\.values"):
            SweepSpec(param, values=values)

    @pytest.mark.parametrize("param, value, key", [
        ("n", 10**400, "grid.n"), ("episodes", -(10**400), "qlearn.episodes"),
    ])
    def test_huge_value_named_once_and_briefly(self, param, value, key):
        with pytest.raises(ValueError) as info:
            SweepSpec(param, values=[value])
        message = str(info.value)
        assert "sweep.values" in message and key in message
        assert "an integer of 401 digits" in message and "0000" not in message
        assert len(message) < 200

    def test_long_string_value_named_briefly(self):
        with pytest.raises(ValueError, match=r"got a str of 1002 characters$"):
            SweepSpec("alpha", values=["x" * 1000])

    def test_values_list_accepted(self):
        assert SweepSpec("alpha", values=[0.5, 1]).values == (0.5, 1)

    def test_replicates_validated(self):
        with pytest.raises(ValueError):
            SweepSpec("n", replicates=0)

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ValueError, match=r"sweep\.base_seed must be >= 0, got -3"):
            SweepSpec("n", base_seed=-3)

    def test_counts_checked_and_stored_as_ints(self):
        with pytest.raises(ValueError, match=r"^sweep\.replicates: expected a number"):
            SweepSpec("n", replicates="x")
        with pytest.raises(ValueError, match=r"^sweep\.base_seed: expected an integer"):
            SweepSpec("n", base_seed=1.5)
        spec = SweepSpec("n", replicates=3.0, base_seed=2.0)
        assert [repr(spec.replicates), repr(spec.base_seed)] == ["3", "2"]


class TestReplicateSeed:
    def test_deterministic(self):
        assert replicate_seed(0, 1, 2) == replicate_seed(0, 1, 2)

    def test_pairwise_distinct(self):
        seeds = {replicate_seed(b, v, r)
                 for b in (0, 1) for v in range(4) for r in range(10)}
        assert len(seeds) == 2 * 4 * 10


@pytest.fixture(scope="module")
def small_sweep(material, grid, reward_config):
    spec = SweepSpec("episodes", values=(5, 10), replicates=2)
    return spec, run_sweep(spec, material, grid, reward_config, Hyperparams())


class TestRunSweep:

    def test_one_result_per_value(self, small_sweep):
        spec, results = small_sweep
        assert [vr.value for vr in results] == [5, 10]
        for vr, episodes in zip(results, (5, 10)):
            assert len(vr.runs) == 2
            assert len(vr.mean) == len(vr.std) == episodes
            assert all(len(r.traces) == episodes for r in vr.runs)

    def test_curve_is_mean_and_std_over_replicates(self, small_sweep):
        """Each episode's mean and population std of the replicates'
        total rewards, exactly."""
        _, results = small_sweep
        for vr in results:
            rewards = [[tr.total_reward for tr in r.traces] for r in vr.runs]
            assert vr.mean.tolist() == np.mean(rewards, axis=0).tolist()
            assert vr.std.tolist() == np.std(rewards, axis=0).tolist()

    def test_every_replicate_gets_a_verdict(self, small_sweep):
        _, results = small_sweep
        for vr in results:
            assert len(vr.ranks) == len(vr.runs)
            assert all(rank >= 1 for rank in vr.ranks)

    def test_reproducible_from_spec(self, small_sweep, material, grid,
                                    reward_config):
        spec, results = small_sweep
        again = run_sweep(spec, material, grid, reward_config, Hyperparams())
        for vr, vr2 in zip(results, again):
            assert vr.seeds == vr2.seeds
            assert np.array_equal(vr.mean, vr2.mean)
            for r, r2 in zip(vr.runs, vr2.runs):
                assert np.array_equal(r.qtable, r2.qtable)

    def test_n_sweep_resizes_grid(self, material, grid, reward_config):
        spec = SweepSpec("n", values=(5,), replicates=1)
        results = run_sweep(spec, material, grid, reward_config,
                            Hyperparams(episodes=3))
        assert results[0].runs[0].qtable.shape == (25, 8)
        assert np.array_equal(results[0].std, np.zeros(3))

    def test_midsize_episode_budget_can_hit_target(self, material, grid,
                                                   reward_config):
        """Some replicate trained for 50 episodes lands within 0.05 mm of
        the 1 mm target."""
        spec = SweepSpec("episodes", values=(50,), replicates=5)
        results = run_sweep(spec, material, grid, reward_config, Hyperparams())
        gaps = [abs(r.best_depth - 1.0) for r in results[0].runs]
        assert min(gaps) <= 0.05
