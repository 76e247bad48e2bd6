"""Command-line interface: exit codes, output files, and reproducibility.

All invocations go through main(argv) in-process; a small 4x4 grid keeps
the thermal warm-up cheap.
"""

import csv
import json

import pytest

from meltpool_rl import cli
from meltpool_rl.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main

SMALL = """\
grid:
  n: 4
qlearn:
  episodes: 10
  n_epochs: 10
  seed: 3
"""

#: a 2x2 grid whose (20000 W, 400 mm/min) state melts past the 5 mm
#: depth bracket
EDGE = "grid: {n: 2, p_min_w: 1000.0, p_max_w: 20000.0}\n"


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(SMALL)
    return str(path)


class TestDepth:
    def test_known_point(self, capsys):
        assert main(["depth", "--power", "1000", "--speed", "400"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "converged=True" in out
        depth = float(out.split("depth_mm=")[1].split()[0])
        assert abs(depth - 1.26) < 0.1

    def test_zero_power(self, capsys):
        assert main(["depth", "--power", "0", "--speed", "500"]) == EXIT_OK
        assert "depth_mm=0.0000" in capsys.readouterr().out

    def test_negative_power_fails_validation(self, capsys):
        assert main(["depth", "--power", "-5", "--speed", "500"]) == \
            EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --power must be finite and >= 0\n"

    def test_beyond_depth_bracket_is_a_runtime_failure(self, capsys):
        assert main(["depth", "--power", "5000", "--speed", "100"]) == \
            EXIT_RUNTIME
        assert "converged=False" in capsys.readouterr().out

    def test_huge_speed_melts_nothing_without_warnings(self, capsys):
        """The kernel's offset squared overflows to inf at this speed;
        exp(-inf) = 0 is its exact limit.  The test configuration turns a
        RuntimeWarning from meltpool_rl into an error."""
        assert main(["depth", "--power", "500", "--speed", "1e308"]) == EXIT_OK
        assert "depth_mm=0.0000" in capsys.readouterr().out

    def test_zero_speed_fails_validation(self, capsys):
        assert main(["depth", "--power", "500", "--speed", "0"]) == \
            EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --speed must be finite and > 0\n"

    @pytest.mark.parametrize("flag, value", [("--speed", "inf"), ("--speed", "nan"),
                                             ("--power", "inf"), ("--power", "nan")])
    def test_non_finite_value_fails_validation(self, capsys, flag, value):
        argv = {"--power": "800", "--speed": "500", flag: value}
        assert main(["depth", *(x for kv in argv.items() for x in kv)]) == \
            EXIT_VALIDATION
        assert f"error: {flag} must be finite" in capsys.readouterr().err


class TestConfigHandling:
    def test_bad_config_path(self, capsys):
        rc = main(["--config", "/nonexistent.yaml", "depth",
                   "--power", "500", "--speed", "500"])
        assert rc == EXIT_VALIDATION
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_config_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("qlearn:\n  alpha: 2.0\n")
        rc = main(["--config", str(bad), "depth",
                   "--power", "500", "--speed", "500"])
        assert rc == EXIT_VALIDATION
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, key", [("p_min_w: -1.0", "grid.p_min_w"),
                                           ("v_min_mmpm: 0.0", "grid.v_min_mmpm")])
    def test_grid_lower_bounds_exit_before_output(self, tmp_path, capsys, grid, key):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(f"grid: {{{grid}}}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "map", "--out", str(out)]) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_writes_all_outputs(self, tmp_path, small_config, capsys):
        out = tmp_path / "run"
        rc = main(["--config", small_config, "train", "--out", str(out)])
        assert rc == EXIT_OK
        for name in ("config_snapshot.json", "qtable.csv", "qtable.json",
                     "convergence.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"best_power_w", "best_speed_mmpm",
                                "best_depth_mm", "oracle_rank", "seed",
                                "generator"}
        assert summary["seed"] == 3
        assert "best P=" in capsys.readouterr().out

    def test_seed_override_recorded(self, tmp_path, small_config):
        out = tmp_path / "run"
        main(["--config", small_config, "train", "--seed", "11",
              "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        snapshot = json.loads((out / "config_snapshot.json").read_text())
        assert summary["seed"] == 11
        assert snapshot["qlearn"]["seed"] == 11

    def test_reruns_are_byte_identical(self, tmp_path, small_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--config", small_config, "train", "--out", str(out1)])
        main(["--config", small_config, "train", "--out", str(out2)])
        for name in ("qtable.csv", "convergence.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestNegativeSeeds:
    """A negative seed fails validation, naming its key, before any output
    directory exists."""

    @pytest.mark.parametrize("config, argv, key", [
        ("qlearn:\n  seed: -1\n", ["train"], "qlearn.seed"),
        ("", ["train", "--seed", "-5"], "qlearn.seed"),
        ("sweep:\n  base_seed: -3\n", ["sweep", "--param", "epsilon"],
         "sweep.base_seed"),
    ])
    def test_exits_before_output(self, tmp_path, capsys, config, argv, key):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(config)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), *argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert f"{key} must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestEpisodeBound:
    """More than 2**32 episodes fails validation, naming the key, before
    any output directory exists."""

    @pytest.mark.parametrize("config, argv", [
        (f"qlearn:\n  episodes: {'9' * 30}\n", ["train"]),
        (f"sweep:\n  param: episodes\n  values: [10, {'9' * 30}]\n",
         ["sweep", "--param", "episodes"]),
    ])
    def test_exits_before_output(self, tmp_path, capsys, config, argv):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(config)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), *argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "qlearn.episodes must be in [1, 2**32]" in capsys.readouterr().err
        assert not out.exists()


class TestGridBound:
    """A grid.n above 2**16 fails validation, naming the key, before any
    output directory exists; nothing here builds a grid that large."""

    @pytest.mark.parametrize("config, argv", [
        ("grid:\n  n: 65537\n", ["map"]),
        (f"grid:\n  n: {'9' * 30}\n", ["train"]),
        (f"sweep:\n  param: n\n  values: [5, {10**400}]\n", ["sweep", "--param", "n"]),
    ])
    def test_exits_before_output(self, tmp_path, capsys, config, argv):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(config)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), *argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "grid.n must be <= 2**16" in capsys.readouterr().err
        assert not out.exists()


class TestOutputOnlyAfterResults:
    """A run that fails leaves no --out: on the EDGE grid one state melts
    past the 5 mm depth bracket."""

    @pytest.mark.parametrize("argv", [["train"], ["map"], ["sweep", "--param", "epsilon"]])
    def test_runtime_failure_leaves_no_output(self, tmp_path, capsys, argv):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(EDGE)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), *argv, "--out", str(out)]) == EXIT_RUNTIME
        assert "5 mm depth bracket at state 2" in capsys.readouterr().err
        assert not out.exists()

    def test_unusable_grid_is_never_trained_on(self, tmp_path, capsys, monkeypatch):
        """The grid is refused when its depth cache is built, before
        training starts."""
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("train was called"))
        cfg = tmp_path / "config.yaml"
        cfg.write_text(EDGE)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "train", "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(
            "error: 1 of 4 states have no usable depth: melt pool deeper than "
            "the 5 mm depth bracket at state 2 (P=20000.0 W, v=400.0 mm/min)")
        assert not out.exists()


class TestUsageErrors:
    """argparse's own usage errors are validation errors: exit 1, not
    argparse's 2, which this CLI keeps for runtime failures."""

    @pytest.mark.parametrize("argv", [
        ["depth", "--power", "abc", "--speed", "500"],
        ["train", "--seed", "x", "--out", "out"],
        ["frobnicate"],
        ["map"],
        [],
    ])
    def test_exit_validation(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_VALIDATION
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_exits_ok(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: meltpool-rl")


class TestMap:
    def test_writes_oracle_maps(self, tmp_path, small_config, capsys):
        out = tmp_path / "map"
        rc = main(["--config", small_config, "map", "--out", str(out)])
        assert rc == EXIT_OK
        with open(out / "pv_map.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        with open(out / "depth_map.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 16
        assert "rank-1 state" in capsys.readouterr().out


class TestSweep:
    def test_unknown_parameter_rejected(self, tmp_path, small_config, capsys):
        rc = main(["--config", small_config, "sweep", "--param", "beta",
                   "--out", str(tmp_path / "s")])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == ("error: unknown sweep parameter 'beta'; "
                                           "valid: n, epsilon, gamma, alpha, episodes\n")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("values", ["0.5", "[1.5]", "[0.5, 0.5]"])
    def test_invalid_sweep_values_exit_before_output(self, tmp_path, capsys, values):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(f"sweep:\n  param: epsilon\n  values: {values}\n")
        out = tmp_path / "sweep"
        rc = main(["--config", str(cfg), "sweep", "--param", "epsilon",
                   "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert "sweep.values" in capsys.readouterr().err
        assert not out.exists()

    def test_outputs_name_the_typed_value(self, tmp_path):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(SMALL + "sweep: {param: n, values: [3.0], replicates: 1}\n")
        out = tmp_path / "sweep"
        assert main(["--config", str(cfg), "sweep", "--param", "n",
                     "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["n_3"]
        with open(out / "summary.csv", newline="") as fh:
            assert [row["value"] for row in csv.DictReader(fh)] == ["3"]
        assert json.loads((out / "n_3" / "config.json").read_text())["value"] == 3

    def test_writes_summary_and_per_value_dirs(self, tmp_path):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(SMALL + """\
sweep:
  param: episodes
  values: [3, 5]
  replicates: 2
""")
        out = tmp_path / "sweep"
        rc = main(["--config", str(cfg), "sweep", "--param", "episodes",
                   "--out", str(out)])
        assert rc == EXIT_OK
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 values x 2 replicates
        for value, episodes in (("3", 3), ("5", 5)):
            vdir = out / f"episodes_{value}"
            meta = json.loads((vdir / "config.json").read_text())
            assert meta["band"] == "across-replicate std"
            assert len(meta["seeds"]) == 2
            with open(vdir / "convergence.csv", newline="") as fh:
                assert len(list(csv.DictReader(fh))) == episodes
            assert (vdir / "run_0_qtable.csv").exists()
            assert (vdir / "run_1_convergence.csv").exists()
