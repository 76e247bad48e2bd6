"""Command-line interface: exit codes, output files, and reproducibility.

All invocations go through main(argv) in-process; a small 4x4 grid keeps
the thermal warm-up cheap.
"""

import csv
import json
import os
import stat
from dataclasses import replace

import pytest

from meltpool_rl import cli
from meltpool_rl.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from meltpool_rl.config import SweepSpec, load_config

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

#: a config whose sweep section names epsilon, for `sweep --param gamma`
#: on a 3x3 grid
GAMMA_SWEEP = ("grid: {n: 3}\nqlearn: {episodes: 2}\n"
               "sweep: {param: epsilon, values: [0.5], replicates: 1}\n")


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
                                             ("--speed", "-500"),
                                             ("--power", "inf"), ("--power", "nan")])
    def test_non_finite_value_fails_validation(self, capsys, flag, value):
        """A non-finite value of either flag, or a negative speed, exits 1
        naming its flag."""
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
                                           ("v_min_mmpm: 0.0", "grid.v_min_mmpm"),
                                           ("v_min_mmpm: 1.0e-320", "grid.v_min_mmpm")])
    def test_grid_lower_bounds_exit_before_output(self, tmp_path, capsys, grid, key):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(f"grid: {{{grid}}}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "map", "--out", str(out)]) == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, key", [("n: 3, p_max_w: 1.7e308", "grid.p_max_w"),
                                           ("n: 3, v_max_mmpm: 1.7e308", "grid.v_max_mmpm")])
    def test_grid_spans_that_overflow_exit_before_output(self, tmp_path, capsys, grid, key):
        """(n - 1) times the power or speed span must be finite, as
        state_params computes it for every state."""
        cfg = tmp_path / "config.yaml"
        cfg.write_text(f"grid: {{{grid}}}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "map", "--out", str(out)]) == EXIT_VALIDATION
        assert f"{key} must keep (n - 1) * ({key} - " in capsys.readouterr().err
        assert not out.exists()

    def test_largest_finite_span_passes_the_boundary(self, tmp_path, capsys):
        """With n = 2 the span itself is finite, so the grid is built and
        its 1.7e308 W states are refused at the 5 mm depth bracket."""
        cfg = tmp_path / "config.yaml"
        cfg.write_text("grid: {n: 2, p_max_w: 1.7e308}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "map", "--out", str(out)]) == EXIT_RUNTIME
        assert "5 mm depth bracket at state 2" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("text, command", [
        *((f"grid: {value}\n", ["map"]) for value in ("0", "[]", "false", "''")),
        *((f"{value}\n", ["map"]) for value in ("0", "[]", "false", "''")),
        ("grid: {n: 5}\ngrid: {p_min_w: 600.0}\n", ["map"]),
        ("? [1, 2]\n: x\n", ["map"]),
        ("grid: {n: 3}\nqlearn: {episodes: 2}\n"
         "sweep: {param: epsilon, values: [], replicates: 1}\n", ["sweep", "--param", "epsilon"]),
    ])
    def test_rejected_config_exits_before_output(self, tmp_path, capsys, text, command):
        """A false value that is not null, a key given twice and a complex
        key are validation errors, not defaults."""
        cfg = tmp_path / "config.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), *command, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: ")
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


def _tree(root):
    """Every file under root by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestOneOutputDirectory:
    """main stages each run's --out and renames it into place, so --out
    holds one whole run or is absent."""

    @pytest.mark.parametrize("argv", [["train"], ["map"], ["sweep", "--param", "gamma"]])
    def test_used_out_is_refused_before_any_thermal_work(self, tmp_path, capsys,
                                                          monkeypatch, argv):
        """A rerun into a used --out exits 1 naming --out before the depth
        cache is built, and the earlier run's files stay as they were."""
        cfg = tmp_path / "config.yaml"
        cfg.write_text(GAMMA_SWEEP)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), *argv, "--out", str(out)]) == EXIT_OK
        before = _tree(out)

        def fail(*args):
            pytest.fail("thermal work started")
        monkeypatch.setattr(cli, "DepthCache", fail)
        monkeypatch.setattr(cli, "run_sweep", fail)
        capsys.readouterr()
        assert main(["--config", str(cfg), *argv, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            f"error: --out {out} exists and is not an empty directory\n"
        assert _tree(out) == before

    @pytest.mark.parametrize("argv, writer", [
        (["train"], "write_convergence_csv"),
        (["map"], "write_depth_map_csv"),
        (["sweep", "--param", "gamma"], "write_convergence_csv"),
    ])
    def test_failed_writer_leaves_no_out(self, tmp_path, capsys, monkeypatch, argv, writer):
        """A writer that fails after others have written exits 2, and
        leaves neither --out nor a staged directory beside it."""
        cfg = tmp_path / "config.yaml"
        cfg.write_text(GAMMA_SWEEP)
        out = tmp_path / "out"
        written = []

        def fail(path, *args):
            written.extend(path.parent.iterdir())
            raise OSError("disk full")
        monkeypatch.setattr(cli, writer, fail)
        assert main(["--config", str(cfg), *argv, "--out", str(out)]) == EXIT_RUNTIME
        assert "disk full" in capsys.readouterr().err
        assert written
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    @pytest.mark.parametrize("argv", [["train"], ["map"], ["sweep", "--param", "gamma"]])
    def test_failed_rename_prints_nothing_and_leaves_no_out(self, tmp_path, capsys,
                                                            monkeypatch, argv):
        """The report reaches stdout only once --out is in place: a rename
        that fails after every file is written exits 2 with nothing on
        stdout, and leaves neither --out nor a staged directory."""
        cfg = tmp_path / "config.yaml"
        cfg.write_text(GAMMA_SWEEP)
        out = tmp_path / "out"

        def fail(*args):
            raise OSError("rename refused")
        monkeypatch.setattr(cli.os, "rename", fail)
        assert main(["--config", str(cfg), *argv, "--out", str(out)]) == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rename refused\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    @pytest.mark.parametrize("argv", [["train"], ["map"], ["sweep", "--param", "gamma"]])
    def test_symlinked_out_is_refused_before_any_thermal_work(self, tmp_path, capsys,
                                                              monkeypatch, argv):
        """An --out that is a symbolic link, here to an empty directory,
        exits 1 naming it before the depth cache is built; the link and its
        target stay as they were."""
        cfg = tmp_path / "config.yaml"
        cfg.write_text(GAMMA_SWEEP)
        (tmp_path / "real").mkdir()
        link = tmp_path / "link"
        link.symlink_to("real")

        def fail(*args):
            pytest.fail("thermal work started")
        monkeypatch.setattr(cli, "DepthCache", fail)
        monkeypatch.setattr(cli, "run_sweep", fail)
        assert main(["--config", str(cfg), *argv, "--out", str(link)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: --out {link} is a symbolic link\n"
        assert os.readlink(link) == "real"
        assert not any((tmp_path / "real").iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "link", "real"]

    def test_empty_out_is_accepted(self, tmp_path):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(GAMMA_SWEEP)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", str(cfg), "map", "--out", str(out)]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == \
            ["config_snapshot.json", "depth_map.csv", "pv_map.csv"]

    def test_file_out_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(GAMMA_SWEEP)
        out = tmp_path / "out"
        out.write_text("kept\n")
        assert main(["--config", str(cfg), "map", "--out", str(out)]) == EXIT_VALIDATION
        assert "--out" in capsys.readouterr().err
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("name", [".", ".."])
    def test_dot_out_is_refused(self, tmp_path, capsys, monkeypatch, name):
        """An --out of . or .. has no name of its own to rename the staged
        directory onto, even when it is an empty directory."""
        cfg = tmp_path / "config.yaml"
        cfg.write_text(GAMMA_SWEEP)
        (tmp_path / "empty").mkdir()
        monkeypatch.chdir(tmp_path / "empty")
        assert main(["--config", str(cfg), "map", "--out", name]) == EXIT_VALIDATION
        assert f"--out {name} must name a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "empty"]
        assert not any((tmp_path / "empty").iterdir())

    def test_out_mode_is_that_of_a_plain_directory(self, tmp_path):
        """The renamed directory has the mode os.mkdir gives under the
        umask, not mkdtemp's 0700."""
        cfg = tmp_path / "config.yaml"
        cfg.write_text(GAMMA_SWEEP)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "map", "--out", str(out)]) == EXIT_OK
        os.mkdir(tmp_path / "plain")
        assert stat.S_IMODE(out.stat().st_mode) == \
            stat.S_IMODE((tmp_path / "plain").stat().st_mode)


class TestNegativeSeeds:
    """A negative seed fails validation, naming its key, before any output
    directory exists."""

    @pytest.mark.parametrize("config, argv, key", [
        ("qlearn:\n  seed: -1\n", ["train"], "qlearn.seed"),
        ("", ["train", "--seed", "-5"], "qlearn.seed"),
        ("sweep:\n  base_seed: -3\n", ["sweep", "--param", "epsilon"],
         "sweep.base_seed"),
        ("sweep:\n  base_seed: -3\n", ["train"], "sweep.base_seed"),
        ("sweep:\n  base_seed: -3\n", ["map"], "sweep.base_seed"),
    ])
    def test_exits_before_output(self, tmp_path, capsys, config, argv, key):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(config)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), *argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert f"{key} must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestWholeFileChecked:
    """Every command checks the whole file at load, sections it does not
    read included, and fails naming the key before any output directory
    exists."""

    @pytest.mark.parametrize("config, argv, message", [
        ("gird: {n: 5}\n", ["map"], "gird: unknown key"),
        ("gird: {n: 5}\n", ["train"], "gird: unknown key"),
        ("sweep: {replicates: 0}\n", ["map"], "sweep.replicates must be >= 1"),
        ("sweep: {replicates: 0}\n", ["train"], "sweep.replicates must be >= 1"),
        ("grid: {1: 2, foo: 3}\n", ["map"], "grid.1: unknown key"),
    ])
    def test_exits_before_output(self, tmp_path, capsys, config, argv, message):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(config)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), *argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestUnderflowToZero:
    """A beam parameter or speed that is positive as written but 0 once
    converted to the thermal model's units fails validation under its own
    name, before any output directory exists (grid.v_min_mmpm: see
    TestConfigHandling)."""

    @pytest.mark.parametrize("argv", [["map"], ["train"]])
    def test_beam_parameter_exits_before_output(self, tmp_path, capsys, argv):
        cfg = tmp_path / "config.yaml"
        cfg.write_text("material: {sigma_l_mm: 5.0e-324}\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), *argv, "--out", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == \
            "error: material.sigma_l_mm must be strictly positive\n"
        assert not out.exists()

    def test_depth_speed_is_named_by_its_flag(self, capsys):
        assert main(["depth", "--power", "500", "--speed", "1e-320"]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: --speed must be finite and > 0\n"


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

    def test_huge_bound_names_its_state_in_one_short_line(self, tmp_path, capsys):
        """A state's power and speed are named as a depth query names
        them, so a power near the float limit is not written out in full."""
        cfg = tmp_path / "config.yaml"
        cfg.write_text("grid: {n: 2, p_max_w: 1.7e308}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "map", "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "error: 2 of 4 states have no usable depth: melt pool deeper than "
            "the 5 mm depth bracket at state 2 (P=1.7e+308 W, v=400.0 mm/min)\n")
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
        """argparse checks --param against SWEEPABLE: a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["--config", small_config, "sweep", "--param", "beta",
                  "--out", str(tmp_path / "s")])
        assert exc.value.code == EXIT_VALIDATION
        assert "argument --param: invalid choice: 'beta'" in capsys.readouterr().err
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

    @pytest.mark.parametrize("sweep", [
        "sweep: {param: n, values: [2, 3], replicates: 1}\n",  # the config's own values
        "",  # the standard list, 5 first
    ])
    def test_swept_n_is_checked_on_the_configs_grid_before_any_work(
            self, tmp_path, capsys, monkeypatch, sweep):
        """This grid's speed span is finite only for n = 2, so the sweep
        exits 1 naming the first value that overflows it, before the depth
        cache of any value is built."""
        monkeypatch.setattr(cli, "DepthCache", lambda *args: pytest.fail("thermal work started"))
        cfg = tmp_path / "config.yaml"
        cfg.write_text("grid: {n: 2, v_min_mmpm: 400.0, v_max_mmpm: 1.0e308}\n"
                       "qlearn: {episodes: 5}\n" + sweep)
        out = tmp_path / "sweep"
        assert main(["--config", str(cfg), "sweep", "--param", "n",
                     "--out", str(out)]) == EXIT_VALIDATION
        value = 3 if sweep else 5
        assert capsys.readouterr().err.startswith(
            f"error: sweep.values: {value} is invalid: grid.v_max_mmpm must keep")
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

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


@pytest.fixture()
def gamma_sweep(tmp_path):
    """Output directory of `sweep --param gamma` under GAMMA_SWEEP."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text(GAMMA_SWEEP)
    out = tmp_path / "sweep"
    assert main(["--config", str(cfg), "sweep", "--param", "gamma",
                 "--out", str(out)]) == EXIT_OK
    return out


class TestSnapshot:
    """config_snapshot.json names what ran, and loaded back as a config
    (JSON is YAML) it re-creates the run."""

    def test_sweep_snapshot_names_the_sweep_that_ran(self, gamma_sweep):
        snapshot = json.loads((gamma_sweep / "config_snapshot.json").read_text())
        assert snapshot["sweep"] == {"param": "gamma", "values": [0.25, 0.5, 0.75, 1.0],
                                     "replicates": 1, "base_seed": 0}
        for value in (0.25, 0.5, 0.75, 1.0):
            meta = json.loads((gamma_sweep / f"gamma_{value}" / "config.json").read_text())
            assert meta["base_config"] == snapshot

    def test_sweep_snapshot_reloads_to_the_sweep(self, gamma_sweep):
        reloaded = load_config(str(gamma_sweep / "config_snapshot.json"))
        assert reloaded.snapshot["sweep"]["param"] == "gamma"
        assert reloaded.sweep_for("gamma") == SweepSpec("gamma", replicates=1, base_seed=0)

    def test_train_snapshot_reloads_to_the_run(self, tmp_path, small_config):
        out = tmp_path / "train"
        assert main(["--config", small_config, "train", "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        reloaded = load_config(str(out / "config_snapshot.json"))
        given = load_config(small_config)
        assert reloaded.qlearn == replace(given.qlearn, seed=7)
        assert (reloaded.material, reloaded.grid, reloaded.reward) == \
            (given.material, given.grid, given.reward)
