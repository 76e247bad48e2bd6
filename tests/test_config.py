"""YAML configuration loading, defaults, and validation messages."""

from dataclasses import fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from meltpool_rl.cli import EXIT_VALIDATION, main
from meltpool_rl.config import SWEEPABLE, ConfigError, SweepSpec, load_config
from meltpool_rl.environment import RewardConfig, StateGrid
from meltpool_rl.qlearn import Hyperparams
from meltpool_rl.thermal import BEAM_TO_SIGMA, MaterialEnv


EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "config.example.yaml"


def write(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


#: a 2x2 grid whose speed span is finite only while n - 1 is 1
HUGE_SPEED_GRID = "grid: {n: 2, v_min_mmpm: 400.0, v_max_mmpm: 1.0e308}\n"

INTEGER_KEYS = [("grid", "n"), ("qlearn", "episodes"), ("qlearn", "n_epochs"),
                ("qlearn", "seed"), ("sweep", "replicates"), ("sweep", "base_seed")]
FLOAT_KEYS = [("material", k) for k in ("t0_k", "t_liq_k", "cp", "rho", "diffusivity",
                                        "sigma_l_mm", "absorptivity", "source_gain")] + \
    [("grid", k) for k in ("p_min_w", "p_max_w", "v_min_mmpm", "v_max_mmpm")] + \
    [("reward", k) for k in ("delta_opt_mm", "tol_r_mm", "tol_delta_mm", "denom_floor_mm")] + \
    [("qlearn", k) for k in ("alpha", "gamma", "epsilon")]

#: each section's dataclass: its fields are the section's keys
SECTIONS = {"material": MaterialEnv, "grid": StateGrid, "reward": RewardConfig,
            "qlearn": Hyperparams}
#: per section key, one value as the file writes it that its dataclass rejects
REJECTED = [("material", "t0_k", "0"), ("material", "t_liq_k", "0"),
            ("material", "cp", "0"), ("material", "rho", "0"),
            ("material", "diffusivity", "0"), ("material", "sigma_l_mm", "0"),
            ("material", "absorptivity", "1.5"), ("material", "source_gain", "0"),
            ("grid", "n", "1"), ("grid", "p_min_w", "-1"), ("grid", "p_max_w", "100"),
            ("grid", "v_min_mmpm", "0"), ("grid", "v_max_mmpm", "100"),
            ("reward", "delta_opt_mm", "0"), ("reward", "tol_r_mm", "0"),
            ("reward", "tol_delta_mm", "0"), ("reward", "denom_floor_mm", "0"),
            ("reward", "variant", "bogus"),
            ("qlearn", "alpha", "0"), ("qlearn", "gamma", "2"), ("qlearn", "epsilon", "2"),
            ("qlearn", "episodes", "0"), ("qlearn", "n_epochs", "0"), ("qlearn", "seed", "-1")]

#: per sweepable parameter, values its field accepts and values it rejects
_BELOW_ZERO = st.floats(-10.0, 0.0, exclude_max=True)
_ABOVE_ONE = st.floats(1.0, 10.0, exclude_min=True)
SWEEP_IN_RANGE = {"n": st.integers(2, 40), "episodes": st.integers(1, 500),
                  "epsilon": st.floats(0.0, 1.0), "gamma": st.floats(0.0, 1.0),
                  "alpha": st.floats(0.0, 1.0, exclude_min=True)}
SWEEP_OUT_OF_RANGE = {"n": st.integers(-5, 1) | st.integers(2**16 + 1, 10**30),
                      "episodes": st.integers(-5, 0) | st.integers(2**32 + 1, 10**30),
                      "epsilon": _BELOW_ZERO | _ABOVE_ONE,
                      "gamma": _BELOW_ZERO | _ABOVE_ONE,
                      "alpha": st.floats(-10.0, 0.0) | _ABOVE_ONE}


@st.composite
def sweep_values_with_one_bad(draw):
    """(param, values): distinct valid values and one bad entry, a bool,
    a string, an out-of-range number or a value equal as its field to
    one already listed, at a random position."""
    param = draw(st.sampled_from(SWEEPABLE))
    values = draw(st.lists(SWEEP_IN_RANGE[param], min_size=1, max_size=5, unique=True))
    kind = draw(st.sampled_from(["bool", "string", "range", "twice"]))
    if kind == "bool":
        bad = draw(st.booleans())
    elif kind == "string":
        bad = draw(st.text(max_size=5))
    elif kind == "range":
        bad = draw(SWEEP_OUT_OF_RANGE[param])
    else:
        twin = draw(st.sampled_from(values))
        bad = float(twin) if isinstance(twin, int) else twin
    values.insert(draw(st.integers(0, len(values))), bad)
    return param, values


class TestDefaults:
    def test_no_file_gives_working_defaults(self):
        cfg = load_config()
        assert cfg.grid.n == 10
        assert cfg.qlearn.alpha == 0.25
        assert cfg.reward.variant == "inverse_error"
        assert cfg.material.t_liq_k == 1700.0
        assert cfg.snapshot["sweep"]["param"] is None

    def test_defaults_are_the_dataclass_defaults(self):
        cfg = load_config(None)
        assert cfg.material == MaterialEnv()
        assert cfg.grid == StateGrid()
        assert cfg.reward == RewardConfig()
        assert cfg.qlearn == Hyperparams()

    def test_empty_file_equals_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        assert cfg.snapshot == load_config().snapshot

    def test_example_file_holds_the_defaults(self):
        """config.example.yaml's header says its values are the defaults."""
        example = load_config(str(EXAMPLE_CONFIG))
        default = load_config(None)
        for name in ("material", "grid", "reward", "qlearn"):
            assert getattr(example, name) == getattr(default, name)
        assert example.snapshot == default.snapshot
        assert example.sweep_for("epsilon") == default.sweep_for("epsilon")

    def test_example_file_lists_every_key(self):
        """config.example.yaml documents every setting: each section holds
        exactly its dataclass's fields, in field order, and sweep the
        fields of SweepSpec."""
        example = yaml.safe_load(EXAMPLE_CONFIG.read_text())
        want = {name: [f.name for f in fields(cls)]
                for name, cls in {**SECTIONS, "sweep": SweepSpec}.items()}
        assert {name: list(sec) for name, sec in example.items()} == want


class TestOverrides:
    def test_partial_sections_merge(self, tmp_path):
        cfg = load_config(write(tmp_path, "grid:\n  n: 5\nqlearn:\n  seed: 7\n"))
        assert cfg.grid.n == 5
        assert cfg.grid.p_min_w == 500.0
        assert cfg.qlearn.seed == 7

    def test_beam_parameter_converted_to_sigma_meters(self, tmp_path):
        cfg = load_config(write(tmp_path, "material:\n  sigma_l_mm: 1.0\n"))
        assert cfg.material.sigma == pytest.approx(BEAM_TO_SIGMA * 1e-3)

    def test_environment_names_no_config(self, tmp_path, monkeypatch):
        """Only a path names the config file: no environment variable,
        MELTPOOL_RL_CONFIG included, changes the defaults."""
        monkeypatch.setenv("MELTPOOL_RL_CONFIG", write(tmp_path, "grid:\n  n: 15\n"))
        assert load_config().grid.n == 10

    def test_exponent_floats_are_numbers(self, tmp_path):
        """YAML 1.1 reads 1e-06 as a string, and JSON writes it so in every
        config_snapshot.json (reward.denom_floor_mm's default)."""
        cfg = load_config(write(tmp_path, "reward: {denom_floor_mm: 1e-06}\n"
                                          "qlearn: {episodes: 1E+2}\ngrid: {p_max_w: 1.5e3}\n"))
        assert cfg.reward.denom_floor_mm == 1e-06
        assert cfg.qlearn.episodes == 100
        assert cfg.grid.p_max_w == 1500.0

    def test_sweep_section(self, tmp_path):
        cfg = load_config(write(
            tmp_path,
            "sweep:\n  param: epsilon\n  replicates: 3\n  base_seed: 5\n"))
        spec = cfg.sweep_for("epsilon")
        assert spec.replicates == 3
        assert spec.base_seed == 5
        assert spec.values == (0.25, 0.5, 0.75, 1.0)

    def test_sweep_for_falls_back_for_other_param(self, tmp_path):
        cfg = load_config(write(tmp_path, "sweep:\n  param: epsilon\n"))
        spec = cfg.sweep_for("n")
        assert spec.param == "n"
        assert spec.values == (5, 10, 15, 20)


class TestValidation:
    def test_missing_file_is_an_error(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/config.yaml")

    def test_unparseable_yaml(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(write(tmp_path, "grid: [unclosed\n"))

    def test_over_long_integer_literal_is_a_parse_error(self, tmp_path):
        """PyYAML raises a bare ValueError for an integer literal over
        Python's 4300-digit conversion limit; it names the file."""
        path = write(tmp_path, f"grid:\n  n: {'9' * 5000}\n")
        with pytest.raises(ConfigError, match="^cannot parse config") as info:
            load_config(path)
        assert path in str(info.value)

    def test_grid_n_above_2_16_is_named(self, tmp_path):
        for n in (2**16 + 1, "9" * 30):
            with pytest.raises(ConfigError, match=r"^grid\.n must be <= 2\*\*16"):
                load_config(write(tmp_path, f"grid:\n  n: {n}\n"))
        with pytest.raises(ConfigError, match=r"sweep\.values: .* grid\.n must be <= 2\*\*16"):
            load_config(write(tmp_path, f"sweep:\n  param: n\n  values: [5, {10**400}]\n"))
        with pytest.raises(ValueError, match=r"grid\.n must be <= 2\*\*16"):
            SweepSpec("n", values=[10**400])

    def test_swept_n_is_checked_on_the_configs_own_grid(self, tmp_path):
        """n = 3 keeps the default bounds' spans finite, but not this
        grid's speed span, which only n = 2 keeps finite: the sweep is
        refused at load, naming the value, and not after n = 2 has run."""
        text = (HUGE_SPEED_GRID + "qlearn: {episodes: 5}\n"
                "sweep: {param: n, values: [2, 3], replicates: 1}\n")
        with pytest.raises(ConfigError, match=r"^sweep\.values: 3 is invalid: "
                           r"grid\.v_max_mmpm must keep \(n - 1\)"):
            load_config(write(tmp_path, text))

    def test_huge_bound_grid_loads_when_no_sweep_is_set(self, tmp_path):
        """With no sweep.param the load check stands in a hyperparameter,
        whose standard values fit any config; a sweep of n over the
        standard list is refused on this grid when it is asked for."""
        cfg = load_config(write(tmp_path, HUGE_SPEED_GRID))
        assert cfg.grid.v_max_mmpm == 1.0e308
        assert cfg.sweep_for("epsilon").values == (0.25, 0.5, 0.75, 1.0)
        with pytest.raises(ConfigError, match=r"^sweep\.values: 5 is invalid: grid\.v_max_mmpm"):
            cfg.sweep_for("n")

    def test_unknown_key_is_named(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.n_states"):
            load_config(write(tmp_path, "grid:\n  n_states: 100\n"))

    @pytest.mark.parametrize("text, key", [
        ("gird: {n: 5}\n", "gird"), ("1: 2\n", "1"),
        ("grid: {1: 2, foo: 3}\n", r"grid\.1"),
    ])
    def test_unknown_key_at_any_level_is_named(self, tmp_path, text, key):
        """A misspelt section is an error, not a file of defaults; keys of
        mixed types, which do not sort together, are named as strings."""
        with pytest.raises(ConfigError, match=rf"^{key}: unknown key$"):
            load_config(write(tmp_path, text))

    def test_rejected_rows_cover_every_section_key(self):
        assert [(section, key) for section, key, _ in REJECTED] == \
            [(name, f.name) for name, cls in SECTIONS.items() for f in fields(cls)]

    @pytest.mark.parametrize("section, key, value", REJECTED)
    def test_rejected_value_names_its_key(self, tmp_path, section, key, value):
        """A value out of its dataclass's range is named by the key the
        file holds it under."""
        with pytest.raises(ConfigError, match=rf"\b{section}\.{key}\b"):
            load_config(write(tmp_path, f"{section}: {{{key}: {value}}}\n"))

    def test_wrong_type_is_path_qualified(self, tmp_path):
        with pytest.raises(ConfigError, match="qlearn.alpha"):
            load_config(write(tmp_path, "qlearn:\n  alpha: fast\n"))

    def test_module_invariants_surface_as_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="alpha"):
            load_config(write(tmp_path, "qlearn:\n  alpha: 0.0\n"))
        with pytest.raises(ConfigError, match="tol_delta"):
            load_config(write(tmp_path,
                              "reward:\n  tol_delta_mm: 0.5\n  tol_r_mm: 0.1\n"))

    @pytest.mark.parametrize("section, key", INTEGER_KEYS)
    def test_non_integral_integer_is_named(self, tmp_path, section, key):
        with pytest.raises(ConfigError, match=rf"{section}\.{key}: expected an integer"):
            load_config(write(tmp_path, f"{section}:\n  {key}: 10.7\n"))
        assert load_config(write(tmp_path, f"{section}:\n  {key}: 5.0\n")) \
            .snapshot[section][key] == 5

    @given(key=st.sampled_from(INTEGER_KEYS),
           value=st.floats().filter(lambda x: not x.is_integer()))
    @settings(max_examples=100, deadline=None)
    def test_any_non_integral_float_is_named(self, tmp_path_factory, key, value):
        """Fractions, nan and the infinities all fail on the key they sit at."""
        section, name = key
        path = tmp_path_factory.mktemp("cfg") / "config.yaml"
        path.write_text(yaml.safe_dump({section: {name: value}}))
        with pytest.raises(ConfigError, match=rf"^{section}\.{name}: expected an integer"):
            load_config(str(path))

    @given(key=st.sampled_from(FLOAT_KEYS),
           value=st.sampled_from([float("inf"), float("-inf"), float("nan"),
                                  int("9" * 400), -int("9" * 400)]))
    @settings(max_examples=60, deadline=None)
    def test_any_non_finite_float_is_named(self, tmp_path_factory, key, value):
        """A non-finite number, or an integer too large for a float,
        fails on its key at load, so the CLI exits 1 before making
        --out."""
        section, name = key
        tmp = tmp_path_factory.mktemp("cfg")
        path = tmp / "config.yaml"
        path.write_text(yaml.safe_dump({section: {name: value}}))
        with pytest.raises(ConfigError, match=rf"^{section}\.{name}: expected a finite number"):
            load_config(str(path))
        out = tmp / "out"
        assert main(["--config", str(path), "map", "--out", str(out)]) == EXIT_VALIDATION
        assert not out.exists()

    @given(case=sweep_values_with_one_bad())
    @settings(max_examples=100, deadline=None)
    def test_any_bad_sweep_value_is_named(self, tmp_path_factory, case):
        param, values = case
        path = tmp_path_factory.mktemp("cfg") / "config.yaml"
        path.write_text(yaml.safe_dump({"sweep": {"param": param, "values": values}}))
        with pytest.raises(ConfigError, match=r"sweep\.values"):
            load_config(str(path))

    def test_negative_seeds_are_named(self, tmp_path):
        with pytest.raises(ConfigError, match=r"qlearn\.seed must be >= 0, got -1"):
            load_config(write(tmp_path, "qlearn:\n  seed: -1\n"))
        with pytest.raises(ConfigError, match=r"sweep\.base_seed must be >= 0, got -3"):
            load_config(write(tmp_path, "sweep:\n  param: epsilon\n  base_seed: -3\n"))

    @pytest.mark.parametrize("entry, message", [
        ("replicates: 0", r"sweep\.replicates must be >= 1, got 0"),
        ("replicates: x", r"sweep\.replicates: expected a number, got 'x'"),
        ("base_seed: -3", r"sweep\.base_seed must be >= 0, got -3"),
        ("base_seed: 1.5", r"sweep\.base_seed: expected an integer, got 1\.5"),
    ])
    def test_sweep_section_without_param_is_checked(self, tmp_path, entry, message):
        """Every command records the sweep section in its snapshot, so it
        is checked at load even when no sweep would read it."""
        with pytest.raises(ConfigError, match=rf"^{message}$"):
            load_config(write(tmp_path, f"sweep: {{{entry}}}\n"))

    def test_episodes_above_2_32_are_named(self, tmp_path):
        """A run has at most 2**32 episodes, one per one-word spawn key;
        nothing here runs the bound itself."""
        big = "9" * 30
        with pytest.raises(ConfigError, match=r"^qlearn\.episodes must be in \[1, 2\*\*32\]"):
            load_config(write(tmp_path, f"qlearn:\n  episodes: {big}\n"))
        with pytest.raises(ConfigError, match=r"sweep\.values: .* qlearn\.episodes must be in"):
            load_config(write(tmp_path, f"sweep:\n  param: episodes\n  values: [10, {big}]\n"))
        with pytest.raises(ValueError, match=r"got 4294967297$"):
            Hyperparams(episodes=2**32 + 1)
        assert Hyperparams(episodes=2**32).episodes == 2**32

    @pytest.mark.parametrize("param, value", [
        ("n", 4.6), ("episodes", 10.5), ("n", "five"), ("episodes", True),
    ])
    def test_non_integral_sweep_value_is_named(self, tmp_path, param, value):
        with pytest.raises(ConfigError, match=r"sweep\.values"):
            load_config(write(tmp_path, f"sweep:\n  param: {param}\n"
                                        f"  values: [{value}]\n"))

    @pytest.mark.parametrize("param, values", [
        ("epsilon", "0.5"), ("epsilon", "[1.5]"), ("alpha", "[abc]"),
        ("gamma", "{a: 1}"), ("n", "[1]"), ("episodes", "[0]"),
        ("epsilon", "[0.5, 0.5]"), ("n", "[3, 3.0]"), ("episodes", f"[{2**32 + 1}]"),
        ("episodes", f"[{'9' * 400}]"), ("alpha", f"[{'9' * 400}]"),
    ])
    def test_invalid_sweep_values_are_named(self, tmp_path, param, values):
        with pytest.raises(ConfigError, match=r"sweep\.values"):
            load_config(write(tmp_path, f"sweep:\n  param: {param}\n"
                                        f"  values: {values}\n"))

    @pytest.mark.parametrize("values", ["garbage", "[0.5]", "[]"])
    def test_sweep_values_without_param_are_named(self, tmp_path, values):
        """Values no sweep reads would be recorded in every snapshot as if
        they were used."""
        with pytest.raises(ConfigError, match=r"^sweep\.values: set without sweep\.param"):
            load_config(write(tmp_path, f"sweep:\n  values: {values}\n"))

    def test_top_level_must_be_mapping(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_config(write(tmp_path, "- a\n- b\n"))


#: YAML values that are false in Python but are not null
FALSY = ["0", "[]", "false", "''"]


class TestOnlyNullIsUnset:
    """A file, a section or sweep.values that is null (or left out)
    takes its defaults; any other value, even a false one, is checked."""

    @pytest.mark.parametrize("text", ["# only a comment\n", "grid:\n",
                                      "sweep:\n  param: epsilon\n  values: null\n"])
    def test_null_takes_the_defaults(self, tmp_path, text):
        cfg = load_config(write(tmp_path, text))
        assert (cfg.material, cfg.grid, cfg.reward, cfg.qlearn) == \
            (MaterialEnv(), StateGrid(), RewardConfig(), Hyperparams())
        assert cfg.sweep_for("epsilon") == SweepSpec("epsilon")

    @pytest.mark.parametrize("value", FALSY)
    def test_false_section_is_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match=r"^grid: expected a mapping, got "):
            load_config(write(tmp_path, f"grid: {value}\n"))

    @pytest.mark.parametrize("value", FALSY)
    def test_false_top_level_is_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match=r"top level must be a mapping, got "):
            load_config(write(tmp_path, f"{value}\n"))


class TestKeyGivenTwice:
    """PyYAML keeps the last of two equal keys; the config refuses them."""

    @pytest.mark.parametrize("text, key, line", [
        ("grid: {n: 5}\ngrid: {p_min_w: 600.0}\n", "grid", 2),
        ("grid:\n  n: 5\n  p_min_w: 600.0\n  n: 6\n", "n", 4),
        ("sweep: {param: epsilon, replicates: 2, param: gamma}\n", "param", 1),
    ])
    def test_is_a_parse_error_naming_key_and_line(self, tmp_path, text, key, line):
        path = write(tmp_path, text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        message = str(info.value)
        assert message.startswith(f"cannot parse config {path}: key '{key}' given twice")
        assert f"line {line}, column" in message

    def test_merge_key_may_still_override(self, tmp_path):
        """A key a "<<" merge brought in is not given twice."""
        cfg = load_config(write(tmp_path, "grid: {<<: {n: 5, p_min_w: 600.0}, n: 6}\n"))
        assert (cfg.grid.n, cfg.grid.p_min_w) == (6, 600.0)

    def test_complex_key_stays_a_parse_error(self, tmp_path):
        with pytest.raises(ConfigError, match=r"(?s)^cannot parse config .*found unhashable key"):
            load_config(write(tmp_path, "? [1, 2]\n: x\n"))
