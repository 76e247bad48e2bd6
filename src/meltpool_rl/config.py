"""Run configuration: YAML file with sections mirroring the modules.

Every key has a default reproducing the standard SS316L setup (10x10 grid
over 500-1000 W x 400-700 mm/min, 1 mm target depth, alpha = gamma =
epsilon = 0.25, 100 episodes), so an empty or missing file is a valid
configuration.  Validation failures name the offending key.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import yaml

from .environment import RewardConfig, StateGrid
from .experiments import SweepSpec
from .qlearn import Hyperparams
from .thermal import BEAM_TO_SIGMA, DEFAULT_BEAM_MM, MaterialEnv

CONFIG_ENV_VAR = "MELTPOOL_RL_CONFIG"

#: per section, the dataclass it builds and its config key -> field map;
#: every default is the field's default, so it is written once
_SECTIONS = {
    "material": (MaterialEnv, {
        "t0_k": "t0", "t_liq_k": "t_liq", "cp": "cp", "rho": "rho",
        "diffusivity": "diffusivity", "sigma_l_mm": "sigma",
        "absorptivity": "absorptivity", "source_gain": "source_gain"}),
    "grid": (StateGrid, {"n": "n", "p_min_w": "p_min", "p_max_w": "p_max",
                         "v_min_mmpm": "v_min", "v_max_mmpm": "v_max"}),
    "reward": (RewardConfig, {
        "delta_opt_mm": "delta_opt", "tol_r_mm": "tol_r", "tol_delta_mm": "tol_delta",
        "denom_floor_mm": "denom_floor", "variant": "variant"}),
    "qlearn": (Hyperparams, {k: k for k in ("alpha", "gamma", "epsilon", "episodes",
                                            "n_epochs", "seed")}),
}
_DEFAULTS = {name: {key: getattr(cls, field) for key, field in keys.items()}
             for name, (cls, keys) in _SECTIONS.items()}
# the file gives the beam parameter in mm; MaterialEnv holds sigma in m
_DEFAULTS["material"]["sigma_l_mm"] = DEFAULT_BEAM_MM
_DEFAULTS["sweep"] = {"param": None, "values": None,
                      "replicates": SweepSpec.replicates, "base_seed": None}


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


@dataclass
class RunConfig:
    material: MaterialEnv
    grid: StateGrid
    reward: RewardConfig
    qlearn: Hyperparams
    snapshot: dict

    def sweep_for(self, param: str) -> SweepSpec:
        """Sweep spec for a parameter, falling back to defaults when the
        config has no sweep section or names a different parameter."""
        s = self.snapshot["sweep"]
        values = s["values"] if s["param"] == param and s["values"] is not None else ()
        base_seed = s["base_seed"] if s["base_seed"] is not None else self.qlearn.seed
        return SweepSpec(param=param, values=values,
                         replicates=s["replicates"], base_seed=base_seed)


def _section(raw: dict, name: str, defaults: dict) -> dict:
    sec = raw.get(name, {}) or {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: expected a mapping")
    unknown = set(sec) - set(defaults)
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown key")
    return {**defaults, **sec}


def _number(sec: dict, section: str, key: str, cls=float):
    val = sec[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{section}.{key}: expected a number, got {val!r}")
    if cls is int and isinstance(val, float) and not val.is_integer():
        raise ConfigError(f"{section}.{key}: expected an integer, got {val!r}")
    if isinstance(val, float) and not math.isfinite(val):
        raise ConfigError(f"{section}.{key}: expected a finite number, got {val!r}")
    try:
        return cls(val)
    except OverflowError:
        raise ConfigError(f"{section}.{key}: expected a finite number, "
                          "got an integer too large for a float") from None


def load_config(path: Optional[str] = None) -> RunConfig:
    """Load and validate a config file; None uses the environment
    variable MELTPOOL_RL_CONFIG, and if that is unset, pure defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    raw: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a mapping")

    snapshot = {name: _section(raw, name, defaults) for name, defaults in _DEFAULTS.items()}
    built = {}
    for name, (cls, keys) in _SECTIONS.items():
        sec = snapshot[name]
        kwargs = {field: sec[key] if isinstance(getattr(cls, field), str)
                  else _number(sec, name, key, type(getattr(cls, field)))
                  for key, field in keys.items()}
        if cls is MaterialEnv:
            kwargs["sigma"] = BEAM_TO_SIGMA * kwargs["sigma"] * 1e-3
        try:
            built[name] = cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    # sweep_for reads these back from the snapshot, so store them checked
    swp = snapshot["sweep"]
    swp["replicates"] = _number(swp, "sweep", "replicates", int)
    if swp["base_seed"] is not None:
        swp["base_seed"] = _number(swp, "sweep", "base_seed", int)

    cfg = RunConfig(built["material"], built["grid"], built["reward"],
                    built["qlearn"], snapshot)
    if swp["param"] is not None:
        try:  # a bad sweep section fails here, not when a sweep starts
            cfg.sweep_for(swp["param"])
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from exc
    return cfg
