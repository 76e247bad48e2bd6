"""Run configuration: YAML file with sections mirroring the modules.

Every key has a default reproducing the standard SS316L setup (10x10 grid
over 500-1000 W x 400-700 mm/min, 1 mm target depth, alpha = gamma =
epsilon = 0.25, 100 episodes), so an empty or missing file is a valid
configuration.  Validation failures name the offending key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import yaml

from .environment import RewardConfig, StateGrid
from .experiments import SweepSpec
from .qlearn import Hyperparams
from .thermal import BEAM_TO_SIGMA, DEFAULT_SOURCE_GAIN, MaterialEnv

CONFIG_ENV_VAR = "MELTPOOL_RL_CONFIG"

_MATERIAL_DEFAULTS = {
    "t0_k": 300.0,
    "t_liq_k": 1700.0,
    "cp": 680.0,
    "rho": 7400.0,
    "diffusivity": 7.1542e-6,
    "sigma_l_mm": 0.918,
    "absorptivity": 0.3,
    "source_gain": DEFAULT_SOURCE_GAIN,
}
_GRID_DEFAULTS = {"n": 10, "p_min_w": 500.0, "p_max_w": 1000.0,
                  "v_min_mmpm": 400.0, "v_max_mmpm": 700.0}
_REWARD_DEFAULTS = {"delta_opt_mm": 1.0, "tol_r_mm": 0.1, "tol_delta_mm": 0.005,
                    "denom_floor_mm": 1e-6, "variant": "inverse_error"}
_QLEARN_DEFAULTS = {"alpha": 0.25, "gamma": 0.25, "epsilon": 0.25,
                    "episodes": 100, "n_epochs": 50, "seed": 0}
_SWEEP_DEFAULTS = {"param": None, "values": None, "replicates": 10, "base_seed": None}


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


@dataclass
class RunConfig:
    material: MaterialEnv
    grid: StateGrid
    reward: RewardConfig
    qlearn: Hyperparams
    sweep: Optional[SweepSpec]
    snapshot: dict

    def sweep_for(self, param: str) -> SweepSpec:
        """Sweep spec for a parameter, falling back to defaults when the
        config has no sweep section or names a different parameter."""
        s = self.snapshot["sweep"]
        values = tuple(s["values"]) if s["param"] == param and s["values"] else ()
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
    return cls(val)


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

    mat = _section(raw, "material", _MATERIAL_DEFAULTS)
    grd = _section(raw, "grid", _GRID_DEFAULTS)
    rew = _section(raw, "reward", _REWARD_DEFAULTS)
    ql = _section(raw, "qlearn", _QLEARN_DEFAULTS)
    swp = _section(raw, "sweep", _SWEEP_DEFAULTS)

    try:
        material = MaterialEnv(
            t0=_number(mat, "material", "t0_k"),
            t_liq=_number(mat, "material", "t_liq_k"),
            cp=_number(mat, "material", "cp"),
            rho=_number(mat, "material", "rho"),
            diffusivity=_number(mat, "material", "diffusivity"),
            sigma=BEAM_TO_SIGMA * _number(mat, "material", "sigma_l_mm") * 1e-3,
            absorptivity=_number(mat, "material", "absorptivity"),
            source_gain=_number(mat, "material", "source_gain"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        grid = StateGrid(
            n=_number(grd, "grid", "n", int),
            p_min=_number(grd, "grid", "p_min_w"),
            p_max=_number(grd, "grid", "p_max_w"),
            v_min=_number(grd, "grid", "v_min_mmpm"),
            v_max=_number(grd, "grid", "v_max_mmpm"),
        )
        reward = RewardConfig(
            delta_opt=_number(rew, "reward", "delta_opt_mm"),
            tol_r=_number(rew, "reward", "tol_r_mm"),
            tol_delta=_number(rew, "reward", "tol_delta_mm"),
            denom_floor=_number(rew, "reward", "denom_floor_mm"),
            variant=rew["variant"],
        )
        qlearn = Hyperparams(
            alpha=_number(ql, "qlearn", "alpha"),
            gamma=_number(ql, "qlearn", "gamma"),
            epsilon=_number(ql, "qlearn", "epsilon"),
            episodes=_number(ql, "qlearn", "episodes", int),
            n_epochs=_number(ql, "qlearn", "n_epochs", int),
            seed=_number(ql, "qlearn", "seed", int),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # sweep_for reads these back from the snapshot, so store them checked
    swp["replicates"] = _number(swp, "sweep", "replicates", int)
    if swp["base_seed"] is not None:
        swp["base_seed"] = _number(swp, "sweep", "base_seed", int)

    snapshot = {"material": mat, "grid": grd, "reward": rew, "qlearn": ql,
                "sweep": swp}
    cfg = RunConfig(material, grid, reward, qlearn, None, snapshot)
    if swp["param"] is not None:
        try:
            cfg.sweep = cfg.sweep_for(swp["param"])
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from exc
    return cfg
