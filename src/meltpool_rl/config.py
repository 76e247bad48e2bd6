"""Run configuration: YAML file with sections mirroring the modules.

Every key has a default reproducing the standard SS316L setup (10x10 grid
over 500-1000 W x 400-700 mm/min, 1 mm target depth, alpha = gamma =
epsilon = 0.25, 100 episodes), so an empty file, or none, is a valid
configuration.  Only load_config's path (the CLI's --config) names the
file; nothing is read from the environment.  This module is the one
boundary between YAML and typed settings: it builds each section's
dataclass and the sweep's SweepSpec, with one number check for every key
and sweep value.  A section's keys are its dataclass's field names and
their defaults the fields' defaults, so each setting has one name, the
one the file, the snapshot and every error message use.  The whole file
is checked at load, whichever command reads it: one section check serves
the top level and every section, so an unknown key is an error at any
level, and the sweep section goes through SweepSpec even when no sweep
runs.  Only null means "not set": a section left empty takes its
defaults, while a section that is not a mapping, a top level that is not
one, an empty sweep.values or a key given twice in one mapping is an
error.  Validation failures name the offending key.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Optional

import yaml

from .environment import RewardConfig, StateGrid
from .qlearn import Hyperparams
from .thermal import MaterialEnv

#: swept values used when a sweep spec does not list its own
DEFAULT_SWEEP_VALUES: dict[str, tuple] = {
    "n": (5, 10, 15, 20),
    "epsilon": (0.25, 0.5, 0.75, 1.0),
    "gamma": (0.25, 0.5, 0.75, 1.0),
    "alpha": (0.25, 0.5, 0.75, 1.0),
    "episodes": (10, 25, 50, 75, 100, 200),
}

SWEEPABLE = tuple(DEFAULT_SWEEP_VALUES)


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


def _shown(value) -> str:
    """A rejected value as an error message names it: its repr, or its
    size when that repr is long."""
    text = repr(value)
    if len(text) <= 40:
        return text
    if isinstance(value, int):
        return f"an integer of {len(text.lstrip('-'))} digits"
    return f"a {type(value).__name__} of {len(text)} characters"


def _number(value, cls, name: str):
    """value as a finite cls (int or float); otherwise a ConfigError
    naming the key and the value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {_shown(value)}")
    if cls is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{name}: expected an integer, got {_shown(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite number, got {_shown(value)}")
    try:
        return cls(value)
    except OverflowError:
        raise ConfigError(f"{name}: expected a finite number, "
                          "got an integer too large for a float") from None


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: values None takes the parameter's standard list.  It
    checks every field itself, so it alone checks the sweep section; the
    values are stored as the StateGrid or Hyperparams field they set, and
    replicates and base_seed as ints."""

    param: str
    values: Optional[tuple] = None
    replicates: int = 10
    base_seed: int = 0

    def __post_init__(self):
        if self.param not in SWEEPABLE:
            raise ConfigError(f"sweep.param must be one of {SWEEPABLE}, "
                              f"got {_shown(self.param)}")
        for name, least in (("replicates", 1), ("base_seed", 0)):
            number = _number(getattr(self, name), int, f"sweep.{name}")
            if number < least:
                raise ConfigError(f"sweep.{name} must be >= {least}, got {number}")
            object.__setattr__(self, name, number)
        values = DEFAULT_SWEEP_VALUES[self.param] if self.values is None else self.values
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"sweep.values must be a non-empty list, got {_shown(values)}")
        section = StateGrid if self.param == "n" else Hyperparams
        cls = type(getattr(section, self.param))
        typed = []
        for value in values:
            field_value = _number(value, cls, f"sweep.values for {self.param}")
            try:
                section(**{self.param: field_value})
            except ValueError as exc:
                # name the value once: drop the field's own ", got <value>"
                reason = str(exc).removesuffix(f", got {field_value}")
                raise ConfigError(f"sweep.values: {_shown(value)} is invalid: {reason}") from exc
            if field_value in typed:
                # each value names its own output directory
                raise ConfigError(f"sweep.values: {_shown(value)} is listed twice")
            typed.append(field_value)
        object.__setattr__(self, "values", tuple(typed))


#: per section, the dataclass it builds: its fields are the section's keys
#: and their defaults, so each key is named and each default written once
_SECTIONS = {"material": MaterialEnv, "grid": StateGrid, "reward": RewardConfig,
             "qlearn": Hyperparams}
_DEFAULTS = {name: {f.name: f.default for f in fields(cls)} for name, cls in _SECTIONS.items()}
_DEFAULTS["sweep"] = {"param": None, "values": None,
                      "replicates": SweepSpec.replicates, "base_seed": None}


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, except that a key given twice in one mapping
    is an error: PyYAML itself keeps the last value."""

    def construct_mapping(self, node, deep=False):
        # a "<<" merge may repeat a key on purpose: only the mapping's own count
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep=deep)  # rejects unhashable keys
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"key {_shown(key)} given twice", key_node.start_mark)
            seen.add(key)
        return mapping


# JSON's floats with an exponent and no fraction, such as 1e-06 in every
# config_snapshot.json, are strings to YAML 1.1: read them as floats
_Loader.add_implicit_resolver("tag:yaml.org,2002:float",
                              re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
                              list("-+0123456789"))


@dataclass
class RunConfig:
    material: MaterialEnv
    grid: StateGrid
    reward: RewardConfig
    qlearn: Hyperparams
    snapshot: dict

    def sweep_for(self, param: str) -> SweepSpec:
        """Sweep spec for a parameter, checked in full: the config's
        values only if its sweep.param is this parameter (else the
        standard list), and base_seed qlearn.seed when left out."""
        s = self.snapshot["sweep"]
        base_seed = s["base_seed"] if s["base_seed"] is not None else self.qlearn.seed
        return SweepSpec(param=param, values=s["values"] if s["param"] == param else None,
                         replicates=s["replicates"], base_seed=base_seed)


def _section(sec, name: str, defaults: dict) -> dict:
    """sec merged over defaults, whose keys are the only ones it may hold;
    name is the section's key, or "" for the file's top level.  None (a
    section left out or with nothing under it, or an empty file) takes
    the defaults."""
    sec = {} if sec is None else sec
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: expected a mapping, got {_shown(sec)}" if name
                          else f"top level must be a mapping, got {_shown(sec)}")
    # keys of mixed types (1 and "foo") only sort as strings
    unknown = sorted(str(key) for key in sec.keys() - defaults.keys())
    if unknown:
        raise ConfigError(f"{name}{'.' if name else ''}{unknown[0]}: unknown key")
    return {**defaults, **sec}


def load_config(path: Optional[str] = None) -> RunConfig:
    """Load and validate the config file at path; None means the built-in
    defaults."""
    raw = None
    if path is not None:
        try:
            with open(path) as fh:
                raw = yaml.load(fh, Loader=_Loader)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (yaml.YAMLError, ValueError) as exc:
            # PyYAML raises ValueError for an int literal over Python's digit limit
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    raw = _section(raw, "", dict.fromkeys(_DEFAULTS))

    snapshot = {name: _section(raw[name], name, defaults) for name, defaults in _DEFAULTS.items()}
    built = {}
    for name, cls in _SECTIONS.items():
        sec = snapshot[name]
        kwargs = {key: sec[key] if isinstance(default, str)
                  else _number(sec[key], type(default), f"{name}.{key}")
                  for key, default in _DEFAULTS[name].items()}
        try:
            built[name] = cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    cfg = RunConfig(**built, snapshot=snapshot)
    param = snapshot["sweep"]["param"]
    if param is None and snapshot["sweep"]["values"] is not None:
        # values no sweep would read must not look used in the snapshot
        raise ConfigError("sweep.values: set without sweep.param, "
                          "so no sweep would use them")
    # every command checks the sweep section, so a bad one fails here
    # whether or not a sweep runs
    cfg.sweep_for(SWEEPABLE[0] if param is None else param)
    return cfg
