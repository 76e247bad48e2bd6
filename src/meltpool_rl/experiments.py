"""Hyperparameter sweeps with replicated, seeded runs.

Each swept value gets R independent training runs; per-episode total
rewards are aggregated into a mean curve with an across-replicate
standard-deviation band.  Replicate seeds derive deterministically from
(base seed, value index, replicate index), so a sweep is reproducible
from its spec alone and replicates stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .environment import DepthCache, RewardConfig, StateGrid
from .oracle import Verdict, brute_force_rank, validate_run
from .qlearn import EpisodeTrace, Hyperparams, RunResult, train
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
#: swept parameters that are integer fields
_INTEGRAL = ("n", "episodes")


def _shown(value) -> str:
    """A rejected value as an error message names it: its repr, or its
    size when that repr is long."""
    text = repr(value)
    if len(text) <= 40:
        return text
    if isinstance(value, int):
        return f"an integer of {len(text.lstrip('-'))} digits"
    return f"a {type(value).__name__} of {len(text)} characters"


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple = ()
    replicates: int = 10
    base_seed: int = 0

    def __post_init__(self):
        if self.param not in SWEEPABLE:
            raise ValueError(f"sweep.param must be one of {SWEEPABLE}, "
                             f"got {self.param!r}")
        if self.replicates < 1:
            raise ValueError("sweep.replicates must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"sweep.base_seed must be >= 0, got {self.base_seed}")
        if not isinstance(self.values, (list, tuple)):
            raise ValueError(f"sweep.values must be a list, got {_shown(self.values)}")
        integral = self.param in _INTEGRAL
        typed = []
        for value in self.values or DEFAULT_SWEEP_VALUES[self.param]:
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or integral and isinstance(value, float) and not value.is_integer()):
                raise ValueError(f"sweep.values for {self.param} must be "
                                 f"{'integers' if integral else 'numbers'}, got {_shown(value)}")
            # the value as the StateGrid or Hyperparams field it sets
            try:
                field_value = int(value) if integral else float(value)
            except OverflowError:
                raise ValueError(f"sweep.values for {self.param} must be finite numbers, "
                                 "got an integer too large for a float") from None
            try:
                (StateGrid if self.param == "n" else Hyperparams)(
                    **{self.param: field_value})
            except ValueError as exc:
                # name the value once: drop the field's own ", got <value>"
                reason = str(exc).removesuffix(f", got {field_value}")
                raise ValueError(f"sweep.values: {_shown(value)} is invalid: {reason}") from exc
            if field_value in typed:
                # each value names its own output directory
                raise ValueError(f"sweep.values: {_shown(value)} is listed twice")
            typed.append(field_value)
        object.__setattr__(self, "values", tuple(typed))


@dataclass
class ConvergenceCurve:
    mean: np.ndarray
    std: np.ndarray


@dataclass
class ValueResult:
    value: object
    runs: list[RunResult]
    seeds: list[int]
    curve: ConvergenceCurve
    verdicts: list[Verdict]


def replicate_seed(base_seed: int, value_index: int, replicate: int) -> int:
    """Deterministic, pairwise-distinct seed for one replicate."""
    ss = np.random.SeedSequence([base_seed, value_index, replicate])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def aggregate_convergence(trace_sets: list[list[EpisodeTrace]]) -> ConvergenceCurve:
    """Per-episode mean and std of total reward across replicates."""
    lengths = {len(ts) for ts in trace_sets}
    if len(lengths) != 1:
        raise ValueError(f"ragged trace sets: episode counts {sorted(lengths)}")
    rewards = np.array([[tr.total_reward for tr in ts] for ts in trace_sets])
    return ConvergenceCurve(rewards.mean(axis=0), rewards.std(axis=0))


def run_sweep(spec: SweepSpec, material: MaterialEnv, grid: StateGrid,
              rc: RewardConfig, hp: Hyperparams) -> list[ValueResult]:
    """R replicated runs per swept value, aggregated and oracle-checked.
    One DepthCache serves every value that keeps the grid."""
    cache = None
    out = []
    for vi, value in enumerate(spec.values):
        g = replace(grid, n=value) if spec.param == "n" else grid
        hp_v = hp if spec.param == "n" else replace(hp, **{spec.param: value})
        if cache is None or cache.grid != g:
            cache = DepthCache(material, g)
        report = brute_force_rank(cache, rc)
        runs, seeds, verdicts = [], [], []
        for rep in range(spec.replicates):
            seed = replicate_seed(spec.base_seed, vi, rep)
            try:
                result = train(cache, rc, replace(hp_v, seed=seed))
            except Exception as exc:
                raise RuntimeError(f"sweep {spec.param}={value} replicate {rep} "
                                   f"failed: {exc}") from exc
            runs.append(result)
            seeds.append(seed)
            verdicts.append(validate_run(report, result))
        curve = aggregate_convergence([r.traces for r in runs])
        out.append(ValueResult(value, runs, seeds, curve, verdicts))
    return out
