"""Hyperparameter sweeps with replicated, seeded runs.

Each swept value gets R independent training runs; per-episode total
rewards are aggregated into a mean curve with an across-replicate
standard-deviation band.  Replicate seeds derive deterministically from
(base seed, value index, replicate index), so a sweep is reproducible
from its spec alone and replicates stay independent.  The spec itself,
SweepSpec, is built and checked in config, where every YAML value
becomes a typed setting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import SweepSpec
from .environment import DepthCache, RewardConfig, StateGrid
from .oracle import brute_force_rank, validate_run
from .qlearn import Hyperparams, RunResult, train
from .thermal import MaterialEnv


@dataclass
class ValueResult:
    """One swept value: its replicate runs and seeds, the per-episode mean
    and population standard deviation of their total rewards, and each
    run's oracle rank (validate_run)."""

    value: object
    runs: list[RunResult]
    seeds: list[int]
    mean: np.ndarray
    std: np.ndarray
    ranks: list[int]


def replicate_seed(base_seed: int, value_index: int, replicate: int) -> int:
    """Deterministic, pairwise-distinct seed for one replicate."""
    ss = np.random.SeedSequence([base_seed, value_index, replicate])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_sweep(spec: SweepSpec, material: MaterialEnv, grid: StateGrid,
              rc: RewardConfig, hp: Hyperparams) -> list[ValueResult]:
    """R replicated runs per swept value, aggregated, each ranked by the
    oracle.  One DepthCache and one oracle ranking serve every value that
    keeps the grid."""
    cache = None
    out = []
    for vi, value in enumerate(spec.values):
        g = replace(grid, n=value) if spec.param == "n" else grid
        hp_v = hp if spec.param == "n" else replace(hp, **{spec.param: value})
        if cache is None or cache.grid != g:
            cache = DepthCache(material, g)
            report = brute_force_rank(cache, rc)
        runs, seeds, ranks = [], [], []
        for rep in range(spec.replicates):
            seed = replicate_seed(spec.base_seed, vi, rep)
            try:
                result = train(cache, rc, replace(hp_v, seed=seed))
            except Exception as exc:
                raise RuntimeError(f"sweep {spec.param}={value} replicate {rep} "
                                   f"failed: {exc}") from exc
            runs.append(result)
            seeds.append(seed)
            ranks.append(validate_run(report, result))
        rewards = np.array([[tr.total_reward for tr in r.traces] for r in runs])
        out.append(ValueResult(value, runs, seeds, rewards.mean(axis=0),
                               rewards.std(axis=0), ranks))
    return out
