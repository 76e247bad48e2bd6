"""Q-learning process-parameter search for laser directed energy
deposition, driven by an analytical moving-Gaussian thermal model."""

from .environment import (ACTIONS, DepthCache, RewardConfig, StateGrid,
                          state_params, step, valid_actions)
from .oracle import brute_force_rank, validate_run
from .qlearn import Hyperparams, RunResult, train
from .thermal import (DepthResult, LaserQuery, MaterialEnv, batch_depths,
                      melt_pool_depth, temperature)

__version__ = "0.1.0"

__all__ = [
    "ACTIONS", "DepthCache", "DepthResult", "Hyperparams", "LaserQuery",
    "MaterialEnv", "RewardConfig", "RunResult", "StateGrid",
    "batch_depths", "brute_force_rank", "melt_pool_depth", "state_params",
    "step", "temperature", "train", "valid_actions", "validate_run",
]
