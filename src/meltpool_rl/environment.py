"""Discrete process-parameter environment over the thermal model.

States are cells of an endpoint-inclusive n x n grid over laser power and
scan speed, named by flat id s = i*n + j (power index i, speed index j);
actions are the eight king moves between neighbouring cells.
Moves that would leave the grid are masked out rather than clamped, so
edge states simply have fewer actions.  Rewards compare the tabled
steady-state melt-pool depth at the landing state against the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .outputs import write_csv
from .thermal import MM_PER_M, MMPM_TO_MPS, Z_MAX, DepthResult, MaterialEnv, batch_depths

#: the 8 actions as (di, dj), row-major over {-1,0,1}^2 minus (0,0).
#: This ordering defines the Q-table columns and must never change.
ACTIONS: tuple[tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)
N_ACTIONS = len(ACTIONS)

REWARD_VARIANTS = ("paper", "inverse_error")


class EnvironmentEvalError(RuntimeError):
    """Raised when a transition cannot be scored (unconverged depth)."""


@dataclass(frozen=True)
class StateGrid:
    """Endpoint-inclusive linspace grid over power (W) x speed (mm/min)."""

    n: int = 10
    p_min: float = 500.0
    p_max: float = 1000.0
    v_min: float = 400.0
    v_max: float = 700.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid.n must be >= 2")
        if self.p_min < 0:
            raise ValueError(f"grid.p_min_w must be >= 0, got {self.p_min}")
        if self.v_min <= 0:
            raise ValueError(f"grid.v_min_mmpm must be > 0, got {self.v_min}")
        if not self.p_min < self.p_max:
            raise ValueError("grid.p_min_w must be < grid.p_max_w")
        if not self.v_min < self.v_max:
            raise ValueError("grid.v_min_mmpm must be < grid.v_max_mmpm")

    @property
    def n_states(self) -> int:
        return self.n * self.n


def state_params(grid: StateGrid, s: int) -> tuple[float, float]:
    """(power W, speed mm/min) of flat state s = i*n + j; exact linspace
    arithmetic."""
    if not 0 <= s < grid.n_states:
        raise ValueError(f"state {s} out of range for n={grid.n}")
    i, j = divmod(s, grid.n)
    p = grid.p_min + i * (grid.p_max - grid.p_min) / (grid.n - 1)
    v = grid.v_min + j * (grid.v_max - grid.v_min) / (grid.n - 1)
    return p, v


def valid_actions(grid: StateGrid, s: int) -> tuple[int, ...]:
    """Indices into ACTIONS whose landing cell stays on the grid."""
    if not 0 <= s < grid.n_states:
        raise ValueError(f"state {s} out of range for n={grid.n}")
    i, j = divmod(s, grid.n)
    return tuple(k for k, (di, dj) in enumerate(ACTIONS)
                 if 0 <= i + di < grid.n and 0 <= j + dj < grid.n)


@dataclass(frozen=True)
class RewardConfig:
    """Target depth and the tolerances of the reward / termination rules.

    tol_r separates the reward branch from the penalty branch; tol_delta
    ends an episode; denom_floor guards the reward denominator.  All mm.
    """

    delta_opt: float = 1.0
    tol_r: float = 0.1
    tol_delta: float = 0.005
    denom_floor: float = 1e-6
    variant: str = "inverse_error"

    def __post_init__(self):
        for name in ("delta_opt", "tol_r", "tol_delta", "denom_floor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"reward.{name} must be positive")
        if self.tol_delta > self.tol_r:
            raise ValueError("reward.tol_delta_mm must be <= reward.tol_r_mm")
        if self.variant not in REWARD_VARIANTS:
            raise ValueError(f"reward.variant must be one of {REWARD_VARIANTS}")


def reward(rc: RewardConfig, depth_mm: float) -> float:
    """Reward for landing on a state with the given depth.

    With dd = |depth - delta_opt|: below tol_r the "inverse_error"
    variant (default) pays 1 / dd and penalizes -dd otherwise.  The
    "paper" variant applies the printed two-branch formula literally,
    with dd substituted a second time into both branches:
    1 / |delta_opt - dd| and -|delta_opt - dd|.
    """
    dd = abs(depth_mm - rc.delta_opt)
    if rc.variant == "inverse_error":
        if dd < rc.tol_r:
            return 1.0 / max(dd, rc.denom_floor)
        return -dd
    if dd < rc.tol_r:
        return 1.0 / max(abs(rc.delta_opt - dd), rc.denom_floor)
    return -abs(rc.delta_opt - dd)


class DepthCache:
    """The per-grid tables, built once: next_state[s, a] (-1 where the
    move leaves the grid), each state's valid actions, each state's
    DepthResult, filled by warm() with one batch_depths call (the
    constructor calls it; later calls are no-ops), and per RewardConfig
    each state's score, which step looks up."""

    def __init__(self, env: MaterialEnv, grid: StateGrid):
        self.env = env
        self.grid = grid
        self.valid = tuple(valid_actions(grid, s) for s in range(grid.n_states))
        self.next_state = np.full((grid.n_states, N_ACTIONS), -1, dtype=np.intp)
        for s, acts in enumerate(self.valid):
            for a in acts:
                di, dj = ACTIONS[a]
                self.next_state[s, a] = s + di * grid.n + dj
        self._moves = self.next_state.tolist()  # step indexes lists, not the array
        self._depths: list[DepthResult] = []
        self._scores: dict[RewardConfig, list] = {}
        self._last_scores: tuple = (None, None)
        self.warm()

    def depth(self, s: int) -> DepthResult:
        if not 0 <= s < len(self._depths):
            raise ValueError(f"state {s} out of range for n={self.grid.n}")
        return self._depths[s]

    def warm(self) -> None:
        if self._depths:
            return
        pv = [state_params(self.grid, s) for s in range(self.grid.n_states)]
        self._depths = batch_depths(self.env, [(p, v * MMPM_TO_MPS) for p, v in pv])

    def scores(self, rc: RewardConfig) -> list:
        """Each state's (reward, terminal) under rc, or None where its
        depth is unusable; built once per RewardConfig."""
        last_rc, table = self._last_scores
        if rc is not last_rc:  # skips hashing the frozen rc on every step
            table = self._scores.get(rc)
            if table is None:
                table = self._scores[rc] = [
                    (reward(rc, res.depth_mm),
                     abs(res.depth_mm - rc.delta_opt) <= rc.tol_delta)
                    if res.converged else None
                    for res in self._depths]
            self._last_scores = (rc, table)
        return table

    def __len__(self) -> int:
        return len(self._depths)


def depth_failure(grid: StateGrid, s: int, res: DepthResult) -> str:
    """Why state s has no usable depth, and its process parameters."""
    p, v = state_params(grid, s)
    cause = (f"melt pool deeper than the {Z_MAX * MM_PER_M:g} mm depth bracket"
             if res.at_edge else f"depth not steady by t={res.t_used:g} s")
    return f"{cause} at state {s} (P={p:.1f} W, v={v:.1f} mm/min)"


def landing_error(cache: DepthCache, s: int) -> EnvironmentEvalError:
    """The error for a move onto state s, whose depth is unusable."""
    return EnvironmentEvalError("environment evaluation failed: "
                                f"{depth_failure(cache.grid, s, cache.depth(s))}")


class StepOutcome(NamedTuple):
    next_state: int
    reward: float
    terminal: bool


def step(cache: DepthCache, s: int, action: int, rc: RewardConfig) -> StepOutcome:
    """Apply an action, score the landing state, and flag termination.

    The action must be valid for s (callers select from cache.valid[s]);
    an unconverged depth at the landing state aborts the episode.
    """
    if not 0 <= s < len(cache.valid) or action not in cache.valid[s]:
        raise ValueError(f"action {action} invalid in state {s}")
    nxt = cache._moves[s][action]
    score = cache.scores(rc)[nxt]
    if score is None:
        raise landing_error(cache, nxt)
    r, terminal = score
    return StepOutcome(nxt, r, terminal)


def write_depth_map_csv(path, cache: DepthCache) -> None:
    """Grid depth map: state_id, i, j, power_w, speed_mmpm, depth_mm."""
    grid = cache.grid
    write_csv(path, ["state_id", "i", "j", "power_w", "speed_mmpm", "depth_mm"],
              ([s, *divmod(s, grid.n), *(f"{x:.4f}" for x in state_params(grid, s)),
                f"{cache.depth(s).depth_mm:.4f}"] for s in range(grid.n_states)))
