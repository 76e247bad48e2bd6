"""Discrete process-parameter environment over the thermal model.

States are cells of an endpoint-inclusive n x n grid over laser power and
scan speed; actions are the eight king moves between neighbouring cells.
Moves that would leave the grid are masked out rather than clamped, so
edge states simply have fewer actions.  Rewards compare the cached
steady-state melt-pool depth at the landing state against the target.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .thermal import MMPM_TO_MPS, DepthResult, MaterialEnv, batch_depths, melt_pool_depth

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
        if not self.p_min < self.p_max:
            raise ValueError("grid.p_min_w must be < grid.p_max_w")
        if not self.v_min < self.v_max:
            raise ValueError("grid.v_min_mmpm must be < grid.v_max_mmpm")

    @property
    def n_states(self) -> int:
        return self.n * self.n


@dataclass(frozen=True)
class StateId:
    """Grid cell (power index i, speed index j); flat id = i*n + j."""

    i: int
    j: int

    def flat(self, grid: StateGrid) -> int:
        return self.i * grid.n + self.j


def state_from_flat(grid: StateGrid, flat: int) -> StateId:
    if not 0 <= flat < grid.n_states:
        raise ValueError(f"flat state id {flat} out of range for n={grid.n}")
    return StateId(*divmod(flat, grid.n))


def state_params(grid: StateGrid, s: StateId) -> tuple[float, float]:
    """(power W, speed mm/min) of a state; exact linspace arithmetic."""
    if not (0 <= s.i < grid.n and 0 <= s.j < grid.n):
        raise ValueError(f"state ({s.i},{s.j}) out of range for n={grid.n}")
    p = grid.p_min + s.i * (grid.p_max - grid.p_min) / (grid.n - 1)
    v = grid.v_min + s.j * (grid.v_max - grid.v_min) / (grid.n - 1)
    return p, v


def valid_actions(grid: StateGrid, s: StateId) -> tuple[int, ...]:
    """Indices into ACTIONS whose landing cell stays on the grid."""
    if not (0 <= s.i < grid.n and 0 <= s.j < grid.n):
        raise ValueError(f"state ({s.i},{s.j}) out of range for n={grid.n}")
    return tuple(k for k, (di, dj) in enumerate(ACTIONS)
                 if 0 <= s.i + di < grid.n and 0 <= s.j + dj < grid.n)


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
    """Memoized melt-pool depths over the grid states.

    Each state is computed once (bit-identical on re-read); warm() fills
    the whole grid up front through batch_depths, with results identical
    to state-by-state evaluation.
    """

    def __init__(self, env: MaterialEnv, grid: StateGrid):
        self.env = env
        self.grid = grid
        self._store: dict[tuple[int, int], DepthResult] = {}

    def depth(self, s: StateId) -> DepthResult:
        key = (s.i, s.j)
        if key not in self._store:
            p, v = state_params(self.grid, s)
            self._store[key] = melt_pool_depth(self.env, p, v * MMPM_TO_MPS)
        return self._store[key]

    def warm(self) -> None:
        states = [StateId(i, j) for i in range(self.grid.n) for j in range(self.grid.n)]
        missing = [s for s in states if (s.i, s.j) not in self._store]
        if not missing:
            return
        pv = [state_params(self.grid, s) for s in missing]
        results = batch_depths(self.env, [(p, v * MMPM_TO_MPS) for p, v in pv])
        for s, r in zip(missing, results):
            self._store[(s.i, s.j)] = r

    def __len__(self) -> int:
        return len(self._store)


@dataclass(frozen=True)
class StepOutcome:
    next_state: StateId
    depth_mm: float
    reward: float
    terminal: bool


def step(grid: StateGrid, cache: DepthCache, s: StateId, action: int,
         rc: RewardConfig) -> StepOutcome:
    """Apply an action, score the landing state, and flag termination.

    The action must be valid for s (callers select from valid_actions);
    an unconverged depth at the landing state aborts the episode.
    """
    if action not in valid_actions(grid, s):
        raise ValueError(f"action {action} invalid in state ({s.i},{s.j})")
    di, dj = ACTIONS[action]
    nxt = StateId(s.i + di, s.j + dj)
    res = cache.depth(nxt)
    if not res.converged:
        p, v = state_params(grid, nxt)
        raise EnvironmentEvalError(
            f"environment evaluation failed: depth not steady at "
            f"P={p:.1f} W, v={v:.1f} mm/min")
    r = reward(rc, res.depth_mm)
    dd = abs(res.depth_mm - rc.delta_opt)
    return StepOutcome(nxt, res.depth_mm, r, dd <= rc.tol_delta)


def write_depth_map_csv(path, grid: StateGrid, cache: DepthCache) -> None:
    """Grid depth map: state_id, i, j, power_w, speed_mmpm, depth_mm."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["state_id", "i", "j", "power_w", "speed_mmpm", "depth_mm"])
        for i in range(grid.n):
            for j in range(grid.n):
                s = StateId(i, j)
                p, v = state_params(grid, s)
                w.writerow([s.flat(grid), i, j, f"{p:.4f}", f"{v:.4f}",
                            f"{cache.depth(s).depth_mm:.4f}"])
