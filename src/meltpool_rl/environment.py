"""Discrete process-parameter environment over the thermal model.

States are cells of an endpoint-inclusive n x n grid over laser power and
scan speed, named by flat id s = i*n + j (power index i, speed index j);
actions are the eight king moves between neighbouring cells.
Moves that would leave the grid are masked out rather than clamped, so
edge states simply have fewer actions.  Rewards compare the tabled
steady-state melt-pool depth at the landing state against the target.
"""

from __future__ import annotations

import math
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
    """Raised when a grid has a state without a usable depth (not steady,
    or deeper than the depth bracket), so that state cannot be scored."""


@dataclass(frozen=True)
class StateGrid:
    """Endpoint-inclusive linspace grid over power (W) x speed (mm/min);
    each field is named as its key in the config file's grid section.
    The lowest speed must stay above 0 once converted to m/s, as the
    thermal model takes it, and (n - 1) times each span must be finite,
    so that state_params gives every state a finite power and speed."""

    n: int = 10
    p_min_w: float = 500.0
    p_max_w: float = 1000.0
    v_min_mmpm: float = 400.0
    v_max_mmpm: float = 700.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid.n must be >= 2")
        # n^2 start states must fit the 2**32 range of _Draws.integers
        if self.n > 2**16:
            raise ValueError(f"grid.n must be <= 2**16, got {self.n}")
        if self.p_min_w < 0:
            raise ValueError(f"grid.p_min_w must be >= 0, got {self.p_min_w}")
        v_min_mps = self.v_min_mmpm * MMPM_TO_MPS
        if not v_min_mps > 0:
            raise ValueError(f"grid.v_min_mmpm must be > 0, got {self.v_min_mmpm} "
                             f"(= {v_min_mps} m/s)")
        if not self.p_min_w < self.p_max_w:
            raise ValueError("grid.p_min_w must be < grid.p_max_w")
        if not self.v_min_mmpm < self.v_max_mmpm:
            raise ValueError("grid.v_min_mmpm must be < grid.v_max_mmpm")
        for lo, hi in (("p_min_w", "p_max_w"), ("v_min_mmpm", "v_max_mmpm")):
            if not math.isfinite((self.n - 1) * (getattr(self, hi) - getattr(self, lo))):
                raise ValueError(f"grid.{hi} must keep (n - 1) * (grid.{hi} - grid.{lo}) "
                                 f"finite, got {getattr(self, hi)}")

    @property
    def n_states(self) -> int:
        return self.n * self.n


def state_params(grid: StateGrid, s: int) -> tuple[float, float]:
    """(power W, speed mm/min) of flat state s = i*n + j; exact linspace
    arithmetic."""
    if not 0 <= s < grid.n_states:
        raise ValueError(f"state {s} out of range for n={grid.n}")
    i, j = divmod(s, grid.n)
    p = grid.p_min_w + i * (grid.p_max_w - grid.p_min_w) / (grid.n - 1)
    v = grid.v_min_mmpm + j * (grid.v_max_mmpm - grid.v_min_mmpm) / (grid.n - 1)
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
    """Target depth and the tolerances of the reward / termination rules;
    each field is named as its key in the config file's reward section.

    A depth strictly within tol_r_mm of delta_opt_mm takes the reward
    branch, any other the penalty branch; tol_delta_mm ends an episode;
    denom_floor_mm guards the reward denominator.
    """

    delta_opt_mm: float = 1.0
    tol_r_mm: float = 0.1
    tol_delta_mm: float = 0.005
    denom_floor_mm: float = 1e-6
    variant: str = "inverse_error"

    def __post_init__(self):
        for name in ("delta_opt_mm", "tol_r_mm", "tol_delta_mm", "denom_floor_mm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"reward.{name} must be positive")
        if self.tol_delta_mm > self.tol_r_mm:
            raise ValueError("reward.tol_delta_mm must be <= reward.tol_r_mm")
        if self.variant not in REWARD_VARIANTS:
            raise ValueError(f"reward.variant must be one of {REWARD_VARIANTS}")


def reward(rc: RewardConfig, depth_mm: float) -> float:
    """Reward for landing on a state with the given depth.

    With dd = |depth - delta_opt_mm|: strictly below tol_r_mm (the
    oracle's in_band) the "inverse_error" variant (default) pays 1 / dd
    and penalizes -dd otherwise.  The "paper" variant applies the printed
    two-branch formula literally, with dd substituted a second time into
    both branches: 1 / |delta_opt_mm - dd| and -|delta_opt_mm - dd|.
    """
    dd = abs(depth_mm - rc.delta_opt_mm)
    x = dd if rc.variant == "inverse_error" else abs(rc.delta_opt_mm - dd)
    return 1.0 / max(x, rc.denom_floor_mm) if dd < rc.tol_r_mm else -x


class DepthCache:
    """The per-grid tables, built once: each state's valid actions, the
    move table moves[s][a] (landing state, -1 off the grid) as list rows
    and as the next_state array, params[s], each state's (power W, speed
    mm/min) from state_params, each state's DepthResult from one
    batch_depths call in warm() (the constructor calls it; later calls
    are no-ops), and per RewardConfig each state's score, which
    run_episode looks up once per episode and step once per call.

    Only a grid on which every state has a usable depth gets a cache:
    warm() raises EnvironmentEvalError otherwise, so every score exists."""

    def __init__(self, env: MaterialEnv, grid: StateGrid):
        self.env = env
        self.grid = grid
        self.valid = tuple(valid_actions(grid, s) for s in range(grid.n_states))
        offsets = [di * grid.n + dj for di, dj in ACTIONS]
        self.moves = [[s + offsets[a] if a in acts else -1 for a in range(N_ACTIONS)]
                      for s, acts in enumerate(self.valid)]
        self.next_state = np.array(self.moves, dtype=np.intp)
        self.params = [state_params(grid, s) for s in range(grid.n_states)]
        self._depths: list[DepthResult] = []
        self._scores: dict[RewardConfig, list] = {}
        self.warm()

    def depth(self, s: int) -> DepthResult:
        if not 0 <= s < len(self._depths):
            raise ValueError(f"state {s} out of range for n={self.grid.n}")
        return self._depths[s]

    def warm(self) -> None:
        if self._depths:
            return
        pv = self.params
        depths = batch_depths(self.env, [(p, v * MMPM_TO_MPS) for p, v in pv])
        unusable = [s for s, res in enumerate(depths) if not res.converged]
        if unusable:
            # the count, then the first state of each cause, bracket edge first
            first: dict[bool, int] = {}
            for s in unusable:
                first.setdefault(depths[s].at_edge, s)
            causes = "; ".join(
                (f"melt pool deeper than the {Z_MAX * MM_PER_M:g} mm depth bracket"
                 if at_edge else f"depth not steady by t={depths[s].t_used:g} s")
                + f" at state {s} (P={pv[s][0]} W, v={pv[s][1]} mm/min)"
                for at_edge, s in sorted(first.items(), reverse=True))
            raise EnvironmentEvalError(f"{len(unusable)} of {self.grid.n_states} states "
                                       f"have no usable depth: {causes}")
        self._depths = depths

    def scores(self, rc: RewardConfig) -> list:
        """Each state's (reward, terminal) under rc, built once per
        RewardConfig; warm() has checked that every depth is usable."""
        table = self._scores.get(rc)
        if table is None:
            table = self._scores[rc] = [
                (reward(rc, res.depth_mm),
                 abs(res.depth_mm - rc.delta_opt_mm) <= rc.tol_delta_mm)
                for res in self._depths]
        return table

    def __len__(self) -> int:
        return len(self._depths)


class StepOutcome(NamedTuple):
    next_state: int
    reward: float
    terminal: bool


def step(cache: DepthCache, s: int, action: int, rc: RewardConfig) -> StepOutcome:
    """Apply an action, score the landing state, and flag termination.

    The action must be valid for s (callers select from cache.valid[s]).
    Every landing state has a score, since DepthCache rejects a grid with
    an unusable depth when it is built.  Training does not call it:
    qlearn.run_episode inlines this step and reads cache.scores once per
    episode.  It stays as the single-step reference the tests pin that
    loop to, and as a name perfbench traces.
    """
    if not 0 <= s < len(cache.valid) or action not in cache.valid[s]:
        raise ValueError(f"action {action} invalid in state {s}")
    nxt = cache.moves[s][action]
    return StepOutcome(nxt, *cache.scores(rc)[nxt])


def write_depth_map_csv(path, cache: DepthCache) -> None:
    """Grid depth map: state_id, i, j, power_w, speed_mmpm, depth_mm."""
    grid = cache.grid
    write_csv(path, ["state_id", "i", "j", "power_w", "speed_mmpm", "depth_mm"],
              ([s, *divmod(s, grid.n), *(f"{x:.4f}" for x in cache.params[s]),
                f"{cache.depth(s).depth_mm:.4f}"] for s in range(grid.n_states)))
