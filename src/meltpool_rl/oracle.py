"""Brute-force ground truth over the grid.

Evaluates every state's steady-state depth, ranks states by distance to
the target depth, and reports where a trained run's best state stands in
that ranking.  This is deliberately independent of anything the learner
produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .environment import DepthCache, RewardConfig, StateGrid
from .outputs import write_csv
from .qlearn import RunResult


@dataclass(frozen=True)
class StateReport:
    state_id: int
    i: int
    j: int
    power: float
    speed: float
    depth: float
    abs_err: float
    rank: int
    in_band: bool


@dataclass
class GridReport:
    grid: StateGrid
    rows: list[StateReport]

    @property
    def best(self) -> StateReport:
        return next(r for r in self.rows if r.rank == 1)

    def rank_of(self, s: int) -> int:
        if not 0 <= s < len(self.rows):
            raise ValueError(f"state {s} out of range for n={self.grid.n}")
        return self.rows[s].rank


def brute_force_rank(cache: DepthCache, rc: RewardConfig) -> GridReport:
    """Exhaustive ranking by |depth - rc.delta_opt_mm|: one stable sort
    of the flat ids by error, so an exact tie goes to the lower flat id.
    Rows in flat-id order, with (P, v) from cache.params and in_band
    strictly within rc.tol_r_mm, as reward's positive branch is.  Every
    state has a usable depth: DepthCache rejects a grid where one has
    not."""
    grid = cache.grid
    depths = [cache.depth(s).depth_mm for s in range(grid.n_states)]
    errs = [abs(d - rc.delta_opt_mm) for d in depths]
    ranks = [0] * grid.n_states
    for rank, s in enumerate(sorted(range(grid.n_states), key=errs.__getitem__), 1):
        ranks[s] = rank
    rows = [StateReport(s, *divmod(s, grid.n), *cache.params[s], depths[s], errs[s],
                        ranks[s], errs[s] < rc.tol_r_mm) for s in range(grid.n_states)]
    return GridReport(grid, rows)


def validate_run(report: GridReport, result: RunResult) -> int:
    """The oracle's rank (1 = closest to the target) of the learner's best
    state, for a run trained on the report's grid."""
    if report.grid.n_states != result.qtable.shape[0]:
        raise ValueError("grid mismatch between oracle report and run result")
    return report.rank_of(result.best_state)


def write_pv_map_csv(path, report: GridReport) -> None:
    write_csv(path, ["state_id", "i", "j", "power_w", "speed_mmpm",
                     "depth_mm", "abs_err_mm", "rank", "in_band"],
              ([r.state_id, r.i, r.j, f"{r.power:.4f}", f"{r.speed:.4f}",
                f"{r.depth:.4f}", f"{r.abs_err:.4f}", r.rank, int(r.in_band)]
               for r in report.rows))
