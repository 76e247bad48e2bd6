"""Brute-force ground truth over the grid.

Evaluates every state's steady-state depth, ranks states by distance to
the target depth, and checks a trained run against that ranking.  This is
deliberately independent of anything the learner produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .environment import DepthCache, RewardConfig, StateGrid, state_params
from .outputs import write_csv
from .qlearn import RunResult

TOP_K = 3
DEPTH_TOL_MM = 0.05


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
    delta_opt: float
    rows: list[StateReport]

    @property
    def best(self) -> StateReport:
        return next(r for r in self.rows if r.rank == 1)

    def rank_of(self, s: int) -> int:
        if not 0 <= s < len(self.rows):
            raise ValueError(f"state {s} out of range for n={self.grid.n}")
        return self.rows[s].rank


@dataclass(frozen=True)
class Verdict:
    rank: int
    in_top_k: bool
    depth_gap: float
    depth_ok: bool

    @property
    def passed(self) -> bool:
        return self.in_top_k or self.depth_ok


def brute_force_rank(cache: DepthCache, rc: RewardConfig) -> GridReport:
    """Exhaustive ranking by |depth - rc.delta_opt|, stable on flat id;
    rows in flat-id order, in_band within rc.tol_r.  Every state has a
    usable depth: DepthCache rejects a grid where one has not."""
    grid = cache.grid
    entries = []
    for s in range(grid.n_states):
        res = cache.depth(s)
        p, v = state_params(grid, s)
        entries.append((abs(res.depth_mm - rc.delta_opt), s, p, v, res.depth_mm))
    entries.sort(key=lambda e: (e[0], e[1]))
    rows = [StateReport(s, *divmod(s, grid.n), p, v, depth, err, rank + 1, err <= rc.tol_r)
            for rank, (err, s, p, v, depth) in enumerate(entries)]
    rows.sort(key=lambda r: r.state_id)
    return GridReport(grid, rc.delta_opt, rows)


def validate_run(report: GridReport, result: RunResult) -> Verdict:
    """Is the learner's best state within the oracle's top TOP_K, and is
    its depth within DEPTH_TOL_MM of the target?  Both criteria are
    reported; passed is their disjunction."""
    if report.grid.n_states != result.qtable.shape[0]:
        raise ValueError("grid mismatch between oracle report and run result")
    rank = report.rank_of(result.best_state)
    gap = abs(result.best_depth - report.delta_opt)
    return Verdict(rank, rank <= TOP_K, gap, gap <= DEPTH_TOL_MM)


def write_pv_map_csv(path, report: GridReport) -> None:
    write_csv(path, ["state_id", "i", "j", "power_w", "speed_mmpm",
                     "depth_mm", "abs_err_mm", "rank", "in_band"],
              ([r.state_id, r.i, r.j, f"{r.power:.4f}", f"{r.speed:.4f}",
                f"{r.depth:.4f}", f"{r.abs_err:.4f}", r.rank, int(r.in_band)]
               for r in report.rows))
