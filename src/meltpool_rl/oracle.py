"""Brute-force ground truth over the grid.

Evaluates every state's steady-state depth, ranks states by distance to
the target depth, and checks a trained run against that ranking.  This is
deliberately independent of anything the learner produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .environment import DepthCache, StateGrid, depth_failure, state_params
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
    delta_opt: float
    tol_r: float
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
    top_k: int
    in_top_k: bool
    depth_gap: float
    depth_ok: bool
    depth_tol: float

    @property
    def passed(self) -> bool:
        return self.in_top_k or self.depth_ok


def brute_force_rank(cache: DepthCache, delta_opt: float,
                     tol_r: float = 0.1) -> GridReport:
    """Exhaustive depth evaluation and stable ranking by |depth - target|
    (ties break on flat state id); rows are in flat-id order.  Any
    unusable state fails the whole ranking with one error that counts them
    and names the first state of each cause, the bracket edge first."""
    grid = cache.grid
    unusable = [s for s in range(grid.n_states) if not cache.depth(s).converged]
    if unusable:
        first: dict[bool, int] = {}
        for s in unusable:
            first.setdefault(cache.depth(s).at_edge, s)
        causes = "; ".join(depth_failure(grid, s, cache.depth(s))
                           for _, s in sorted(first.items(), reverse=True))
        raise RuntimeError(f"oracle: {len(unusable)} of {grid.n_states} states "
                           f"have no usable depth: {causes}")
    entries = []
    for s in range(grid.n_states):
        res = cache.depth(s)
        p, v = state_params(grid, s)
        entries.append((abs(res.depth_mm - delta_opt), s, p, v, res.depth_mm))
    entries.sort(key=lambda e: (e[0], e[1]))
    rows = [StateReport(s, *divmod(s, grid.n), p, v, depth, err, rank + 1, err <= tol_r)
            for rank, (err, s, p, v, depth) in enumerate(entries)]
    rows.sort(key=lambda r: r.state_id)
    return GridReport(grid, delta_opt, tol_r, rows)


def validate_run(report: GridReport, result: RunResult, k: int = 3,
                 depth_tol: float = 0.05) -> Verdict:
    """Is the learner's best state within the oracle's top-k, and how far
    is its depth from the target?  Both criteria are reported; passed is
    their disjunction."""
    if report.grid.n_states != result.qtable.shape[0]:
        raise ValueError("grid mismatch between oracle report and run result")
    rank = report.rank_of(result.best_state)
    gap = abs(result.best_depth - report.delta_opt)
    return Verdict(rank, k, rank <= k, gap, gap <= depth_tol, depth_tol)


def write_pv_map_csv(path, report: GridReport) -> None:
    write_csv(path, ["state_id", "i", "j", "power_w", "speed_mmpm",
                     "depth_mm", "abs_err_mm", "rank", "in_band"],
              ([r.state_id, r.i, r.j, f"{r.power:.4f}", f"{r.speed:.4f}",
                f"{r.depth:.4f}", f"{r.abs_err:.4f}", r.rank, int(r.in_band)]
               for r in report.rows))
