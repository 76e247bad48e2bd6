"""In-memory span tracer over the package's public functions.

``install`` rebinds each function in TARGETS in every ``meltpool_rl``
module namespace that holds it (``environment.melt_pool_depth`` and
``thermal.melt_pool_depth`` alike) and patches the two ``DepthCache``
methods on the class; ``uninstall`` puts the originals back, so an
untraced operation runs the program untouched.  A call is a span: name,
start, end, parent.  Calls on the per-step hot path are folded into
per-name totals instead of being kept one by one, so a sweep of ~90k
steps keeps a few hundred spans.  Counts come from the public return
values (``DepthResult``, ``RunResult.traces``) and from ``len(cache)``.

Calls made inside pool worker processes are not visible: only the
``batch_depths`` / ``DepthCache.warm`` boundary around them is.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from meltpool_rl import cli, config, environment, experiments, oracle, qlearn, thermal

from workloads import extensions

# (owner, attribute, hot): hot calls are totalled, not kept as spans
TARGETS = [
    (thermal, "melt_pool_depth", False),
    (thermal, "batch_depths", False),
    (environment.DepthCache, "depth", True),
    (environment.DepthCache, "warm", False),
    (environment, "step", True),
    (environment, "valid_actions", True),
    (environment, "write_depth_map_csv", False),
    (qlearn, "select_action", True),
    (qlearn, "q_update", True),
    (qlearn, "train", False),
    (qlearn, "write_qtable_csv", False),
    (qlearn, "write_qtable_json", False),
    (qlearn, "write_convergence_csv", False),
    (oracle, "brute_force_rank", False),
    (oracle, "validate_run", False),
    (oracle, "write_pv_map_csv", False),
    (experiments, "run_sweep", False),
    (config, "load_config", False),
    (cli, "cmd_depth", False),
    (cli, "cmd_train", False),
    (cli, "cmd_map", False),
    (cli, "cmd_sweep", False),
]
COMMANDS = ("cli.cmd_depth", "cli.cmd_train", "cli.cmd_map", "cli.cmd_sweep")
WRITERS = ("environment.write_depth_map_csv", "qlearn.write_qtable_csv",
           "qlearn.write_qtable_json", "qlearn.write_convergence_csv",
           "oracle.write_pv_map_csv")

# (name, unit, better) of every per-layer metric, in output order.  A
# "_share" is busy time as a fraction of the traced operation's wall time;
# seconds are kept only for layers that run on every workload.
PER_LAYER = [
    ("thermal.depth_calls", "count", "lower"),
    ("thermal.inproc_depth_calls", "count", "lower"),
    ("thermal.depth_s", "s", "lower"),
    ("thermal.inproc_depth_share", "1", "lower"),
    ("thermal.batch_share", "1", "lower"),
    ("thermal.pool_cpu_share", "1", "lower"),
    ("thermal.extensions", "count", "lower"),
    ("thermal.unconverged", "count", "lower"),
    ("thermal.max_depth_dev_mm", "mm", "lower"),
    ("environment.warm_share", "1", "lower"),
    ("environment.cache_hits", "count", "higher"),
    ("environment.cache_misses", "count", "lower"),
    ("environment.cache_hit_ratio", "1", "higher"),
    ("environment.step_calls", "count", "lower"),
    ("environment.step_share", "1", "lower"),
    ("environment.valid_actions_calls", "count", "lower"),
    ("environment.valid_actions_share", "1", "lower"),
    ("qlearn.train_calls", "count", "lower"),
    ("qlearn.train_share", "1", "lower"),
    ("qlearn.train_self_share", "1", "lower"),
    ("qlearn.episodes", "count", "lower"),
    ("qlearn.steps", "count", "lower"),
    ("qlearn.early_terminations", "count", "higher"),
    ("qlearn.early_termination_ratio", "1", "higher"),
    ("qlearn.select_action_share", "1", "lower"),
    ("qlearn.q_update_share", "1", "lower"),
    ("qlearn.qtable_bitident", "count", "higher"),
    ("oracle.rank_calls", "count", "lower"),
    ("oracle.rank_share", "1", "lower"),
    ("oracle.validate_share", "1", "lower"),
    ("experiments.sweep_share", "1", "lower"),
    ("experiments.sweep_self_share", "1", "lower"),
    ("config.load_calls", "count", "lower"),
    ("config.load_s", "s", "lower"),
    ("cli.command_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.write_share", "1", "lower"),
    ("cli.files_written", "count", "lower"),
    ("cli.bytes_written", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # (op, id, parent id, name, start, end)
        self._stack: list[list] = []     # [id, name, child seconds]
        self._patches: list[tuple] = []
        self._next_id = 0
        self.reset(-1)

    def reset(self, op: int) -> None:
        """Start the totals of a new traced operation."""
        self.op = op
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, child
        self.c = defaultdict(int)
        self.unbatched_depth_s = 0.0

    # -- installation -------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "meltpool_rl" or name.startswith("meltpool_rl.")]
        for owner, attr, hot in TARGETS:
            name = _span_name(owner, attr)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hot)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, hot):
        stack, perf = self._stack, time.perf_counter
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        measure_len = name.startswith("environment.DepthCache.")

        def wrapper(*args, **kwargs):
            before = len(args[0]) if measure_len else 0
            sid = self._next_id
            self._next_id += 1
            frame = [sid, name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                tot = self.totals[name]
                tot[0] += 1
                tot[1] += dt
                tot[2] += frame[2]
                if parent is not None:
                    parent[2] += dt
                if not hot:
                    self.spans.append((self.op, sid, parent[0] if parent else None,
                                       name, t0, t1))
            if measure_len:
                added = len(args[0]) - before
                self.c["cache_misses"] += added
                self.c["cache_hits"] += name.endswith(".depth") and added == 0
            if observe is not None:
                observe(result, t1 - t0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts from public return values -------------------------------
    def _depth_result(self, res) -> None:
        self.c["depth_calls"] += 1
        self.c["extensions"] += extensions(res.t_used)
        self.c["unconverged"] += not res.converged

    def _observe_thermal_melt_pool_depth(self, res, dt: float) -> None:
        if not any(f[1] == "thermal.batch_depths" for f in self._stack):
            self._depth_result(res)
            self.unbatched_depth_s += dt

    def _observe_thermal_batch_depths(self, results, dt: float) -> None:
        for res in results:
            self._depth_result(res)

    def _observe_qlearn_train(self, run, dt: float) -> None:
        self.c["episodes"] += len(run.traces)
        self.c["steps"] += sum(tr.epochs for tr in run.traces)
        self.c["early_terminations"] += sum(tr.terminated_early for tr in run.traces)

    # -- per-operation metrics -----------------------------------------
    def op_metrics(self, wall: float) -> dict:
        """Metrics of the traced operation that took ``wall`` seconds."""
        t, c = self.totals, self.c

        def calls(n):
            return t[n][0] if n in t else 0

        def busy(*names):
            return sum((t[n][1] for n in names if n in t), 0.0)

        def self_s(*names):
            return sum((t[n][1] - t[n][2] for n in names if n in t), 0.0)

        lookups = c["cache_hits"] + c["cache_misses"]
        return {
            "thermal.depth_calls": c["depth_calls"],
            "thermal.inproc_depth_calls": calls("thermal.melt_pool_depth"),
            "thermal.depth_s": busy("thermal.batch_depths") + self.unbatched_depth_s,
            "thermal.inproc_depth_share": busy("thermal.melt_pool_depth") / wall,
            "thermal.batch_share": busy("thermal.batch_depths") / wall,
            "thermal.extensions": c["extensions"],
            "thermal.unconverged": c["unconverged"],
            "environment.warm_share": busy("environment.DepthCache.warm") / wall,
            "environment.cache_hits": c["cache_hits"],
            "environment.cache_misses": c["cache_misses"],
            "environment.cache_hit_ratio": c["cache_hits"] / lookups if lookups else 0.0,
            "environment.step_calls": calls("environment.step"),
            "environment.step_share": busy("environment.step") / wall,
            "environment.valid_actions_calls": calls("environment.valid_actions"),
            "environment.valid_actions_share": busy("environment.valid_actions") / wall,
            "qlearn.train_calls": calls("qlearn.train"),
            "qlearn.train_share": busy("qlearn.train") / wall,
            "qlearn.train_self_share": self_s("qlearn.train") / wall,
            "qlearn.episodes": c["episodes"],
            "qlearn.steps": c["steps"],
            "qlearn.early_terminations": c["early_terminations"],
            "qlearn.early_termination_ratio":
                c["early_terminations"] / c["episodes"] if c["episodes"] else 0.0,
            "qlearn.select_action_share": busy("qlearn.select_action") / wall,
            "qlearn.q_update_share": busy("qlearn.q_update") / wall,
            "oracle.rank_calls": calls("oracle.brute_force_rank"),
            "oracle.rank_share": busy("oracle.brute_force_rank") / wall,
            "oracle.validate_share": busy("oracle.validate_run") / wall,
            "experiments.sweep_share": busy("experiments.run_sweep") / wall,
            "experiments.sweep_self_share": self_s("experiments.run_sweep") / wall,
            "config.load_calls": calls("config.load_config"),
            "config.load_s": busy("config.load_config"),
            "cli.command_s": busy(*COMMANDS),
            "cli.self_s": self_s(*COMMANDS),
            "cli.write_share": busy(*WRITERS) / wall,
        }
