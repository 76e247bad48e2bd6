"""Command-line entry point: depth evaluation, training, oracle mapping,
and hyperparameter sweeps.

main loads and checks the whole config file named by --config once
(the built-in defaults without it), before any command runs, and passes
it to the command as cfg; so a bad key anywhere in the file, the sweep
section included, fails every command before it writes.
main owns the output directory of train, map and sweep: it refuses an
--out that is . or .., or exists and is not an empty directory, runs the
command into a fresh directory staged beside --out, and renames that
onto --out once every file is written.  So --out is either a whole
run's or absent; a killed run can leave only a hidden .<name>.* sibling.
Every output directory receives a config_snapshot.json with the fully
resolved configuration (including any --seed override, and for sweep the
sweep that ran), so a run can be re-created from its outputs alone: the
snapshot loads back as a config file.  Exit codes: 0 success, 1 validation
error (argparse's usage errors included), 2 runtime or convergence
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

from .config import SWEEPABLE, load_config
from .environment import DepthCache, write_depth_map_csv
from .experiments import run_sweep
from .oracle import brute_force_rank, validate_run, write_pv_map_csv
from .outputs import write_csv, write_json
from .qlearn import (GENERATOR_NAME, train, write_convergence_csv,
                     write_qtable_csv, write_qtable_json)
from .thermal import MMPM_TO_MPS, melt_pool_depth

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _staged(args, cfg) -> int:
    """Run args.func into a directory staged beside --out, write the
    config snapshot and rename the directory onto --out; the stage goes
    whether the command succeeds or fails."""
    out = Path(args.out)
    if out.name in ("", ".."):  # "." or "..": no entry of its own to rename onto
        raise ValueError(f"--out {args.out} must name a directory, not . or ..")
    if out.exists() and not (out.is_dir() and not any(out.iterdir())):
        raise ValueError(f"--out {out} exists and is not an empty directory")
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent)
    try:
        staged = Path(stage, out.name)
        staged.mkdir()  # mkdtemp's mode is 0700; mkdir follows the umask
        rc = args.func(args, cfg, staged)
        # after the command, which records its seed or sweep in the snapshot
        write_json(staged / "config_snapshot.json", cfg.snapshot, sort_keys=True)
        os.rename(staged, out)  # onto an empty directory, or fails
        return rc
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def cmd_depth(args, cfg) -> int:
    if not 0 <= args.power < math.inf:
        raise ValueError("--power must be finite and >= 0")
    speed = args.speed * MMPM_TO_MPS  # checked in m/s, as the model takes it
    if not 0 < speed < math.inf:
        raise ValueError("--speed must be finite and > 0")
    res = melt_pool_depth(cfg.material, args.power, speed)
    print(f"depth_mm={res.depth_mm:.4f} converged={res.converged} "
          f"t_used_s={res.t_used:.2f}")
    return EXIT_OK if res.converged else EXIT_RUNTIME


def cmd_train(args, cfg, out: Path) -> int:
    hp = cfg.qlearn if args.seed is None else replace(cfg.qlearn, seed=args.seed)
    cfg.snapshot["qlearn"]["seed"] = hp.seed

    cache = DepthCache(cfg.material, cfg.grid)
    result = train(cache, cfg.reward, hp)
    report = brute_force_rank(cache, cfg.reward)
    rank = validate_run(report, result)

    write_qtable_csv(out / "qtable.csv", result.qtable)
    write_qtable_json(out / "qtable.json", result.qtable, cfg.snapshot, hp.seed)
    write_convergence_csv(out / "convergence.csv", result.traces)
    summary = {
        "best_power_w": round(result.best_power, 4),
        "best_speed_mmpm": round(result.best_speed, 4),
        "best_depth_mm": round(result.best_depth, 4),
        "oracle_rank": rank,
        "seed": hp.seed,
        "generator": GENERATOR_NAME,
    }
    write_json(out / "summary.json", summary)
    print(f"best P={summary['best_power_w']:.1f} W "
          f"v={summary['best_speed_mmpm']:.1f} mm/min "
          f"depth={summary['best_depth_mm']:.4f} mm "
          f"(oracle rank {rank})")
    return EXIT_OK


def cmd_map(args, cfg, out: Path) -> int:
    cache = DepthCache(cfg.material, cfg.grid)
    report = brute_force_rank(cache, cfg.reward)
    write_pv_map_csv(out / "pv_map.csv", report)
    write_depth_map_csv(out / "depth_map.csv", cache)
    best = report.best
    print(f"rank-1 state ({best.i},{best.j}): P={best.power:.1f} W "
          f"v={best.speed:.1f} mm/min depth={best.depth:.4f} mm")
    return EXIT_OK


def cmd_sweep(args, cfg, out: Path) -> int:
    spec = cfg.sweep_for(args.param)
    cfg.snapshot["sweep"] = asdict(spec)
    results = run_sweep(spec, cfg.material, cfg.grid, cfg.reward, cfg.qlearn)

    summary = []
    for vr in results:
        vdir = out / f"{spec.param}_{vr.value}"
        vdir.mkdir()
        write_json(vdir / "config.json", {
            "param": spec.param, "value": vr.value, "replicates": spec.replicates,
            "base_seed": spec.base_seed, "seeds": vr.seeds, "generator": GENERATOR_NAME,
            "band": "across-replicate std", "base_config": cfg.snapshot})
        write_csv(vdir / "convergence.csv",
                  ["episode", "mean_total_reward", "std_total_reward"],
                  ([e, m, s] for e, (m, s) in
                   enumerate(zip(vr.mean.tolist(), vr.std.tolist()))))
        for rep, (run, rank, seed) in enumerate(
                zip(vr.runs, vr.ranks, vr.seeds)):
            write_qtable_csv(vdir / f"run_{rep}_qtable.csv", run.qtable)
            write_convergence_csv(vdir / f"run_{rep}_convergence.csv", run.traces)
            summary.append([vr.value, rep, seed, f"{run.best_power:.4f}",
                            f"{run.best_speed:.4f}", f"{run.best_depth:.4f}",
                            rank])
    write_csv(out / "summary.csv", ["value", "replicate", "seed", "best_power_w",
              "best_speed_mmpm", "best_depth_mm", "oracle_rank"], summary)
    print(f"swept {spec.param} over {list(spec.values)} "
          f"with {spec.replicates} replicates -> {Path(args.out)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_VALIDATION,
    as every other validation failure does; subparsers are built from
    the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meltpool-rl",
        description="Q-learning process-parameter search for L-DED "
                    "melt-pool depth on an analytical thermal model.")
    parser.add_argument("--config", default=None,
                        help="YAML config path (default: built-in defaults)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("depth", help="steady-state melt-pool depth for one (P, v)")
    p.add_argument("--power", type=float, required=True, help="laser power (W)")
    p.add_argument("--speed", type=float, required=True, help="scan speed (mm/min)")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("train", help="train the Q-learning agent")
    p.add_argument("--seed", type=int, default=None, help="override qlearn.seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("map", help="brute-force oracle map of the grid")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("sweep", help="replicated hyperparameter sweep")
    p.add_argument("--param", required=True, choices=SWEEPABLE, help="parameter to sweep")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _staged(args, cfg) if "out" in args else args.func(args, cfg)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
