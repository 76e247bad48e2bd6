"""Command-line entry point: depth evaluation, training, oracle mapping,
and hyperparameter sweeps.

Every output directory receives a config_snapshot.json with the fully
resolved configuration (including any --seed override), so a run can be
re-created from its outputs alone.  Exit codes: 0 success, 1 validation
error (argparse's usage errors included), 2 runtime or convergence
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import CONFIG_ENV_VAR, load_config
from .environment import DepthCache, write_depth_map_csv
from .experiments import SWEEPABLE, run_sweep
from .oracle import brute_force_rank, validate_run, write_pv_map_csv
from .outputs import write_csv, write_json
from .qlearn import (GENERATOR_NAME, train, write_convergence_csv,
                     write_qtable_csv, write_qtable_json)
from .thermal import MMPM_TO_MPS, melt_pool_depth

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _open_output(path: str, cfg) -> Path:
    """Create the output directory and write its config snapshot; called
    once a command's results exist, so a failed run leaves no directory."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config_snapshot.json", cfg.snapshot, sort_keys=True)
    return out


def cmd_depth(args) -> int:
    cfg = load_config(args.config)
    if not 0 <= args.power < math.inf:
        raise ValueError("--power must be finite and >= 0")
    if not 0 < args.speed < math.inf:
        raise ValueError("--speed must be finite and > 0")
    res = melt_pool_depth(cfg.material, args.power, args.speed * MMPM_TO_MPS)
    print(f"depth_mm={res.depth_mm:.4f} converged={res.converged} "
          f"t_used_s={res.t_used:.2f}")
    return EXIT_OK if res.converged else EXIT_RUNTIME


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    hp = cfg.qlearn if args.seed is None else replace(cfg.qlearn, seed=args.seed)
    cfg.snapshot["qlearn"]["seed"] = hp.seed

    cache = DepthCache(cfg.material, cfg.grid)
    result = train(cache, cfg.reward, hp)
    report = brute_force_rank(cache, cfg.reward)
    verdict = validate_run(report, result)

    out = _open_output(args.out, cfg)
    write_qtable_csv(out / "qtable.csv", result.qtable)
    write_qtable_json(out / "qtable.json", result.qtable, cfg.snapshot, hp.seed)
    write_convergence_csv(out / "convergence.csv", result.traces)
    summary = {
        "best_power_w": round(result.best_power, 4),
        "best_speed_mmpm": round(result.best_speed, 4),
        "best_depth_mm": round(result.best_depth, 4),
        "oracle_rank": verdict.rank,
        "seed": hp.seed,
        "generator": GENERATOR_NAME,
    }
    write_json(out / "summary.json", summary)
    print(f"best P={summary['best_power_w']:.1f} W "
          f"v={summary['best_speed_mmpm']:.1f} mm/min "
          f"depth={summary['best_depth_mm']:.4f} mm "
          f"(oracle rank {verdict.rank})")
    return EXIT_OK


def cmd_map(args) -> int:
    cfg = load_config(args.config)
    cache = DepthCache(cfg.material, cfg.grid)
    report = brute_force_rank(cache, cfg.reward)
    out = _open_output(args.out, cfg)
    write_pv_map_csv(out / "pv_map.csv", report)
    write_depth_map_csv(out / "depth_map.csv", cache)
    best = report.best
    print(f"rank-1 state ({best.i},{best.j}): P={best.power:.1f} W "
          f"v={best.speed:.1f} mm/min depth={best.depth:.4f} mm")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.param not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {args.param!r}; "
                         f"valid: {', '.join(SWEEPABLE)}")
    spec = cfg.sweep_for(args.param)
    results = run_sweep(spec, cfg.material, cfg.grid, cfg.reward, cfg.qlearn)

    out = _open_output(args.out, cfg)
    summary = []
    for vr in results:
        vdir = out / f"{spec.param}_{vr.value}"
        vdir.mkdir(exist_ok=True)
        write_json(vdir / "config.json", {
            "param": spec.param, "value": vr.value, "replicates": spec.replicates,
            "base_seed": spec.base_seed, "seeds": vr.seeds, "generator": GENERATOR_NAME,
            "band": "across-replicate std", "base_config": cfg.snapshot})
        write_csv(vdir / "convergence.csv",
                  ["episode", "mean_total_reward", "std_total_reward"],
                  ([e, repr(m), repr(s)] for e, (m, s) in
                   enumerate(zip(vr.curve.mean.tolist(), vr.curve.std.tolist()))))
        for rep, (run, verdict, seed) in enumerate(
                zip(vr.runs, vr.verdicts, vr.seeds)):
            write_qtable_csv(vdir / f"run_{rep}_qtable.csv", run.qtable)
            write_convergence_csv(vdir / f"run_{rep}_convergence.csv", run.traces)
            summary.append([vr.value, rep, seed, f"{run.best_power:.4f}",
                            f"{run.best_speed:.4f}", f"{run.best_depth:.4f}",
                            verdict.rank])
    # written last, so a complete summary.csv marks a finished sweep
    write_csv(out / "summary.csv", ["value", "replicate", "seed", "best_power_w",
              "best_speed_mmpm", "best_depth_mm", "oracle_rank"], summary)
    print(f"swept {spec.param} over {list(spec.values)} "
          f"with {spec.replicates} replicates -> {out}")
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
                        help=f"YAML config path (default: ${CONFIG_ENV_VAR} "
                             "or built-in defaults)")
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
    p.add_argument("--param", required=True,
                   help=f"parameter to sweep: {', '.join(SWEEPABLE)}")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
