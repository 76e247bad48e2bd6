"""Regenerate the stored references from the current program.

    python3 perfbench/make_references.py

Writes ``perfbench/references/<workload>.json`` for the default seed (0)
and the held-out seed (1) at full size, plus the brute-force map of the
default 10x10 grid that every ``train_sweep`` replicate is checked
against.  Only regenerate when a change is meant to alter results, and
say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (REF_DIR, DepthScatter, GridMap, TrainSweep,  # noqa: E402
                       call_cli, read_map)

SEEDS = (0, 1)
DEPTH_BATCHES = 28  # more than a 50 s run reaches at the fastest speed seen
WORKDIR = HERE.parent / ".perfbench_out" / "references"


def grid_map(seed: int) -> dict:
    wl = GridMap(seed, "full", WORKDIR / f"grid_map{seed}")
    raw = wl.op(0)
    if raw["code"] != 0:
        raise SystemExit(f"grid_map seed {seed}: map exited {raw['code']}")
    got = read_map(raw["out"], wl.n)
    return {"bounds": wl.bounds, "depth": got["depth"], "rank": got["rank"]}


def depth_scatter(seed: int) -> dict:
    wl = DepthScatter(seed, "full", WORKDIR / f"depth_scatter{seed}")
    batches = []
    for k in range(DEPTH_BATCHES):
        parsed = wl.parse(wl.op(k))
        if None in parsed:
            raise SystemExit(f"depth_scatter seed {seed} batch {k}: a query failed")
        batches.append({"depth": [p[0] for p in parsed],
                        "converged": [p[1] for p in parsed]})
    return {"batches": batches}


def train_sweep(seed: int) -> dict:
    wl = TrainSweep(seed, "full", WORKDIR / f"train_sweep{seed}")
    raw = wl.op(0)
    if raw["code"] != 0:
        raise SystemExit(f"train_sweep seed {seed}: sweep exited {raw['code']}")
    got = wl.parse(raw)
    return {"best": [[r["best_power_w"], r["best_speed_mmpm"], r["oracle_rank"]]
                     for r in got["rows"]],
            "qtable_sha256": got["digests"]}


def default_grid() -> dict:
    out = WORKDIR / "default_grid"
    code, _, err = call_cli(["map", "--out", str(out)])
    if code != 0:
        raise SystemExit(f"default grid map exited {code}: {err}")
    params = json.loads((out / "config_snapshot.json").read_text())["grid"]
    got = read_map(out, params["n"])
    return {"params": params, "depth": got["depth"], "rank": got["rank"]}


def main() -> int:
    REF_DIR.mkdir(exist_ok=True)
    made = {name: {"seeds": {str(s): fn(s) for s in SEEDS}}
            for name, fn in (("grid_map", grid_map), ("depth_scatter", depth_scatter),
                             ("train_sweep", train_sweep))}
    made["train_sweep"]["grid"] = default_grid()
    for name, ref in made.items():
        (REF_DIR / f"{name}.json").write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
