"""Workload inputs, operations and output checks.

A workload turns a seed into the program's inputs (a YAML config and CLI
arguments), runs one closed-loop operation through
``meltpool_rl.cli.main`` and checks what the program printed or wrote.
Only public entry points of the package are used.

Sizes: ``full`` is the benchmark; ``tiny`` is for the smoke test and has
no stored references, so only the invariant checks apply to it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import time
from pathlib import Path

import numpy as np

from meltpool_rl import cli
from meltpool_rl.config import load_config
from meltpool_rl.experiments import replicate_seed
from meltpool_rl.thermal import MMPM_TO_MPS, melt_pool_depth

REF_DIR = Path(__file__).resolve().parent / "references"
DEPTH_TOL_MM = 1e-3    # reference tolerance on a depth
ROUND_TOL_MM = 1e-4    # two values printed with 4 decimals
TARGET_MM = 1.0        # default reward.delta_opt_mm


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``meltpool-rl <argv>`` in-process with stdout/stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def extensions(t_used: float) -> int:
    """Time extensions behind a DepthResult: melt_pool_depth starts at
    t = 2 s and grows t by x1.5 per extension (t_used = 0 for P = 0)."""
    return 0 if t_used <= 0 else round(math.log(t_used / 2.0) / math.log(1.5))


def load_reference(workload: str) -> dict:
    path = REF_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def dir_usage(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_map(out: Path, n: int) -> dict:
    """depth_map.csv and pv_map.csv of ``meltpool-rl map`` as n x n lists."""
    depth_rows = read_csv(out / "depth_map.csv")
    pv_rows = read_csv(out / "pv_map.csv")
    if len(depth_rows) != n * n or len(pv_rows) != n * n:
        raise ValueError(f"expected {n * n} rows in depth_map/pv_map")
    depth = [[0.0] * n for _ in range(n)]
    power, speed = [0.0] * n, [0.0] * n
    for r in depth_rows:
        i, j = int(r["i"]), int(r["j"])
        depth[i][j] = float(r["depth_mm"])
        power[i], speed[j] = float(r["power_w"]), float(r["speed_mmpm"])
    rank = [[0] * n for _ in range(n)]
    pv_depth = [[0.0] * n for _ in range(n)]
    for r in pv_rows:
        i, j = int(r["i"]), int(r["j"])
        rank[i][j], pv_depth[i][j] = int(r["rank"]), float(r["depth_mm"])
    return {"depth": depth, "rank": rank, "pv_depth": pv_depth,
            "power": power, "speed": speed}


class Workload:
    """One closed-loop operation per ``op(k)``; ``check`` returns the
    failure messages of that operation and adds to ``self.counts``."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed, self.size, self.workdir = seed, size, workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / f"{self.name}.yaml"
        self.config.write_text(self.config_text())
        ref = load_reference(self.name) if size == "full" else {}
        self.ref = ref.get("seeds", {}).get(str(seed))
        self.counts = {"max_depth_dev_mm": 0.0, "files_written": 0,
                       "bytes_written": 0, "qtable_bitident": 0}

    def config_text(self) -> str:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        """Checks made once at the end of a run, outside the timed loop."""
        return []

    def note_dev(self, dev: float) -> None:
        self.counts["max_depth_dev_mm"] = max(self.counts["max_depth_dev_mm"], dev)

    def run_cli(self, k: int, command: list[str]) -> dict:
        out = self.workdir / f"op{k}"
        t0 = time.perf_counter()
        code, stdout, stderr = call_cli(["--config", str(self.config)] + command
                                        + ["--out", str(out)])
        wall = time.perf_counter() - t0
        return {"wall": wall, "latencies": [wall], "items": 0, "attempted": 1,
                "code": code, "stdout": stdout, "stderr": stderr, "out": out}

    def finish_dir(self, raw: dict) -> None:
        files, size = dir_usage(raw["out"])
        self.counts["files_written"], self.counts["bytes_written"] = files, size
        shutil.rmtree(raw["out"], ignore_errors=True)


class GridMap(Workload):
    """``meltpool-rl map`` on a cold cache; the seed draws the grid bounds."""

    name = "grid_map"

    def __init__(self, seed, size, workdir):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        self.n = 20 if size == "full" else 4
        lo_hi = rng.uniform([400, 1100, 300, 825], [500, 1200, 375, 900])
        self.bounds = [round(float(x), 1) for x in lo_hi]
        super().__init__(seed, size, workdir)
        self.first = None

    def config_text(self):
        p_min, p_max, v_min, v_max = self.bounds
        return (f"grid:\n  n: {self.n}\n  p_min_w: {p_min}\n  p_max_w: {p_max}\n"
                f"  v_min_mmpm: {v_min}\n  v_max_mmpm: {v_max}\n")

    def op(self, k):
        raw = self.run_cli(k, ["map"])
        raw["items"] = self.n * self.n
        return raw

    def check(self, k, raw) -> list[str]:
        try:
            if raw["code"] != 0:
                return [f"map exited {raw['code']}: {raw['stderr'].strip()}"]
            got = read_map(raw["out"], self.n)
        except (OSError, ValueError, KeyError) as exc:
            return [f"map outputs unreadable: {exc}"]
        finally:
            self.finish_dir(raw)
        if self.first is None:
            self.first = got
        n, d, fails = self.n, got["depth"], []
        for i in range(n):
            for j in range(n):
                if i + 1 < n and d[i + 1][j] < d[i][j]:
                    fails.append(f"depth not monotone in P at ({i},{j})")
                if j + 1 < n and d[i][j + 1] > d[i][j]:
                    fails.append(f"depth not monotone in 1/v at ({i},{j})")
                if got["pv_depth"][i][j] != d[i][j]:
                    fails.append(f"pv_map and depth_map disagree at ({i},{j})")
        by_rank = sorted((got["rank"][i][j], abs(d[i][j] - TARGET_MM))
                         for i in range(n) for j in range(n))
        if [r for r, _ in by_rank] != list(range(1, n * n + 1)):
            fails.append("pv_map ranks are not a permutation of 1..n^2")
        if any(b[1] < a[1] - ROUND_TOL_MM for a, b in zip(by_rank, by_rank[1:])):
            fails.append("pv_map ranks disagree with depth_map |depth - target|")
        if self.ref is not None:
            if self.ref["bounds"] != self.bounds:
                fails.append("generated bounds differ from the reference's")
            dev = max(abs(d[i][j] - self.ref["depth"][i][j])
                      for i in range(n) for j in range(n))
            self.note_dev(dev)
            if dev > DEPTH_TOL_MM:
                fails.append(f"depth differs from reference by {dev:.2e} mm")
            if got["rank"] != self.ref["rank"]:
                fails.append("ranking differs from reference")
        return fails[:5]

    def final_checks(self) -> list[str]:
        """Corners and two seeded interior states through the single-call
        path, against what the batched map printed."""
        if self.first is None:
            return []
        material = load_config(str(self.config)).material
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        n, last = self.n, self.n - 1
        states = [(0, 0), (0, last), (last, 0), (last, last)]
        states += [tuple(int(x) for x in rng.integers(n, size=2)) for _ in range(2)]
        fails = []
        for i, j in states:
            p, v = self.first["power"][i], self.first["speed"][j]
            res = melt_pool_depth(material, p, v * MMPM_TO_MPS)
            dev = abs(res.depth_mm - self.first["depth"][i][j])
            self.note_dev(dev)
            if not res.converged or dev > DEPTH_TOL_MM:
                fails.append(f"single-call depth at ({i},{j}) differs by {dev:.2e} mm")
        return fails


_DEPTH_LINE = re.compile(r"depth_mm=(\S+) converged=(True|False) t_used_s=(\S+)")


class DepthScatter(Workload):
    """Independent ``meltpool-rl depth`` queries.  Batch k holds one
    uniform point in each cell of a power x speed partition of
    200-2000 W x 200-1200 mm/min, in shuffled order."""

    name = "depth_scatter"

    def __init__(self, seed, size, workdir):
        self.cells = (20, 10) if size == "full" else (5, 4)
        super().__init__(seed, size, workdir)
        self.checked_first = None
        self.counts.update(extensions=0, unconverged=0)

    def config_text(self):
        return "# default SS316L material\nmaterial:\n  absorptivity: 0.3\n"

    def batch(self, k: int) -> list[tuple[float, float]]:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 3, k]))
        n_p, n_v = self.cells
        a, b = np.meshgrid(np.arange(n_p), np.arange(n_v), indexing="ij")
        u = rng.random((2, n_p * n_v))
        power = 200.0 + (a.ravel() + u[0]) * 1800.0 / n_p
        speed = 200.0 + (b.ravel() + u[1]) * 1000.0 / n_v
        order = rng.permutation(n_p * n_v)
        return [(round(float(power[m]), 2), round(float(speed[m]), 2)) for m in order]

    def op(self, k):
        queries = self.batch(k)
        results, lat = [], []
        t0 = time.perf_counter()
        for p, v in queries:
            q0 = time.perf_counter()
            results.append(call_cli(["--config", str(self.config), "depth",
                                     "--power", repr(p), "--speed", repr(v)]))
            lat.append(time.perf_counter() - q0)
        wall = time.perf_counter() - t0
        return {"wall": wall, "latencies": lat, "items": len(queries),
                "attempted": len(queries), "queries": queries, "results": results}

    def parse(self, raw) -> list[tuple[float, bool, float] | None]:
        parsed = []
        for code, stdout, _ in raw["results"]:
            m = _DEPTH_LINE.search(stdout)
            ok = m is not None and code == (0 if m.group(2) == "True" else 2)
            parsed.append((float(m.group(1)), m.group(2) == "True", float(m.group(3)))
                          if ok else None)
        return parsed

    def check(self, k, raw) -> list[str]:
        parsed = self.parse(raw)
        if self.checked_first is None:
            self.checked_first = (raw["queries"], parsed)
        batches = self.ref["batches"] if self.ref is not None else []
        ref = batches[k] if k < len(batches) else None
        fails = []
        for idx, res in enumerate(parsed):
            p, v = raw["queries"][idx]
            if res is None:
                code, stdout, stderr = raw["results"][idx]
                fails.append(f"depth P={p} v={v}: exit {code}, "
                             f"output {(stdout + stderr).strip()!r}")
                continue
            depth, converged, t_used = res
            self.counts["extensions"] += extensions(t_used)
            self.counts["unconverged"] += not converged
            if depth < 0:
                fails.append(f"depth P={p} v={v}: negative depth {depth}")
            if ref is not None:
                dev = abs(depth - ref["depth"][idx])
                self.note_dev(dev)
                if dev > DEPTH_TOL_MM or converged != ref["converged"][idx]:
                    fails.append(f"depth P={p} v={v}: ({depth}, {converged}) vs "
                                 f"reference ({ref['depth'][idx]}, "
                                 f"{ref['converged'][idx]})")
        return fails

    def final_checks(self) -> list[str]:
        """The first five queries again through the single-call path."""
        if self.checked_first is None:
            return []
        material = load_config(str(self.config)).material
        fails = []
        for (p, v), res in list(zip(*self.checked_first))[:5]:
            if res is None:
                continue
            direct = melt_pool_depth(material, p, v * MMPM_TO_MPS)
            dev = abs(direct.depth_mm - res[0])
            self.note_dev(dev)
            if dev > DEPTH_TOL_MM or direct.converged != res[1]:
                fails.append(f"single-call depth P={p} v={v} differs from CLI")
        return fails


class TrainSweep(Workload):
    """``meltpool-rl sweep --param epsilon`` with sweep.base_seed = seed."""

    name = "train_sweep"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.grid_ref = load_reference(self.name).get("grid") if size == "full" else None
        self.first_digests = None

    def config_text(self):
        text = f"sweep:\n  base_seed: {self.seed}\n"
        if self.size != "full":
            text += "  replicates: 2\ngrid:\n  n: 4\nqlearn:\n  episodes: 10\n"
        return text

    def op(self, k):
        return self.run_cli(k, ["sweep", "--param", "epsilon"])

    def parse(self, raw) -> dict:
        out = raw["out"]
        rows = read_csv(out / "summary.csv")
        digests, steps, early = [], 0, 0
        for r in rows:
            vdir = out / f"epsilon_{r['value']}"
            rep = r["replicate"]
            digests.append(hashlib.sha256(
                (vdir / f"run_{rep}_qtable.csv").read_bytes()).hexdigest())
            for ep in read_csv(vdir / f"run_{rep}_convergence.csv"):
                steps += int(ep["epochs"])
                early += int(ep["terminated_early"])
        snapshot = json.loads((out / "config_snapshot.json").read_text())
        return {"rows": rows, "digests": digests, "steps": steps, "early": early,
                "grid": snapshot["grid"]}

    def check(self, k, raw) -> list[str]:
        try:
            if raw["code"] != 0:
                return [f"sweep exited {raw['code']}: {raw['stderr'].strip()}"]
            got = self.parse(raw)
        except (OSError, ValueError, KeyError) as exc:
            return [f"sweep outputs unreadable: {exc}"]
        finally:
            self.finish_dir(raw)
        raw["items"] = got["steps"]
        self.counts.update(steps=got["steps"], early_terminations=got["early"])
        fails = []
        if self.grid_ref is not None and got["grid"] != self.grid_ref["params"]:
            fails.append("sweep grid differs from the stored oracle map's")
        values = sorted({r["value"] for r in got["rows"]}, key=float)
        for r in got["rows"]:
            vi, rep = values.index(r["value"]), int(r["replicate"])
            if int(r["seed"]) != replicate_seed(self.seed, vi, rep):
                fails.append(f"replicate {r['value']}/{rep}: unexpected seed")
            if self.grid_ref is not None:
                fails += self.check_against_grid(r)
        if self.ref is not None:
            ref_rows = [[x["best_power_w"], x["best_speed_mmpm"], x["oracle_rank"]]
                        for x in got["rows"]]
            if ref_rows != self.ref["best"]:
                fails.append("best states or oracle ranks differ from reference")
        reference = self.ref["qtable_sha256"] if self.ref is not None else self.first_digests
        if self.first_digests is None:
            self.first_digests = got["digests"]
        if reference is not None:
            self.counts["qtable_bitident"] = sum(
                a == b for a, b in zip(got["digests"], reference))
        return fails[:5]

    def check_against_grid(self, row: dict) -> list[str]:
        """The replicate's best depth and oracle rank against the stored
        brute-force map of the default grid."""
        grid = self.grid_ref["params"]
        n = grid["n"]
        i = round((float(row["best_power_w"]) - grid["p_min_w"])
                  / (grid["p_max_w"] - grid["p_min_w"]) * (n - 1))
        j = round((float(row["best_speed_mmpm"]) - grid["v_min_mmpm"])
                  / (grid["v_max_mmpm"] - grid["v_min_mmpm"]) * (n - 1))
        ref_depth = self.grid_ref["depth"][i][j]
        dev = abs(float(row["best_depth_mm"]) - ref_depth)
        self.note_dev(dev)
        if dev > DEPTH_TOL_MM or int(row["oracle_rank"]) != self.grid_ref["rank"][i][j]:
            return [f"replicate {row['value']}/{row['replicate']}: best state "
                    f"({i},{j}) depth/rank disagree with the oracle map"]
        return []


WORKLOADS = {w.name: w for w in (GridMap, DepthScatter, TrainSweep)}
