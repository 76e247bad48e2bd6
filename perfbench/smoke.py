"""Smoke test of the benchmark itself (about a minute on two cores).

    python3 perfbench/smoke.py

Runs every workload once at the tiny size untraced and twice traced and
asserts that every metric of BENCHMARK.json appears with its unit, that
no operation fails on grid_map and train_sweep, and that the traced
counts repeat exactly for the same seed.  Then checks that the benchmark
refuses to run, without printing a result, in a directory that holds
only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180)


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}: "
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_units(res: dict, declared: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{what}: metrics {got} differ from BENCHMARK.json {want}")
    for name, m in res["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{what}: {name} is not a number")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in bench["workloads"]):
        plain = result(wl, 0)
        check_units(plain, bench["end_to_end"], f"{wl} untraced")
        if not plain["correct"] or plain["attempted"] < 1:
            raise AssertionError(f"{wl}: {plain}")
        if wl != "depth_scatter" and plain["failed"] != 0:
            raise AssertionError(f"{wl}: fail ratio {plain['failed']}/{plain['attempted']}")
        first, second = result(wl, 1), result(wl, 1)
        check_units(first, bench["per_layer"], f"{wl} traced")
        counts = [{n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"}
                  for r in (first, second)]
        if counts[0] != counts[1]:
            raise AssertionError(f"{wl}: traced counts differ between reruns: {counts}")
        print(f"{wl}: ok ({plain['attempted']} ops untraced, "
              f"{len(counts[0])} counts repeat)")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("grid_map", 0, root=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError("benchmark ran without the program's sources")
    print("bare directory: refused as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
