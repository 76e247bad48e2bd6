"""Run every workload untraced and traced and print all metrics.

    python3 perfbench/report.py --seed 0 --seconds 50

One table of the end-to-end metrics (from the untraced runs) and one of
the per-layer metrics (from the traced runs), by workload, with units.
Each run is a plain ``run.py`` invocation, so its ``result.json`` under
``.perfbench_out/`` holds the details.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(title: str, results: dict[str, dict]) -> None:
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{title}")
    print(f"{'metric':36s} {'unit':6s}" + "".join(f"{w:>16s}" for w in results))
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        cells = "".join(f"{r['metrics'][name]['value']:>16.6g}" for r in results.values())
        print(f"{name:36s} {unit:6s}{cells}")
    print(f"{'correct / failed / attempted':43s}" + "".join(
        f"{str(r['correct']) + ' ' + str(r['failed']) + '/' + str(r['attempted']):>16s}"
        for r in results.values()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["workloads"]]
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per layer (traced)")):
        table(title, {w: run(w, args.seed, args.seconds, trace) for w in workloads})
    return 0


if __name__ == "__main__":
    sys.exit(main())
