"""meltpool-rl benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload grid_map --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``; nothing needs installing.  The run starts three fresh
interpreters that each import the package and write the workload's
inputs; ``setup_s`` is their median time from process start to ready.
The second goes on to measure, so the set-up samples bracket the
measurement.  With ``--trace 0`` the
result holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  Everything the run writes goes under
``.perfbench_out/`` in the checkout, including a result file with the
run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid_map", "depth_scatter", "train_sweep")
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
              ("latency_ms_p50", "ms"), ("latency_ms_p90", "ms"),
              ("peak_rss_mb", "MB")]
SETUP_BEFORE = SETUP_AFTER = 1
DEADLINE_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(argv: list[str], deadline: float) -> dict:
    """Run a worker in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True, cwd=ROOT)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed("worker exceeded the time limit") from None
    if proc.returncode != 0 or not stdout.strip():
        raise ChildFailed(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "meltpool_rl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "meltpool_rl" / "cli.py").is_file():
        print(f"perfbench: no meltpool_rl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    out = ROOT / ".perfbench_out" / tag
    shutil.rmtree(out, ignore_errors=True)  # outputs of an earlier, maybe killed, run
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]

    def setup_time(argv: list[str]) -> tuple[float, dict]:
        t0 = time.monotonic()
        res = run_child(common + argv, deadline)
        return res["ready"] - t0, res

    try:
        setup = [setup_time(["--setup-only", "--out", str(out / f"setup{i}")])[0]
                 for i in range(SETUP_BEFORE)]
        ready, res = setup_time(["--out", str(out / "run"), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)])
        setup.append(ready)
        setup += [setup_time(["--setup-only", "--out", str(out / f"setup{i}")])[0]
                  for i in range(SETUP_BEFORE, SETUP_BEFORE + SETUP_AFTER)]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = res["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup), **res["end_to_end"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    line = {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}

    record = {
        **line,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "failures": res["failures"],
        "samples": {**res["samples"], "setup_s": len(setup)},
        "setup_samples_s": setup,
        "workload_counts": res["workload_counts"],
        "ops": res["ops"],
        "provenance": {
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            **res["versions"], "git_commit": git_commit(),
            "source_sha256": source_sha256(), "platform": platform.platform(),
        },
    }
    if args.trace:
        record["spans_file"] = res["spans_file"]
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
