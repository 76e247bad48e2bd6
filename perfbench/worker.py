"""One measured process of the benchmark (started by run.py).

Imports the package from the checkout's ``src``, builds the workload's
inputs (that is the set-up) and reports when it is ready.  Unless
``--setup-only`` is given it then runs closed-loop operations for
``--seconds`` seconds, checks every output and prints one JSON object
as its last line.  With ``--trace 1`` operations run in pairs on the
same inputs, one untraced and one traced, in alternating order, so the
tracing overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import meltpool_rl  # noqa: E402

if not Path(meltpool_rl.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: meltpool_rl imported from outside {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_op(wl, k: int, tracer=None) -> tuple[dict, list[str], dict]:
    """One operation, then its output check (outside the timed region)."""
    cpu0 = children_cpu_s()
    if tracer is not None:
        tracer.reset(k)
        tracer.install()
    try:
        raw = wl.op(k)
    finally:
        if tracer is not None:
            tracer.uninstall()
    layer = tracer.op_metrics(raw["wall"]) if tracer is not None else {}
    layer["thermal.pool_cpu_share"] = (children_cpu_s() - cpu0) / raw["wall"]
    try:
        fails = wl.check(k, raw)
    except Exception as exc:  # a broken output must not stop the run
        fails = [f"check of op {k} raised {exc!r}"]
    return raw, fails, layer


def measure(wl, seconds: float, traced: bool) -> dict:
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
    ops, layers, overhead, failures = [], [], [], []
    attempted = failed = 0
    t_end = time.perf_counter() + seconds
    k = 0
    while True:
        order = [None]
        if traced:
            order = [None, tracer] if k % 2 == 0 else [tracer, None]
        walls = {}
        for tr in order:
            raw, fails, layer = run_op(wl, k, tr)
            ops.append({"op": k, "traced": tr is not None, "wall_s": raw["wall"],
                        "items": raw["items"]})
            if tr is None:
                ops[-1]["latencies"] = raw["latencies"]
            else:
                layer.update({f"cli.{c}": wl.counts[c]
                              for c in ("files_written", "bytes_written")})
                layer["qlearn.qtable_bitident"] = wl.counts["qtable_bitident"]
                layers.append(layer)
            walls[tr is not None] = raw["wall"]
            attempted += raw["attempted"]
            failed += min(len(fails), raw["attempted"])
            failures += fails
        if traced:
            overhead.append(walls[True] - walls[False])
        k += 1
        if time.perf_counter() >= t_end:
            break
    failures += wl.final_checks()
    return {"ops": ops, "layers": layers, "overhead": overhead,
            "attempted": attempted, "failed": failed, "failures": failures,
            "spans": tracer.spans if tracer is not None else []}


def end_to_end(ops: list[dict]) -> tuple[dict, dict]:
    plain = [o for o in ops if not o["traced"]]
    walls = [o["wall_s"] for o in plain]
    lat_ms = [1e3 * x for o in plain for x in o["latencies"]]
    p50, p90 = np.percentile(lat_ms, [50, 90])
    metrics = {
        "wall_s": statistics.median(walls),
        "items_per_s": sum(o["items"] for o in plain) / sum(walls),
        "latency_ms_p50": float(p50),
        "latency_ms_p90": float(p90),
    }
    samples = {"wall_s": len(walls), "items_per_s": sum(o["items"] for o in plain),
               "latency_ms_p50": len(lat_ms), "latency_ms_p90": len(lat_ms),
               "latency_samples_beyond_p90": int(sum(x > p90 for x in lat_ms))}
    return metrics, samples


def per_layer(result: dict, counts: dict) -> dict:
    """Counts from the first traced operation (they repeat exactly), times
    and time shares as the median over traced operations; with units."""
    from spans import PER_LAYER
    timed = {name for name, unit, _ in PER_LAYER
             if unit == "s" or name.endswith("_share")}
    first = result["layers"][0]
    metrics = {}
    for name, value in first.items():
        if name in timed:
            value = statistics.median(layer[name] for layer in result["layers"])
        metrics[name] = value
    metrics["thermal.max_depth_dev_mm"] = counts["max_depth_dev_mm"]
    metrics["trace.overhead_s"] = statistics.median(result["overhead"])
    return {name: {"value": metrics[name], "unit": unit} for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--out", required=True, help="scratch directory for outputs")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.size, Path(args.out))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result = measure(wl, args.seconds, bool(args.trace))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    e2e, samples = end_to_end(result["ops"])
    e2e["peak_rss_mb"] = (self_kb + child_kb) / 1024.0
    out = {
        "ready": ready,
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"][:20],
        "end_to_end": e2e,
        "samples": samples,
        "per_layer": per_layer(result, wl.counts) if args.trace else {},
        "workload_counts": wl.counts,
        "ops": [{k: v for k, v in o.items() if k != "latencies"} for o in result["ops"]],
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        spans_path = Path(args.out) / "spans.json"
        spans_path.write_text(json.dumps(
            [dict(zip(("op", "id", "parent", "name", "start", "end"), s))
             for s in result["spans"]]))
        out["spans_file"] = str(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
