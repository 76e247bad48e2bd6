"""Paired A/B runs of one benchmark workload: a base revision against the
working tree.

    python bench/ab.py --base REV --workload W --pairs N [--seconds S] [--seed K] [--json PATH]

REV is unpacked with ``git archive`` into a temporary directory, and the
working tree is copied into a sibling one (its tracked and untracked
files, less those git ignores or that were deleted), so both sides run
from fresh copies; both are removed afterwards.  Each pair runs
``perfbench/run.py --trace 0`` once in each tree; pair k starts with the
base when k is even and with the change when k is odd.  S defaults to the
``run_seconds`` of ``BENCHMARK.json``.

For each end-to-end metric it prints the median and quartiles of both
sides, the change's wins, ties and losses over the pairs (the better
direction comes from ``BENCHMARK.json``), and the exact two-sided
sign-test p-value of the wins against the losses; ties count for neither
side.  It exits 1 if any run is not correct or has a failed operation.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value: the chance, with each side as
    likely to win a pair, of a split at least as uneven as this one."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def pair_order(pairs: int) -> list[tuple[str, str]]:
    """The order of the two runs in each pair, starting from the other
    side in turn."""
    return [SIDES if k % 2 == 0 else SIDES[::-1] for k in range(pairs)]


def compare(base: list[float], change: list[float], better: str) -> dict:
    """Both sides' medians and quartiles, and the change's wins, ties and
    losses over the pairs with their sign-test p-value."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change, strict=True))
    ties = sum(c == b for b, c in zip(base, change))
    losses = len(base) - wins - ties

    def spread(values):
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return {"median": median, "q1": q1, "q3": q3}

    return {"base": spread(base), "change": spread(change), "wins": wins, "ties": ties,
            "losses": losses, "p": sign_test_p(wins, losses)}


def copy_worktree(root: Path, dest: Path) -> None:
    """Copy the files of root's working tree that git tracks or would
    track (untracked, not ignored) into dest; a tracked file deleted from
    the working tree is skipped."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        if (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in tree; its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=seconds + 300)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", type=Path, help="write every run and the comparison here")
    args = ap.parse_args(argv)

    archive = subprocess.run(["git", "archive", "--format=tar", args.base], cwd=ROOT,
                             capture_output=True, check=True).stdout
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    order = pair_order(args.pairs)
    with tempfile.TemporaryDirectory(prefix="ab-base-") as base, \
            tempfile.TemporaryDirectory(prefix="ab-change-") as change:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base, filter="data")
        copy_worktree(ROOT, Path(change))
        trees = {"base": Path(base), "change": Path(change)}
        for k, sides in enumerate(order):
            for side in sides:
                runs[side].append(run(trees[side], args.workload, args.seed, args.seconds))
            print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    table = {}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs, "
          f"base {args.base} against the working tree")
    print(f"{'metric':16s} {'base median [q1, q3]':>32s} {'change median [q1, q3]':>32s}"
          f" {'ratio':>6s} {'win/tie/loss':>12s} {'p':>8s}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        row = table[name] = compare(values["base"], values["change"], metric["better"])
        cells = [f"{row[side]['median']:.6g} [{row[side]['q1']:.4g}, {row[side]['q3']:.4g}]"
                 for side in SIDES]
        ratio = row["change"]["median"] / row["base"]["median"]
        print(f"{name:16s} {cells[0]:>32s} {cells[1]:>32s} {ratio:6.3f} "
              f"{row['wins']:>4d}/{row['ties']}/{row['losses']:<4d} {row['p']:8.3g}")
    bad = [(side, k) for side in SIDES for k, r in enumerate(runs[side])
           if not r["correct"] or r["failed"] > 0]
    if args.json:
        args.json.write_text(json.dumps(
            {"base": args.base, "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "pairs": args.pairs, "order": order, "runs": runs,
             "metrics": table, "bad_runs": bad}, indent=1) + "\n")
    for side, k in bad:
        print(f"{side} run of pair {k + 1} is not correct or has failed operations",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
