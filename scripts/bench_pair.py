"""Benchmark a base commit against the working tree, in alternating pairs.

For each workload, runs `perfbench/run.py --trace 0` with one seed on the
base commit and on the working tree, alternating which side goes first
from pair to pair, so that a slow spell of the machine falls on both
sides alike. Every workload gets 10 pairs of runs, each as long as
`run_seconds` in BENCHMARK.json. Writes every run's end-to-end metrics
and `correct` flag, the per-side medians and quartiles, the change/base
ratio of the medians, each run's 1-, 5- and 15-minute load averages
from just before and just after it, and each side's `source_sha256`
(perfbench's digest of the package and benchmark sources) to one JSON
file, together with the command that reproduces it, base commit
resolved. Each end-to-end metric of each workload also gets the base's
quartile spread, the gap between the medians and a verdict, see
`verdict`; the load averages are recorded only, and the verdict does not
read them.

    python3 scripts/bench_pair.py --workload sde-qubit-long sde-qubit-wide \\
        --seed 1001 --base HEAD~1 --out BENCH_4.json

Run it from anywhere inside the repository. The base commit (default
HEAD, the parent of uncommitted work) is extracted with `git archive`
into a temporary directory, and the working tree's files, tracked or
untracked but not ignored, are copied into another; both are removed
afterwards, and the repository's own git metadata is only read. So both
sides run from the same kind of fresh directory, with no bytecode cache:
run from the repository itself, whose `.pyc` files spare the set-up probe
compiling the package, the working tree read a one-sided 7 % faster
`setup_s` than an identical base. Edits to the working tree after the
copy do not reach the run, and a run whose sources changed midway is
refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(commit: str, target: Path) -> None:
    """Write the tree of commit into target."""
    with subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                          stdout=subprocess.PIPE) as archive:
        subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout, check=True)
    if archive.returncode != 0:
        raise RuntimeError(f"git archive {commit} failed")


def copy_working_tree(target: Path) -> None:
    """Copy the working tree's files, tracked or untracked but not ignored, into target."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is listed too
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, target / name)


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; returns its result line plus the run's environment.

    load holds os.getloadavg() read just before and just after the run, so
    a pair that ran in a loaded spell of the machine can be told apart.
    """
    load_before = os.getloadavg()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    load_after = os.getloadavg()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"perfbench/run.py failed in {checkout} "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "load": {"before": list(load_before), "after": list(load_after)},
        "env": detail["env"],
    }


def same_source(side: dict, env: dict) -> None:
    """Record the side's source digest; refuse a run whose sources changed."""
    digest = side.setdefault("source_sha256", env["source_sha256"])
    if digest != env["source_sha256"]:
        raise RuntimeError(f"sources changed during the benchmark: {digest} -> "
                           f"{env['source_sha256']}")


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    return {name: quartiles([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}


def verdict(base: list[float], change: list[float], better: str, bound: float,
            more_failures: bool = False) -> dict:
    """Judge one end-to-end metric of one workload from its paired runs.

    base[i] and change[i] are pair i; better is "lower" or "higher" and
    bound the relative regression bound from BENCHMARK.json. median_gap is
    how much better the change's median is than the base's, in the
    metric's unit, and base_iqr the distance between the base's quartiles.
    The verdict is "gain" when the change wins at least nine tenths of the
    pairs, ties counting for neither, its median_gap exceeds base_iqr and
    it fails no more operations than the base (more_failures false).
    Otherwise it is "unresolved" when either side's quartile spread is wider
    than the bound, unless every change run beats every base run;
    "regression" when the change's median is worse than the base's by more
    than the bound; and "no regression" else.
    """
    sign = -1.0 if better == "lower" else 1.0  # sign * value grows as it gets better
    base_q, change_q = quartiles(base), quartiles(change)
    gap = sign * (change_q["median"] - base_q["median"])
    base_iqr = base_q["q3"] - base_q["q1"]
    allowed = bound * abs(base_q["median"])
    won = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if won >= 0.9 * len(base) and gap > base_iqr and not more_failures:
        judged = "gain"
    elif (max(base_iqr, change_q["q3"] - change_q["q1"]) > allowed
          and min(sign * c for c in change) <= max(sign * b for b in base)):
        judged = "unresolved"
    elif -gap > allowed:
        judged = "regression"
    else:
        judged = "no regression"
    return {"base_iqr": base_iqr, "median_gap": gap, "pairs_won": won, "verdict": judged}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_4.json")
    args = parser.parse_args()

    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "command": " ".join(["python3", "scripts/bench_pair.py", "--workload",
                             *args.workload, "--seed", str(args.seed),
                             "--base", base_commit, "--out", args.out]),
        "base": {"commit": base_commit},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain"))},
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "workloads": {},
    }
    with (tempfile.TemporaryDirectory(prefix="bench-base-") as base_dir,
          tempfile.TemporaryDirectory(prefix="bench-change-") as change_dir):
        sides = {"base": Path(base_dir), "change": Path(change_dir)}
        extract(base_commit, sides["base"])
        copy_working_tree(sides["change"])
        for workload in args.workload:
            runs = {"base": [], "change": []}
            for pair in range(PAIRS):
                order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
                for side in order:
                    run = bench_run(sides[side], workload, args.seed, seconds)
                    same_source(record[side], run["env"])
                    record["env"] = {k: run["env"][k] for k in ("numpy", "python", "blas",
                                                                "blas_threads")}
                    runs[side].append({k: v for k, v in run.items() if k != "env"})
                    load = run["load"]
                    print(f"{workload} pair {pair} {side}: correct={run['correct']} "
                          + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
                          + f" load1={load['before'][0]:.2f}->{load['after'][0]:.2f}",
                          file=sys.stderr, flush=True)
            entry = {"seed": args.seed, "seconds": seconds, "pairs": PAIRS}
            for side, side_runs in runs.items():
                entry[side] = {"correct": all(r["correct"] for r in side_runs),
                               "summary": summarize(side_runs), "runs": side_runs}
            entry["change_over_base_median"] = {
                name: entry["change"]["summary"][name]["median"] / stats["median"]
                for name, stats in entry["base"]["summary"].items() if stats["median"]}
            more_failures = (sum(r["failed"] for r in runs["change"])
                             > sum(r["failed"] for r in runs["base"]))
            entry["verdict"] = {
                m["name"]: verdict([r["metrics"][m["name"]] for r in runs["base"]],
                                   [r["metrics"][m["name"]] for r in runs["change"]],
                                   m["better"], m["bound"], more_failures)
                for m in spec["end_to_end"]}
            record["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
