"""Benchmark a base commit against the working tree, in alternating pairs.

For each workload, runs `perfbench/run.py --trace 0` with one seed on the
base commit and on the working tree, alternating which side goes first
from pair to pair, so that a slow spell of the machine falls on both
sides alike. Every workload gets 10 pairs of runs, each as long as
`run_seconds` in BENCHMARK.json. Writes every run's end-to-end metrics
and `correct` flag, the per-side medians and quartiles, the change/base
ratio of the medians and each side's `source_sha256` (perfbench's digest
of the package and benchmark sources) to one JSON file, together with
the command that reproduces it, base commit resolved.

    python3 scripts/bench_pair.py --workload sde-qubit-long sde-qubit-wide \\
        --seed 1001 --base HEAD~1 --out BENCH_4.json

Run it from anywhere inside the repository. The base commit (default
HEAD, the parent of uncommitted work) is extracted with `git archive`
into a temporary directory that is removed afterwards; the repository's
own git metadata is only read. Leave the working tree alone while it
runs: a run whose sources changed midway is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
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


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; returns its result line plus the run's environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
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
        "env": detail["env"],
    }


def same_source(side: dict, env: dict) -> None:
    """Record the side's source digest; refuse a run whose sources changed."""
    digest = side.setdefault("source_sha256", env["source_sha256"])
    if digest != env["source_sha256"]:
        raise RuntimeError(f"sources changed during the benchmark: {digest} -> "
                           f"{env['source_sha256']}")


def summarize(runs: list[dict]) -> dict:
    names = runs[0]["metrics"]
    summary = {}
    for name in names:
        values = [r["metrics"][name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    return summary


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
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}

    def better(name, change, base):
        return change < base if directions[name] == "lower" else change > base

    record = {
        "command": " ".join(["python3", "scripts/bench_pair.py", "--workload",
                             *args.workload, "--seed", str(args.seed),
                             "--base", base_commit, "--out", args.out]),
        "base": {"commit": base_commit},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain",
                                                   "--untracked-files=no"))},
        "machine": {"platform": platform.platform(), "nproc": os.cpu_count()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_dir = Path(tmp)
        extract(base_commit, base_dir)
        sides = {"base": base_dir, "change": ROOT}
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
                    print(f"{workload} pair {pair} {side}: correct={run['correct']} "
                          + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                          file=sys.stderr, flush=True)
            entry = {"seed": args.seed, "seconds": seconds, "pairs": PAIRS}
            for side, side_runs in runs.items():
                entry[side] = {"correct": all(r["correct"] for r in side_runs),
                               "summary": summarize(side_runs), "runs": side_runs}
            entry["change_over_base_median"] = {
                name: entry["change"]["summary"][name]["median"] / stats["median"]
                for name, stats in entry["base"]["summary"].items() if stats["median"]}
            entry["pairs_change_better"] = {
                name: sum(better(name, c["metrics"][name], b["metrics"][name])
                          for b, c in zip(runs["base"], runs["change"]))
                for name in directions}
            record["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
