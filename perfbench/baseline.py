"""Measure the benchmark's baseline and write perfbench/baseline.json.

    python3 perfbench/baseline.py --machine "2-vCPU VM, 7.8 GiB RAM"

Run from the repository root, on an otherwise idle machine; it takes about
50 minutes. For every workload it makes ten `--trace 0` runs of
BENCHMARK.json's `run_seconds` with seeds 1001-1010, a second set with seeds
2001-2010 to show that the medians repeat, and three `--trace 1` runs. It
then records the CSV digest of seeds 0-63 from one operation each. run.py
holds later runs of those seeds, under the same numpy, to these digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys

import run
from workloads import make_workloads

FIRST_SET = range(1001, 1011)
SECOND_SET = range(2001, 2011)
TRACED = range(1101, 1104)
DIGEST_SEEDS = range(64)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The detail record of one run.py run; fails unless it was correct."""
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=180).stdout
    *_, detail, result = out.strip().split("\n")
    if not json.loads(result)["correct"]:
        raise SystemExit(f"{workload} seed {seed} was not correct:\n{out}")
    print(workload, seed, trace, json.loads(result)["metrics"], flush=True)
    return json.loads(detail)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def seed_digest(workload, seed: int) -> str:
    """The CSV digest of one checked operation at this seed."""
    bench = run.Bench(workload, seed, seconds=0.0, trace=False)
    try:
        bench.start()
        record, first = bench.operation(False)
        bench.records.append(record)
        bench.keep_outputs()
        if bench.judge(first) or bench.problems:
            raise SystemExit(f"{workload.name} seed {seed}: {bench.problems}")
        return record.digest
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)


def measure_set(name: str, seeds, seconds: int) -> tuple[dict, list[dict]]:
    details = [bench_run(name, seed, seconds, 0) for seed in seeds]
    end_to_end = {
        metric: {"unit": unit, **spread([d["metrics"][metric]["value"] for d in details])}
        for metric, unit in run.END_TO_END.items()}
    return end_to_end, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--machine", required=True, help="the hardware, in words")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    out = {
        "what": ("Baseline of the package measured with this benchmark. Each end-to-end "
                 "entry is over ten --trace 0 runs with distinct seeds (median and "
                 "quartiles of the per-run values, spread = (q3 - q1) / median); each "
                 "per-layer entry is the median over three --trace 1 runs. Every run was "
                 "correct, so no operation failed. csv_sha256_by_seed holds the CSV "
                 "digest of each seed, under env.numpy."),
        "run_seconds": seconds,
        "machine": args.machine,
        "workloads": {},
        "repeat_set": {"what": "A second set of ten --trace 0 runs per workload, right "
                               "after the first on the same code, to show that the "
                               "medians repeat within the bounds.",
                       "workloads": {}},
    }
    digests = {name: {} for name in names}
    for name in names:
        end_to_end, details = measure_set(name, FIRST_SET, seconds)
        traced = [bench_run(name, seed, seconds, 1) for seed in TRACED]
        out["env"] = details[0]["env"]
        out["workloads"][name] = {
            "end_to_end": end_to_end,
            "seeds_trace0": list(FIRST_SET),
            "attempted_trace0": sum(d["op_wall_s"]["n"] for d in details),
            "op_wall_s_per_run": [d["op_wall_s"] for d in details],
            "per_layer": {
                metric: {"unit": unit,
                         "median": statistics.median(d["metrics"][metric]["value"]
                                                     for d in traced)}
                for metric, (unit, _) in run.PER_LAYER.items()},
            "seeds_trace1": list(TRACED),
            "attempted_trace1": sum(d["op_wall_s"]["n"] + d["traced_ops"] for d in traced),
        }
        for d in details + traced:
            digests[name][str(d["seed"])] = d["csv_sha256"]
    for name in names:
        repeat, details = measure_set(name, SECOND_SET, seconds)
        first = out["workloads"][name]["end_to_end"]
        for metric, entry in repeat.items():
            entry["change_vs_first_set"] = entry["median"] / first[metric]["median"] - 1.0
        out["repeat_set"]["workloads"][name] = {
            "end_to_end": repeat, "seeds": list(SECOND_SET),
            "attempted": sum(d["op_wall_s"]["n"] for d in details)}
        for d in details:
            digests[name][str(d["seed"])] = d["csv_sha256"]

    workloads = make_workloads()
    for name in names:
        for seed in DIGEST_SEEDS:
            digests[name][str(seed)] = seed_digest(workloads[name], seed)
        out["workloads"][name]["csv_sha256_by_seed"] = dict(
            sorted(digests[name].items(), key=lambda kv: int(kv[0])))
    run.BASELINE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
