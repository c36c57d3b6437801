"""Benchmark of the lindbladsde command line, run from the repository root.

    python3 perfbench/run.py --workload sde-qubit-long --seed 1 --seconds 55 --trace 0

One process is a closed-loop client with one outstanding operation: it calls
`lindbladsde.cli.main(argv)` in-process and starts each operation after the
previous one returns. The workload is built from `--seed` only. Operations
run for `--seconds`; every output is checked (see checks.py), and the CSV
bytes must repeat across operations and match the digest baseline.json
records for the seed (see `cross_run_identity`).

With `--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics from spans around the package's public
functions (see spans.py). The line before it is a JSON record of the run:
environment, samples, percentiles and problems found.

Tests of the benchmark's own code: `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the CLI's chunk pool already uses both cores of
# the reference machine, and BLAS threads on top would oversubscribe them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
BASELINE = BENCH_DIR / "baseline.json"
# Fresh-interpreter set-up probes after each untraced operation, so that
# set-up is sampled all through the run, not in one burst at its start.
SETUP_PROBES_PER_OP = 2

SETUP_CHILD = (
    "import sys\n"
    "import lindbladsde.cli as cli\n"
    "cli.parse_model(sys.argv[1])\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)

END_TO_END = {
    "setup_s": "s",
    "op_wall_s": "s",
    "traj_steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# name -> (unit, source); a (function, field) source reads the span totals.
PER_LAYER = {
    "cli.main.self_s": ("s", ("cli.main", "self_s")),
    "cli.csv_bytes": ("B", "csv_bytes"),
    "cli.parse_model.s": ("s", ("cli.parse_model", "s")),
    "unraveling.run_ensemble.s": ("s", ("unraveling.run_ensemble", "s")),
    "unraveling.run_ensemble.self_s": ("s", ("unraveling.run_ensemble", "self_s")),
    "unraveling.trajectory_rng.calls": ("count", ("unraveling.trajectory_rng", "calls")),
    "unraveling.trajectory_rng.s": ("s", ("unraveling.trajectory_rng", "s")),
    "unraveling.sample_increments.calls": ("count", ("unraveling.sample_increments", "calls")),
    "unraveling.sample_increments.s": ("s", ("unraveling.sample_increments", "s")),
    "unraveling.stochastic_unitary_step.calls":
        ("count", ("unraveling.stochastic_unitary_step", "calls")),
    "unraveling.stochastic_unitary_step.s": ("s", ("unraveling.stochastic_unitary_step", "s")),
    "unraveling.increment_bytes": ("B", "increment_bytes"),
    "lindblad.integrate_ode.s": ("s", ("lindblad.integrate_ode", "s")),
    "lindblad.lindblad_rhs.calls": ("count", ("lindblad.lindblad_rhs", "calls")),
    "lindblad.lindblad_rhs.s": ("s", ("lindblad.lindblad_rhs", "s")),
    "lindblad.drift_operator.calls": ("count", ("lindblad.drift_operator", "calls")),
    "lindblad.validate_model.s": ("s", ("lindblad.validate_model", "s")),
    "lindblad.check_step_size.s": ("s", ("lindblad.check_step_size", "s")),
    "operators.hermitian_part.calls": ("count", ("operators.hermitian_part", "calls")),
    "operators.hermitian_part.s": ("s", ("operators.hermitian_part", "s")),
    "operators.adjoint.calls": ("count", ("operators.adjoint", "calls")),
    "operators.adjoint.s": ("s", ("operators.adjoint", "s")),
    "ito.derive_stochastic_evolution.s": ("s", ("ito.derive_stochastic_evolution", "s")),
    "ito.ito_mul.calls": ("count", ("ito.ito_mul", "calls")),
    "channels.build_infinitesimal_kraus.s": ("s", ("channels.build_infinitesimal_kraus", "s")),
    "channels.choi_of.s": ("s", ("channels.choi_of", "s")),
    "trace.overhead_frac": ("ratio", "overhead"),
}
COMPUTED = ("unraveling.increment_bytes",)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class OpRecord:
    wall: float
    solver: float
    ok_codes: bool
    digest: str
    csv_bytes: int
    traced: bool
    layers: dict = field(default_factory=dict)


class SolverTimer:
    """Times the CLI's calls into the solvers at the names cli looks up."""

    NAMES = ("run_ensemble", "integrate_ode")

    def __init__(self, cli):
        self.cli = cli
        self.elapsed = 0.0
        self.workers = None
        self.diagnostics = None  # EnsembleDiagnostics of the last run_ensemble call
        self._saved = {}

    def install(self):
        for name in self.NAMES:
            inner = self._saved[name] = getattr(self.cli, name)
            setattr(self.cli, name, self._timed(name, inner))

    def uninstall(self):
        for name, inner in self._saved.items():
            setattr(self.cli, name, inner)
        self._saved.clear()

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            if "workers" in kwargs:
                self.workers = kwargs["workers"]
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.elapsed += time.perf_counter() - start
            if name == "run_ensemble":
                self.diagnostics = result[1]
            return result
        return timed


def sha256_file(path: Path) -> tuple[str, int]:
    digest, size = hashlib.sha256(), 0
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
            size += len(block)
    return digest.hexdigest(), size


def source_digest() -> str:
    """Hash of the package and benchmark sources and the numpy version."""
    import numpy as np
    digest = hashlib.sha256(np.__version__.encode())
    for base in (SRC / "lindbladsde", BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(base)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    """HEAD of the checkout when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment(workers) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        vendor = None
    return {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": vendor,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cli_workers": workers,
        "commit": commit(),
        "source_sha256": source_digest(),
        "load": "closed loop, 1 client",
    }


def setup_probe(model_arg: str) -> float:
    """Seconds from spawning a fresh interpreter until `import lindbladsde`
    and `cli.parse_model` are done."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, model_arg], cwd=ROOT,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed (exit {code})")
    return elapsed


def percentile_report(samples: list[float]) -> dict:
    """Median plus the highest of the 50/75/90/95/99th percentiles that
    still has at least ten samples above it."""
    ordered = sorted(samples)
    report = {"n": len(ordered), "median": statistics.median(ordered)}
    for p in (99, 95, 90, 75, 50):
        value = ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]  # nearest rank
        beyond = sum(1 for x in ordered if x > value)
        if beyond >= 10:
            report.update(percentile=p, value=value, beyond=beyond)
            break
    return report


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = WORK / f"{workload.name}-{os.getpid()}"
        self.records: list[OpRecord] = []
        self.problems: list[str] = []

    def start(self) -> None:
        """Import the package and derive the workload's inputs from the seed."""
        sys.path.insert(0, str(SRC))
        import lindbladsde
        from lindbladsde import channels, cli, ito, lindblad, operators, presets, unraveling
        import spans
        self.cli = cli
        self.timer = SolverTimer(cli)
        self.tracer = spans.Tracer()
        self.modules = (lindbladsde, (cli, lindblad, unraveling, operators, ito, channels,
                                      presets))
        self.spans = spans

        self.workdir.mkdir(parents=True, exist_ok=True)
        self.workload.prepare(self.seed, self.workdir, presets.preset_model,
                              unraveling._CHUNK_TRAJECTORIES)

    def run(self) -> dict:
        self.start()
        setup = []
        first = None
        deadline = time.perf_counter() + self.seconds
        traced_next = False
        while True:
            record, results = self.operation(traced_next)
            if first is None:
                first = results
                self.keep_outputs()
            self.records.append(record)
            if self.trace:
                traced_next = not traced_next
            else:
                setup += [setup_probe(self.workload.model_arg)
                          for _ in range(SETUP_PROBES_PER_OP)]
            typical = statistics.median(r.wall for r in self.records)
            if time.perf_counter() + typical > deadline and (
                    not self.trace or len(self.records) >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.failed = self.judge(first)
        return self.report(setup, peak_rss_mb)

    def operation(self, traced: bool):
        """Run the calls of one operation; returns its record and results."""
        from workloads import CallResult
        for call in self.workload.calls:
            if call.out is not None:  # a call that writes nothing must not pass on old bytes
                call.out.unlink(missing_ok=True)
        if traced:
            self.tracer.op += 1
            self.tracer.install(*self.modules)
        self.timer.elapsed = 0.0
        self.timer.install()
        results = []
        start = time.perf_counter()
        try:
            for call in self.workload.calls:
                out, err = io.StringIO(), io.StringIO()
                self.timer.diagnostics = None
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = self.cli.main(call.argv)
                except Exception:  # an operation that raises counts as failed
                    code = None
                    err.write(traceback.format_exc())
                results.append(CallResult(call, code, out.getvalue(), err.getvalue(),
                                          self.timer.diagnostics))
            wall = time.perf_counter() - start
        finally:
            self.timer.uninstall()
            if traced:
                self.tracer.uninstall()
        digest, csv_bytes = hashlib.sha256(), 0
        for r in results:
            if r.call.out is not None and r.call.out.is_file():
                file_digest, size = sha256_file(r.call.out)
                digest.update(file_digest.encode())
                csv_bytes += size
            else:
                digest.update(b"missing")
        record = OpRecord(wall=wall, solver=self.timer.elapsed,
                          ok_codes=all(r.code == 0 for r in results),
                          digest=digest.hexdigest(), csv_bytes=csv_bytes, traced=traced)
        if traced:
            record.layers = self.spans.layer_totals(self.tracer.take())
        return record, results

    def keep_outputs(self) -> None:
        """Move the first operation's files aside; later ones overwrite theirs."""
        for call in self.workload.calls:
            if call.out is not None and call.out.is_file():
                call.out.replace(call.out.with_name("first-" + call.out.name))

    def judge(self, first) -> int:
        """Check the first operation fully; later ones must repeat its bytes."""
        for r in first:
            kept = r.call.out.with_name("first-" + r.call.out.name) if r.call.out else None
            r.data = kept.read_bytes() if kept is not None and kept.is_file() else None
        self.problems += self.workload.check(first)
        self.first_stderr = "".join(r.stderr for r in first)[-2000:]
        reference = self.records[0].digest
        self.problems += self.cross_run_identity(reference)
        if self.problems:
            return len(self.records)
        bad = [r for r in self.records if not r.ok_codes or r.digest != reference]
        if bad:
            self.problems.append(f"{len(bad)} operations differ from the first one")
        return len(bad)

    def cross_run_identity(self, digest: str) -> list[str]:
        """Outputs must be byte-identical to those of any run with this seed.

        baseline.json records the digest of every seed it was measured on
        and of seeds 0-63, together with the numpy version that made them;
        under that numpy a run must reproduce the recorded digest, whatever
        the source. A seed it does not list is held to the first run with
        that seed in this checkout.
        """
        import numpy as np
        baseline = json.loads(BASELINE.read_text())
        if baseline["env"]["numpy"] == np.__version__:
            recorded = baseline["workloads"].get(self.workload.name, {}).get(
                "csv_sha256_by_seed", {})
            if str(self.seed) in recorded:
                if recorded[str(self.seed)] != digest:
                    return ["CSV bytes differ from those baseline.json records for this seed"]
                return []
        store = WORK / "csv_sha256.json"
        key = f"{self.workload.name}|{self.seed}|{np.__version__}"
        try:
            known = json.loads(store.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            known = {}
        if key in known:
            if known[key] != digest:
                return ["CSV bytes differ from an earlier run with the same seed"]
            return []
        known[key] = digest
        scratch = store.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps(known, indent=0, sort_keys=True))
        scratch.replace(store)
        return []

    def report(self, setup, peak_rss_mb) -> dict:
        plain = [r for r in self.records if not r.traced]
        walls = [r.wall for r in plain]
        detail = {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "env": environment(self.timer.workers),
            "op_wall_s": percentile_report(walls),
            "op_wall_samples": walls,
            "failed_frac": self.failed / len(self.records),
            "csv_sha256": self.records[0].digest,
            "problems": self.problems[:20],
        }
        if self.problems:
            detail["first_op_stderr_tail"] = self.first_stderr
        if self.trace:
            traced = [r for r in self.records if r.traced]
            overhead = (statistics.median(r.wall for r in traced) / statistics.median(walls)
                        - 1.0)
            metrics = {}
            for name, (unit, source) in PER_LAYER.items():
                values = [self.layer_value(r, source, overhead) for r in traced]
                metrics[name] = {"value": statistics.median(values), "unit": unit}
            detail["traced_ops"] = len(traced)
            detail["computed"] = list(COMPUTED)
        else:
            solver = sum(r.solver for r in plain)
            values = {
                "setup_s": statistics.median(setup),
                "op_wall_s": statistics.median(walls),
                "traj_steps_per_s": (self.workload.traj_steps * len(plain) / solver
                                     if solver > 0 else 0.0),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
            detail["setup_s_samples"] = setup
        detail["metrics"] = metrics
        return detail

    def layer_value(self, record: OpRecord, source, overhead: float) -> float:
        if source == "csv_bytes":
            return record.csv_bytes
        if source == "increment_bytes":
            return self.workload.increment_bytes
        if source == "overhead":
            return overhead
        function, key = source
        return record.layers.get(function, {}).get(key, 0)


def print_summary(detail: dict, attempted: int, failed: int) -> None:
    name = detail["workload"]
    for metric, entry in detail["metrics"].items():
        print(f"{name}  {metric:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"{name}  {'failed_frac':40s} {detail['failed_frac']:.6g} ratio "
          f"({failed} of {attempted} operations)")
    wall = detail["op_wall_s"]
    if "percentile" in wall:
        print(f"{name}  op_wall_s p{wall['percentile']} {wall['value']:.6g} s "
              f"({wall['beyond']} samples beyond, n={wall['n']})")
    else:
        print(f"{name}  op_wall_s: n={wall['n']}, no percentile has 10 samples beyond it")
    for problem in detail["problems"]:
        print(f"{name}  problem: {problem}")


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import make_workloads
    workloads = make_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "lindbladsde" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'lindbladsde'}; run from the repository root",
              file=sys.stderr)
        return 2

    bench = Bench(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        detail = bench.run()
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    attempted, failed = len(bench.records), bench.failed
    print_summary(detail, attempted, failed)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and not detail["problems"],
                      "attempted": attempted, "failed": failed,
                      "metrics": detail["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
