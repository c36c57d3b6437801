"""Tests of the benchmark's own code: python3 -m pytest perfbench

They import the package from ../src and run a few small CLI operations;
the repository's own test suite does not collect them.
"""

import json
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lindbladsde import lindblad, presets, unraveling  # noqa: E402
from lindbladsde.lindblad import LindbladModel, check_step_size, lindblad_rhs  # noqa: E402


def _span(name, parent, thread, start, end, segment=False):
    s = spans.Span(name, parent, thread, op=1, start=start, end=end, segment=segment)
    if segment:
        parent.segments.append(s)
    return s


def test_self_time_with_overlapping_children_on_two_threads():
    # Parent on thread A hands work to threads B and C; children overlap
    # each other on B and sit at both ends of the parent on A.
    a, b, c = 1, 2, 3
    parent = _span("p", None, a, 0.0, 10.0)
    seg_b = _span("p", parent, b, 1.0, 6.0, segment=True)
    seg_c = _span("p", parent, c, 2.0, 8.0, segment=True)
    kids = [
        _span("k1", seg_b, b, 2.0, 3.0),
        _span("k2", seg_b, b, 2.5, 4.0),   # overlaps k1: union [2, 4]
        _span("k3", seg_c, c, 3.0, 5.0),
        _span("k4", parent, a, 0.0, 0.5),
        _span("k5", parent, a, 9.0, 10.0),
    ]
    times = spans.span_times([parent, seg_b, seg_c, *kids])
    busy, self_time = times[parent]
    # Thread A waits while a segment runs, [1, 8]; it is busy on [0, 1] and [8, 10].
    assert busy == pytest.approx(3.0 + 5.0 + 6.0)
    assert self_time == pytest.approx((3.0 - 0.5 - 1.0) + (5.0 - 2.0) + (6.0 - 2.0))
    assert times[kids[0]] == (pytest.approx(1.0), pytest.approx(1.0))
    assert seg_b not in times

    totals = spans.layer_totals([parent, seg_b, seg_c, *kids])
    assert totals["p"]["calls"] == 1
    assert totals["p"]["s"] == pytest.approx(14.0)
    assert totals["p"]["self_s"] == pytest.approx(8.5)


def test_nested_same_name_spans_count_busy_time_once():
    outer = _span("f", None, 1, 0.0, 4.0)
    inner = _span("f", outer, 1, 1.0, 2.0)
    totals = spans.layer_totals([outer, inner])
    assert totals["f"] == {"calls": 2, "s": pytest.approx(4.0), "self_s": pytest.approx(4.0)}


def test_tracer_wraps_imported_names_and_pool_work():
    import lindbladsde
    from lindbladsde import channels, cli, ito, operators
    modules = (cli, lindblad, unraveling, operators, ito, channels, presets)
    original = lindblad.drift_operator
    tracer = spans.Tracer()
    tracer.install(lindbladsde, modules)
    try:
        assert unraveling.drift_operator is lindblad.drift_operator is not original
        assert cli.main is not None and hasattr(cli.parse_model, "__wrapped__")
        model = presets.preset_model("two-noise-correlated")
        rho0 = checks.uniform_superposition(2)
        unraveling.run_ensemble(model, rho0, 0.02, 0.01, 2 * 4096, seed=1, workers=2)
    finally:
        tracer.uninstall()
    assert lindblad.drift_operator is original is unraveling.drift_operator
    recorded = tracer.take()
    (ensemble,) = [s for s in recorded
                   if s.name == "unraveling.run_ensemble" and not s.segment]
    assert len(ensemble.segments) == 2
    assert {g.thread for g in ensemble.segments} != {threading.get_ident()}
    rngs = [s for s in recorded if s.name == "unraveling.trajectory_rng"]
    assert len(rngs) == 2 * 4096
    assert all(spans.owner(s.parent) is ensemble for s in rngs)
    totals = spans.layer_totals(recorded)
    assert totals["lindblad.drift_operator"]["calls"] == 2 * 2
    assert 0 < totals["unraveling.run_ensemble"]["self_s"] < totals["unraveling.run_ensemble"]["s"]


@pytest.mark.parametrize("seed", range(40))
def test_qudit_generator_gives_valid_rank_two_models(seed):
    payload = workloads.qudit_model(seed)
    assert json.loads(json.dumps(payload)) == payload
    h, ops, w, c = workloads.model_arrays(payload)
    model = LindbladModel(hamiltonian=h, lindblad_ops=ops, weights=w, covariance=c)
    assert model.dim == workloads.QUDIT_DIM and model.noise_count == workloads.QUDIT_NOISES
    eigenvalues = np.linalg.eigvalsh(c)
    assert np.count_nonzero(eigenvalues > 1e-10) == workloads.QUDIT_RANK
    assert np.all(eigenvalues > -1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_step_size(model, workloads.QUDIT_DT)
    assert workloads.qudit_model(seed) == payload


def test_reference_generator_matches_the_master_equation():
    rng = np.random.default_rng(5)
    h, ops, w, c = workloads.model_arrays(workloads.qudit_model(7))
    model = LindbladModel(hamiltonian=h, lindblad_ops=ops, weights=w, covariance=c)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = g @ g.conj().T
    generator = checks.generator_matrix(h, ops)
    assert np.allclose(generator @ rho.reshape(-1), lindblad_rhs(model, rho).reshape(-1),
                       atol=1e-10)
    eigenvalues, vectors = np.linalg.eig(generator * 0.1)
    spectral = vectors @ np.diag(np.exp(eigenvalues)) @ np.linalg.inv(vectors)
    assert np.allclose(checks.expm(generator * 0.1), spectral, atol=1e-10)
    assert checks.trajectory_trace_preserving(
        np.array(presets.preset_model("two-noise-correlated").lindblad_ops),
        np.array([0.5 ** 0.5] * 2), np.ones((2, 2)))
    assert not checks.trajectory_trace_preserving(ops, w, c)


class SmallSde(workloads.SdeWorkload):
    def __init__(self):
        super().__init__("small", preset="two-noise-correlated",
                         trajectories=512, dt=0.01, steps=10, record_every=5,
                         stepper="euler")


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", HERE.parent / "src")
    monkeypatch.setattr(run, "WORK", tmp_path)
    b = run.Bench(SmallSde(), seed=4, seconds=1.0, trace=False)
    b.start()
    return b


def _run_ops(bench, count):
    first = None
    for _ in range(count):
        record, results = bench.operation(False)
        bench.records.append(record)
        if first is None:
            first = results
            bench.keep_outputs()
    return first


def _corrupt_one_entry(path: Path):
    lines = path.read_text().split("\n")
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) + 0.25)
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines))


def test_clean_operations_pass(bench):
    first = _run_ops(bench, 2)
    assert bench.judge(first) == 0 and bench.problems == []


def test_corrupted_csv_entry_fails_the_operation(bench):
    first = _run_ops(bench, 1)
    _corrupt_one_entry(bench.workdir / "first-small.csv")
    assert bench.judge(first) == 1
    assert any("stderr" in p for p in bench.problems)


def test_operation_whose_bytes_differ_from_the_first_fails(bench):
    first = _run_ops(bench, 3)
    bench.records[1].digest = "0" * 64
    assert bench.judge(first) == 1


def test_nonfinite_and_unreadable_entries_are_problems():
    sde = SmallSde()
    sde.prepare(4, Path("."), presets.preset_model, 4096)
    good_rows = [f"{t!r}," + ",".join(["0.5", "0.0"] * 4) + ",1.0,0.0,1.0,0.1"
                 for t in (0.0, 0.05, 0.1)]
    header = ",".join(["time"] + [f"rho_{i}_{j}_{p}" for i in range(2) for j in range(2)
                                  for p in ("re", "im")]
                      + ["trace_re", "min_eigenvalue", "purity", "stderr"])
    for bad in ("nan", "x1"):
        rows = list(good_rows)
        rows[1] = rows[1].replace("0.5", bad, 1)
        data = ("\n".join([header, *rows]) + "\n").encode()
        assert checks.check_sde_csv(data, sde.reference, sde.dt_record)


def test_cross_run_identity_is_keyed_by_seed(bench):
    assert bench.cross_run_identity("a" * 64) == []
    assert bench.cross_run_identity("a" * 64) == []
    assert bench.cross_run_identity("b" * 64)
    bench.seed = 5
    assert bench.cross_run_identity("b" * 64) == []


def test_cross_run_identity_holds_recorded_seeds_to_baseline(bench, tmp_path, monkeypatch):
    import numpy as np
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "env": {"numpy": np.__version__},
        "workloads": {"small": {"csv_sha256_by_seed": {"4": "c" * 64}}}}))
    monkeypatch.setattr(run, "BASELINE", baseline)
    assert bench.cross_run_identity("c" * 64) == []
    assert bench.cross_run_identity("d" * 64)


def test_recorded_digests_repeat_on_the_seed_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    seed = 0
    for workload in workloads.make_workloads().values():
        b = run.Bench(workload, seed=seed, seconds=0.0, trace=False)
        b.start()
        record, first = b.operation(False)
        b.records.append(record)
        b.keep_outputs()
        assert b.judge(first) == 0 and b.problems == []
        recorded = json.loads(run.BASELINE.read_text())["workloads"][workload.name]
        assert recorded["csv_sha256_by_seed"][str(seed)] == record.digest


@pytest.mark.parametrize("drift", [1e-7, -2e-9])
def test_trace_drift_beyond_tolerance_is_a_problem(drift):
    ok = unraveling.EnsembleDiagnostics(trace_min=1.0 - 1e-15, trace_max=1.0 + 1e-15,
                                        min_eigenvalue=0.0)
    assert checks.check_trace_extremes(ok) == []
    bad = unraveling.EnsembleDiagnostics(trace_min=1.0, trace_max=1.0 + drift,
                                         min_eigenvalue=0.0)
    assert checks.check_trace_extremes(bad)
    assert checks.check_trace_extremes(None)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.make_workloads())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()}


def test_percentile_report_needs_ten_samples_beyond():
    assert "percentile" not in run.percentile_report([1.0] * 12)
    report = run.percentile_report([float(i) for i in range(40)])
    assert report["percentile"] == 75 and report["beyond"] >= 10
