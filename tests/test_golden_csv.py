"""CSV bytes and model reports pinned across commits.

The run-to-run identity tests only compare two runs of the same code; these
digests were recorded once and must be reproduced by every later version of
the package, so a refactor that changes a rounding anywhere on the path
from model to CSV, or in what `check` and `derive` print, fails here.
Floating-point results may differ between numpy releases, so the digests
are asserted only under the numpy version that recorded them.

Run as a script, ``PYTHONPATH=src python tests/test_golden_csv.py`` prints
one ``name sha256`` line per pinned run for the current tree and numpy and
writes no file. Re-recording is a manual edit of the tables below, made
only by a change whose stated purpose alters the bits.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from lindbladsde.cli import EXIT_OK, main

RECORDED_NUMPY = "2.4.6"

# A d=3 model with three noises whose covariance has rank 2: the increments
# are dW^n = a_n . (dB^1, dB^2) with unit vectors a_n = (1, 0), (0.6, 0.8),
# (0.8, 0.6), so one eigendirection is inactive and its eigenvalue is
# rounding that must be clipped to zero. d > 2 sends the minimum-eigenvalue
# column through eigvalsh.
QUTRIT_MODEL = {
    "dim": 3,
    "hamiltonian": [
        [[1.0, 0.0], [0.2, -0.1], [0.0, 0.0]],
        [[0.2, 0.1], [0.0, 0.0], [0.3, 0.0]],
        [[0.0, 0.0], [0.3, 0.0], [-1.0, 0.0]],
    ],
    "lindblad_ops": [
        [[[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [0.0, 0.0], [0.4, 0.1]],
         [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
        [[[0.3, 0.0], [0.0, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [-0.3, 0.0], [0.0, 0.0]],
         [[0.0, 0.2], [0.0, 0.0], [0.1, 0.0]]],
        [[[0.0, -0.4], [0.0, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
         [[0.0, 0.0], [0.0, 0.0], [0.0, 0.4]]],
    ],
    "weights": [0.6, 0.64, 0.48],
    "covariance": [[1.0, 0.6, 0.8], [0.6, 1.0, 0.96], [0.8, 0.96, 1.0]],
}


# A d=8 model with closed-form entries: H[a][b] = (a+b)/10 + i(a-b)/20, a
# weighted lowering operator and a traceless diagonal operator with
# correlated noises. d=8 sends the trace column through numpy's pairwise sum
# and the minimum-eigenvalue column through eigvalsh.
D8 = range(8)
QUDIT8_MODEL = {
    "dim": 8,
    "hamiltonian": [[[(a + b) / 10, (a - b) / 20] for b in D8] for a in D8],
    "lindblad_ops": [
        [[[b ** 0.5 / 4, 0.0] if b == a + 1 else [0.0, 0.0] for b in D8] for a in D8],
        [[[(a - 3.5) / 8, 0.0] if b == a else [0.0, 0.0] for b in D8] for a in D8],
    ],
    "weights": [0.6, 0.8],
    "covariance": [[1.0, 0.3], [0.3, 1.0]],
}

SDE = ["--t-final", "0.05", "--dt", "0.005", "--trajectories", "300",
       "--seed", "11", "--record-every", "2"]

RUNS = {
    "sde-two-noise-euler": ["sde", "--model", "two-noise-correlated", *SDE],
    "sde-larmor-exact-unitary": ["sde", "--model", "stochastic-unitary-larmor",
                                 *SDE, "--stepper", "exact-unitary"],
    "ode-dephasing": ["ode", "--model", "dephasing", "--t-final", "0.5",
                      "--dt", "0.01", "--record-every", "5"],
    "choi-amplitude-damping": ["choi", "--model", "amplitude-damping", "--dt", "0.01"],
    "sde-qutrit-rank2-file": ["sde", "--model", "qutrit.json", *SDE],
    "ode-qudit8-file": ["ode", "--model", "qudit8.json", "--t-final", "0.2",
                        "--dt", "0.01", "--record-every", "2"],
    # 601 rows each: several blocks of the CSV writer
    "ode-dephasing-multiblock": ["ode", "--model", "dephasing", "--t-final", "0.6",
                                 "--dt", "1e-3"],
    "sde-dephasing-multiblock": ["sde", "--model", "dephasing", "--t-final", "0.6",
                                 "--dt", "1e-3", "--trajectories", "64",
                                 "--record-every", "1"],
    # Euler at d = 8, N = 2, where each operator keeps its own left product
    "sde-qudit8-file": ["sde", "--model", "qudit8.json", *SDE],
}

GOLDEN_SHA256 = {
    "sde-two-noise-euler":
        "6b65955246055d25bb6266651ee8af098fbcfbb8f2a8d660a7e27e9ee907dc19",
    "sde-larmor-exact-unitary":
        "d14340caea8ab5f839fa739633ccb49f077adaff753ade3d153dae6731a24cfb",
    "ode-dephasing":
        "9704207a08b8ffcff0bda3367282669a5bdf4c524393bf2f01eea9382cb5df74",
    "choi-amplitude-damping":
        "de396341e7a04e510b86e265998ef59c8923e4c8089c48240bb48cb692f159a6",
    "sde-qutrit-rank2-file":
        "c91363141670e2a8ab7ef8f46c73b7dcbf85e2bf1c75e1b49ec529f82e13634b",
    "ode-qudit8-file":
        "4db529c45d292a4d878c4e3d17bb04ebfae7bc9deb8d11a7f0413a27836a4fe1",
    "ode-dephasing-multiblock":
        "669a29a3b5be48369b30d4b04770441c5ae80e5b446355bee81f6fbe9409513c",
    "sde-dephasing-multiblock":
        "3a5de01ed560c6ec465c105552c7c8e62a5a117d37f1fc1868e8bcc3a080c86a",
    "sde-qudit8-file":
        "ce47034a9fc26a11f1be80ab26e2a9cdd7fc51858e632c40b1175f076f1dbd26",
}


# `check` and `derive` are hashed by stdout followed by stderr, which holds
# the model report.
CHECK_RUNS = {
    "check-dephasing": ["check", "--model", "dephasing"],
    "check-amplitude-damping": ["check", "--model", "amplitude-damping"],
    "check-stochastic-unitary-larmor": ["check", "--model", "stochastic-unitary-larmor"],
    "check-two-noise-correlated": ["check", "--model", "two-noise-correlated"],
    "check-qudit8-file": ["check", "--model", "qudit8.json"],
}

CHECK_SHA256 = {
    "check-dephasing":
        "43d42c99255d974bb55265ebb8c5ba1171d01391760f7839be97fb29df721870",
    "check-amplitude-damping":
        "b2e7aec4c90f76e21bff938746f275299dc049a3a532b51c88967480056a6b49",
    "check-stochastic-unitary-larmor":
        "27bb21d2ffecb66eb2fe464c85695f3344a01ae7e14512edce39498170a8cfa8",
    "check-two-noise-correlated":
        "bb1392888778bd89cfed3d5466affef6944d780036bbf3f9467a3874722741fd",
    "check-qudit8-file":
        "954d2a9663e1142ab91d4ceccdd5a138ace2c0b68fcac667b4b7e8f786a7ff86",
}

DERIVE_RUNS = {
    "derive-dephasing": ["derive", "--model", "dephasing"],
    "derive-amplitude-damping": ["derive", "--model", "amplitude-damping"],
    "derive-stochastic-unitary-larmor": ["derive", "--model", "stochastic-unitary-larmor"],
    "derive-two-noise-correlated": ["derive", "--model", "two-noise-correlated"],
    "derive-qudit8-file": ["derive", "--model", "qudit8.json"],
}

DERIVE_SHA256 = {
    "derive-dephasing":
        "65aaacea4ff15c2caa0bd9df5ec83d442f40620280cf2f0ac828a882babd173d",
    "derive-amplitude-damping":
        "aa7d8e98b22de1e2def74e92ec9ac610876a70f518e5438a9c13a097cdde8d94",
    "derive-stochastic-unitary-larmor":
        "73eab559534681e7ca0e3aec9d7003ab272fd19a371a72fa047243ed8258bc29",
    "derive-two-noise-correlated":
        "357defcfc484e7809f8e26a7323e0ce5b0a8e98f12531334cd0bafdb26ee7baa",
    "derive-qudit8-file":
        "4b022ef95cbd20af602d5ea3fd9632a00d734ab4b8486ec44fbc3e824dcc7a62",
}


def run_digest(argv: list[str]) -> str:
    """SHA-256 of one pinned run made in the current directory.

    The model files are written there first, so a report names them by the
    same relative path wherever the run is made. A CSV run is hashed by the
    file it writes, a `check` or `derive` run by its stdout followed by its
    stderr.
    """
    for stem, model in (("qutrit", QUTRIT_MODEL), ("qudit8", QUDIT8_MODEL)):
        Path(f"{stem}.json").write_text(json.dumps(model))
    printed = argv[0] in ("check", "derive")
    if not printed:
        argv = [*argv, "--out", "run.csv"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == EXIT_OK
    if printed:
        return hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest()
    return hashlib.sha256(Path("run.csv").read_bytes()).hexdigest()


recorded_numpy = pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"digests were recorded under numpy {RECORDED_NUMPY}, not {np.__version__}")


@recorded_numpy
@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_bytes_match_recorded_digest(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run_digest(RUNS[name]) == GOLDEN_SHA256[name]


@recorded_numpy
@pytest.mark.parametrize("name", ["sde-two-noise-euler", "ode-dephasing"])
def test_qubit_runs_keep_their_bytes_without_eigvalsh(tmp_path, monkeypatch, name):
    # at d = 2 the initial state's check and the min-eigenvalue column both
    # take the closed form; the sde run is one chunk, so it stays in process
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.chdir(tmp_path)
    assert run_digest(RUNS[name]) == GOLDEN_SHA256[name]


@recorded_numpy
@pytest.mark.parametrize("name", sorted(CHECK_RUNS))
def test_check_report_matches_recorded_digest(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run_digest(CHECK_RUNS[name]) == CHECK_SHA256[name]


@recorded_numpy
@pytest.mark.parametrize("name", sorted(DERIVE_RUNS))
def test_derive_output_matches_recorded_digest(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run_digest(DERIVE_RUNS[name]) == DERIVE_SHA256[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for name, argv in sorted({**RUNS, **CHECK_RUNS, **DERIVE_RUNS}.items()):
            print(name, run_digest(argv))
