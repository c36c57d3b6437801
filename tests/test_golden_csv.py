"""CSV bytes pinned across commits.

The run-to-run identity tests only compare two runs of the same code; these
digests were recorded once and must be reproduced by every later version of
the package, so a refactor that changes a rounding anywhere on the path
from model to CSV fails here. Floating-point results may differ between
numpy releases, so the digests are asserted only under the numpy version
that recorded them.
"""

import hashlib
import json

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
    "sde-qutrit-rank2-file": ["sde", "--model", "{qutrit}", *SDE],
    "ode-qudit8-file": ["ode", "--model", "{qudit8}", "--t-final", "0.2",
                        "--dt", "0.01", "--record-every", "2"],
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
}


def csv_digest(tmp_path, name: str) -> str:
    argv = RUNS[name]
    for stem, model in (("qutrit", QUTRIT_MODEL), ("qudit8", QUDIT8_MODEL)):
        model_path = tmp_path / f"{stem}.json"
        model_path.write_text(json.dumps(model))
        argv = [arg.replace(f"{{{stem}}}", str(model_path)) for arg in argv]
    out = tmp_path / f"{name}.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"digests were recorded under numpy {RECORDED_NUMPY}, "
                           f"not {np.__version__}")
@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_bytes_match_recorded_digest(tmp_path, name):
    assert csv_digest(tmp_path, name) == GOLDEN_SHA256[name]
