"""The benchmark's workloads: seeded inputs, CLI argument lists, output checks.

A workload turns the benchmark seed into a model (a preset name or a model
file it writes), the argv of each CLI call of one operation, and the
reference its checks compare against. The program sees only the argv and
the files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

QUDIT_DIM = 8
QUDIT_NOISES = 4
QUDIT_RANK = 2
QUDIT_DT = 1e-3
QUDIT_STEPS = 200
# dt * (|H| + sum |v_n|^2) must stay below the 0.1 warning threshold of the
# step-size guard; these norms give 0.04.
QUDIT_H_NORM = 25.0
QUDIT_V_NORM2 = 15.0


def qudit_model(seed: int) -> dict:
    """A valid JSON model drawn from the seed alone.

    Hermitian H of dimension QUDIT_DIM with Frobenius norm QUDIT_H_NORM,
    QUDIT_NOISES complex noise operators with sum |v_n|^2 = QUDIT_V_NORM2,
    positive weights with unit square-sum, and a unit-diagonal covariance
    of rank QUDIT_RANK, so QUDIT_NOISES - QUDIT_RANK directions are inactive.
    """
    dim, noises, rank = QUDIT_DIM, QUDIT_NOISES, QUDIT_RANK
    rng = np.random.default_rng([seed, 0x9D17])

    def complex_matrix():
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    g = complex_matrix()
    h = 0.5 * (g + g.conj().T)
    h *= QUDIT_H_NORM / np.linalg.norm(h)
    ops = np.array([complex_matrix() for _ in range(noises)])
    ops *= np.sqrt(QUDIT_V_NORM2 / np.sum(np.abs(ops) ** 2))
    weights = np.abs(rng.standard_normal(noises)) + 0.5
    weights /= np.sqrt(np.sum(weights ** 2))
    factor = rng.standard_normal((noises, rank))
    factor /= np.linalg.norm(factor, axis=1, keepdims=True)
    covariance = factor @ factor.T
    covariance = 0.5 * (covariance + covariance.T)
    np.fill_diagonal(covariance, 1.0)

    def literal(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]

    return {
        "dim": dim,
        "hamiltonian": literal(h),
        "lindblad_ops": [literal(v) for v in ops],
        "weights": [float(w) for w in weights],
        "covariance": [[float(x) for x in row] for row in covariance],
    }


def model_arrays(payload: dict):
    """(H, ops, weights, covariance) of a JSON model, parsed independently."""
    def matrix(rows):
        arr = np.asarray(rows, dtype=float)
        return arr[..., 0] + 1j * arr[..., 1]
    return (matrix(payload["hamiltonian"]),
            np.array([matrix(m) for m in payload["lindblad_ops"]]),
            np.asarray(payload["weights"], float),
            np.asarray(payload["covariance"], float))


@dataclass
class Call:
    """One CLI invocation of an operation and the file it writes, if any."""

    argv: list
    out: Path | None = None


@dataclass
class CallResult:
    call: Call
    code: int | None   # None: the call raised instead of returning
    stdout: str
    stderr: str
    diagnostics: object | None  # EnsembleDiagnostics of an sde call, else None
    data: bytes | None = None  # the output file, None when it was not written


class Workload:
    """Fixed sizes; `prepare` derives the inputs and the reference from the seed."""

    name = ""

    def __init__(self):
        self.calls: list[Call] = []
        self.model_arg = ""
        self.traj_steps = 0       # trajectory-steps per operation
        self.increment_bytes = 0  # computed: trajectories per chunk x steps x N x 8 B

    def prepare(self, seed: int, workdir: Path, preset_model, chunk: int) -> None:
        raise NotImplementedError

    def check(self, results: list[CallResult]) -> list[str]:
        """Problems in one operation's results; empty when every check passed."""
        raise NotImplementedError


def _exit_problems(results: list[CallResult]) -> list[str]:
    problems = []
    for r in results:
        name = r.call.argv[0]
        if r.code != 0:
            problems.append(f"{name} exited {r.code}: {r.stderr.strip()[-300:]}")
        elif r.call.out is not None and r.data is None:
            problems.append(f"{name} wrote no output")
    return problems


class SdeWorkload(Workload):
    """`sde` on a preset; every recorded mean is checked against the reference."""

    def __init__(self, name, preset, trajectories, dt, steps, record_every, stepper):
        super().__init__()
        self.name, self.preset = name, preset
        self.trajectories, self.dt, self.steps = trajectories, dt, steps
        self.record_every, self.stepper = record_every, stepper

    def prepare(self, seed, workdir, preset_model, chunk):
        model = preset_model(self.preset)
        h, ops = np.array(model.hamiltonian), np.array(model.lindblad_ops)
        out = workdir / f"{self.name}.csv"
        self.model_arg = self.preset
        self.calls = [Call([
            "sde", "--model", self.preset, "--t-final", repr(self.dt * self.steps),
            "--dt", repr(self.dt), "--trajectories", str(self.trajectories),
            "--seed", str(seed), "--record-every", str(self.record_every),
            "--stepper", self.stepper, "--out", str(out)], out)]
        self.traj_steps = self.trajectories * self.steps
        self.increment_bytes = min(chunk, self.trajectories) * self.steps * len(ops) * 8
        self.dt_record = self.dt * self.record_every
        self.reference = checks.reference_states(
            h, ops, checks.uniform_superposition(h.shape[0]), self.dt_record,
            self.steps // self.record_every + 1)
        self.trace_preserving = checks.trajectory_trace_preserving(
            ops, np.array(model.weights), np.array(model.covariance))

    def check(self, results):
        problems = _exit_problems(results)
        if problems:
            return problems
        (r,) = results
        problems = checks.check_sde_csv(r.data, self.reference, self.dt_record)
        if self.trace_preserving:
            problems += checks.check_trace_extremes(r.diagnostics)
        return problems


class QuditSession(Workload):
    """check -> derive -> choi -> ode on a seeded qudit model file."""

    def __init__(self, steps: int):
        super().__init__()
        self.steps = steps

    def prepare(self, seed, workdir, preset_model, chunk):
        payload = qudit_model(seed)
        path = workdir / "qudit.json"
        path.write_text(json.dumps(payload))
        h, ops, _, _ = model_arrays(payload)
        model = str(path)
        self.model_arg = model
        ode_out, choi_out = workdir / "qudit-ode.csv", workdir / "qudit-choi.csv"
        self.calls = [
            Call(["check", "--model", model]),
            Call(["derive", "--model", model]),
            Call(["choi", "--model", model, "--dt", repr(QUDIT_DT), "--out", str(choi_out)],
                 choi_out),
            Call(["ode", "--model", model, "--t-final", repr(QUDIT_DT * self.steps),
                  "--dt", repr(QUDIT_DT), "--record-every", "1", "--out", str(ode_out)],
                 ode_out),
        ]
        self.traj_steps = self.steps  # the ODE counts as one trajectory
        self.reference = checks.reference_states(
            h, ops, checks.uniform_superposition(h.shape[0]), QUDIT_DT, self.steps + 1)

    def check(self, results):
        problems = _exit_problems(results)
        if problems:
            return problems
        check_r, derive_r, choi_r, ode_r = results
        if "model ok:" not in check_r.stdout:
            problems.append("check did not report 'model ok'")
        if "drift residual vs master-equation generator" not in derive_r.stdout:
            problems.append("derive printed no drift residual")
        problems += checks.check_choi_csv(choi_r.data)
        problems += checks.check_ode_csv(ode_r.data, self.reference, QUDIT_DT)
        return problems


class Session(Workload):
    """Each operation runs the calls of every part in turn, on the part's inputs."""

    def __init__(self, name: str, parts: list):
        super().__init__()
        self.name, self.parts = name, parts

    def prepare(self, seed, workdir, preset_model, chunk):
        for part in self.parts:
            part.prepare(seed, workdir, preset_model, chunk)
        self.calls = [call for part in self.parts for call in part.calls]
        self.model_arg = self.parts[0].model_arg
        self.traj_steps = sum(part.traj_steps for part in self.parts)
        self.increment_bytes = sum(part.increment_bytes for part in self.parts)

    def check(self, results):
        problems, start = [], 0
        for part in self.parts:
            problems += part.check(results[start:start + len(part.calls)])
            start += len(part.calls)
        return problems


def make_workloads() -> dict:
    """Every workload by name; the sizes are fixed, only the seed varies.
    BENCHMARK.json says why each one is there."""
    return {w.name: w for w in (
        SdeWorkload("sde-qubit-long", preset="two-noise-correlated", trajectories=8192,
                    dt=0.01, steps=50, record_every=25, stepper="euler"),
        Session("sde-qubit-wide", [
            QuditSession(steps=QUDIT_STEPS),
            SdeWorkload("larmor", preset="stochastic-unitary-larmor", trajectories=32768,
                        dt=0.01, steps=4, record_every=1, stepper="exact-unitary"),
        ]),
    )}
