"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import functools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import (
    TRACE_PRESERVING_PRESETS,
    model_with_covariance,
    philox,
    random_model,
    random_unit_diag_covariance,
)
from lindbladsde.channels import apply_kraus, build_infinitesimal_kraus, choi_of
from lindbladsde.ito import derive_stochastic_evolution
from lindbladsde.lindblad import integrate_ode, lindblad_rhs
from lindbladsde.operators import frobenius
from lindbladsde.presets import PRESET_NAMES, preset_model, uniform_superposition
from lindbladsde.unraveling import (
    _euler_update,
    _trajectory_increments,
    run_ensemble,
    run_trajectory,
)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {number} ({label}): FAIL", flush=True)
                raise
            print(f"\ncriterion {number} ({label}): PASS", flush=True)
        return wrapper
    return decorate


@criterion(1, "derivation reproduction")
def test_criterion_1_derivation_reproduction():
    started = time.monotonic()
    rng = philox(0xC1)
    for case in range(100):
        dim = int(rng.integers(2, 5))
        noises = int(rng.integers(1, 4))
        model = random_model(rng, dim, noises)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        result = derive_stochastic_evolution(model, rho)
        assert frobenius(result.drift_coefficient - lindblad_rhs(model, rho)) <= 1e-12
        for n in range(noises):
            v = model.lindblad_ops[n]
            expected = model.weights[n] * (v @ rho + rho @ v.conj().T)
            assert frobenius(result.noise_coefficients[n] - expected) <= 1e-12
    assert time.monotonic() - started < 5.0


@criterion(2, "ensemble mean converges to the master equation")
def test_criterion_2_ensemble_mean_convergence():
    started = time.monotonic()
    model = preset_model("dephasing")
    rho0 = uniform_superposition(2)

    # oracle: closed form rho_01(t) = rho_01(0) exp(-t), cross-checked
    # against the deterministic integrator at a much finer step
    fine = integrate_ode(model, rho0, 1.0, 1e-5, record_every=10_000)
    closed_form = 0.5 * np.exp(-fine.times)
    assert np.abs(fine.states[:, 0, 1] - closed_form).max() <= 1e-10

    stats, _ = run_ensemble(model, rho0, 1.0, 1e-3, 10_000, seed=11,
                            record_every=10)
    expected = 0.5 * np.exp(-stats.times)
    errors = np.abs(stats.mean_state[:, 0, 1] - expected)
    tolerance = np.maximum(3.0 * stats.stderr, 0.02)
    assert np.all(errors <= tolerance)
    assert time.monotonic() - started < 60.0


@criterion(3, "trajectory-level trace preservation and its violation")
def test_criterion_3_trajectory_trace_contrast():
    for name in TRACE_PRESERVING_PRESETS:
        for seed in (0, 1, 2):
            traj = run_trajectory(preset_model(name), uniform_superposition(2), 1.0, 1e-3,
                                  seed=seed)
            assert abs(traj.trace_extremes[0] - 1.0) <= 1e-10
            assert abs(traj.trace_extremes[1] - 1.0) <= 1e-10

    # the damping model violates the constraint per trajectory
    damping = preset_model("amplitude-damping")
    traj = run_trajectory(damping, uniform_superposition(2), 1.0, 1e-3, seed=0)
    assert max(abs(traj.trace_extremes[0] - 1.0),
               abs(traj.trace_extremes[1] - 1.0)) > 1e-2

    # while its ensemble mean still follows the master equation: the
    # excited population decays at unit rate
    stats, _ = run_ensemble(damping, uniform_superposition(2), 1.0, 1e-3, 10_000, seed=5,
                            record_every=10)
    expected = 0.5 * np.exp(-stats.times)
    errors = np.abs(stats.mean_state[:, 1, 1] - expected)
    assert np.all(errors <= np.maximum(3.0 * stats.stderr, 1e-12))


@criterion(4, "exact stochastic unitarity")
def test_criterion_4_exact_unitarity():
    model = preset_model("stochastic-unitary-larmor")
    traj = run_trajectory(model, uniform_superposition(2), 1.0, 1e-3, seed=17,
                          stepper="exact_unitary")
    assert np.abs(traj.purity_series - 1.0).max() <= 1e-10
    eigenvalues = np.linalg.eigvalsh(traj.states)
    assert np.abs(eigenvalues - np.array([0.0, 1.0])).max() <= 1e-10


@criterion(5, "one-step channel consistent with the Euler update")
def test_criterion_5_channel_consistency():
    model = preset_model("dephasing")
    rho = uniform_superposition(2)
    rng = philox(0xC5)
    signs = np.where(rng.standard_normal(1000) >= 0.0, 1.0, -1.0)
    mean_errors = []
    for dt in (1e-3, 5e-4):
        root = np.sqrt(dt)
        errors = []
        for sign in signs:
            dw = np.array([sign * root])
            channel_state = apply_kraus(build_infinitesimal_kraus(model, dt, dw), rho)
            euler_state = _euler_update(model, rho, dt, dw)
            errors.append(frobenius(channel_state - euler_state))
        mean_errors.append(np.mean(errors))
    ratio = mean_errors[0] / mean_errors[1]
    assert 2.5 <= ratio <= 5.7


@criterion(6, "complete positivity of the one-step channel")
def test_criterion_6_complete_positivity():
    dt = 1e-3
    for name in PRESET_NAMES:
        model = preset_model(name)
        for scale in (0.0, 1.0, -1.0):
            dw = np.full(model.noise_count, scale * np.sqrt(dt))
            channel = build_infinitesimal_kraus(model, dt, dw)
            assert np.linalg.eigvalsh(choi_of(channel))[0] >= -1e-10


@criterion(7, "covariance diagonalization and increment sampling")
def test_criterion_7_covariance_machinery():
    rng = philox(0xC7)
    for case in range(100):
        n = int(rng.integers(1, 7))
        rank = int(rng.integers(1, n + 1))
        c = random_unit_diag_covariance(rng, n, rank=rank)
        basis = model_with_covariance(c).noise_basis
        rebuilt = (basis.orthogonal * basis.eigenvalues) @ basis.orthogonal.T
        assert frobenius(rebuilt - c) <= 1e-10

        dt = 1.0
        draws = _trajectory_increments(0xC7, case, 1, 1_000_000, basis, dt)[0]
        sample_cov = draws.T @ draws / len(draws)
        assert np.abs(sample_cov - c * dt).max() <= 0.01 * dt

        null_basis = basis.orthogonal[:, basis.eigenvalues == 0.0]
        if null_basis.shape[1]:
            projections = draws @ null_basis
            assert np.abs(projections).max() <= 1e-13


@criterion(8, "deterministic integrator shows fourth-order error decay")
def test_criterion_8_ode_order():
    model = preset_model("dephasing")
    rho0 = uniform_superposition(2)
    exact = 0.5 * np.exp(-1.0)
    errors = []
    for dt in (1e-2, 5e-3):
        traj = integrate_ode(model, rho0, 1.0, dt, record_every=round(1.0 / dt))
        errors.append(abs(traj.states[-1][0, 1] - exact))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0


@criterion(9, "command line output is reproducible and seed sensitive")
def test_criterion_9_cli_reproducibility(tmp_path):
    src_dir = Path(__file__).resolve().parent.parent / "src"
    base = [sys.executable, "-m", "lindbladsde", "sde", "--model", "dephasing",
            "--t-final", "0.1", "--dt", "1e-3", "--trajectories", "200",
            "--record-every", "10"]

    def run(seed, out):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            base + ["--seed", str(seed), "--out", str(out)],
            capture_output=True, env=env, cwd=tmp_path)
        assert result.returncode == 0, result.stderr.decode()
        return out.read_bytes()

    first = run(42, tmp_path / "a.csv")
    second = run(42, tmp_path / "b.csv")
    other = run(43, tmp_path / "c.csv")
    assert first == second
    assert first != other
