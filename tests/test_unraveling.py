import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    model_with_covariance,
    philox,
    random_density,
    random_hermitian,
    random_model,
    random_unit_diag_covariance,
)
from lindbladsde.lindblad import (
    LindbladModel,
    NumericalError,
    drift_operator,
    integrate_ode,
    lindblad_rhs,
)
from lindbladsde.operators import (
    SIGMA_MINUS,
    SIGMA_Z,
    adjoint,
    commutator,
    frobenius,
    hermitian_part,
)
from lindbladsde.presets import TRACE_PRESERVING_PRESETS, preset_model, uniform_superposition
from lindbladsde.unraveling import (
    _euler_update,
    _prepare,
    _trajectory_increments,
    run_ensemble,
    run_trajectory,
    sample_increments,
    sde_step,
    stochastic_unitary_step,
    trajectory_rng,
    unitary_noise_operator,
)


class TestDiagonalizeCovariance:
    def test_identity(self):
        basis = model_with_covariance(np.eye(3)).noise_basis
        assert np.array_equal(basis.eigenvalues, np.ones(3))
        assert basis.active_count == 3
        assert np.allclose(np.abs(basis.orthogonal), np.eye(3), atol=1e-14)

    def test_all_ones_pair(self):
        # 2x2 eigenproblem by hand: eigenvalues 2 and 0
        basis = model_with_covariance(np.ones((2, 2))).noise_basis
        assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-14)
        assert basis.eigenvalues[0] == 0.0
        assert basis.active_count == 1

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction(self, seed, n):
        c = random_unit_diag_covariance(philox(seed), n)
        basis = model_with_covariance(c).noise_basis
        rebuilt = (basis.orthogonal * basis.eigenvalues) @ basis.orthogonal.T
        assert frobenius(rebuilt - c) <= 1e-10
        assert frobenius(basis.orthogonal.T @ basis.orthogonal - np.eye(n)) <= 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            model_with_covariance(np.array([[1.0, 2.0], [2.0, 1.0]])).noise_basis


class TestSampleIncrements:
    def test_sample_covariance_converges(self):
        basis = model_with_covariance(np.eye(2)).noise_basis
        rng = trajectory_rng(123, 0)
        draws = sample_increments(basis, 1.0, rng, count=1_000_000)
        cov = draws.T @ draws / len(draws)
        assert np.abs(cov - np.eye(2)).max() < 0.01

    def test_null_directions_receive_no_noise(self):
        # fully correlated pair: both increments equal, the antisymmetric
        # combination stays at rounding level (the inactive draw itself is
        # exactly zero by construction)
        basis = model_with_covariance(np.ones((2, 2))).noise_basis
        null_vec = basis.orthogonal[:, 0]
        for dw in sample_increments(basis, 1e-3, trajectory_rng(7, 0), count=100):
            assert dw[0] == dw[1] or abs(dw[0] - dw[1]) < 1e-15
            assert abs(null_vec @ dw) < 1e-13

    def test_rank_deficient_random_covariance(self):
        c = random_unit_diag_covariance(philox(5), 5, rank=2)
        basis = model_with_covariance(c).noise_basis
        assert basis.active_count == 2
        null_basis = basis.orthogonal[:, basis.eigenvalues == 0.0]
        for dw in sample_increments(basis, 1e-2, trajectory_rng(8, 0), count=50):
            assert np.abs(null_basis.T @ dw).max() < 1e-13

    def test_variance_scales_with_dt(self):
        basis = model_with_covariance(np.eye(1)).noise_basis
        rng = trajectory_rng(9, 0)
        small = sample_increments(basis, 0.5, rng, count=100_000)[:, 0]
        big = sample_increments(basis, 1.0, rng, count=100_000)[:, 0]
        ratio = big.var() / small.var()
        assert abs(ratio - 2.0) < 0.06

    def test_rejects_nonpositive_dt(self):
        basis = model_with_covariance(np.eye(1)).noise_basis
        with pytest.raises(ValueError, match="positive"):
            sample_increments(basis, 0.0, trajectory_rng(0, 0), count=1)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_rejects_non_finite_dt(self, dt):
        basis = model_with_covariance(np.eye(1)).noise_basis
        with pytest.raises(ValueError, match="sample_increments: dt must be positive"):
            sample_increments(basis, dt, trajectory_rng(0, 0), count=1)
        with pytest.raises(ValueError, match="sde_step: dt must be positive"):
            sde_step(preset_model("dephasing"), uniform_superposition(2), dt, np.zeros(1))


class TestSdeStep:
    def test_static_model_leaves_state_alone(self):
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.zeros((1, 2, 2), complex),
            weights=np.array([1.0]),
            covariance=np.eye(1),
        )
        rho = random_density(philox(0), 2)
        out = sde_step(model, rho, 1e-3, np.array([0.3]))
        assert frobenius(out - rho) < 1e-15

    def test_single_noise_unitary_increment(self):
        # increment must be -i[K, rho] dW + (-i[H, rho] - [K, [K, rho]]/2) dt
        rng = philox(1)
        k = random_hermitian(rng, 2)
        h = random_hermitian(rng, 2)
        model = LindbladModel(hamiltonian=h, lindblad_ops=np.array([-1j * k]),
                              weights=np.array([1.0]), covariance=np.eye(1))
        rho = random_density(rng, 2)
        dt, dw = 1e-3, 0.04
        expected = rho + (-1j * commutator(k, rho)) * dw + (
            -1j * commutator(h, rho) - 0.5 * commutator(k, commutator(k, rho))) * dt
        out = sde_step(model, rho, dt, np.array([dw]))
        assert frobenius(out - expected) < 1e-13

    def test_equals_generator_form(self):
        # the grouped update must agree with the literal
        # noise + generator * dt formula
        rng = philox(2)
        model = random_model(rng, 3, 2)
        rho = random_density(rng, 3)
        dw = rng.standard_normal(2) * np.sqrt(1e-3)
        explicit = rho + lindblad_rhs(model, rho) * 1e-3
        for n, v in enumerate(model.lindblad_ops):
            explicit = explicit + model.weights[n] * dw[n] * (v @ rho + rho @ v.conj().T)
        out = sde_step(model, rho, 1e-3, dw)
        assert frobenius(out - 0.5 * (explicit + adjoint(explicit))) < 1e-13

    def test_trace_preserved_per_step_for_constrained_models(self):
        rng = philox(3)
        model = random_model(rng, 3, 2, anti_hermitian=True)
        rho = random_density(rng, 3)
        for dw in sample_increments(model.noise_basis, 1e-3, trajectory_rng(11, 0), count=100):
            out = sde_step(model, rho, 1e-3, dw)
            assert abs(np.trace(out).real - np.trace(rho).real) <= 1e-13 * 3
            rho = out

    def test_cumulative_trace_drift(self):
        model = preset_model("two-noise-correlated")
        traj = run_trajectory(model, uniform_superposition(2), 1.0, 1e-3, seed=5)
        assert abs(traj.trace_extremes[0] - 1.0) <= 1e-10
        assert abs(traj.trace_extremes[1] - 1.0) <= 1e-10

    def test_output_hermitian_and_preenforcement_residual_small(self):
        rng = philox(4)
        model = random_model(rng, 2, 2)
        rho = random_density(rng, 2)
        dw = rng.standard_normal(2) * np.sqrt(1e-3)
        out = sde_step(model, rho, 1e-3, dw)
        assert frobenius(out - adjoint(out)) == 0.0
        # rebuild the update without the final symmetrization
        raw = rho + lindblad_rhs(model, rho) * 1e-3
        for n, v in enumerate(model.lindblad_ops):
            raw = raw + model.weights[n] * dw[n] * (v @ rho + rho @ v.conj().T)
        assert frobenius(raw - adjoint(raw)) <= 1e-12

    def test_batched_matches_single(self):
        rng = philox(6)
        model = random_model(rng, 2, 2)
        batch = np.array([random_density(rng, 2) for _ in range(4)])
        dws = rng.standard_normal((4, 2)) * 0.03
        stacked = sde_step(model, batch, 1e-3, dws)
        for i in range(4):
            single = sde_step(model, batch[i], 1e-3, dws[i])
            assert frobenius(stacked[i] - single) < 1e-14

    def test_shape_validation(self):
        model = preset_model("dephasing")
        with pytest.raises(ValueError, match="increment shape"):
            sde_step(model, uniform_superposition(2), 1e-3, np.zeros(2))


def _stacked_euler_reference(model, rho, dt, dw):
    """The Euler update with the right factor v_n rho v_n^dagger formed as a
    stack of d x d products, one per state."""
    g = np.einsum("...n,nab->...ab", dw * model.weights, model.lindblad_ops)
    g = g + dt * drift_operator(model)
    out = rho + g @ rho + rho @ adjoint(g)
    for v in model.lindblad_ops:
        out = out + dt * ((v @ rho) @ v.conj().T)
    return hermitian_part(out)


class TestKernelBits:
    """The batched kernels give exactly the bits of their per-state forms."""

    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("batch", [(), (1,), (4096,)])
    def test_euler_update_matches_stacked_products(self, dim, batch):
        rng = philox(40 + dim)
        model = random_model(rng, dim, 3)
        rho = (rng.standard_normal(batch + (dim, dim))
               + 1j * rng.standard_normal(batch + (dim, dim)))
        dw = rng.standard_normal(batch + (3,)) * 0.03
        assert np.array_equal(_euler_update(model, rho, 1e-3, dw),
                              _stacked_euler_reference(model, rho, 1e-3, dw))

    @pytest.mark.parametrize("name, stepper", [
        ("two-noise-correlated", "euler"),
        ("stochastic-unitary-larmor", "euler"),
        ("stochastic-unitary-larmor", "exact_unitary"),
    ])
    def test_run_step_is_the_public_step(self, name, stepper):
        # the runners' update is the checked public step's kernel, called
        # with the same arguments
        model = preset_model(name)
        rng = philox(42)
        rho = np.array([random_density(rng, 2) for _ in range(5)])
        dw = rng.standard_normal((5, model.noise_count)) * 0.03
        *_, step = _prepare(model, uniform_superposition(2), 0.01, 1e-3, 1, stepper, "run")
        if stepper == "euler":
            expected = sde_step(model, rho, 1e-3, dw)
        else:
            expected = stochastic_unitary_step(model.hamiltonian, unitary_noise_operator(model),
                                               rho, 1e-3, dw[:, 0])
        assert np.array_equal(step(rho, dw), expected)

    @pytest.mark.parametrize("model", [
        preset_model("stochastic-unitary-larmor"),
        preset_model("two-noise-correlated"),
        random_model(philox(41), 3, 4, rank=2),
    ], ids=["larmor", "two-noise-correlated", "rank2-n4"])
    @pytest.mark.parametrize("n_steps", [1, 25])
    def test_chunk_increments_match_per_trajectory_draws(self, model, n_steps):
        seed, start, count, dt = 11, 4094, 5, 1e-3
        chunk = _trajectory_increments(seed, start, count, n_steps, model.noise_basis, dt)
        assert chunk.shape == (count, n_steps, model.noise_count)
        for i in range(count):
            row = sample_increments(model.noise_basis, dt, trajectory_rng(seed, start + i),
                                    count=n_steps)
            assert np.array_equal(chunk[i], row)


class TestStochasticUnitaryStep:
    def test_zero_increments_do_nothing(self):
        rng = philox(7)
        rho = random_density(rng, 2)
        out = stochastic_unitary_step(SIGMA_Z, SIGMA_Z, rho, 0.0, 0.0)
        assert frobenius(out - rho) < 1e-14

    def test_purity_preserved(self):
        rho = uniform_superposition(2)
        out = stochastic_unitary_step(np.zeros((2, 2), complex), SIGMA_Z,
                                      rho, 1e-3, 0.05)
        purity = np.trace(out @ out).real
        assert abs(purity - 1.0) < 1e-13

    def test_spectrum_preserved(self):
        rng = philox(8)
        rho = random_density(rng, 3)
        h = random_hermitian(rng, 3)
        k = random_hermitian(rng, 3)
        out = stochastic_unitary_step(h, k, rho, 1e-3, -0.02)
        before = np.linalg.eigvalsh(rho)
        after = np.linalg.eigvalsh(out)
        assert np.abs(before - after).max() < 1e-12

    def test_first_order_expansion(self):
        # with dW = +/- sqrt(dt) the step matches
        # 1 - iK dW + (-iH - K^2/2) dt up to O(dt^(3/2))
        rng = philox(9)
        h = random_hermitian(rng, 2)
        k = random_hermitian(rng, 2)
        rho = random_density(rng, 2)
        defects = []
        for dt in (1e-3, 5e-4):
            dw = np.sqrt(dt)
            v = np.eye(2) - 1j * k * dw + (-1j * h - 0.5 * k @ k) * dt
            approx = 0.5 * (v @ rho @ adjoint(v) + adjoint(v @ rho @ adjoint(v)))
            exact = stochastic_unitary_step(h, k, rho, dt, dw)
            defects.append(frobenius(exact - approx))
        assert 2.5 <= defects[0] / defects[1] <= 5.7

    def test_rejects_non_hermitian_generator(self):
        with pytest.raises(ValueError, match="Hermitian"):
            stochastic_unitary_step(SIGMA_MINUS, SIGMA_Z, uniform_superposition(2), 1e-3, 0.0)


class TestUnitaryEligibility:
    def test_accepts_anti_hermitian_single_noise(self):
        model = preset_model("stochastic-unitary-larmor")
        k = unitary_noise_operator(model)
        assert frobenius(k - SIGMA_Z) < 1e-14

    def test_rejects_multi_noise(self):
        with pytest.raises(ValueError, match="single-noise"):
            unitary_noise_operator(preset_model("two-noise-correlated"))

    def test_rejects_non_anti_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            unitary_noise_operator(preset_model("amplitude-damping"))


class TestRunTrajectory:
    @pytest.mark.parametrize("name", TRACE_PRESERVING_PRESETS)
    def test_trace_flat_for_constrained_presets(self, name):
        traj = run_trajectory(preset_model(name), uniform_superposition(2), 1.0, 1e-3, seed=21)
        assert abs(traj.trace_extremes[0] - 1.0) <= 1e-10
        assert abs(traj.trace_extremes[1] - 1.0) <= 1e-10

    def test_trace_wanders_without_constraint(self):
        traj = run_trajectory(preset_model("amplitude-damping"), uniform_superposition(2),
                              1.0, 1e-3, seed=21)
        deviation = max(abs(traj.trace_extremes[0] - 1.0),
                        abs(traj.trace_extremes[1] - 1.0))
        assert deviation > 1e-2

    def test_exact_unitary_keeps_purity_and_spectrum(self):
        model = preset_model("stochastic-unitary-larmor")
        traj = run_trajectory(model, uniform_superposition(2), 1.0, 1e-3, seed=3,
                              stepper="exact_unitary", record_every=100)
        assert np.abs(traj.purity_series - 1.0).max() <= 1e-10
        eigs = np.linalg.eigvalsh(traj.states)
        assert np.abs(eigs - np.array([0.0, 1.0])).max() <= 1e-10

    def test_recording_grid(self):
        traj = run_trajectory(preset_model("dephasing"), uniform_superposition(2), 0.1, 1e-3,
                              seed=0, record_every=25)
        assert traj.times.shape == (5,)
        assert traj.states.shape == (5, 2, 2)
        assert traj.purity_series.shape == (5,)

    def test_non_finite_state_names_trajectory_and_time(self, monkeypatch):
        # the stiffness guard keeps guarded models away from almost-sure
        # blowup, so inject a failing step to exercise the reporting path
        import lindbladsde.unraveling as unr

        original = unr._euler_update
        calls = {"n": 0}

        def failing(model, rho, dt, dw):
            calls["n"] += 1
            out = original(model, rho, dt, dw)
            if calls["n"] == 4:
                out = out.copy()
                out[..., 0, 0] = np.inf
            return out

        monkeypatch.setattr(unr, "_euler_update", failing)
        with pytest.raises(NumericalError, match=r"trajectory 0: .*t=0.004"):
            run_trajectory(preset_model("dephasing"), uniform_superposition(2), 0.1, 1e-3,
                           seed=2)

    def test_sde_step_overflow_raises(self):
        # a state at the edge of double range overflows in one step
        model = preset_model("amplitude-damping")
        huge = np.eye(2, dtype=complex) * 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite"):
                sde_step(model, huge, 1e-3, np.array([1.0]))

    def test_warns_in_stiff_region(self):
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.array([2.0 * SIGMA_MINUS]),
            weights=np.array([1.0]),
            covariance=np.eye(1),
        )
        with pytest.warns(RuntimeWarning, match="bias"):
            run_trajectory(model, uniform_superposition(2), 0.5, 0.05, seed=0)

    def test_rejects_oversized_step(self):
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.array([30.0 * SIGMA_MINUS]),
            weights=np.array([1.0]),
            covariance=np.eye(1),
        )
        with pytest.raises(NumericalError, match="refusing"):
            run_trajectory(model, uniform_superposition(2), 5.0, 2e-3, seed=0)


class TestRunEnsemble:
    def test_bit_reproducible(self):
        model = preset_model("dephasing")
        first, d1 = run_ensemble(model, uniform_superposition(2), 0.1, 1e-3, 300, seed=42,
                                 record_every=10)
        second, d2 = run_ensemble(model, uniform_superposition(2), 0.1, 1e-3, 300, seed=42,
                                  record_every=10)
        assert np.array_equal(first.mean_state, second.mean_state)
        assert np.array_equal(first.stderr, second.stderr)
        assert (d1.trace_min, d1.trace_max, d1.min_eigenvalue) == \
               (d2.trace_min, d2.trace_max, d2.min_eigenvalue)

    def test_seed_changes_output(self):
        model = preset_model("dephasing")
        a, _ = run_ensemble(model, uniform_superposition(2), 0.1, 1e-3, 300, seed=42)
        b, _ = run_ensemble(model, uniform_superposition(2), 0.1, 1e-3, 300, seed=43)
        assert not np.array_equal(a.mean_state, b.mean_state)

    def test_worker_count_does_not_change_result(self):
        # chunk reduction order is fixed, so thread count is invisible
        model = preset_model("two-noise-correlated")
        serial, _ = run_ensemble(model, uniform_superposition(2), 0.05, 1e-3, 5000, seed=9)
        threaded, _ = run_ensemble(model, uniform_superposition(2), 0.05, 1e-3, 5000, seed=9,
                                   workers=4)
        assert np.array_equal(serial.mean_state, threaded.mean_state)
        assert np.array_equal(serial.stderr, threaded.stderr)

    def test_noiseless_single_trajectory_is_euler_recursion(self):
        model = LindbladModel(
            hamiltonian=SIGMA_Z.copy(),
            lindblad_ops=np.zeros((1, 2, 2), complex),
            weights=np.array([1.0]),
            covariance=np.eye(1),
        )
        stats, _ = run_ensemble(model, uniform_superposition(2), 0.5, 1e-3, 1, seed=0,
                                record_every=100)
        rho = uniform_superposition(2)
        expected = [rho]
        for k in range(500):
            rho = rho + lindblad_rhs(model, rho) * 1e-3
            rho = 0.5 * (rho + adjoint(rho))
            if (k + 1) % 100 == 0:
                expected.append(rho)
        assert frobenius(stats.mean_state - np.array(expected)) < 1e-12
        # and it approximates the deterministic integrator at first order
        ode = integrate_ode(model, uniform_superposition(2), 0.5, 1e-3, record_every=100)
        assert frobenius(stats.mean_state - ode.states) < 5e-3
        assert np.array_equal(stats.times, ode.times)

    def test_mean_matches_master_equation(self):
        model = preset_model("dephasing")
        stats, _ = run_ensemble(model, uniform_superposition(2), 1.0, 1e-3, 2000, seed=77,
                                record_every=100)
        expected = 0.5 * np.exp(-stats.times)
        errors = np.abs(stats.mean_state[:, 0, 1] - expected)
        assert np.all(errors <= np.maximum(3.0 * stats.stderr, 0.02))

    def test_mean_field_recursion_consistency(self):
        # the scheme is linear in the state, so the exact expectation obeys
        # the deterministic one-step recursion; the Monte Carlo mean must
        # track it within sampling error at every recorded time
        model = preset_model("dephasing")
        stats, _ = run_ensemble(model, uniform_superposition(2), 0.2, 1e-3, 100_000,
                                seed=2024, record_every=20)
        rho = uniform_superposition(2)
        recursion = [rho]
        for k in range(200):
            rho = rho + lindblad_rhs(model, rho) * 1e-3
            rho = 0.5 * (rho + adjoint(rho))
            if (k + 1) % 20 == 0:
                recursion.append(rho)
        recursion = np.array(recursion)
        for t_idx in range(len(stats.times)):
            gap = frobenius(stats.mean_state[t_idx] - recursion[t_idx])
            assert gap <= max(4.0 * stats.stderr[t_idx], 1e-12)

    def test_stats_invariants(self):
        model = preset_model("amplitude-damping")
        stats, diag = run_ensemble(model, uniform_superposition(2), 0.5, 1e-3, 3000, seed=5,
                                   record_every=50)
        # mean state Hermitian within Monte Carlo rounding
        assert frobenius(stats.mean_state - adjoint(stats.mean_state)) < 1e-12
        # trace of the mean stays near one even though single trajectories drift
        traces = np.einsum("taa->t", stats.mean_state).real
        assert np.all(np.abs(traces - 1.0) <= np.maximum(3.0 * stats.stderr, 1e-12))
        # single-trajectory diagnostics show the drift
        assert diag.trace_max > 1.0 + 1e-2 or diag.trace_min < 1.0 - 1e-2

    @pytest.mark.parametrize("name, stepper", [
        ("dephasing", "euler"),
        ("two-noise-correlated", "euler"),
        ("stochastic-unitary-larmor", "exact_unitary"),
    ], ids=["dephasing", "two-noise-correlated", "larmor-exact-unitary"])
    def test_trajectory_matches_ensemble_bits(self, name, stepper):
        # trajectory i consumes the (seed, i) stream in both entry points,
        # through the same chunk loop, so the bits agree
        model = preset_model(name)
        stats, diag = run_ensemble(model, uniform_superposition(2), 0.05, 1e-3, 1,
                                   seed=31, record_every=50, stepper=stepper)
        traj = run_trajectory(model, uniform_superposition(2), 0.05, 1e-3, seed=31,
                              traj_index=0, record_every=50, stepper=stepper)
        assert np.array_equal(stats.mean_state, traj.states)
        assert np.array_equal(stats.times, traj.times)
        assert traj.trace_extremes == (diag.trace_min, diag.trace_max)
        assert traj.min_eigenvalue_seen == diag.min_eigenvalue

    def test_exact_unitary_ensemble(self):
        model = preset_model("stochastic-unitary-larmor")
        stats, diag = run_ensemble(model, uniform_superposition(2), 0.1, 1e-3, 200, seed=1,
                                   stepper="exact_unitary", record_every=10)
        assert abs(diag.trace_min - 1.0) <= 1e-12
        assert abs(diag.trace_max - 1.0) <= 1e-12
        assert diag.min_eigenvalue >= -1e-12

    def test_exact_unitary_checks_its_operators_once_per_run(self, monkeypatch):
        import lindbladsde.unraveling as unr

        names = []
        original = unr.check_hermitian

        def counting(m, name="matrix"):
            names.append(name)
            return original(m, name)

        monkeypatch.setattr(unr, "check_hermitian", counting)
        run_ensemble(preset_model("stochastic-unitary-larmor"), uniform_superposition(2),
                     0.01, 1e-3, 8, seed=1, stepper="exact_unitary")
        assert names == ["noise operator (as -iK)"]

    def test_rejects_unknown_stepper(self):
        with pytest.raises(ValueError, match="stepper"):
            run_ensemble(preset_model("dephasing"), uniform_superposition(2), 0.1, 1e-3, 10,
                         seed=0, stepper="milstein")

    def test_rejects_exact_unitary_for_damping(self):
        with pytest.raises(ValueError, match="Hermitian"):
            run_ensemble(preset_model("amplitude-damping"), uniform_superposition(2), 0.1,
                         1e-3, 10, seed=0, stepper="exact_unitary")

    def test_rejects_bad_record_cadence(self):
        with pytest.raises(ValueError, match="record_every"):
            run_ensemble(preset_model("dephasing"), uniform_superposition(2), 0.1, 1e-3, 10,
                         seed=0, record_every=7)


THREE_CHUNKS = 2 * 4096 + 1  # the last chunk holds one trajectory


@pytest.fixture
def forks(monkeypatch):
    """Methods passed to multiprocessing.get_context during the test."""
    import multiprocessing

    calls = []
    original = multiprocessing.get_context

    def counting(method=None):
        calls.append(method)
        return original(method)

    monkeypatch.setattr(multiprocessing, "get_context", counting)
    return calls


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


class TestChunkProcesses:
    @pytest.mark.parametrize("name, stepper", [
        ("two-noise-correlated", "euler"),
        ("stochastic-unitary-larmor", "exact_unitary"),
    ], ids=["two-noise-correlated", "larmor-exact-unitary"])
    def test_workers_give_the_serial_bits(self, monkeypatch, forks, name, stepper):
        model = preset_model(name)
        results = []
        for cpus in ({0}, {0, 1}):
            usable_cpus(monkeypatch, cpus)
            results.append(run_ensemble(model, uniform_superposition(2), 0.01, 1e-3,
                                        THREE_CHUNKS, seed=17, record_every=5,
                                        stepper=stepper))
        assert forks == ["fork"]
        (serial, serial_diag), (pooled, pooled_diag) = results
        assert np.array_equal(serial.mean_state, pooled.mean_state)
        assert np.array_equal(serial.stderr, pooled.stderr)
        assert np.array_equal(serial.times, pooled.times)
        assert serial_diag == pooled_diag

    @pytest.mark.parametrize("failing_chunks", [(1,), (1, 2)], ids=["chunk-1", "chunks-1-2"])
    def test_lowest_failing_chunk_raises_the_serial_message(self, monkeypatch, forks,
                                                            failing_chunks):
        # the patched update is carried into the workers by fork; a chunk is
        # recognised by its first trajectory's increments at the first step
        import lindbladsde.unraveling as unr

        model = preset_model("dephasing")
        first_steps = {
            unr._trajectory_increments(3, 4096 * c, 1, 1, model.noise_basis, 1e-3)[0, 0].tobytes()
            for c in failing_chunks
        }
        original = unr._euler_update

        def failing(model, rho, dt, dw):
            out = original(model, rho, dt, dw)
            if dw[0].tobytes() in first_steps:
                out = out.copy()
                out[min(5, len(out) - 1), 0, 0] = np.inf
            return out

        monkeypatch.setattr(unr, "_euler_update", failing)
        messages = []
        for cpus in ({0}, {0, 1}):
            usable_cpus(monkeypatch, cpus)
            with pytest.raises(NumericalError) as caught:
                run_ensemble(model, uniform_superposition(2), 0.002, 1e-3, THREE_CHUNKS,
                             seed=3)
            messages.append(str(caught.value))
        assert forks == ["fork"]
        assert messages == ["trajectory 4101: non-finite state at t=0.001"] * 2

    @pytest.mark.parametrize("case", ["trajectory", "one-chunk", "one-cpu",
                                      "no-affinity", "live-thread", "daemon"])
    def test_runs_in_process(self, monkeypatch, case):
        import multiprocessing
        import threading

        def refuse(method=None):
            raise AssertionError("forked")

        usable_cpus(monkeypatch, {0, 1})
        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        model, rho0 = preset_model("dephasing"), uniform_superposition(2)
        if case == "trajectory":
            run_trajectory(model, rho0, 0.002, 1e-3, seed=0, traj_index=4096)
            return
        n_traj = 4096 if case == "one-chunk" else THREE_CHUNKS
        if case == "one-cpu":
            usable_cpus(monkeypatch, {0})
        elif case == "no-affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        elif case == "daemon":
            monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if case == "live-thread":
            thread.start()
        try:
            stats, _ = run_ensemble(model, rho0, 0.002, 1e-3, n_traj, seed=0)
        finally:
            release.set()
        if case == "live-thread":
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert stats.trajectory_count == n_traj

    def test_key_checked_before_any_worker(self, monkeypatch):
        import multiprocessing

        def refuse(method=None):
            raise AssertionError("forked")

        usable_cpus(monkeypatch, {0, 1})
        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        model, rho0 = preset_model("dephasing"), uniform_superposition(2)
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            run_ensemble(model, rho0, 0.002, 1e-3, THREE_CHUNKS, seed=2**64)
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            run_ensemble(model, rho0, 0.002, 1e-3, 2**64 + 1, seed=0)

    def test_import_leaves_multiprocessing_unloaded(self):
        # only a run that forks imports multiprocessing, so set-up never pays for it
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = ("import sys, numpy; before = 'multiprocessing' in sys.modules; "
                "import lindbladsde.cli; print(before, 'multiprocessing' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        before, after = result.stdout.split()
        if before == "True":
            pytest.skip("this numpy loads multiprocessing on import")
        assert after == "False"


class TestTrajectoryRng:
    def test_streams_differ_between_trajectories(self):
        a = trajectory_rng(0, 0).standard_normal(8)
        b = trajectory_rng(0, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_streams_repeatable(self):
        a = trajectory_rng(5, 3).standard_normal(8)
        b = trajectory_rng(5, 3).standard_normal(8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 5, 2**63])
    @pytest.mark.parametrize("index", [0, 1, 4095, 10**12])
    def test_stream_is_philox_keyed_by_seed_and_index(self, seed, index):
        key = np.array([seed, index], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(257)
        assert np.array_equal(trajectory_rng(seed, index).standard_normal(257), expected)

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy loads numpy.random on first use; importing the package must
        # not load it, since a command that draws no noise never needs it
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "import lindbladsde.cli; print(before, 'numpy.random' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        before, after = result.stdout.split()
        if before == "True":
            pytest.skip("this numpy loads numpy.random on import")
        assert after == "False"

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="nonnegative"):
            trajectory_rng(-1, 0)

    @pytest.mark.parametrize("seed, index", [(2**64, 0), (0, 2**64)])
    def test_rejects_keys_beyond_64_bits(self, seed, index):
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            trajectory_rng(seed, index)
