import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    TRACE_PRESERVING_PRESETS,
    philox,
    random_density,
    random_hermitian,
    random_model,
)
from lindbladsde import lindblad
from lindbladsde.ito import derive_stochastic_evolution
from lindbladsde.lindblad import (
    LindbladModel,
    NumericalError,
    drift_operator,
    integrate_ode,
    lindblad_rhs,
    time_grid,
)
from lindbladsde.operators import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    adjoint,
    frobenius,
)
from lindbladsde.presets import PRESET_NAMES, preset_model, uniform_superposition
from lindbladsde.unraveling import run_ensemble, run_trajectory


def single_noise_model(v, h=None):
    h = np.zeros((2, 2), complex) if h is None else h
    return LindbladModel(hamiltonian=h, lindblad_ops=np.array([v]),
                         weights=np.array([1.0]), covariance=np.eye(1))


class TestModelConstruction:
    def test_weight_normalization_residual_zero(self):
        # 0.36 + 0.64 = 1 exactly in binary floating point
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.array([SIGMA_MINUS, SIGMA_MINUS]),
            weights=np.array([0.6, 0.8]),
            covariance=np.eye(2),
        )
        assert model.report.weight_residual == 0.0

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match="sum of squares"):
            LindbladModel(
                hamiltonian=np.zeros((2, 2), complex),
                lindblad_ops=np.array([SIGMA_MINUS, SIGMA_MINUS]),
                weights=np.array([1.0, 1.0]),
                covariance=np.eye(2),
            )

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            LindbladModel(
                hamiltonian=np.zeros((2, 2), complex),
                lindblad_ops=np.array([SIGMA_MINUS]),
                weights=np.array([-1.0]),
                covariance=np.eye(1),
            )

    def test_rejects_non_unit_covariance_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            LindbladModel(
                hamiltonian=np.zeros((2, 2), complex),
                lindblad_ops=np.array([SIGMA_MINUS]),
                weights=np.array([1.0]),
                covariance=np.array([[0.5]]),
            )

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            LindbladModel(
                hamiltonian=np.zeros((2, 2), complex),
                lindblad_ops=np.array([SIGMA_MINUS, SIGMA_MINUS]),
                weights=np.array([0.6, 0.8]),
                covariance=np.array([[1.0, 2.0], [2.0, 1.0]]),
            )

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            single_noise_model(SIGMA_MINUS, h=SIGMA_MINUS)

    def test_model_arrays_frozen(self):
        model = preset_model("dephasing")
        with pytest.raises(ValueError):
            model.hamiltonian[0, 0] = 1.0
        for cached in (model.adjoint_ops, model.vdv_ops):
            with pytest.raises(ValueError):
                cached[0, 0, 0] = 1.0

    def test_noise_basis_is_the_covariance_decomposition(self):
        model = random_model(philox(31), 3, 4, rank=2)
        basis = model.noise_basis
        assert np.count_nonzero(basis.eigenvalues) == 2
        rebuilt = (basis.orthogonal * basis.eigenvalues) @ basis.orthogonal.T
        assert frobenius(rebuilt - model.covariance) <= 1e-10
        report = model.report
        assert report.psd_residual == max(0.0, -np.linalg.eigh(model.covariance)[0][0])
        assert report.drift_residuals.shape == (2,)

    def test_consumers_reuse_the_noise_basis(self, monkeypatch):
        # After construction nothing decomposes the covariance again: the
        # Euler runners and the Ito expansion read the model's basis or
        # covariance.
        model = random_model(philox(32), 2, 3, rank=2)

        def refuse(*args, **kwargs):
            raise AssertionError("covariance decomposed after construction")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        derive_stochastic_evolution(model, random_density(philox(33), 2))
        run_trajectory(model, uniform_superposition(2), 0.01, 1e-3, seed=0)
        run_ensemble(model, uniform_superposition(2), 0.01, 1e-3, 8, seed=0)

    def test_covariance_checked_once(self, monkeypatch):
        calls = []
        original = lindblad.check_hermitian

        def counting(m, name):
            calls.append(name)
            return original(m, name)

        monkeypatch.setattr(lindblad, "check_hermitian", counting)
        random_model(philox(34), 3, 4, rank=2)
        assert calls.count("covariance") == 1

    def test_report_and_drift_are_computed_once(self, monkeypatch):
        # The report and U are derived at construction; reading them again
        # does no arithmetic.
        model = random_model(philox(35), 3, 2)
        assert drift_operator(model) is drift_operator(model)
        assert not drift_operator(model).flags.writeable
        assert not model.report.drift_residuals.flags.writeable

        def refuse(*args, **kwargs):
            raise AssertionError("derived quantity recomputed after construction")

        monkeypatch.setattr(np, "einsum", refuse)
        monkeypatch.setattr(lindblad, "frobenius", refuse)
        monkeypatch.setattr(lindblad, "adjoint", refuse)
        assert drift_operator(model) is model.drift


class TestValidateModel:
    def test_dephasing_preserves_trajectory_trace(self):
        # v + v^dagger = 0 for the anti-Hermitian dephasing operator
        report = preset_model("dephasing").report
        assert report.trajectory_trace_preserving
        assert np.all(report.drift_residuals <= 1e-12)

    def test_amplitude_damping_violates_constraint(self):
        # sigma_minus + sigma_plus = sigma_x, so the residual is |sigma_x|_F
        report = preset_model("amplitude-damping").report
        assert not report.trajectory_trace_preserving
        assert report.drift_residuals.shape == (1,)
        assert abs(report.drift_residuals[0] - np.sqrt(2.0)) < 1e-12

    def test_collective_cancellation_with_correlated_noise(self):
        # Individually the operators have Hermitian parts +/- sigma_x, but the
        # fully correlated covariance has a single active direction along
        # which the weighted sum cancels, so trajectories preserve the trace.
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.array([SIGMA_X - 1j * SIGMA_Z, -SIGMA_X - 1j * SIGMA_Z]),
            weights=np.array([np.sqrt(0.5), np.sqrt(0.5)]),
            covariance=np.ones((2, 2)),
        )
        report = model.report
        assert report.trajectory_trace_preserving
        # breaking the weight symmetry breaks the cancellation
        skewed = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.array([SIGMA_X - 1j * SIGMA_Z, -SIGMA_X - 1j * SIGMA_Z]),
            weights=np.array([0.6, 0.8]),
            covariance=np.ones((2, 2)),
        )
        assert not skewed.report.trajectory_trace_preserving

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_verdicts(self, name):
        # TRACE_PRESERVING_PRESETS is written by hand from the operators, so
        # it is an oracle independent of the residual computation.
        report = preset_model(name).report
        assert report.trajectory_trace_preserving == (name in TRACE_PRESERVING_PRESETS)

    def test_summary_mentions_verdict(self):
        text = preset_model("dephasing").report.summary()
        assert "trajectory_trace_preserving" in text


def preset_reference(name):
    """(H, noise operators, weights, covariance) of a preset, as the
    one-function-per-preset builders wrote them, kept here as the reference."""
    root_half = np.sqrt(0.5)
    zero = np.zeros((2, 2), complex)
    return {
        "dephasing": (zero, np.array([-1j * SIGMA_Z / np.sqrt(2.0)]),
                      np.array([1.0]), np.eye(1)),
        "amplitude-damping": (zero, np.array([SIGMA_MINUS]), np.array([1.0]), np.eye(1)),
        "stochastic-unitary-larmor": (SIGMA_Z.copy(), np.array([-1j * SIGMA_Z]),
                                      np.array([1.0]), np.eye(1)),
        "two-noise-correlated": (
            zero, np.array([-1j * root_half * SIGMA_Z, -1j * root_half * SIGMA_X]),
            np.array([root_half, root_half]), np.ones((2, 2))),
    }[name]


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_arrays_keep_the_builders_bits(self, name):
        model = preset_model(name)
        got = (model.hamiltonian, model.lindblad_ops, model.weights, model.covariance)
        for ours, ref in zip(got, preset_reference(name), strict=True):
            assert ours.dtype == ref.dtype and ours.shape == ref.shape
            # word for word, so that -0.0 and +0.0 differ
            assert np.array_equal(ours.view(np.uint64), ref.view(np.uint64))

    def test_names(self):
        assert PRESET_NAMES == ("dephasing", "amplitude-damping",
                                "stochastic-unitary-larmor", "two-noise-correlated")

    def test_unknown_name_lists_every_preset(self):
        with pytest.raises(KeyError) as info:
            preset_model("no-such")
        message = str(info.value)
        assert "'no-such'" in message
        assert all(name in message for name in PRESET_NAMES)


class TestDriftOperator:
    def test_pure_noise_case(self):
        # v = -iK gives U = -K^2 / 2
        k = random_hermitian(philox(0), 2)
        model = single_noise_model(-1j * k)
        assert frobenius(drift_operator(model) + 0.5 * k @ k) < 1e-14

    def test_pure_hamiltonian_case(self):
        model = single_noise_model(np.zeros((2, 2), complex), h=SIGMA_Z)
        assert np.array_equal(drift_operator(model), -1j * SIGMA_Z)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4),
           noises=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_hermitian_part_fixed_by_trace_preservation(self, seed, dim, noises):
        model = random_model(philox(seed), dim, noises)
        u = drift_operator(model)
        vdv = np.einsum("nba,nbc->ac", model.lindblad_ops.conj(), model.lindblad_ops)
        assert frobenius(u + adjoint(u) + vdv) <= 1e-12


class TestGenerator:
    def test_ground_state_is_dark_for_decay(self):
        # sigma_minus annihilates |0>, and the anticommutator term vanishes on it
        model = single_noise_model(SIGMA_MINUS)
        ground = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        assert frobenius(lindblad_rhs(model, ground)) == 0.0

    def test_state_of_another_dimension_is_refused(self):
        model = single_noise_model(SIGMA_MINUS)
        with pytest.raises(ValueError, match=r"state shape \(3, 3\) does not match dim 2"):
            lindblad_rhs(model, np.eye(3) / 3.0)

    def test_static_model(self):
        model = single_noise_model(np.zeros((2, 2), complex))
        assert frobenius(lindblad_rhs(model, random_density(philox(1), 2))) == 0.0

    def test_dephasing_off_diagonal_rate(self):
        # closed-form 2x2 algebra: the coherence decays at unit rate
        model = preset_model("dephasing")
        rho = random_density(philox(2), 2)
        rhs = lindblad_rhs(model, rho)
        assert abs(rhs[0, 1] - (-rho[0, 1])) < 1e-14
        assert abs(rhs[0, 0]) < 1e-14 and abs(rhs[1, 1]) < 1e-14

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4),
           noises=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_traceless_and_hermitian(self, seed, dim, noises):
        rng = philox(seed)
        model = random_model(rng, dim, noises)
        rho = random_density(rng, dim)
        rhs = lindblad_rhs(model, rho)
        assert abs(np.trace(rhs)) < 1e-12
        assert frobenius(rhs - adjoint(rhs)) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_symbolic_expansion(self, seed):
        rng = philox(seed)
        model = random_model(rng, 3, 2)
        rho = random_density(rng, 3)
        result = derive_stochastic_evolution(model, rho)
        assert frobenius(result.drift_coefficient - lindblad_rhs(model, rho)) < 1e-12

    @pytest.mark.parametrize("noises", [1, 2, 3, 4, 6, 16])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 9, 12, 16, 32])
    def test_bits_of_the_per_noise_loop(self, dim, noises):
        # lindblad_rhs stacks the noise terms over n; this loop, which
        # rebuilds v^dagger and v^dagger v for every n, is the reference
        def reference(model, rho):
            h = model.hamiltonian
            out = -1j * (h @ rho - rho @ h)
            for v in model.lindblad_ops:
                vdag = v.conj().T
                vdv = vdag @ v
                out = out + (v @ rho) @ vdag - 0.5 * (vdv @ rho + rho @ vdv)
            return out

        rng = philox(1000 * dim + noises)
        model = random_model(rng, dim, noises)
        for batch in [(), (3,), (2, 5)]:
            shape = (*batch, dim, dim)
            rho = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert np.array_equal(lindblad_rhs(model, rho), reference(model, rho))

    def test_batched_states(self):
        rng = philox(3)
        model = random_model(rng, 2, 2)
        batch = np.array([random_density(rng, 2) for _ in range(5)])
        stacked = lindblad_rhs(model, batch)
        for i in range(5):
            assert np.array_equal(stacked[i], lindblad_rhs(model, batch[i]))


class TestTimeGrid:
    @pytest.mark.parametrize("t_final, dt, record_every, n", [
        (1.0, 1e-2, 10, 100),
        (0.05, 1e-3, 1, 50),
        (0.2, 0.01, 2, 20),
        (np.pi, np.pi / 2000.0, 2000, 2000),
    ])
    def test_step_count_and_recorded_times(self, t_final, dt, record_every, n):
        n_steps, times = time_grid(t_final, dt, record_every, "run")
        assert n_steps == n
        assert np.array_equal(times, np.arange(0, n + 1, record_every) * dt)

    def test_rejects_dt_that_does_not_divide_t_final(self):
        with pytest.raises(ValueError, match=r"run: dt=0\.0003 does not divide t_final=1\.0"):
            time_grid(1.0, 3e-4, 1, "run")

    @pytest.mark.parametrize("t_final, dt", [(np.inf, 0.01), (1.0, np.nan)])
    def test_rejects_non_finite_values(self, t_final, dt):
        with pytest.raises(ValueError, match="x: t_final and dt must be positive"):
            time_grid(t_final, dt, 1, "x")

    def test_rejects_overflowing_step_count(self):
        # both values are finite, their ratio is not
        with pytest.raises(ValueError, match="x: t_final / dt = inf is not a finite step count"):
            time_grid(1e300, 1e-10, 1, "x")

    def test_rejects_record_every_that_does_not_divide_the_step_count(self):
        with pytest.raises(ValueError, match="run: record_every=7 must divide the step count 100"):
            time_grid(1.0, 1e-2, 7, "run")


class TestIntegrateOde:
    def test_larmor_period_returns_to_start(self):
        # closed-form unitary evolution: rho_01(t) = rho_01(0) exp(-2it),
        # so one full period is t = pi
        model = single_noise_model(np.zeros((2, 2), complex), h=SIGMA_Z)
        rho0 = uniform_superposition(2)
        traj = integrate_ode(model, rho0, np.pi, np.pi / 2000.0, record_every=2000)
        assert frobenius(traj.states[-1] - rho0) < 1e-8

    def test_dephasing_closed_form(self):
        model = preset_model("dephasing")
        rho0 = uniform_superposition(2)
        traj = integrate_ode(model, rho0, 1.0, 1e-3, record_every=1000)
        assert abs(traj.states[-1][0, 1] - 0.5 * np.exp(-1.0)) < 1e-8

    def test_amplitude_damping_closed_form(self):
        model = preset_model("amplitude-damping")
        rho0 = uniform_superposition(2)
        traj = integrate_ode(model, rho0, 1.0, 1e-3, record_every=500)
        assert abs(traj.states[-1][1, 1] - 0.5 * np.exp(-1.0)) < 1e-8

    def test_trace_drift_bounded(self):
        model = preset_model("two-noise-correlated")
        traj = integrate_ode(model, uniform_superposition(2), 1.0, 1e-3)
        traces = np.einsum("taa->t", traj.states).real
        assert np.max(np.abs(traces - 1.0)) <= 1e-10

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_stay_positive(self, name):
        model = preset_model(name)
        traj = integrate_ode(model, uniform_superposition(2), 1.0, 1e-3, record_every=10)
        assert np.linalg.eigvalsh(traj.states)[..., 0].min() >= -1e-6

    def test_states_recorded_on_uniform_grid(self):
        model = preset_model("dephasing")
        traj = integrate_ode(model, uniform_superposition(2), 1.0, 1e-2, record_every=10)
        assert traj.times.shape == (11,)
        assert np.allclose(np.diff(traj.times), 0.1)

    def test_rejects_non_dividing_dt(self):
        model = preset_model("dephasing")
        with pytest.raises(ValueError, match="does not divide"):
            integrate_ode(model, uniform_superposition(2), 1.0, 3e-4)

    def test_rejects_non_dividing_record_cadence(self):
        model = preset_model("dephasing")
        with pytest.raises(ValueError, match="record_every"):
            integrate_ode(model, uniform_superposition(2), 1.0, 1e-2, record_every=7)

    def test_rejects_initial_state_of_another_dimension(self):
        with pytest.raises(ValueError, match=r"integrate_ode: rho0 has shape \(3, 3\).*\(2, 2\)"):
            integrate_ode(preset_model("dephasing"), np.eye(3) / 3, 0.01, 1e-3)

    def test_blowup_raises_numerical_error(self):
        # strong decay stepped at dt=1 sits far outside the stability
        # region, so the iteration amplifies until entries overflow
        model = single_noise_model(10.0 * SIGMA_MINUS)
        with pytest.raises(NumericalError, match="non-finite"):
            integrate_ode(model, uniform_superposition(2), 300.0, 1.0)
