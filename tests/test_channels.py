import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import philox, random_complex, random_density, random_model
from lindbladsde.channels import apply_kraus, build_infinitesimal_kraus, choi_of
from lindbladsde.lindblad import LindbladModel, NumericalError
from lindbladsde.operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    adjoint,
    frobenius,
    hermitian_part,
)
from lindbladsde.presets import PRESET_NAMES, preset_model, uniform_superposition
from lindbladsde.unraveling import _euler_update


def completeness_residual(ops):
    """Frobenius distance of sum_k A_k^dagger A_k from the identity."""
    return frobenius(np.einsum("kba,kbc->ac", ops.conj(), ops) - np.eye(ops.shape[1]))


# Both consumers of a stack, each given a stack and nothing else to refuse.
CONSUMERS = pytest.mark.parametrize(
    "consume", [choi_of, lambda ops: apply_kraus(ops, np.eye(2))],
    ids=["choi_of", "apply_kraus"])


class TestApplyKraus:
    def test_identity_channel(self):
        ch = np.array([np.eye(2, dtype=complex)])
        x = random_complex(philox(0), 2)
        assert np.array_equal(apply_kraus(ch, x), x)

    def test_reset_channel_hand_value(self):
        # A1 = |0><0|, A2 = |0><1| acting on the maximally mixed state:
        # 0.5 |0><0| + 0.5 |0><1||1><0| = |0><0| by direct 2x2 multiplication.
        a1 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        a2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        ch = np.array([a1, a2])
        out = apply_kraus(ch, np.eye(2, dtype=complex) / 2.0)
        assert np.allclose(out, np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-15)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 8),
           n_ops=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_preserves_hermiticity_and_positivity(self, seed, dim, n_ops):
        rng = philox(seed)
        ch = np.array([random_complex(rng, dim) for _ in range(n_ops)])
        x = random_density(rng, dim)
        out = apply_kraus(ch, x)
        assert frobenius(out - adjoint(out)) <= 1e-10 * max(1.0, frobenius(out))
        assert np.linalg.eigvalsh(hermitian_part(out))[0] >= -1e-10

    def test_dimension_mismatch(self):
        ch = np.array([np.eye(2, dtype=complex)])
        with pytest.raises(ValueError, match="apply_kraus: operand shape .* does not match dim 2"):
            apply_kraus(ch, np.eye(3))

    @CONSUMERS
    def test_empty_channel_rejected(self, consume):
        with pytest.raises(ValueError, match="expected a nonempty .K, d, d. stack"):
            consume(np.zeros((0, 2, 2)))

    @CONSUMERS
    @pytest.mark.parametrize("ops, match", [
        (np.zeros((1, 2, 3)), r"nonempty .* got \(1, 2, 3\)"),
        (np.eye(2), r"nonempty .* got \(2, 2\)"),
        (np.array([[[1.0, 0.0], [0.0, np.nan]]]), "entries must be finite"),
        (np.array([[[1.0, 0.0], [0.0, np.inf]]]), "entries must be finite"),
    ], ids=["non-square", "not-a-stack", "nan", "inf"])
    def test_malformed_stack_rejected(self, consume, ops, match):
        with pytest.raises(ValueError, match=match):
            consume(ops)


class TestChoi:
    def test_identity_channel_is_rank_one_projector(self):
        choi = choi_of(np.array([np.eye(2, dtype=complex)]))
        eigs = np.linalg.eigvalsh(choi)
        assert abs(np.trace(choi).real - 2.0) < 1e-12
        assert np.allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_completely_depolarizing(self):
        # Kraus family: the four Paulis, each normalized twice by sqrt(2)
        paulis = [np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z]
        ops = np.array([p / np.sqrt(2.0) / np.sqrt(2.0) for p in paulis])
        # oracle: this channel maps every state to the maximally mixed state
        rho = random_density(philox(2), 2)
        out = apply_kraus(ops, rho)
        assert np.allclose(out, np.eye(2) / 2.0, atol=1e-14)
        choi = choi_of(ops)
        assert np.allclose(choi, np.eye(4) / 2.0, atol=1e-14)

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4),
           n_ops=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_always_psd(self, seed, dim, n_ops):
        rng = philox(seed)
        ch = np.array([random_complex(rng, dim) for _ in range(n_ops)])
        assert np.linalg.eigvalsh(choi_of(ch))[0] >= -1e-10


class TestInfinitesimalChannel:
    def test_static_model_gives_identity_channel(self):
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.zeros((1, 2, 2), complex),
            weights=np.array([1.0]),
            covariance=np.eye(1),
        )
        ch = build_infinitesimal_kraus(model, 1e-3, np.zeros(1))
        assert np.array_equal(ch[0], np.eye(2))
        assert completeness_residual(ch) == 0.0

    def test_single_noise_unitary_expansion(self):
        # K = sigma_z, H = sigma_z: operator must be
        # 1 - i K dW + (-iH - K^2/2) dt, the first-order exponential expansion
        model = preset_model("stochastic-unitary-larmor")
        dt, dw = 1e-3, 0.02
        ch = build_infinitesimal_kraus(model, dt, np.array([dw]))
        expected = (np.eye(2) - 1j * SIGMA_Z * dw
                    + (-1j * SIGMA_Z - 0.5 * SIGMA_Z @ SIGMA_Z) * dt)
        assert frobenius(ch[0] - expected) < 1e-14

    def test_matches_euler_step_at_strong_order_three_halves(self):
        # halving-ratio oracle: with increments of magnitude sqrt(dt) the
        # channel and the Euler update agree up to O(dt^(3/2)), so halving
        # dt shrinks the defect by about 2^(3/2)
        model = preset_model("dephasing")
        rho = uniform_superposition(2)
        errors = []
        for dt in (1e-3, 5e-4):
            defects = []
            for sign in (1.0, -1.0):
                dw = np.array([sign * np.sqrt(dt)])
                channel_out = apply_kraus(build_infinitesimal_kraus(model, dt, dw), rho)
                euler_out = _euler_update(model, rho, dt, dw)
                defects.append(frobenius(channel_out - euler_out))
            errors.append(np.mean(defects))
        ratio = errors[0] / errors[1]
        assert 2.5 <= ratio <= 5.7

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 3),
           noises=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_trace_defect_is_second_order_after_mean_compensation(self, seed, dim, noises):
        # At dW = 0 the completeness sum is 1 - sum_n v_n^dag v_n dt + U^dag U dt^2:
        # the first-order piece is exactly the mean of the dropped quadratic
        # noise branch, so after adding it back the defect is second order.
        rng = philox(seed)
        model = random_model(rng, dim, noises)
        dt = 1e-3
        ops = build_infinitesimal_kraus(model, dt, np.zeros(noises))
        total = np.einsum("kba,kbc->ac", ops.conj(), ops)
        vdv = np.einsum("nba,nbc->ac", model.lindblad_ops.conj(), model.lindblad_ops)
        compensated = total - np.eye(dim) + vdv * dt
        bound = (frobenius(model.hamiltonian) + frobenius(vdv)) ** 2 * dt * dt
        assert frobenius(compensated) <= bound + 1e-12
        # and the uncompensated defect is the first-order piece itself
        assert abs(frobenius(total - np.eye(dim)) - dt * frobenius(vdv)) <= bound + 1e-12

    def test_trace_defect_halving_for_constrained_presets(self):
        # with two-point increments the defect of the constrained presets
        # shrinks at least at order 3/2 under dt halving
        for name in ("dephasing", "stochastic-unitary-larmor"):
            model = preset_model(name)
            defects = []
            for dt in (1e-3, 5e-4):
                dw = np.full(model.noise_count, np.sqrt(dt))
                defects.append(completeness_residual(build_infinitesimal_kraus(model, dt, dw)))
            assert defects[0] / defects[1] >= 2.5

    def test_rejects_bad_increment_count(self):
        model = preset_model("dephasing")
        with pytest.raises(ValueError, match="increments"):
            build_infinitesimal_kraus(model, 1e-3, np.zeros(2))

    def test_rejects_nonpositive_dt(self):
        model = preset_model("dephasing")
        with pytest.raises(ValueError, match="positive"):
            build_infinitesimal_kraus(model, 0.0, np.zeros(1))

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_rejects_non_finite_dt(self, dt):
        model = preset_model("dephasing")
        with pytest.raises(ValueError, match="build_infinitesimal_kraus: dt must be positive"):
            build_infinitesimal_kraus(model, dt, np.zeros(1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_dt_is_a_numerical_failure(self):
        # U = -4i sigma_z - ..., so dt * U overflows at dt = 1.7e308
        model = LindbladModel(hamiltonian=4.0 * SIGMA_Z, lindblad_ops=np.array([SIGMA_Y]),
                              weights=np.array([1.0]), covariance=np.eye(1))
        with pytest.raises(NumericalError, match="build_infinitesimal_kraus: non-finite"):
            build_infinitesimal_kraus(model, 1.7e308, np.zeros(1))


class TestAllPresetsChoi:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_choi_psd_for_sampled_increments(self, name):
        model = preset_model(name)
        dt = 1e-3
        for scale in (0.0, 1.0, -1.0):
            dw = np.full(model.noise_count, scale * np.sqrt(dt))
            ch = build_infinitesimal_kraus(model, dt, dw)
            assert np.linalg.eigvalsh(choi_of(ch))[0] >= -1e-10
