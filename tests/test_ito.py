import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    commutator,
    model_with_covariance,
    philox,
    random_complex,
    random_density,
    random_model,
    random_unit_diag_covariance,
)
from lindbladsde.ito import ItoPolynomial, derive_stochastic_evolution, ito_mul
from lindbladsde.lindblad import lindblad_rhs
from lindbladsde.operators import SIGMA_Z, frobenius


def random_polynomial(rng, dim, noises):
    return ItoPolynomial(
        random_complex(rng, dim),
        random_complex(rng, dim),
        np.array([random_complex(rng, dim) for _ in range(noises)]),
    )


def loop_product_terms(cov, p, q):
    """Term-by-term oracle for the truncated product."""
    n, d = p.noise_count, p.dim
    const = p.const_term @ q.const_term
    dt = p.const_term @ q.dt_term + p.dt_term @ q.const_term
    for m in range(n):
        for k in range(n):
            dt = dt + cov[m, k] * (p.dw_terms[m] @ q.dw_terms[k])
    dw = np.zeros((n, d, d), complex)
    for m in range(n):
        dw[m] = p.const_term @ q.dw_terms[m] + p.dw_terms[m] @ q.const_term
    return const, dt, dw


class TestItoMul:
    def test_noise_squared_contracts_to_dt(self):
        # dW * dW with unit self-covariance leaves exactly an identity dt term
        model = model_with_covariance(np.eye(1))
        eye = np.eye(2, dtype=complex)
        zero = np.zeros((2, 2), complex)
        p = ItoPolynomial(zero, zero, np.array([eye]))
        out = ito_mul(model, p, p)
        assert np.array_equal(out.dt_term, eye)
        assert np.array_equal(out.const_term, zero)
        assert np.array_equal(out.dw_terms[0], zero)

    def test_const_times_dt(self):
        model = model_with_covariance(np.eye(1))
        rng = philox(5)
        x = random_complex(rng, 2)
        y = random_complex(rng, 2)
        zero = np.zeros((2, 2), complex)
        p = ItoPolynomial(x, zero, np.array([zero]))
        q = ItoPolynomial(zero, y, np.array([zero]))
        out = ito_mul(model, p, q)
        assert np.array_equal(out.dt_term, x @ y)
        assert np.array_equal(out.const_term, zero)

    def test_noise_times_dt_vanishes(self):
        model = model_with_covariance(np.eye(2))
        rng = philox(6)
        zero = np.zeros((2, 2), complex)
        p = ItoPolynomial(zero, zero,
                          np.array([random_complex(rng, 2), zero.copy()]))
        q = ItoPolynomial(zero, random_complex(rng, 2), np.array([zero, zero]))
        out = ito_mul(model, p, q)
        assert np.array_equal(out.const_term, zero)
        assert np.array_equal(out.dt_term, zero)
        assert np.array_equal(out.dw_terms, np.array([zero, zero]))

    @given(seed=st.integers(0, 2**32 - 1), noises=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_matches_loop_oracle(self, seed, noises):
        rng = philox(seed)
        cov = random_unit_diag_covariance(rng, noises)
        model = model_with_covariance(cov)
        p = random_polynomial(rng, 3, noises)
        q = random_polynomial(rng, 3, noises)
        out = ito_mul(model, p, q)
        const, dt, dw = loop_product_terms(cov, p, q)
        assert frobenius(out.const_term - const) < 1e-12
        assert frobenius(out.dt_term - dt) < 1e-12
        assert frobenius(out.dw_terms - dw) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bilinear(self, seed):
        rng = philox(seed)
        model = model_with_covariance(random_unit_diag_covariance(rng, 2))
        p = random_polynomial(rng, 2, 2)
        q = random_polynomial(rng, 2, 2)
        r = random_polynomial(rng, 2, 2)
        left = ito_mul(model, p + q, r)
        right = ito_mul(model, p, r) + ito_mul(model, q, r)
        assert frobenius(left.dt_term - right.dt_term) < 1e-12
        assert frobenius(left.dw_terms - right.dw_terms) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associative_up_to_truncation(self, seed):
        rng = philox(seed)
        model = model_with_covariance(random_unit_diag_covariance(rng, 3))
        p = random_polynomial(rng, 2, 3)
        q = random_polynomial(rng, 2, 3)
        r = random_polynomial(rng, 2, 3)
        left = ito_mul(model, ito_mul(model, p, q), r)
        right = ito_mul(model, p, ito_mul(model, q, r))
        assert frobenius(left.const_term - right.const_term) < 1e-12
        assert frobenius(left.dt_term - right.dt_term) < 1e-12
        assert frobenius(left.dw_terms - right.dw_terms) < 1e-12

    def test_noise_count_mismatch(self):
        model = model_with_covariance(np.eye(2))
        p = ItoPolynomial.zero(2, 1)
        with pytest.raises(ValueError, match="noise count"):
            ito_mul(model, p, p)

    def test_dim_mismatch(self):
        model = model_with_covariance(np.eye(1))
        with pytest.raises(ValueError, match="multiply"):
            ito_mul(model, ItoPolynomial.zero(2, 1), ItoPolynomial.zero(3, 1))


class TestItoContext:
    """ito_mul takes its dW dW table from a model, which refuses an unusable covariance."""

    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            model_with_covariance(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            model_with_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestExpectation:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_expectation_of_product(self, seed):
        # The expectation over the noise keeps the const and dt slots; the
        # dt slot is where the covariance enters the product.
        rng = philox(seed)
        cov = random_unit_diag_covariance(rng, 2)
        p = random_polynomial(rng, 2, 2)
        q = random_polynomial(rng, 2, 2)
        product = ito_mul(model_with_covariance(cov), p, q)
        oracle_const, oracle_dt, _ = loop_product_terms(cov, p, q)
        assert frobenius(product.const_term - oracle_const) < 1e-12
        assert frobenius(product.dt_term - oracle_dt) < 1e-12


class TestDeriveStochasticEvolution:
    def test_single_noise_unitary_drift_is_double_commutator(self):
        from lindbladsde.lindblad import LindbladModel

        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.array([-1j * SIGMA_Z]),
            weights=np.array([1.0]),
            covariance=np.eye(1),
        )
        rho = random_density(philox(10), 2)
        result = derive_stochastic_evolution(model, rho)
        expected = -0.5 * commutator(SIGMA_Z, commutator(SIGMA_Z, rho))
        assert frobenius(result.drift_coefficient - expected) < 1e-12

    def test_trivial_model_is_static(self):
        from lindbladsde.lindblad import LindbladModel

        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.zeros((1, 2, 2), complex),
            weights=np.array([1.0]),
            covariance=np.eye(1),
        )
        rho = random_density(philox(11), 2)
        result = derive_stochastic_evolution(model, rho)
        assert frobenius(result.drift_coefficient) == 0.0
        assert frobenius(result.noise_coefficients) == 0.0

    def test_two_noise_drift_matches_generator(self):
        rng = philox(12)
        model = random_model(rng, 2, 2, identity_covariance=True)
        rho = random_density(rng, 2)
        result = derive_stochastic_evolution(model, rho)
        assert frobenius(result.drift_coefficient - lindblad_rhs(model, rho)) < 1e-12

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 4),
           noises=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_identities_hold_for_random_models(self, seed, dim, noises):
        rng = philox(seed)
        model = random_model(rng, dim, noises)
        rho = random_density(rng, dim)
        result = derive_stochastic_evolution(model, rho)
        # dt coefficient reproduces the master-equation generator
        assert frobenius(result.drift_coefficient - lindblad_rhs(model, rho)) < 1e-12
        # dW^n coefficient is d_n (v_n rho + rho v_n^dagger)
        for n in range(noises):
            v = model.lindblad_ops[n]
            expected = model.weights[n] * (v @ rho + rho @ v.conj().T)
            assert frobenius(result.noise_coefficients[n] - expected) < 1e-12
        # trace preservation of the drift, machine checked
        assert result.trace_residual < 1e-12

    def test_result_carries_both_residuals(self):
        rng = philox(15)
        model = random_model(rng, 3, 2)
        rho = random_density(rng, 3)
        result = derive_stochastic_evolution(model, rho)
        assert result.drift_residual == frobenius(
            result.drift_coefficient - lindblad_rhs(model, rho))
        expected = np.array([w * (v @ rho + rho @ v.conj().T)
                             for w, v in zip(model.weights, model.lindblad_ops)])
        assert result.noise_residual == frobenius(result.noise_coefficients - expected)
        assert result.drift_residual < 1e-12
        assert result.noise_residual < 1e-12

    def test_rank_deficient_covariance_still_derives(self):
        rng = philox(13)
        model = random_model(rng, 2, 3, rank=1)
        rho = random_density(rng, 2)
        result = derive_stochastic_evolution(model, rho)
        assert frobenius(result.drift_coefficient - lindblad_rhs(model, rho)) < 1e-12

    def test_state_shape_mismatch(self):
        model = random_model(philox(14), 2, 1)
        with pytest.raises(ValueError, match="does not match dim"):
            derive_stochastic_evolution(model, np.eye(3) / 3.0)
