import itertools

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
from lindbladsde.ito import derive_stochastic_evolution, ito_mul
from lindbladsde.lindblad import drift_operator, lindblad_rhs
from lindbladsde.operators import SIGMA_Z, adjoint, frobenius


def polynomial(const, dt, dw):
    return np.concatenate(([const], [dt], dw))


def random_polynomial(rng, dim, noises):
    return polynomial(
        random_complex(rng, dim),
        random_complex(rng, dim),
        np.array([random_complex(rng, dim) for _ in range(noises)]),
    )


def loop_product_terms(cov, p, q):
    """Term-by-term oracle for the truncated product."""
    n, d = p.shape[0] - 2, p.shape[1]
    const = p[0] @ q[0]
    dt = p[0] @ q[1] + p[1] @ q[0]
    for m in range(n):
        for k in range(n):
            dt = dt + cov[m, k] * (p[2 + m] @ q[2 + k])
    dw = np.zeros((n, d, d), complex)
    for m in range(n):
        dw[m] = p[0] @ q[2 + m] + p[2 + m] @ q[0]
    return const, dt, dw


class TestShapeCheck:
    @pytest.mark.parametrize("terms", [np.zeros((2, 2)), np.zeros((2, 2, 2)),
                                       np.zeros((3, 2, 3))],
                             ids=["2-d", "no-dw-slot", "non-square"])
    def test_rejects_what_is_not_a_stack(self, terms):
        model = model_with_covariance(np.eye(1))
        with pytest.raises(ValueError, match=r"\(N \+ 2, d, d\) stacks"):
            ito_mul(model, terms, terms)


class TestItoMul:
    def test_noise_squared_contracts_to_dt(self):
        # dW * dW with unit self-covariance leaves exactly an identity dt term
        model = model_with_covariance(np.eye(1))
        eye = np.eye(2, dtype=complex)
        zero = np.zeros((2, 2), complex)
        p = polynomial(zero, zero, np.array([eye]))
        out = ito_mul(model, p, p)
        assert np.array_equal(out[1], eye)
        assert np.array_equal(out[0], zero)
        assert np.array_equal(out[2], zero)

    def test_const_times_dt(self):
        model = model_with_covariance(np.eye(1))
        rng = philox(5)
        x = random_complex(rng, 2)
        y = random_complex(rng, 2)
        zero = np.zeros((2, 2), complex)
        p = polynomial(x, zero, np.array([zero]))
        q = polynomial(zero, y, np.array([zero]))
        out = ito_mul(model, p, q)
        assert np.array_equal(out[1], x @ y)
        assert np.array_equal(out[0], zero)

    def test_noise_times_dt_vanishes(self):
        model = model_with_covariance(np.eye(2))
        rng = philox(6)
        zero = np.zeros((2, 2), complex)
        p = polynomial(zero, zero,
                       np.array([random_complex(rng, 2), zero.copy()]))
        q = polynomial(zero, random_complex(rng, 2), np.array([zero, zero]))
        out = ito_mul(model, p, q)
        assert np.array_equal(out[0], zero)
        assert np.array_equal(out[1], zero)
        assert np.array_equal(out[2:], np.array([zero, zero]))

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
        assert frobenius(out[0] - const) < 1e-12
        assert frobenius(out[1] - dt) < 1e-12
        assert frobenius(out[2:] - dw) < 1e-12

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
        assert frobenius(left[1] - right[1]) < 1e-12
        assert frobenius(left[2:] - right[2:]) < 1e-12

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
        assert frobenius(left[0] - right[0]) < 1e-12
        assert frobenius(left[1] - right[1]) < 1e-12
        assert frobenius(left[2:] - right[2:]) < 1e-12

    def test_noise_count_mismatch(self):
        model = model_with_covariance(np.eye(2))
        zero = np.zeros((2, 2), complex)
        p = polynomial(zero, zero, [zero])
        with pytest.raises(ValueError, match=r"N = 2, got \(3, 2, 2\) and \(3, 2, 2\)"):
            ito_mul(model, p, p)

    def test_dim_mismatch(self):
        model = model_with_covariance(np.eye(1))
        zero2, zero3 = np.zeros((2, 2), complex), np.zeros((3, 3), complex)
        with pytest.raises(ValueError, match=r"N = 1, got \(3, 2, 2\) and \(3, 3, 3\)"):
            ito_mul(model, polynomial(zero2, zero2, [zero2]),
                    polynomial(zero3, zero3, [zero3]))


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
        assert frobenius(product[0] - oracle_const) < 1e-12
        assert frobenius(product[1] - oracle_dt) < 1e-12


# (dim, noises, rank): every d in 2-4 and N in 1-3, with a full-rank and,
# for N > 1, a rank-1 covariance. Their seeds were fixed before the first run.
SPLIT_CASES = [(dim, noises, rank)
               for dim, noises, rank in itertools.product((2, 3, 4), (1, 2, 3), (None, 1))
               if rank is None or noises > 1]


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

    @pytest.mark.parametrize("seed, dim, noises, rank",
                             [(16_001 + i, *case) for i, case in enumerate(SPLIT_CASES)])
    def test_any_split_of_the_drift_gives_the_generator(self, seed, dim, noises, rank):
        # The model fixes only U = sum_n d_n u_n, and derive uses u_n = d_n U.
        # Any u_n = d_n U + z_n with sum_n d_n z_n = 0 is as valid, and
        # leaves the dt coefficient of sum_n A_n rho A_n^dagger - rho equal
        # to the generator.
        rng = philox(seed)
        model = random_model(rng, dim, noises, rank=rank)
        rho = random_density(rng, dim)
        w = model.weights
        z = np.array([random_complex(rng, dim) for _ in range(noises)])
        z = z - w[:, None, None] * np.einsum("n,nab->ab", w, z) / (w @ w)
        rho_poly = np.zeros((noises + 2, dim, dim), complex)
        rho_poly[0] = rho
        total = np.zeros((noises + 2, dim, dim), complex)
        for n in range(noises):
            a_n = np.zeros((noises + 2, dim, dim), complex)
            a_n[0] = w[n] * np.eye(dim)
            a_n[1] = w[n] * drift_operator(model) + z[n]
            a_n[2 + n] = model.lindblad_ops[n]
            total = total + ito_mul(model, ito_mul(model, a_n, rho_poly), adjoint(a_n))
        drift = (total - rho_poly)[1]
        assert frobenius(drift - lindblad_rhs(model, rho)) < 1e-12

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
