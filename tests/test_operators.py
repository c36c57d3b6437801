import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import philox, random_complex, random_hermitian
from lindbladsde.operators import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    adjoint,
    check_density_matrix,
    check_hermitian,
    matrix_from_literal,
    min_eigenvalues,
    purities,
    real_matrix_from_literal,
)


def loop_adjoint(m):
    """Brute-force conjugate transpose, independent of numpy idioms."""
    rows, cols = m.shape
    out = np.empty((cols, rows), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            out[j, i] = m[i, j].conjugate()
    return out


def loop_matmul(a, b):
    """Brute-force matrix product."""
    n, k = a.shape
    _, m = b.shape
    out = np.zeros((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestAdjoint:
    def test_identity_self_adjoint(self):
        eye = np.eye(3, dtype=complex)
        assert np.array_equal(adjoint(eye), eye)

    def test_hand_value(self):
        m = np.array([[0.0, 1.0j], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [-1.0j, 0.0]])
        assert np.array_equal(adjoint(m), expected)

    def test_involution_exact(self):
        m = random_complex(philox(11), 5)
        assert np.array_equal(adjoint(adjoint(m)), m)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_product_rule_against_loop_oracle(self, seed):
        rng = philox(seed)
        a = random_complex(rng, 3)
        b = random_complex(rng, 3)
        lhs = adjoint(a @ b)
        rhs = loop_matmul(loop_adjoint(b), loop_adjoint(a))
        assert np.abs(lhs - rhs).max() < 1e-12


class TestStructureChecks:
    def test_density_ok(self):
        check_density_matrix(np.diag([0.25, 0.75]).astype(complex))

    def test_density_trace_violation(self):
        with pytest.raises(ValueError, match="tr"):
            check_density_matrix(np.diag([0.6, 0.6]).astype(complex))

    def test_density_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            check_density_matrix(np.diag([1.2, -0.2]).astype(complex))

    def test_density_not_hermitian(self):
        bad = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(bad)

    def test_hermitian_rejects_nan(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            check_hermitian(bad)

    def test_pauli_algebra(self):
        # direct multiplication oracle for [sigma_x, sigma_y]
        expected = loop_matmul(SIGMA_X, SIGMA_Y) - loop_matmul(SIGMA_Y, SIGMA_X)
        assert np.allclose(expected, 2.0j * SIGMA_Z, atol=0.0)

    def test_sigma_ladder_conventions(self):
        ground = np.array([1.0, 0.0], dtype=complex)
        excited = np.array([0.0, 1.0], dtype=complex)
        assert np.array_equal(SIGMA_MINUS @ ground, np.zeros(2))
        assert np.array_equal(SIGMA_MINUS @ excited, ground)
        assert np.array_equal(SIGMA_PLUS, SIGMA_MINUS.conj().T)


class TestStateStatistics:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_match_the_spectrum(self, dim):
        # d = 2 takes the closed form; Hermitian stacks with negative
        # eigenvalues exercise it away from density matrices
        rng = philox(dim)
        states = np.array([random_hermitian(rng, dim) for _ in range(6)])
        spectrum = np.linalg.eigvalsh(states)
        assert min_eigenvalues(states).shape == (6,)
        assert np.allclose(min_eigenvalues(states), spectrum[:, 0], atol=1e-13)
        assert np.allclose(purities(states), (spectrum ** 2).sum(axis=1), atol=1e-13)


class TestLiterals:
    def test_hand_literal(self):
        m = matrix_from_literal([[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
        assert np.array_equal(m, np.array([[0.0, 1.0j], [-1.0j, 0.0]]))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="literal"):
            matrix_from_literal([[[0, 0]], [[0, 0], [1, 0]]])

    def test_rejects_scalar_entries(self):
        with pytest.raises(ValueError, match="re, im"):
            matrix_from_literal([[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            matrix_from_literal([[[1, 0], [0, 0]]])

    def test_real_literal(self):
        c = real_matrix_from_literal([[1.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(c, np.array([[1.0, 0.5], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="square"):
            real_matrix_from_literal([[1.0, 0.5]])
