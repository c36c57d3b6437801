import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import philox, random_complex, random_hermitian
from lindbladsde.operators import (
    PSD_TOL,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    adjoint,
    check_density_matrix,
    check_hermitian,
    frobenius,
    hermiticity_defect,
    min_eigenvalues,
    purities,
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

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("offset", [-1e-12, 1e-12])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_density_psd_edge_matches_eigvalsh_oracle(self, dim, offset, seed):
        # a random eigenbasis with the smallest eigenvalue -PSD_TOL + offset:
        # accepted or rejected as an eigvalsh check decides, same message
        q, _ = np.linalg.qr(random_complex(philox(100 * dim + seed), dim))
        lowest = -PSD_TOL + offset
        spectrum = np.concatenate([[lowest], np.full(dim - 1, (1.0 - lowest) / (dim - 1))])
        rho = (q * spectrum) @ q.conj().T
        smallest = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
        assert (smallest < -PSD_TOL) == (offset < 0)
        if smallest < -PSD_TOL:
            message = f"density matrix: min eigenvalue {smallest:.3e} < -{PSD_TOL:.1e}"
            with pytest.raises(ValueError) as raised:
                check_density_matrix(rho)
            assert str(raised.value) == message
        else:
            assert check_density_matrix(rho) is rho

    def test_hermitian_rejects_nan(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="finite"):
            check_hermitian(bad)

    # entries near 1e200 overflow the Frobenius norms of the plain defects;
    # the real one is a covariance, for which Hermitian means symmetric
    @pytest.mark.parametrize("bad", [
        np.array([[0, 1e200], [0, 0]], dtype=complex),
        np.array([[1, 1e200], [0, 1]], dtype=float),
    ], ids=["hermitian", "symmetric"])
    def test_huge_entries_cannot_hide_a_defect(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not Hermitian"):
                check_hermitian(bad)
            good = np.array([[0, 1e200], [1e200, 0]], dtype=bad.dtype)
            assert check_hermitian(good) is not None

    # entries near 1e-200 underflow the squares of the plain norms to 0,
    # and a subnormal peak needs the largest scale there is
    @pytest.mark.parametrize("tiny", [1e-200, 5e-324])
    def test_tiny_entries_cannot_hide_a_defect(self, tiny):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hermiticity_defect(np.array([[0, tiny], [0, 0]])) == pytest.approx(2 ** 0.5)
            with pytest.raises(ValueError, match=r"not Hermitian \(relative defect 1\.414e\+00"):
                check_hermitian(np.array([[0, tiny], [0, 0]], dtype=complex))
            assert check_hermitian(np.array([[0, tiny], [tiny, 0]])) is not None

    @pytest.mark.parametrize("magnitude", [1e-3, 1.0, 3.0, 1e100])
    def test_rescaled_defect_keeps_the_plain_bits(self, magnitude):
        # the rescaling is by a power of two, so where the plain formula
        # neither overflows nor underflows it gives the same float
        m = magnitude * random_complex(philox(5), 4)
        assert frobenius(m) == float(np.linalg.norm(m))
        assert hermiticity_defect(m) == (float(np.linalg.norm(m - adjoint(m)))
                                         / float(np.linalg.norm(m)))

    @pytest.mark.parametrize("magnitude", [1e200, 1e-200])
    def test_frobenius_is_finite_where_the_plain_norm_is_not(self, magnitude):
        m = magnitude * random_complex(philox(6), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = frobenius(m)
        assert 0.0 < norm < np.inf
        assert norm == pytest.approx(magnitude * frobenius(m / magnitude), rel=1e-15)

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
