"""Dense complex linear algebra for small Hilbert spaces.

Matrices are plain numpy arrays with complex entries and value semantics:
no function here mutates its inputs. Dimensions stay desk-scale (d <= 32,
noise counts <= 16), so dense storage and LAPACK eigendecompositions are
the right tools; there is no sparse or GPU path. LindbladModel validates
a model with the structure checks here; the model-file format is known
to the CLI alone.
"""

from __future__ import annotations

import numpy as np

# Structure-check tolerances. Double precision keeps rounding far below
# these for the matrix sizes this package targets.
HERMITICITY_TOL = 1e-10  # relative Frobenius defect allowed in Hermitian inputs
SYM_TOL = 1e-10          # relative symmetry / unit-diagonal defect for covariances
TRACE_TOL = 1e-8         # |tr(rho) - 1| allowed in a density matrix
PSD_TOL = 1e-8           # eigenvalue floor allowed in a density matrix
CLIP_TOL = 1e-10         # covariance eigenvalues within this of zero count as zero

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Basis convention: index 0 is the ground state, so SIGMA_MINUS maps |1> to |0>.
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(m))


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, acting on the last two axes."""
    return np.conjugate(np.swapaxes(np.asarray(m), -1, -2))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2 on the last two axes."""
    return 0.5 * (m + adjoint(m))


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"{name}: expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name}: entries must be finite")
    return m


def _overflow_scale(m: np.ndarray) -> float:
    """A power of two s <= 1 that brings every |re| and |im| of s * m below 1.

    Multiplying by s is exact, barring subnormal results, so norms of s * m
    cannot overflow, and a comparison between two of them decides as the
    unscaled one does wherever that one is finite.
    """
    peak = max(np.max(np.abs(m.real)), np.max(np.abs(m.imag)))
    return float(np.ldexp(1.0, -max(int(np.frexp(peak)[1]), 0)))


def hermiticity_defect(m: np.ndarray) -> float:
    """Relative Frobenius distance from m to its Hermitian part.

    Computed on m times _overflow_scale(m), so entries near the largest
    float give a finite defect instead of inf / inf = NaN.
    """
    m = m * _overflow_scale(m)
    scale = frobenius(m)
    if scale == 0.0:
        return 0.0
    return frobenius(m - adjoint(m)) / scale


def check_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = require_square(m, name)
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"{name}: not Hermitian (relative defect {defect:.3e} > {HERMITICITY_TOL:.1e})"
        )
    return m


def min_eigenvalues(states: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of stacked Hermitian matrices, closed form for d=2.

    The package's one smallest-eigenvalue routine: the CSV column, the
    chunk diagnostics and check_density_matrix all read it, so only d > 2
    calls LAPACK.
    """
    d = states.shape[-1]
    if d == 2:
        a = states[..., 0, 0].real
        c = states[..., 1, 1].real
        r = np.sqrt(0.25 * (a - c) ** 2 + np.abs(states[..., 0, 1]) ** 2)
        return 0.5 * (a + c) - r
    return np.linalg.eigvalsh(states)[..., 0]


def purities(states: np.ndarray) -> np.ndarray:
    """tr(rho^2) of stacked Hermitian matrices."""
    return np.einsum("...ab,...ba->...", states, states).real


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate the state invariants: Hermitian, unit trace, PSD within tolerance.

    The smallest eigenvalue comes from min_eigenvalues, so a d = 2 state is
    checked without an eigensolver.
    """
    rho = check_hermitian(rho, name="density matrix")
    trace_defect = abs(np.trace(rho) - 1.0)
    if trace_defect > TRACE_TOL:
        raise ValueError(f"density matrix: |tr - 1| = {trace_defect:.3e} > {TRACE_TOL:.1e}")
    smallest = float(min_eigenvalues(hermitian_part(rho)))
    if smallest < -PSD_TOL:
        raise ValueError(f"density matrix: min eigenvalue {smallest:.3e} < -{PSD_TOL:.1e}")
    return rho


def check_real_symmetric(c: np.ndarray) -> np.ndarray:
    """Validate a covariance: a finite real square matrix, symmetric within SYM_TOL.

    The defect |c - c^T| > SYM_TOL * max(|c|, 1) is judged on c times
    _overflow_scale(c), so huge entries cannot hide an asymmetry.
    """
    c = require_square(np.asarray(c, dtype=float), "covariance")
    s = _overflow_scale(c)
    scaled = s * c
    if frobenius(scaled - scaled.T) > SYM_TOL * max(frobenius(scaled), s):
        raise ValueError(f"covariance: not symmetric within {SYM_TOL:.1e}")
    return c


def readonly(arr: np.ndarray) -> np.ndarray:
    """Copy and freeze an array so models can be shared across workers."""
    out = np.array(arr)
    out.setflags(write=False)
    return out
