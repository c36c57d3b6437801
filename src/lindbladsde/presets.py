"""Built-in qubit models and the initial state used by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .lindblad import LindbladModel
from .operators import SIGMA_MINUS, SIGMA_X, SIGMA_Z


def _dephasing() -> LindbladModel:
    # Anti-Hermitian noise operator: single trajectories preserve the trace.
    return LindbladModel(
        hamiltonian=np.zeros((2, 2), complex),
        lindblad_ops=np.array([-1j * SIGMA_Z / np.sqrt(2.0)]),
        weights=np.array([1.0]),
        covariance=np.eye(1),
    )


def _amplitude_damping() -> LindbladModel:
    # Decay at unit rate toward the ground state; the noise operator has a
    # Hermitian part, so only the ensemble mean preserves the trace.
    return LindbladModel(
        hamiltonian=np.zeros((2, 2), complex),
        lindblad_ops=np.array([SIGMA_MINUS]),
        weights=np.array([1.0]),
        covariance=np.eye(1),
    )


def _stochastic_unitary_larmor() -> LindbladModel:
    # H and K both along z; qualifies for the exact-unitary stepper.
    return LindbladModel(
        hamiltonian=SIGMA_Z.copy(),
        lindblad_ops=np.array([-1j * SIGMA_Z]),
        weights=np.array([1.0]),
        covariance=np.eye(1),
    )


def _two_noise_correlated() -> LindbladModel:
    # Two channels driven by the same Wiener increment (all-ones covariance).
    root_half = np.sqrt(0.5)
    return LindbladModel(
        hamiltonian=np.zeros((2, 2), complex),
        lindblad_ops=np.array([-1j * root_half * SIGMA_Z, -1j * root_half * SIGMA_X]),
        weights=np.array([root_half, root_half]),
        covariance=np.ones((2, 2)),
    )


_BUILDERS = {
    "dephasing": _dephasing,
    "amplitude-damping": _amplitude_damping,
    "stochastic-unitary-larmor": _stochastic_unitary_larmor,
    "two-noise-correlated": _two_noise_correlated,
}

PRESET_NAMES = tuple(_BUILDERS)

# Presets whose noise operators are all anti-Hermitian, hence trajectory
# trace preserving.
TRACE_PRESERVING_PRESETS = (
    "dephasing",
    "stochastic-unitary-larmor",
    "two-noise-correlated",
)


def uniform_superposition(dim: int) -> np.ndarray:
    """The pure state with equal amplitudes 1/sqrt(dim) on every basis state.

    It is the initial state of the CLI runs: every preset shows nontrivial
    coherences from it. Its entries are products of the rounded amplitudes
    (0.4999999999999999 at dim=2, not 0.5), and CSV bytes depend on that.
    """
    amp = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    return np.outer(amp, amp.conj())


def preset_model(name: str) -> LindbladModel:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return builder()
