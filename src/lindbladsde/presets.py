"""Built-in qubit models and the initial state used by the CLI and the test suite."""

from __future__ import annotations

import numpy as np

from .lindblad import LindbladModel
from .operators import SIGMA_MINUS, SIGMA_X, SIGMA_Z

_ZERO = np.zeros((2, 2), complex)
_ROOT_HALF = np.sqrt(0.5)

# Each preset's (H, noise operators, weights, covariance), which preset_model
# hands to LindbladModel, the one check of every model.
_PRESETS = {
    # Anti-Hermitian noise operator: single trajectories preserve the trace.
    "dephasing": (_ZERO, [-1j * SIGMA_Z / np.sqrt(2.0)], [1.0], np.eye(1)),
    # Decay at unit rate toward the ground state; the noise operator has a
    # Hermitian part, so only the ensemble mean preserves the trace.
    "amplitude-damping": (_ZERO, [SIGMA_MINUS], [1.0], np.eye(1)),
    # H and K both along z; qualifies for the exact-unitary stepper.
    "stochastic-unitary-larmor": (SIGMA_Z, [-1j * SIGMA_Z], [1.0], np.eye(1)),
    # Two channels driven by the same Wiener increment (all-ones covariance).
    "two-noise-correlated": (_ZERO, [-1j * _ROOT_HALF * SIGMA_Z, -1j * _ROOT_HALF * SIGMA_X],
                             [_ROOT_HALF, _ROOT_HALF], np.ones((2, 2))),
}

PRESET_NAMES = tuple(_PRESETS)


def uniform_superposition(dim: int) -> np.ndarray:
    """The pure state with equal amplitudes 1/sqrt(dim) on every basis state.

    It is the initial state of the CLI runs: every preset shows nontrivial
    coherences from it. Its entries are products of the rounded amplitudes
    (0.4999999999999999 at dim=2, not 0.5), and CSV bytes depend on that.
    """
    amp = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    return np.outer(amp, amp.conj())


def preset_model(name: str) -> LindbladModel:
    """A new model of the preset name; KeyError naming the presets otherwise."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return LindbladModel(*_PRESETS[name])
