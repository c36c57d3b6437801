"""Completely positive maps in operator-sum form.

A channel is a nonempty family of same-dimension operators {A_k} acting as
X -> sum_k A_k X A_k^dagger. Complete positivity is automatic from the
form; choi_of produces the standard certificate for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import LindbladModel, NumericalError, drift_operator, require_positive
from .operators import hermitian_part, readonly


@dataclass(frozen=True)
class KrausChannel:
    """Operator-sum representation of a completely positive map."""

    operators: np.ndarray  # (K, d, d)

    def __post_init__(self):
        ops = np.asarray(self.operators, dtype=complex)
        if ops.ndim != 3 or ops.shape[0] < 1 or ops.shape[1] != ops.shape[2]:
            raise ValueError(
                f"KrausChannel: expected a nonempty (K, d, d) stack, got {ops.shape}"
            )
        if not np.all(np.isfinite(ops)):
            raise ValueError("KrausChannel: entries must be finite")
        object.__setattr__(self, "operators", readonly(ops))

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


def apply_kraus(channel: KrausChannel, x: np.ndarray) -> np.ndarray:
    """sum_k A_k x A_k^dagger. Preserves Hermiticity and positivity of x."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (channel.dim, channel.dim):
        raise ValueError(
            f"apply_kraus: operand shape {x.shape} does not match dim {channel.dim}"
        )
    ops = channel.operators
    return np.einsum("kab,bc,kdc->ad", ops, x, ops.conj())


def choi_of(channel: KrausChannel) -> np.ndarray:
    """Choi matrix: the channel applied to half of an unnormalized maximally
    entangled pair, with the channel acting on the second tensor factor.

    Column-stacking convention: the Choi matrix is sum_k vec(A_k) vec(A_k)^dagger
    with vec stacking columns. The convention is fixed so tests are
    bit-reproducible; positivity does not depend on it.
    """
    ops = channel.operators
    k, d, _ = ops.shape
    vecs = ops.transpose(0, 2, 1).reshape(k, d * d)  # rows are column-stacked A_k
    # Overflow leaves inf or nan in the result, which the caller's
    # finiteness check reports; numpy's warning would only precede it.
    with np.errstate(over="ignore", invalid="ignore"):
        return hermitian_part(vecs.T @ vecs.conj())


def build_infinitesimal_kraus(model: LindbladModel, dt: float,
                              dw: np.ndarray) -> KrausChannel:
    """One-step channel {d_n (1 + U dt) + v_n dW^n} for concrete increments.

    dw holds sampled values of the noise increments, one per channel; the
    symbolic counterpart of this construction lives in the ito module. With
    increments satisfying (dW^n)^2 = dt, applying the channel to a state
    agrees with the one-step Euler update up to order dt^(3/2). Raises
    NumericalError when dt overflows the operators.
    """
    require_positive("build_infinitesimal_kraus", dt=dt)
    dw = np.asarray(dw, dtype=float)
    if dw.shape != (model.noise_count,):
        raise ValueError(
            f"build_infinitesimal_kraus: expected {model.noise_count} increments, "
            f"got shape {dw.shape}"
        )
    u = drift_operator(model)
    eye = np.eye(model.dim, dtype=complex)
    # The finiteness check below is the one report of an overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        ops = np.array([
            w * (eye + dt * u) + dwn * v
            for w, v, dwn in zip(model.weights, model.lindblad_ops, dw)
        ])
    if not np.all(np.isfinite(ops)):
        raise NumericalError(
            f"build_infinitesimal_kraus: non-finite operators; dt={dt!r} is too large "
            "for this model"
        )
    return KrausChannel(ops)
