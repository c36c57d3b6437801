"""Completely positive maps in operator-sum form.

A channel is a nonempty (K, d, d) stack of complex operators {A_k}, acting
as X -> sum_k A_k X A_k^dagger. Complete positivity is automatic from the
form; choi_of produces the standard certificate for it. apply_kraus and
choi_of refuse an empty, non-square or non-finite stack.
"""

from __future__ import annotations

import numpy as np

from .lindblad import LindbladModel, NumericalError, require_positive
from .operators import hermitian_part


def _check_stack(name: str, operators: np.ndarray) -> np.ndarray:
    """operators as a complex array, refused unless a finite nonempty (K, d, d) stack."""
    ops = np.asarray(operators, dtype=complex)
    if ops.ndim != 3 or ops.shape[0] < 1 or ops.shape[1] != ops.shape[2]:
        raise ValueError(f"{name}: expected a nonempty (K, d, d) stack, got {ops.shape}")
    if not np.all(np.isfinite(ops)):
        raise ValueError(f"{name}: entries must be finite")
    return ops


def apply_kraus(operators: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k A_k x A_k^dagger. Preserves Hermiticity and positivity of x."""
    ops = _check_stack("apply_kraus", operators)
    x = np.asarray(x, dtype=complex)
    dim = ops.shape[1]
    if x.shape != (dim, dim):
        raise ValueError(f"apply_kraus: operand shape {x.shape} does not match dim {dim}")
    return np.einsum("kab,bc,kdc->ad", ops, x, ops.conj())


def choi_of(operators: np.ndarray) -> np.ndarray:
    """Choi matrix: the channel applied to half of an unnormalized maximally
    entangled pair, with the channel acting on the second tensor factor.

    Column-stacking convention: the Choi matrix is sum_k vec(A_k) vec(A_k)^dagger
    with vec stacking columns. The convention is fixed so tests are
    bit-reproducible; positivity does not depend on it.
    """
    ops = _check_stack("choi_of", operators)
    k, d, _ = ops.shape
    vecs = ops.transpose(0, 2, 1).reshape(k, d * d)  # rows are column-stacked A_k
    # Overflow leaves inf or nan in the result, which the caller's
    # finiteness check reports; numpy's warning would only precede it.
    with np.errstate(over="ignore", invalid="ignore"):
        return hermitian_part(vecs.T @ vecs.conj())


def build_infinitesimal_kraus(model: LindbladModel, dt: float,
                              dw: np.ndarray) -> np.ndarray:
    """One-step channel {d_n (1 + U dt) + v_n dW^n} for concrete increments.

    Returns the (N, d, d) operator stack. dw holds sampled values of the
    noise increments, one per channel; the symbolic counterpart of this
    construction lives in the ito module. With increments satisfying
    (dW^n)^2 = dt, applying the channel to a state agrees with the one-step
    Euler update up to order dt^(3/2). Raises NumericalError when dt
    overflows the operators.
    """
    require_positive("build_infinitesimal_kraus", dt=dt)
    dw = np.asarray(dw, dtype=float)
    if dw.shape != (model.noise_count,):
        raise ValueError(
            f"build_infinitesimal_kraus: expected {model.noise_count} increments, "
            f"got shape {dw.shape}"
        )
    eye = np.eye(model.dim, dtype=complex)
    # The finiteness check below is the one report of an overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        ops = np.array([
            w * (eye + dt * model.drift) + dwn * v
            for w, v, dwn in zip(model.weights, model.lindblad_ops, dw)
        ])
    if not np.all(np.isfinite(ops)):
        raise NumericalError(
            f"build_infinitesimal_kraus: non-finite operators; dt={dt!r} is too large "
            "for this model"
        )
    return ops
