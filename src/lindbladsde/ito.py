"""First-order stochastic differential algebra with operator coefficients.

An element is a polynomial over the basis {1, dt, dW^1 .. dW^N} whose
coefficients are dense complex matrices, held as a plain complex
(N + 2, d, d) array: slot 0 holds the coefficient of 1, slot 1 that of dt,
and slot 2 + n that of dW^n. The algebra is linear in that array, so sums,
differences and adjoints of elements are numpy's + and - and
operators.adjoint; only ito_mul needs to know which slot is which, and it
makes the one check of an element. Multiplication applies the increment
rules dW^m dW^n = cov[m, n] dt and dW^m dt = 0, and silently drops
everything of order dt*dW, dt^2 or higher; that truncation is the
definition of the algebra, not an approximation knob. Coefficients are
matrices rather than scalars so left/right operator ordering survives the
expansion, which is the whole point: the state and the noise operators do
not commute.

The algebra exists to check, mechanically, that the one-step expansion of
the weighted noise channel reproduces the master-equation generator in its
dt coefficient and the expected noise coefficients in its dW slots. That
check is :func:`derive_stochastic_evolution`, which returns both residuals;
the `derive` subcommand prints them and applies its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lindblad import LindbladModel, lindblad_rhs
from .operators import adjoint, frobenius


def ito_mul(model: LindbladModel, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product in the truncated algebra, with cov the model's validated covariance.

    p and q are complex (N + 2, d, d) arrays of one shape, with N the
    model's noise count; anything else raises ValueError.

    const: p.const q.const
    dW^n:  p.const q.dw[n] + p.dw[n] q.const
    dt:    p.const q.dt + p.dt q.const + sum_{m,n} cov[m,n] p.dw[m] q.dw[n]
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    n = model.noise_count
    if p.ndim != 3 or p.shape != q.shape or p.shape[0] != n + 2 or p.shape[1] != p.shape[2]:
        raise ValueError(f"ito_mul: expected two (N + 2, d, d) stacks of one shape with "
                         f"N = {n}, got {p.shape} and {q.shape}")
    const = p[0] @ q[0]
    dw = p[0] @ q[2:] + p[2:] @ q[0]
    dt = (p[0] @ q[1] + p[1] @ q[0]
          + np.einsum("mab,mn,nbc->ac", p[2:], model.covariance, q[2:]))
    return np.concatenate((const[None], dt[None], dw))


@dataclass(frozen=True)
class DerivationResult:
    """One-step expansion of the noise channel applied to a state.

    noise_coefficients[n] is the dW^n coefficient of the state increment,
    drift_coefficient its dt coefficient, and trace_residual the absolute
    trace of the drift. drift_residual is the Frobenius distance of the
    drift from lindblad_rhs(model, rho), and noise_residual that of the
    noise coefficients from d_n (v_n rho + rho v_n^dagger). All three
    vanish up to rounding for any valid model.
    """

    noise_coefficients: np.ndarray  # (N, d, d)
    drift_coefficient: np.ndarray   # (d, d)
    trace_residual: float
    drift_residual: float
    noise_residual: float


def infinitesimal_operator_polynomials(model: LindbladModel) -> np.ndarray:
    """The channel operators d_n + u_n dt + v_n dW^n, stacked as (N, N + 2, d, d).

    Row n is the algebra element of A_n. Only the combination
    U = sum_n d_n u_n is determined by the model; the canonical split
    u_n = d_n U is used because it is symmetric in n, parameter free, and
    reduces to the exact single-noise exponential form.
    """
    d = model.dim
    n = model.noise_count
    w = model.weights[:, None, None]
    a = np.zeros((n, n + 2, d, d), complex)
    a[:, 0] = w * np.eye(d, dtype=complex)
    a[:, 1] = w * model.drift
    a[np.arange(n), 2 + np.arange(n)] = model.lindblad_ops
    return a


def derive_stochastic_evolution(model: LindbladModel,
                                rho: np.ndarray) -> DerivationResult:
    """Expand sum_n A_n rho A_n^dagger - rho in the truncated algebra.

    The dW^n coefficients must equal d_n (v_n rho + rho v_n^dagger) and the
    dt coefficient must equal lindblad_rhs(model, rho); both follow
    mechanically from the increment rules once the drift operator carries
    the trace-preservation constraint. The result carries the residuals of
    both identities; the caller decides what tolerance they must meet.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise ValueError(
            f"derive_stochastic_evolution: state shape {rho.shape} does not "
            f"match dim {model.dim}"
        )
    rho_poly = np.zeros((model.noise_count + 2, model.dim, model.dim), complex)
    rho_poly[0] = rho
    total = np.zeros_like(rho_poly)
    for a_n in infinitesimal_operator_polynomials(model):
        total = total + ito_mul(model, ito_mul(model, a_n, rho_poly), adjoint(a_n))
    increment = total - rho_poly
    drift = increment[1]
    noise = increment[2:]
    expected_noise = model.weights[:, None, None] * (model.lindblad_ops @ rho
                                                     + rho @ model.adjoint_ops)
    return DerivationResult(
        noise_coefficients=noise,
        drift_coefficient=drift,
        trace_residual=abs(complex(np.trace(drift))),
        drift_residual=frobenius(drift - lindblad_rhs(model, rho)),
        noise_residual=frobenius(noise - expected_noise),
    )
