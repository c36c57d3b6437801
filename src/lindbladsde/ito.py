"""First-order stochastic differential algebra with operator coefficients.

Elements are polynomials over the basis {1, dt, dW^1 .. dW^N} whose
coefficients are dense complex matrices. Multiplication applies the
increment rules dW^m dW^n = cov[m, n] dt and dW^m dt = 0, and silently
drops everything of order dt*dW, dt^2 or higher; that truncation is the
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

from .lindblad import LindbladModel, drift_operator, lindblad_rhs
from .operators import adjoint, frobenius, readonly


@dataclass(frozen=True)
class ItoPolynomial:
    """Operator-valued element const*1 + dt_term*dt + sum_n dw_terms[n]*dW^n."""

    const_term: np.ndarray  # (d, d)
    dt_term: np.ndarray     # (d, d)
    dw_terms: np.ndarray    # (N, d, d)

    def __post_init__(self):
        const = np.asarray(self.const_term, dtype=complex)
        dt = np.asarray(self.dt_term, dtype=complex)
        dw = np.asarray(self.dw_terms, dtype=complex)
        if const.ndim != 2 or const.shape[0] != const.shape[1]:
            raise ValueError(f"const_term must be square, got shape {const.shape}")
        d = const.shape[0]
        if dt.shape != (d, d):
            raise ValueError(f"dt_term shape {dt.shape} does not match dim {d}")
        if dw.ndim != 3 or dw.shape[1:] != (d, d):
            raise ValueError(f"dw_terms must have shape (N, {d}, {d}), got {dw.shape}")
        object.__setattr__(self, "const_term", readonly(const))
        object.__setattr__(self, "dt_term", readonly(dt))
        object.__setattr__(self, "dw_terms", readonly(dw))

    @property
    def dim(self) -> int:
        return self.const_term.shape[0]

    @property
    def noise_count(self) -> int:
        return self.dw_terms.shape[0]

    @classmethod
    def constant(cls, matrix: np.ndarray, noise_count: int) -> "ItoPolynomial":
        m = np.asarray(matrix, dtype=complex)
        d = m.shape[0]
        return cls(m, np.zeros((d, d), complex), np.zeros((noise_count, d, d), complex))

    @classmethod
    def zero(cls, dim: int, noise_count: int) -> "ItoPolynomial":
        z = np.zeros((dim, dim), complex)
        return cls(z, z.copy(), np.zeros((noise_count, dim, dim), complex))

    def adjoint(self) -> "ItoPolynomial":
        """Dagger every coefficient; the increments themselves are real."""
        return ItoPolynomial(adjoint(self.const_term), adjoint(self.dt_term),
                             adjoint(self.dw_terms))

    def __add__(self, other: "ItoPolynomial") -> "ItoPolynomial":
        self._check_compatible(other, "add")
        return ItoPolynomial(self.const_term + other.const_term,
                             self.dt_term + other.dt_term,
                             self.dw_terms + other.dw_terms)

    def __sub__(self, other: "ItoPolynomial") -> "ItoPolynomial":
        self._check_compatible(other, "subtract")
        return ItoPolynomial(self.const_term - other.const_term,
                             self.dt_term - other.dt_term,
                             self.dw_terms - other.dw_terms)

    def _check_compatible(self, other: "ItoPolynomial", what: str) -> None:
        if self.dim != other.dim or self.noise_count != other.noise_count:
            raise ValueError(
                f"cannot {what} polynomials of dim/noise "
                f"({self.dim}, {self.noise_count}) and ({other.dim}, {other.noise_count})"
            )


def ito_mul(model: LindbladModel, p: ItoPolynomial, q: ItoPolynomial) -> ItoPolynomial:
    """Product in the truncated algebra, with cov the model's validated covariance.

    const: p.const q.const
    dW^n:  p.const q.dw[n] + p.dw[n] q.const
    dt:    p.const q.dt + p.dt q.const + sum_{m,n} cov[m,n] p.dw[m] q.dw[n]
    """
    p._check_compatible(q, "multiply")
    if p.noise_count != model.noise_count:
        raise ValueError(
            f"polynomial noise count {p.noise_count} does not match "
            f"model {model.noise_count}"
        )
    const = p.const_term @ q.const_term
    dw = p.const_term @ q.dw_terms + p.dw_terms @ q.const_term
    dt = (p.const_term @ q.dt_term + p.dt_term @ q.const_term
          + np.einsum("mab,mn,nbc->ac", p.dw_terms, model.covariance, q.dw_terms))
    return ItoPolynomial(const, dt, dw)


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


def infinitesimal_operator_polynomials(model: LindbladModel) -> list[ItoPolynomial]:
    """The channel operators d_n + u_n dt + v_n dW^n as algebra elements.

    Only the combination U = sum_n d_n u_n is determined by the model; the
    canonical split u_n = d_n U is used because it is symmetric in n,
    parameter free, and reduces to the exact single-noise exponential form.
    """
    d = model.dim
    n = model.noise_count
    u = drift_operator(model)
    eye = np.eye(d, dtype=complex)
    polys = []
    for k in range(n):
        dw = np.zeros((n, d, d), complex)
        dw[k] = model.lindblad_ops[k]
        polys.append(ItoPolynomial(model.weights[k] * eye,
                                   model.weights[k] * u, dw))
    return polys


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
    rho_poly = ItoPolynomial.constant(rho, model.noise_count)
    total = ItoPolynomial.zero(model.dim, model.noise_count)
    for a_n in infinitesimal_operator_polynomials(model):
        total = total + ito_mul(model, ito_mul(model, a_n, rho_poly), a_n.adjoint())
    increment = total - rho_poly
    drift = np.array(increment.dt_term)
    noise = np.array(increment.dw_terms)
    expected_noise = np.array([
        w * (v @ rho + rho @ v.conj().T)
        for w, v in zip(model.weights, model.lindblad_ops)
    ])
    return DerivationResult(
        noise_coefficients=noise,
        drift_coefficient=drift,
        trace_residual=abs(complex(np.trace(drift))),
        drift_residual=frobenius(drift - lindblad_rhs(model, rho)),
        noise_residual=frobenius(noise - expected_noise),
    )
