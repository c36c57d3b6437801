"""First-order stochastic differential algebra with operator coefficients.

Elements are polynomials over the basis {1, dt, dW^1 .. dW^N} whose
coefficients are dense complex matrices, held as one (N + 2, d, d) stack
in that order. Multiplication applies the increment rules
dW^m dW^n = cov[m, n] dt and dW^m dt = 0, and silently drops everything of
order dt*dW, dt^2 or higher; that truncation is the definition of the
algebra, not an approximation knob. Coefficients are matrices rather than
scalars so left/right operator ordering survives the expansion, which is
the whole point: the state and the noise operators do not commute.

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
    """Operator-valued element terms[0]*1 + terms[1]*dt + sum_n terms[2 + n]*dW^n.

    terms is one complex (N + 2, d, d) stack: the coefficient of 1, then
    that of dt, then those of dW^1 .. dW^N. The algebra is linear in the
    stack, so a sum, difference or adjoint of elements is that of their
    stacks; only ito_mul needs to know which slot is which.
    """

    terms: np.ndarray  # (N + 2, d, d)

    def __post_init__(self):
        terms = np.asarray(self.terms, dtype=complex)
        if terms.ndim != 3 or terms.shape[0] < 3 or terms.shape[1] != terms.shape[2]:
            raise ValueError(f"terms must be an (N + 2, d, d) stack with N >= 1, "
                             f"got shape {terms.shape}")
        object.__setattr__(self, "terms", readonly(terms))

    @property
    def const_term(self) -> np.ndarray:
        return self.terms[0]

    @property
    def dt_term(self) -> np.ndarray:
        return self.terms[1]

    @property
    def dw_terms(self) -> np.ndarray:
        return self.terms[2:]

    @property
    def dim(self) -> int:
        return self.terms.shape[1]

    @property
    def noise_count(self) -> int:
        return self.terms.shape[0] - 2

    @classmethod
    def constant(cls, matrix: np.ndarray, noise_count: int) -> "ItoPolynomial":
        m = np.asarray(matrix, dtype=complex)
        terms = np.zeros((noise_count + 2, *m.shape), complex)
        terms[0] = m
        return cls(terms)

    def adjoint(self) -> "ItoPolynomial":
        """Dagger every coefficient; the increments themselves are real."""
        return ItoPolynomial(adjoint(self.terms))

    def __add__(self, other: "ItoPolynomial") -> "ItoPolynomial":
        self._check_compatible(other, "add")
        return ItoPolynomial(self.terms + other.terms)

    def __sub__(self, other: "ItoPolynomial") -> "ItoPolynomial":
        self._check_compatible(other, "subtract")
        return ItoPolynomial(self.terms - other.terms)

    def _check_compatible(self, other: "ItoPolynomial", what: str) -> None:
        if self.terms.shape != other.terms.shape:
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
    return ItoPolynomial(np.concatenate((const[None], dt[None], dw)))


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
        terms = np.zeros((n + 2, d, d), complex)
        terms[0] = model.weights[k] * eye
        terms[1] = model.weights[k] * u
        terms[2 + k] = model.lindblad_ops[k]
        polys.append(ItoPolynomial(terms))
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
    total = ItoPolynomial(np.zeros_like(rho_poly.terms))
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
