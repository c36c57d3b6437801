"""Deterministic master-equation dynamics.

A model is the tuple (H, {v_n}, {d_n}, c): Hamiltonian, noise operators,
positive channel weights, and the real symmetric covariance of the noise
increments. Units use hbar = 1, so H carries inverse time and each v_n
carries inverse square-root time; the weights and covariance are
dimensionless.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    CLIP_TOL,
    SYM_TOL,
    adjoint,
    check_density_matrix,
    check_hermitian,
    frobenius,
    hermitian_part,
    readonly,
)

WEIGHT_TOL = 1e-10            # |sum(d_n^2) - 1| allowed
DRIFT_CONSTRAINT_TOL = 1e-8   # residual below which a model preserves trace per trajectory


class NumericalError(RuntimeError):
    """An integration step produced non-finite entries or an unstable step size."""


@dataclass(frozen=True)
class NoiseBasis:
    """Orthogonal eigenbasis of a model's increment covariance.

    Only model construction builds one, from the covariance's one
    eigendecomposition, and keeps it as model.noise_basis; the arrays are
    frozen. eigenvalues are ascending and clipped so that anything within
    CLIP_TOL of zero is exactly zero. Directions with zero eigenvalue never
    receive a random draw.
    """

    orthogonal: np.ndarray   # (N, N), columns are eigenvectors
    eigenvalues: np.ndarray  # (N,), ascending, >= 0


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of the model constraints, kept as model.report.

    The hard invariants are enforced at construction, so their residuals
    here are diagnostics. The soft check is whether the weighted Hermitian
    parts of the noise operators cancel along every active eigenvector of
    the covariance; when they do, single trajectories preserve the trace
    exactly, not just in the ensemble mean.
    """

    weight_residual: float
    diagonal_residual: float
    psd_residual: float
    drift_residuals: np.ndarray = field(repr=False)  # one per active covariance eigenvector
    trajectory_trace_preserving: bool

    def summary(self) -> str:
        lines = [
            f"weight normalization residual: {self.weight_residual:.3e}",
            f"covariance diagonal residual:  {self.diagonal_residual:.3e}",
            f"covariance PSD residual:       {self.psd_residual:.3e}",
        ]
        for i, r in enumerate(self.drift_residuals):
            lines.append(f"trace-constraint residual [{i}]: {r:.3e}")
        lines.append(
            f"trajectory_trace_preserving:   {'true' if self.trajectory_trace_preserving else 'false'}"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class LindbladModel:
    """Validated open-system model.

    Construction is the package's only validation of a model. It enforces
    the hard invariants: H Hermitian, weights positive with unit square-sum,
    covariance symmetric with unit diagonal and positive semidefinite, and
    v_n^dagger v_n and the drift finite, so entries too large to square are
    refused. H and the covariance, a real matrix for which Hermitian means
    symmetric, go through the one structure check, check_hermitian; the
    covariance's shape and unit diagonal (SYM_TOL) are checked here. A
    weight too large to square reads as weight residual inf, without a numpy
    warning. The PSD check is the covariance's one eigendecomposition: its
    eigenvectors and clipped eigenvalues are kept as noise_basis for the
    runners, and its smallest raw eigenvalue gives the report's PSD
    residual. Construction also derives, once, what every path reads: the
    residual report, kept as report (the soft per-trajectory trace
    constraint is reported there, never enforced), the drift operator U,
    kept as drift, and the stacks of v_n^dagger and v_n^dagger v_n, kept as
    adjoint_ops and vdv_ops; lindblad_rhs reads both, and the Euler step
    kernel reads adjoint_ops. All arrays are copied and frozen, so a model
    is safe to share across threads and worker processes.
    """

    hamiltonian: np.ndarray
    lindblad_ops: np.ndarray   # shape (N, d, d)
    weights: np.ndarray        # shape (N,), positive, sum of squares 1
    covariance: np.ndarray     # shape (N, N), unit diagonal, PSD
    noise_basis: NoiseBasis = field(init=False, repr=False, compare=False)
    report: ValidationReport = field(init=False, repr=False, compare=False)
    drift: np.ndarray = field(init=False, repr=False, compare=False)  # (d, d)
    adjoint_ops: np.ndarray = field(init=False, repr=False, compare=False)  # (N, d, d)
    vdv_ops: np.ndarray = field(init=False, repr=False, compare=False)  # (N, d, d)

    def __post_init__(self):
        h = check_hermitian(np.asarray(self.hamiltonian, dtype=complex), name="hamiltonian")
        ops = np.asarray(self.lindblad_ops, dtype=complex)
        if ops.ndim != 3 or ops.shape[0] < 1:
            raise ValueError(f"lindblad_ops: expected a nonempty (N, d, d) stack, got {ops.shape}")
        if ops.shape[1:] != h.shape:
            raise ValueError(
                f"lindblad_ops: operator shape {ops.shape[1:]} does not match dim {h.shape[0]}"
            )
        if not np.all(np.isfinite(ops)):
            raise ValueError("lindblad_ops: entries must be finite")
        n = ops.shape[0]

        w = np.asarray(self.weights, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"weights: expected shape ({n},), got {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights: all channel weights must be positive finite reals")
        with np.errstate(over="ignore"):  # a huge weight reads as residual inf
            weight_residual = abs(float(np.sum(w * w)) - 1.0)
        if weight_residual > WEIGHT_TOL:
            raise ValueError(
                f"weights: sum of squares differs from 1 by {weight_residual:.3e} "
                f"(tolerance {WEIGHT_TOL:.1e})"
            )

        c = check_hermitian(np.asarray(self.covariance, dtype=float), name="covariance")
        if c.shape != (n, n):
            raise ValueError(f"covariance: expected shape ({n}, {n}), got {c.shape}")
        diagonal_residual = float(np.max(np.abs(np.diag(c) - 1.0)))
        if diagonal_residual > SYM_TOL:
            raise ValueError(
                f"covariance: diagonal differs from 1 by {diagonal_residual:.3e} "
                f"(tolerance {SYM_TOL:.1e})"
            )
        # Everything below reads the frozen copies the model keeps.
        h, ops, w, c = map(readonly, (h, ops, w, c))
        # The package's one eigendecomposition of a covariance. It refuses an
        # indefinite covariance, so no invalid model escapes.
        eigenvalues, orthogonal = np.linalg.eigh(c)
        smallest = float(eigenvalues[0])
        if smallest < -CLIP_TOL:
            raise ValueError(
                f"covariance: not positive semidefinite "
                f"(min eigenvalue {smallest:.3e} < -{CLIP_TOL:.1e})"
            )
        basis = NoiseBasis(readonly(orthogonal),
                           readonly(np.where(eigenvalues <= CLIP_TOL, 0.0, eigenvalues)))
        # vdv_ops by stacked matmul, not einsum: each v_n^dagger v_n then has
        # the bits of the single product v_n^dagger @ v_n. Huge entries
        # overflow these products, so they are formed quietly, then judged.
        vdag = adjoint(ops)
        with np.errstate(over="ignore", invalid="ignore"):
            drift = -1j * h - 0.5 * np.einsum("nba,nbc->ac", ops.conj(), ops)
            vdv_ops = vdag @ ops
        if not (np.all(np.isfinite(drift)) and np.all(np.isfinite(vdv_ops))):
            raise ValueError("lindblad_ops: entries too large: v_n^dagger v_n or the drift "
                             "-iH - (1/2) sum_n v_n^dagger v_n is not finite")

        # sum_n d_n (v_n + v_n^dagger) O[n, r] must vanish for every
        # eigenvector with a positive eigenvalue; null directions never
        # receive noise.
        herm_parts = ops + vdag
        residuals = np.array([
            frobenius(np.einsum("n,n,nab->ab", w, basis.orthogonal[:, r], herm_parts))
            for r in np.flatnonzero(basis.eigenvalues > 0.0)
        ])
        report = ValidationReport(
            weight_residual=weight_residual,
            diagonal_residual=diagonal_residual,
            psd_residual=max(0.0, -smallest),
            drift_residuals=readonly(residuals),
            trajectory_trace_preserving=bool(np.all(residuals <= DRIFT_CONSTRAINT_TOL)),
        )
        # The dataclass is frozen, so its fields are set through __dict__.
        self.__dict__.update(hamiltonian=h, lindblad_ops=ops, weights=w, covariance=c,
                             noise_basis=basis, report=report, drift=readonly(drift),
                             adjoint_ops=readonly(vdag), vdv_ops=readonly(vdv_ops))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def noise_count(self) -> int:
        return self.lindblad_ops.shape[0]


def drift_operator(model: LindbladModel) -> np.ndarray:
    """The deterministic drift U = -iH - (1/2) sum_n v_n^dagger v_n.

    Its Hermitian part is fixed by trace preservation of the mean evolution:
    U + U^dagger = -sum_n v_n^dagger v_n. Built once at construction and
    read-only.
    """
    return model.drift


def lindblad_rhs(model: LindbladModel, rho: np.ndarray) -> np.ndarray:
    """Generator of the mean evolution applied to a state.

    Returns -i[H, rho] + sum_n (v_n rho v_n^dagger
    - (1/2) v_n^dagger v_n rho - (1/2) rho v_n^dagger v_n).
    Accepts a single (d, d) state or a stacked (..., d, d) batch. The result
    is Hermitian and traceless up to rounding whenever rho is Hermitian.

    The noise terms of all n come from one stacked product each, over the
    model's cached v_n^dagger and v_n^dagger v_n, and are then added in n
    order, so the result has the bits of a loop over the noise operators
    that rebuilds both for every n.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (model.dim, model.dim):
        raise ValueError(
            f"lindblad_rhs: state shape {rho.shape[-2:]} does not match dim {model.dim}"
        )
    h = model.hamiltonian
    out = -1j * (h @ rho - rho @ h)
    stacked = rho[..., None, :, :]  # (..., 1, d, d), against the (N, d, d) stacks
    jump = (model.lindblad_ops @ stacked) @ model.adjoint_ops
    anti = 0.5 * (model.vdv_ops @ stacked + stacked @ model.vdv_ops)
    for n in range(model.noise_count):
        out = out + jump[..., n, :, :] - anti[..., n, :, :]
    return out


@dataclass(frozen=True)
class OdeTrajectory:
    """Uniformly sampled deterministic trajectory of the mean state."""

    times: np.ndarray   # (T,), ascending, uniform spacing
    states: np.ndarray  # (T, d, d)


def require_positive(name: str, **values: float) -> None:
    """Raise ValueError unless every value is finite and positive, 0 < x < inf."""
    if not all(0.0 < x < np.inf for x in values.values()):
        raise ValueError(f"{name}: {' and '.join(values)} must be positive")


def time_grid(t_final: float, dt: float, record_every: int, name: str):
    """Step count and recorded times of a run.

    t_final has to be a whole number of steps dt within rounding, and
    record_every a divisor of that number. A run records its initial state
    and the state after every record_every-th step, at the times 0,
    record_every, ..., n_steps times dt. record_every goes through
    operator.index, so a float raises TypeError, as a seed does, instead of
    giving times that the recorded states do not match.
    """
    require_positive(name, t_final=t_final, dt=dt)
    steps = t_final / dt
    if not np.isfinite(steps):
        raise ValueError(f"{name}: t_final / dt = {steps} is not a finite step count")
    n = round(steps)
    if n < 1 or abs(n * dt - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError(
            f"{name}: dt={dt!r} does not divide t_final={t_final!r}"
        )
    if operator.index(record_every) < 1 or n % record_every != 0:
        raise ValueError(
            f"{name}: record_every={record_every} must divide the step count {n}"
        )
    return n, np.arange(0, n + 1, record_every) * dt


def _initial_state(model: LindbladModel, rho0: np.ndarray, name: str) -> np.ndarray:
    """rho0 as a complex density matrix, checked against the model's dimension.

    check_density_matrix takes its positivity check from
    operators.min_eigenvalues, closed form at d = 2.
    """
    rho = np.array(check_density_matrix(rho0), dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise ValueError(f"{name}: rho0 has shape {rho.shape}, but the model's states "
                         f"are {(model.dim, model.dim)}")
    return rho


def integrate_ode(model: LindbladModel, rho0: np.ndarray, t_final: float,
                  dt: float, record_every: int = 1) -> OdeTrajectory:
    """Fixed-step classical 4th-order integration of the mean evolution.

    After every step the state is replaced by its Hermitian part. Trace and
    positivity are deliberately not renormalized or projected; drifts there
    are diagnostics of integrator trouble and would be masked by silent
    projection. Raises NumericalError when a step produces non-finite
    entries, which signals that dt is too large for the model norms.
    """
    rho = _initial_state(model, rho0, "integrate_ode")
    n_steps, times = time_grid(t_final, dt, record_every, "integrate_ode")

    states = np.empty((len(times), *rho.shape), dtype=complex)
    states[0] = rho
    # A step that overflows is caught by the finiteness check, not numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1 = lindblad_rhs(model, rho)
            k2 = lindblad_rhs(model, rho + (0.5 * dt) * k1)
            k3 = lindblad_rhs(model, rho + (0.5 * dt) * k2)
            k4 = lindblad_rhs(model, rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = hermitian_part(rho)
            if not np.all(np.isfinite(rho)):
                raise NumericalError(
                    f"integrate_ode: non-finite state at t={(k + 1) * dt:g}; "
                    f"dt={dt!r} is too large for this model"
                )
            if (k + 1) % record_every == 0:
                states[(k + 1) // record_every] = rho
    return OdeTrajectory(times=times, states=states)


def check_step_size(model: LindbladModel, dt: float) -> None:
    """Guard the Euler bias regime: dt * (|H| + sum |v_n|^2) must stay small.

    Warns above 0.1 and refuses above 1.0 (Frobenius norms). Squares by
    x * x, which gives inf where a float's x ** 2 raises OverflowError.
    """
    scale = frobenius(model.hamiltonian) + sum(
        x * x for x in map(frobenius, model.lindblad_ops)
    )
    stiffness = dt * scale
    if stiffness > 1.0:
        raise NumericalError(
            f"step size dt={dt!r} gives dt*(|H| + sum|v|^2) = {stiffness:.3g} > 1.0; "
            "refusing to integrate"
        )
    if stiffness > 0.1:
        warnings.warn(
            f"step size dt={dt!r} gives dt*(|H| + sum|v|^2) = {stiffness:.3g} > 0.1; "
            "discretization bias may dominate",
            RuntimeWarning,
            stacklevel=5,  # past _prepare and _run_range: the runners' caller
        )
