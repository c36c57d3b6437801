"""Output checks for the benchmark, built without the package under test.

The reference mean evolution is the exponential of the vectorized
master-equation generator

    L(rho) = -i[H, rho] + sum_n (v_n rho v_n^dagger - 1/2 {v_n^dagger v_n, rho})

applied to vec(rho0). It is built here from the model's raw H and v_n with
plain numpy, so a defect in the package's own integrators cannot hide in
the reference. Every check returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import io
import math

import numpy as np

# A recorded ensemble mean may sit at most this many Frobenius standard
# errors away from the reference. The Frobenius error of the mean has at
# most 2 d^2 real components, so an honest estimate exceeds 6 stderr with
# negligible probability, while the Euler bias of the sde workloads stays
# below one stderr.
Z_LIMIT = 6.0
TRACE_TOL = 1e-9          # trace extremes of trace-preserving models
TP_RESIDUAL_TOL = 1e-8    # weighted Hermitian parts cancel per active direction
# Max |RK4 - reference| entry over all rows. The generated qudit models
# give at most 6e-9 over seeds 0..299 and 5000 steps of 1e-3; a first-order
# step would give 1e-3.
ODE_TOL = 5e-8
CHOI_FLOOR = -1e-12       # Choi eigenvalues at dW = 0
INITIAL_TOL = 1e-12       # recorded t = 0 state against rho0


def uniform_superposition(dim: int) -> np.ndarray:
    return np.full((dim, dim), 1.0 / dim, dtype=complex)


def generator_matrix(h: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """The master-equation generator on row-major vec(rho), (d^2, d^2).

    Row-major vectorization maps A rho B to kron(A, B.T) vec(rho).
    """
    d = h.shape[0]
    eye = np.eye(d)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for v in ops:
        vdv = v.conj().T @ v
        out += np.kron(v, v.conj()) - 0.5 * (np.kron(vdv, eye) + np.kron(eye, vdv.T))
    return out


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a degree-24 Taylor sum.

    After scaling the norm is at most 1/2, so the truncation error is below
    0.5^25 / 25! relative, far under double rounding.
    """
    norm = np.linalg.norm(a, 1)
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    x = a / 2.0 ** squarings
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 25):
        term = term @ x / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def reference_states(h, ops, rho0, dt_record: float, rows: int) -> np.ndarray:
    """exp(L t_k) rho0 at t_k = k dt_record, k < rows, as (rows, d, d)."""
    d = rho0.shape[0]
    step = expm(generator_matrix(h, ops) * dt_record)
    out = np.empty((rows, d * d), complex)
    out[0] = rho0.reshape(-1)
    for k in range(1, rows):
        out[k] = step @ out[k - 1]
    return out.reshape(rows, d, d)


def trajectory_trace_preserving(ops, weights, covariance) -> bool:
    """Whether sum_n d_n O[n, r] (v_n + v_n^dagger) vanishes on every
    active covariance direction r, which makes single trajectories keep
    their trace exactly."""
    eigenvalues, basis = np.linalg.eigh(np.asarray(covariance, float))
    herm = ops + np.conj(np.swapaxes(ops, -1, -2))
    for r in np.flatnonzero(eigenvalues > 1e-10):
        combo = np.einsum("n,n,nab->ab", weights, basis[:, r], herm)
        if np.linalg.norm(combo) > TP_RESIDUAL_TOL:
            return False
    return True


def parse_states_csv(data: bytes, dim: int):
    """Split a state CSV into (times, states (T, d, d), columns dict, table).

    Raises ValueError on a malformed file, which callers count as a failed
    output.
    """
    text = data.decode("ascii")
    header = text.split("\n", 1)[0].split(",")
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != len(header):
        raise ValueError(f"{table.shape[1]} columns for a {len(header)}-column header")
    col = {name: table[:, i] for i, name in enumerate(header)}
    states = np.empty((table.shape[0], dim, dim), complex)
    for i in range(dim):
        for j in range(dim):
            states[:, i, j] = col[f"rho_{i}_{j}_re"] + 1j * col[f"rho_{i}_{j}_im"]
    return col["time"], states, col, table


def _parse_or_problem(data: bytes, dim: int):
    try:
        return parse_states_csv(data, dim), None
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return None, f"unreadable CSV: {exc}"


def _grid_problems(times, dt_record: float) -> list[str]:
    expected = np.arange(len(times)) * dt_record
    if not np.allclose(times, expected, rtol=0, atol=1e-9 * max(1.0, expected[-1])):
        return ["time column is not the expected recording grid"]
    return []


def check_sde_csv(data: bytes, reference: np.ndarray, dt_record: float) -> list[str]:
    """Each recorded mean state lies within Z_LIMIT stderr of the reference."""
    parsed, problem = _parse_or_problem(data, reference.shape[-1])
    if problem:
        return [problem]
    times, states, col, table = parsed
    if "stderr" not in col:
        return ["missing stderr column"]
    if not np.all(np.isfinite(table)):
        return ["non-finite entry in CSV"]
    if states.shape[0] != reference.shape[0]:
        return [f"{states.shape[0]} rows, expected {reference.shape[0]}"]
    problems = _grid_problems(times, dt_record)
    distance = np.linalg.norm(states - reference, axis=(1, 2))
    stderr = col["stderr"]
    if distance[0] > INITIAL_TOL:
        problems.append(f"t=0 state differs from rho0 by {distance[0]:.3e}")
    for k in range(1, len(times)):
        if not stderr[k] > 0.0 or distance[k] > Z_LIMIT * stderr[k]:
            problems.append(
                f"t={times[k]:g}: |mean - reference| = {distance[k]:.3e} "
                f"exceeds {Z_LIMIT} x stderr {stderr[k]:.3e}")
    return problems


def check_trace_extremes(diagnostics) -> list[str]:
    """The ensemble's trace extremes lie within TRACE_TOL of 1.

    They are read at full precision from the EnsembleDiagnostics that
    `run_ensemble` returned, not from the rounded stderr summary.
    """
    if diagnostics is None:
        return ["no ensemble diagnostics for the sde call"]
    low, high = diagnostics.trace_min, diagnostics.trace_max
    if not (abs(low - 1.0) <= TRACE_TOL and abs(high - 1.0) <= TRACE_TOL):
        return [f"trace_extremes ({low!r}, {high!r}) not within {TRACE_TOL} of 1"]
    return []


def check_ode_csv(data: bytes, reference: np.ndarray, dt_record: float) -> list[str]:
    """RK4 rows match the reference entrywise within ODE_TOL."""
    parsed, problem = _parse_or_problem(data, reference.shape[-1])
    if problem:
        return [problem]
    times, states, _, table = parsed
    if not np.all(np.isfinite(table)):
        return ["non-finite entry in CSV"]
    if states.shape[0] != reference.shape[0]:
        return [f"{states.shape[0]} rows, expected {reference.shape[0]}"]
    problems = _grid_problems(times, dt_record)
    error = float(np.max(np.abs(states - reference)))
    if not error <= ODE_TOL:
        problems.append(f"max |ode - reference| = {error:.3e} > {ODE_TOL}")
    return problems


def check_choi_csv(data: bytes) -> list[str]:
    """Eigenvalues of the dW = 0 Choi matrix are at least CHOI_FLOOR."""
    try:
        lines = data.decode("ascii").strip().split("\n")
        if lines[0] != "dw_scale,index,eigenvalue":
            return [f"unexpected choi header {lines[0]!r}"]
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"unreadable choi CSV: {exc}"]
    if rows.ndim != 2 or rows.shape[1] != 3 or not np.all(np.isfinite(rows)):
        return ["malformed choi CSV"]
    at_zero = rows[rows[:, 0] == 0.0, 2]
    if at_zero.size == 0:
        return ["no dW = 0 eigenvalues"]
    if at_zero.min() < CHOI_FLOOR:
        return [f"Choi eigenvalue {at_zero.min():.3e} < {CHOI_FLOOR} at dW = 0"]
    return []
