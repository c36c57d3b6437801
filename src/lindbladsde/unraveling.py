"""Stochastic unraveling of the mean evolution.

Single trajectories follow the linear update

    rho -> rho + sum_n d_n (v_n rho + rho v_n^dagger) dW^n + L(rho) dt

with correlated Gaussian increments, so the ensemble mean obeys the
deterministic master equation. Trajectory-level trace preservation is a
stronger property that holds only when the weighted Hermitian parts of the
noise operators cancel along every active covariance direction; positivity
of single trajectories is not guaranteed by the linear scheme at all, so
both are monitored and reported, never enforced.

Randomness contract: increments come from the counter-based Philox
generator keyed by (seed, trajectory index), drawn in step order within a
trajectory. Trajectory i therefore receives the same noise no matter how
trajectories are scheduled, and ensemble reductions run in a fixed
trajectory-index order with a fixed chunk size, so results are
bit-reproducible for a given (seed, n_traj, dt, model) regardless of the
worker count. run_ensemble evaluates the chunks in forked worker processes,
one per usable CPU up to the chunk count; the workers=n thread pool is kept
only because the benchmark's own tests pin it.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lindblad import (
    LindbladModel,
    NoiseBasis,
    NumericalError,
    check_step_size,
    drift_operator,
    require_positive,
    time_grid,
)
from .operators import (
    adjoint,
    check_density_matrix,
    check_hermitian,
    hermitian_part,
    min_eigenvalues,
    purities,
)

STEPPERS = ("euler", "exact_unitary")

# Trajectories are reduced in chunks of this fixed size; the value must not
# depend on the worker count or results would not be reproducible.
_CHUNK_TRAJECTORIES = 4096


def sample_increments(basis: NoiseBasis, dt: float, rng: np.random.Generator,
                      count: int) -> np.ndarray:
    """Draw count correlated increment vectors for steps of length dt.

    Each active eigendirection r gets an independent normal of variance
    eigenvalue_r * dt; inactive directions get exactly zero, which keeps
    the increments inside the range of the covariance by construction. The
    generator is advanced by one draw per direction, active or not, so the
    stream layout does not depend on the covariance rank. The result is a
    (count, N) batch consuming the stream in row order.
    """
    require_positive("sample_increments", dt=dt)
    return _correlate(rng.standard_normal((count, basis.noise_count)), basis, dt)


def _correlate(xi: np.ndarray, basis: NoiseBasis, dt: float) -> np.ndarray:
    """Turn standard normals (..., N) into increments, overwriting xi.

    Scales direction r by sqrt(eigenvalue_r * dt), then rotates into the
    noise basis. A (count, n_steps, N) stack is rotated as count separate
    (n_steps, N) products, the very product sample_increments makes for one
    trajectory, so both give the same bits. One (count * n_steps, N)
    product would not: for n_steps = 1 numpy takes a vector-matrix path
    that rounds differently.
    """
    xi *= np.sqrt(basis.eigenvalues * dt)
    return xi @ basis.orthogonal.T


@functools.cache
def _key_sequence():
    """Seed-sequence type that hands Philox a fixed 128-bit key as its state.

    Philox(key=...) first builds a seed sequence from OS entropy and then
    discards it; Philox(_key_sequence()(key)) takes the key as the state its
    seed sequence generates, so the stream is the same without that
    entropy. The type is built on first use because subclassing numpy's
    ISeedSequence loads numpy.random, which importing this module does not.
    """
    class KeySequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return KeySequence


def _check_key(seed: int, traj_index: int) -> None:
    """Reject a (seed, trajectory index) pair that is not a Philox key."""
    if seed < 0 or traj_index < 0:
        raise ValueError("seed and trajectory index must be nonnegative")
    if seed >= 2**64 or traj_index >= 2**64:
        raise ValueError("seed and trajectory index must be below 2**64")


def trajectory_rng(seed: int, traj_index: int) -> np.random.Generator:
    """Counter-based generator for one trajectory, keyed by (seed, index).

    The stream is that of Generator(Philox(key=[seed, traj_index])); both
    must lie in [0, 2**64), one 64-bit word of the key each.
    """
    _check_key(seed, traj_index)
    key = np.array([seed, traj_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


def _euler_update(model: LindbladModel, rho: np.ndarray, dt: float,
                  dw: np.ndarray) -> np.ndarray:
    """One linear update, no finiteness check. rho (..., d, d), dw (..., N).

    Computed as G rho + rho G^dagger + dt sum_n v_n rho v_n^dagger with
    G = sum_n d_n dW^n v_n + U dt, which regroups the noise and drift terms
    of the update without changing them.
    """
    g = np.einsum("...n,nab->...ab", dw * model.weights, model.lindblad_ops)
    g = g + dt * drift_operator(model)
    out = rho + g @ rho + rho @ adjoint(g)
    d = model.dim
    for v in model.lindblad_ops:
        # The right factor is one product over the whole trajectory batch,
        # (count*d x d)(d x d), with the bits of count stacked d x d
        # products. The left product v @ rho stays stacked: reshaped, it
        # rounds differently.
        vrv = ((v @ rho).reshape(-1, d) @ v.conj().T).reshape(rho.shape)
        out = out + dt * vrv
    return hermitian_part(out)


def sde_step(model: LindbladModel, rho: np.ndarray, dt: float,
             dw: np.ndarray) -> np.ndarray:
    """One Euler step of the unraveling, re-Hermitized.

    Returns rho + sum_n d_n (v_n rho + rho v_n^dagger) dW^n + L(rho) dt,
    then (out + out^dagger) / 2. Accepts stacked states (..., d, d) with
    matching stacked increments (..., N). Raises NumericalError on
    non-finite output.
    """
    rho = np.asarray(rho, dtype=complex)
    dw = np.asarray(dw, dtype=float)
    d, n = model.dim, model.noise_count
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"sde_step: state shape {rho.shape[-2:]} does not match dim {d}")
    if dw.shape[-1:] != (n,) or dw.shape[:-1] != rho.shape[:-2]:
        raise ValueError(
            f"sde_step: increment shape {dw.shape} does not match state batch "
            f"{rho.shape[:-2]} with {n} noises"
        )
    require_positive("sde_step", dt=dt)
    out = _euler_update(model, rho, dt, dw)
    if not np.all(np.isfinite(out)):
        raise NumericalError("sde_step: non-finite output")
    return out


def unitary_noise_operator(model: LindbladModel) -> np.ndarray:
    """The Hermitian K with v = -iK, required by the exact-unitary stepper.

    Only single-noise models whose operator is anti-Hermitian qualify; for
    those the one-step evolution is an exact unitary conjugation.
    """
    if model.noise_count != 1:
        raise ValueError(
            f"exact_unitary stepper needs a single-noise model, got "
            f"{model.noise_count} noise operators"
        )
    k = 1j * model.lindblad_ops[0]
    return check_hermitian(k, name="noise operator (as -iK)")


def stochastic_unitary_step(h: np.ndarray, k: np.ndarray, rho: np.ndarray,
                            dt: float, dw: float) -> np.ndarray:
    """Exact step V rho V^dagger with V = exp(-i (H dt + K dW)).

    The exponential is evaluated by eigendecomposition of the Hermitian
    combination, so trace and the full spectrum of rho are preserved to
    rounding. Accepts stacked states and increments.
    """
    h = check_hermitian(np.asarray(h, dtype=complex), name="hamiltonian")
    k = check_hermitian(np.asarray(k, dtype=complex), name="noise generator")
    rho = np.asarray(rho, dtype=complex)
    dw = np.asarray(dw, dtype=float)
    return _unitary_update(h, k, rho, dt, dw)


def _unitary_update(h: np.ndarray, k: np.ndarray, rho: np.ndarray, dt: float,
                    dw: np.ndarray) -> np.ndarray:
    """One exact unitary step with no input checks; the chunk loop's kernel."""
    generator = h * dt + k * np.expand_dims(dw, (-1, -2))
    w, q = np.linalg.eigh(generator)
    v = (q * np.exp(-1j * w)[..., None, :]) @ adjoint(q)
    return hermitian_part(v @ rho @ adjoint(v))


@dataclass(frozen=True)
class Trajectory:
    """One stochastic realization with its running diagnostics.

    trace_extremes covers every step; min_eigenvalue_seen and purity_series
    are evaluated at the recorded samples.
    """

    times: np.ndarray         # (T,)
    states: np.ndarray        # (T, d, d)
    trace_extremes: tuple     # (min, max) of Re tr(rho) over all steps
    min_eigenvalue_seen: float
    purity_series: np.ndarray  # (T,), tr(rho^2) at the recorded samples


@dataclass(frozen=True)
class EnsembleStats:
    """Monte Carlo estimate of the mean state over time.

    stderr is the scalar Frobenius-norm standard error of the mean at each
    recorded time.
    """

    times: np.ndarray       # (T,)
    mean_state: np.ndarray  # (T, d, d)
    stderr: np.ndarray      # (T,)
    trajectory_count: int
    seed: int


@dataclass(frozen=True)
class EnsembleDiagnostics:
    """Worst cases over all trajectories of an ensemble run."""

    trace_min: float
    trace_max: float
    min_eigenvalue: float


def _trajectory_increments(seed: int, start: int, count: int, n_steps: int,
                           basis: NoiseBasis, dt: float) -> np.ndarray:
    """Increments for trajectories [start, start+count), shape (count, n_steps, N).

    Row i is what sample_increments draws from trajectory_rng(seed, start + i)
    for n_steps steps: each trajectory's normals go straight into the chunk
    array, which is then transformed once.
    """
    xi = np.empty((count, n_steps, basis.noise_count))
    for i in range(count):
        trajectory_rng(seed, start + i).standard_normal(out=xi[i])
    return _correlate(xi, basis, dt)


def _recorded_sums(rho: np.ndarray):
    """Sum, summed squared Frobenius norm and smallest eigenvalue of a chunk."""
    return (rho.sum(axis=0),
            float(np.einsum("kab,kab->", rho, rho.conj()).real),
            float(min_eigenvalues(rho).min()))


def _run_chunk(step, rho0, basis, dt, n_steps, record_every, seed, start,
               count):
    """Evolve trajectories [start, start+count) together: the one time loop.

    step(rho, dw) is the run's update from _prepare, applied to the whole
    chunk with the (count, N) increments of one step; basis and dt give the
    increments. Returns the recorded state sums (T, d, d), the summed
    squared norms (T,), the trace extremes over every step and the smallest
    recorded eigenvalue.
    """
    rho = np.broadcast_to(rho0, (count, *rho0.shape)).astype(complex)
    dw = _trajectory_increments(seed, start, count, n_steps, basis, dt)

    recorded = [_recorded_sums(rho)]
    traces = np.einsum("kaa->k", rho).real
    trace_min = float(traces.min())
    trace_max = float(traces.max())
    for k in range(n_steps):
        rho = step(rho, dw[:, k, :])
        finite = np.all(np.isfinite(rho), axis=(-1, -2))
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise NumericalError(
                f"trajectory {start + bad}: non-finite state at t={(k + 1) * dt:g}"
            )
        traces = np.einsum("kaa->k", rho).real
        trace_min = min(trace_min, float(traces.min()))
        trace_max = max(trace_max, float(traces.max()))
        if (k + 1) % record_every == 0:
            recorded.append(_recorded_sums(rho))
    state_sum, sq_sum, min_eigs = zip(*recorded)
    return np.array(state_sum), np.array(sq_sum), trace_min, trace_max, min(min_eigs)


def _prepare(model, rho0, t_final, dt, record_every, stepper, name):
    """Checks, time grid and step update shared by both runners.

    The one place a stepper name becomes an update: step(rho, dw) advances
    stacked states rho (..., d, d) by dt with increments dw (..., N), using
    the unchecked kernel of sde_step or stochastic_unitary_step. Returns
    (rho0, n_steps, record times, step).
    """
    rho0 = np.array(check_density_matrix(rho0), dtype=complex)
    if stepper not in STEPPERS:
        raise ValueError(f"unknown stepper {stepper!r}; expected one of {STEPPERS}")
    check_step_size(model, dt)
    n_steps, times = time_grid(t_final, dt, record_every, name)
    if stepper == "euler":
        def step(rho, dw):
            return _euler_update(model, rho, dt, dw)
    else:
        h, k = model.hamiltonian, unitary_noise_operator(model)

        def step(rho, dw):
            return _unitary_update(h, k, rho, dt, dw[..., 0])
    return rho0, n_steps, times, step


def run_trajectory(model: LindbladModel, rho0: np.ndarray, t_final: float,
                   dt: float, seed: int, traj_index: int = 0,
                   record_every: int = 1, stepper: str = "euler") -> Trajectory:
    """Integrate a single stochastic trajectory.

    This is the one-trajectory chunk of :func:`run_ensemble`, so the result
    is bit-identical to trajectory ``traj_index`` of an ensemble run with
    the same seed.
    """
    rho0, n_steps, times, step = _prepare(
        model, rho0, t_final, dt, record_every, stepper, "run_trajectory")
    # a sum over one trajectory is that trajectory
    states, _, trace_min, trace_max, min_eig = _run_chunk(
        step, rho0, model.noise_basis, dt, n_steps, record_every, seed,
        traj_index, 1)
    return Trajectory(
        times=times,
        states=states,
        trace_extremes=(trace_min, trace_max),
        min_eigenvalue_seen=min_eig,
        purity_series=purities(states),
    )


def _process_count(jobs: list) -> int:
    """Worker processes worth forking for jobs; 1 means run them here.

    One per usable CPU up to the job count. Forking a process in which
    another thread is alive could copy a lock that thread holds, so then
    the answer is 1, as it is where the usable CPUs cannot be read.
    """
    if (len(jobs) < 2 or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return min(len(jobs), len(os.sched_getaffinity(0)))


def _map_chunks(work, jobs: list) -> list:
    """[work(job) for job in jobs], in forked worker processes when it pays.

    work reaches the workers through fork, not pickling; only the jobs and
    the results are pickled. Results come back in job order, so the first
    exception raised is that of the lowest-index failing job, as in the
    serial loop.
    """
    processes = _process_count(jobs)
    if processes > 1:
        import multiprocessing  # only a run that forks pays for the import

        if not multiprocessing.current_process().daemon:  # daemons cannot fork
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # unflushed output would be written twice
                    stream.flush()
            with multiprocessing.get_context("fork").Pool(
                    processes, initializer=_set_worker_work, initargs=(work,)) as pool:
                return list(pool.imap(_worker_job, jobs, chunksize=1))
    return [work(job) for job in jobs]


_worker_work = None  # set in each worker process by _set_worker_work


def _set_worker_work(work) -> None:
    global _worker_work
    _worker_work = work


def _worker_job(job):
    return _worker_work(job)


def run_ensemble(model: LindbladModel, rho0: np.ndarray, t_final: float,
                 dt: float, n_traj: int, seed: int, record_every: int = 1,
                 stepper: str = "euler", workers: int = 1):
    """Monte Carlo ensemble of independent trajectories.

    Returns (EnsembleStats, EnsembleDiagnostics). The stepper is resolved
    once into one update that every chunk applies. Trajectories are evolved
    in fixed-size chunks, vectorized over the chunk. The chunks run in
    forked worker processes, one per usable CPU up to the chunk count, or
    in order in this process when there is one chunk, one usable CPU or
    another live thread, or when this process is a daemon. Each chunk's sums and extremes are reduced in
    chunk order, so the result is identical for a given
    (seed, n_traj, dt, model) whatever the worker count, and a failure is
    that of the lowest-index failing chunk.
    Trace extremes are tracked at every step, eigenvalue and purity
    diagnostics at the recorded samples.

    Args:
        model: validated open-system model, shared read-only.
        rho0: initial density matrix.
        t_final: final time, a whole number of steps dt.
        dt: step size, guarded against the unstable regime.
        n_traj: number of independent trajectories.
        seed: base seed; trajectory i uses the (seed, i) stream.
        record_every: sample cadence in steps, a divisor of the step count.
        stepper: "euler" for the general linear scheme, "exact_unitary" for
            single-noise models with an anti-Hermitian noise operator.
        workers: when above 1, a thread pool of this size evaluates the
            chunks instead of worker processes. On a 2-vCPU machine two
            threads measured slower than serial chunks on every preset; the
            pool is kept only because the benchmark's own tests pin it, and
            goes with the next benchmark change.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    _check_key(seed, n_traj - 1)
    rho0, n_steps, times, step = _prepare(
        model, rho0, t_final, dt, record_every, stepper, "run_ensemble")

    jobs = [(s, min(_CHUNK_TRAJECTORIES, n_traj - s))
            for s in range(0, n_traj, _CHUNK_TRAJECTORIES)]

    def work(job):
        start, count = job
        return _run_chunk(step, rho0, model.noise_basis, dt, n_steps,
                          record_every, seed, start, count)

    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(work, jobs))
    else:
        partials = _map_chunks(work, jobs)

    # reduced in chunk order whatever the worker count; sum() starts from
    # the integer 0, which rounds like adding into zeros
    state_sums, sq_sums, trace_mins, trace_maxs, min_eigs = zip(*partials)
    mean = sum(state_sums) / n_traj
    mean_sq = np.einsum("tab,tab->t", mean, mean.conj()).real
    if n_traj > 1:
        variance = np.maximum(sum(sq_sums) - n_traj * mean_sq, 0.0) / (n_traj - 1)
        stderr = np.sqrt(variance / n_traj)
    else:
        stderr = np.zeros(len(times))
    stats = EnsembleStats(times=times, mean_state=mean, stderr=stderr,
                          trajectory_count=n_traj, seed=seed)
    diagnostics = EnsembleDiagnostics(trace_min=min(trace_mins),
                                      trace_max=max(trace_maxs),
                                      min_eigenvalue=min(min_eigs))
    return stats, diagnostics
