"""Stochastic unraveling of the mean evolution.

Single trajectories follow the linear update

    rho -> rho + sum_n d_n (v_n rho + rho v_n^dagger) dW^n + L(rho) dt

with correlated Gaussian increments, so the ensemble mean obeys the
deterministic master equation. Trajectory-level trace preservation is a
stronger property that holds only when the weighted Hermitian parts of the
noise operators cancel along every active covariance direction; positivity
of single trajectories is not guaranteed by the linear scheme at all, so
both are monitored and reported, never enforced.

The update is computed in the kernels _euler_update and _unitary_update;
each stepper is one entry of one table, _STEP_BUILDERS, which _prepare
reads once per run. run_trajectory and run_ensemble are the public ways to
step. Both are one driver, _run_range, over a range of trajectory indices:
one trajectory, or all n_traj of an ensemble. The driver cuts the range
into fixed-size chunks, and each chunk reports one record, _ChunkSums: the
sums of its recorded states and squared norms, its trace extremes and its
smallest eigenvalue. That record is all that crosses the worker boundary,
and the records are merged in chunk order.

Randomness contract: increments come from the counter-based Philox
generator keyed by (seed, trajectory index), drawn in step order within a
trajectory. Trajectory i therefore receives the same noise no matter how
trajectories are scheduled, and ensemble reductions run in a fixed
trajectory-index order with a fixed chunk size, so results are
bit-reproducible for a given (seed, n_traj, dt, model) regardless of the
worker count. _map_chunks evaluates the chunks in worker processes forked
directly, one per usable CPU up to the chunk count; each sends its records
back as one pickle through its own pipe, and a worker that dies before
sending them, killed by a signal for example, raises WorkerDiedError
rather than hanging. run_ensemble's workers=n thread pool, which
_map_chunks also runs, is kept only because the benchmark's own tests pin
it.
"""

from __future__ import annotations

import functools
import operator
import os
import pickle
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lindblad import (
    LindbladModel,
    NoiseBasis,
    NumericalError,
    _initial_state,
    check_step_size,
    drift_operator,
    time_grid,
)
from .operators import (
    adjoint,
    check_hermitian,
    hermitian_part,
    min_eigenvalues,
    purities,
    readonly,
)


class WorkerDiedError(RuntimeError):
    """A chunk worker process ended before it sent its results."""


# Trajectories are reduced in chunks of this fixed size; the value must not
# depend on the worker count or results would not be reproducible.
_CHUNK_TRAJECTORIES = 4096


def _correlate(xi: np.ndarray, basis: NoiseBasis, dt: float) -> np.ndarray:
    """Turn standard normals (..., N) into increments, overwriting xi.

    Scales direction r by sqrt(eigenvalue_r * dt), then rotates into the
    noise basis. A (count, n_steps, N) stack is rotated as count separate
    (n_steps, N) products, each with the bits of the product for that one
    trajectory's (n_steps, N) draws. One (count * n_steps, N) product would
    not be: for n_steps = 1 numpy takes a vector-matrix path that rounds
    differently.
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


def _check_key(seed: int, traj_index: int) -> tuple[int, int]:
    """The (seed, trajectory index) pair as ints, if it is a Philox key.

    Both go through operator.index, so a float raises TypeError instead of
    being truncated to another key, while numpy integers keep their value.
    """
    seed, traj_index = operator.index(seed), operator.index(traj_index)
    if seed < 0 or traj_index < 0:
        raise ValueError("seed and trajectory index must be nonnegative")
    if seed >= 2**64 or traj_index >= 2**64:
        raise ValueError("seed and trajectory index must be below 2**64")
    return seed, traj_index


# Philox's starting counter, shared by every trajectory. Philox copies it
# into its own state, so no generator can change it; it is frozen anyway.
_ZERO_COUNTER = readonly(np.zeros(4, dtype=np.uint64))


def trajectory_rng(seed: int, traj_index: int) -> np.random.Generator:
    """Counter-based generator for one trajectory, keyed by (seed, index).

    The stream is that of Generator(Philox(key=[seed, traj_index])); both
    must be integers in [0, 2**64), one 64-bit word of the key each. The zero
    counter is passed as a ready uint64 array: left at its default, Philox
    converts the integer 0 into that array on every construction, which
    measured about a quarter of the cost of building and filling one
    trajectory's generator.
    """
    key = np.array(_check_key(seed, traj_index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key),
                                                counter=_ZERO_COUNTER))


def _euler_update(model: LindbladModel, rho: np.ndarray, dt: float,
                  dw: np.ndarray) -> np.ndarray:
    """One linear update, no finiteness check. rho (..., d, d), dw (..., N).

    Returns the Hermitian part of
    rho + sum_n d_n (v_n rho + rho v_n^dagger) dW^n + L(rho) dt,
    computed as G rho + rho G^dagger + dt sum_n v_n rho v_n^dagger with
    G = sum_n d_n dW^n v_n + U dt, which regroups the noise and drift terms
    of the update without changing them.
    """
    g = np.einsum("...n,nab->...ab", dw * model.weights, model.lindblad_ops)
    g = g + dt * drift_operator(model)
    out = rho + g @ rho + rho @ adjoint(g)
    d = model.dim
    for v, vdag in zip(model.lindblad_ops, model.adjoint_ops):
        # The right factor is one product over the whole trajectory batch,
        # (count*d x d)(d x d), with the bits of count stacked d x d
        # products. The left product v @ rho stays stacked: reshaped, it
        # rounds differently.
        vrv = ((v @ rho).reshape(-1, d) @ vdag).reshape(rho.shape)
        out = out + dt * vrv
    return hermitian_part(out)


def _unitary_update(h: np.ndarray, k: np.ndarray, rho: np.ndarray, dt: float,
                    dw: np.ndarray) -> np.ndarray:
    """Exact step V rho V^dagger with V = exp(-i (H dt + K dW)), no input checks.

    h and k are Hermitian (d, d); rho (..., d, d) and dw (...) are stacked.
    The exponential is evaluated by eigendecomposition of the Hermitian
    combination, so trace and the full spectrum of rho are preserved to
    rounding.
    """
    generator = h * dt + k * np.expand_dims(dw, (-1, -2))
    w, q = np.linalg.eigh(generator)
    v = (q * np.exp(-1j * w)[..., None, :]) @ adjoint(q)
    return hermitian_part(v @ rho @ adjoint(v))


def _euler_step(model: LindbladModel, dt: float):
    """step(rho, dw) of the general linear scheme, _euler_update; any model runs."""
    return lambda rho, dw: _euler_update(model, rho, dt, dw)


def _exact_unitary_step(model: LindbladModel, dt: float):
    """step(rho, dw) of the exact unitary conjugation, _unitary_update.

    Only single-noise models whose operator v = -iK is anti-Hermitian
    qualify; for those the one-step evolution is an exact unitary
    conjugation. K is checked here, once per run.
    """
    if model.noise_count != 1:
        raise ValueError(
            f"exact_unitary stepper needs a single-noise model, got "
            f"{model.noise_count} noise operators"
        )
    k = check_hermitian(1j * model.lindblad_ops[0], name="noise operator (as -iK)")
    return lambda rho, dw: _unitary_update(model.hamiltonian, k, rho, dt, dw[..., 0])


# The one table of steppers: each name maps to a builder of step(rho, dw)
# for (model, dt) that raises ValueError for a model the stepper cannot
# run. The first name is the default.
_STEP_BUILDERS = {"euler": _euler_step, "exact_unitary": _exact_unitary_step}
STEPPERS = tuple(_STEP_BUILDERS)


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

    Row i is _correlate of the (n_steps, N) standard normals that
    trajectory_rng(seed, start + i) draws, in step order: each trajectory's
    normals go straight into the chunk array, which is then transformed
    once. Each direction gets one draw per step, active or not, so the
    stream layout does not depend on the covariance rank, and inactive
    directions get exactly zero.
    """
    xi = np.empty((count, n_steps, basis.noise_count))
    for i in range(count):
        trajectory_rng(seed, start + i).standard_normal(out=xi[i])
    return _correlate(xi, basis, dt)


@dataclass(frozen=True)
class _ChunkSums:
    """What a chunk of trajectories reports: the only result of _run_chunk.

    states and sq_norms sum the chunk's recorded states (T, d, d) and their
    squared Frobenius norms (T,); the trace extremes cover every step and
    min_eigenvalue the recorded samples. It is all that crosses the worker
    boundary.
    """

    states: np.ndarray
    sq_norms: np.ndarray
    trace_min: float
    trace_max: float
    min_eigenvalue: float

    def merge(self, later: _ChunkSums) -> _ChunkSums:
        """Both chunks' sums, this one first, as the chunk-order reduction."""
        return _ChunkSums(self.states + later.states, self.sq_norms + later.sq_norms,
                          min(self.trace_min, later.trace_min),
                          max(self.trace_max, later.trace_max),
                          min(self.min_eigenvalue, later.min_eigenvalue))


def _run_chunk(step, rho0, basis, dt, n_steps, record_every, seed, start,
               count) -> _ChunkSums:
    """Evolve trajectories [start, start+count) together: the one time loop.

    step(rho, dw) is the run's update from _prepare, applied to the whole
    chunk with the (count, N) increments of one step; basis and dt give the
    increments. Step 0 is the initial state, which is recorded like every
    record_every-th step after it.
    """
    rho = np.broadcast_to(rho0, (count, *rho0.shape)).astype(complex)
    dw = _trajectory_increments(seed, start, count, n_steps, basis, dt)

    states, sq_norms, min_eig = [], [], np.inf
    trace_min, trace_max = np.inf, -np.inf
    for k in range(n_steps + 1):
        if k:
            rho = step(rho, dw[:, k - 1, :])
            bad = np.flatnonzero(~np.isfinite(rho).all(axis=(-1, -2)))
            if bad.size:
                raise NumericalError(
                    f"trajectory {start + bad[0]}: non-finite state at t={k * dt:g}")
        traces = np.einsum("kaa->k", rho).real
        trace_min = min(trace_min, float(traces.min()))
        trace_max = max(trace_max, float(traces.max()))
        if k % record_every == 0:
            states.append(rho.sum(axis=0))
            sq_norms.append(float(np.einsum("kab,kab->", rho, rho.conj()).real))
            min_eig = min(min_eig, float(min_eigenvalues(rho).min()))
    return _ChunkSums(np.array(states), np.array(sq_norms), trace_min, trace_max, min_eig)


def _prepare(model, rho0, t_final, dt, record_every, stepper, name):
    """Checks, time grid and step update of a run, for the driver _run_range.

    The one place a stepper name becomes an update: step(rho, dw) advances
    stacked states rho (..., d, d) by dt with increments dw (..., N); the
    stepper's entry of _STEP_BUILDERS builds it. rho0 (against the model's
    dimension too), the stepper, dt, the grid and the model's eligibility
    are checked here, in that order, once per run, so the kernels check
    nothing. Returns (rho0, n_steps, record times, step).
    """
    rho0 = _initial_state(model, rho0, name)
    if stepper not in STEPPERS:
        raise ValueError(f"unknown stepper {stepper!r}; expected one of {STEPPERS}")
    check_step_size(model, dt)
    n_steps, times = time_grid(t_final, dt, record_every, name)
    return rho0, n_steps, times, _STEP_BUILDERS[stepper](model, dt)


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


def _map_chunks(work, jobs: list, workers: int = 1) -> list:
    """[work(job) for job in jobs], in forked worker processes when it pays.

    The one place that chooses how chunks run. workers above 1 selects a
    thread pool of that size instead of processes; it measured slower than
    serial chunks on every preset of a 2-vCPU machine and is kept only
    because the benchmark's own tests pin it. Otherwise, when
    _process_count allows P > 1 processes, P children are forked and child
    p runs jobs p, p+P, ... through work, which reaches it by fork, not
    pickling. Each child sends one pickle back through its own pipe, see
    _run_jobs; this process runs no job, so no chunk adds to its memory.

    Results come back in job order whichever way the jobs ran, and the
    exception raised is that of the lowest-index failing job, as in the
    serial loop. A child that dies before its payload is complete, killed
    by a signal for example, raises WorkerDiedError naming its exit status
    or signal. No child outlives the call: on any exit, Ctrl-C included, the
    children still running are killed and reaped.
    """
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, jobs))
    processes = _process_count(jobs)
    if processes == 1:
        return [work(job) for job in jobs]
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # unflushed output would be written twice
            stream.flush()
    children = {}  # pid: read end of its pipe, None once opened, until reaped
    try:
        for p in range(processes):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _run_jobs(work, jobs, p, processes, write)  # never returns
            children[pid] = read
            os.close(write)
        results, failures = [None] * len(jobs), []
        for p, pid in enumerate(list(children)):
            # to EOF before waitpid: a child blocked on a full pipe never exits
            with os.fdopen(children[pid], "rb") as pipe:
                children[pid] = None
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            try:
                done, failure = pickle.loads(payload)
            except Exception:
                code = os.waitstatus_to_exitcode(status)
                cause = (f"was killed by signal {-code} ({signal.strsignal(-code)})"
                         if code < 0 else f"exited with status {code}")
                raise WorkerDiedError(f"chunk worker {pid} {cause} before it sent "
                                      f"its results") from None
            for i, record in zip(range(p, len(jobs), processes), done):
                results[i] = record
            if failure is not None:
                failures.append(failure)
        if failures:
            raise min(failures, key=operator.itemgetter(0))[1]
        return results
    finally:
        for pid, read in children.items():
            if read is not None:
                os.close(read)
            os.kill(pid, signal.SIGKILL)  # unreaped, so at worst a zombie
            os.waitpid(pid, 0)


def _run_jobs(work, jobs: list, first: int, stride: int, fd: int):
    """A forked child of _map_chunks: run jobs first, first+stride, ... and exit.

    Writes one pickle to the pipe fd: the list of records of the jobs run,
    in order, and either None or (index, exception) for the first job that
    raised, where the child stops. Leaves with os._exit, so none of the
    parent's cleanup, buffered output or exit handlers runs twice; the exit
    status is 0 only when the whole payload was written.
    """
    status = 1
    try:
        done, failure = [], None
        for i in range(first, len(jobs), stride):
            try:
                done.append(work(jobs[i]))
            except Exception as exc:
                failure = (i, exc)
                break
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(pickle.dumps((done, failure)))
        status = 0
    finally:
        os._exit(status)


def _run_range(model, rho0, t_final, dt, record_every, stepper, name, seed,
               start, count, workers=1):
    """Record times and merged _ChunkSums of trajectories [start, start+count).

    The one driver of both runners. The last trajectory's key is checked
    before any work, then _prepare runs once, the range is cut into
    _CHUNK_TRAJECTORIES-trajectory jobs from start, and _map_chunks runs
    them. Their records are merged in chunk order, so the result is the
    same however the jobs ran.
    """
    _check_key(seed, start + count - 1)
    rho0, n_steps, times, step = _prepare(
        model, rho0, t_final, dt, record_every, stepper, name)
    jobs = [(s, min(_CHUNK_TRAJECTORIES, start + count - s))
            for s in range(start, start + count, _CHUNK_TRAJECTORIES)]

    def work(job):
        return _run_chunk(step, rho0, model.noise_basis, dt, n_steps,
                          record_every, seed, *job)

    return times, functools.reduce(_ChunkSums.merge, _map_chunks(work, jobs, workers))


def run_trajectory(model: LindbladModel, rho0: np.ndarray, t_final: float,
                   dt: float, seed: int, traj_index: int = 0,
                   record_every: int = 1, stepper: str = STEPPERS[0]) -> Trajectory:
    """Integrate a single stochastic trajectory.

    This is the one-trajectory range of :func:`run_ensemble`'s driver, so
    the result is bit-identical to trajectory ``traj_index`` of an ensemble
    run with the same seed.
    """
    # a sum over one trajectory is that trajectory
    times, sums = _run_range(model, rho0, t_final, dt, record_every, stepper,
                             "run_trajectory", seed, operator.index(traj_index), 1)
    return Trajectory(times=times, states=sums.states,
                      trace_extremes=(sums.trace_min, sums.trace_max),
                      min_eigenvalue_seen=sums.min_eigenvalue,
                      purity_series=purities(sums.states))


def run_ensemble(model: LindbladModel, rho0: np.ndarray, t_final: float,
                 dt: float, n_traj: int, seed: int, record_every: int = 1,
                 stepper: str = STEPPERS[0], workers: int = 1):
    """Monte Carlo ensemble of independent trajectories.

    Returns (EnsembleStats, EnsembleDiagnostics). The stepper is resolved
    once into one update that every chunk applies. Trajectories are evolved
    in fixed-size chunks, vectorized over the chunk. The chunks run in
    forked worker processes, one per usable CPU up to the chunk count, each
    sending its records back through a pipe, or in order in this process
    when there is one chunk, one usable CPU or another live thread. Each
    chunk's sums and extremes are reduced in chunk order, so the result is
    identical for a given (seed, n_traj, dt, model) whatever the worker
    count, and a failure is that of the lowest-index failing chunk. A
    worker that dies before sending its records, killed by a signal for
    example, raises WorkerDiedError naming its exit status or signal, and no
    worker outlives the call. Trace extremes are tracked at every step,
    eigenvalue and purity diagnostics at the recorded samples.

    Args:
        model: validated open-system model, shared read-only.
        rho0: initial density matrix.
        t_final: final time, a whole number of steps dt.
        dt: step size, guarded against the unstable regime.
        n_traj: number of independent trajectories.
        seed: base seed; trajectory i uses the (seed, i) stream.
        record_every: sample cadence in steps, a divisor of the step count.
        stepper: a name in STEPPERS, the keys of the one table of steppers,
            _STEP_BUILDERS; each entry's docstring says which models it runs.
        workers: when above 1, a thread pool of this size evaluates the
            chunks instead of worker processes. On a 2-vCPU machine two
            threads measured slower than serial chunks on every preset; the
            pool is kept only because the benchmark's own tests pin it, and
            goes with the next benchmark change.
    """
    n_traj = operator.index(n_traj)
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    times, sums = _run_range(model, rho0, t_final, dt, record_every, stepper,
                             "run_ensemble", seed, 0, n_traj, workers)
    # one 0 + on the chunk-order fold gives the bits of summing the chunks
    # from the integer 0: a -0.0 in every chunk's sum comes out +0.0.
    # Squared norms are never -0.0, so they need none.
    mean = (0 + sums.states) / n_traj
    mean_sq = np.einsum("tab,tab->t", mean, mean.conj()).real
    if n_traj > 1:
        variance = np.maximum(sums.sq_norms - n_traj * mean_sq, 0.0) / (n_traj - 1)
        stderr = np.sqrt(variance / n_traj)
    else:
        stderr = np.zeros(len(times))
    stats = EnsembleStats(times=times, mean_state=mean, stderr=stderr,
                          trajectory_count=n_traj, seed=operator.index(seed))
    diagnostics = EnsembleDiagnostics(trace_min=sums.trace_min, trace_max=sums.trace_max,
                                      min_eigenvalue=sums.min_eigenvalue)
    return stats, diagnostics
