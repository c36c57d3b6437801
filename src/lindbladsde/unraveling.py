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
reads once per run. A builder returns chunk_step(count), which _run_chunk
calls when it starts: the step it returns owns whatever its kernel keeps
between steps, for the Euler kernel an _EulerWorkspace of the chunk's
shape, with the zero blocks, padded right stacks and results of its
grouped products, built once instead of once per product. It is made per
chunk and kept in no module global and no builder, so chunks in forked
workers, in the thread pool and in this process share nothing, and it
goes when the chunk returns.

run_trajectory and run_ensemble are the public ways to step. Both are
one driver, _run_range, over a range of trajectory indices: one
trajectory, or all n_traj of an ensemble. The driver cuts the range
into fixed-size chunks, and each chunk reports one record, _ChunkSums: the
sums of its recorded states and squared norms, its trace extremes and its
smallest eigenvalue. That record is all that crosses the worker boundary,
and the records are folded in chunk order as they arrive, so a run holds
one record and the running sum, not one record per chunk.

Randomness contract: increments come from the counter-based Philox
generator keyed by (seed, trajectory index), drawn in step order within a
trajectory. A chunk keeps one Philox generator, a local of the call that
draws its increments, and re-keys it for each trajectory through
trajectory_rng's reuse argument, which sets the key and a zero counter,
so the stream is that of a new Philox(key=[seed, i]). Trajectory i
therefore receives the same noise no matter how trajectories are
scheduled, and ensemble reductions run in a fixed trajectory-index order
with a fixed chunk size, so results are bit-reproducible for a given
(seed, n_traj, dt, model) regardless of the worker count. _map_chunks
evaluates the chunks in worker processes forked directly, one per usable
CPU up to the chunk count; each writes one pickle frame per chunk to its
own pipe as soon as the chunk is done, the parent reads the frames in
chunk order, and a worker that dies before sending a chunk's frame,
killed by a signal for example, raises WorkerDiedError rather than
hanging. run_ensemble's workers=n thread pool, which
_map_chunks also runs, is kept only because the benchmark's own tests pin
it.
"""

from __future__ import annotations

import functools
import math
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
    min_eigenvalues,
    purities,
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


def trajectory_rng(seed: int, traj_index: int,
                   reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Counter-based generator for one trajectory, keyed by (seed, index).

    The stream is that of Generator(Philox(key=[seed, traj_index])); both
    must be integers in [0, 2**64), one 64-bit word of the key each. The
    generator is reuse, or a new Philox one when reuse is None, with its
    state set to the key, a zero counter and empty buffers, so whatever it
    drew before does not reach the stream. A chunk keeps one generator and
    passes it back as reuse for each trajectory: setting the state measured
    about 0.5 us, building a new Philox generator about 11. The key is
    checked before reuse is touched, so a rejected key leaves reuse as it
    was; a reuse whose bit generator is not Philox raises ValueError.
    """
    seed, traj_index = _check_key(seed, traj_index)
    generator = np.random.Generator(np.random.Philox(0)) if reuse is None else reuse
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, traj_index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # the buffer holds no unread words
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


# Complex multiplies in one BLAS call, the one budget of the kernels'
# batched products. Both ways of filling a call trade the call's overhead
# against work it adds: a stack of m operators of size d in _euler_update
# (m d^3 <= this, so m = 36 at d = 2, 10 at d = 3, 4 at d = 4, 2 at d = 5)
# copies each v_n rho out of its product, and K trajectories in one call of
# _grouped_matmul (K^2 m d n <= this) multiply K - 1 blocks of zeros each,
# so the best K falls like 1 / sqrt(m d n). Per 4096-trajectory batch, one
# BLAS thread, medians of interleaved runs: grouped against one call per
# trajectory, (m, d) = (2, 2), K = 6 took 0.41-0.48 of the time; (6, 2),
# K = 3: 0.77-0.85; (10, 2), K = 2: 0.92-0.98; (3, 3), K = 3: 0.71-0.74;
# (4, 4), K = 2: 0.84-0.94, while K = 2 lost at (9, 3) and (5, 5). Pairs
# of operators lost at d = 6 and 7 (33 against 30 ms, 46 against 42 at
# N = 4), so from d = 6 each operator has its own product and from d = 5
# each trajectory its own call.
_GROUP_MULTIPLIES = 288


class _Grouped:
    """The operands and result of _grouped_matmul for one batch shape and (m, d, n).

    For K > 1: the zero (groups, K, m, K, d) block, the writable einsum
    view of its K diagonal blocks, the (groups K, d, n) row stack of right
    factors, zero past the batch, and the result; for K = 1 only the
    result. A product writes only the diagonal blocks of the batch's
    trajectories and the stack's first count factors, so the other blocks
    and the padding stay exact zeros however often the operands are
    reused.
    """

    def __init__(self, batch: tuple, m: int, d: int, n: int, dtype=complex):
        self.batch, self.count = batch, math.prod(batch)
        k = math.isqrt(_GROUP_MULTIPLIES // (m * d * n)) if m > 1 and n > 1 else 1
        self.k = k = max(1, min(self.count, k))
        if k == 1:
            self.out = np.empty(batch + (m, n), dtype)
            return
        groups = -(-self.count // k)
        block = np.zeros((groups, k, m, k, d), dtype)
        self.diagonal = np.einsum("gjajb->gjab", block)  # a writable view of the K blocks
        self.right = np.empty((groups * k, d, n), dtype)
        self.right[self.count:] = 0.0  # the padding; a product writes the rest
        self.left = block.reshape(groups, k * m, k * d)
        self.stack = self.right.reshape(groups, k * d, n)
        self.out = np.empty((groups, k * m, n), dtype)


def _grouped_matmul(a: np.ndarray, b: np.ndarray, held: _Grouped | None = None) -> np.ndarray:
    """a @ b for stacks a (..., m, d) and b (..., d, n), K trajectories per BLAS call.

    K consecutive trajectories' left factors are placed on the diagonal of
    one zero (K m x K d) matrix, which multiplies the (K d x n) row stack
    of their right factors, so a group of K takes one BLAS call instead of
    K; K is the largest with K^2 m d n <= _GROUP_MULTIPLIES, and a short
    last group is padded with zero trajectories. The other trajectories'
    terms in each inner sum are exact zeros, which leave a nonzero
    accumulator unchanged, so every nonzero entry has the bits of its own
    product. An entry that is exactly zero can lose its sign: a zero term
    0 * x has the sign of x, and -0.0 + +0.0 is +0.0, so a -0.0 of a @ b
    can come out +0.0. So the kernels return no -0.0 at all, see
    _hermitian_state. At K = 1 the product is a @ b itself,
    and so it is for a one-row a or a one-column b: numpy multiplies those
    on a vector path, which rounds differently from a group's matrix
    product. The column form, [A_1 | ... | A_K] times the block diagonal
    of the B_i, changes bits at d = 2, 3 and 5 and is not used.

    The block, the stack and the result are held, a _Grouped built for the
    batch shape and (m, d, n): a kernel that makes the same product every
    step passes its own, and each product then only rewrites the diagonal
    blocks and the right factors, not a zero block per call. The result is
    a view of held's buffer, valid until held's next product. Without held
    the buffers last the one call.

    A non-finite entry of a stays in its own trajectory's rows, but one of
    b would turn the other results of its group into NaN through 0 * inf,
    so b must be finite. It is at every call site: rho is checked at the
    start of a run and after every step, G^dagger is built from the finite
    model, increments and dt, and q^dagger and V^dagger come from a finite
    eigh.
    """
    if held is None:
        held = _Grouped(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]), *a.shape[-2:],
                        b.shape[-1], np.result_type(a, b))
    if held.k == 1:
        return np.matmul(a, b, out=held.out)
    (m, d), n = a.shape[-2:], b.shape[-1]
    count, k = held.count, held.k
    full = count // k
    a = np.broadcast_to(a, held.batch + (m, d)).reshape(count, m, d)
    held.diagonal[:full] = a[:full * k].reshape(full, k, m, d)
    held.diagonal[full:, :count - full * k] = a[full * k:]
    held.right[:count] = np.broadcast_to(b, held.batch + (d, n)).reshape(count, d, n)
    np.matmul(held.left, held.stack, out=held.out)
    return held.out.reshape(-1, m, n)[:count].reshape(held.batch + (m, n))


def _hermitian_state(m: np.ndarray) -> np.ndarray:
    """hermitian_part(m) with every zero +0.0, C-contiguous: the state both kernels return.

    Adding 0.0 turns -0.0 into +0.0 and leaves every other value as it is,
    so a kernel's result is that of its ungrouped products plus 0.0, bit
    for bit, whichever trajectories share its groups. hermitian_part's own
    operations, 0.5 (m + m^dagger), go into one new C-contiguous array:
    hermitian_part returns each matrix transposed from 256 KiB up, where
    numpy sums into the adjoint's temporary, and every copy and elementwise
    pass of the next step then mixed two layouts. The layout moves no bit
    of a chunk's records, at d = 2 to 8 under both steppers.
    """
    out = np.conjugate(np.swapaxes(m, -1, -2), out=np.empty(m.shape, dtype=complex))
    np.add(m, out, out=out)
    np.multiply(0.5, out, out=out)
    out += 0.0
    return out


class _EulerWorkspace:
    """What _euler_update keeps between steps, for one model and one batch shape.

    left is the stacked operand [G; v_1; ...] of the first product: its
    v_n rows are written here once, its G rows by every step. sum is the
    sum whose Hermitian part becomes the new state; before that, each step
    sums G in the same memory, seen as (d, d, ...) with the trajectories
    innermost. products holds one _Grouped per row count m of the
    (m x d)(d x d) products, shared by the products of that shape, each
    result used up before the next. So at d = 32, where every product is
    d x d, a step holds one product, as the kernel did when it kept
    nothing.
    """

    def __init__(self, model: LindbladModel, batch: tuple):
        d = model.dim
        self.batch, self.dim = batch, d
        self.rows = model.lindblad_ops.reshape(-1, d)  # v_1; v_2; ... stacked by rows
        self.size = max(1, _GROUP_MULTIPLIES // d**3) * d  # rows of one stacked product
        self.left = np.zeros(batch + (min(self.size, d + len(self.rows)), d), dtype=complex)
        self.left[..., d:, :] = self.rows[:self.size - d]
        self.sum = np.empty(batch + (d, d), dtype=complex)
        self.products = {}

    def product(self, m: int) -> _Grouped:
        """The held operands of the (m x d)(d x d) products."""
        if m not in self.products:
            self.products[m] = _Grouped(self.batch, m, self.dim, self.dim)
        return self.products[m]


def _euler_update(model: LindbladModel, rho: np.ndarray, dt: float, dw: np.ndarray,
                  workspace: _EulerWorkspace | None = None) -> np.ndarray:
    """One linear update, no finiteness check. rho (..., d, d), dw (..., N).

    Returns the Hermitian part, zeros +0.0 (_hermitian_state), of
    rho + sum_n d_n (v_n rho + rho v_n^dagger) dW^n + L(rho) dt,
    computed as G rho + rho G^dagger + dt sum_n v_n rho v_n^dagger with
    G = sum_n d_n dW^n v_n + U dt, which regroups the noise and drift terms
    of the update without changing them. G is summed in place, term by term
    in n order from zeros, which has the bits of the einsum over n.

    Every per-trajectory product fills its BLAS calls under the one budget
    _GROUP_MULTIPLIES. The left products G rho and v_n rho come from stacked
    products: each trajectory's operators [G; v_1; ...; v_N] are stacked by
    rows, in groups of m with m d^3 <= _GROUP_MULTIPLIES, into one (m d x d)
    left operand, which multiplies rho in one batched matmul. Extra rows
    only lengthen BLAS's loop over rows, so every entry is the same chain of
    multiply-adds as in its own d x d product, and the bits are the same.
    At d = 2 and N < 36 a step makes two batched products, [G; v_1; ...] rho
    and rho G^dagger, instead of N + 2; from d = 6 each operator has its own
    product, as without stacking. Each of these products, rho G^dagger and
    every stack, goes through _grouped_matmul, which puts as many
    trajectories in each BLAS call as the same budget allows, again with the
    same bits up to the sign of zeros. Two other forms change bits and are
    ruled out: rho G^dagger taken as (G rho)^dagger, whose imaginary parts
    differ at d = 2, and the states stacked by columns,
    v [rho_1 | rho_2 | ...], whose bits differ at d = 2, 3 and 5.

    workspace, an _EulerWorkspace for rho's and dw's batch shape, holds
    what every step rewrites: the stacked operand, whose v_n rows are
    constant, the zero blocks and results of the grouped products and the
    new state's sum. A chunk builds one and passes it to each of its
    steps; without one the call builds its own. Every word of the result
    is that of a call on a new workspace, whatever the steps before wrote.
    """
    d = model.dim
    if workspace is None:
        workspace = _EulerWorkspace(model, np.broadcast_shapes(rho.shape[:-2], dw.shape[:-1]))
    left, ones = workspace.left, (1,) * len(workspace.batch)
    # G is summed in the sum's memory, seen as (d, d, ...) with the
    # trajectories innermost, so that each term is one loop over the batch,
    # not one loop of d^2 per trajectory.
    g = workspace.sum.reshape((d, d) + workspace.batch)
    g[...] = 0.0
    for c, v in zip(np.moveaxis(dw * model.weights, -1, 0), model.lindblad_ops):
        g += v.reshape((d, d) + ones) * c
    g += (dt * drift_operator(model)).reshape((d, d) + ones)
    left[..., :d, :] = np.moveaxis(g, (0, 1), (-2, -1))
    gdag = np.moveaxis(np.conjugate(g), (0, 1), (-1, -2))  # G^dagger per trajectory
    # The G rows of [G; v_1; ...] rho are used before rho G^dagger is made,
    # as the two products share one _Grouped when the stack is G alone.
    stacked = _grouped_matmul(left, rho, workspace.product(left.shape[-2]))
    out = np.add(rho, stacked[..., :d, :], out=workspace.sum)
    out += _grouped_matmul(rho, gdag, workspace.product(d))
    del gdag
    for n, vdag in enumerate(model.adjoint_ops):
        at = (n + 1) * d % workspace.size  # first row of v_n rho in its stacked product
        if at == 0:
            rows = workspace.rows[n * d:n * d + workspace.size]
            stacked = _grouped_matmul(rows, rho, workspace.product(len(rows)))
        # The right factor is one product over the whole trajectory batch,
        # (count*d x d)(d x d), with the bits of count stacked d x d
        # products; the reshape copies v_n rho's rows out of a larger stack.
        out += dt * (stacked[..., at:at + d, :].reshape(-1, d) @ vdag).reshape(out.shape)
    return _hermitian_state(out)


def _unitary_update(h: np.ndarray, k: np.ndarray, rho: np.ndarray, dt: float,
                    dw: np.ndarray) -> np.ndarray:
    """Exact step V rho V^dagger with V = exp(-i (H dt + K dW)), no input checks.

    h and k are Hermitian (d, d); rho (..., d, d) and dw (...) are stacked.
    The exponential is evaluated by eigendecomposition of the Hermitian
    combination, so trace and the full spectrum of rho are preserved to
    rounding. Its three per-trajectory products, (q e^{-iw}) q^dagger,
    V rho and (V rho) V^dagger, go through _grouped_matmul; the result,
    zeros +0.0 (_hermitian_state), has the bits of one product per
    trajectory. Nothing is kept between calls: each product builds its
    zero block for the one call. Held per chunk, as the Euler kernel holds
    its own, those blocks gained nothing on the benchmark's exact-unitary
    workload, whose steps eigh dominates (op_wall_s 0.193 s held against
    0.187 s, medians of 10 pairs).
    """
    generator = h * dt + k * np.expand_dims(dw, (-1, -2))
    w, q = np.linalg.eigh(generator)
    v = _grouped_matmul(q * np.exp(-1j * w)[..., None, :], adjoint(q))
    return _hermitian_state(_grouped_matmul(_grouped_matmul(v, rho), adjoint(v)))


def _euler_step(model: LindbladModel, dt: float):
    """chunk_step(count) of the general linear scheme, _euler_update; any model runs.

    Each chunk_step call builds one _EulerWorkspace for count trajectories
    and returns the step(rho, dw) that runs on it.
    """
    def chunk_step(count: int):
        workspace = _EulerWorkspace(model, (count,))
        return lambda rho, dw: _euler_update(model, rho, dt, dw, workspace)
    return chunk_step


def _exact_unitary_step(model: LindbladModel, dt: float):
    """chunk_step(count) of the exact unitary conjugation, _unitary_update.

    Only single-noise models whose operator v = -iK is anti-Hermitian
    qualify; for those the one-step evolution is an exact unitary
    conjugation. K is checked here, once per run. The step keeps nothing
    between calls, so every chunk gets the same one.
    """
    if model.noise_count != 1:
        raise ValueError(
            f"exact_unitary stepper needs a single-noise model, got "
            f"{model.noise_count} noise operators"
        )
    k = check_hermitian(1j * model.lindblad_ops[0], name="noise operator (as -iK)")

    def step(rho, dw):
        return _unitary_update(model.hamiltonian, k, rho, dt, dw[..., 0])
    return lambda count: step


# The one table of steppers: each name maps to a builder for (model, dt),
# which raises ValueError for a model the stepper cannot run and otherwise
# returns chunk_step(count), the step(rho, dw) of one chunk of count
# trajectories. The first name is the default.
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
    once. One generator, built for the first trajectory, is re-keyed for
    each of the others, and it goes when the call returns. Each direction
    gets one draw per step, active or not, so the stream layout does not
    depend on the covariance rank, and inactive directions get exactly
    zero.
    """
    xi = np.empty((count, n_steps, len(basis.eigenvalues)))
    generator = None
    for i in range(count):
        generator = trajectory_rng(seed, start + i, generator)
        generator.standard_normal(out=xi[i])
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


def _run_chunk(chunk_step, rho0, basis, dt, n_steps, record_every, seed, start,
               count) -> _ChunkSums:
    """Evolve trajectories [start, start+count) together: the one time loop.

    chunk_step is the run's update from _prepare; the chunk's own step,
    chunk_step(count), advances the whole chunk with the (count, N)
    increments of one step; basis and dt give the increments. Step 0 is
    the initial state, which is recorded like every record_every-th step
    after it.
    """
    step = chunk_step(count)
    rho = np.broadcast_to(rho0, (count, *rho0.shape)).astype(complex)
    dw = _trajectory_increments(seed, start, count, n_steps, basis, dt)

    states, sq_norms, min_eig = [], [], np.inf
    trace_min, trace_max = np.inf, -np.inf
    # A step that overflows is caught by the finiteness check, not numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps + 1):
            if k:
                rho = step(rho, dw[:, k - 1, :])
                if not np.isfinite(rho).all():  # the trajectory is looked up on failure only
                    bad = np.flatnonzero(~np.isfinite(rho).all(axis=(-1, -2)))
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

    The one place a stepper name becomes an update: chunk_step(count)
    returns the step(rho, dw) of one chunk, which advances its stacked
    states rho (count, d, d) by dt with increments dw (count, N); the
    stepper's entry of _STEP_BUILDERS builds it. rho0 (against the model's
    dimension too), the stepper, the model's eligibility, dt and the grid
    are checked here, in that order, once per run, so the kernels check
    nothing and a model the stepper cannot run is reported as such at any
    dt. Returns (rho0, n_steps, record times, chunk_step).
    """
    rho0 = _initial_state(model, rho0, name)
    if stepper not in STEPPERS:
        raise ValueError(f"unknown stepper {stepper!r}; expected one of {STEPPERS}")
    chunk_step = _STEP_BUILDERS[stepper](model, dt)
    check_step_size(model, dt)
    n_steps, times = time_grid(t_final, dt, record_every, name)
    return rho0, n_steps, times, chunk_step


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


def _map_chunks(work, jobs: list, workers: int = 1):
    """Yield work(job) for each job in order, from forked worker processes when it pays.

    The one place that chooses how chunks run. workers above 1 selects a
    thread pool of that size instead of processes; it measured slower than
    serial chunks on every preset of a 2-vCPU machine and is kept only
    because the benchmark's own tests pin it. Otherwise, when
    _process_count allows P > 1 processes, P children are forked and child
    p runs jobs p, p+P, ... through work, which reaches it by fork, not
    pickling. Each child writes one pickle frame per job to its own pipe,
    see _run_jobs; this process runs no job, so no chunk adds to its memory.

    The results are yielded in job order whichever way the jobs ran, each
    as soon as it is read, so a consumer that folds them holds one at a
    time. Job i is read from child i mod P, so this process only waits on
    the child that owns the lowest unread job, while a child only ever
    waits on its own pipe: no deadlock. The first failure read is that of
    the lowest-index failing job, so its exception is raised, as in the
    serial loop. A child whose pipe ends before the frame of a job it owns,
    killed by a signal for example, raises WorkerDiedError naming its exit
    status or signal. No child outlives the generator: on any exit, Ctrl-C
    and an early close() included, the children still running are killed
    and reaped. A fork that fails closes the pipe it was given and raises.
    """
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(work, jobs)
        return
    processes = _process_count(jobs)
    if processes == 1:
        yield from map(work, jobs)
        return
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # unflushed output would be written twice
            stream.flush()
    children = {}  # pid: read end of its pipe as a file, until reaped
    try:
        for p in range(processes):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # EAGAIN at a process limit, for example
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _run_jobs(work, jobs, p, processes, write)  # never returns
            children[pid] = os.fdopen(read, "rb")
            os.close(write)
        pids = list(children)
        for i in range(len(jobs)):
            pid = pids[i % processes]
            try:
                failed, value = pickle.load(children[pid])
            except Exception:
                # closed first, so a child still writing gets EPIPE and exits
                children.pop(pid).close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                cause = (f"was killed by signal {-code} ({signal.strsignal(-code)})"
                         if code < 0 else f"exited with status {code}")
                raise WorkerDiedError(f"chunk worker {pid} {cause} before it sent "
                                      f"its results") from None
            if failed:
                raise value
            yield value
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # unreaped, so at worst a zombie
            os.waitpid(pid, 0)


def _run_jobs(work, jobs: list, first: int, stride: int, fd: int):
    """A forked child of _map_chunks: run jobs first, first+stride, ... and exit.

    Writes one pickle frame to the pipe fd per job, as soon as the job is
    done: (False, record), or (True, exception) for a job that raised,
    after which the child stops. Leaves with os._exit, so none of the
    parent's cleanup, buffered output or exit handlers runs twice; the exit
    status is 0 only when every frame was written.
    """
    status = 1
    try:
        with os.fdopen(fd, "wb") as pipe:
            for i in range(first, len(jobs), stride):
                try:
                    frame = (False, work(jobs[i]))
                except Exception as exc:
                    frame = (True, exc)
                pickle.dump(frame, pipe)
                pipe.flush()
                if frame[0]:
                    break
        status = 0
    finally:
        os._exit(status)


def _run_range(model, rho0, t_final, dt, record_every, stepper, name, seed,
               start, count, workers=1):
    """Record times and merged _ChunkSums of trajectories [start, start+count).

    The one driver of both runners. The last trajectory's key is checked
    before any work, then _prepare runs once, the range is cut into
    _CHUNK_TRAJECTORIES-trajectory jobs from start, and _map_chunks runs
    them. Their records are folded in chunk order as _map_chunks yields
    them, so the result is the same however the jobs ran, and no more than
    one record waits to be folded.
    """
    _check_key(seed, start + count - 1)
    rho0, n_steps, times, chunk_step = _prepare(
        model, rho0, t_final, dt, record_every, stepper, name)
    jobs = [(s, min(_CHUNK_TRAJECTORIES, start + count - s))
            for s in range(start, start + count, _CHUNK_TRAJECTORIES)]

    def work(job):
        return _run_chunk(chunk_step, rho0, model.noise_basis, dt, n_steps,
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
    sending a chunk's record back through a pipe as soon as the chunk is
    done, or in order in this process when there is one chunk, one usable
    CPU or another live thread. Each chunk's sums and extremes are folded
    in chunk order as they arrive, so the result is identical for a given
    (seed, n_traj, dt, model) whatever the worker count, and a failure is
    that of the lowest-index failing chunk. A worker that dies before
    sending a chunk's record, killed by a signal for example, raises
    WorkerDiedError naming its exit status or signal, and no worker
    outlives the call. Trace extremes are tracked at every step,
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
