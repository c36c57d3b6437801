import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    commutator,
    model_with_covariance,
    philox,
    random_density,
    random_hermitian,
    random_model,
    random_unit_diag_covariance,
)
from lindbladsde.lindblad import (
    LindbladModel,
    NumericalError,
    drift_operator,
    integrate_ode,
    lindblad_rhs,
)
from lindbladsde.operators import (
    CLIP_TOL,
    SIGMA_MINUS,
    SIGMA_Z,
    adjoint,
    frobenius,
    hermitian_part,
)
from lindbladsde.presets import TRACE_PRESERVING_PRESETS, preset_model, uniform_superposition
from lindbladsde.unraveling import (
    _GROUP_MULTIPLIES,
    _ChunkSums,
    _correlate,
    _euler_step,
    _euler_update,
    _exact_unitary_step,
    _grouped_matmul,
    _run_chunk,
    _trajectory_increments,
    _unitary_update,
    run_ensemble,
    run_trajectory,
    trajectory_rng,
)


def increments(basis, dt, seed, count, index=0):
    """The first count steps of trajectory index's increments, shape (count, N)."""
    return _trajectory_increments(seed, index, 1, count, basis, dt)[0]


class TestDiagonalizeCovariance:
    def test_identity(self):
        basis = model_with_covariance(np.eye(3)).noise_basis
        assert np.array_equal(basis.eigenvalues, np.ones(3))
        assert np.count_nonzero(basis.eigenvalues) == 3
        assert np.allclose(np.abs(basis.orthogonal), np.eye(3), atol=1e-14)

    def test_all_ones_pair(self):
        # 2x2 eigenproblem by hand: eigenvalues 2 and 0
        basis = model_with_covariance(np.ones((2, 2))).noise_basis
        assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-14)
        assert basis.eigenvalues[0] == 0.0
        assert np.count_nonzero(basis.eigenvalues) == 1

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_reconstruction(self, seed, n):
        c = random_unit_diag_covariance(philox(seed), n)
        basis = model_with_covariance(c).noise_basis
        rebuilt = (basis.orthogonal * basis.eigenvalues) @ basis.orthogonal.T
        assert frobenius(rebuilt - c) <= 1e-10
        assert frobenius(basis.orthogonal.T @ basis.orthogonal - np.eye(n)) <= 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not positive semidefinite"):
            model_with_covariance(np.array([[1.0, 2.0], [2.0, 1.0]])).noise_basis


class TestSampleIncrements:
    def test_sample_covariance_converges(self):
        basis = model_with_covariance(np.eye(2)).noise_basis
        draws = increments(basis, 1.0, 123, 1_000_000)
        cov = draws.T @ draws / len(draws)
        assert np.abs(cov - np.eye(2)).max() < 0.01

    def test_null_directions_receive_no_noise(self):
        # fully correlated pair: both increments equal, the antisymmetric
        # combination stays at rounding level (the inactive draw itself is
        # exactly zero by construction)
        basis = model_with_covariance(np.ones((2, 2))).noise_basis
        null_vec = basis.orthogonal[:, 0]
        for dw in increments(basis, 1e-3, 7, 100):
            assert dw[0] == dw[1] or abs(dw[0] - dw[1]) < 1e-15
            assert abs(null_vec @ dw) < 1e-13

    def test_rank_deficient_random_covariance(self):
        c = random_unit_diag_covariance(philox(5), 5, rank=2)
        basis = model_with_covariance(c).noise_basis
        assert np.count_nonzero(basis.eigenvalues) == 2
        null_basis = basis.orthogonal[:, basis.eigenvalues == 0.0]
        for dw in increments(basis, 1e-2, 8, 50):
            assert np.abs(null_basis.T @ dw).max() < 1e-13

    def test_variance_scales_with_dt(self):
        basis = model_with_covariance(np.eye(1)).noise_basis
        small = increments(basis, 0.5, 9, 100_000, index=0)[:, 0]
        big = increments(basis, 1.0, 9, 100_000, index=1)[:, 0]
        ratio = big.var() / small.var()
        assert abs(ratio - 2.0) < 0.06

    # Only the runners draw increments, and they refuse a bad dt first.
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="run_trajectory: t_final and dt must be positive"):
            run_trajectory(preset_model("dephasing"), uniform_superposition(2), 0.01, 0.0,
                           seed=0)

    @pytest.mark.parametrize("dt, error, message", [
        (np.nan, ValueError, "run_trajectory: t_final and dt must be positive"),
        (np.inf, NumericalError, "refusing to integrate"),
    ], ids=["nan", "inf"])
    def test_rejects_non_finite_dt(self, dt, error, message):
        with pytest.raises(error, match=message):
            run_trajectory(preset_model("dephasing"), uniform_superposition(2), 0.01, dt,
                           seed=0)


class TestSdeStep:
    def test_static_model_leaves_state_alone(self):
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.zeros((1, 2, 2), complex),
            weights=np.array([1.0]),
            covariance=np.eye(1),
        )
        rho = random_density(philox(0), 2)
        out = _euler_update(model, rho, 1e-3, np.array([0.3]))
        assert frobenius(out - rho) < 1e-15

    def test_single_noise_unitary_increment(self):
        # increment must be -i[K, rho] dW + (-i[H, rho] - [K, [K, rho]]/2) dt
        rng = philox(1)
        k = random_hermitian(rng, 2)
        h = random_hermitian(rng, 2)
        model = LindbladModel(hamiltonian=h, lindblad_ops=np.array([-1j * k]),
                              weights=np.array([1.0]), covariance=np.eye(1))
        rho = random_density(rng, 2)
        dt, dw = 1e-3, 0.04
        expected = rho + (-1j * commutator(k, rho)) * dw + (
            -1j * commutator(h, rho) - 0.5 * commutator(k, commutator(k, rho))) * dt
        out = _euler_update(model, rho, dt, np.array([dw]))
        assert frobenius(out - expected) < 1e-13

    def test_equals_generator_form(self):
        # the grouped update must agree with the literal
        # noise + generator * dt formula
        rng = philox(2)
        model = random_model(rng, 3, 2)
        rho = random_density(rng, 3)
        dw = rng.standard_normal(2) * np.sqrt(1e-3)
        explicit = rho + lindblad_rhs(model, rho) * 1e-3
        for n, v in enumerate(model.lindblad_ops):
            explicit = explicit + model.weights[n] * dw[n] * (v @ rho + rho @ v.conj().T)
        out = _euler_update(model, rho, 1e-3, dw)
        assert frobenius(out - 0.5 * (explicit + adjoint(explicit))) < 1e-13

    def test_trace_preserved_per_step_for_constrained_models(self):
        rng = philox(3)
        model = random_model(rng, 3, 2, anti_hermitian=True)
        rho = random_density(rng, 3)
        for dw in increments(model.noise_basis, 1e-3, 11, 100):
            out = _euler_update(model, rho, 1e-3, dw)
            assert abs(np.trace(out).real - np.trace(rho).real) <= 1e-13 * 3
            rho = out

    def test_cumulative_trace_drift(self):
        model = preset_model("two-noise-correlated")
        traj = run_trajectory(model, uniform_superposition(2), 1.0, 1e-3, seed=5)
        assert abs(traj.trace_extremes[0] - 1.0) <= 1e-10
        assert abs(traj.trace_extremes[1] - 1.0) <= 1e-10

    def test_output_hermitian_and_preenforcement_residual_small(self):
        rng = philox(4)
        model = random_model(rng, 2, 2)
        rho = random_density(rng, 2)
        dw = rng.standard_normal(2) * np.sqrt(1e-3)
        out = _euler_update(model, rho, 1e-3, dw)
        assert frobenius(out - adjoint(out)) == 0.0
        # rebuild the update without the final symmetrization
        raw = rho + lindblad_rhs(model, rho) * 1e-3
        for n, v in enumerate(model.lindblad_ops):
            raw = raw + model.weights[n] * dw[n] * (v @ rho + rho @ v.conj().T)
        assert frobenius(raw - adjoint(raw)) <= 1e-12

    def test_batched_matches_single(self):
        rng = philox(6)
        model = random_model(rng, 2, 2)
        batch = np.array([random_density(rng, 2) for _ in range(4)])
        dws = rng.standard_normal((4, 2)) * 0.03
        stacked = _euler_update(model, batch, 1e-3, dws)
        for i in range(4):
            single = _euler_update(model, batch[i], 1e-3, dws[i])
            assert frobenius(stacked[i] - single) < 1e-14


def _stacked_euler_reference(model, rho, dt, dw):
    """The Euler update with the right factor v_n rho v_n^dagger formed as a
    stack of d x d products, one per state."""
    g = np.einsum("...n,nab->...ab", dw * model.weights, model.lindblad_ops)
    g = g + dt * drift_operator(model)
    out = rho + g @ rho + rho @ adjoint(g)
    for v in model.lindblad_ops:
        out = out + dt * ((v @ rho) @ v.conj().T)
    return hermitian_part(out)


def _ungrouped_unitary_reference(h, k, rho, dt, dw):
    """_unitary_update with each product a batched matmul, one BLAS call per state."""
    w, q = np.linalg.eigh(h * dt + k * np.expand_dims(dw, (-1, -2)))
    v = (q * np.exp(-1j * w)[..., None, :]) @ adjoint(q)
    return hermitian_part(v @ rho @ adjoint(v))


def words(x):
    """x as raw 64-bit words, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x).view(np.uint64)


def positive_zero_words(x):
    """The words of x + 0.0, which is x with every -0.0 turned into +0.0."""
    return words(x + 0.0)


def group_counts(m, d):
    """1, 3, K - 1, K + 1 and 4097 for the group size K of an (m x d)(d x d)
    grouped product, the largest with K^2 m d d <= _GROUP_MULTIPLIES."""
    k = max(1, math.isqrt(_GROUP_MULTIPLIES // (m * d * d)))
    return sorted({1, 3, k - 1, k + 1, 4097} - {0})


def with_exact_zeros(states):
    """states with every third one replaced by |0><0|, every other of those
    with its zeros -0.0 in both parts."""
    states = states.copy()
    states[::3] = 0.0
    states[::6] = complex(-0.0, -0.0)
    states[::3, 0, 0] = 1.0
    return states


class TestKernelBits:
    """The batched kernels give exactly the bits of their per-state forms."""

    # A stacked product holds 288 // dim^3 of the operators G, v_1, ...: 16
    # noises at dim 3, 4 and 5, 3 at dim 5, 10 at dim 3 and 40 at dim 2
    # split them into several stacked products, and from dim 6 each
    # operator has its own. The last stack of (4, 16), (3, 10) and (2, 40)
    # is grouped, K = 2, 3 and 2 trajectories per BLAS call. An id names
    # the noise count when it is not 3.
    @pytest.mark.parametrize("dim, noises", [
        pytest.param(dim, noises, id=str(dim) if noises == 3 else f"{dim}-noises{noises}")
        for dim, noises in [*((dim, noises) for dim in (1, 2, 3, 4, 5, 8, 16)
                              for noises in (1, 3, 16)), (3, 10), (2, 40)]])
    @pytest.mark.parametrize("batch", [(), (1,), (4096,), (4097,)])
    def test_euler_update_matches_stacked_products(self, dim, noises, batch):
        rng = philox(40 + dim)
        model = random_model(rng, dim, noises)
        rho = (rng.standard_normal(batch + (dim, dim))
               + 1j * rng.standard_normal(batch + (dim, dim)))
        dw = rng.standard_normal(batch + (noises,)) * 0.03
        assert np.array_equal(words(_euler_update(model, rho, 1e-3, dw)),
                              words(_stacked_euler_reference(model, rho, 1e-3, dw)))

    @pytest.mark.parametrize("dim", [2, 3, 8])
    @pytest.mark.parametrize("noises", range(1, 9))
    def test_euler_update_keeps_signed_zeros(self, dim, noises):
        # G is summed term by term from zeros, with some increments exactly
        # +0.0 or -0.0 and states |0><0|; the result is the einsum form's
        # with every zero +0.0, in a batch of one (no grouping) and of ten
        rng = philox(60 + noises)
        model = random_model(rng, dim, noises)
        rho = with_exact_zeros(rng.standard_normal((10, dim, dim))
                               + 1j * rng.standard_normal((10, dim, dim)))
        dw = rng.standard_normal((10, noises)) * 0.03
        dw[::2] = 0.0
        dw[1::4] = -0.0
        for batch in (slice(0, 1), slice(None)):
            expected = _stacked_euler_reference(model, rho[batch], 1e-3, dw[batch])
            assert np.array_equal(words(_euler_update(model, rho[batch], 1e-3, dw[batch])),
                                  positive_zero_words(expected))

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("rows", ["square", "stacked"])
    @pytest.mark.parametrize("right", ["dense", "adjoint"])
    def test_grouped_matmul_matches_matmul(self, dim, rows, right):
        # m = d as in rho G^dagger and the exact-unitary products, m = 4 d as
        # in [G; v_1; v_2; v_3] rho; the counts leave a short last group. An
        # exact zero may change sign (the zero columns of |0><0| do), so
        # zeros are compared as +0.0 and everything else bit for bit
        m = dim if rows == "square" else 4 * dim
        rng = philox(70 + dim)
        for count in group_counts(m, dim):
            a = rng.standard_normal((count, m, dim)) + 1j * rng.standard_normal((count, m, dim))
            b = with_exact_zeros(rng.standard_normal((count, dim, dim))
                                 + 1j * rng.standard_normal((count, dim, dim)))
            if right == "adjoint":
                b = adjoint(b)
            assert np.array_equal(positive_zero_words(_grouped_matmul(a, b)),
                                  positive_zero_words(a @ b)), count

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("batch", [(), (1,), (3,), (4097,)])
    @pytest.mark.parametrize("operators", ["random", "diagonal"])
    def test_unitary_update_matches_per_state_products(self, dim, batch, operators):
        # diagonal H and K give a diagonal V, whose products with |0><0|
        # are mostly exact zeros; the result is the reference's, zeros +0.0
        rng = philox(80 + dim)
        h, k = random_hermitian(rng, dim), random_hermitian(rng, dim)
        if operators == "diagonal":
            h, k = np.diag(np.diag(h)), np.diag(np.diag(k))
        rho = (rng.standard_normal(batch + (dim, dim))
               + 1j * rng.standard_normal(batch + (dim, dim)))
        if batch:
            rho = with_exact_zeros(rho)
        dw = rng.standard_normal(batch) * 0.03
        assert np.array_equal(words(_unitary_update(h, k, rho, 1e-3, dw)),
                              positive_zero_words(
                                  _ungrouped_unitary_reference(h, k, rho, 1e-3, dw)))

    def test_non_finite_left_factor_stays_in_its_trajectory(self):
        rng = philox(90)
        a = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
        b = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
        a[5, 1, 0] = np.inf
        with np.errstate(invalid="ignore"):
            out, expected = _grouped_matmul(a, b), a @ b
        finite = np.isfinite(out).all(axis=(-1, -2))
        assert np.flatnonzero(~finite).tolist() == [5]
        assert np.array_equal(positive_zero_words(out[finite]),
                              positive_zero_words(expected[finite]))

    @pytest.mark.parametrize("kernel", ["euler", "exact_unitary"])
    def test_overflowing_state_stays_in_its_trajectory(self, kernel):
        # trajectory 5 of 9 holds a finite state whose step overflows
        rng = philox(91)
        rho = np.array([random_density(rng, 2) for _ in range(9)])
        rho[5] = 1.7e308
        if kernel == "euler":
            model = random_model(rng, 2, 2)
            dw = rng.standard_normal((9, 2)) * 0.03

            def steps():
                return (_euler_update(model, rho, 1e-3, dw),
                        _stacked_euler_reference(model, rho, 1e-3, dw))
        else:
            h, k = random_hermitian(rng, 2), random_hermitian(rng, 2)
            dw = rng.standard_normal(9) * 0.03

            def steps():
                return (_unitary_update(h, k, rho, 1e-3, dw),
                        _ungrouped_unitary_reference(h, k, rho, 1e-3, dw))
        with np.errstate(over="ignore", invalid="ignore"):
            out, expected = steps()
        finite = np.isfinite(out).all(axis=(-1, -2))
        assert np.flatnonzero(~finite).tolist() == [5]
        assert np.array_equal(words(out[finite]), positive_zero_words(expected[finite]))

    def test_chunk_failure_names_the_trajectory_and_time_of_ungrouped_products(
            self, monkeypatch):
        # From |0><0|, Hermitian noise c sigma_z multiplies rho_00 by
        # 1 + 2 c dW a step; with c sqrt(dt) = 949 that grows by orders of
        # magnitude, at its own rate in each trajectory of the chunk
        model = LindbladModel(hamiltonian=np.zeros((2, 2), complex),
                              lindblad_ops=np.array([3e4 * SIGMA_Z]),
                              weights=np.array([1.0]), covariance=np.eye(1))
        args = (_euler_step(model, 1e-3), np.diag([1.0, 0.0]), model.noise_basis,
                1e-3, 400, 1, 5, 11, 9)

        def failure():
            with pytest.raises(NumericalError) as caught:
                _run_chunk(*args)
            return str(caught.value)

        grouped = failure()
        calls = []

        def ungrouped(a, b, held=None):
            calls.append(1)
            return np.matmul(a, b)

        monkeypatch.setattr("lindbladsde.unraveling._grouped_matmul", ungrouped)
        assert grouped == failure()
        assert len(calls) > 0
        assert re.fullmatch(r"trajectory \d+: non-finite state at t=0\.\d+", grouped)

    def test_euler_update_memory_stays_near_the_per_operator_products(self):
        # unbounded stacking would hold two (count, 17*32, 32) arrays here
        rng = philox(47)
        model = random_model(rng, 32, 16)
        rho = rng.standard_normal((64, 32, 32)) + 1j * rng.standard_normal((64, 32, 32))
        dw = rng.standard_normal((64, 16)) * 0.03

        def peak(update):
            tracemalloc.start()
            try:
                update(model, rho, 1e-3, dw)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(_euler_update) <= 1.25 * peak(_stacked_euler_reference)

    @pytest.mark.parametrize("model", [
        preset_model("stochastic-unitary-larmor"),
        preset_model("two-noise-correlated"),
        random_model(philox(41), 3, 4, rank=2),
    ], ids=["larmor", "two-noise-correlated", "rank2-n4"])
    @pytest.mark.parametrize("n_steps", [1, 25])
    def test_chunk_increments_match_per_trajectory_draws(self, model, n_steps):
        seed, start, count, dt = 11, 4094, 5, 1e-3
        chunk = _trajectory_increments(seed, start, count, n_steps, model.noise_basis, dt)
        assert chunk.shape == (count, n_steps, model.noise_count)
        for i in range(count):
            normals = trajectory_rng(seed, start + i).standard_normal((n_steps, model.noise_count))
            row = _correlate(normals, model.noise_basis, dt)
            assert np.array_equal(chunk[i], row)


def signed_zero_increments(rng, shape, step):
    """Gaussian increments with some rows exactly +0.0 and some -0.0, moving with step."""
    dw = rng.standard_normal(shape) * 0.03
    dw[step % 3::3] = 0.0
    dw[(step + 1) % 4::4] = -0.0
    return dw


# One-step tracemalloc peak of the Euler kernel as it was before chunks
# held workspaces, when it built its operands afresh in every call:
# _euler_update on 4096 two-noise-correlated states (d = 2, N = 2). The
# figure is numpy 2.4.6's allocation pattern for that kernel; another numpy
# may allocate its temporaries differently. A chunk's workspace holds both
# grouped blocks, which that kernel built one after the other, and their
# results, so a chunk may hold at most twice this.
UNHELD_EULER_STEP_PEAK = 4_525_816


class TestWorkspaceReuse:
    """A chunk's step gives every step the bits of a one-shot kernel call.

    Each stepper's chunk_step(count) runs STEPS steps, as _run_chunk does,
    and each step is compared word for word, and by layout, with a kernel
    call that builds its operands for that call alone. The counts leave a
    short last group in every grouped product; the states start with exact
    zeros and some increments are exactly +0.0 or -0.0. A diagonal left
    from an earlier step changes some words, and so does padding that
    holds a non-finite value. Finite padding cannot: it only adds exact
    zeros, whose signs the kernels' +0.0 erases.
    """

    STEPS = 4

    def steps_match(self, chunk_step, one_shot, rng, counts, dim, noises):
        for count in counts:
            step = chunk_step(count)
            rho = with_exact_zeros(rng.standard_normal((count, dim, dim))
                                   + 1j * rng.standard_normal((count, dim, dim)))
            for k in range(self.STEPS):
                dw = signed_zero_increments(rng, (count, noises), k)
                fresh = one_shot(rho, dw)
                rho = step(rho, dw)
                assert np.array_equal(words(rho), words(fresh)), (count, k)
                assert rho.strides == fresh.strides

    @pytest.mark.parametrize("dim, noises", [
        *((dim, noises) for dim in (1, 2, 3, 5, 8) for noises in (1, 3, 16)), (3, 10), (2, 40)])
    def test_euler_steps_match_one_shot_calls(self, dim, noises):
        rng = philox(110 + dim)
        model = random_model(rng, dim, noises)
        stack_rows = min(max(1, _GROUP_MULTIPLIES // dim**3) * dim, (noises + 1) * dim)
        counts = sorted(set(group_counts(dim, dim)) | set(group_counts(stack_rows, dim)))
        self.steps_match(_euler_step(model, 1e-3),
                         lambda rho, dw: _euler_update(model, rho, 1e-3, dw),
                         rng, counts, dim, noises)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_unitary_steps_match_one_shot_calls(self, dim):
        rng = philox(120 + dim)
        model = random_model(rng, dim, 1, anti_hermitian=True)
        k = 1j * model.lindblad_ops[0]
        self.steps_match(_exact_unitary_step(model, 1e-3),
                         lambda rho, dw: _unitary_update(model.hamiltonian, k, rho, 1e-3,
                                                         dw[:, 0]),
                         rng, group_counts(dim, dim), dim, 1)

    def test_chunk_memory_stays_within_twice_the_unheld_step(self):
        # the chunk holds its increments besides the workspace and states
        model, n_steps = preset_model("two-noise-correlated"), 8
        args = (_euler_step(model, 1e-3), uniform_superposition(2), model.noise_basis, 1e-3,
                n_steps, 1, 3, 0, 4096)
        increment_bytes = 4096 * n_steps * model.noise_count * 8
        tracemalloc.start()
        try:
            _run_chunk(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= increment_bytes + 2 * UNHELD_EULER_STEP_PEAK


class TestStochasticUnitaryStep:
    def test_zero_increments_do_nothing(self):
        rng = philox(7)
        rho = random_density(rng, 2)
        out = _unitary_update(SIGMA_Z, SIGMA_Z, rho, 0.0, 0.0)
        assert frobenius(out - rho) < 1e-14

    def test_purity_preserved(self):
        rho = uniform_superposition(2)
        out = _unitary_update(np.zeros((2, 2), complex), SIGMA_Z, rho, 1e-3, 0.05)
        purity = np.trace(out @ out).real
        assert abs(purity - 1.0) < 1e-13

    def test_spectrum_preserved(self):
        rng = philox(8)
        rho = random_density(rng, 3)
        h = random_hermitian(rng, 3)
        k = random_hermitian(rng, 3)
        out = _unitary_update(h, k, rho, 1e-3, -0.02)
        before = np.linalg.eigvalsh(rho)
        after = np.linalg.eigvalsh(out)
        assert np.abs(before - after).max() < 1e-12

    def test_first_order_expansion(self):
        # with dW = +/- sqrt(dt) the step matches
        # 1 - iK dW + (-iH - K^2/2) dt up to O(dt^(3/2))
        rng = philox(9)
        h = random_hermitian(rng, 2)
        k = random_hermitian(rng, 2)
        rho = random_density(rng, 2)
        defects = []
        for dt in (1e-3, 5e-4):
            dw = np.sqrt(dt)
            v = np.eye(2) - 1j * k * dw + (-1j * h - 0.5 * k @ k) * dt
            approx = 0.5 * (v @ rho @ adjoint(v) + adjoint(v @ rho @ adjoint(v)))
            exact = _unitary_update(h, k, rho, dt, dw)
            defects.append(frobenius(exact - approx))
        assert 2.5 <= defects[0] / defects[1] <= 5.7


class TestUnitaryEligibility:
    def test_accepts_anti_hermitian_single_noise(self):
        # the step conjugates by exp(-i (H dt + K dW)) with K = sigma_z
        model = preset_model("stochastic-unitary-larmor")
        rho = random_density(philox(12), 2)
        dw = np.array([[0.03], [-0.05]])
        step = _exact_unitary_step(model, 1e-3)(len(dw))
        expected = _unitary_update(model.hamiltonian, SIGMA_Z, rho, 1e-3, dw[:, 0])
        assert np.array_equal(step(rho, dw), expected)

    def test_rejects_multi_noise(self):
        with pytest.raises(ValueError, match="single-noise"):
            run_ensemble(preset_model("two-noise-correlated"), uniform_superposition(2),
                         0.1, 1e-3, 10, seed=0, stepper="exact_unitary")

    def test_rejects_non_anti_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            _exact_unitary_step(preset_model("amplitude-damping"), 1e-3)


class TestRunTrajectory:
    @pytest.mark.parametrize("name", TRACE_PRESERVING_PRESETS)
    def test_trace_flat_for_constrained_presets(self, name):
        traj = run_trajectory(preset_model(name), uniform_superposition(2), 1.0, 1e-3, seed=21)
        assert abs(traj.trace_extremes[0] - 1.0) <= 1e-10
        assert abs(traj.trace_extremes[1] - 1.0) <= 1e-10

    def test_trace_wanders_without_constraint(self):
        traj = run_trajectory(preset_model("amplitude-damping"), uniform_superposition(2),
                              1.0, 1e-3, seed=21)
        deviation = max(abs(traj.trace_extremes[0] - 1.0),
                        abs(traj.trace_extremes[1] - 1.0))
        assert deviation > 1e-2

    def test_exact_unitary_keeps_purity_and_spectrum(self):
        model = preset_model("stochastic-unitary-larmor")
        traj = run_trajectory(model, uniform_superposition(2), 1.0, 1e-3, seed=3,
                              stepper="exact_unitary", record_every=100)
        assert np.abs(traj.purity_series - 1.0).max() <= 1e-10
        eigs = np.linalg.eigvalsh(traj.states)
        assert np.abs(eigs - np.array([0.0, 1.0])).max() <= 1e-10

    def test_recording_grid(self):
        traj = run_trajectory(preset_model("dephasing"), uniform_superposition(2), 0.1, 1e-3,
                              seed=0, record_every=25)
        assert traj.times.shape == (5,)
        assert traj.states.shape == (5, 2, 2)
        assert traj.purity_series.shape == (5,)

    def test_non_finite_state_names_trajectory_and_time(self, monkeypatch):
        # the stiffness guard keeps guarded models away from almost-sure
        # blowup, so inject a failing step to exercise the reporting path
        import lindbladsde.unraveling as unr

        original = unr._euler_update
        calls = {"n": 0}

        def failing(model, rho, dt, dw, workspace=None):
            calls["n"] += 1
            out = original(model, rho, dt, dw, workspace)
            if calls["n"] == 4:
                out = out.copy()
                out[..., 0, 0] = np.inf
            return out

        monkeypatch.setattr(unr, "_euler_update", failing)
        with pytest.raises(NumericalError, match=r"trajectory 0: .*t=0.004"):
            run_trajectory(preset_model("dephasing"), uniform_superposition(2), 0.1, 1e-3,
                           seed=2)
        assert calls["n"] > 0

    def test_warns_in_stiff_region(self):
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.array([2.0 * SIGMA_MINUS]),
            weights=np.array([1.0]),
            covariance=np.eye(1),
        )
        # the warning names the line that called the runner
        with pytest.warns(RuntimeWarning, match="bias") as caught:
            run_trajectory(model, uniform_superposition(2), 0.5, 0.05, seed=0)
        with pytest.warns(RuntimeWarning, match="bias") as caught_ensemble:
            run_ensemble(model, uniform_superposition(2), 0.5, 0.05, 2, seed=0)
        assert [w.filename for w in [*caught, *caught_ensemble]] == [__file__] * 2

    def test_rejects_oversized_step(self):
        model = LindbladModel(
            hamiltonian=np.zeros((2, 2), complex),
            lindblad_ops=np.array([30.0 * SIGMA_MINUS]),
            weights=np.array([1.0]),
            covariance=np.eye(1),
        )
        with pytest.raises(NumericalError, match="refusing"):
            run_trajectory(model, uniform_superposition(2), 5.0, 2e-3, seed=0)


class TestRunEnsemble:
    def test_bit_reproducible(self):
        model = preset_model("dephasing")
        first, d1 = run_ensemble(model, uniform_superposition(2), 0.1, 1e-3, 300, seed=42,
                                 record_every=10)
        second, d2 = run_ensemble(model, uniform_superposition(2), 0.1, 1e-3, 300, seed=42,
                                  record_every=10)
        assert np.array_equal(first.mean_state, second.mean_state)
        assert np.array_equal(first.stderr, second.stderr)
        assert (d1.trace_min, d1.trace_max, d1.min_eigenvalue) == \
               (d2.trace_min, d2.trace_max, d2.min_eigenvalue)

    def test_needs_a_trajectory(self):
        with pytest.raises(ValueError, match="n_traj must be at least 1"):
            run_ensemble(preset_model("dephasing"), uniform_superposition(2), 0.1, 1e-3, 0,
                         seed=42)

    def test_seed_changes_output(self):
        model = preset_model("dephasing")
        a, _ = run_ensemble(model, uniform_superposition(2), 0.1, 1e-3, 300, seed=42)
        b, _ = run_ensemble(model, uniform_superposition(2), 0.1, 1e-3, 300, seed=43)
        assert not np.array_equal(a.mean_state, b.mean_state)

    def test_worker_count_does_not_change_result(self):
        # chunk reduction order is fixed, so thread count is invisible
        model = preset_model("two-noise-correlated")
        serial, _ = run_ensemble(model, uniform_superposition(2), 0.05, 1e-3, 5000, seed=9)
        threaded, _ = run_ensemble(model, uniform_superposition(2), 0.05, 1e-3, 5000, seed=9,
                                   workers=4)
        assert np.array_equal(serial.mean_state, threaded.mean_state)
        assert np.array_equal(serial.stderr, threaded.stderr)

    def test_noiseless_single_trajectory_is_euler_recursion(self):
        model = LindbladModel(
            hamiltonian=SIGMA_Z.copy(),
            lindblad_ops=np.zeros((1, 2, 2), complex),
            weights=np.array([1.0]),
            covariance=np.eye(1),
        )
        stats, _ = run_ensemble(model, uniform_superposition(2), 0.5, 1e-3, 1, seed=0,
                                record_every=100)
        rho = uniform_superposition(2)
        expected = [rho]
        for k in range(500):
            rho = rho + lindblad_rhs(model, rho) * 1e-3
            rho = 0.5 * (rho + adjoint(rho))
            if (k + 1) % 100 == 0:
                expected.append(rho)
        assert frobenius(stats.mean_state - np.array(expected)) < 1e-12
        # and it approximates the deterministic integrator at first order
        ode = integrate_ode(model, uniform_superposition(2), 0.5, 1e-3, record_every=100)
        assert frobenius(stats.mean_state - ode.states) < 5e-3
        assert np.array_equal(stats.times, ode.times)

    def test_mean_matches_master_equation(self):
        model = preset_model("dephasing")
        stats, _ = run_ensemble(model, uniform_superposition(2), 1.0, 1e-3, 2000, seed=77,
                                record_every=100)
        expected = 0.5 * np.exp(-stats.times)
        errors = np.abs(stats.mean_state[:, 0, 1] - expected)
        assert np.all(errors <= np.maximum(3.0 * stats.stderr, 0.02))

    def test_stats_invariants(self):
        model = preset_model("amplitude-damping")
        stats, diag = run_ensemble(model, uniform_superposition(2), 0.5, 1e-3, 3000, seed=5,
                                   record_every=50)
        # mean state Hermitian within Monte Carlo rounding
        assert frobenius(stats.mean_state - adjoint(stats.mean_state)) < 1e-12
        # trace of the mean stays near one even though single trajectories drift
        traces = np.einsum("taa->t", stats.mean_state).real
        assert np.all(np.abs(traces - 1.0) <= np.maximum(3.0 * stats.stderr, 1e-12))
        # single-trajectory diagnostics show the drift
        assert diag.trace_max > 1.0 + 1e-2 or diag.trace_min < 1.0 - 1e-2

    @pytest.mark.xfail(strict=True, reason="the one-pass variance, E|rho|^2 - |mean|^2, "
                       "cancels when the spread is tiny next to an O(1) mean")
    @pytest.mark.parametrize("scale", [1e-7, 1e-8])
    def test_weak_noise_stderr_matches_two_pass(self, scale):
        # the reported stderr against the two-pass one over the same
        # trajectories: trajectory i of the ensemble is run_trajectory's i
        dephasing = preset_model("dephasing")
        model = LindbladModel(hamiltonian=dephasing.hamiltonian,
                              lindblad_ops=scale * dephasing.lindblad_ops,
                              weights=dephasing.weights, covariance=dephasing.covariance)
        n_traj, rho0 = 256, uniform_superposition(2)
        stats, _ = run_ensemble(model, rho0, 0.1, 1e-3, n_traj, seed=11, record_every=100)
        finals = np.array([run_trajectory(model, rho0, 0.1, 1e-3, seed=11, traj_index=i,
                                          record_every=100).states[-1]
                           for i in range(n_traj)])
        deviations = finals - finals.mean(axis=0)
        variance = np.einsum("kab,kab->", deviations, deviations.conj()).real / (n_traj - 1)
        assert stats.stderr[-1] == pytest.approx(np.sqrt(variance / n_traj), rel=1e-3)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4a: the one-pass variance, "
                       "E|rho|^2 - |mean|^2, leaves rounding (1.16e-10) as the stderr "
                       "of identical states")
    def test_stderr_is_zero_where_every_trajectory_holds_rho0(self):
        # at t = 0 every trajectory is rho0 exactly, so the spread is 0
        stats, _ = run_ensemble(preset_model("dephasing"), uniform_superposition(2), 0.02,
                                0.02, 8192, seed=17001)
        assert stats.stderr[0] == 0

    @pytest.mark.parametrize("name, stepper", [
        ("dephasing", "euler"),
        ("two-noise-correlated", "euler"),
        ("stochastic-unitary-larmor", "exact_unitary"),
    ], ids=["dephasing", "two-noise-correlated", "larmor-exact-unitary"])
    def test_trajectory_matches_ensemble_bits(self, name, stepper):
        # trajectory i consumes the (seed, i) stream in both entry points,
        # through the same chunk loop, so the bits agree
        model = preset_model(name)
        stats, diag = run_ensemble(model, uniform_superposition(2), 0.05, 1e-3, 1,
                                   seed=31, record_every=50, stepper=stepper)
        traj = run_trajectory(model, uniform_superposition(2), 0.05, 1e-3, seed=31,
                              traj_index=0, record_every=50, stepper=stepper)
        assert np.array_equal(stats.mean_state, traj.states)
        assert np.array_equal(stats.times, traj.times)
        assert traj.trace_extremes == (diag.trace_min, diag.trace_max)
        assert traj.min_eigenvalue_seen == diag.min_eigenvalue

    def test_exact_unitary_ensemble(self):
        model = preset_model("stochastic-unitary-larmor")
        stats, diag = run_ensemble(model, uniform_superposition(2), 0.1, 1e-3, 200, seed=1,
                                   stepper="exact_unitary", record_every=10)
        assert abs(diag.trace_min - 1.0) <= 1e-12
        assert abs(diag.trace_max - 1.0) <= 1e-12
        assert diag.min_eigenvalue >= -1e-12

    def test_exact_unitary_checks_its_operators_once_per_run(self, monkeypatch):
        import lindbladsde.unraveling as unr

        names = []
        original = unr.check_hermitian

        def counting(m, name="matrix"):
            names.append(name)
            return original(m, name)

        monkeypatch.setattr(unr, "check_hermitian", counting)
        run_ensemble(preset_model("stochastic-unitary-larmor"), uniform_superposition(2),
                     0.01, 1e-3, 8, seed=1, stepper="exact_unitary")
        assert names == ["noise operator (as -iK)"]

    def test_rejects_unknown_stepper(self):
        with pytest.raises(ValueError, match="stepper"):
            run_ensemble(preset_model("dephasing"), uniform_superposition(2), 0.1, 1e-3, 10,
                         seed=0, stepper="milstein")

    def test_rejects_exact_unitary_for_damping(self):
        with pytest.raises(ValueError, match="Hermitian"):
            run_ensemble(preset_model("amplitude-damping"), uniform_superposition(2), 0.1,
                         1e-3, 10, seed=0, stepper="exact_unitary")

    @pytest.mark.parametrize("preset, stepper, dt, error, message", [
        ("amplitude-damping", "milstein", 1.5, ValueError, "unknown stepper"),
        ("amplitude-damping", "exact_unitary", 1.5, ValueError, r"noise operator \(as -iK\)"),
        ("stochastic-unitary-larmor", "exact_unitary", 1.5, NumericalError, "refusing"),
        ("stochastic-unitary-larmor", "exact_unitary", 1e-3, ValueError, "record_every"),
    ], ids=["name-first", "then-model", "then-step-size", "then-grid"])
    def test_checks_the_stepper_name_model_step_size_then_grid(self, preset, stepper, dt,
                                                               error, message):
        # amplitude-damping cannot run exact_unitary, larmor can; dt=1.5 is
        # refused for both, and record_every=7 divides no step count here:
        # the first check that fails raises
        with pytest.raises(error, match=message):
            run_ensemble(preset_model(preset), uniform_superposition(2), 0.1,
                         dt, 10, seed=0, record_every=7, stepper=stepper)

    def test_rejects_bad_record_cadence(self):
        with pytest.raises(ValueError, match="record_every"):
            run_ensemble(preset_model("dephasing"), uniform_superposition(2), 0.1, 1e-3, 10,
                         seed=0, record_every=7)


THREE_CHUNKS = 2 * 4096 + 1  # the last chunk holds one trajectory


@pytest.fixture
def forks(monkeypatch):
    """One entry per os.fork call this process makes during the test."""
    calls = []
    original = os.fork

    def counting():
        calls.append("fork")
        return original()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def refuse_forks(monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


class TestChunkProcesses:
    @pytest.mark.parametrize("name, stepper", [
        ("two-noise-correlated", "euler"),
        ("stochastic-unitary-larmor", "exact_unitary"),
    ], ids=["two-noise-correlated", "larmor-exact-unitary"])
    def test_workers_give_the_serial_bits(self, monkeypatch, forks, name, stepper):
        model = preset_model(name)
        results = []
        for cpus in ({0}, {0, 1}):
            usable_cpus(monkeypatch, cpus)
            results.append(run_ensemble(model, uniform_superposition(2), 0.01, 1e-3,
                                        THREE_CHUNKS, seed=17, record_every=5,
                                        stepper=stepper))
        assert forks == ["fork"] * 2  # one child per usable CPU, none for one CPU
        (serial, serial_diag), (pooled, pooled_diag) = results
        assert np.array_equal(serial.mean_state, pooled.mean_state)
        assert np.array_equal(serial.stderr, pooled.stderr)
        assert np.array_equal(serial.times, pooled.times)
        assert serial_diag == pooled_diag

    @pytest.mark.parametrize("failing_chunks", [(1,), (1, 2)], ids=["chunk-1", "chunks-1-2"])
    def test_lowest_failing_chunk_raises_the_serial_message(self, monkeypatch, forks,
                                                            failing_chunks):
        # the patched update is carried into the workers by fork; a chunk is
        # recognised by its first trajectory's increments at the first step
        import lindbladsde.unraveling as unr

        model = preset_model("dephasing")
        first_steps = {
            unr._trajectory_increments(3, 4096 * c, 1, 1, model.noise_basis, 1e-3)[0, 0].tobytes()
            for c in failing_chunks
        }
        original = unr._euler_update
        calls = []

        def failing(model, rho, dt, dw, workspace=None):
            calls.append(1)  # counted in this process only, so by the serial run
            out = original(model, rho, dt, dw, workspace)
            if dw[0].tobytes() in first_steps:
                out = out.copy()
                out[min(5, len(out) - 1), 0, 0] = np.inf
            return out

        monkeypatch.setattr(unr, "_euler_update", failing)
        messages = []
        for cpus in ({0}, {0, 1}):
            usable_cpus(monkeypatch, cpus)
            with pytest.raises(NumericalError) as caught:
                run_ensemble(model, uniform_superposition(2), 0.002, 1e-3, THREE_CHUNKS,
                             seed=3)
            messages.append(str(caught.value))
        assert forks == ["fork"] * 2
        assert len(calls) > 0
        assert messages == ["trajectory 4101: non-finite state at t=0.001"] * 2

    @pytest.mark.parametrize("case", ["trajectory", "one-chunk", "one-cpu",
                                      "no-affinity", "live-thread"])
    def test_runs_in_process(self, monkeypatch, case):
        import threading

        usable_cpus(monkeypatch, {0, 1})
        refuse_forks(monkeypatch)
        model, rho0 = preset_model("dephasing"), uniform_superposition(2)
        if case == "trajectory":
            run_trajectory(model, rho0, 0.002, 1e-3, seed=0, traj_index=4096)
            return
        n_traj = 4096 if case == "one-chunk" else THREE_CHUNKS
        if case == "one-cpu":
            usable_cpus(monkeypatch, {0})
        elif case == "no-affinity":
            monkeypatch.delattr(os, "sched_getaffinity")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if case == "live-thread":
            thread.start()
        try:
            stats, _ = run_ensemble(model, rho0, 0.002, 1e-3, n_traj, seed=0)
        finally:
            release.set()
        if case == "live-thread":
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert stats.trajectory_count == n_traj

    def test_daemonic_process_forks_and_gets_the_serial_bits(self, monkeypatch):
        # multiprocessing forbids a daemonic process children; os.fork does not
        import multiprocessing

        model, rho0 = preset_model("two-noise-correlated"), uniform_superposition(2)
        usable_cpus(monkeypatch, {0})
        serial, _ = run_ensemble(model, rho0, 0.002, 1e-3, THREE_CHUNKS, seed=5)
        usable_cpus(monkeypatch, {0, 1})

        def in_daemon(connection):
            forks = []
            original = os.fork

            def counting():
                forks.append("fork")
                return original()

            os.fork = counting  # this process ends after the run
            stats, _ = run_ensemble(model, rho0, 0.002, 1e-3, THREE_CHUNKS, seed=5)
            connection.send((multiprocessing.current_process().daemon, len(forks),
                             stats.mean_state, stats.stderr))

        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(target=in_daemon, args=(sender,), daemon=True)
        process.start()
        process.join(timeout=60)
        assert process.exitcode == 0
        daemon, fork_count, mean, stderr = receiver.recv()
        assert daemon and fork_count == 2
        assert np.array_equal(mean, serial.mean_state)
        assert np.array_equal(stderr, serial.stderr)

    def test_key_checked_before_any_worker(self, monkeypatch):
        usable_cpus(monkeypatch, {0, 1})
        refuse_forks(monkeypatch)
        model, rho0 = preset_model("dephasing"), uniform_superposition(2)
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            run_ensemble(model, rho0, 0.002, 1e-3, THREE_CHUNKS, seed=2**64)
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            run_ensemble(model, rho0, 0.002, 1e-3, 2**64 + 1, seed=0)

    def test_import_leaves_multiprocessing_unloaded(self):
        # chunk workers are forked with os.fork, so neither set-up nor a run
        # that forks pays for importing multiprocessing
        result = run_python(
            "import sys, numpy; before = 'multiprocessing' in sys.modules\n"
            "import lindbladsde.cli\n"
            "after_import = 'multiprocessing' in sys.modules\n"
            + TWO_CPU_RUN + "forks = []\n"
            "original = os.fork\n"
            "def counting():\n"
            "    forks.append(1)\n"
            "    return original()\n"
            "os.fork = counting\n"
            "run()\n"
            "print(before, after_import, 'multiprocessing' in sys.modules, len(forks))\n")
        before, after_import, after_run, fork_count = result.stdout.split()
        if before == "True":
            pytest.skip("this numpy loads multiprocessing on import")
        assert (after_import, after_run, fork_count) == ("False", "False", "2")

    def test_killed_worker_raises_instead_of_hanging(self):
        # a worker killed outright, as by the OOM killer, sends nothing back;
        # a timeout here means the parent waits for it forever
        result = run_python(TWO_CPU_RUN + """
original = unr._run_chunk
def dying(*args):
    if args[-2] == 4096:  # the first trajectory of chunk 1
        os.kill(os.getpid(), signal.SIGKILL)
    return original(*args)
unr._run_chunk = dying
start = time.monotonic()
try:
    run()
except RuntimeError as exc:
    print(time.monotonic() - start)
    print(no_child_left())
    print(exc)
""")
        elapsed, no_child, message = result.stdout.splitlines()
        assert float(elapsed) < 10 and no_child == "True"
        assert re.fullmatch(r"chunk worker \d+ was killed by signal 9 \(.*\) "
                            r"before it sent its results", message)

    @pytest.mark.parametrize("ending", ["normal", "chunk-failure", "interrupt"])
    def test_no_worker_outlives_the_run(self, ending):
        body = {
            "normal": "run()\n",
            "chunk-failure": """
def failing(*args):
    raise NumericalError(f"chunk from {args[-2]}")
unr._run_chunk = failing
try:
    run()
except NumericalError as exc:
    print(exc)
""",
            # Ctrl-C reaches the parent while both workers are still busy; a
            # background job inherits SIGINT ignored, so the handler is set
            "interrupt": """
signal.signal(signal.SIGINT, signal.default_int_handler)
def sleeping(*args):
    if args[-2] == 4096:
        os.kill(os.getppid(), signal.SIGINT)
    time.sleep(60)
unr._run_chunk = sleeping
try:
    run()
except KeyboardInterrupt:
    print("interrupted")
""",
        }[ending]
        result = run_python(TWO_CPU_RUN + body + "print(no_child_left())\n")
        expected = {"normal": [], "chunk-failure": ["chunk from 0"],
                    "interrupt": ["interrupted"]}[ending]
        assert result.stdout.splitlines() == expected + ["True"]

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    def test_failure_before_a_dead_worker_raises_the_serial_exception(self, cpus):
        # chunk 1 fails in worker 1 while worker 0, which ran chunk 0, dies in
        # chunk 2; the serial loop never reaches chunk 2
        result = run_python(TWO_CPU_RUN + f"""
os.sched_getaffinity = lambda pid: {cpus!r}
original = unr._run_chunk
def failing(*args):
    if args[-2] == 4096:
        raise NumericalError("chunk 1")
    if args[-2] == 8192:
        os.kill(os.getpid(), signal.SIGKILL)
    return original(*args)
unr._run_chunk = failing
try:
    run()
except RuntimeError as exc:
    print(type(exc).__name__, exc)
print(no_child_left())
""")
        assert result.stdout.splitlines() == ["NumericalError chunk 1", "True"]

    @pytest.mark.parametrize("ending", ["close", "consumer-raises"])
    def test_stopping_early_leaves_no_worker(self, ending):
        # the workers are still busy with later jobs when the consumer stops
        # after two records, through close() or an exception in the fold
        take_two = {
            "close": """
records = unr._map_chunks(work, list(range(6)))
taken = [next(records), next(records)]
records.close()
""",
            "consumer-raises": """
def stop(first, second):
    taken.extend([first, second])
    raise ValueError("consumer stops")
taken = []
try:
    functools.reduce(stop, unr._map_chunks(work, list(range(6))))
except ValueError:
    pass
""",
        }[ending]
        result = run_python(TWO_CPU_RUN + """
import functools
def work(job):
    if job >= 2:
        time.sleep(60)
    return job
start = time.monotonic()
""" + take_two + """
print(taken)
print(time.monotonic() - start < 10)
print(no_child_left())
""")
        assert result.stdout.splitlines() == ["[0, 1]", "True", "True"]

    def test_failed_fork_leaves_no_pipe_open(self):
        # the second fork is refused, as at a process limit: the error
        # reaches the caller, the first worker is reaped and both ends of
        # the refused worker's pipe are closed
        result = run_python(TWO_CPU_RUN + """
original = os.fork
forks = []
def refused():
    forks.append(1)
    if len(forks) == 2:
        raise BlockingIOError(11, "Resource temporarily unavailable")
    return original()
os.fork = refused
before = sorted(os.listdir("/proc/self/fd"))
try:
    run()
except BlockingIOError as exc:
    print(exc.errno)
print(sorted(os.listdir("/proc/self/fd")) == before)
print(no_child_left())
""")
        assert result.stdout.splitlines() == ["11", "True", "True"]


# Python source that makes two CPUs usable and defines run(), a three-chunk
# ensemble that forks two workers, and no_child_left().
TWO_CPU_RUN = """
import os, signal, sys, time
import lindbladsde.unraveling as unr
from lindbladsde.lindblad import NumericalError
from lindbladsde.presets import preset_model, uniform_superposition
os.sched_getaffinity = lambda pid: {0, 1}
def run():
    return unr.run_ensemble(preset_model("dephasing"), uniform_superposition(2),
                            0.002, 1e-3, 2 * 4096 + 1, seed=0)
def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this package's sources.

    The timeout turns a hang into a failure instead of stalling the suite.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result


# A case whose chunk records are large against the work that makes them:
# a d = 8 model run for 64 steps, every step recorded, so one trajectory's
# record holds 65 complex 8 x 8 states, RECORD_BYTES in all.
MEMORY_CASE = """
import sys
sys.path.insert(0, {tests!r})
from conftest import philox, random_model
import lindbladsde.unraveling as unr
from lindbladsde.presets import uniform_superposition
MODEL = random_model(philox(61), 8, 2)
def run_memory_case(n_traj):
    return unr.run_ensemble(MODEL, uniform_superposition(8), 64 * 1e-4, 1e-4, n_traj,
                            seed=9)
""".format(tests=str(Path(__file__).resolve().parent))
RECORD_BYTES = 65 * 8 * 8 * 16
FEW_CHUNKS, MANY_CHUNKS = 16, 256


class TestChunkMemory:
    """Memory does not grow with the chunk count: records are folded as they arrive.

    With one trajectory per chunk, MANY_CHUNKS - FEW_CHUNKS = 240 more
    records pass through a run, 16 MiB if they were all kept, 8 MiB in
    each of two workers. The bounds allow the parent's peak to grow by 8
    records and a worker's by 4 MiB, about 60 records.
    """

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["serial", "forked"])
    def test_parent_peak_does_not_grow_with_the_chunk_count(self, cpus):
        # traced in this process only; one untraced chunk first pays for
        # what a first run loads
        result = run_python(TWO_CPU_RUN + MEMORY_CASE + f"""
import tracemalloc
os.sched_getaffinity = lambda pid: {cpus!r}
os.register_at_fork(after_in_child=tracemalloc.stop)
unr._CHUNK_TRAJECTORIES = 1
run_memory_case(1)
for n_traj in ({FEW_CHUNKS}, {MANY_CHUNKS}):
    tracemalloc.start()
    run_memory_case(n_traj)
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
""")
        few, many = map(int, result.stdout.split())
        assert many <= few + 8 * RECORD_BYTES

    def test_worker_peak_rss_does_not_grow_with_the_chunk_count(self):
        # ru_maxrss of the reaped children is the largest worker's peak, in KiB
        result = run_python(TWO_CPU_RUN + MEMORY_CASE + f"""
import resource
unr._CHUNK_TRAJECTORIES = 1
for n_traj in ({FEW_CHUNKS}, {MANY_CHUNKS}):
    run_memory_case(n_traj)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
""")
        few, many = map(int, result.stdout.split())
        assert many <= few + 4 * 1024


class TestRandomnessContract:
    """run_trajectory(seed, i) follows the path of trajectory_rng(seed, i)'s own draws.

    The reference uses none of the package's kernels: the increments come
    from the raw covariance's eigh, and the update is written out from the
    raw operators, so an increment with its sign flipped or taken from
    another trajectory's draws is caught.
    """

    @pytest.mark.parametrize("model, dim", [
        (preset_model("amplitude-damping"), 2),
        (preset_model("two-noise-correlated"), 2),
        (random_model(philox(73), 3, 3, rank=2), 3),
    ], ids=["amplitude-damping", "two-noise-correlated", "rank2-n3"])
    @pytest.mark.parametrize("index", [0, 4097])
    def test_run_trajectory_follows_its_own_draws(self, model, dim, index):
        seed, dt, n_steps = 31, 1e-3, 40
        h, ops, weights = model.hamiltonian, model.lindblad_ops, model.weights
        values, vectors = np.linalg.eigh(model.covariance)
        values = np.where(values <= CLIP_TOL, 0.0, values)
        normals = trajectory_rng(seed, index).standard_normal((n_steps, len(weights)))
        dws = (normals * np.sqrt(values * dt)) @ vectors.T

        rho = uniform_superposition(dim)
        expected = [rho]
        for dw in dws:
            drift = -1j * (h @ rho - rho @ h)
            noise = np.zeros_like(rho)
            for v, weight, dw_n in zip(ops, weights, dw):
                vdag = v.conj().T
                drift = drift + v @ rho @ vdag - 0.5 * (vdag @ v @ rho + rho @ vdag @ v)
                noise = noise + weight * dw_n * (v @ rho + rho @ vdag)
            rho = rho + noise + dt * drift
            rho = 0.5 * (rho + rho.conj().T)
            expected.append(rho)

        traj = run_trajectory(model, uniform_superposition(dim), n_steps * dt, dt, seed,
                              traj_index=index)
        assert np.abs(traj.states - np.array(expected)).max() <= 1e-12


class TestChunkSums:
    """The chunk record and its chunk-order merge round like the sums they replaced."""

    @staticmethod
    def signed_zero_records():
        # entry 0 is -0.0 in every chunk, entry 1 in the first chunk only,
        # entry 2 in the last only; entry 3 sums to 1.0 in chunk order and
        # to 1.0 + 2**-52 in the reverse order
        parts = [np.array([-0.0, -0.0, 0.0, 1.0]), np.array([-0.0, 0.0, 0.0, 1e-16]),
                 np.array([-0.0, 0.0, -0.0, 1e-16])]
        states = [np.array(p, dtype=complex).reshape(1, 2, 2) for p in parts]
        for s, p in zip(states, parts):
            s.imag = p[::-1].reshape(1, 2, 2)  # set, not added, to keep the signs
        sq_norms = [np.array([0.0]), np.array([2.5]), np.array([1e-300])]
        extremes = [(1.0, 1.25, -0.5), (0.5, 1.0, -0.5), (0.5, 1.5, -1.0)]
        return [_ChunkSums(s, q, *e) for s, q, e in zip(states, sq_norms, extremes)]

    def test_merge_keeps_the_bits_of_the_sum_from_zero(self):
        records = self.signed_zero_records()
        merged = functools.reduce(_ChunkSums.merge, records)
        expected = sum(r.states for r in records)  # from the integer 0
        # the fold alone leaves the all-negative zero; one 0 + then gives
        # the bits of the sum from 0, sign of zero included
        assert np.signbit(merged.states.real[0, 0, 0]) and np.signbit(merged.states.imag[0, 1, 1])
        got = 0 + merged.states
        assert np.array_equal(got, expected)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(expected, part)))
        assert not np.signbit(got.real).ravel()[:3].any()
        assert np.array_equal(merged.sq_norms, sum(r.sq_norms for r in records))
        assert (merged.trace_min, merged.trace_max, merged.min_eigenvalue) == (0.5, 1.5, -1.0)

    def test_runners_report_the_merged_record(self, monkeypatch):
        # three chunks of fabricated sums through the real driver: the
        # ensemble mean is the sum from 0 over n_traj, a trajectory is its
        # one chunk's record as it stands
        import lindbladsde.unraveling as unr

        records = self.signed_zero_records()
        times = 3  # 0.002 / 1e-3 steps, every one recorded
        records = [_ChunkSums(np.repeat(r.states, times, axis=0), np.repeat(r.sq_norms, times),
                              r.trace_min, r.trace_max, r.min_eigenvalue) for r in records]
        monkeypatch.setattr(unr, "_run_chunk", lambda *args: records[args[-2] // 4096])
        usable_cpus(monkeypatch, {0})
        model, rho0 = preset_model("dephasing"), uniform_superposition(2)
        stats, diag = run_ensemble(model, rho0, 0.002, 1e-3, THREE_CHUNKS, seed=0)
        expected = sum(r.states for r in records) / THREE_CHUNKS
        assert np.array_equal(stats.mean_state, expected)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(stats.mean_state, part)),
                                  np.signbit(getattr(expected, part)))
        assert (diag.trace_min, diag.trace_max, diag.min_eigenvalue) == (0.5, 1.5, -1.0)
        traj = run_trajectory(model, rho0, 0.002, 1e-3, seed=0, traj_index=4096)
        assert traj.states is records[1].states
        assert (traj.trace_extremes, traj.min_eigenvalue_seen) == ((0.5, 1.0), -0.5)


class TestTrajectoryRng:
    def test_streams_differ_between_trajectories(self):
        a = trajectory_rng(0, 0).standard_normal(8)
        b = trajectory_rng(0, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_streams_repeatable(self):
        a = trajectory_rng(5, 3).standard_normal(8)
        b = trajectory_rng(5, 3).standard_normal(8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 5, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("index", [0, 1, 4095, 10**12, 2**64 - 1])
    def test_stream_is_philox_keyed_by_seed_and_index(self, seed, index):
        key = np.array([seed, index], dtype=np.uint64)
        expected = np.random.Generator(np.random.Philox(key=key)).standard_normal(10**4)
        assert np.array_equal(trajectory_rng(seed, index).standard_normal(10**4), expected)

    def test_live_generators_keep_their_own_state(self):
        a, b = trajectory_rng(7, 0), trajectory_rng(7, 1)
        interleaved = [(a.standard_normal(5), b.standard_normal(5)) for _ in range(40)]
        alone_a = trajectory_rng(7, 0).standard_normal(200)
        alone_b = trajectory_rng(7, 1).standard_normal(400)
        assert np.array_equal(np.concatenate([x for x, _ in interleaved]), alone_a)
        assert np.array_equal(np.concatenate([y for _, y in interleaved]), alone_b[:200])
        # re-keying one live generator leaves the other's stream where it was
        assert trajectory_rng(7, 2, reuse=a) is a
        assert np.array_equal(b.standard_normal(200), alone_b[200:])
        assert np.array_equal(a.standard_normal(200), trajectory_rng(7, 2).standard_normal(200))

    @pytest.mark.parametrize("draw", [
        lambda g: g.standard_normal(7),
        lambda g: g.random(3),
        lambda g: g.integers(0, 10, dtype=np.uint32),  # leaves half a 64-bit word
        lambda g: g.bytes(5),
    ], ids=["odd-normals", "random-3", "uint32", "bytes-5"])
    @pytest.mark.parametrize("seed, index", [(0, 0), (2**64 - 1, 2**64 - 1), (5, 2**64 - 1),
                                             (np.uint64(2**64 - 1), np.int64(3))])
    def test_rekeyed_generator_gives_the_fresh_stream(self, draw, seed, index):
        g = trajectory_rng(11, 4)
        draw(g)
        expected = trajectory_rng(seed, index).standard_normal(10**4)
        assert trajectory_rng(seed, index, reuse=g) is g
        assert np.array_equal(g.standard_normal(10**4), expected)

    def test_uint32_draw_leaves_a_half_word_that_the_rekey_drops(self):
        g = trajectory_rng(11, 4)
        g.integers(0, 10, dtype=np.uint32)
        assert g.bit_generator.state["has_uint32"] == 1
        trajectory_rng(11, 4, reuse=g)
        assert g.bit_generator.state["has_uint32"] == 0

    @pytest.mark.parametrize("seed, index, error", [(-1, 0, ValueError), (2**64, 0, ValueError),
                                                    (0.5, 0, TypeError), (0, -1, ValueError)])
    def test_rejected_key_leaves_reuse_as_it_was(self, seed, index, error):
        g, twin = trajectory_rng(3, 9), trajectory_rng(3, 9)
        g.standard_normal(3)
        twin.standard_normal(3)
        with pytest.raises(error):
            trajectory_rng(seed, index, reuse=g)
        assert np.array_equal(g.standard_normal(100), twin.standard_normal(100))

    def test_refuses_a_generator_that_is_not_philox(self):
        g = np.random.Generator(np.random.PCG64(0))
        expected = np.random.Generator(np.random.PCG64(0)).standard_normal(10)
        with pytest.raises(ValueError, match="PCG64"):
            trajectory_rng(0, 0, reuse=g)
        assert np.array_equal(g.standard_normal(10), expected)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "thread-pool"])
    def test_run_ensemble_keys_one_generator_per_chunk(self, monkeypatch, workers):
        # one trajectory_rng call per trajectory, looked up through the module
        # global, as the benchmark's tracer counts them; only the first call
        # of each chunk builds a generator
        import lindbladsde.unraveling as unr

        model = preset_model("two-noise-correlated")
        rho0 = uniform_superposition(2)
        usable_cpus(monkeypatch, {0})
        refuse_forks(monkeypatch)
        expected_stats, expected_diag = run_ensemble(model, rho0, 0.002, 1e-3, 4097, seed=23)
        original, calls = unr.trajectory_rng, []

        def counting(seed, traj_index, reuse=None):
            calls.append((traj_index, reuse is None))  # list.append is atomic under the GIL
            return original(seed, traj_index, reuse)

        monkeypatch.setattr(unr, "trajectory_rng", counting)
        stats, diag = run_ensemble(model, rho0, 0.002, 1e-3, 4097, seed=23, workers=workers)
        assert len(calls) == 4097
        assert sorted(index for index, _ in calls) == list(range(4097))
        assert sorted(index for index, fresh in calls if fresh) == [0, 4096]
        assert np.array_equal(stats.mean_state, expected_stats.mean_state)
        assert np.array_equal(stats.stderr, expected_stats.stderr)
        assert np.array_equal(stats.times, expected_stats.times)
        assert diag == expected_diag

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy loads numpy.random on first use; importing the package must
        # not load it, since a command that draws no noise never needs it
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
                "import lindbladsde.cli; print(before, 'numpy.random' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        before, after = result.stdout.split()
        if before == "True":
            pytest.skip("this numpy loads numpy.random on import")
        assert after == "False"

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="nonnegative"):
            trajectory_rng(-1, 0)

    @pytest.mark.parametrize("seed, index", [(2**64, 0), (0, 2**64)])
    def test_rejects_keys_beyond_64_bits(self, seed, index):
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            trajectory_rng(seed, index)

    @pytest.mark.parametrize("seed, index", [(1.5, 0), (0, 0.5), (np.float64(1.0), 0)])
    def test_rejects_non_integer_keys(self, seed, index):
        # truncating would hand out the stream of another key
        with pytest.raises(TypeError):
            trajectory_rng(seed, index)

    @pytest.mark.parametrize("seed, index", [(np.uint64(2**64 - 1), np.uint64(3)),
                                             (np.int64(7), np.int64(2))])
    def test_numpy_integer_keys_keep_their_stream(self, seed, index):
        expected = trajectory_rng(int(seed), int(index)).standard_normal(100)
        assert np.array_equal(trajectory_rng(seed, index).standard_normal(100), expected)


class TestRunnerKeys:
    """Seeds, trajectory indices and counts are integers at every entry point."""

    ARGS = (preset_model("dephasing"), uniform_superposition(2), 0.002, 1e-3)

    @pytest.mark.parametrize("keys", [{"seed": 1.5}, {"traj_index": 0.5}],
                             ids=["seed", "traj_index"])
    def test_run_trajectory_rejects_floats(self, keys):
        with pytest.raises(TypeError):
            run_trajectory(*self.ARGS, **{"seed": 1, **keys})

    @pytest.mark.parametrize("keys", [{"seed": 1.5}, {"n_traj": 4.0}],
                             ids=["seed", "n_traj"])
    def test_run_ensemble_rejects_floats(self, keys):
        with pytest.raises(TypeError):
            run_ensemble(*self.ARGS, **{"n_traj": 4, "seed": 1, **keys})

    @pytest.mark.parametrize("runner", ["trajectory", "ensemble", "ode"])
    @pytest.mark.parametrize("record_every", [2.0, 2.5])
    def test_runners_reject_float_record_every(self, runner, record_every):
        # a float cadence could record more times than states, or index by a float
        with pytest.raises(TypeError):
            self.run(runner, record_every)

    @pytest.mark.parametrize("runner", ["trajectory", "ensemble", "ode"])
    def test_numpy_integer_record_every_keeps_the_run(self, runner):
        (times, states), (expected_times, expected_states) = (
            self.run(runner, np.int64(2)), self.run(runner, 2))
        assert np.array_equal(times, expected_times) and len(times) == 2
        assert np.array_equal(states, expected_states)

    def run(self, runner, record_every):
        """The recorded times and states of a 2-step run of one runner."""
        if runner == "ensemble":
            stats, _ = run_ensemble(*self.ARGS, n_traj=16, seed=1, record_every=record_every)
            return stats.times, stats.mean_state
        result = (integrate_ode(*self.ARGS, record_every=record_every) if runner == "ode"
                  else run_trajectory(*self.ARGS, seed=1, record_every=record_every))
        return result.times, result.states

    def test_boolean_count_is_one_trajectory(self):
        stats, _ = run_ensemble(*self.ARGS, n_traj=True, seed=1)
        assert stats.trajectory_count == 1 and type(stats.trajectory_count) is int

    @pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(7)])
    def test_numpy_integer_seeds_keep_their_ensemble(self, seed):
        expected, _ = run_ensemble(*self.ARGS, n_traj=5, seed=int(seed))
        stats, _ = run_ensemble(*self.ARGS, n_traj=np.int64(5), seed=seed)
        assert np.array_equal(stats.mean_state, expected.mean_state)
        assert np.array_equal(stats.stderr, expected.stderr)
        assert stats.seed == int(seed) and type(stats.seed) is int
        traj = run_trajectory(*self.ARGS, seed=seed, traj_index=np.uint64(4))
        alone = run_trajectory(*self.ARGS, seed=int(seed), traj_index=4)
        assert np.array_equal(traj.states, alone.states)
        traj = run_trajectory(*self.ARGS, seed=seed, traj_index=np.uint64(2**64 - 1))
        alone = run_trajectory(*self.ARGS, seed=int(seed), traj_index=2**64 - 1)
        assert np.array_equal(traj.states, alone.states)


@pytest.mark.parametrize("runner, args", [(run_trajectory, ()), (run_ensemble, (2,))],
                         ids=["run_trajectory", "run_ensemble"])
def test_rho0_of_another_dimension_is_refused(runner, args):
    with pytest.raises(ValueError, match=rf"{runner.__name__}: rho0 has shape \(3, 3\).*\(2, 2\)"):
        runner(preset_model("dephasing"), np.eye(3) / 3, 0.01, 1e-3, *args, seed=0)
