"""Plain-numpy references for the exact-unitary stepper.

The stepper conjugates by V = exp(-i(H dt + K dW)), with the single noise
operator v = -iK. Two references check it without the package's kernels:

- Path by path on larmor, where H and K commute, the product of the steps is
  U_t = exp(-i(H t + K W_t)), with W_t the running sum of the trajectory's
  own increments.
- In the mean, each step is independent of the state it acts on, so the
  expected state obeys m <- M m with the one-step map M = E[V kron conj(V)]
  on row-major vec(m), dW ~ N(0, dt). M is built by Gauss-Hermite
  quadrature from the raw H and K.
"""

import numpy as np
import pytest

from conftest import commutator, philox, random_hermitian
from lindbladsde.lindblad import LindbladModel
from lindbladsde.presets import preset_model, uniform_superposition
from lindbladsde.unraveling import _correlate, run_ensemble, run_trajectory, trajectory_rng

Z_LIMIT = 6.0
QUADRATURE_NODES = 40


def hermitian_exp(a):
    """exp(-i a) for a Hermitian a, or a stack of them, by eigendecomposition."""
    w, q = np.linalg.eigh(a)
    return (q * np.exp(-1j * w)[..., None, :]) @ q.conj().swapaxes(-1, -2)


def noise_hermitian(model):
    """K of the model's one noise operator v = -iK."""
    return 1j * model.lindblad_ops[0]


# (seed, trajectory index) pairs, fixed before any run; the second index
# lies in the second chunk, and the third seed is wider than 32 bits.
PATH_KEYS = [(13, 0), (1301, 4097), (2**40 + 3, 77)]


@pytest.mark.parametrize("seed, index", PATH_KEYS)
def test_larmor_trajectory_is_the_exact_unitary_of_its_own_path(seed, index):
    model = preset_model("stochastic-unitary-larmor")
    h, k = model.hamiltonian, noise_hermitian(model)
    dt, n_steps = 1e-3, 200
    rho0 = uniform_superposition(2)
    normals = trajectory_rng(seed, index).standard_normal((n_steps, 1))
    dws = _correlate(normals, model.noise_basis, dt)[:, 0]
    times = dt * np.arange(n_steps + 1)
    paths = np.concatenate([[0.0], np.cumsum(dws)])
    u = hermitian_exp(h * times[:, None, None] + k * paths[:, None, None])
    expected = u @ rho0 @ u.conj().swapaxes(-1, -2)

    traj = run_trajectory(model, rho0, n_steps * dt, dt, seed, traj_index=index,
                          stepper="exact_unitary")
    assert np.array_equal(traj.times, times)
    assert np.abs(traj.states - expected).max() <= 1e-12
    # the path is not trivial: the noise has moved the phase by far more
    # than the tolerance
    assert np.abs(expected[-1] - hermitian_exp(h * times[-1]) @ rho0
                  @ hermitian_exp(h * times[-1]).conj().T).max() > 1e-3


def one_step_mean_map(h, k, dt, noise=True):
    """E[V kron conj(V)], V = exp(-i(H dt + K dW)), dW ~ N(0, dt), on row-major vec.

    Probabilists' Gauss-Hermite nodes x_j with weights w_j integrate against
    exp(-x^2 / 2), so dW = sqrt(dt) x_j and the weights are divided by
    sqrt(2 pi). With noise=False, the map of the noise-free step, dW = 0.
    """
    if not noise:
        v = hermitian_exp(h * dt)
        return np.kron(v, v.conj())
    nodes, weights = np.polynomial.hermite_e.hermegauss(QUADRATURE_NODES)
    v = hermitian_exp(h * dt + k * (np.sqrt(dt) * nodes)[:, None, None])
    return sum(w * np.kron(vj, vj.conj()) for w, vj in zip(weights, v)) / np.sqrt(2 * np.pi)


def mean_map_powers(m, rho0, n_steps, record_every):
    """M^j rho0 at j = 0, record_every, ..., n_steps."""
    x = rho0.reshape(-1).astype(complex)
    recorded = [x]
    for j in range(n_steps):
        x = m @ x
        if (j + 1) % record_every == 0:
            recorded.append(x)
    return np.array(recorded).reshape(-1, *rho0.shape)


def noncommuting_qutrit():
    """A d = 3 single-noise model v = -iK with [H, K] != 0; K is scaled so
    that dt = 0.01 stays clear of the bias warning."""
    rng = philox(6003)
    h = random_hermitian(rng, 3)
    k = 0.3 * random_hermitian(rng, 3)
    return LindbladModel(hamiltonian=h, lindblad_ops=np.array([-1j * k]),
                         weights=np.array([1.0]), covariance=np.eye(1))


def test_larmor_mean_map_is_the_master_equation():
    # H = K = sigma_z commute, so the exact step's mean is exact: the
    # coherence turns at rate 2 and decays at rate 2, the populations stay
    model = preset_model("stochastic-unitary-larmor")
    dt = 0.01
    m = one_step_mean_map(model.hamiltonian, noise_hermitian(model), dt)
    expected = np.diag([1.0, np.exp(-2 * dt - 2j * dt), np.exp(-2 * dt + 2j * dt), 1.0])
    assert np.abs(m - expected).max() <= 1e-14


# (model, seed): 4096 trajectories of 100 steps of 0.01, recorded every
# 10th step; the seeds are fixed before any run, not searched for.
MEAN_CASES = {
    "larmor": (preset_model("stochastic-unitary-larmor"), 6001),
    "noncommuting-qutrit": (noncommuting_qutrit(), 6002),
}


@pytest.mark.parametrize("name", list(MEAN_CASES))
def test_ensemble_mean_is_within_z_of_the_exact_unitary_mean(name):
    model, seed = MEAN_CASES[name]
    dt, n_steps, record_every, n_traj = 0.01, 100, 10, 4096
    h, k = model.hamiltonian, noise_hermitian(model)
    if name != "larmor":
        assert np.abs(commutator(h, k)).max() > 0.1
    rho0 = uniform_superposition(model.dim)
    stats, _ = run_ensemble(model, rho0, n_steps * dt, dt, n_traj, seed=seed,
                            record_every=record_every, stepper="exact_unitary")
    exact = mean_map_powers(one_step_mean_map(h, k, dt), rho0, n_steps, record_every)
    gaps = np.linalg.norm(stats.mean_state - exact, axis=(-2, -1))
    # z <= 6 against the reported Frobenius stderr; the 1e-14 absorbs the
    # rounding of the t = 0 row, where every trajectory holds rho0
    assert np.all(gaps <= Z_LIMIT * stats.stderr + 1e-14), gaps / np.maximum(stats.stderr, 1e-300)
    assert np.all(stats.stderr[1:] > 0.0)
    # the check has the power to see the noise: the noise-free mean is
    # refused at the final time
    free = mean_map_powers(one_step_mean_map(h, k, dt, noise=False), rho0, n_steps,
                           record_every)
    assert np.linalg.norm(stats.mean_state[-1] - free[-1]) > Z_LIMIT * stats.stderr[-1]
