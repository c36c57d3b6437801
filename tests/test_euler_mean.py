"""The exact mean of the Euler scheme as a reference for its ensembles.

The Euler update is linear in the state, and its noise term has zero mean
and is independent of the state it multiplies, so the expected state obeys
m <- m + dt L(m) exactly, with L the generator of Eq. (2). The weights d_n
and the covariance only shape the noise, so they do not enter the mean.
The oracle below is built with plain numpy from the raw H and v_n, not from
the package's kernels, so a fault in those cannot cancel out of the check.
"""

import numpy as np
import pytest

from conftest import philox, random_model
from lindbladsde.lindblad import LindbladModel
from lindbladsde.operators import frobenius
from lindbladsde.presets import PRESET_NAMES, preset_model, uniform_superposition
from lindbladsde.unraveling import run_ensemble

Z_LIMIT = 6.0


def generator(h, ops, m):
    """L(m) = -i[H, m] + sum_n (v_n m v_n^dagger - (v_n^dagger v_n m + m v_n^dagger v_n) / 2)."""
    out = -1j * (h @ m - m @ h)
    for v in ops:
        vdag = v.conj().T
        out = out + v @ m @ vdag - 0.5 * (vdag @ v @ m + m @ vdag @ v)
    return out


def euler_mean(h, ops, rho0, dt, n_steps, record_every):
    """(1 + dt L)^k rho0 at k = 0, record_every, ..., n_steps."""
    m = np.array(rho0, dtype=complex)
    recorded = [m]
    for k in range(n_steps):
        m = m + dt * generator(h, ops, m)
        if (k + 1) % record_every == 0:
            recorded.append(m)
    return np.array(recorded)


def superoperator(h, ops):
    """L as a d^2 x d^2 matrix on row-major vec(m): vec(a m b) = (a kron b^T) vec(m)."""
    eye = np.eye(len(h))
    s = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for v in ops:
        vdv = v.conj().T @ v
        s = s + np.kron(v, v.conj()) - 0.5 * (np.kron(vdv, eye) + np.kron(eye, vdv.T))
    return s


def expm(a):
    """exp(a) by scaling and squaring a degree-20 Taylor polynomial.

    a is scaled to infinity norm at most 1/2, where the truncation error is
    below 1e-27 relative.
    """
    norm = np.abs(a).sum(axis=1).max()
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    b = a / 2.0**squarings
    term = np.eye(len(a), dtype=complex)
    out = term
    for j in range(1, 21):
        term = term @ b / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def random_qutrit_model():
    """A random d = 3, N = 3 model with a rank-2 covariance, its noise
    operators scaled so that dt = 0.01 stays clear of the bias warning."""
    base = random_model(philox(0xE3), 3, 3, rank=2)
    return LindbladModel(hamiltonian=base.hamiltonian, lindblad_ops=0.25 * base.lindblad_ops,
                         weights=base.weights, covariance=base.covariance)


# (model, t_final, dt): 50 Euler steps each, and 200 finer steps of
# dephasing. The ensemble seeds are fixed in CASES order before any run, not
# searched for.
CASES = {name: (preset_model(name), 1.0, 0.02) for name in PRESET_NAMES}
CASES["random-qutrit"] = (random_qutrit_model(), 0.5, 0.01)
CASES["dephasing-fine-step"] = (preset_model("dephasing"), 0.2, 1e-3)
SEEDS = dict(zip(CASES, range(12_001, 12_001 + len(CASES))))


@pytest.mark.parametrize("name", list(CASES))
def test_ensemble_mean_is_within_z_of_the_exact_euler_mean(name):
    model, t_final, dt = CASES[name]
    rho0 = uniform_superposition(model.dim)
    stats, _ = run_ensemble(model, rho0, t_final, dt, 8192, seed=SEEDS[name],
                            record_every=5)
    exact = euler_mean(model.hamiltonian, model.lindblad_ops, rho0, dt,
                       round(t_final / dt), 5)
    gaps = np.linalg.norm(stats.mean_state - exact, axis=(-2, -1))
    # z <= 6 against the reported Frobenius stderr; the 1e-14 absorbs the
    # rounding of the t = 0 row, where every trajectory holds rho0
    assert np.all(gaps <= Z_LIMIT * stats.stderr + 1e-14), gaps / np.maximum(stats.stderr, 1e-300)
    assert np.all(stats.stderr[1:] > 0.0)


@pytest.mark.parametrize("name", list(CASES))
def test_euler_bias_is_first_order_in_dt(name):
    # No Monte Carlo: (1 + dt L)^k rho0 - exp(k dt L) rho0 at fixed t = k dt
    # halves with dt, to leading order
    model, t_final, _ = CASES[name]
    h, ops = model.hamiltonian, model.lindblad_ops
    rho0 = uniform_superposition(model.dim)
    lvec = superoperator(h, ops)
    # the two forms of L agree, so the reference exponentiates the same L
    m = philox(7).standard_normal(rho0.shape) + 1j * philox(8).standard_normal(rho0.shape)
    assert frobenius((lvec @ m.reshape(-1)).reshape(m.shape) - generator(h, ops, m)) <= 1e-12
    exact = (expm(t_final * lvec) @ rho0.reshape(-1)).reshape(rho0.shape)
    biases = []
    for n_steps in (100, 200, 400, 800):
        mean = euler_mean(h, ops, rho0, t_final / n_steps, n_steps, n_steps)[-1]
        biases.append(frobenius(mean - exact))
    ratios = np.array(biases[:-1]) / np.array(biases[1:])
    assert np.all((1.9 <= ratios) & (ratios <= 2.1)), ratios
    # and the bias is resolved: far above the rounding of the reference
    assert biases[-1] > 1e-6
