"""The exact mean and covariance of the Euler scheme as references for its ensembles.

The Euler update is linear in the state, and its noise term has zero mean
and is independent of the state it multiplies, so the expected state obeys
m <- m + dt L(m) exactly, with L the generator of Eq. (2). The weights d_n
and the covariance only shape the noise, so they do not enter the mean;
they do enter the states' covariance, which obeys a linear recursion of
its own. The oracles below are built with plain numpy from the raw H, v_n,
d_n and c, not from the package's kernels, so a fault in those cannot
cancel out of the check.
"""

import numpy as np
import pytest

from conftest import philox, random_model
from lindbladsde.lindblad import LindbladModel
from lindbladsde.operators import frobenius
from lindbladsde.presets import PRESET_NAMES, preset_model, uniform_superposition
from lindbladsde.unraveling import run_ensemble
from test_golden_csv import QUDIT8_MODEL

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


def euler_variances(h, ops, weights, cov, rho0, dt, n_steps, record_every):
    """E|rho_k - m_k|^2 (Frobenius) at k = 0, record_every, ..., n_steps.

    On row-major vec(rho) the update is x <- A0 x + sum_n dW^n B_n x with
    A0 = 1 + dt L, B_n = d_n (v_n kron 1 + 1 kron conj(v_n)) and
    E[dW^m dW^n] = dt c_mn, each step's increments independent of x. So
    the covariance C of x obeys
    C <- A0 C A0^H + dt sum_mn c_mn B_m (C + m m^H) B_n^H with m <- A0 m,
    and is propagated as it stands, never as E|x|^2 - |m|^2; the variance
    is tr C.
    """
    eye = np.eye(len(h))
    a0 = np.eye(len(h) ** 2) + dt * superoperator(h, ops)
    b = [w * (np.kron(v, eye) + np.kron(eye, v.conj())) for w, v in zip(weights, ops)]
    m = np.array(rho0, dtype=complex).reshape(-1)
    c = np.zeros((len(m), len(m)), dtype=complex)
    recorded = [0.0]
    for k in range(n_steps):
        second = c + np.outer(m, m.conj())
        c = a0 @ c @ a0.conj().T + dt * sum(
            cov[i, j] * b[i] @ second @ b[j].conj().T
            for i in range(len(b)) for j in range(len(b)))
        m = a0 @ m
        if (k + 1) % record_every == 0:
            recorded.append(np.trace(c).real)
    return np.array(recorded)


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


def qudit8_model():
    """The golden d = 8, N = 2 model with correlated noises, from its JSON form."""
    def matrices(key):
        pairs = np.array(QUDIT8_MODEL[key])
        return pairs[..., 0] + 1j * pairs[..., 1]
    return LindbladModel(hamiltonian=matrices("hamiltonian"),
                         lindblad_ops=matrices("lindblad_ops"),
                         weights=np.array(QUDIT8_MODEL["weights"]),
                         covariance=np.array(QUDIT8_MODEL["covariance"]))


# (model, t_final, dt): 50 Euler steps each, and 200 finer steps of
# dephasing. The d = 8 qudit stops at t = 0.5: at t = 1 its O(dt^2) bias
# term still shows at dt = 0.01, and the first bias ratio reads 2.13. The
# ensemble seeds are fixed in CASES order before any run, not searched for.
CASES = {name: (preset_model(name), 1.0, 0.02) for name in PRESET_NAMES}
CASES["random-qutrit"] = (random_qutrit_model(), 0.5, 0.01)
CASES["dephasing-fine-step"] = (preset_model("dephasing"), 0.2, 1e-3)
CASES["qudit8"] = (qudit8_model(), 0.5, 0.01)
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


# 100 Euler steps each, of the CASES step: to t = 2 for the presets, where
# the stderr of two-noise-correlated is 25% below what it would be if the
# noises were independent, and to t = 1 for the qutrit, whose step of 0.01
# keeps it clear of the bias warning. The seeds are fixed before any run,
# not searched for.
VARIANCE_SEEDS = {"dephasing": 17_001, "two-noise-correlated": 17_002, "random-qutrit": 17_003}
# Five times 1/sqrt(2 * 8192) = 0.78%, the relative spread of a standard
# deviation estimated from 8192 draws of one Gaussian degree of freedom.
STDERR_BAND = 0.04


@pytest.mark.parametrize("name", list(VARIANCE_SEEDS))
def test_ensemble_stderr_is_within_band_of_the_exact_euler_stderr(name):
    (model, _, dt), n_traj = CASES[name], 8192
    rho0 = uniform_superposition(model.dim)
    stats, _ = run_ensemble(model, rho0, 100 * dt, dt, n_traj, seed=VARIANCE_SEEDS[name],
                            record_every=10)
    exact = np.sqrt(euler_variances(model.hamiltonian, model.lindblad_ops, model.weights,
                                    model.covariance, rho0, dt, 100, 10) / n_traj)
    # row 0 is skipped: every trajectory holds rho0 there, exact is 0, and
    # the one-pass variance reports rounding, as in the weak-noise xfail
    ratios = stats.stderr[1:] / exact[1:]
    assert np.all(np.abs(ratios - 1.0) <= STDERR_BAND), ratios
