"""Shared deterministic generators for random matrices, covariances, models."""

import numpy as np

from lindbladsde.lindblad import LindbladModel

# Presets whose noise operators are all anti-Hermitian, hence trajectory
# trace preserving. Written by hand from the operators, so it is an oracle
# independent of the model's residual report.
TRACE_PRESERVING_PRESETS = (
    "dephasing",
    "stochastic-unitary-larmor",
    "two-noise-correlated",
)


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def commutator(a, b):
    return a @ b - b @ a


def random_complex(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def random_hermitian(rng, dim):
    a = random_complex(rng, dim)
    return 0.5 * (a + a.conj().T)


def random_density(rng, dim):
    g = random_complex(rng, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unit_diag_covariance(rng, n, rank=None):
    """Random PSD covariance with exact unit diagonal; rank < n makes it singular."""
    rank = n if rank is None else rank
    g = rng.standard_normal((n, max(rank, 1)))
    c = g @ g.T
    scale = np.sqrt(np.diag(c))
    c = c / np.outer(scale, scale)
    np.fill_diagonal(c, 1.0)
    return 0.5 * (c + c.T)


def random_model(rng, dim, noises, anti_hermitian=False, rank=None,
                 identity_covariance=False):
    """Random valid model; anti_hermitian noise operators make single
    trajectories trace preserving for any covariance."""
    h = random_hermitian(rng, dim)
    if anti_hermitian:
        ops = np.array([-1j * random_hermitian(rng, dim) for _ in range(noises)])
    else:
        ops = np.array([random_complex(rng, dim) for _ in range(noises)])
    w = np.abs(rng.standard_normal(noises)) + 0.1
    w = w / np.sqrt(np.sum(w * w))
    c = (np.eye(noises) if identity_covariance
         else random_unit_diag_covariance(rng, noises, rank))
    return LindbladModel(hamiltonian=h, lindblad_ops=ops, weights=w, covariance=c)


def model_with_covariance(cov):
    """Smallest valid model that carries a given increment covariance."""
    n = cov.shape[0]
    return LindbladModel(hamiltonian=np.zeros((1, 1)), lindblad_ops=np.zeros((n, 1, 1)),
                         weights=np.full(n, 1.0 / np.sqrt(n)), covariance=cov)
