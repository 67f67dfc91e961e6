import numpy as np
import pytest

from dfslink.analysis import _record_scales
from dfslink.qmath import DensityOperator, StateVector


def haar_state(dim, rng):
    """Haar-random pure state of the given dimension."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(v / np.linalg.norm(v))


def haar_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim, rng, rank=None):
    """Random full(ish)-rank density operator via a Wishart draw."""
    rank = rank or dim
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m))


def rounding_bound(records, rho):
    """``tomo_mle``'s stated bound on the rounding of a reported
    log-likelihood: gamma_{K+4} sum_k (n_k (|log mu_k| + 1) + mu_k), with
    mu_k = N_k <P_k> and N_k the scales the fit used."""
    counts = np.array([r.count for r in records], dtype=float)
    probs = np.array([np.real(np.trace(r.setting.joint_projector() @ rho.matrix))
                      for r in records])
    mu = _record_scales(records) * probs
    seen = counts > 0
    m = (len(records) + 4) * 2.0**-53
    return float(m / (1 - m) * (counts[seen] @ (np.abs(np.log(mu[seen])) + 1) + mu.sum()))


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)
