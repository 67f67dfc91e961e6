"""Property tests of the link's physical invariants over random channel specs.

The link's Choi matrix is read off the public pipeline: distributing |Phi+>
of (reference, S) with the Dbar branch kept returns J / (2 p_success).  The
Kronecker helper is checked against NumPy's ``kron``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import random_density
from dfslink.channels import CIRCULAR_BASIS, DephasingSpec
from dfslink.dfs_protocol import ProtocolInput, distribute
from dfslink.qmath import StateVector, kron

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
PHI_PLUS = StateVector([1.0, 0.0, 0.0, 1.0]).normalize().density()

angles = st.floats(-np.pi, np.pi)


def su2(theta, a, b):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[np.exp(1j * a) * c, -np.exp(-1j * b) * s],
                     [np.exp(1j * b) * s, np.exp(-1j * a) * c]])


bases = st.one_of(st.just(np.eye(2)), st.just(CIRCULAR_BASIS),
                  st.builds(su2, angles, angles, angles))
sigmas = st.floats(0.0, 3.0)
distributions = st.sampled_from(["uniform", "gaussian"])
specs = st.builds(DephasingSpec, basis=bases, mean_phase=angles, per_photon_sigma=sigmas,
                  delta_sigma=sigmas, distribution=distributions)
collective_hv_specs = st.builds(DephasingSpec, mean_phase=angles,
                                per_photon_sigma=sigmas, distribution=distributions)


def link_choi(spec):
    out = distribute(ProtocolInput(PHI_PLUS, spec, keep_dbar_branch=True))
    return 2.0 * out.success_probability * out.state.matrix


@PROPERTY
@given(specs)
def test_link_is_completely_positive(spec):
    assert np.linalg.eigvalsh(link_choi(spec))[0] > -1e-12


@PROPERTY
@given(specs)
def test_link_does_not_increase_trace(spec):
    # Tr_Y J <= I on S, i.e. no input state is kept with probability above 1.
    marginal = np.trace(link_choi(spec).reshape(2, 2, 2, 2), axis1=1, axis2=3)
    assert np.linalg.eigvalsh(np.eye(2) - marginal)[0] > -1e-12


@PROPERTY
@given(collective_hv_specs, st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.booleans())
def test_collective_noise_output_is_state_independent(spec, n, seed, keep):
    # Every input comes back unchanged with the same success probability.
    rng = np.random.default_rng(seed)
    rho = random_density(2**n, rng, rank=int(rng.integers(1, 2**n + 1)))
    out = distribute(ProtocolInput(rho, spec, keep_dbar_branch=keep))
    assert np.max(np.abs(out.state.matrix - rho.matrix)) < 1e-12
    assert abs(out.success_probability - (0.5 if keep else 0.25)) < 1e-12


entries = st.complex_numbers(max_magnitude=1e100, allow_nan=False, allow_infinity=False)


@PROPERTY
@given(st.data(), st.integers(1, 2))
def test_kron_matches_numpy(data, ndim):
    shapes = array_shapes(min_dims=ndim, max_dims=ndim, min_side=1, max_side=4)
    a = data.draw(arrays(complex, shapes, elements=entries))
    b = data.draw(arrays(complex, shapes, elements=entries))
    out = kron(a, b)
    expected = np.kron(a, b)
    assert out.shape == expected.shape
    assert np.array_equal(out, expected)
