"""Property tests of the link's physical invariants over random channel specs.

The link's Choi matrix is read off the public pipeline: distributing |Phi+>
of (reference, S) with the Dbar branch kept returns J / (2 p_success).
``rotate_basis`` and ``qpg_sift`` read cached index tables and basis changes,
and ``rotate_basis`` gathers its damping from a per-spec table of
characteristic values; they are checked bit for bit against references that
rebuild everything per call.  The states that the stage maps return
unchecked are put through the checks they skip.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from dfslink.channels import CIRCULAR_BASIS, DephasingSpec, _basis_change, _damping, rotate_basis
from dfslink import dfs_protocol
from dfslink.dfs_protocol import ProtocolInput, baseline_direct, distribute, qpg_sift
from dfslink.qmath import DensityOperator, StateVector, partial_trace, tensor

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)
PHI_PLUS = StateVector([1.0, 0.0, 0.0, 1.0]).normalize().density()

angles = st.floats(-np.pi, np.pi)


def su2(theta, a, b):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[np.exp(1j * a) * c, -np.exp(-1j * b) * s],
                     [np.exp(1j * b) * s, np.exp(-1j * a) * c]])


def phased(a, b):
    return np.diag(np.exp(1j * np.array([a, b])))


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


def reference_differences(n, photons):
    """The excitation differences ket minus bra, built in place from
    occupation counts: of all ``photons``, and of the first one."""
    kets = np.arange(2**n)
    k = sum((kets >> (n - 1 - p)) & 1 for p in photons)
    k1 = (kets >> (n - 1 - photons[0])) & 1
    return k[:, None] - k, k1[:, None] - k1


def reference_rotate_basis(spec, rho, photons):
    """The dephasing kernel with every table built in place: difference
    grids and the Kronecker chain of the basis change."""
    n = rho.num_qubits
    damping = spec.characteristic(*reference_differences(n, photons))
    if spec.is_computational():
        return rho.matrix * damping
    w = np.array([[1.0]], dtype=complex)
    for q in range(n):
        w = np.kron(w, spec.basis.conj().T if q in photons else np.eye(2, dtype=complex))
    return w.conj().T @ ((w @ rho.matrix @ w.conj().T) * damping) @ w


def reference_sift(rho, s, sprime):
    """qpg_sift by its definition: output ket j reads the input ket with j's
    bits and, at S', the opposite of S's bit."""
    n = rho.num_qubits
    keep = []
    for j in range(2 ** (n - 1)):
        bits = [(j >> (n - 2 - q)) & 1 for q in range(n - 1)]
        bits.insert(sprime, 1 - bits[s - (sprime < s)])
        keep.append(int("".join(map(str, bits)), 2))
    cond = rho.matrix[np.ix_(keep, keep)]
    return 0.5 * (cond + cond.conj().T)


def random_basis(kind, rng):
    a = rng.uniform(-np.pi, np.pi, 3)
    return {"hv": np.eye(2), "circular": CIRCULAR_BASIS, "su2": su2(*a),
            "phased": phased(*a[:2])}[kind]


@pytest.mark.parametrize("kind", ["hv", "circular", "su2", "phased"])
@pytest.mark.parametrize("n", range(1, 6))
def test_rotate_basis_and_sift_match_per_call_reference(n, kind):
    rng = np.random.default_rng([n, ["hv", "circular", "su2", "phased"].index(kind)])
    for delta, distribution in itertools.product((0.0, 0.8), ("uniform", "gaussian")):
        for _ in range(3):
            rho = random_density(2**n, rng, rank=int(rng.integers(1, 2**n + 1)))
            order = [int(q) for q in rng.permutation(n)]
            photons = order[:int(rng.integers(1, (min(n, 2) if delta else n) + 1))]
            # The spec's basis and then another rotated one at the same
            # register shape: a cache that ignored the basis values would
            # hand the second the first's basis change.
            bases = (random_basis(kind, rng), random_basis("su2", rng))
            for basis, ordered in itertools.product(bases, (photons, photons[::-1])):
                spec = DephasingSpec(basis=basis, mean_phase=rng.uniform(-np.pi, np.pi),
                                     per_photon_sigma=rng.uniform(0.0, 2.0),
                                     delta_sigma=delta, distribution=distribution)
                out = rotate_basis(spec, rho, ordered)
                expected = reference_rotate_basis(spec, rho, ordered)
                assert out.matrix.tobytes() == expected.tobytes()
                for s, sprime in (order[-2:], order[-2:][::-1]) if n > 1 else ():
                    sifted = qpg_sift(out, s, sprime)
                    assert sifted.matrix.tobytes() == reference_sift(out, s, sprime).tobytes()


huge_phases = st.one_of(st.floats(1e300, 1.7e308), st.floats(-1.7e308, -1e300))
damping_specs = st.builds(
    DephasingSpec, basis=st.one_of(bases, st.builds(phased, angles, angles)),
    mean_phase=st.one_of(angles, huge_phases),
    per_photon_sigma=st.one_of(sigmas, st.just(1e200)),
    delta_sigma=st.one_of(st.just(0.0), sigmas, st.just(1e200)), distribution=distributions)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(spec=damping_specs, n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_gathered_damping_is_the_grid_formula(spec, n, seed):
    # Calls with 1, then 2, then 3 channel photons: the spec's table is made
    # for 2 and grows for 3.  Jitter allows at most 2.
    rng = np.random.default_rng(seed)
    rho = random_density(2**n, rng)
    order = tuple(int(q) for q in rng.permutation(n))
    most = min(n, 2 if spec.delta_sigma else 3)
    for k in range(1, most + 1):
        ordered = order[:k]
        grid = spec.characteristic(*reference_differences(n, ordered))
        assert _damping(spec, n, ordered).tobytes() == grid.tobytes()
        if spec.is_computational():
            expected = rho.matrix * grid
        else:
            w, w_inv = _basis_change(spec.basis.tobytes(), n, ordered)
            expected = w_inv @ ((w @ rho.matrix @ w_inv) * grid) @ w
        assert rotate_basis(spec, rho, ordered).matrix.tobytes() == expected.tobytes()
    assert spec._memo["table"].size == 6 * max(2, most) + 3


def assert_passes_skipped_checks(out, trace_bound):
    """``out`` is read-only, meets every check of the constructor and has a
    trace of at most ``trace_bound``, that of the map's input."""
    m = out.matrix
    assert not m.flags.writeable
    assert np.isfinite(m).all()
    assert np.abs(m - m.conj().T).max() < 1e-12
    tr = m.trace()
    assert abs(tr.imag) < 1e-12 and 0.0 <= tr.real <= 1.0 + 1e-9
    assert tr.real <= trace_bound + 1e-12
    assert np.linalg.eigvalsh(m)[0] >= -1e-10
    checked = DensityOperator(m)
    assert checked.norm == out.norm
    assert np.array_equal(checked.matrix, m)


jitters = st.one_of(st.just(0.0), st.floats(0.01, 3.0))
jitter_specs = st.builds(DephasingSpec, basis=bases, mean_phase=angles,
                         per_photon_sigma=sigmas, delta_sigma=jitters,
                         distribution=distributions)


@pytest.mark.parametrize("n", range(1, 6))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(spec=jitter_specs, seed=st.integers(0, 2**32 - 1), keep=st.booleans())
def test_unchecked_stage_outputs_pass_the_checks_they_skip(n, spec, seed, keep):
    rng = np.random.default_rng(seed)
    rho = random_density(2**n, rng, rank=int(rng.integers(1, 2**n + 1)))
    order = [int(q) for q in rng.permutation(n)]
    photons = order[:int(rng.integers(1, (min(n, 2) if spec.delta_sigma else n) + 1))]
    dephased = rotate_basis(spec, rho, photons)
    probe = rotate_basis(spec, dfs_protocol._PROBE, (1, 2))
    ancilla = random_density(2, rng, rank=int(rng.integers(1, 3)))
    outs = [(dephased, rho.norm), (probe, dfs_protocol._PROBE.norm),
            (qpg_sift(probe, 1, 2), probe.norm),
            (baseline_direct(ProtocolInput(rho, spec, keep_dbar_branch=keep)), rho.norm),
            (tensor(dephased, ancilla), dephased.norm * ancilla.norm),
            (partial_trace(dephased, order[:int(rng.integers(1, n + 1))]), dephased.norm)]
    if n > 1:
        outs.append((qpg_sift(dephased, *order[-2:]), dephased.norm))
    for out, trace_bound in outs:
        assert_passes_skipped_checks(out, trace_bound)
