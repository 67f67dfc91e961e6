"""Channel tests.  Analytic outputs are checked against a Monte-Carlo
phase-sampling oracle that applies explicit diagonal phase unitaries and
averages, independent of the characteristic-function implementation."""

import re
import warnings

import numpy as np
import pytest

from conftest import haar_state, random_density
from dfslink import dfs_protocol
from dfslink.channels import (
    CIRCULAR_BASIS,
    DephasingSpec,
    _basis_change,
    _check_basis,
    _damping_index,
    apply_phase_damping,
    collective_dephase,
    correlated_dephase,
    rotate_basis,
)
from dfslink.dfs_protocol import (
    ProtocolInput,
    baseline_direct,
    distribute,
    prepare_phi_minus,
    qpg_sift,
)
from dfslink.qmath import (
    KET_D,
    KET_H,
    KET_L,
    KET_R,
    DensityOperator,
    StateVector,
    fidelity_with_pure,
    tensor,
)

UNIFORM = DephasingSpec()


def mc_dephase(rho, photon_phases, n_qubits):
    """Oracle: average rho over sampled per-photon phases.

    ``photon_phases`` maps qubit index -> (n_samples,) array of phases.
    """
    n_samples = len(next(iter(photon_phases.values())))
    idx = np.arange(2**n_qubits)
    # u[k, i] = exp(i phi_k(i)), the phase sample k puts on basis ket i; the
    # average of u_k rho u_k^+ is rho * (u^T u^*) / n_samples entrywise.
    phase = sum(np.outer(phis, (idx >> (n_qubits - 1 - q)) & 1)
                for q, phis in photon_phases.items())
    u = np.exp(1j * phase)
    return rho.matrix * (u.T @ u.conj()) / n_samples


def encoded_bell_state():
    """(|H>|HV> - |V>|VH>)/sqrt(2) on (A, S, S'): the protected encoding."""
    amp = np.zeros(8, dtype=complex)
    amp[0b001] = 1 / np.sqrt(2)
    amp[0b110] = -1 / np.sqrt(2)
    return StateVector(amp)


def test_uniform_single_photon_fully_dephases():
    out = collective_dephase(KET_D.density(), {0}, UNIFORM)
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-14)


def test_uniform_leaves_encoded_state_invariant():
    rho = encoded_bell_state().density()
    out = collective_dephase(rho, (1, 2), UNIFORM)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_gaussian_single_photon_matches_mc_oracle(rng):
    sigma, mean = 0.7, 0.3
    spec = DephasingSpec(mean_phase=mean, per_photon_sigma=sigma,
                         distribution="gaussian")
    rho = prepare_phi_minus().density()
    out = collective_dephase(rho, {1}, spec)
    scale = np.exp(1j * mean) * np.exp(-sigma**2 / 2)
    assert abs(out.matrix[0, 3] - rho.matrix[0, 3] * np.conj(scale)) < 1e-12
    n = 100_000
    phis = {1: rng.normal(mean, sigma, size=n)}
    mc = mc_dephase(rho, phis, 2)
    se = 3.0 / np.sqrt(n)
    assert np.max(np.abs(mc - out.matrix)) < 3 * se


def test_collective_rejects_delta_sigma():
    with pytest.raises(ValueError):
        collective_dephase(KET_D.density(), {0}, DephasingSpec(delta_sigma=0.1))


def test_correlated_reduces_to_collective_at_zero_jitter(rng):
    psi = haar_state(8, rng)
    spec = DephasingSpec(per_photon_sigma=0.4, mean_phase=0.2,
                         distribution="gaussian")
    a = collective_dephase(psi.density(), {1, 2}, spec)
    b = correlated_dephase(psi.density(), (1, 2), spec)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12
    # In H/V both are rotate_basis, bit for bit, with or without jitter.
    assert np.array_equal(b.matrix, rotate_basis(spec, psi.density(), (1, 2)).matrix)
    jittered = DephasingSpec(per_photon_sigma=0.4, mean_phase=0.2, delta_sigma=0.9,
                             distribution="gaussian")
    assert np.array_equal(correlated_dephase(psi.density(), (2, 1), jittered).matrix,
                          rotate_basis(jittered, psi.density(), (2, 1)).matrix)


def test_correlated_large_jitter_kills_all_off_diagonals():
    spec = DephasingSpec(delta_sigma=1e3)
    rho = encoded_bell_state().density()
    out = correlated_dephase(rho, (1, 2), spec)
    # With a uniform common phase and huge jitter both photons dephase
    # independently: only matrix elements diagonal in both channel qubits
    # survive.
    n = 3
    idx = np.arange(8)
    for q in (1, 2):
        bit = (idx >> (n - 1 - q)) & 1
        mask = bit[:, None] != bit[None, :]
        assert np.max(np.abs(out.matrix[mask])) < 1e-12


def test_correlated_fidelity_closed_form_and_mc(rng):
    sigma_delta = 0.8
    spec = DephasingSpec(delta_sigma=sigma_delta)
    rho = encoded_bell_state().density()
    out = correlated_dephase(rho, (1, 2), spec)
    fid = fidelity_with_pure(out, encoded_bell_state())
    expected = 0.5 * (1.0 + np.exp(-(sigma_delta**2) / 2))
    assert abs(fid - expected) < 1e-12
    n = 100_000
    common = rng.uniform(0, 2 * np.pi, size=n)
    phis = {1: common + rng.normal(0, sigma_delta, size=n), 2: common}
    mc = mc_dephase(rho, phis, 3)
    mc_fid = float(
        np.real(
            encoded_bell_state().amplitudes.conj()
            @ mc
            @ encoded_bell_state().amplitudes
        )
    )
    assert abs(mc_fid - expected) < 3.0 / np.sqrt(n) * 3


def test_correlated_requires_pair():
    with pytest.raises(ValueError):
        correlated_dephase(KET_D.density(), (0,), DephasingSpec(delta_sigma=0.1))


def test_rotate_basis_jitter_photon_count(rng):
    # A lone jittered photon sees the common and jitter phases as one
    # gaussian of combined spread; three photons have no jitter convention.
    rho = haar_state(4, rng).density()
    spec = DephasingSpec(mean_phase=0.3, per_photon_sigma=0.5, delta_sigma=0.7,
                         distribution="gaussian")
    combined = DephasingSpec(mean_phase=0.3, per_photon_sigma=np.hypot(0.5, 0.7),
                             distribution="gaussian")
    out = rotate_basis(spec, rho, [1])
    ref = collective_dephase(rho, {1}, combined)
    assert np.max(np.abs(out.matrix - ref.matrix)) < 1e-12
    with pytest.raises(ValueError):
        rotate_basis(spec, haar_state(8, rng).density(), (0, 1, 2))


def test_jitter_rides_on_first_photon_listed(rng):
    # Swapping the pair moves the jitter to the other photon, which changes
    # the output; each order matches the oracle with the jitter on its first.
    spec = DephasingSpec(mean_phase=0.3, per_photon_sigma=0.5, delta_sigma=1.5,
                         distribution="gaussian")
    rho = StateVector(np.exp(1j * rng.uniform(0, 2 * np.pi, size=8)) / np.sqrt(8)).density()
    n = 40_000
    common = rng.normal(0.3, 0.5, size=n)
    jitter = rng.normal(0.0, 1.5, size=n)
    outs = []
    for first, second in ((0, 2), (2, 0)):
        out = correlated_dephase(rho, (first, second), spec)
        mc = mc_dephase(rho, {first: common + jitter, second: common}, 3)
        assert np.max(np.abs(mc - out.matrix)) < 5.0 / np.sqrt(n)
        outs.append(out.matrix)
    assert np.max(np.abs(outs[0] - outs[1])) > 0.05


def test_channel_photons_are_ordered_and_distinct(rng):
    # A set has no first photon to carry the jitter; without jitter it is fine.
    rho = haar_state(8, rng).density()
    jittered = DephasingSpec(delta_sigma=0.5)
    for photons in ({0, 2}, frozenset({0, 2})):
        with pytest.raises(ValueError, match="ordered"):
            rotate_basis(jittered, rho, photons)
        with pytest.raises(ValueError, match="ordered"):
            correlated_dephase(rho, photons, jittered)
        assert np.array_equal(rotate_basis(UNIFORM, rho, photons).matrix,
                              rotate_basis(UNIFORM, rho, (0, 2)).matrix)
    with pytest.raises(ValueError, match="distinct"):
        rotate_basis(UNIFORM, rho, (1, 1))
    # NumPy integers are indices too.
    assert np.array_equal(rotate_basis(jittered, rho, np.array([2, 0])).matrix,
                          rotate_basis(jittered, rho, (2, 0)).matrix)


def test_baseline_circular_jitter_matches_mc_oracle(rng):
    # In the circular basis the phases act on the L/R components of S:
    # rotate S into that basis, apply the sampled phases, rotate back.
    spec = DephasingSpec(basis=CIRCULAR_BASIS, mean_phase=0.4, per_photon_sigma=0.6,
                         delta_sigma=1.0, distribution="gaussian")
    rho = prepare_phi_minus().density()
    out = baseline_direct(ProtocolInput(rho, spec))
    w = np.kron(np.eye(2), CIRCULAR_BASIS.conj().T)
    n = 100_000
    phis = {1: rng.normal(0.4, 0.6, size=n) + rng.normal(0.0, 1.0, size=n)}
    rotated = DensityOperator(w @ rho.matrix @ w.conj().T)
    mc = w.conj().T @ mc_dephase(rotated, phis, 2) @ w
    # Each element's standard error is below 0.5 / sqrt(n); dropping the
    # jitter or flipping the mean phase moves some element by over 0.07.
    assert np.max(np.abs(mc - out.matrix)) < 5.0 / np.sqrt(n)


def test_rotate_basis_circular_diagonal_state_unchanged():
    spec = DephasingSpec(basis=CIRCULAR_BASIS)
    rho = KET_R.density()
    out = rotate_basis(spec, rho, {0})
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)


def test_rotate_basis_circular_dephases_h():
    # |H> = (|L> + |R>)/sqrt(2): uniform circular dephasing kills the LR
    # coherence, leaving (|L><L| + |R><R|)/2 = I/2.
    spec = DephasingSpec(basis=CIRCULAR_BASIS)
    out = rotate_basis(spec, KET_H.density(), {0})
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_rotate_basis_circular_dfs_invariance(rng):
    spec = DephasingSpec(basis=CIRCULAR_BASIS)
    lr = tensor(KET_L, KET_R).amplitudes
    rl = tensor(KET_R, KET_L).amplitudes
    for _ in range(10):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = c / np.linalg.norm(c)
        psi = StateVector(c[0] * lr + c[1] * rl)
        out = rotate_basis(spec, psi.density(), {0, 1})
        np.testing.assert_allclose(out.matrix, psi.density().matrix, atol=1e-12)


def test_rotate_basis_identity_basis_matches_plain_call(rng):
    psi = haar_state(4, rng)
    spec = DephasingSpec(per_photon_sigma=0.3, distribution="gaussian")
    a = rotate_basis(spec, psi.density(), {0, 1})
    b = collective_dephase(psi.density(), {0, 1}, spec)
    assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12
    assert np.array_equal(a.matrix, b.matrix)
    # Column phases leave the dephasing unchanged, but such a basis is not H/V,
    # so it takes the conjugation path; in H/V, apply_phase_damping is
    # rotate_basis bit for bit.
    phased = np.diag(np.exp([0.3j, -1.1j]))
    for n in range(1, 5):
        for delta in (0.0, 0.7):
            kw = dict(mean_phase=0.4, per_photon_sigma=0.3, delta_sigma=delta,
                      distribution="gaussian")
            hv, rotated = DephasingSpec(**kw), DephasingSpec(basis=phased, **kw)
            assert hv.is_computational() and not rotated.is_computational()
            rho = random_density(2**n, rng)
            photons = [n - 1, 0][:n] if delta else list(range(n))
            a = rotate_basis(hv, rho, photons)
            b = rotate_basis(rotated, rho, photons)
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-14
            assert apply_phase_damping(rho, photons, hv).matrix.tobytes() == a.matrix.tobytes()


@pytest.mark.parametrize(
    "spec",
    [
        DephasingSpec(),
        DephasingSpec(per_photon_sigma=0.5, distribution="gaussian"),
        DephasingSpec(delta_sigma=0.7),
        DephasingSpec(per_photon_sigma=0.2, delta_sigma=0.4,
                      mean_phase=0.1, distribution="gaussian"),
    ],
)
def test_two_photon_channel_is_cptp_and_unital(spec, rng):
    # The map multiplies element (a, b) by f(a, b); its Choi matrix is
    # sum_ab f(a,b) |a><b| (x) |a><b|, PSD iff f is PSD.
    def channel(rho):
        if spec.delta_sigma == 0.0:
            return collective_dephase(rho, {0, 1}, spec)
        return correlated_dephase(rho, (0, 1), spec)

    # Probe the elementwise multipliers with Hermitian two-element states.
    mult = np.ones((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            if a == b:
                continue
            m = np.zeros((4, 4), dtype=complex)
            m[a, a] = m[b, b] = 0.5
            m[a, b] = m[b, a] = 0.5
            out = channel(DensityOperator(m))
            mult[a, b] = out.matrix[a, b] / 0.5
    choi = np.zeros((16, 16), dtype=complex)
    for a in range(4):
        for b in range(4):
            e = np.zeros((4, 4), dtype=complex)
            e[a, b] = 1.0
            choi += mult[a, b] * np.kron(e, e)
    assert np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0] > -1e-10
    # Unital and trace preserving on random states.
    ident = DensityOperator(np.eye(4) / 4)
    np.testing.assert_allclose(channel(ident).matrix, np.eye(4) / 4, atol=1e-12)
    for _ in range(50):
        rho = haar_state(4, rng).density()
        out = channel(rho)
        assert abs(out.norm - 1.0) < 1e-10


def test_dfs_invariance_sweep(rng):
    # Any state supported on span{|b0 b1>, |b1 b0>} of the spec basis,
    # tensored with a spectator, survives every delta_sigma = 0 spec.
    specs = [
        DephasingSpec(),
        DephasingSpec(per_photon_sigma=1.3, distribution="gaussian"),
        DephasingSpec(basis=CIRCULAR_BASIS),
        DephasingSpec(basis=CIRCULAR_BASIS, per_photon_sigma=0.9,
                      distribution="gaussian", mean_phase=0.4),
    ]
    for spec in specs:
        b0, b1 = spec.basis[:, 0], spec.basis[:, 1]
        ket01 = np.kron(b0, b1)
        ket10 = np.kron(b1, b0)
        for _ in range(10):
            c = rng.normal(size=2) + 1j * rng.normal(size=2)
            c = c / np.linalg.norm(c)
            spect = haar_state(2, rng)
            psi = StateVector(np.kron(spect.amplitudes, c[0] * ket01 + c[1] * ket10))
            out = rotate_basis(spec, psi.density(), {1, 2})
            assert np.max(np.abs(out.matrix - psi.density().matrix)) < 1e-12


def test_fidelity_monotone_in_jitter():
    rho = encoded_bell_state().density()
    fids = []
    for sd in np.arange(0.0, 2.01, 0.2):
        out = correlated_dephase(rho, (1, 2), DephasingSpec(delta_sigma=sd))
        fids.append(fidelity_with_pure(out, encoded_bell_state()))
    assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))


@pytest.mark.parametrize("name", ["mean_phase", "per_photon_sigma", "delta_sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spec_rejects_non_finite(name, bad):
    with pytest.raises(ValueError, match=name):
        DephasingSpec(distribution="gaussian", **{name: bad})


@pytest.mark.parametrize("name", ["mean_phase", "per_photon_sigma", "delta_sigma"])
@pytest.mark.parametrize("bad", [1j, [0.3], np.array([0.1, 0.2]), "0.3", None],
                         ids=["complex", "list", "array", "str", "none"])
def test_spec_rejects_non_real(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be a finite real number"):
        DephasingSpec(distribution="gaussian", **{name: bad})


@pytest.mark.parametrize("value", [0, 0.3, np.float64(0.3), np.float32(0.3), np.int64(1)],
                         ids=["int", "float", "float64", "float32", "int64"])
def test_spec_accepts_python_and_numpy_reals(value):
    spec = DephasingSpec(mean_phase=value, per_photon_sigma=value, delta_sigma=value,
                         distribution="gaussian")
    assert spec.mean_phase is value


_EXTREME_SPECS = {
    "huge-mean-phase": dict(mean_phase=1e308),
    "huge-negative-mean-phase": dict(mean_phase=-1e308),
    "huge-sigma": dict(per_photon_sigma=1e200),
    "huge-delta": dict(delta_sigma=1e200),
    "all-at-float-max": dict(mean_phase=1.7e308, per_photon_sigma=1.7e308,
                             delta_sigma=1.7e308),
    "int-sigma-2-pow-40": dict(per_photon_sigma=2**40),
    "int-everything-1e300": dict(mean_phase=10**300, per_photon_sigma=10**300,
                                 delta_sigma=10**300),
}


@pytest.mark.parametrize("basis", [np.eye(2), CIRCULAR_BASIS], ids=["hv", "circular"])
@pytest.mark.parametrize("kw", list(_EXTREME_SPECS.values()), ids=list(_EXTREME_SPECS))
def test_extreme_specs_give_finite_states_without_warning(kw, basis):
    # Every stage output must pass the checks it is not put through.
    spec = DephasingSpec(basis=basis, distribution="gaussian", **kw)
    pin = ProtocolInput(prepare_phi_minus().density(), spec, keep_dbar_branch=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = [rotate_basis(spec, dfs_protocol._PROBE, (1, 2)), distribute(pin).state,
                baseline_direct(pin)]
    for out in outs:
        assert np.isfinite(out.matrix).all()
        DensityOperator(out.matrix)


def _difference_grid():
    """Every total difference -4..4 against every jitter difference -1..1."""
    m = np.repeat(np.arange(-4, 5)[:, None], 3, axis=1)
    return m, np.broadcast_to(np.arange(-1, 2), m.shape)


@pytest.mark.parametrize("kw", [dict(per_photon_sigma=1e200), dict(per_photon_sigma=2**40),
                                dict(per_photon_sigma=1e200, delta_sigma=1e200),
                                dict(per_photon_sigma=10**300, delta_sigma=2**62)],
                         ids=["float-sigma", "int-sigma", "both-float", "both-int"])
def test_huge_spreads_damp_every_coherence_to_zero(kw):
    m, m_jitter = _difference_grid()
    spec = DephasingSpec(mean_phase=0.4, distribution="gaussian", **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = spec.characteristic(m, m_jitter)
    jitter_free = "delta_sigma" not in kw
    expected = (m == 0) & ((m_jitter == 0) | jitter_free)
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("mean_phase", [-np.pi, -3.0, 0.0, 0.3, np.pi, np.pi + 0.5, -7.0,
                                        2.5e4, 1e300])
@pytest.mark.parametrize("sigma", [0.0, 0.7, 1.5, 40.0])
def test_characteristic_bits_of_ordinary_specs(mean_phase, sigma):
    # Neither the phase reduction nor the spread cap touches these.
    m, m_jitter = _difference_grid()
    spec = DephasingSpec(mean_phase=mean_phase, per_photon_sigma=sigma, delta_sigma=sigma,
                         distribution="gaussian")
    expected = (np.exp(1j * mean_phase * m - 0.5 * (sigma * m) ** 2)
                * np.exp(-0.5 * (sigma * m_jitter) ** 2))
    assert spec.characteristic(m, m_jitter).tobytes() == expected.tobytes()


def test_spec_rejects_an_int_beyond_the_float_range():
    with pytest.raises(ValueError, match="mean_phase must be finite"):
        DephasingSpec(mean_phase=10**400)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: DephasingSpec(basis=np.eye(3)), "2x2", id="3x3-basis"),
    pytest.param(lambda: DephasingSpec(basis=[[np.nan, 0], [0, 1]]), "finite",
                 id="nan-basis"),
    pytest.param(lambda: rotate_basis(UNIFORM, KET_D.density(), ()), "empty",
                 id="no-photons"),
    pytest.param(lambda: rotate_basis(UNIFORM, KET_D.density(), (1,)), "out of range",
                 id="photon-past-end"),
    pytest.param(lambda: rotate_basis(UNIFORM, KET_D.density(), (-1,)), "out of range",
                 id="negative-photon"),
    pytest.param(lambda: rotate_basis(UNIFORM, tensor(KET_D.density(), KET_D.density()),
                                      [1.9]), "must be integers", id="fractional-photon"),
    pytest.param(lambda: collective_dephase(KET_D.density(), (0,),
                                            DephasingSpec(basis=CIRCULAR_BASIS)),
                 "rotate_basis", id="collective-circular"),
    pytest.param(lambda: correlated_dephase(tensor(KET_D.density(), KET_D.density()),
                                            (0, 1), DephasingSpec(basis=CIRCULAR_BASIS)),
                 "rotate_basis", id="correlated-circular"),
    pytest.param(lambda: apply_phase_damping(KET_D.density(), (0,),
                                             DephasingSpec(basis=CIRCULAR_BASIS)),
                 "rotate_basis", id="apply-phase-damping-circular"),
    pytest.param(lambda: rotate_basis(UNIFORM, np.eye(4) / 4, [0]),
                 "state must be a DensityOperator", id="rotate-basis-ndarray-state"),
    pytest.param(lambda: rotate_basis(None, KET_D.density(), [0]),
                 "spec must be a DephasingSpec", id="rotate-basis-none-spec"),
    pytest.param(lambda: collective_dephase(np.eye(2) / 2, [0], UNIFORM),
                 "state must be a DensityOperator", id="collective-ndarray-state"),
    pytest.param(lambda: collective_dephase(KET_D.density(), [0], None),
                 "spec must be a DephasingSpec", id="collective-none-spec"),
    pytest.param(lambda: correlated_dephase(np.eye(4) / 4, (0, 1), UNIFORM),
                 "state must be a DensityOperator", id="correlated-ndarray-state"),
    pytest.param(lambda: correlated_dephase(tensor(KET_D.density(), KET_D.density()),
                                            (0, 1), None),
                 "spec must be a DephasingSpec", id="correlated-none-spec"),
    pytest.param(lambda: apply_phase_damping(np.eye(2) / 2, [0], UNIFORM),
                 "state must be a DensityOperator", id="apply-phase-damping-ndarray-state"),
    pytest.param(lambda: apply_phase_damping(KET_D.density(), [0], None),
                 "spec must be a DephasingSpec", id="apply-phase-damping-none-spec"),
    pytest.param(lambda: rotate_basis(None, KET_D.density(), [0]),
                 "^spec must be a DephasingSpec, got NoneType$", id="spec-kind-named"),
])
def test_channel_rejection_messages(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_spec_is_immutable():
    basis = CIRCULAR_BASIS.copy()
    spec = DephasingSpec(basis=basis)
    with pytest.raises(ValueError, match="read-only"):
        spec.basis[0, 0] = 5
    basis[0, 0] = 5
    assert np.array_equal(spec.basis, CIRCULAR_BASIS)


def test_gather_index_counts_photons_per_ket():
    # Against the bra |000>, entry (a, 0) reads the pair (how many of the
    # listed photons ket a has in state 1, the first photon's bit).
    index, (m, m_jitter) = _damping_index(3, (0, 2))
    assert not index.flags.writeable
    assert m[index[:, 0]].tolist() == [bin(i & 0b101).count("1") for i in range(8)]
    assert m_jitter[index[:, 0]].tolist() == [(i >> 2) & 1 for i in range(8)]


def test_cached_tables_are_read_only():
    w, w_inv = _basis_change(CIRCULAR_BASIS.tobytes(), 3, (2, 0))
    index, (m, m_jitter) = _damping_index(3, (2, 0))
    for table in (w, w_inv, m, m_jitter, index, dfs_protocol._sift_index(3, 1, 2)):
        assert not table.flags.writeable
    assert np.array_equal(w_inv, w.conj().T)
    # Entry (a, b) reads the table at the position of its pair: the
    # differences ket minus bra of all photons and of the first (photon 2).
    assert m[index].tolist() == [[bin(a & 0b101).count("1") - bin(b & 0b101).count("1")
                                  for b in range(8)] for a in range(8)]
    assert m_jitter[index].tolist() == [[(a & 1) - (b & 1) for b in range(8)]
                                        for a in range(8)]


def test_fresh_spec_with_known_basis_and_register_misses_no_cache(rng):
    # link_sweep builds new specs every op: the tables must be found by basis
    # value and register shape, not by spec object.
    caches = (_check_basis, _damping_index, _basis_change, dfs_protocol._sift_index)
    rho = random_density(8, rng)

    def fresh_spec():
        return DephasingSpec(basis=CIRCULAR_BASIS.copy(), mean_phase=0.3, per_photon_sigma=0.4,
                             delta_sigma=0.2, distribution="gaussian")

    def run(spec):
        sifted = qpg_sift(rotate_basis(spec, rho, (2, 0)), 2, 0)
        pin = ProtocolInput(prepare_phi_minus().density(), spec)
        return sifted, distribute(pin), baseline_direct(pin)

    first = run(fresh_spec())
    misses = [f.cache_info().misses for f in caches]
    second = run(fresh_spec())
    assert [f.cache_info().misses for f in caches] == misses
    assert first[0].matrix.tobytes() == second[0].matrix.tobytes()
    assert first[1].state.matrix.tobytes() == second[1].state.matrix.tobytes()
    assert first[2].matrix.tobytes() == second[2].matrix.tobytes()


@pytest.mark.parametrize("basis", [np.eye(2), CIRCULAR_BASIS], ids=["hv", "circular"])
@pytest.mark.parametrize("baseline_first", [False, True])
def test_fresh_spec_evaluates_its_characteristic_once(monkeypatch, basis, baseline_first):
    # The probe's pair and the baseline's single photon read one table.
    calls = []
    original = DephasingSpec.characteristic

    def counted(self, m, m_jitter):
        calls.append(self)
        return original(self, m, m_jitter)

    monkeypatch.setattr(DephasingSpec, "characteristic", counted)
    spec = DephasingSpec(basis=basis, mean_phase=0.3, per_photon_sigma=0.4, delta_sigma=0.2,
                         distribution="gaussian")
    pin = ProtocolInput(prepare_phi_minus().density(), spec)
    stages = [distribute, baseline_direct]
    for stage in stages[::-1] if baseline_first else stages:
        stage(pin)
    assert calls == [spec]


_SHAPE = re.escape("dephasing basis must be a finite 2x2 matrix of column states")


@pytest.mark.parametrize("basis, match", [
    ([[np.nan, 0], [0, 1]], _SHAPE),
    ([[1, 0], [0, np.inf]], _SHAPE),
    ([[1, 0], [0, 10**400]], _SHAPE),
    ([[1.0, 1.0], [0.0, 0.0]], re.escape("dephasing basis is not orthonormal within 1e-12")),
    (np.eye(3), _SHAPE),
    ("abc", _SHAPE),
], ids=["nan", "inf", "huge-int", "not-orthonormal", "3x3", "string"])
def test_basis_check_rejects_a_bad_basis_every_time(basis, match):
    # The basis checks are cached by value; a rejection must not be.
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            DephasingSpec(basis=basis)


def test_spec_basis_and_kind_ignore_later_changes_to_the_callers_array():
    for basis, computational in ((np.eye(2, dtype=complex), True),
                                 (CIRCULAR_BASIS.copy(), False)):
        before = basis.copy()
        spec = DephasingSpec(basis=basis)
        basis[...] = CIRCULAR_BASIS if computational else np.eye(2)
        assert np.array_equal(spec.basis, before)
        assert spec.is_computational() is computational


def test_basis_within_tolerance_of_identity_is_computational():
    near = np.diag([np.exp(4e-13j), 1.0])
    assert near.tobytes() != np.eye(2, dtype=complex).tobytes()
    assert DephasingSpec(basis=near).is_computational()
    assert not DephasingSpec(basis=np.diag([np.exp(2e-12j), 1.0])).is_computational()


def test_spec_validation():
    with pytest.raises(ValueError):
        DephasingSpec(per_photon_sigma=-1.0)
    with pytest.raises(ValueError):
        DephasingSpec(distribution="lorentzian")
    with pytest.raises(ValueError):
        DephasingSpec(basis=np.array([[1.0, 1.0], [0.0, 0.0]]))
