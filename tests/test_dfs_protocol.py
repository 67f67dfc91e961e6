import dataclasses
import gc
import weakref

import numpy as np
import pytest

from conftest import haar_state, haar_unitary, random_density
from dfslink.channels import CIRCULAR_BASIS, DephasingSpec, rotate_basis
from dfslink.dfs_protocol import (
    _ANCILLA,
    ProtocolInput,
    ProtocolOutcome,
    baseline_direct,
    decode,
    distribute,
    encode_append,
    prepare_phi_minus,
    qpg_sift,
)
from dfslink.qmath import (
    KET_D,
    KET_DBAR,
    KET_H,
    KET_V,
    DensityOperator,
    StateVector,
    fidelity_with_pure,
    partial_trace,
    tensor,
)

UNIFORM = DephasingSpec()


def test_prepare_phi_minus_amplitudes():
    phi = prepare_phi_minus()
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(phi.amplitudes, [s, 0, 0, -s], atol=1e-15)
    assert abs(fidelity_with_pure(phi.density(), phi) - 1.0) < 1e-12
    for q in (0, 1):
        np.testing.assert_allclose(
            partial_trace(phi.density(), {q}).matrix, np.eye(2) / 2, atol=1e-14
        )


def test_prepare_phi_minus_chsh():
    from dfslink.analysis import chsh_value

    assert abs(chsh_value(prepare_phi_minus().density()) - 2 * np.sqrt(2)) < 1e-10


def test_ancilla():
    # The appended ancilla is the diagonal state |D><D|.
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(_ANCILLA.matrix, np.outer([s, s], [s, s]), atol=1e-15)
    assert abs(np.vdot(KET_DBAR.amplitudes, _ANCILLA.matrix @ KET_DBAR.amplitudes)) < 1e-15
    from dfslink.channels import collective_dephase

    out = collective_dephase(_ANCILLA, {0}, UNIFORM)
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-14)


def test_encode_append_marginals():
    inp = ProtocolInput(prepare_phi_minus().density(), UNIFORM)
    enc = encode_append(inp.state)
    assert abs(enc.norm - 1.0) < 1e-12
    np.testing.assert_allclose(
        partial_trace(enc, {2}).matrix, KET_D.density().matrix, atol=1e-14
    )
    np.testing.assert_allclose(
        partial_trace(enc, {0, 1}).matrix, inp.state.matrix, atol=1e-14
    )


def expected_sift_of_encoded_phi_minus():
    # Amplitude expansion oracle: phi- (x) D has amplitudes
    # (|H HD> - |V VD>)/sqrt(2); keeping |HV>_SS' and |VH>_SS' leaves
    # (|H,HV> - |V,VH>)/2, which relabels to (|HH> - |VV>)/2 on (A, Y).
    amp = np.zeros(4, dtype=complex)
    amp[0] = 0.5
    amp[3] = -0.5
    return amp


def test_qpg_sift_on_encoded_bell_pair():
    enc = encode_append(prepare_phi_minus().density())
    cond = qpg_sift(enc, 1, 2)
    assert abs(cond.norm - 0.5) < 1e-12
    expected = np.outer(
        expected_sift_of_encoded_phi_minus(),
        expected_sift_of_encoded_phi_minus().conj(),
    )
    np.testing.assert_allclose(cond.matrix, expected, atol=1e-12)
    assert abs(fidelity_with_pure(cond.normalized(), prepare_phi_minus()) - 1.0) < 1e-12


def test_qpg_sift_outside_dfs():
    rho = tensor(KET_H.density(), KET_H.density())
    assert qpg_sift(rho, 0, 1).norm < 1e-14


def test_qpg_sift_maximally_mixed():
    rho = DensityOperator(np.eye(4) / 4)
    cond = qpg_sift(rho, 0, 1)
    assert abs(cond.norm - 0.5) < 1e-12
    np.testing.assert_allclose(cond.normalized().matrix, np.eye(2) / 2, atol=1e-12)


def sift_isometry_oracle(n, s_index, sprime_index):
    # Bit-by-bit construction: input ket i survives when (b_s, b_s') is
    # (0, 1) or (1, 0), and maps to the ket with b_s' deleted.
    iso = np.zeros((2 ** (n - 1), 2**n), dtype=complex)
    for i in range(2**n):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        if (bits[s_index], bits[sprime_index]) not in ((0, 1), (1, 0)):
            continue
        del bits[sprime_index]
        j = 0
        for b in bits:
            j = (j << 1) | b
        iso[j, i] = 1.0
    return iso


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_qpg_sift_matches_isometry_oracle_for_every_ordered_pair(n, rng):
    # s' < s as well as s < s': the kept kets must come out in output order.
    rho = random_density(2**n, rng)
    for s in range(n):
        for sprime in range(n):
            if s == sprime:
                continue
            iso = sift_isometry_oracle(n, s, sprime)
            expected = iso @ rho.matrix @ iso.conj().T
            cond = qpg_sift(rho, s, sprime)
            np.testing.assert_allclose(cond.matrix, expected, rtol=0, atol=1e-15)
            assert abs(cond.norm - np.trace(expected).real) < 1e-15


def test_qpg_sift_bad_indices():
    rho = DensityOperator(np.eye(4) / 4)
    with pytest.raises(ValueError):
        qpg_sift(rho, 1, 1)
    with pytest.raises(ValueError):
        qpg_sift(rho, 0, 2)
    for index in (1.0, np.float64(1)):
        with pytest.raises(ValueError, match="indices must be integers"):
            qpg_sift(rho, index, 0)


@pytest.mark.parametrize("args, match", [
    pytest.param((DensityOperator(np.eye(2) / 4),), "normalized", id="state0-normalized"),
    pytest.param((DensityOperator(np.ones((1, 1))),), "channel qubit",
                 id="state1-channel qubit"),
    pytest.param((np.eye(2) / 2,), "must be a DensityOperator", id="ndarray-state"),
    pytest.param((KET_D.density(), None), "must be a DephasingSpec", id="none-spec"),
    pytest.param((KET_D.density(), UNIFORM, "no"), "keep_dbar_branch must be a bool",
                 id="string-keep-dbar"),
    pytest.param((KET_D.density(), UNIFORM, 1), "keep_dbar_branch must be a bool",
                 id="int-keep-dbar"),
    pytest.param((KET_D.density(), None), "^channel_spec must be a DephasingSpec, got NoneType$",
                 id="spec-kind-named"),
    pytest.param((KET_D.density(), UNIFORM, "no"), "^keep_dbar_branch must be a bool, got str$",
                 id="keep-dbar-kind-named"),
])
def test_protocol_input_rejection_messages(args, match):
    with pytest.raises(ValueError, match=match):
        ProtocolInput(*args)


def test_protocol_outcome_success_is_its_kept_branches():
    assert [f.name for f in dataclasses.fields(ProtocolOutcome)] == [
        "state", "branch_probabilities"]
    state = prepare_phi_minus().density()
    discarded = ProtocolOutcome(state, {"D": 0.25, "Dbar_discarded": 0.25, "sift_fail": 0.5})
    corrected = ProtocolOutcome(state, {"D": 0.25, "Dbar_corrected": 0.25, "sift_fail": 0.5})
    assert discarded.success_probability == 0.25
    assert corrected.success_probability == 0.5


@pytest.mark.parametrize("keep", [True, np.True_])
def test_protocol_input_keeps_dbar_for_python_and_numpy_bools(keep):
    out = distribute(ProtocolInput(KET_D.density(), UNIFORM, keep))
    assert abs(out.branch_probabilities["Dbar_corrected"] - 0.25) < 1e-12


@pytest.mark.parametrize("keep", ["no", 1, None])
def test_decode_rejects_non_bool_keep_dbar(keep):
    with pytest.raises(ValueError, match="keep_dbar must be a bool"):
        decode(DensityOperator(np.eye(2) / 2), keep_dbar=keep)


def test_decode_names_the_kind_of_a_non_bool_keep_dbar():
    with pytest.raises(ValueError, match="^keep_dbar must be a bool, got NoneType$"):
        decode(DensityOperator(np.eye(2) / 2), keep_dbar=None)


@pytest.mark.parametrize("stage", [
    pytest.param(encode_append, id="encode_append"),
    pytest.param(lambda rho: qpg_sift(rho, 0, 1), id="qpg_sift"),
    pytest.param(decode, id="decode"),
])
def test_stages_reject_a_state_that_is_no_density_operator(stage):
    with pytest.raises(ValueError, match="state must be a DensityOperator"):
        stage(np.eye(4) / 4)


@pytest.mark.parametrize("entry", [distribute, baseline_direct])
@pytest.mark.parametrize("inp, kind", [
    pytest.param(None, "NoneType", id="none"),
    pytest.param(KET_D.density(), "DensityOperator", id="bare-state"),
])
def test_link_entry_points_reject_what_is_no_protocol_input(entry, inp, kind):
    with pytest.raises(ValueError,
                       match=f"protocol input must be a ProtocolInput, got {kind}"):
        entry(inp)


@pytest.mark.parametrize("keep", [False, True])
def test_decode_of_zero_state(keep):
    out = decode(DensityOperator(np.zeros((4, 4))), keep_dbar=keep)
    assert out.success_probability == 0.0
    assert not out.state.matrix.any()


def test_decode_d_branch():
    rho = prepare_phi_minus().density()
    out = decode(rho, keep_dbar=False)
    assert abs(out.branch_probabilities["D"] - 0.5) < 1e-12
    assert abs(out.success_probability - 0.5) < 1e-12
    assert abs(fidelity_with_pure(out.state, prepare_phi_minus()) - 1.0) < 1e-12


@pytest.mark.parametrize("keep", [False, True])
def test_decode_records_sift_failure(keep):
    rho = DensityOperator(0.3 * prepare_phi_minus().density().matrix)
    out = decode(rho, keep_dbar=keep)
    assert out.branch_probabilities["sift_fail"] == 1.0 - rho.norm
    assert abs(sum(out.branch_probabilities.values()) - 1.0) < 1e-12


def test_decode_dbar_correction_identity():
    # Z on the second qubit maps phi+ to phi-: the correction branch lands on
    # the same state as the D branch.
    s = 1 / np.sqrt(2)
    phi_plus = StateVector([s, 0, 0, s])
    z2 = np.kron(np.eye(2), np.diag([1.0, -1.0]))
    np.testing.assert_allclose(
        z2 @ phi_plus.amplitudes, prepare_phi_minus().amplitudes, atol=1e-15
    )
    out = decode(prepare_phi_minus().density(), keep_dbar=True)
    assert abs(fidelity_with_pure(out.state, prepare_phi_minus()) - 1.0) < 1e-12


def test_decode_keep_dbar_doubles_success():
    rho = prepare_phi_minus().density()
    without = decode(rho, keep_dbar=False)
    with_corr = decode(rho, keep_dbar=True)
    assert abs(with_corr.success_probability - 2 * without.success_probability) < 1e-12
    np.testing.assert_allclose(
        with_corr.state.matrix, without.state.matrix, atol=1e-12
    )


def test_distribute_ideal():
    out = distribute(ProtocolInput(prepare_phi_minus().density(), UNIFORM))
    assert abs(fidelity_with_pure(out.state, prepare_phi_minus()) - 1.0) < 1e-10
    assert abs(out.success_probability - 0.25) < 1e-10
    total = sum(out.branch_probabilities.values())
    assert abs(total - 1.0) < 1e-10


def test_distribute_with_jitter_closed_form():
    spec = DephasingSpec(delta_sigma=0.5)
    out = distribute(ProtocolInput(prepare_phi_minus().density(), spec))
    expected = 0.5 * (1.0 + np.exp(-0.125))
    assert abs(fidelity_with_pure(out.state, prepare_phi_minus()) - expected) < 1e-10


def test_distribute_single_qubit_inputs(rng):
    # No spectator: the channel qubit alone, arbitrary polarization.
    for _ in range(20):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = c / np.linalg.norm(c)
        psi = StateVector(c)
        out = distribute(ProtocolInput(psi.density(), UNIFORM))
        assert abs(fidelity_with_pure(out.state, psi) - 1.0) < 1e-10


def test_state_independence_sweep(rng):
    for _ in range(100):
        psi = haar_state(4, rng)
        for keep, target in ((False, 0.25), (True, 0.5)):
            out = distribute(
                ProtocolInput(psi.density(), UNIFORM, keep_dbar_branch=keep)
            )
            assert abs(fidelity_with_pure(out.state, psi) - 1.0) < 1e-10
            assert abs(out.success_probability - target) < 1e-10


def test_entanglement_preserved(rng):
    from dfslink.analysis import entanglement_of_formation

    specs = [
        UNIFORM,
        DephasingSpec(per_photon_sigma=0.9, distribution="gaussian"),
    ]
    for _ in range(10):
        psi = haar_state(4, rng)
        e_in = entanglement_of_formation(psi.density())
        for spec in specs:
            out = distribute(ProtocolInput(psi.density(), spec))
            e_out = entanglement_of_formation(out.state)
            assert abs(e_in - e_out) < 1e-8


def test_branch_probability_bookkeeping(rng):
    for _ in range(20):
        psi = haar_state(4, rng)
        spec = DephasingSpec(delta_sigma=rng.uniform(0, 1))
        out = distribute(ProtocolInput(psi.density(), spec))
        assert abs(sum(out.branch_probabilities.values()) - 1.0) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("basis", ["hv", "circular", "random"])
@pytest.mark.parametrize("delta_sigma", [0.0, 0.7])
@pytest.mark.parametrize("keep", [False, True])
def test_distribute_matches_stage_composition(n, basis, delta_sigma, keep, rng):
    # The stages run on the whole register are the reference for the link
    # map that distribute derives from them and applies to S alone.
    b = {"hv": np.eye(2), "circular": CIRCULAR_BASIS,
         "random": haar_unitary(2, rng)}[basis]
    spec = DephasingSpec(basis=b, mean_phase=0.3, per_photon_sigma=0.8,
                         delta_sigma=delta_sigma, distribution="gaussian")
    for rank in (1, 2**n):
        inp = ProtocolInput(random_density(2**n, rng, rank), spec, keep)
        sifted = qpg_sift(rotate_basis(spec, encode_append(inp.state), (n - 1, n)),
                          n - 1, n)
        ref = decode(sifted, keep)
        out = distribute(inp)
        assert np.max(np.abs(out.state.matrix - ref.state.matrix)) < 1e-12
        assert abs(out.success_probability - ref.success_probability) < 1e-12
        branches = dict(ref.branch_probabilities, sift_fail=1.0 - sifted.norm)
        assert out.branch_probabilities.keys() == branches.keys()
        for name, prob in branches.items():
            assert abs(out.branch_probabilities[name] - prob) < 1e-12
        assert abs(sum(out.branch_probabilities.values()) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("basis", ["hv", "circular", "random"])
@pytest.mark.parametrize("delta_sigma", [0.0, 0.7])
@pytest.mark.parametrize("keep", [False, True])
def test_distribute_warm_cache_matches_cold(n, basis, delta_sigma, keep, rng):
    # Two specs with equal parameters are two cache keys: one is warmed on
    # another input first, the other is seen for the first time.
    b = {"hv": np.eye(2), "circular": CIRCULAR_BASIS,
         "random": haar_unitary(2, rng)}[basis]
    warm, cold = (DephasingSpec(basis=b, mean_phase=0.3, per_photon_sigma=0.8,
                                delta_sigma=delta_sigma, distribution="gaussian")
                  for _ in range(2))
    distribute(ProtocolInput(random_density(2**n, rng), warm, keep))
    assert "choi" in warm._memo and "choi" not in cold._memo
    state = random_density(2**n, rng, 1)
    hit = distribute(ProtocolInput(state, warm, keep))
    miss = distribute(ProtocolInput(state, cold, keep))
    assert np.array_equal(hit.state.matrix, miss.state.matrix)
    assert hit.success_probability == miss.success_probability
    assert hit.branch_probabilities == miss.branch_probabilities


def test_cached_choi_is_read_only():
    spec = DephasingSpec(mean_phase=0.2, per_photon_sigma=0.5, distribution="gaussian")
    distribute(ProtocolInput(prepare_phi_minus().density(), spec))
    choi = spec._memo["choi"]
    assert choi.shape == (2, 2, 2, 2)
    with pytest.raises(ValueError, match="read-only"):
        choi[0, 0, 0, 0] = 0.0


def test_cache_entry_lives_as_long_as_its_spec():
    spec = DephasingSpec(delta_sigma=0.3)
    distribute(ProtocolInput(prepare_phi_minus().density(), spec))
    spec_ref = weakref.ref(spec)
    choi_ref = weakref.ref(spec._memo["choi"])
    del spec
    gc.collect()
    assert spec_ref() is None
    assert choi_ref() is None


@pytest.mark.parametrize("keep, success", [(False, 0.25), (True, 0.5)])
def test_distribute_ghz_with_spectators_unchanged(keep, success):
    # Six spectators and S in a GHZ state: any register size passes through
    # uniform collective noise unchanged.
    amp = np.zeros(2**7, dtype=complex)
    amp[0] = amp[-1] = 1 / np.sqrt(2)
    ghz = StateVector(amp).density()
    out = distribute(ProtocolInput(ghz, UNIFORM, keep_dbar_branch=keep))
    assert np.max(np.abs(out.state.matrix - ghz.matrix)) < 1e-12
    assert abs(out.success_probability - success) < 1e-12


def test_distribute_commutes_with_spectator_unitaries(rng):
    for _ in range(10):
        psi = haar_state(4, rng)
        u = haar_unitary(2, rng)
        u_full = np.kron(u, np.eye(2))
        rotated_in = DensityOperator(u_full @ psi.density().matrix @ u_full.conj().T)
        lhs = distribute(ProtocolInput(rotated_in, UNIFORM)).state.matrix
        base = distribute(ProtocolInput(psi.density(), UNIFORM)).state.matrix
        rhs = u_full @ base @ u_full.conj().T
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_baseline_uniform_kills_coherence():
    inp = ProtocolInput(prepare_phi_minus().density(), UNIFORM)
    out = baseline_direct(inp)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(out.matrix, expected, atol=1e-12)
    assert abs(fidelity_with_pure(out, prepare_phi_minus()) - 0.5) < 1e-12


def test_baseline_zero_sigma_gaussian_is_identity():
    spec = DephasingSpec(per_photon_sigma=0.0, distribution="gaussian")
    inp = ProtocolInput(prepare_phi_minus().density(), spec)
    out = baseline_direct(inp)
    np.testing.assert_allclose(out.matrix, inp.state.matrix, atol=1e-12)


def test_baseline_preserves_trace():
    spec = DephasingSpec(per_photon_sigma=0.5, delta_sigma=0.3,
                         distribution="gaussian")
    out = baseline_direct(ProtocolInput(prepare_phi_minus().density(), spec))
    assert abs(out.norm - 1.0) < 1e-12
