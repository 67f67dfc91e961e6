import importlib
import re

import numpy as np
import pytest

from conftest import haar_state, haar_unitary
from dfslink.qmath import (
    KET_D,
    KET_DBAR,
    KET_H,
    KET_V,
    DensityOperator,
    PAULI_Z,
    StateVector,
    eig_hermitian,
    fidelity_with_pure,
    partial_trace,
    projector,
    tensor,
    trace_distance,
)
from dfslink.dfs_protocol import prepare_phi_minus


def test_tensor_basis_bookkeeping():
    hv = tensor(KET_H, KET_V)
    np.testing.assert_allclose(hv.amplitudes, [0, 1, 0, 0], atol=1e-15)


def test_tensor_kind_mismatch():
    with pytest.raises(TypeError):
        tensor(KET_H, KET_V.density())


def test_tensor_associative():
    # Oracle: direct matrix comparison of both association orders.
    a = KET_H.density()
    b = KET_V.density()
    c = DensityOperator(projector(KET_D))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    np.testing.assert_allclose(left.matrix, right.matrix, atol=0)


def test_partial_trace_bell_marginal():
    rho = prepare_phi_minus().density()
    red = partial_trace(rho, {0})
    np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_state():
    rho = tensor(KET_H.density(), KET_H.density())
    red = partial_trace(rho, {1})
    np.testing.assert_allclose(red.matrix, KET_H.density().matrix, atol=1e-14)


def test_partial_trace_preserves_trace(rng):
    psi = haar_state(8, rng)
    red = partial_trace(psi.density(), {0, 2})
    assert abs(np.trace(red.matrix) - 1.0) < 1e-12


def test_partial_trace_recovers_factors(rng):
    for _ in range(20):
        pa = haar_state(2, rng).density()
        pb = haar_state(2, rng).density()
        pc = haar_state(2, rng).density()
        prod = tensor(tensor(pa, pb), pc)
        np.testing.assert_allclose(partial_trace(prod, {0}).matrix, pa.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(prod, {1}).matrix, pb.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(prod, {2}).matrix, pc.matrix, atol=1e-12)


def test_partial_trace_index_out_of_range():
    with pytest.raises(ValueError):
        partial_trace(prepare_phi_minus().density(), {5})
    with pytest.raises(ValueError, match="indices must be integers"):
        partial_trace(prepare_phi_minus().density(), [1.9])


def test_fidelity_examples():
    phi = prepare_phi_minus()
    assert abs(fidelity_with_pure(phi.density(), phi) - 1.0) < 1e-12
    mixed = DensityOperator(
        0.5 * tensor(KET_H.density(), KET_H.density()).matrix
        + 0.5 * tensor(KET_V.density(), KET_V.density()).matrix
    )
    # 2x2 analytic expansion: <phi|rho|phi> = (1/2)(1/2) + (1/2)(1/2) = 1/2.
    assert abs(fidelity_with_pure(mixed, phi) - 0.5) < 1e-12
    assert abs(fidelity_with_pure(DensityOperator(np.eye(4) / 4), phi) - 0.25) < 1e-12


def test_fidelity_rejects_a_complex_value():
    # Anti-Hermitian by 0.9e-12, within the state check's 1e-12, but
    # <++|rho|++> has imaginary part 3 x 0.45e-12 = 1.35e-12.
    rho = DensityOperator(np.eye(4) / 4 + 0.45e-12j * (np.ones((4, 4)) - np.eye(4)))
    message = "fidelity came out complex: (0.2499999999999999+1.3499999999999995e-12j)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fidelity_with_pure(rho, tensor(KET_D, KET_D))


def test_fidelity_dim_mismatch():
    with pytest.raises(ValueError):
        fidelity_with_pure(KET_H.density(), prepare_phi_minus())


@pytest.mark.parametrize("amplitudes", [[3.0, 0.0], [0.5, 0.0], [0.0, 0.0],
                                        [1.0 + 2e-9, 0.0]])
def test_fidelity_rejects_unnormalized_target(amplitudes):
    with pytest.raises(ValueError, match="target state must be normalized"):
        fidelity_with_pure(KET_H.density(), StateVector(amplitudes))


def test_fidelity_accepts_target_normalized_within_rounding():
    assert fidelity_with_pure(KET_H.density(), StateVector([1.0 + 5e-10, 0.0])) == 1.0


def test_eig_hermitian_pauli_z():
    vals, vecs = eig_hermitian(PAULI_Z)
    np.testing.assert_allclose(vals, [1.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(
        vecs @ np.diag(vals) @ vecs.conj().T, PAULI_Z, atol=1e-12
    )


def test_eig_hermitian_identity():
    vals, _ = eig_hermitian(np.eye(4))
    np.testing.assert_allclose(vals, np.ones(4), atol=1e-14)


def test_eig_hermitian_reconstruction(rng):
    for _ in range(25):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        vals, vecs = eig_hermitian(h)
        assert np.all(np.diff(vals) <= 1e-12)
        recon = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.max(np.abs(recon - h)) < 1e-9


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        eig_hermitian(np.full((2, 2), np.nan))
    with pytest.raises(ValueError, match="finite square matrix"):
        eig_hermitian(KET_H.density())
    with pytest.raises(ValueError, match="finite square matrix"):
        eig_hermitian([[1, 0], [0, 10**400]])


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: partial_trace(KET_H.density(), []), "^must keep at least one qubit$",
                 id="partial-trace-keeps-none"),
    pytest.param(lambda: eig_hermitian(np.ones((2, 3))),
                 "^eig_hermitian requires a finite square matrix$", id="eig-not-square"),
    pytest.param(lambda: trace_distance(KET_H.density(), prepare_phi_minus().density()),
                 "^dimension mismatch$", id="trace-distance-dimensions"),
    pytest.param(lambda: projector(np.array([1, 0])),
                 "^state must be a StateVector, got ndarray$", id="projector-ndarray"),
])
def test_qmath_rejection_messages(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("m", ["abc", KET_H.density()], ids=["string", "density-operator"])
def test_eig_hermitian_rejects_what_is_no_array_with_its_own_message(m):
    with pytest.raises(ValueError, match="^eig_hermitian requires a finite square matrix$"):
        eig_hermitian(m)


def test_state_vector_normalize():
    v = StateVector([3.0, 4.0]).normalize()
    assert abs(v.norm() - 1.0) < 1e-12


def test_state_vector_normalize_of_an_ordinary_vector_is_one_division():
    amplitudes = np.array([3.0, 4.0j, 1e-3])
    unit = StateVector(amplitudes).normalize()
    assert unit.amplitudes.tobytes() == (amplitudes / np.linalg.norm(amplitudes)).tobytes()


@pytest.mark.parametrize("amplitudes, norm, unit", [
    ([1e308, 1e308j], 2**0.5 * 1e308, [2**-0.5, 2**-0.5 * 1j]),
    ([3e-320, 4e-320], 5e-320, [0.6, 0.8]),
], ids=["squares-overflow", "squares-underflow"])
def test_state_vector_norm_survives_squares_beyond_the_float_range(amplitudes, norm, unit):
    # The squares leave the float range, the norm does not; subnormal
    # amplitudes carry about four digits.
    v = StateVector(amplitudes)
    assert v.norm() == pytest.approx(norm, rel=1e-3)
    normalized = v.normalize()
    np.testing.assert_allclose(normalized.amplitudes, unit, rtol=0, atol=1e-3)
    assert abs(normalized.norm() - 1.0) < 1e-15


def test_density_operator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[0.5, 0.1], [0.2, 0.5]]))


def test_density_operator_rejects_negative():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[1.5, 0.0], [0.0, -0.5]]))


@pytest.mark.parametrize("dim, bad", [(128, np.nan), (2, np.inf)])
def test_density_operator_rejects_non_finite(dim, bad):
    # NaN fails every comparison, so only the finiteness check catches it.
    with pytest.raises(ValueError, match="finite"):
        DensityOperator(np.full((dim, dim), bad, dtype=complex))


@pytest.mark.parametrize("matrix, match", [
    (np.zeros((2, 3)), "square"),
    (np.zeros((0, 0)), "empty"),
    (np.array([[0.5, 0.1], [0.2, 0.5]]), "Hermitian"),
    (np.eye(8) / 8 + 0.4e-12j * np.eye(8), "trace is not real"),
    (0.6 * np.eye(2), r"outside \[0, 1\]"),
    (-0.1 * np.eye(2), r"outside \[0, 1\]"),
    (np.array([[1.5, 0.0], [0.0, -0.5]]), "not PSD"),
    (np.diag(np.r_[-1e-3, np.full(127, (1 + 1e-3) / 127)]), "not PSD"),
    ([[1, 0], [0, -10**400]], "entries must be finite"),
    ("abc", "^density matrix entries must be finite$"),
    ([[1, 0], [0]], "^density matrix entries must be finite$"),
])
def test_density_operator_rejection_messages(matrix, match):
    with pytest.raises(ValueError, match=match):
        DensityOperator(matrix)


@pytest.mark.parametrize("amplitudes, match", [
    ([], "at least one amplitude"),
    ([np.nan], "finite"),
    ([10**400, 0], "amplitudes must be finite"),
    ("abc", "^state vector amplitudes must be finite$"),
])
def test_state_vector_rejection_messages(amplitudes, match):
    with pytest.raises(ValueError, match=match):
        StateVector(amplitudes)


@pytest.mark.parametrize("normalize", [
    pytest.param(lambda: StateVector([0.0, 0.0]).normalize(), id="vector"),
    pytest.param(lambda: DensityOperator(np.zeros((2, 2))).normalized(), id="state"),
])
def test_zero_cannot_be_normalized(normalize):
    with pytest.raises(ValueError, match="cannot normalize"):
        normalize()


def test_density_operator_trace_tolerance():
    assert DensityOperator((1.0 + 5e-10) * np.eye(2) / 2).norm > 1.0
    assert DensityOperator(np.zeros((1, 1))).norm == 0.0


@pytest.mark.parametrize("dim", [3, 6, 12])
def test_num_qubits_rejects_non_power_of_two(dim):
    with pytest.raises(ValueError, match="power of two"):
        DensityOperator(np.eye(dim) / dim).num_qubits
    with pytest.raises(ValueError, match="power of two"):
        StateVector(np.ones(dim)).num_qubits


@pytest.mark.parametrize("n", range(7))
def test_num_qubits_of_powers_of_two(n):
    assert DensityOperator(np.eye(2**n) / 2**n).num_qubits == n
    assert StateVector(np.ones(2**n)).num_qubits == n


def test_trusted_state_is_frozen_in_place_with_its_trace():
    m = np.diag([0.5, 0.25]).astype(complex)
    rho = DensityOperator._trusted(m)
    assert rho.matrix is m and not m.flags.writeable
    assert "norm" not in vars(rho)  # the trace is taken when norm is read
    assert rho.norm == 0.75 == DensityOperator(m).norm
    # Unchecked: a matrix the constructor rejects passes, so only map
    # outputs of checked states may come this way.
    assert DensityOperator._trusted(np.diag([1.0, -1.0]).astype(complex)).norm == 0.0


def test_trace_distance_extremes():
    a = KET_H.density()
    b = KET_V.density()
    assert abs(trace_distance(a, b) - 1.0) < 1e-12
    assert trace_distance(a, a) < 1e-14


def test_unitary_invariance_of_fidelity(rng):
    phi = prepare_phi_minus()
    u = haar_unitary(4, rng)
    rho = DensityOperator(u @ phi.density().matrix @ u.conj().T)
    rotated = StateVector(u @ phi.amplitudes)
    assert abs(fidelity_with_pure(rho, rotated) - 1.0) < 1e-10


@pytest.mark.parametrize("module", ["qmath", "channels", "dfs_protocol", "analysis"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"dfslink.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
