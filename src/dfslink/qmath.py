"""Complex linear algebra and finite-dimensional quantum state primitives.

Conventions used throughout the package:

* single-qubit polarization basis is H = 0, V = 1;
* multi-qubit states order their tensor factors most-significant first,
  so qubit 0 owns the leftmost Kronecker factor;
* states are dense matrices;
* conditional (post-selected) states are kept sub-normalized and carry an
  explicit ``norm`` field instead of being silently renormalized.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "StateVector",
    "DensityOperator",
    "kron",
    "tensor",
    "partial_trace",
    "fidelity_with_pure",
    "eig_hermitian",
    "trace_distance",
    "projector",
    "KET_H",
    "KET_V",
    "KET_D",
    "KET_DBAR",
    "KET_L",
    "KET_R",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

# Construction-time tolerance for hermiticity and trace, and the looser
# tolerance used for positivity and eigendecomposition checks.
ATOL_STRICT = 1e-12
ATOL_CHANNEL = 1e-10


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _num_qubits(dim: int) -> int:
    if dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def _qubit_indices(indices) -> list[int]:
    """``indices`` as a list of ints; 1.9 or 1.0 is an error, not qubit 1."""
    try:
        return [operator.index(i) for i in indices]
    except TypeError:
        raise ValueError(f"qubit indices must be integers, got {indices!r}") from None


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 1-D or two 2-D arrays, a's indices most
    significant.

    One broadcast multiply, the same one NumPy's ``kron`` runs after its
    general-rank set-up, so every entry is the identical product.
    """
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state over a finite-dimensional Hilbert space.

    Parameters
    ----------
    amplitudes : array_like
        Complex amplitudes; length fixes the dimension.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size < 1:
            raise ValueError("state vector needs at least one amplitude")
        if not np.all(np.isfinite(amp.view(float))):
            raise ValueError("state vector amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _freeze(amp.copy()))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def num_qubits(self) -> int:
        return _num_qubits(self.dim)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n)

    def density(self) -> "DensityOperator":
        """Return |psi><psi| (sub-normalized if the vector is)."""
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite state matrix.

    The matrix may be sub-normalized (post-selected conditional states); its
    trace is recorded in ``norm``.  ``normalized()`` divides it out.
    """

    matrix: np.ndarray
    norm: float = field(init=False)  # trace, recorded at construction

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if m.shape[0] == 0:
            raise ValueError("density matrix must not be empty")
        if not np.isfinite(m).all():
            raise ValueError("density matrix entries must be finite")
        if np.abs(m - m.conj().T).max() >= ATOL_STRICT:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = m.trace()
        if abs(tr.imag) >= ATOL_STRICT:
            raise ValueError("density matrix trace is not real")
        if tr.real < -ATOL_STRICT or tr.real > 1.0 + 1e-9:
            raise ValueError(f"density matrix trace {tr.real} outside [0, 1]")
        lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min < -ATOL_CHANNEL:
            raise ValueError(f"density matrix not PSD: min eigenvalue {lam_min}")
        object.__setattr__(self, "matrix", _freeze(m.copy()))
        object.__setattr__(self, "norm", float(tr.real))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return _num_qubits(self.dim)

    def normalized(self) -> "DensityOperator":
        if self.norm <= 0.0:
            raise ValueError("cannot normalize a zero-trace state")
        return DensityOperator(self.matrix / self.norm)


def _require_state(rho) -> None:
    if not isinstance(rho, DensityOperator):
        raise ValueError(f"state must be a DensityOperator, got {type(rho).__name__}")


def tensor(a: StateVector | DensityOperator,
           b: StateVector | DensityOperator) -> StateVector | DensityOperator:
    """Kronecker product of two ``StateVector``s or two ``DensityOperator``s,
    a's indices most significant."""
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator(kron(a.matrix, b.matrix))
    raise TypeError(
        f"tensor requires two objects of the same kind, got "
        f"{type(a).__name__} and {type(b).__name__}"
    )


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduced state on the qubits in ``keep`` (ascending order), trace kept.

    Parameters
    ----------
    rho : DensityOperator
        State over n qubits (dimension must be a power of two).
    keep : iterable of int
        Qubit indices to retain, 0 = most significant factor.
    """
    _require_state(rho)
    n = rho.num_qubits
    keep_sorted = sorted(set(_qubit_indices(keep)))
    if not keep_sorted:
        raise ValueError("must keep at least one qubit")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= n:
        raise ValueError(f"keep indices {keep_sorted} out of range for {n} qubits")
    drop = [q for q in range(n) if q not in keep_sorted]
    tens = rho.matrix.reshape([2] * (2 * n))
    for q in sorted(drop, reverse=True):
        m = tens.ndim // 2
        tens = np.trace(tens, axis1=q, axis2=q + m)
    d = 2 ** len(keep_sorted)
    return DensityOperator(tens.reshape(d, d))


def fidelity_with_pure(rho: DensityOperator, psi: StateVector) -> float:
    """<psi| rho |psi> for a normalized pure target, clipped to [0, 1]."""
    _require_state(rho)
    if not isinstance(psi, StateVector):
        raise ValueError(f"target must be a StateVector, got {type(psi).__name__}")
    if psi.dim != rho.dim:
        raise ValueError(f"dimension mismatch: rho {rho.dim}, psi {psi.dim}")
    if abs(psi.norm() - 1.0) > 1e-9:
        raise ValueError(f"target state must be normalized, got norm {psi.norm()}")
    val = complex(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes)
    if abs(val.imag) >= ATOL_STRICT:
        raise ValueError(f"fidelity came out complex: {val}")
    return float(min(max(val.real, 0.0), 1.0))


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching eigenvector columns of array ``m``.

    Raises on inputs that are not finite or not Hermitian within 1e-10.
    """
    try:
        mat = np.asarray(m, dtype=complex)
    except (TypeError, ValueError):  # not array-like, e.g. a DensityOperator
        mat = np.empty(0)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not np.isfinite(mat).all():
        raise ValueError("eig_hermitian requires a finite square matrix")
    if np.max(np.abs(mat - mat.conj().T), initial=0.0) >= ATOL_CHANNEL:
        raise ValueError("matrix is not Hermitian within 1e-10")
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) ||a - b||_1 between two states of equal dimension."""
    _require_state(a)
    _require_state(b)
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    diff = a.matrix - b.matrix
    vals = np.linalg.eigvalsh(diff)
    return float(0.5 * np.sum(np.abs(vals)))


def projector(psi: StateVector) -> np.ndarray:
    return np.outer(psi.amplitudes, psi.amplitudes.conj())


_SQ2 = np.sqrt(2.0)

KET_H = StateVector([1.0, 0.0])
KET_V = StateVector([0.0, 1.0])
KET_D = StateVector([1.0 / _SQ2, 1.0 / _SQ2])
KET_DBAR = StateVector([1.0 / _SQ2, -1.0 / _SQ2])
# Circular basis: L is the +1 eigenstate of Pauli Y, R the -1 eigenstate.
KET_L = StateVector([1.0 / _SQ2, 1.0j / _SQ2])
KET_R = StateVector([1.0 / _SQ2, -1.0j / _SQ2])

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
