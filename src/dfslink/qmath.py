"""Complex linear algebra and finite-dimensional quantum state primitives.

Conventions used throughout the package:

* single-qubit polarization basis is H = 0, V = 1;
* multi-qubit states order their tensor factors most-significant first,
  so qubit 0 owns the leftmost Kronecker factor;
* states are dense matrices;
* conditional (post-selected) states are kept sub-normalized and carry
  their trace as ``norm`` instead of being silently renormalized.

States are validated where they enter: the ``DensityOperator`` constructor
checks that its matrix is finite, Hermitian, of trace in [0, 1] and positive
semidefinite, keeps a read-only copy and records the trace as ``norm``.  A
caller's matrix always goes through it, as do ``StateVector.density()``,
``normalized()`` and the link output of ``dfs_protocol.distribute``.  The
output of a positive, trace-non-increasing dfslink map of checked states
skips the checks and the copy (``DensityOperator._trusted``), and takes its
trace only when ``norm`` is first read.  These maps are :func:`tensor`,
:func:`partial_trace`, ``channels.rotate_basis`` and
``dfs_protocol.qpg_sift``; each docstring says why its map keeps positivity
and trace.  Every module reads and rejects outside input through three
private helpers here: ``_require`` for a kind, ``_finite`` for an array and
``_isfinite`` for a scalar.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "StateVector",
    "DensityOperator",
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


def _require(value, kind, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a ``kind``: a type, or a
    tuple of types named by its first."""
    if not isinstance(value, kind):
        kind = kind[0] if isinstance(kind, tuple) else kind
        raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _finite(value, dtype, message: str) -> np.ndarray:
    """``np.asarray(value, dtype)``; raises ``ValueError(message)`` where an
    entry is not finite or, as an int beyond the float range, overflows."""
    try:
        array = np.asarray(value, dtype)
    except OverflowError:
        raise ValueError(message) from None
    if not np.isfinite(array).all():
        raise ValueError(message)
    return array


def _isfinite(x) -> bool:
    """``math.isfinite(x)``, False for an int beyond the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


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
        amp = _finite(self.amplitudes, complex, "state vector amplitudes must be finite").reshape(-1)
        if amp.size < 1:
            raise ValueError("state vector needs at least one amplitude")
        object.__setattr__(self, "amplitudes", _freeze(amp.copy()))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def num_qubits(self) -> int:
        return _num_qubits(self.dim)

    def _scaled(self) -> tuple[float, np.ndarray, float]:
        """(s, v, |v|) with amplitudes = s v: s = 1 unless the squares of a
        nonzero vector under- or overflow, then s is the largest modulus of a
        real or imaginary part."""
        v = self.amplitudes
        with np.errstate(over="ignore"):
            n = float(np.linalg.norm(v))
        if (n == 0.0 or n == math.inf) and v.any():
            s = float(np.abs(v.view(float)).max())
            v = (v.view(float) / s).view(complex)  # a complex divide by a subnormal s overflows
            return s, v, float(np.linalg.norm(v))
        return 1.0, v, n

    def norm(self) -> float:
        s, _, n = self._scaled()
        return s * n

    def normalize(self) -> "StateVector":
        _, v, n = self._scaled()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(v / n)

    def density(self) -> "DensityOperator":
        """Return |psi><psi| (sub-normalized if the vector is)."""
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite state matrix.

    The matrix may be sub-normalized (post-selected conditional states); its
    trace is ``norm``.  ``normalized()`` divides it out.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _finite(self.matrix, complex, "density matrix entries must be finite")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if m.shape[0] == 0:
            raise ValueError("density matrix must not be empty")
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
        object.__setattr__(self, "norm", float(tr.real))  # fills the cached property

    @functools.cached_property
    def norm(self) -> float:
        """The trace."""
        return float(self.matrix.trace().real)

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> "DensityOperator":
        """Freeze ``matrix``, a fresh complex output of a positive,
        trace-non-increasing map of checked states, in place as a state:
        no copy, none of the constructor's checks and no trace until
        ``norm`` is read."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", _freeze(matrix))
        return rho

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


def tensor(a: StateVector | DensityOperator,
           b: StateVector | DensityOperator) -> StateVector | DensityOperator:
    """Kronecker product of two ``StateVector``s or two ``DensityOperator``s,
    a's indices most significant.

    The product of two states is unchecked: a Kronecker product of positive
    matrices is positive, and its trace tr a * tr b is at most 1.
    """
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        return DensityOperator._trusted(np.kron(a.matrix, b.matrix))
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

    The reduced state is unchecked: a partial trace is completely positive
    and keeps the trace.
    """
    _require(rho, DensityOperator, "state")
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
    return DensityOperator._trusted(tens.reshape(d, d))


def fidelity_with_pure(rho: DensityOperator, psi: StateVector) -> float:
    """<psi| rho |psi> for a normalized pure target, clipped to [0, 1]."""
    _require(rho, DensityOperator, "state")
    _require(psi, StateVector, "target")
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
        mat = _finite(m, complex, "eig_hermitian requires a finite square matrix")
    except (TypeError, ValueError):  # not finite, or not array-like, e.g. a string
        mat = np.empty(0)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("eig_hermitian requires a finite square matrix")
    if np.max(np.abs(mat - mat.conj().T), initial=0.0) >= ATOL_CHANNEL:
        raise ValueError("matrix is not Hermitian within 1e-10")
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) ||a - b||_1 between two states of equal dimension."""
    _require(a, DensityOperator, "state")
    _require(b, DensityOperator, "state")
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
