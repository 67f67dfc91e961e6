"""Dephasing channels for the fibre transmission.

A polarization-maintaining fibre transmits the two basis polarizations
faithfully but scrambles their relative phase.  Photons sent through it
within the phase correlation time pick up a *common* random phase
(collective dephasing); a residual inter-photon jitter can be added on top.
All maps here are computed analytically: an off-diagonal element whose
channel photons differ by m excitations of the dephasing basis state 1 is
multiplied by the characteristic function E[exp(i m phi)] of the phase
distribution.  A Monte-Carlo phase-sampling route exists only as a test
oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .qmath import ATOL_STRICT, DensityOperator, _freeze, _qubit_indices, kron

__all__ = [
    "DephasingSpec",
    "collective_dephase",
    "correlated_dephase",
    "rotate_basis",
    "apply_phase_damping",
    "CIRCULAR_BASIS",
]

# Columns are the circular basis states L, R expressed in H/V.
CIRCULAR_BASIS = np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / np.sqrt(2.0)

_IDENTITY_2 = np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class DephasingSpec:
    """Parametrization of the channel phase noise.

    A spec is immutable: its fields cannot be rebound and ``basis`` is a
    read-only copy of the array passed in.  ``dfs_protocol.distribute``
    caches the link map it derives from a spec for as long as that spec
    object lives.

    Attributes
    ----------
    basis : (2, 2) ndarray
        Columns are the orthonormal dephasing basis states (default H/V,
        i.e. the identity; pass ``CIRCULAR_BASIS`` for the reference-frame
        scenario).
    mean_phase : float
        Mean of the common phase, radians.
    per_photon_sigma : float
        Spread of the common phase for the gaussian distribution, radians.
    delta_sigma : float
        Spread of the inter-photon phase difference, radians.  Zero means
        strictly collective noise.
    distribution : {"uniform", "gaussian"}
        Law of the common phase.  "uniform" covers [0, 2*pi) and models a
        fully scrambled fibre.
    """

    basis: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex))
    mean_phase: float = 0.0
    per_photon_sigma: float = 0.0
    delta_sigma: float = 0.0
    distribution: str = "uniform"

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.shape != (2, 2) or not np.isfinite(b).all():
            raise ValueError("dephasing basis must be a finite 2x2 matrix of column states")
        if np.max(np.abs(b.conj().T @ b - np.eye(2))) >= ATOL_STRICT:
            raise ValueError("dephasing basis is not orthonormal within 1e-12")
        for name in ("mean_phase", "per_photon_sigma", "delta_sigma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.per_photon_sigma < 0 or self.delta_sigma < 0:
            raise ValueError("sigma parameters must be non-negative")
        if self.distribution not in ("uniform", "gaussian"):
            raise ValueError(f"unknown phase distribution {self.distribution!r}")
        object.__setattr__(self, "basis", _freeze(b.copy()))

    def is_computational(self) -> bool:
        return bool(np.max(np.abs(self.basis - np.eye(2))) < ATOL_STRICT)

    def characteristic(self, m, m_jitter=0) -> np.ndarray:
        """E[exp(i (m phi + m_jitter delta))], elementwise over integer arrays.

        ``phi`` is the common phase and ``delta`` the zero-mean gaussian
        jitter of spread ``delta_sigma`` that rides on one photon; ``m`` is
        the total excitation difference of all channel photons and
        ``m_jitter`` that of the jittered photon alone.
        """
        m = np.asarray(m)
        if self.distribution == "uniform":
            common = (m == 0).astype(complex)
        else:
            s = self.per_photon_sigma
            common = np.exp(1j * self.mean_phase * m - 0.5 * (s * m) ** 2)
        return common * np.exp(-0.5 * (self.delta_sigma * np.asarray(m_jitter)) ** 2)


def _channel_photons(photons, n: int, jittered: bool = False) -> list[int]:
    """The channel photons as a list of distinct qubit indices, in the order
    given: jitter rides on the first one, so a set cannot carry it."""
    if jittered and isinstance(photons, (set, frozenset)) and len(photons) > 1:
        raise ValueError("jitter rides on the first photon listed: "
                         "pass an ordered sequence, not a set")
    idx = _qubit_indices(photons)
    if not idx:
        raise ValueError("channel photon set is empty")
    if len(set(idx)) < len(idx):
        raise ValueError("channel photons must be distinct")
    if min(idx) < 0 or max(idx) >= n:
        raise ValueError(f"photon indices {idx} out of range for {n} qubits")
    return idx


@functools.lru_cache
def _occupation(n: int, photons: tuple[int, ...]) -> np.ndarray:
    """k[i]: the number of ``photons`` in basis state 1 in ket i (read-only)."""
    shifts = n - 1 - np.asarray(photons)
    return _freeze(((np.arange(2**n)[:, None] >> shifts) & 1).sum(axis=1))


def _excitation_difference(n: int, photons: Sequence[int]) -> np.ndarray:
    """m[i, j]: the number of ``photons`` in basis state 1 in ket i minus
    that in ket j."""
    k = _occupation(n, tuple(photons))
    return k[:, None] - k[None, :]


def apply_phase_damping(
    rho: DensityOperator,
    photons,
    damping: Callable[[np.ndarray], np.ndarray],
) -> DensityOperator:
    """Scale each off-diagonal block by a function of the difference in
    channel basis-1 occupation between bra and ket.

    ``damping`` receives the integer difference matrix and must return the
    complex multipliers elementwise.
    """
    n = rho.num_qubits
    diff = _excitation_difference(n, _channel_photons(photons, n))
    return DensityOperator(rho.matrix * damping(diff))


def collective_dephase(rho: DensityOperator, photons, spec: DephasingSpec) -> DensityOperator:
    """All channel photons receive one common random phase.

    Requires ``spec.delta_sigma == 0`` (use :func:`correlated_dephase` for
    residual jitter) and a computational-basis spec (use
    :func:`rotate_basis` for other bases).
    """
    if spec.delta_sigma != 0.0:
        raise ValueError("delta_sigma != 0: route through correlated_dephase")
    if not spec.is_computational():
        raise ValueError("non-computational dephasing basis: route through rotate_basis")
    return apply_phase_damping(rho, photons, spec.characteristic)


def correlated_dephase(rho: DensityOperator, photons, spec: DephasingSpec) -> DensityOperator:
    """Common phase plus gaussian jitter on the first photon of the pair.

    ``photons`` is the ordered pair (s, s_prime); the second photon sees the
    common phase, the first sees it plus a zero-mean gaussian offset of
    spread ``delta_sigma``.  Each off-diagonal picks up
    E[exp(i(m_s phi_s + m_s' phi_s'))], which factorizes into the common
    characteristic function at m_s + m_s' and a gaussian damping at m_s:
    :func:`rotate_basis` in the H/V basis.
    """
    if not spec.is_computational():
        raise ValueError("non-computational dephasing basis: route through rotate_basis")
    pair = _channel_photons(photons, rho.num_qubits, spec.delta_sigma != 0.0)
    if len(pair) != 2:
        raise ValueError("correlated_dephase requires exactly two channel photons")
    return rotate_basis(spec, rho, pair)


def rotate_basis(spec: DephasingSpec, rho: DensityOperator, photons) -> DensityOperator:
    """Dephase the channel photons in the spec's single-qubit basis.

    The general channel kernel: conjugates the channel photons into the spec
    basis, multiplies every matrix element by
    ``spec.characteristic(m_all, m_first)`` and conjugates back.  The jitter
    rides on the first photon listed, so jitter needs one photon or an
    ordered pair.
    """
    n = rho.num_qubits
    ordered = _channel_photons(photons, n, spec.delta_sigma != 0.0)
    if spec.delta_sigma != 0.0 and len(ordered) > 2:
        raise ValueError("correlated dephasing needs one photon or an ordered pair")
    w = np.array([[1.0]], dtype=complex)
    binv = spec.basis.conj().T
    for q in range(n):
        w = kron(w, binv if q in ordered else _IDENTITY_2)
    damping = spec.characteristic(_excitation_difference(n, ordered),
                                  _excitation_difference(n, ordered[:1]))
    rotated = w @ rho.matrix @ w.conj().T
    return DensityOperator(w.conj().T @ (rotated * damping) @ w)
