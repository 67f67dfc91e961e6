"""Dephasing channels for the fibre transmission.

A polarization-maintaining fibre transmits the two basis polarizations
faithfully but scrambles their relative phase.  Photons sent through it
within the phase correlation time pick up a *common* random phase
(collective dephasing); a residual inter-photon jitter can be added on top.
One kernel, :func:`rotate_basis`, computes every map here analytically: in
the spec's basis, an off-diagonal element whose channel photons differ by m
excitations of basis state 1 is multiplied by the characteristic function
E[exp(i m phi)] of the phase distribution.  :func:`collective_dephase` and
:func:`correlated_dephase` add one precondition each and call it, as
:func:`apply_phase_damping` does with none.  A Monte-Carlo phase-sampling
route exists only as a test oracle.

A spec is checked where it is built, and every entry point checks the
kinds of its arguments; the kernel's output is not re-checked (see
:func:`rotate_basis`).  Work that does not depend on a spec's numbers is
cached read-only and shared by fresh specs: each basis value is checked
once, and the gather index of the damping and a non-H/V basis change are
built once per register shape and basis value.  What depends on a spec's
numbers lives in its memo (see :class:`DephasingSpec`): ``characteristic``
is evaluated once, into the table every dephasing call gathers from.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .qmath import (ATOL_STRICT, KET_L, KET_R, DensityOperator, _finite, _freeze, _isfinite,
                    _qubit_indices, _require)

__all__ = [
    "DephasingSpec",
    "collective_dephase",
    "correlated_dephase",
    "rotate_basis",
    "apply_phase_damping",
    "CIRCULAR_BASIS",
]

# Columns are the circular basis states L, R expressed in H/V.
CIRCULAR_BASIS = np.column_stack([KET_L.amplitudes, KET_R.amplitudes])

_IDENTITY_2 = np.eye(2, dtype=complex)
# The kinds of scalar a phase or spread may be: Python and NumPy reals.
_REAL = (int, float, np.integer, np.floating)
# A gaussian spread beyond this damps every coherence to exactly zero, as it
# does from about 40 rad on; capping it keeps (spread * m)**2 finite.
_SPREAD_CAP = 1e100
# A mean phase beyond this, whose float spacing is far wider than 2 pi, is
# reduced modulo 2 pi so that mean_phase * m stays finite.
_PHASE_CAP = 1e300
# Raised by DephasingSpec for a basis that is not finite or not 2x2.
_BASIS_SHAPE = "dephasing basis must be a finite 2x2 matrix of column states"


@functools.lru_cache(maxsize=32)
def _check_basis(basis: bytes) -> bool:
    """Whether the finite 2x2 basis with these bytes is H/V; raises unless
    it is orthonormal (a rejection is not cached)."""
    b = np.frombuffer(basis, dtype=complex).reshape(2, 2)
    if np.abs(b.conj().T @ b - _IDENTITY_2).max() >= ATOL_STRICT:
        raise ValueError("dephasing basis is not orthonormal within 1e-12")
    return bool(np.abs(b - _IDENTITY_2).max() < ATOL_STRICT)


@dataclass(frozen=True, eq=False)
class DephasingSpec:
    """Parametrization of the channel phase noise.

    A spec is immutable: its fields cannot be rebound and ``basis`` is a
    read-only copy of the array passed in.  So the stages may keep what
    they derive from a spec in its private ``_memo`` for as long as the
    spec lives, read-only: ``"table"``, the characteristic table that
    ``_damping`` writes, and ``"choi"``, the link's Choi tensor that
    ``dfs_protocol.distribute`` writes.  Phases and spreads must be finite
    real scalars.

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
    _computational: bool = field(init=False, repr=False)
    _memo: dict = field(init=False, repr=False)

    def __post_init__(self):
        b = _finite(self.basis, complex, _BASIS_SHAPE)
        if b.shape != (2, 2):
            raise ValueError(_BASIS_SHAPE)
        computational = _check_basis(b.tobytes())
        for name in ("mean_phase", "per_photon_sigma", "delta_sigma"):
            value = getattr(self, name)
            if not isinstance(value, _REAL):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
            if not _isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.per_photon_sigma < 0 or self.delta_sigma < 0:
            raise ValueError("sigma parameters must be non-negative")
        if self.distribution not in ("uniform", "gaussian"):
            raise ValueError(f"unknown phase distribution {self.distribution!r}")
        object.__setattr__(self, "basis", _freeze(b.copy()))
        object.__setattr__(self, "_computational", computational)
        object.__setattr__(self, "_memo", {})

    def is_computational(self) -> bool:
        return self._computational

    def characteristic(self, m, m_jitter) -> np.ndarray:
        """E[exp(i (m phi + m_jitter delta))], elementwise over integer arrays.

        ``phi`` is the common phase and ``delta`` the zero-mean gaussian
        jitter of spread ``delta_sigma`` that rides on one photon; ``m`` is
        the total excitation difference of all channel photons and
        ``m_jitter`` that of the jittered photon alone.

        Finite and free of overflow for every spec: spreads are capped at
        1e100 rad, which changes no value, since every coherence is damped
        to zero from about 40 rad on; a mean phase beyond 1e300 rad, whose
        float spacing is far wider than 2 pi, is reduced modulo 2 pi.
        """
        m = np.asarray(m)
        if self.distribution == "uniform":
            common = (m == 0).astype(complex)
        else:
            mu, s = float(self.mean_phase), min(float(self.per_photon_sigma), _SPREAD_CAP)
            if abs(mu) > _PHASE_CAP:
                mu = math.remainder(mu, 2.0 * math.pi)
            common = np.exp(1j * mu * m - 0.5 * (s * m) ** 2)
        d = min(float(self.delta_sigma), _SPREAD_CAP)
        return common * np.exp(-0.5 * (d * np.asarray(m_jitter)) ** 2)


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


@functools.lru_cache(maxsize=32)
def _damping_index(n: int, photons: tuple[int, ...]) -> tuple[np.ndarray, tuple]:
    """Each entry's position in a spec's table, and the table's (m, m_jitter)
    pairs for k = max(2, len(photons)), all read-only.  An entry's pair is
    the excitation differences ket minus bra of all ``photons`` and of the
    first.  The pairs are flat: m in 0..k, then -k..-1, and m_jitter in
    {-1, 0, 1}, so (m, m_jitter) sits at position 3m + m_jitter + 1 for
    every k >= |m|, a negative position counting from the end."""
    k = max(2, len(photons))
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.asarray(photons))) & 1
    ket = 3 * bits.sum(axis=1) + bits[:, 0]
    pairs = np.repeat(np.r_[0:k + 1, -k:0], 3), np.tile(np.arange(-1, 2), 2 * k + 1)
    return _freeze(ket[:, None] - ket + 1), tuple(map(_freeze, pairs))


def _damping(spec: DephasingSpec, n: int, photons: tuple[int, ...]) -> np.ndarray:
    """``spec.characteristic`` at each entry's (m, m_jitter), gathered from
    the spec's table of :func:`_damping_index`'s pairs.  The first call makes
    it for k >= 2 channel photons, the link's pair, so the probe and the
    single-photon baseline share it; more photons' pairs rebuild it larger."""
    index, pairs = _damping_index(n, photons)
    table = spec._memo.get("table")
    if table is None or table.size < pairs[0].size:
        table = spec._memo["table"] = _freeze(spec.characteristic(*pairs))
    return table.take(index)


@functools.lru_cache(maxsize=32)
def _basis_change(basis: bytes, n: int, photons: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The register basis change w into the spec basis and its inverse
    w^dagger (both read-only); ``basis`` is the bytes of the basis matrix."""
    binv = np.frombuffer(basis, dtype=complex).reshape(2, 2).conj().T
    w = np.array([[1.0]], dtype=complex)
    for q in range(n):
        w = np.kron(w, binv if q in photons else _IDENTITY_2)
    return _freeze(w), _freeze(w.conj().T)


def _check_stage(spec, rho) -> None:
    """The argument kinds every entry point checks."""
    _require(rho, DensityOperator, "state")
    _require(spec, DephasingSpec, "spec")


def apply_phase_damping(rho: DensityOperator, photons, spec: DephasingSpec) -> DensityOperator:
    """:func:`rotate_basis`, kept under this name for ``benchmarks/tracer.py``."""
    return rotate_basis(spec, rho, photons)


def collective_dephase(rho: DensityOperator, photons, spec: DephasingSpec) -> DensityOperator:
    """All channel photons receive one common random phase.

    :func:`rotate_basis` with ``spec.delta_sigma == 0`` (use
    :func:`correlated_dephase` for residual jitter).
    """
    _check_stage(spec, rho)
    if spec.delta_sigma != 0.0:
        raise ValueError("delta_sigma != 0: route through correlated_dephase")
    return rotate_basis(spec, rho, photons)


def correlated_dephase(rho: DensityOperator, photons, spec: DephasingSpec) -> DensityOperator:
    """Common phase plus gaussian jitter on the first photon of the pair.

    ``photons`` is the ordered pair (s, s_prime); the second photon sees the
    common phase, the first sees it plus a zero-mean gaussian offset of
    spread ``delta_sigma``.  Each off-diagonal picks up
    E[exp(i(m_s phi_s + m_s' phi_s'))], which factorizes into the common
    characteristic function at m_s + m_s' and a gaussian damping at m_s:
    :func:`rotate_basis` for exactly two photons.
    """
    _check_stage(spec, rho)
    pair = _channel_photons(photons, rho.num_qubits, spec.delta_sigma != 0.0)
    if len(pair) != 2:
        raise ValueError("correlated_dephase requires exactly two channel photons")
    return rotate_basis(spec, rho, pair)


def rotate_basis(spec: DephasingSpec, rho: DensityOperator, photons) -> DensityOperator:
    """Dephase the channel photons in the spec's single-qubit basis.

    The one channel kernel: multiplies every matrix element, taken in the
    spec basis on the channel photons, by
    ``spec.characteristic(m_all, m_first)``.  An H/V spec multiplies the
    state's matrix as it is; other bases conjugate the channel photons into
    the spec basis and back.  The jitter rides on the first photon listed,
    so jitter needs one photon or an ordered pair.

    The output state is not re-checked.  The damping is the characteristic
    matrix E[u u^dagger] of the random phase vector u, a Gram matrix with
    unit diagonal, so its Schur product with a checked state is positive
    and has the same trace; the basis change is a unitary conjugation,
    which keeps both.  ``characteristic`` is finite for every spec.
    """
    _check_stage(spec, rho)
    n = rho.num_qubits
    ordered = tuple(_channel_photons(photons, n, spec.delta_sigma != 0.0))
    if spec.delta_sigma != 0.0 and len(ordered) > 2:
        raise ValueError("correlated dephasing needs one photon or an ordered pair")
    damping = _damping(spec, n, ordered)
    if spec.is_computational():  # in H/V the basis change is the identity
        return DensityOperator._trusted(rho.matrix * damping)
    w, w_inv = _basis_change(spec.basis.tobytes(), n, ordered)
    return DensityOperator._trusted(w_inv @ ((w @ rho.matrix @ w_inv) * damping) @ w)
