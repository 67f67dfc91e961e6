"""End-to-end protocol for channel-protected entanglement transfer.

The sender holds a photon S that may be entangled with arbitrary spectator
qubits.  She appends an ancilla photon in the diagonal state and sends both
through the collectively dephasing channel.  The receiver sifts the photon
pair onto the noise-protected subspace span{|HV>, |VH>} with a parity check
(a polarizing beam splitter plus post-selection) and decodes by measuring
the redundant photon diagonally, applying a pi phase correction when the
minus outcome is kept.  The encoding never looks at the
input amplitudes, so entanglement with the spectators survives untouched.

Encode, dephase and sift touch only S, so for a fixed channel spec the link
is one trace-decreasing map from one qubit to one qubit.  Encoding does not
depend on the channel, so the encoded probe (|Phi+> of (reference, S) plus
the ancilla) is a constant; :func:`distribute` dephases and sifts it, takes
the link's Choi tensor as 2 x the sifted probe and applies it to the last
qubit of the caller's register.  The tensor is kept in the spec's memo
(see ``DephasingSpec``), and :func:`qpg_sift`'s index per register shape
and photon pair.  The stages are plain maps on states and remain the only
statement of the physics.

State bookkeeping: the protocol input orders qubits (spectators..., S); the
ancilla is appended last, and after sifting the surviving logical qubit takes
S's position, so outputs are ordered (spectators..., Y).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channels import DephasingSpec, _channel_photons, rotate_basis
from .qmath import KET_D, DensityOperator, StateVector, _freeze, _require, tensor

__all__ = [
    "ProtocolInput",
    "ProtocolOutcome",
    "prepare_phi_minus",
    "encode_append",
    "qpg_sift",
    "decode",
    "distribute",
    "baseline_direct",
]

# (|HH> + |VV>)/sqrt(2) on (reference, S): probing the link with it yields
# half the link's Choi matrix.
_PHI_PLUS = StateVector([1.0, 0.0, 0.0, 1.0]).normalize().density()


def prepare_phi_minus() -> StateVector:
    """The maximally entangled pair (|HH> - |VV>)/sqrt(2) on (A, S)."""
    s = 1.0 / np.sqrt(2.0)
    return StateVector([s, 0.0, 0.0, -s])


@dataclass(frozen=True, eq=False)
class ProtocolInput:
    """Input to the distribution pipeline.

    ``state`` is a density operator over (spectators..., S) with S the last
    qubit; ``channel_spec`` parametrizes the fibre noise; the minus-outcome
    decode branch is discarded unless ``keep_dbar_branch`` is set.
    """

    state: DensityOperator
    channel_spec: DephasingSpec = field(default_factory=DephasingSpec)
    keep_dbar_branch: bool = False

    def __post_init__(self):
        _require(self.state, DensityOperator, "state")
        _require(self.channel_spec, DephasingSpec, "channel_spec")
        _require(self.keep_dbar_branch, (bool, np.bool_), "keep_dbar_branch")
        if self.state.num_qubits < 1:
            raise ValueError("protocol input needs at least the channel qubit S")
        if abs(self.state.norm - 1.0) > 1e-9:
            raise ValueError("protocol input state must be normalized")


@dataclass(frozen=True, eq=False)
class ProtocolOutcome:
    """Post-selected output state plus the probability bookkeeping; the
    success probability is the sum of the kept branches, ``D`` and
    ``Dbar_corrected``."""

    state: DensityOperator
    branch_probabilities: dict[str, float]

    @property
    def success_probability(self) -> float:
        return sum(self.branch_probabilities.get(k, 0.0) for k in ("D", "Dbar_corrected"))


_ANCILLA = KET_D.density()


def encode_append(rho: DensityOperator) -> DensityOperator:
    """Append the ancilla: state (spectators..., S) -> (spectators..., S, S')."""
    _require(rho, DensityOperator, "state")
    return tensor(rho, _ANCILLA)


# The encoded probe on (reference, S, S'), the same for every channel.
_PROBE = encode_append(_PHI_PLUS)


@functools.lru_cache
def _sift_index(n: int, s_index: int, sprime_index: int) -> np.ndarray:
    """keep[j]: the input ket that output ket j of :func:`qpg_sift` reads
    (read-only): j's bits with the opposite of S's bit inserted at S'."""
    j = np.arange(2 ** (n - 1))
    s_out = s_index - (sprime_index < s_index)
    bit_s = (j >> (n - 2 - s_out)) & 1
    low = n - 1 - sprime_index  # output bits below S'
    return _freeze(((j >> low) << (low + 1)) | ((1 - bit_s) << low) | (j & ((1 << low) - 1)))


def qpg_sift(rho: DensityOperator, s_index: int, sprime_index: int) -> DensityOperator:
    """Parity-gate sift onto the protected subspace span{|H_s V_s'>, |V_s H_s'>}.

    Returns the sub-normalized conditional state (one qubit fewer, logical
    qubit at S's slot, S' removed); its ``norm`` is the sift probability.
    Relabeling |HV> -> |H>, |VH> -> |V> absorbs the receiver's 90 degree
    rotation of the long-arm photon, so each output ket j is the input ket
    with S's bit of j and the opposite bit inserted at S'.

    The output state is not re-checked: a principal submatrix of a positive
    matrix is positive with at most its trace, and averaging it with its
    conjugate transpose, the same matrix up to rounding, keeps both.
    """
    _require(rho, DensityOperator, "state")
    n = rho.num_qubits
    s_index, sprime_index = _channel_photons((s_index, sprime_index), n)
    keep = _sift_index(n, s_index, sprime_index)
    cond = rho.matrix[keep[:, None], keep]
    return DensityOperator._trusted(0.5 * (cond + cond.conj().T))


def decode(rho: DensityOperator, keep_dbar: bool = False) -> ProtocolOutcome:
    """Diagonal-basis measurement of the redundant photon.

    On the sifted logical space the plus outcome leaves the state untouched
    and the minus outcome imprints a Z on the logical qubit, each with half
    the input weight.  The minus branch is discarded by default;
    ``keep_dbar`` applies the pi phase correction, which undoes that Z
    exactly (Z Z rho Z Z = rho), and keeps the branch.  Either way the kept
    state is ``rho`` normalized, whichever qubit is the logical one.

    Branch probabilities are absolute, i.e. they inherit the norm of a
    sub-normalized input; ``sift_fail`` = 1 - norm holds the rest, so the
    branches sum to one.
    """
    _require(rho, DensityOperator, "state")
    _require(keep_dbar, (bool, np.bool_), "keep_dbar")
    p_branch = 0.5 * rho.norm
    dbar = "Dbar_corrected" if keep_dbar else "Dbar_discarded"
    branches = {"D": p_branch, dbar: p_branch, "sift_fail": 1.0 - rho.norm}
    state = rho.normalized() if rho.norm > 0.0 else DensityOperator(np.zeros_like(rho.matrix))
    return ProtocolOutcome(state, branches)


def distribute(inp: ProtocolInput) -> ProtocolOutcome:
    """Full pipeline: encode, dephase, sift, decode.

    The constant encoded probe is dephased and sifted; the link's Choi
    tensor is 2 x the sifted probe, J[s, y, s', y'] = 2 <s y| sifted |s' y'>.
    J acts on the last qubit of the input register, and the outcome is
    :func:`decode`'s on the link output, whose ``norm`` is the sift
    probability: the output lives on (spectators..., Y) and the branch map
    covers {D, Dbar, sift_fail}.
    """
    _require(inp, ProtocolInput, "protocol input")
    spec = inp.channel_spec
    choi = spec._memo.get("choi")
    if choi is None:
        sifted = qpg_sift(rotate_basis(spec, _PROBE, (1, 2)), 1, 2)
        choi = spec._memo["choi"] = _freeze(2.0 * sifted.matrix.reshape(2, 2, 2, 2))
    r = inp.state.dim // 2
    rho = np.einsum("asbt,sytz->aybz", inp.state.matrix.reshape(r, 2, r, 2), choi)
    return decode(DensityOperator(rho.reshape(2 * r, 2 * r)), keep_dbar=inp.keep_dbar_branch)


def baseline_direct(inp: ProtocolInput) -> DensityOperator:
    """Send S through the channel without the protection layer.

    Single-photon marginal of the channel: the common phase and any jitter
    riding on S combine into one characteristic function.  Success
    probability is 1 (nothing is post-selected).
    """
    _require(inp, ProtocolInput, "protocol input")
    return rotate_basis(inp.channel_spec, inp.state, [inp.state.num_qubits - 1])
