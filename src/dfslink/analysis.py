"""Statistical and information-theoretic analysis of simulated experiments.

Covers the Bell-correlation test with Poisson error propagation, coincidence
count generation, two-qubit state tomography (linear inversion plus maximum
likelihood by Newton's method on a Cholesky parametrization in the eigenbasis
of the linear estimate, stopped on a certified bound on the likelihood still
to gain, from projectors cached once per setting set), Wootters concurrence
and entanglement of formation, parametric-bootstrap error bars, and the
path-delay interference model with its Gaussian fit by variable projection
(background and visibility in closed form, coherence length searched over
[span/50, 10 span]; not ``converged`` at an end of that range).
"""

from __future__ import annotations

import functools
import logging
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .qmath import (
    _finite,
    _freeze,
    _isfinite,
    _require,
    KET_D,
    KET_DBAR,
    KET_H,
    KET_L,
    KET_R,
    KET_V,
    PAULI_Y,
    DensityOperator,
    StateVector,
    projector,
)

__all__ = [
    "MeasSetting",
    "CountRecord",
    "TomographyResult",
    "DEFAULT_CHSH_ANGLES",
    "chsh_value",
    "chsh_settings",
    "chsh_from_counts",
    "tomography_settings",
    "stokes_settings",
    "simulate_counts",
    "tomo_linear",
    "tomo_mle",
    "concurrence",
    "entanglement_of_formation",
    "monte_carlo_sd",
    "bell_fidelity_from_counts",
    "DelayScanModel",
    "GaussianFitResult",
    "delay_scan",
    "gaussian_fit",
    "transform_limited_fwhm",
]

logger = logging.getLogger(__name__)

# Analyzer settings optimal for the target Bell pair; degrees.
DEFAULT_CHSH_ANGLES = (0.0, 45.0, -22.5, -67.5)

_NAMED_ANALYZERS = {
    "H": KET_H,
    "V": KET_V,
    "D": KET_D,
    "A": KET_DBAR,
    "L": KET_L,
    "R": KET_R,
}

Analyzer = Union[str, float]

# The three complete correlation bases of the Bell-fidelity estimate, each as
# its (+, -) analyzers: the ZZ, XX and YY products.
_STOKES_BASES = (("H", "V"), ("D", "A"), ("R", "L"))
# The signs of the outcomes ++, +-, -+, -- in a correlation, and of S's terms.
_PARITY = (1, -1, -1, 1)
_CHSH_SIGNS = (1, -1, 1, 1)


def _analyzer(a: Analyzer) -> Analyzer:
    """The one identity of an analyzer: a name stays, and an angle is taken
    mod 180 degrees and rounded to 6 digits (the second mod sends angles
    that round up to 180 back to 0), with 0, 90, 45 and 135 named H/V/D/A."""
    if isinstance(a, str):
        if a not in _NAMED_ANALYZERS:
            raise ValueError(f"unknown analyzer label {a!r}")
        return a
    if not _isfinite(a):
        raise ValueError(f"analyzer angle must be finite, got {a!r}")
    angle = round(float(a) % 180.0, 6) % 180.0
    return {0.0: "H", 90.0: "V", 45.0: "D", 135.0: "A"}.get(angle, angle)


@functools.lru_cache(maxsize=256)
def _joint_projector(a: Analyzer, b: Analyzer) -> np.ndarray:
    """The read-only projector of a canonical analyzer pair: pa[i, j] pb[k, l]
    at [2i+k, 2j+l], the Kronecker product of the two sides' projectors."""
    pa, pb = (projector(_NAMED_ANALYZERS[x]) if isinstance(x, str)
              else projector(StateVector([math.cos(math.radians(x)), math.sin(math.radians(x))]))
              for x in (a, b))
    return _freeze(np.multiply.outer(pa, pb).transpose(0, 2, 1, 3).reshape(4, 4))


@dataclass(frozen=True)
class MeasSetting:
    """One joint analyzer setting: a polarization name (H/V/D/A/L/R) or a
    linear-polarizer angle in degrees per side, stored in canonical form."""

    analyzer_a: Analyzer
    analyzer_b: Analyzer

    def __post_init__(self):
        for name in ("analyzer_a", "analyzer_b"):
            object.__setattr__(self, name, _analyzer(getattr(self, name)))

    def joint_projector(self) -> np.ndarray:
        """The read-only 4x4 projector onto this setting's joint outcome, built
        once per canonical pair by ``_joint_projector``: equal settings share
        one array."""
        return _joint_projector(self.analyzer_a, self.analyzer_b)


@dataclass(frozen=True, eq=False)
class CountRecord:
    """A coincidence count n at one setting.  ``scale`` is its exposure N,
    the expected total it was drawn with; tomography inverts n / N, taking N
    from the complete H/V subset when ``scale`` is absent."""

    setting: MeasSetting
    count: float
    scale: Optional[float] = None

    def __post_init__(self):
        _require(self.setting, MeasSetting, "setting")
        if not (_isfinite(self.count) and self.count >= 0):
            raise ValueError("counts must be finite and non-negative")
        if self.scale is not None and not (_isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be finite and positive")


def _list_of(kind, items, name: str) -> list:
    """``items`` as a list, each of which must be a ``kind``; the ``ValueError``
    names the type of the first that is not, or of ``items`` if not iterable."""
    try:
        items = list(items)
    except TypeError:
        raise ValueError(f"{name} must be {kind.__name__}s, got {type(items).__name__}") from None
    for item in items:
        if not isinstance(item, kind):
            raise ValueError(f"{name} must be {kind.__name__}s, got {type(item).__name__}")
    return items


@dataclass(frozen=True, eq=False)
class TomographyResult:
    rho_hat: DensityOperator
    log_likelihood: float
    iterations: int
    converged: bool
    gap: float
    log_likelihood_history: tuple = ()


def _chsh_terms(settings: Sequence[float]) -> list:
    """(sign, analyzer pairs) of each term of S = E(a,b) - E(a,b') + E(a',b)
    + E(a',b') for the angles (a, a', b, b'), read once from any iterable; a
    term's pairs are the canonical {a, a+90} x {b, b+90} in the order ++,
    +-, -+, --."""
    try:
        a, ap, b, bp = settings
    except (TypeError, ValueError):
        a = ap = b = bp = math.nan
    if not all(_isfinite(x) for x in (a, ap, b, bp)):
        raise ValueError(f"CHSH settings must be four finite angles, got {settings!r}")
    return [(sign, [(_analyzer(ta + da), _analyzer(tb + db))
                    for da in (0.0, 90.0) for db in (0.0, 90.0)])
            for sign, (ta, tb) in zip(_CHSH_SIGNS, ((a, b), (a, bp), (ap, b), (ap, bp)))]


def chsh_value(rho: DensityOperator,
               settings: Sequence[float] = DEFAULT_CHSH_ANGLES) -> float:
    """Bell parameter S = E(a,b) - E(a,b') + E(a',b) + E(a',b') of a two-qubit
    ``DensityOperator`` (anything else is a ``ValueError``), the exact value
    of ``chsh_from_counts``'s estimate: E(ta, tb) is the parity-signed sum of
    tr(rho P) over the projectors P of {ta, ta+90} x {tb, tb+90}, in degrees
    kept to 1e-6 as ``MeasSetting`` keeps them.  S is linear in rho, so a
    state of trace t has t S(rho / t)."""
    if not isinstance(rho, DensityOperator) or rho.dim != 4:
        raise ValueError("chsh_value requires a two-qubit DensityOperator")
    probs = _probabilities(rho, chsh_settings(settings)).reshape(4, 4)
    return float(np.dot(_CHSH_SIGNS, probs @ _PARITY))


def chsh_settings(settings: Sequence[float] = DEFAULT_CHSH_ANGLES) -> list[MeasSetting]:
    """The 16 analyzer pairs {a, a+90} x {b, b+90} for the four CHSH terms."""
    return [MeasSetting(x, y) for _, pairs in _chsh_terms(settings) for x, y in pairs]


def _count_table(records: Sequence[CountRecord]) -> dict:
    """Total count per analyzer pair, summed over repeated records."""
    table = {}
    for rec in _list_of(CountRecord, records, "records"):
        k = (rec.setting.analyzer_a, rec.setting.analyzer_b)
        table[k] = table.get(k, 0.0) + float(rec.count)
    return table


def _correlation_estimate(table: dict, terms, offset: float = 0.0) -> tuple[float, float]:
    """offset + sum_t w_t E_t and its Poisson standard deviation.

    Each term is (w_t, analyzers) with ``analyzers`` the canonical ((a+, b+),
    (a+, b-), (a-, b+), (a-, b-)) pairs of one complete basis, and
    E = (C++ + C-- - C+- - C-+) / sum(C).  The variance is g^T diag(C) g,
    where each count's gradient g sums over every term that uses it, so
    terms sharing counts get their covariance.
    """
    value = offset
    grad = {}
    for weight, analyzers in terms:
        try:
            c_pp, c_pm, c_mp, c_mm = (table[k] for k in analyzers)
        except KeyError as exc:
            raise ValueError(f"missing counts for analyzer pair {exc}") from None
        total = c_pp + c_pm + c_mp + c_mm
        if total <= 0:
            raise ValueError(f"zero total counts for analyzer pairs {analyzers}")
        e = (c_pp + c_mm - c_pm - c_mp) / total
        value += weight * e
        for k, sign in zip(analyzers, _PARITY):
            grad[k] = grad.get(k, 0.0) + weight * (sign - e) / total
    return value, math.sqrt(sum(table[k] * g**2 for k, g in grad.items()))


def chsh_from_counts(
    records: Sequence[CountRecord],
    settings: Sequence[float] = DEFAULT_CHSH_ANGLES,
) -> tuple[float, float]:
    """Estimate S and its standard deviation from 16 coincidence counts.

    Per CHSH term, E = (C(a,b) + C(a+,b+) - C(a,b+) - C(a+,b)) / sum(C); the
    error bar propagates Poisson variances through S, counts shared by
    repeated angles included.  Records with a circular analyzer (L or R)
    are ignored.
    """
    return _correlation_estimate(_count_table(records), _chsh_terms(settings))


def tomography_settings() -> list[MeasSetting]:
    """Product analyzer set {H, V, D, R} x {H, V, D, R}: 16 settings,
    informationally complete for two qubits."""
    names = ("H", "V", "D", "R")
    return [MeasSetting(a, b) for a in names for b in names]


def stokes_settings() -> list[MeasSetting]:
    """Three complete correlation bases (HV, DA, RL products): 12 settings,
    enough for a direct Bell-state fidelity estimate."""
    return [MeasSetting(a, b) for basis in _STOKES_BASES for a in basis for b in basis]


def simulate_counts(
    rho: DensityOperator,
    settings: Sequence[MeasSetting],
    totals: Union[float, Sequence[float]],
    seed: int,
) -> list[CountRecord]:
    """Poisson coincidence counts with mean total * <projector>.

    ``totals`` is the per-setting expected total (scalar broadcast).  The
    ``seed`` must be a non-negative integer, and fixes every count.
    """
    _require(rho, DensityOperator, "state")
    if rho.dim != 4:
        raise ValueError("simulate_counts requires a two-qubit state")
    settings = _list_of(MeasSetting, settings, "settings")
    try:
        totals_arr = np.broadcast_to(totals, (len(settings),))
    except ValueError:
        raise ValueError("totals must be a scalar or one per setting") from None
    totals_arr = _finite(totals_arr, float, "totals must be finite and positive")
    if not (totals_arr > 0).all():
        raise ValueError("totals must be finite and positive")
    probs = np.clip(_probabilities(rho, settings), 0.0, 1.0)
    _integer_arg("seed", seed)
    return _poisson_records(settings, totals_arr * probs, totals_arr.tolist(), seed,
                            "totals are too large to draw Poisson counts")


def _poisson_records(settings, means, scales, seed, message: str) -> list[CountRecord]:
    """Records of Poisson(means) counts drawn in order from ``default_rng(seed)``,
    with exposures ``scales``; a mean beyond NumPy's limit is ``ValueError(message)``."""
    try:
        counts = np.random.default_rng(seed).poisson(means).tolist()
    except ValueError:
        raise ValueError(message) from None
    return [CountRecord(s, n, scale=scale) for s, n, scale in zip(settings, counts, scales)]


def _projector_stack(settings: Sequence[MeasSetting]) -> np.ndarray:
    return np.array([s.joint_projector() for s in settings]).reshape(-1, 4, 4)


def _probabilities(rho: DensityOperator, settings: Sequence[MeasSetting]) -> np.ndarray:
    """The Born rule: tr(rho P) for the joint projector P of each setting."""
    return np.real(np.einsum("ij,kji->k", rho.matrix, _projector_stack(settings)))


@functools.lru_cache(maxsize=8)
def _setting_model(settings: tuple):
    """Read-only flat projectors (K, 16) and design pseudo-inverse (16, K),
    shared by every fit; the rank is checked at ``matrix_rank``'s threshold."""
    projs = _projector_stack(settings)
    u, s, vh = np.linalg.svd(projs.transpose(0, 2, 1).reshape(-1, 16), full_matrices=False)
    if s.size < 16 or s[-1] <= np.finfo(float).eps * max(len(settings), 16) * s[0]:
        raise ValueError("settings are not informationally complete")
    pinv = (vh.conj().T / s) @ u.conj().T
    return _freeze(projs.reshape(-1, 16)), _freeze(pinv)


def _record_scales(records: Sequence[CountRecord]) -> np.ndarray:
    """Each record's N, the one normalisation of tomography: both estimators
    invert n / N.  Without a ``scale``, N is the H/V subset's count total."""
    scales = np.array([r.scale if r.scale is not None else np.nan for r in records])
    if not np.any(np.isnan(scales)):
        return scales
    table = _count_table(records)
    total = sum(table.get((a, b), 0.0) for a in "HV" for b in "HV")
    if total <= 0:
        raise ValueError(
            "records carry no scale and no complete H/V subset to estimate it"
        )
    return np.where(np.isnan(scales), total, scales)


def _read_records(records: Sequence[CountRecord]):
    """The records' flat projectors, counts n and scales N, and the
    Hermitian part of the linear inversion pinv @ (n / N) as a 4x4 matrix."""
    records = _list_of(CountRecord, records, "records")
    flat_projs, pinv = _setting_model(tuple(r.setting for r in records))
    counts = np.array([float(r.count) for r in records])
    scales = _record_scales(records)
    chi = (pinv @ (counts / scales)).reshape(4, 4)
    return flat_projs, counts, scales, 0.5 * (chi + chi.conj().T)


def tomo_linear(records: Sequence[CountRecord]) -> np.ndarray:
    """Linear inversion of the frequencies n / N, divided by its trace.

    Returns a read-only, complex, Hermitian, trace-one 4x4 array.  Positivity
    is not guaranteed, so it is not a ``DensityOperator``.
    """
    chi = _read_records(records)[-1]
    tr = float(np.real(np.trace(chi)))
    if abs(tr) < 1e-12:
        raise ValueError("degenerate counts: zero-trace linear estimate")
    return _freeze(chi / tr)


# Parameters: diag(T), then (Re, Im) of each entry below it in row-major order.
_BELOW_DIAGONAL = np.tril_indices(4, -1)


def _t_from_params(t: np.ndarray) -> np.ndarray:
    m = np.diag(t[:4].astype(complex))
    m[_BELOW_DIAGONAL] = t[4::2] + 1j * t[5::2]
    return m


# _PAIRS[:, a * 16 + b] is the flattened transpose of E_a^+ E_b, with E_a the
# matrix that parameter a multiplies in T, so that a projector stack times
# _PAIRS gives every tr(P_k E_a^+ E_b) at once.
_UNITS = np.array([_t_from_params(e) for e in np.eye(16)])
_PAIRS = np.einsum("aji,bjk->abki", _UNITS.conj(), _UNITS).reshape(256, 16).T

_GAP_TOLERANCE = 1e-6
_IDENTITY_16 = _freeze(np.eye(16))
_YY = _freeze(np.kron(PAULI_Y, PAULI_Y))  # the spin flip of concurrence


def _quadratic_forms(projs: np.ndarray) -> np.ndarray:
    """Q_k with tr(P_k T^+T) = t^T Q_k t, as a (K, 16, 16) real stack,
    contiguous so that the fit's ``forms @ t`` reads it in order."""
    return np.ascontiguousarray(np.real(projs.reshape(-1, 16) @ _PAIRS)).reshape(-1, 16, 16)


def _log_likelihood(probs, scales, seen, seen_counts, seen_scales) -> float:
    """sum_k n_k log(N_k p_k) - N_k p_k, given the fit's constants: the mask
    ``seen`` of n_k > 0 and the n_k and N_k it selects.  Settings with no
    counts add only -N_k p_k; a probability that is not positive under
    counts gives -inf."""
    mu = seen_scales * probs[seen]
    if not (mu > 0).all():
        return -math.inf
    return float(seen_counts @ np.log(mu) - scales @ probs)


def _newton_terms(t: np.ndarray, tt: np.ndarray, forms: np.ndarray, qt: np.ndarray,
                  weights: np.ndarray, bends: np.ndarray, excess: float):
    """Gradient and Hessian of the log-likelihood along the sphere |t| = 1
    at a unit vector t, given tt = t t^T, ``qt`` = forms @ t (the rows Q_k
    t, which the line search has computed), the weights w_k = n_k / q_k -
    N_k, ``bends`` = n_k / q_k^2 and ``excess`` = n - sum_k N_k q_k.  Here
    q_k = t^T Q_k t is p_k, n = sum_k n_k, and n_k / q_k is 0 where n_k = 0.

    With W = sum_k w_k Q_k, the gradient is 2 P W t and the Hessian P [2 W
    - 4 sum_k (n_k / q_k^2) (Q_k t)(Q_k t)^T - 2 (n - sum_k N_k q_k) I] P,
    where P = I - t t^T.  Since rho(t) ignores the scale of t, these are
    also the derivatives of the log-likelihood of rho(t) for steps
    orthogonal to t.
    """
    wt = weights @ qt
    grad = 2.0 * (wt - (t @ wt) * t)
    curvature = (2.0 * (weights @ forms.reshape(-1, 256)).reshape(16, 16)
                 - 4.0 * (qt.T * bends) @ qt)
    curvature.flat[::17] -= 2.0 * excess
    tangent = _IDENTITY_16 - tt
    return grad, tangent @ curvature @ tangent


def _newton_step(grad: np.ndarray, hess: np.ndarray, tt: np.ndarray) -> np.ndarray:
    """The ascent step |H|^-1 grad on the tangent plane of t, given tt = t
    t^T: see ``tomo_mle``."""
    m = tt - hess
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        lams, vecs = np.linalg.eigh(hess)
        return vecs @ ((vecs.T @ grad) / np.maximum(np.abs(lams), 1e-8 * np.abs(lams).max()))
    return np.linalg.solve(m, grad)


def _gap(weights: np.ndarray, probs: np.ndarray, flat_projs: np.ndarray) -> float:
    """lambda_max(Omega) - tr(Omega rho) with Omega = sum_k w_k P_k (P_k flat):
    since the log-likelihood is concave in rho, no state beats rho by more."""
    omega = (weights @ flat_projs).reshape(4, 4)
    return float(np.linalg.eigvalsh(omega)[-1] - weights @ probs)


def _integer_arg(name: str, value) -> int:
    try:
        index = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if index < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return index


def tomo_mle(
    records: Sequence[CountRecord],
    max_iterations: int = 10_000,
) -> TomographyResult:
    """Maximum-likelihood state reconstruction with a certified optimum.

    The state is rho = U T+T U+ / tr(T+T), with U a fixed unitary and T
    lower-triangular (16 real parameters t, |t|^2 = tr(T+T)), so positivity
    and unit trace hold by construction.  The Poisson log-likelihood sum_k
    (n_k log mu_k - mu_k) with mu_k = N_k <P_k> is maximized by Newton's
    method on the sphere |t| = 1, where the scale of t drops out.  With H the
    exact Hessian on the tangent plane, each step solves (t t^T - H) s =
    gradient where a Cholesky factorization shows that matrix positive
    definite (so is -H on the plane); else ``eigh`` solves with |H|,
    eigenvalues floored at 1e-8 of the largest.  It backtracks until the
    likelihood rises (Armijo).  A step whose predicted gain is below 1e-9,
    under rounding, is taken whole.

    The fit stops once ``gap`` = lambda_max(Omega) - tr(Omega rho), with
    Omega = sum_k (n_k / p_k - N_k) P_k, is at most 1e-6.  The likelihood is
    concave in rho, so in exact arithmetic no state has a log-likelihood
    above the estimate's plus ``gap``; ``converged`` means that certificate
    holds.  Otherwise, after ``max_iterations`` steps or when no step raises
    the likelihood, ``converged`` is False.  The reported
    ``log_likelihood`` is a float sum: it is within gamma_{K+4} sum_k (n_k
    (|log mu_k| + 1) + mu_k) of the exact value at the fit's p_k, where
    gamma_m = m u / (1 - m u), u = 2^-53 and K is the number of records.
    That is the summation bound of the two K-term sums plus the rounding of
    each product, log and the final difference.  So no other fit's reported
    log-likelihood exceeds this one's plus ``gap`` by more than the two
    fits' bounds; it can exceed it by an ulp or two.

    U holds the eigenvectors, eigenvalues ascending, of the linear inversion
    of n / N before its trace division, and T starts diagonal at the roots
    of those eigenvalues floored at 1e-6, so every p_k starts positive.  The
    fit runs on U+ P_k U.  ``log_likelihood_history`` holds the
    log-likelihood at the start, then at each iterate.
    """
    _integer_arg("max_iterations", max_iterations)
    flat_projs, counts, scales, chi = _read_records(records)
    seen, total = counts > 0, counts.sum()
    fixed = (scales, seen, counts[seen], scales[seen])  # _log_likelihood's constants

    # In the eigenbasis of chi, T's zero diagonal entries stay put near a
    # rank-deficient optimum; with U = I they drift and Newton turns linear.
    vals, basis = np.linalg.eigh(chi)
    t = np.zeros(16)
    t[:4] = np.sqrt(np.maximum(vals, 1e-6))
    t /= math.sqrt(t @ t)
    # vec(U+ P_k U) = vec(P_k) @ (conj(U) (x) U), the Kronecker product as a
    # broadcast product; the gap needs no rotation.
    rotation = (basis.conj()[:, None, :, None] * basis[:, None, :]).reshape(16, 16)
    forms = _quadratic_forms(flat_projs @ rotation)
    qt = forms @ t
    probs = qt @ t
    ll = _log_likelihood(probs, *fixed)

    history = []
    while True:
        history.append(ll)
        inverse = np.divide(1.0, probs, out=np.zeros_like(probs), where=seen)
        weights = counts * inverse - scales
        gap = _gap(weights, probs, flat_projs)
        if gap <= _GAP_TOLERANCE or len(history) > max_iterations:
            break
        tt = np.outer(t, t)
        grad, hess = _newton_terms(t, tt, forms, qt, weights, counts * inverse**2,
                                   total - scales @ probs)
        step = _newton_step(grad, hess, tt)
        slope = float(grad @ step)
        for _ in range(60):
            trial = t + step
            trial /= math.sqrt(trial @ trial)
            qt = forms @ trial
            probs = qt @ trial
            trial_ll = _log_likelihood(probs, *fixed)
            if (trial_ll >= ll + 1e-4 * slope
                    or (slope < 1e-9 and trial_ll > -math.inf)):
                break
            step *= 0.5
            slope *= 0.5
        else:
            break  # no step raises the likelihood: stop, uncertified
        t, ll = trial, trial_ll

    tm = _t_from_params(t) @ basis.conj().T
    g = tm.conj().T @ tm
    converged = gap <= _GAP_TOLERANCE
    if not converged:
        logger.warning("tomography MLE stopped after %d iterations with gap %.3g",
                       len(history) - 1, gap)
    return TomographyResult(
        rho_hat=DensityOperator(g / np.real(np.trace(g))),
        log_likelihood=ll,
        iterations=len(history) - 1,
        converged=converged,
        gap=gap,
        log_likelihood_history=tuple(history),
    )


def concurrence(rho: DensityOperator) -> float:
    """Wootters concurrence of a two-qubit state.

    With rho = W W^dagger, W = V sqrt(Lambda) over the eigenpairs above
    1e-14 lambda_max, the lambdas are the singular values of the symmetric
    matrix tau = W^T (Y(x)Y) W (Wootters, PRL 80, 2245, 1998).  No square
    root of a near-zero number is taken, so rank-deficient states keep full
    precision.  C is homogeneous: a state of trace t has t C(rho / t).
    """
    if not isinstance(rho, DensityOperator) or rho.dim != 4:
        raise ValueError("concurrence requires a two-qubit DensityOperator")
    vals, vecs = np.linalg.eigh(rho.matrix)
    keep = vals > 1e-14 * vals[-1]
    if not keep.any():
        return 0.0
    w = vecs[:, keep][:, ::-1] * np.sqrt(vals[keep][::-1])  # eigenvalues descending
    lams = np.linalg.svd(w.T @ _YY @ w, compute_uv=False)
    return float(max(0.0, lams[0] - np.sum(lams[1:])))


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1 - x) * math.log2(1 - x))


def entanglement_of_formation(rho: DensityOperator) -> float:
    """E = t h((1 + sqrt(1 - c^2)) / 2), h the binary entropy, c = C / t and
    t = tr rho: t E_F(rho / t), scaling with the trace as C does; 0 at t = 0."""
    c, t = concurrence(rho), rho.norm
    c = c / t if t > 0 else 0.0
    return t * _binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def monte_carlo_sd(
    records: Sequence[CountRecord],
    statistic: Callable[[Sequence[CountRecord]], float],
    n_resamples: int = 100,
    seed: int = 0,
) -> float:
    """Parametric-bootstrap standard deviation of a count statistic.

    Resample i redraws every count as Poisson(observed), seeded with (seed,
    i) for a non-negative integer ``seed``; the statistic's sample standard
    deviation over resamples is returned.  Resamples on which it raises or
    is not finite are excluded, with a warning log.
    """
    if _integer_arg("n_resamples", n_resamples) < 2:
        raise ValueError("need at least two resamples")
    records = _list_of(CountRecord, records, "records")
    if not callable(statistic):
        raise ValueError(f"statistic must be callable, got {type(statistic).__name__}")
    _integer_arg("seed", seed)
    settings, scales = [r.setting for r in records], [r.scale for r in records]
    lams = np.array([float(r.count) for r in records])
    values = []
    for i in range(n_resamples):
        resampled = _poisson_records(settings, lams, scales, (seed, i),
                                     "counts are too large to redraw as Poisson counts")
        try:
            value = float(statistic(resampled))
        except Exception:  # noqa: BLE001 - failed resamples are excluded by contract
            continue
        if math.isfinite(value):
            values.append(value)
    if len(values) < n_resamples:
        logger.warning("monte_carlo_sd: excluded %d of %d resamples after statistic failures",
                       n_resamples - len(values), n_resamples)
    if len(values) < 2:
        raise ValueError("too few successful resamples to estimate a spread")
    return float(np.std(values, ddof=1))


def bell_fidelity_from_counts(records: Sequence[CountRecord]) -> tuple[float, float]:
    """Direct fidelity to the HH-VV Bell pair from three correlation bases.

    Uses F = (1 + <ZZ> - <XX> + <YY>) / 4 with each correlation estimated
    from its complete 4-outcome basis; the error bar propagates Poisson
    variances.  Repeated records of one setting are summed.
    """
    return _correlation_estimate(_count_table(records), [
        (0.25 * sign, [(x, y) for x in basis for y in basis])
        for sign, basis in zip((1.0, -1.0, 1.0), _STOKES_BASES)], offset=0.25)


@dataclass(frozen=True)
class DelayScanModel:
    """Complementary-basis coincidence model against path delay.

    ``coherence_fwhm`` is the FWHM of the Gaussian interference envelope in
    the same units as the delays (micrometres by convention).
    """

    background: float
    visibility: float
    coherence_fwhm: float

    def __post_init__(self):
        for name in ("background", "visibility", "coherence_fwhm"):
            if not _isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.coherence_fwhm <= 0:
            raise ValueError("coherence FWHM must be positive")
        if self.background <= 0:
            raise ValueError("background count level must be positive")


def delay_scan(model: DelayScanModel, delays) -> tuple[np.ndarray, np.ndarray]:
    """Coincidence curves B (1 + V g) / 2 and B (1 - V g) / 2, with g a
    Gaussian envelope of FWHM equal to the coherence length.

    With the sign V = -<XX> (|Phi-> has V = 1), the first curve is the
    crossed port, P(D, Dbar) + P(Dbar, D) at zero delay for B = 1, and the
    second the parallel port, P(D, D) + P(Dbar, Dbar).
    """
    _require(model, DelayScanModel, "model")
    d = _finite(delays, float, "delays must be finite")
    vg = model.visibility * np.exp(-4.0 * math.log(2.0) * (d / model.coherence_fwhm) ** 2)
    return model.background * (1.0 + vg) / 2.0, model.background * (1.0 - vg) / 2.0


@dataclass(frozen=True, eq=False)
class GaussianFitResult:
    visibility: float
    coherence_fwhm: float
    background: float
    residuals: np.ndarray
    converged: bool


def gaussian_fit(delays, counts_dd, counts_ddbar) -> GaussianFitResult:
    """Weighted least-squares fit of the delay-scan model by variable projection.

    ``counts_dd`` takes ``delay_scan``'s first curve, the crossed D-Dbar
    port under V = -<XX>, and ``counts_ddbar`` its second.  Poisson weights
    1/sqrt(max(c, 1)) on both curves; V in [0, 1.5], B > 0.  Per width L,
    the model is linear in a = B/2 and b = BV/2 and the normal equations
    give them (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973); outside
    the bounds, V is 0 or 1.5, whichever is cheaper.  log L is searched on
    [span/50, 10 span] (span: the delay range), 17 widths a round, zooming
    to the best one's neighbours until the bracket is below 1e-9 relative.
    ``converged`` is False at an end of that range, as when V = 0 leaves the
    width undetermined.  ``residuals`` are weighted, ``counts_dd``'s first.
    """
    d, dd, ddbar = (_finite(c, float, "delays and counts must be finite")
                    for c in (delays, counts_dd, counts_ddbar))
    if d.ndim != 1 or d.size < 5 or dd.shape != d.shape or ddbar.shape != d.shape:
        raise ValueError("need at least five 1-D delays and counts of equal length")
    y = np.concatenate([dd, ddbar])
    if (y < 0).any() or not y.any():
        raise ValueError("counts must be non-negative and not all zero")
    span = float(d.max() - d.min())
    if span <= 0:
        raise ValueError("delay points must span a nonzero range")

    w = 1.0 / np.sqrt(np.maximum(y, 1.0))
    yw = y * w
    ends = lo, hi = math.log(span / 50.0), math.log(10.0 * span)
    while True:
        log_widths = np.linspace(lo, hi, 17)
        g = np.exp(-4.0 * math.log(2.0) * (d / np.exp(log_widths)[:, None]) ** 2)
        h = np.concatenate([g, -g], axis=1) * w  # weighted column of b, per width
        s11, s12, s22 = w @ w, h @ w, np.einsum("ki,ki->k", h, h)
        r1, r2 = w @ yw, h @ yw
        det = s11 * s22 - s12**2
        num_a, num_b = s22 * r1 - s12 * r2, s11 * r2 - s12 * r1
        free = (det > 0) & (num_a > 0) & (num_b >= 0) & (num_b <= 1.5 * num_a)
        # Candidates per width: the free fit (V = 0 where it breaks a bound), V = 1.5.
        top = w + 1.5 * h
        a_top = (top @ yw) / np.einsum("ki,ki->k", top, top)
        a_free = np.divide(num_a, det, out=np.full(det.shape, r1 / s11), where=free)
        b_free = np.divide(num_b, det, out=np.zeros(det.shape), where=free)
        a, b = np.stack([a_free, a_top]), np.stack([b_free, 1.5 * a_top])
        res = yw - a[..., None] * w - b[..., None] * h
        cost = np.einsum("jki,jki->jk", res, res)
        cost[1, a_top <= 0] = np.inf
        j, k = np.unravel_index(np.argmin(cost), cost.shape)
        if hi - lo < 1e-9:
            break
        lo, hi = log_widths[max(k - 1, 0)], log_widths[min(k + 1, log_widths.size - 1)]
    a_fit, b_fit = float(a[j, k]), float(b[j, k])
    model = DelayScanModel(2.0 * a_fit, b_fit / a_fit, math.exp(log_widths[k]))
    return GaussianFitResult(model.visibility, model.coherence_fwhm, model.background,
                             (np.concatenate(delay_scan(model, d)) - y) * w,
                             bool(ends[0] < log_widths[k] < ends[1]))


def transform_limited_fwhm(wavelength: float, bandwidth: float) -> float:
    """Coherence length (FWHM) of a Gaussian spectrum:
    (2 ln2 / pi) lambda^2 / dlambda, same length units in and out."""
    if not (_isfinite(wavelength) and _isfinite(bandwidth) and wavelength > 0 and bandwidth > 0):
        raise ValueError("wavelength and bandwidth must be finite and positive")
    try:
        fwhm = (2.0 * math.log(2.0) / math.pi) * float(wavelength)**2 / float(bandwidth)
    except OverflowError:
        fwhm = math.inf
    if not math.isfinite(fwhm):
        raise ValueError("the coherence length wavelength**2 / bandwidth is beyond the float range")
    return fwhm
