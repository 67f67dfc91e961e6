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
from dataclasses import dataclass, field
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
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    StateVector,
    eig_hermitian,
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


def _analyzer_ket(a: Analyzer) -> StateVector:
    if isinstance(a, str):
        return _NAMED_ANALYZERS[a]
    theta = math.radians(float(a))
    return StateVector([math.cos(theta), math.sin(theta)])


def _canonical_angle(a: float) -> float:
    """A linear analyzer's angle mod 180 degrees, rounded to 6 digits; the
    second mod sends angles that round up to 180 back to 0."""
    return round(float(a) % 180.0, 6) % 180.0


@dataclass(frozen=True, eq=True)
class MeasSetting:
    """One joint analyzer setting: a polarization name (H/V/D/A/L/R) or a
    linear-polarizer angle in degrees per side."""

    analyzer_a: Analyzer
    analyzer_b: Analyzer
    # Built once per setting; read-only, and left out of eq, hash and repr.
    _projector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("analyzer_a", "analyzer_b"):
            a = getattr(self, name)
            if isinstance(a, str):
                if a not in _NAMED_ANALYZERS:
                    raise ValueError(f"unknown analyzer label {a!r}")
            elif not _isfinite(a):
                raise ValueError(f"analyzer angle must be finite, got {a!r}")
            else:
                object.__setattr__(self, name, _canonical_angle(a))
        object.__setattr__(self, "_projector", _freeze(
            np.kron(projector(_analyzer_ket(self.analyzer_a)),
                    projector(_analyzer_ket(self.analyzer_b)))))

    def joint_projector(self) -> np.ndarray:
        """The read-only 4x4 projector onto this setting's joint outcome."""
        return self._projector


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
    """``items`` as a list, each of which must be a ``kind``."""
    items = list(items)
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


def _pauli_observable(theta_deg: float) -> np.ndarray:
    t = math.radians(theta_deg)
    return math.cos(2 * t) * PAULI_Z + math.sin(2 * t) * PAULI_X


def _chsh_terms(settings: Sequence[float]) -> list:
    """(sign, analyzer pairs) of each term of S = E(a,b) - E(a,b') + E(a',b)
    + E(a',b') for the angles (a, a', b, b'); a term's pairs are
    {a, a+90} x {b, b+90} in the order ++, +-, -+, --."""
    if len(settings) != 4 or not all(_isfinite(a) for a in settings):
        raise ValueError(f"CHSH settings must be four finite angles, got {settings!r}")
    a, ap, b, bp = settings
    return [(sign, [(ta + da, tb + db) for da in (0.0, 90.0) for db in (0.0, 90.0)])
            for sign, ta, tb in ((1.0, a, b), (-1.0, a, bp), (1.0, ap, b), (1.0, ap, bp))]


def chsh_value(rho: DensityOperator,
               settings: Sequence[float] = DEFAULT_CHSH_ANGLES) -> float:
    """Bell parameter S = E(a,b) - E(a,b') + E(a',b) + E(a',b') of a
    two-qubit ``DensityOperator``; any other input is a ``ValueError``.

    E(ta, tb) is the expectation of sigma(ta) (x) sigma(tb) with
    sigma(t) = cos(2t) Z + sin(2t) X; angles in degrees.
    """
    if not isinstance(rho, DensityOperator) or rho.dim != 4:
        raise ValueError("chsh_value requires a two-qubit DensityOperator")

    def corr(ta, tb):
        obs = np.kron(_pauli_observable(ta), _pauli_observable(tb))
        return float(np.real(np.trace(rho.matrix @ obs)))

    return sum(sign * corr(*pairs[0]) for sign, pairs in _chsh_terms(settings))


def chsh_settings(settings: Sequence[float] = DEFAULT_CHSH_ANGLES) -> list[MeasSetting]:
    """The 16 analyzer pairs {a, a+90} x {b, b+90} for the four CHSH terms."""
    return [MeasSetting(x, y) for _, pairs in _chsh_terms(settings) for x, y in pairs]


def _angle_key(a: Analyzer) -> Analyzer:
    """The one identity of an analyzer: a linear analyzer (H/V/D/A or an
    angle) is its canonical angle, rounded as ``MeasSetting`` rounds it; the
    circular analyzers L and R keep their names."""
    if isinstance(a, str):
        return {"H": 0.0, "V": 90.0, "D": 45.0, "A": 135.0}.get(a, a)
    return _canonical_angle(a)


def _count_table(records: Sequence[CountRecord]) -> dict:
    """Total count per analyzer-key pair, summed over repeated records."""
    table = {}
    for rec in records:
        k = (_angle_key(rec.setting.analyzer_a), _angle_key(rec.setting.analyzer_b))
        table[k] = table.get(k, 0.0) + float(rec.count)
    return table


def _correlation_estimate(table: dict, terms, offset: float = 0.0) -> tuple[float, float]:
    """offset + sum_t w_t E_t and its Poisson standard deviation.

    Each term is (w_t, analyzers) with ``analyzers`` the ((a+, b+), (a+, b-),
    (a-, b+), (a-, b-)) pairs of one complete basis, and
    E = (C++ + C-- - C+- - C-+) / sum(C).  The variance is g^T diag(C) g,
    where each count's gradient g sums over every term that uses it, so
    terms sharing counts get their covariance.
    """
    value = offset
    grad = {}
    for weight, analyzers in terms:
        keys = [(_angle_key(x), _angle_key(y)) for x, y in analyzers]
        try:
            c_pp, c_pm, c_mp, c_mm = (table[k] for k in keys)
        except KeyError as exc:
            raise ValueError(f"missing counts for analyzer pair {exc}") from None
        total = c_pp + c_pm + c_mp + c_mm
        if total <= 0:
            raise ValueError(f"zero total counts for analyzer pairs {analyzers}")
        e = (c_pp + c_mm - c_pm - c_mp) / total
        value += weight * e
        for k, sign in zip(keys, (1.0, -1.0, -1.0, 1.0)):
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
    records = _list_of(CountRecord, records, "records")
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

    ``totals`` is the per-setting expected total (scalar broadcast).
    Deterministic for a fixed seed.
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
    probs = np.real(np.einsum("ij,kji->k", rho.matrix, _projector_stack(settings)))
    probs = np.clip(probs, 0.0, 1.0)
    try:
        counts = np.random.default_rng(seed).poisson(totals_arr * probs)
    except ValueError:  # NumPy's limit on a Poisson mean
        raise ValueError("totals are too large to draw Poisson counts") from None
    return [
        CountRecord(setting, int(count), scale=float(total))
        for setting, count, total in zip(settings, counts, totals_arr)
    ]


def _projector_stack(settings: Sequence[MeasSetting]) -> np.ndarray:
    return np.array([s.joint_projector() for s in settings]).reshape(-1, 4, 4)


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
    total = sum(table.get((a, b), 0.0) for a in (0.0, 90.0) for b in (0.0, 90.0))
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


def _log_likelihood(probs: np.ndarray, counts: np.ndarray, scales: np.ndarray) -> float:
    """sum_k n_k log(N_k p_k) - N_k p_k; settings with no counts add only
    -N_k p_k, and a probability that is not positive under counts gives -inf."""
    seen = counts > 0
    mu = scales[seen] * probs[seen]
    if not (mu > 0).all():
        return -math.inf
    return float(counts[seen] @ np.log(mu) - scales @ probs)


def _newton_terms(t: np.ndarray, forms: np.ndarray, counts: np.ndarray,
                  scales: np.ndarray, qt: np.ndarray):
    """Gradient and Hessian of the log-likelihood along the sphere |t| = 1
    at a unit vector t, the weights w_k = n_k / p_k - N_k and the p_k, given
    ``qt`` = forms @ t (the rows Q_k t, which the line search has computed).

    With q_k = t^T Q_k t and W = sum_k w_k Q_k, the gradient is 2 P W t and
    the Hessian P [2 W - 4 sum_k (n_k / q_k^2) (Q_k t)(Q_k t)^T
    - 2 (n - sum_k N_k q_k) I] P, where P = I - t t^T and n = sum_k n_k.
    Since rho(t) ignores the scale of t, these are also the derivatives of
    the log-likelihood of rho(t) for steps orthogonal to t.
    """
    probs = qt @ t
    inverse = np.divide(1.0, probs, out=np.zeros_like(probs), where=counts > 0)
    weights = counts * inverse - scales
    wt = weights @ qt
    grad = 2.0 * (wt - (t @ wt) * t)
    curvature = (2.0 * (weights @ forms.reshape(-1, 256)).reshape(16, 16)
                 - 4.0 * (qt.T * (counts * inverse**2)) @ qt)
    curvature.flat[::17] -= 2.0 * (counts.sum() - scales @ probs)
    tangent = _IDENTITY_16 - np.outer(t, t)
    return grad, tangent @ curvature @ tangent, weights, probs


def _newton_step(grad: np.ndarray, hess: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The ascent step |H|^-1 grad on t's tangent plane: see ``tomo_mle``."""
    m = np.outer(t, t) - hess
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
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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
    if _integer_arg("max_iterations", max_iterations) < 0:
        raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
    flat_projs, counts, scales, chi = _read_records(records)

    # In the eigenbasis of chi, T's zero diagonal entries stay put near a
    # rank-deficient optimum; with U = I they drift and Newton turns linear.
    vals, basis = np.linalg.eigh(chi)
    t = np.r_[np.sqrt(np.maximum(vals, 1e-6)), np.zeros(12)]
    t = t / math.sqrt(t @ t)
    # vec(U+ P_k U) = vec(P_k) @ (conj(U) (x) U); the gap needs no rotation.
    forms = _quadratic_forms(flat_projs @ np.kron(basis.conj(), basis))
    qt = forms @ t
    ll = _log_likelihood(qt @ t, counts, scales)

    history = []
    while True:
        grad, hess, weights, probs = _newton_terms(t, forms, counts, scales, qt)
        history.append(ll)
        gap = _gap(weights, probs, flat_projs)
        if gap <= _GAP_TOLERANCE or len(history) > max_iterations:
            break
        step = _newton_step(grad, hess, t)
        slope = float(grad @ step)
        for _ in range(60):
            trial = t + step
            trial /= math.sqrt(trial @ trial)
            qt = forms @ trial
            trial_ll = _log_likelihood(qt @ trial, counts, scales)
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
    precision.
    """
    if not isinstance(rho, DensityOperator) or rho.dim != 4:
        raise ValueError("concurrence requires a two-qubit DensityOperator")
    vals, vecs = eig_hermitian(rho.matrix)
    keep = vals > 1e-14 * vals[0]
    if not keep.any():
        return 0.0
    w = vecs[:, keep] * np.sqrt(vals[keep])
    lams = np.linalg.svd(w.T @ _YY @ w, compute_uv=False)
    return float(max(0.0, lams[0] - np.sum(lams[1:])))


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1 - x) * math.log2(1 - x))


def entanglement_of_formation(rho: DensityOperator) -> float:
    """E = h((1 + sqrt(1 - C^2)) / 2) with h the binary entropy."""
    c = concurrence(rho)
    return _binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def monte_carlo_sd(
    records: Sequence[CountRecord],
    statistic: Callable[[Sequence[CountRecord]], float],
    n_resamples: int = 100,
    seed: int = 0,
) -> float:
    """Parametric-bootstrap standard deviation of a count statistic.

    Each resample redraws every count as Poisson(observed), in record order
    from one generator seeded with (seed, index), recomputes the statistic,
    and the sample standard deviation is returned.  Resamples on which the
    statistic raises are excluded and reported via a warning log.
    """
    if _integer_arg("n_resamples", n_resamples) < 2:
        raise ValueError("need at least two resamples")
    records = _list_of(CountRecord, records, "records")
    if not callable(statistic):
        raise ValueError(f"statistic must be callable, got {type(statistic).__name__}")
    lams = np.array([float(r.count) for r in records])
    values = []
    failures = 0
    for i in range(n_resamples):
        try:
            draws = np.random.default_rng((seed, i)).poisson(lams).tolist()
        except ValueError:  # NumPy's limit on a Poisson mean
            raise ValueError("counts are too large to redraw as Poisson counts") from None
        resampled = [CountRecord(r.setting, n, scale=r.scale) for r, n in zip(records, draws)]
        try:
            values.append(float(statistic(resampled)))
        except Exception:  # noqa: BLE001 - failed resamples are excluded by contract
            failures += 1
    if failures:
        logger.warning("monte_carlo_sd: excluded %d of %d resamples after statistic failures",
                       failures, n_resamples)
    if len(values) < 2:
        raise ValueError("too few successful resamples to estimate a spread")
    return float(np.std(values, ddof=1))


def bell_fidelity_from_counts(records: Sequence[CountRecord]) -> tuple[float, float]:
    """Direct fidelity to the HH-VV Bell pair from three correlation bases.

    Uses F = (1 + <ZZ> - <XX> + <YY>) / 4 with each correlation estimated
    from its complete 4-outcome basis; the error bar propagates Poisson
    variances.  Repeated records of one setting are summed.
    """
    records = _list_of(CountRecord, records, "records")
    terms = [(0.25 * sign, [(x, y) for x in basis for y in basis])
             for sign, basis in zip((1.0, -1.0, 1.0), _STOKES_BASES)]
    return _correlation_estimate(_count_table(records), terms, offset=0.25)


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
