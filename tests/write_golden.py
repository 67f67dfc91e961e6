"""Write ``golden_link.json`` and ``golden_analysis.json``: checked-in outputs
of the link, its baseline and the analysis stack.

Run from the repository root::

    PYTHONPATH=src python tests/write_golden.py

The link cases are a pure function of ``SEED``: 1-5-qubit inputs of random rank
sent through ``distribute`` and ``baseline_direct`` under H/V, circular,
random SU(2) and phased-diagonal bases, uniform and gaussian phase laws, with
jitter and the Dbar branch each on and off, and some spreads of 1e200 and
mean phases beyond 1e300.  Full outputs would not fit in the file, so each
case keeps, by ``repr``, the success and branch probabilities and three real
linear functionals of each output (its trace and tr(P rho) for two fixed
seeded Hermitian P), plus one sha256 over both outputs' bytes.

The analysis cases send Phi- through three specs (the two of the benchmark's
``paper_run`` and an H/V jitter of 1.5 rad) at 100 and 1000 expected counts
per setting.  Each stores its tomography, CHSH and Stokes counts and a
41-point delay scan as integers, with their scales, so that a comparison
reads no Poisson stream; two tomography sets carry no scale.  Each keeps, by
``repr``, ``tomo_mle``'s log-likelihood (and its stated rounding bound), gap,
iterations, ``converged`` and three functionals of ``rho_hat``, the
concurrence of ``rho_hat`` and of the exact state, CHSH and the Bell
fidelity with their sds, a 5-resample ``monte_carlo_sd`` of the MLE
concurrence, and ``gaussian_fit``'s V, L, B and ``converged``.
``tests/test_golden.py`` recomputes the cases and compares.
"""

import hashlib
import itertools
import json
import pathlib
import sys

import numpy as np

from conftest import rounding_bound
from dfslink import analysis as an
from dfslink.channels import CIRCULAR_BASIS, DephasingSpec
from dfslink.dfs_protocol import ProtocolInput, baseline_direct, distribute, prepare_phi_minus
from dfslink.qmath import PAULI_X, DensityOperator

SEED = 20260607
NUM_CASES = 520
PATH = pathlib.Path(__file__).with_name("golden_link.json")

KINDS = ("hv", "circular", "su2", "phased")
# Every combination of register size, basis kind, phase law, jitter and Dbar
# branch; case i takes combination i modulo their number.
COMBINATIONS = list(itertools.product(range(1, 6), KINDS, ("uniform", "gaussian"),
                                      (False, True), (False, True)))


def _basis(kind, rng):
    a, b, theta = rng.uniform(-np.pi, np.pi, 3)
    if kind == "hv":
        return np.eye(2, dtype=complex)
    if kind == "circular":
        return CIRCULAR_BASIS
    if kind == "phased":
        return np.diag(np.exp(1j * np.array([a, b])))
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[np.exp(1j * a) * c, -np.exp(-1j * b) * s],
                     [np.exp(1j * b) * s, np.exp(-1j * a) * c]])


def case(i):
    """The ``ProtocolInput`` of case ``i`` and a label naming its kind."""
    n, kind, law, jitter, dbar = COMBINATIONS[i % len(COMBINATIONS)]
    rng = np.random.default_rng((SEED, i))
    dim = 2**n
    rank = int(rng.integers(1, dim + 1))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    state = DensityOperator(m / np.trace(m).real)
    mean_phase = float(rng.uniform(-np.pi, np.pi))
    sigma = float(rng.uniform(0.0, 2.0))
    delta = float(rng.uniform(0.0, 1.5)) if jitter else 0.0
    if i % 7 == 3:
        sigma = 1e200
    if jitter and i % 7 == 5:
        delta = 1e200
    if i % 11 == 4:
        mean_phase = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e300, 1.7e308))
    spec = DephasingSpec(basis=_basis(kind, rng), mean_phase=mean_phase,
                         per_photon_sigma=sigma, delta_sigma=delta, distribution=law)
    label = f"case {i}: n={n} {kind} {law} jitter={jitter} dbar={dbar}"
    return ProtocolInput(state, spec, keep_dbar_branch=dbar), label


def observables(dim):
    """Two fixed seeded Hermitian matrices of dimension ``dim``."""
    out = []
    for j in range(2):
        rng = np.random.default_rng((SEED, dim, j))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        out.append(0.5 * (g + g.conj().T))
    return out


def functionals(rho):
    """repr of tr(rho) and of tr(P rho) for the two fixed P."""
    values = [rho.trace().real] + [np.einsum("ij,ji->", p, rho).real
                                   for p in observables(rho.shape[0])]
    return [repr(float(v)) for v in values]


def record(inp):
    """The stored entry of one case."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        outcome = distribute(inp)
        base = baseline_direct(inp)
        link = outcome.state.matrix
        return {
            "p": repr(float(outcome.success_probability)),
            "branches": {k: repr(float(v)) for k, v in outcome.branch_probabilities.items()},
            "link": functionals(link),
            "base": functionals(base.matrix),
            "sha256": hashlib.sha256(link.tobytes() + base.matrix.tobytes()).hexdigest(),
        }


ANALYSIS_PATH = pathlib.Path(__file__).with_name("golden_analysis.json")
# Gaussian specs: paper_run's collective and circular-jitter ones and an H/V
# jitter.  Case i takes combination i (spec, total per setting, whether the
# tomography records keep their scale): each spec and total twice, then two
# tomography sets without scales, which pins the H/V fallback.
ANALYSIS_SPECS = ({}, {"basis": CIRCULAR_BASIS, "per_photon_sigma": 1.0, "delta_sigma": 0.5},
                  {"delta_sigma": 1.5})
ANALYSIS_COMBINATIONS = [(j, total, True) for j in range(len(ANALYSIS_SPECS))
                         for total in (100.0, 1000.0) for _ in range(2)]
ANALYSIS_COMBINATIONS += [(1, 100.0, False), (2, 1000.0, False)]
RECORD_SETS = {"tomography": an.tomography_settings, "chsh": an.chsh_settings,
               "stokes": an.stokes_settings}
# paper_run's delay grid: 41 points over +-2.5 coherence lengths.
FWHM = an.transform_limited_fwhm(0.79, 0.003)
DELAYS = np.linspace(-2.5 * FWHM, 2.5 * FWHM, 41)
RESAMPLES = 5


def exact_state(j):
    """Phi- through analysis spec ``j``, the Dbar branch kept."""
    spec = DephasingSpec(distribution="gaussian", **ANALYSIS_SPECS[j])
    return distribute(ProtocolInput(prepare_phi_minus().density(), spec, True)).state


def draw_counts(i):
    """Analysis case ``i``'s counts as written: integers per record set and
    the delay scan's two curves, drawn from the exact state."""
    j, total, scaled = ANALYSIS_COMBINATIONS[i]
    rho = exact_state(j)
    seeds = [int(s) for s in np.random.default_rng((SEED, i)).integers(2**63, size=4)]
    sets = {name: {"counts": [r.count for r in an.simulate_counts(rho, settings(), total, seed)],
                   "scale": repr(total) if scaled or name != "tomography" else None}
            for seed, (name, settings) in zip(seeds, RECORD_SETS.items())}
    # The scan's background is twice the total, as in paper_run.
    visibility = -float(np.real(np.trace(rho.matrix @ np.kron(PAULI_X, PAULI_X))))
    curves = an.delay_scan(an.DelayScanModel(2.0 * total, visibility, FWHM), DELAYS)
    scan_rng = np.random.default_rng(seeds[3])
    sets["scan"] = [scan_rng.poisson(c).tolist() for c in curves]
    return sets


def records(stored, name):
    """The ``CountRecord``s of stored record set ``name``."""
    entry = stored[name]
    scale = None if entry["scale"] is None else float(entry["scale"])
    return [an.CountRecord(s, n, scale) for s, n in zip(RECORD_SETS[name](), entry["counts"])]


def analyse(i, stored):
    """The results of analysis case ``i`` on its stored counts."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        tomo = records(stored, "tomography")
        fit = an.tomo_mle(tomo)
        s, s_sd = an.chsh_from_counts(records(stored, "chsh"))
        f, f_sd = an.bell_fidelity_from_counts(records(stored, "stokes"))
        sd = an.monte_carlo_sd(tomo, lambda r: an.concurrence(an.tomo_mle(r).rho_hat),
                               n_resamples=RESAMPLES, seed=i)
        dd, ddbar = stored["scan"]
        scan = an.gaussian_fit(DELAYS, dd, ddbar)
        values = {
            "log_likelihood": fit.log_likelihood,
            "ll_bound": rounding_bound(tomo, fit.rho_hat),
            "gap": fit.gap, "iterations": fit.iterations, "converged": fit.converged,
            "rho_hat": functionals(fit.rho_hat.matrix),
            "concurrence": an.concurrence(fit.rho_hat),
            "exact_concurrence": an.concurrence(exact_state(ANALYSIS_COMBINATIONS[i][0])),
            "chsh": s, "chsh_sd": s_sd, "fidelity": f, "fidelity_sd": f_sd,
            "concurrence_sd": sd,
            "V": scan.visibility, "L": scan.coherence_fwhm, "B": scan.background,
            "fit_converged": scan.converged,
        }
        return {k: v if isinstance(v, list) else repr(v) for k, v in values.items()}


def _write(path, cases):
    header = {"seed": SEED, "numpy": np.__version__, "python": sys.version.split()[0],
              "cases": len(cases)}
    lines = ",\n".join(json.dumps(c, separators=(",", ":")) for c in cases)
    path.write_text(f'{{"meta":{json.dumps(header)},\n"cases":[\n{lines}\n]}}\n')
    print(f"wrote {len(cases)} cases, {path.stat().st_size} bytes, to {path}")


def main():
    _write(PATH, [record(case(i)[0]) for i in range(NUM_CASES)])
    cases = []
    for i in range(len(ANALYSIS_COMBINATIONS)):
        stored = draw_counts(i)
        cases.append({**stored, "results": analyse(i, stored)})
    _write(ANALYSIS_PATH, cases)


if __name__ == "__main__":
    main()
