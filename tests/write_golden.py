"""Write ``golden_link.json``: checked-in outputs of the link and its baseline.

Run from the repository root::

    PYTHONPATH=src python tests/write_golden.py

The cases are a pure function of ``SEED``: 1-5-qubit inputs of random rank
sent through ``distribute`` and ``baseline_direct`` under H/V, circular,
random SU(2) and phased-diagonal bases, uniform and gaussian phase laws, with
jitter and the Dbar branch each on and off, and some spreads of 1e200 and
mean phases beyond 1e300.  Full outputs would not fit in the file, so each
case keeps, by ``repr``, the success and branch probabilities and three real
linear functionals of each output (its trace and tr(P rho) for two fixed
seeded Hermitian P), plus one sha256 over both outputs' bytes.
``tests/test_golden.py`` recomputes the cases and compares.
"""

import hashlib
import itertools
import json
import pathlib
import sys

import numpy as np

from dfslink.channels import CIRCULAR_BASIS, DephasingSpec
from dfslink.dfs_protocol import ProtocolInput, baseline_direct, distribute
from dfslink.qmath import DensityOperator

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


def main():
    cases = [record(case(i)[0]) for i in range(NUM_CASES)]
    header = {"seed": SEED, "numpy": np.__version__,
              "python": sys.version.split()[0], "cases": len(cases)}
    lines = ",\n".join(json.dumps(c, separators=(",", ":")) for c in cases)
    PATH.write_text(f'{{"meta":{json.dumps(header)},\n"cases":[\n{lines}\n]}}\n')
    print(f"wrote {len(cases)} cases, {PATH.stat().st_size} bytes, to {PATH}")


if __name__ == "__main__":
    main()
