"""The link, its baseline and the analysis stack against checked-in outputs
(``golden_link.json``, ``golden_analysis.json``).

``tests/write_golden.py`` wrote the files and defines their cases.  By
default every stored link number is compared within 1e-12, which holds
across NumPy versions.  The analysis cases compare CHSH, the Bell fidelity
and the exact state's concurrence within 1e-12, the delay-scan fit within
1e-8 relative (its bracket stops at 1e-9), ``converged`` exactly, and the
MLE log-likelihood within both fits' gaps and stated rounding bounds.  With
``DFSLINK_GOLDEN_EXACT=1`` the reprs, the sha256 of the link output bytes
and the stored counts (redrawn) must match exactly.
"""

import json
import math
import os

import pytest

from write_golden import (ANALYSIS_COMBINATIONS, ANALYSIS_PATH, NUM_CASES, PATH, analyse, case,
                          draw_counts, record)

EXACT = os.environ.get("DFSLINK_GOLDEN_EXACT") == "1"
TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def golden():
    return json.loads(PATH.read_text())


def test_golden_file_is_small_and_complete(golden):
    assert PATH.stat().st_size < 200_000
    assert golden["meta"]["cases"] == len(golden["cases"]) == NUM_CASES >= 500


def _mismatches(stored, now):
    if EXACT:
        return [key for key in stored if stored[key] != now[key]]
    flat = [(f"{key}[{j}]", a, b) for key in ("link", "base")
            for j, (a, b) in enumerate(zip(stored[key], now[key]))]
    flat.append(("p", stored["p"], now["p"]))
    if list(stored["branches"]) != list(now["branches"]):
        return ["branches"]
    flat += [(k, v, now["branches"][k]) for k, v in stored["branches"].items()]
    return [name for name, a, b in flat
            if not math.isclose(float(a), float(b), rel_tol=0.0, abs_tol=TOLERANCE)]


def test_link_outputs_match_golden(golden):
    # record() runs each case with overflow, invalid and divide raising.
    failures = []
    for i, stored in enumerate(golden["cases"]):
        inp, label = case(i)
        bad = _mismatches(stored, record(inp))
        if bad:
            failures.append(f"{label}: {', '.join(bad)}")
    assert not failures, f"{len(failures)} cases differ:\n" + "\n".join(failures[:20])


@pytest.fixture(scope="module")
def golden_analysis():
    return json.loads(ANALYSIS_PATH.read_text())


def test_golden_analysis_file_is_small_and_complete(golden_analysis):
    assert ANALYSIS_PATH.stat().st_size < 50_000
    assert golden_analysis["meta"]["cases"] == len(golden_analysis["cases"])
    assert len(golden_analysis["cases"]) == len(ANALYSIS_COMBINATIONS)


def _analysis_mismatches(stored, now):
    if EXACT:
        return [key for key in stored if stored[key] != now[key]]
    bad = [key for key in ("converged", "fit_converged") if stored[key] != now[key]]
    bad += [key for key in ("chsh", "chsh_sd", "fidelity", "fidelity_sd", "exact_concurrence")
            if not math.isclose(float(stored[key]), float(now[key]),
                                rel_tol=0.0, abs_tol=TOLERANCE)]
    bad += [key for key in ("V", "L", "B")
            if not math.isclose(float(stored[key]), float(now[key]), rel_tol=1e-8)]
    slack = sum(max(float(fit["gap"]), 0.0) + float(fit["ll_bound"]) for fit in (stored, now))
    if abs(float(stored["log_likelihood"]) - float(now["log_likelihood"])) > slack:
        bad.append("log_likelihood")
    return bad


def test_analysis_outputs_match_golden(golden_analysis):
    # analyse() runs each case with overflow, invalid and divide raising.
    failures = []
    for i, stored in enumerate(golden_analysis["cases"]):
        bad = _analysis_mismatches(stored["results"], analyse(i, stored))
        if EXACT:
            drawn = draw_counts(i)
            bad += [key for key in drawn if drawn[key] != stored[key]]
        if bad:
            failures.append(f"analysis case {i} {ANALYSIS_COMBINATIONS[i]}: {', '.join(bad)}")
    assert not failures, f"{len(failures)} cases differ:\n" + "\n".join(failures)
