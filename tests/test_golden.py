"""The link and its baseline against checked-in outputs (``golden_link.json``).

``tests/write_golden.py`` wrote the file and defines its cases.  By default
every stored number is compared within 1e-12, which holds across NumPy
versions; with ``DFSLINK_GOLDEN_EXACT=1`` the reprs and the sha256 of the
output bytes must match exactly.
"""

import json
import math
import os

import pytest

from write_golden import NUM_CASES, PATH, case, record

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
