"""Tests of the benchmark itself.

Run from the repository root with

    python3 -m pytest benchmarks/selftest.py -q

The file name keeps it out of the default pytest collection, so the
library's own test run neither picks these up nor pays for them.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """One set-up, the shortest traced passes, records in a temporary dir."""
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "trace_ops", 1 if cls is workloads.PaperRun else 8)


def _run(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.01", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_passes_and_reports_declared_metrics(tiny, capsys, workload, trace,
                                                      section):
    result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", ["link_states", "paper_run"])
def test_traced_counts_repeat_exactly(tiny, capsys, workload):
    counted = [name for name, unit in run.per_layer_units().items()
               if unit == "count" or name.endswith("success_probability")]
    first, second = (_run(capsys, workload, 1)["metrics"] for _ in range(2))
    assert [first[k]["value"] for k in counted] == [second[k]["value"] for k in counted]


def test_self_times_of_traced_distribute_sum_to_its_span():
    mods = run.import_dfslink()
    wl = workloads.LinkStates(mods, seed=5)
    with Tracer(mods) as tracer:
        tracer.op_id = 0
        wl.run(wl.inputs(3))  # a 4-qubit input, so the span tree is deep
        tracer.op_id = None
    children = defaultdict(list)
    spans = {s[0]: s for s in tracer.spans}
    for span_id, _, _, _, parent, _ in tracer.spans:
        children[parent].append(span_id)

    def duration(i):
        return spans[i][3] - spans[i][2]

    def self_time(i):
        return duration(i) - sum(duration(c) for c in children[i])

    def subtree(i):
        return [i] + [j for c in children[i] for j in subtree(c)]

    (root,) = [s[0] for s in tracer.spans if s[1] == "dfs_protocol.distribute"]
    assert len(subtree(root)) > 5
    assert sum(self_time(i) for i in subtree(root)) == duration(root)
    by_name = defaultdict(int)
    for i in spans:
        by_name[spans[i][1]] += self_time(i)
    assert dict(by_name) == dict(tracer.self_ns)


def test_traced_run_restores_module_attributes():
    mods = run.import_dfslink()
    modules = [getattr(mods, layer) for layer in LAYERS]
    before = [dict(vars(m)) for m in modules]
    post_init = mods.qmath.DensityOperator.__post_init__
    wl = workloads.LinkSweep(mods, seed=5)
    wl.trace_ops = 2
    with Tracer(mods):
        assert mods.dfs_protocol.rotate_basis is not before[2]["rotate_basis"]
        assert mods.qmath.DensityOperator.__post_init__ is not post_init
    run.per_layer(mods, wl, 0.0, run.SpeedGauge())
    for module, saved in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in saved.items())
    assert mods.qmath.DensityOperator.__post_init__ is post_init


def test_failed_and_raising_ops_are_counted():
    class Flaky:
        def inputs(self, i):
            return i

        def run(self, i):
            if i == 1:
                raise ValueError("boom")
            return i

        def check(self, i, out):
            return i != 2

    latencies, attempted, failed, _ = run.run_ops(Flaky(), 0, 4)
    assert (len(latencies), attempted, failed) == (4, 4, 2)


def test_refuses_dfslink_outside_the_checkout(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    with pytest.raises(ImportError):
        run.import_dfslink()


def test_predictions_cover_every_per_layer_metric():
    predictions = json.loads((HERE / "predictions.json").read_text())
    assert set(predictions) == {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for entry in predictions.values():
        for workload, metrics in entry["moves"].items():
            assert workload in WORKLOAD_NAMES and set(metrics) <= end_to_end
        assert set(entry["no_change"]) <= set(WORKLOAD_NAMES)
