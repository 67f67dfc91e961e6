"""Benchmark of the dfslink simulator, end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload link_sweep --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  The benchmark imports
``dfslink`` from ``src/`` next to this directory and refuses to run on any
other copy.  It runs on one thread: BLAS is pinned to one thread before NumPy
loads and no worker is started.

A run sets up ``SETUP_RUNS`` times (a fresh import of ``dfslink``, input
generation and warm-up ops) and reports the median set-up time, then runs ops
in a closed loop, one at a time, for ``--seconds`` and checks every op's
outputs.  With ``--trace 0`` it reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes over the run's first
ops and reports, for each traced function, its calls per op and its share of
op time spent in its own code (self time); the counts come from the first
traced pass and repeat exactly for a seed.

Times are reported at a nominal machine speed: between stretches of work a
fixed reference kernel measures how fast the machine runs at that moment (see
``SpeedGauge``), and each stretch's times are scaled by it.  The metadata keeps
the wall-clock figures as well.

The last line of standard output is the result as one JSON object.  The line
before it holds the run's metadata, and ``.bench_out/`` receives both, plus
the spans of the first traced pass.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from tracer import LAYERS, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_RUNS = 5
WARMUP_BASE = 10**9  # op indices of warm-up ops, disjoint from the timed ones
WINDOW_S = 0.1       # measured work between two readings of the speed gauge
REF_SECONDS = 0.025  # length of one reading
REF_PER_S = 25_000.0  # reference-kernel rate that defines the nominal speed

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "passed_fraction": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, name in TRACED:
        units[f"{layer}.{name}.calls"] = "count"
        units[f"{layer}.{name}.self_share"] = "fraction"
    units["dfs_protocol.distribute.success_probability"] = "fraction"
    units["analysis.tomo_mle.iterations"] = "count"
    units["analysis.tomo_mle.not_converged"] = "count"
    units["analysis.monte_carlo_sd.failed_resamples"] = "count"
    units["trace.untraced_ops_per_s"] = "1/s"
    units["trace.traced_ops_per_s"] = "1/s"
    return units


def import_dfslink() -> SimpleNamespace:
    """Import the four layers afresh from this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "dfslink" or n.startswith("dfslink.")]:
        del sys.modules[name]
    mods = SimpleNamespace(
        **{layer: importlib.import_module(f"dfslink.{layer}") for layer in LAYERS})
    for module in vars(mods).values():
        if not Path(module.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"{module.__name__} was imported from {module.__file__}, "
                              f"not from {SRC}")
    return mods


class SpeedGauge:
    """How fast this machine runs right now, from a fixed reference kernel.

    On a shared host the speed of a virtual CPU can drift by a fifth or more
    over tens of seconds, and every CPU-bound op drifts with it.  The kernel
    (small NumPy linear algebra and Python object churn, no dfslink code)
    runs for ``REF_SECONDS`` after each stretch of measured work;
    ``scale()`` returns the factor that converts the time of the stretch
    since the previous call into time at the nominal speed, at which the
    kernel runs ``REF_PER_S`` times a second.
    """

    def __init__(self):
        m = np.random.default_rng(0).normal(size=(8, 8)) + 0j
        self._m = m + m.T
        self._last = self._rate()

    def _rate(self) -> float:
        calls = 0
        start = time.perf_counter()
        while (elapsed := time.perf_counter() - start) < REF_SECONDS:
            np.kron(self._m[:2, :2], self._m[:4, :4])
            np.linalg.eigvalsh(self._m)
            {j: 2 * j for j in range(20)}
            calls += 1
        return calls / elapsed

    def scale(self) -> float:
        rate = self._rate()
        factor = (self._last + rate) / (2.0 * REF_PER_S)
        self._last = rate
        return factor


def set_up(workload: str, seed: int, gauge: SpeedGauge):
    """Import, generate inputs and warm up ``SETUP_RUNS`` times.

    Returns the last set-up's modules and workload and every set-up's time
    at nominal speed.
    """
    times = []
    gauge.scale()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        mods = import_dfslink()
        wl = WORKLOADS[workload](mods, seed)
        for k in range(wl.warmup_ops):
            wl.run(wl.inputs(WARMUP_BASE + k))
        times.append((time.perf_counter() - start) * gauge.scale())
    return mods, wl, times


def run_ops(wl, first: int, stop: int, deadline=None, tracer=None):
    """Run ops ``first, first + 1, ...`` in a closed loop, checking each;
    stop before ``stop`` or, with a deadline, at the first op boundary past it.

    Returns (latencies in s, attempted, failed, wall time in s).
    """
    latencies = []
    attempted = failed = 0
    start = time.perf_counter()
    for i in range(first, stop):
        if deadline is not None and attempted and time.perf_counter() >= deadline:
            break
        inp = wl.inputs(i)
        attempted += 1
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = wl.run(inp)
        except Exception:  # noqa: BLE001 - a raising op counts as failed
            latencies.append(time.perf_counter() - t0)
            failed += 1
            traceback.print_exc()
            continue
        finally:
            if tracer is not None:
                tracer.op_id = None
        latencies.append(time.perf_counter() - t0)
        if not wl.check(inp, out):
            failed += 1
            print(f"op {i} failed its correctness check", file=sys.stderr)
    return latencies, attempted, failed, time.perf_counter() - start


def end_to_end(wl, seconds: float, setup_s: float, gauge: SpeedGauge):
    first_op_at = time.perf_counter()
    raw, scaled = [], []
    attempted = failed = 0
    wall = nominal = 0.0
    gauge.scale()
    deadline = time.perf_counter() + seconds
    while not attempted or time.perf_counter() < deadline:
        lat, a, f, w = run_ops(wl, attempted, sys.maxsize,
                               deadline=time.perf_counter() + WINDOW_S)
        factor = gauge.scale()
        raw += lat
        scaled += [x * factor for x in lat]
        attempted, failed = attempted + a, failed + f
        wall, nominal = wall + w, nominal + w * factor
    raw_ms, scaled_ms = np.array(raw) * 1e3, np.array(scaled) * 1e3
    passed = attempted - failed
    values = {
        "setup_s": setup_s,
        "ops_per_s": passed / nominal,
        "op_ms_p50": float(np.percentile(scaled_ms, 50)),
        "op_ms_p90": float(np.percentile(scaled_ms, 90)),
        "passed_fraction": passed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(raw)
    meta = {
        "process_start_to_first_op_s": first_op_at - PROCESS_START,
        "samples": {"op_ms_p50": n, "op_ms_p90": n, "beyond_p90": n - math.ceil(0.9 * n)},
        "wall_s": wall,
        "nominal_s": nominal,
        "wall_ops_per_s": passed / wall,
        "wall_op_ms_p50": float(np.percentile(raw_ms, 50)),
        "wall_op_ms_p90": float(np.percentile(raw_ms, 90)),
    }
    return values, END_TO_END_UNITS, attempted, failed, meta, None


def per_layer(mods, wl, seconds: float, gauge: SpeedGauge):
    n_ops = wl.trace_ops
    tracer = Tracer(mods)
    untraced_s = traced_s = 0.0  # at nominal speed
    traced_op_s = 0.0  # wall time inside traced ops, the base of the self-time shares
    attempted = failed = passes = 0
    counts = None
    gauge.scale()
    deadline = time.perf_counter() + seconds
    with tracer:
        while passes == 0 or time.perf_counter() < deadline:
            _, a, f, wall = run_ops(wl, 0, n_ops)
            untraced_s += wall * gauge.scale()
            attempted, failed = attempted + a, failed + f
            resamples_before = getattr(wl, "failed_resamples", 0)
            latencies, a, f, wall = run_ops(wl, 0, n_ops, tracer=tracer)
            traced_s += wall * gauge.scale()
            traced_op_s += sum(latencies)
            attempted, failed = attempted + a, failed + f
            if counts is None:
                counts = (dict(tracer.calls), dict(tracer.extra),
                          getattr(wl, "failed_resamples", 0) - resamples_before)
                tracer.keep_spans = False
            passes += 1
    calls, extra, failed_resamples = counts
    traced_ops = passes * n_ops
    values = {}
    for layer, name in TRACED:
        key = f"{layer}.{name}"
        values[f"{key}.calls"] = calls.get(key, 0) / n_ops
        values[f"{key}.self_share"] = tracer.self_ns[key] / 1e9 / traced_op_s
    n_distribute = calls.get("dfs_protocol.distribute", 0)
    values["dfs_protocol.distribute.success_probability"] = (
        extra.get("dfs_protocol.distribute.success_probability_sum", 0.0) / n_distribute
        if n_distribute else 0.0)
    for key in ("analysis.tomo_mle.iterations", "analysis.tomo_mle.not_converged"):
        values[key] = extra.get(key, 0) / n_ops
    values["analysis.monte_carlo_sd.failed_resamples"] = failed_resamples / n_ops
    values["trace.untraced_ops_per_s"] = traced_ops / untraced_s
    values["trace.traced_ops_per_s"] = traced_ops / traced_s
    meta = {"trace_ops_per_pass": n_ops, "passes": passes,
            "untraced_nominal_s": untraced_s, "traced_nominal_s": traced_s}
    return values, per_layer_units(), attempted, failed, meta, tracer.spans


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run one workload; return (result, metadata, spans)."""
    gauge = SpeedGauge()
    mods, wl, setup_times = set_up(workload, seed, gauge)
    if trace:
        values, units, attempted, failed, meta, spans = per_layer(mods, wl, seconds, gauge)
    else:
        values, units, attempted, failed, meta, spans = end_to_end(
            wl, seconds, statistics.median(setup_times), gauge)
    meta.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "ops": attempted,
        "failed_fraction": failed / attempted,
        "setup_runs_s": setup_times,
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, meta, spans


def _write_record(result, meta, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    record = {"meta": meta, "result": result}
    if spans is not None:
        record["spans"] = {"fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                           "rows": spans}
    path.write_text(json.dumps(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, meta, spans = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _write_record(result, meta, spans)
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        print(json.dumps({"meta": meta}))
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
