"""Per-layer tracing for the benchmark.

The tracer wraps the public functions of the four ``dfslink`` layers in the
module namespaces where their callers look them up, and counts
``DensityOperator`` constructions at its ``__post_init__``.  While an op runs
(``op_id`` is set) every wrapped call records a span and adds its self time,
the span's duration minus the time its child spans cover.  Outside an op the
wrappers pass straight through, so set-up work and the benchmark's own
correctness checks are not counted.  Leaving the ``with`` block restores every
wrapped attribute.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

LAYERS = ("qmath", "channels", "dfs_protocol", "analysis")

# (layer, public name) pairs, in the order the metrics are reported.
TRACED = (
    ("qmath", "DensityOperator"),
    ("qmath", "tensor"),
    ("qmath", "eig_hermitian"),
    ("channels", "rotate_basis"),
    ("channels", "collective_dephase"),
    ("channels", "correlated_dephase"),
    ("channels", "apply_phase_damping"),
    ("dfs_protocol", "distribute"),
    ("dfs_protocol", "baseline_direct"),
    ("dfs_protocol", "encode_append"),
    ("dfs_protocol", "qpg_sift"),
    ("dfs_protocol", "decode"),
    ("analysis", "simulate_counts"),
    ("analysis", "tomo_linear"),
    ("analysis", "tomo_mle"),
    ("analysis", "concurrence"),
    ("analysis", "monte_carlo_sd"),
    ("analysis", "chsh_from_counts"),
    ("analysis", "bell_fidelity_from_counts"),
    ("analysis", "gaussian_fit"),
)


def _distribute_result(extra: Counter, outcome) -> None:
    extra["dfs_protocol.distribute.success_probability_sum"] += outcome.success_probability


def _tomo_mle_result(extra: Counter, result) -> None:
    extra["analysis.tomo_mle.iterations"] += result.iterations
    extra["analysis.tomo_mle.not_converged"] += not result.converged


# Counts read off a traced function's return value.
RESULT_HOOKS = {
    "dfs_protocol.distribute": _distribute_result,
    "analysis.tomo_mle": _tomo_mle_result,
}


class Tracer:
    """Spans, call counts and self times for the traced functions of ``mods``.

    ``mods`` holds the four layer modules as attributes.  Spans are tuples
    ``(span_id, name, start_ns, end_ns, parent_id, op_id)``; they are kept in
    memory only while ``keep_spans`` is true.
    """

    def __init__(self, mods):
        self.mods = mods
        self.op_id = None
        self.keep_spans = True
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.extra: Counter = Counter()
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _install(self) -> None:
        namespaces = [getattr(self.mods, layer) for layer in LAYERS]
        for layer, name in TRACED:
            module = getattr(self.mods, layer)
            if name == "DensityOperator":
                cls = module.DensityOperator
                self._patch(cls, "__post_init__",
                            self._wrap(f"{layer}.{name}", cls.__post_init__))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(f"{layer}.{name}", original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            frame = [self._next_id, 0]  # span id, time covered by child spans
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if self.keep_spans:
                    self.spans.append((frame[0], name, start, end, parent, self.op_id))
            if hook is not None:
                hook(self.extra, result)
            return result

        return traced
