"""Span tracing of the bomp layers from outside the library.

``Tracer.install`` replaces every binding of the traced public functions in
every loaded ``bomp`` module with a wrapper that records a span (id, parent,
name, start, end, thread) and a few exact counters. Callers inside the
package bind these names with ``from .x import y``, so the wrapper has to
replace the name in each calling module, not only where it is defined.
``Tracer.uninstall`` puts every original back.

Spans opened on a pool thread with nothing open on that thread take as
parent the innermost span open on the thread that installed the tracer;
that thread is blocked inside ``run_experiment`` while the pool works.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time

# (module that defines it, function name) -> layer name used in metric names
LAYERS = {
    ("bomp.solver", "select_block"): "solver.select",
    ("bomp.solver", "project_least_squares"): "solver.project",
    ("bomp.solver", "run_bomp"): "solver.run_bomp",
    ("bomp.core", "extract_blocks"): "core.extract_blocks",
    ("bomp.experiment", "generate_instance"): "experiment.generate",
    ("bomp.experiment", "run_experiment"): "experiment.run_experiment",
    ("bomp.rip", "exact_block_rip"): "rip.exact",
    ("bomp.proofs", "random_proof_instance"): "proofs.instance",
    ("bomp.proofs", "eta_direct"): "proofs.eta_direct",
    ("bomp.proofs", "eta_via_identity"): "proofs.eta_identity",
    ("bomp.proofs", "lemma1_check"): "proofs.lemma1",
}

# layers whose span count is reported as ``<layer>.calls``
COUNTED_CALLS = (
    "solver.select",
    "solver.project",
    "solver.run_bomp",
    "core.extract_blocks",
    "experiment.generate",
    "rip.exact",
)
SELF_TIMES = tuple(LAYERS.values())
COUNTERS = (
    "solver.iterations",
    "rip.supports",
    "rip.flops_computed",
    "experiment.trial_errors",
)
# every count that a run with fixed inputs must reproduce exactly; the
# number of pool threads that picked up work is left out on purpose
DETERMINISTIC = tuple(f"{layer}.calls" for layer in COUNTED_CALLS) + COUNTERS


def _counters(layer: str, args, result) -> dict:
    """Exact work counts of one call, read from its arguments and result."""
    if layer == "solver.run_bomp":
        return {"solver.iterations": result.iterations_run}
    if layer == "rip.exact":
        import bomp

        A, K = args[0], args[1]
        return {
            "rip.supports": math.comb(A.layout.num_blocks, K),
            "rip.flops_computed": bomp.enumeration_cost(A, K),
        }
    if layer == "experiment.run_experiment":
        return {
            "experiment.trial_errors": sum(r.error is not None for r in result.records)
        }
    return {}


class Span:
    __slots__ = ("id", "parent", "layer", "start", "end", "thread", "counters")

    def __init__(self, span_id, parent, layer, start, thread):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.start = start
        self.end = start
        self.thread = thread
        self.counters = {}


class Tracer:
    """Records spans for the traced bomp functions while installed."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._caller_stack: list = []
        self._finished: list = []
        self._replaced: list = []  # (module, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._caller_stack[-1] if self._caller_stack else None
            )
            span = Span(next(self._ids), parent, layer, 0.0, threading.get_ident())
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self._finished.append(span)
            span.counters = _counters(layer, args, result)
            return result

        traced.__bench_traced__ = True
        return traced

    def open_root(self) -> Span:
        """Start a span on the calling thread that parents one operation."""
        span = Span(next(self._ids), None, "op", time.perf_counter(), threading.get_ident())
        self._stack().append(span.id)
        return span

    def close_root(self, span: Span) -> list:
        """End ``span`` and return it with every span finished since it opened."""
        span.end = time.perf_counter()
        self._stack().pop()
        spans, self._finished = self._finished, []
        spans.append(span)
        return spans

    def install(self) -> None:
        if self._replaced:
            raise RuntimeError("tracer is already installed")
        self._caller_stack = self._stack()
        wrappers = {}
        for (module_name, name), layer in LAYERS.items():
            original = getattr(sys.modules[module_name], name)
            wrappers[id(original)] = (original, self._wrap(layer, original))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "bomp" or module_name.startswith("bomp.")):
                continue
            for attribute, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._replaced.append((module, attribute, value))
                    setattr(module, attribute, entry[1])

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._replaced):
            setattr(module, attribute, original)
        self._replaced = []


def traced_bindings() -> list:
    """Every ``module.attribute`` in loaded bomp modules still bound to a wrapper."""
    left = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "bomp" or module_name.startswith("bomp.")):
            continue
        for attribute, value in vars(module).items():
            if getattr(value, "__bench_traced__", False):
                left.append(f"{module_name}.{attribute}")
    return left


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list) -> dict:
    """Per-layer counts, self times and counters of one operation's spans.

    Self time is a span's duration minus the union of its children's
    intervals; the union matters where pool threads overlap.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    out = {f"{layer}.calls": 0 for layer in COUNTED_CALLS}
    out.update({f"{layer}.self_s": 0.0 for layer in SELF_TIMES})
    out.update({name: 0 for name in COUNTERS})
    threads = set()
    for span in spans:
        kids = children.get(span.id, [])
        if span.layer == "experiment.run_experiment":
            threads.update(kid.thread for kid in kids)
        if span.layer not in SELF_TIMES:
            continue
        self_s = (span.end - span.start) - _covered(
            span.start, span.end, [(kid.start, kid.end) for kid in kids]
        )
        out[f"{span.layer}.self_s"] += self_s
        if span.layer in COUNTED_CALLS:
            out[f"{span.layer}.calls"] += 1
        for name, value in span.counters.items():
            out[name] += value
    out["experiment.threads_seen"] = len(threads)
    return out
