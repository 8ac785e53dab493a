"""Per-layer spans recorded from outside the package.

Wrappers are installed on module attributes, so the package's own code is not
edited: every call that looks a function up through a patched binding is
timed. Some modules import functions by name (``oracle`` imports four solver
phases, ``cli`` imports the ingest entry points), so each binding is patched
and labelled with the span of the layer whose code makes the call; baseline
work therefore never inflates the solver phases.
"""
from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns

# (module, attribute, span). Bindings that share a span name are one function
# reached through different modules' globals.
BINDINGS = (
    ("radialflow.cli", "main", "cli.main"),
    ("radialflow.ingest", "parse_branch_table", "ingest.parse_branch_table"),
    ("radialflow.cli", "parse_branch_table", "ingest.parse_branch_table"),
    ("radialflow.ingest", "renumber_sequential", "ingest.renumber_sequential"),
    ("radialflow.cli", "renumber_sequential", "ingest.renumber_sequential"),
    ("radialflow.ingest", "validate_radial", "ingest.validate_radial"),
    ("radialflow.cli", "validate_radial", "ingest.validate_radial"),
    ("radialflow.solver", "solve", "solver.solve"),
    ("radialflow.solver", "find_leaf_nodes", "solver.find_leaf_nodes"),
    ("radialflow.solver", "compute_load_currents", "solver.compute_load_currents"),
    ("radialflow.solver", "backward_sweep", "solver.backward_sweep"),
    ("radialflow.solver", "forward_sweep", "solver.forward_sweep"),
    ("radialflow.solver", "check_convergence", "solver.check_convergence"),
    ("radialflow.solver", "compute_losses", "solver.compute_losses"),
    ("radialflow.oracle", "baseline_solve", "oracle.baseline_solve"),
    ("radialflow.oracle", "compute_load_currents", "oracle.compute_load_currents"),
    ("radialflow.oracle", "forward_sweep", "oracle.forward_sweep"),
    ("radialflow.oracle", "check_convergence", "oracle.check_convergence"),
    ("radialflow.oracle", "compute_losses", "oracle.compute_losses"),
)
SPANS = tuple(dict.fromkeys(span for _, _, span in BINDINGS))


class Tracer:
    """Accumulates, per span name, total and self time in ns and call count.

    A span's self time is its duration minus the durations of the spans it
    called directly.
    """

    def __init__(self):
        self.total_ns = dict.fromkeys(SPANS, 0)
        self.self_ns = dict.fromkeys(SPANS, 0)
        self.calls = dict.fromkeys(SPANS, 0)
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        found = set()
        for module_name, attr, span in BINDINGS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                self._saved.append((module, attr, fn))
                self._wrappers.append((module, attr, self._wrap(span, fn)))
                found.add(span)
        self.absent = [span for span in SPANS if span not in found]

    def _wrap(self, span: str, fn):
        stack = self._stack
        total_ns, self_ns, calls = self.total_ns, self.self_ns, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                total_ns[span] += elapsed
                self_ns[span] += elapsed - children[0]
                calls[span] += 1

        return traced

    def install(self) -> None:
        for module, attr, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, fn in self._saved:
            setattr(module, attr, fn)
