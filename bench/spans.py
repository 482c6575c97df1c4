"""In-memory span recorder for the traced benchmark run.

Wrappers are installed on every name a ``multilevel_design`` module binds
from the layer table below, so a call is seen whichever module makes it (for
example ``simulator.student_information`` as well as the ``model_core``
original).  Each call records a span (name, start, end, parent); a layer's
self time is its spans' durations minus the time covered by their child
spans, and its inclusive time counts the outermost spans whole.  A name
that no module binds, or that is never called, reports zero calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

PACKAGE = "multilevel_design"

#: layer -> public function names whose calls are timed as that layer
LAYERS = {
    "simulator.rng_setup": ("replicate_streams",),
    "simulator.assignment_draw": ("draw_assignment",),
    "designs.randomization_draw": ("draw_randomization",),
    "designs.contamination_draw": ("draw_contamination",),
    "model_core.precision": ("solve_student_system",),
    "model_core.information": ("teacher_information", "student_information"),
    "model_core.pivot": ("treatment_variance",),
    "simulator.responses": ("generate_teacher_responses", "generate_student_responses"),
    "simulator.gls": ("gls_estimate",),
    "simulator.summaries": ("kde_density", "empirical_power"),
    "simulator.engine": ("simulate_anticipated_variance", "estimator_variance_study"),
}
#: the root span around ``cli.run``; its self time is artifact writing
ROOT = "cli.artifacts"
#: import plus ``parse_config``, timed outside ``cli.run``
SETUP = "cli.setup"
#: every layer the traced run reports, in the order of the benchmark doc
ALL_LAYERS = tuple(LAYERS) + (ROOT, SETUP)


class Tracer:
    """Records spans around wrapped calls and sums self time per layer."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, start ns, end ns, parent]
        self.calls = {layer: 0 for layer in ALL_LAYERS}
        self.self_ns = {layer: 0 for layer in ALL_LAYERS}
        self.incl_ns = {layer: 0 for layer in ALL_LAYERS}
        self.non_estimable = {layer: 0 for layer in ALL_LAYERS}
        self._name_index: dict[str, int] = {}
        self._open: list[int] = []
        self._child_ns: list[int] = []
        self._depth = {layer: 0 for layer in ALL_LAYERS}
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, layer: str) -> int:
        name = self._name_index.get(layer)
        if name is None:
            name = self._name_index[layer] = len(self.names)
            self.names.append(layer)
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.calls[layer] += 1
        self._depth[layer] += 1
        self._open.append(index)
        self._child_ns.append(0)
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        return index

    def _exit(self, index: int, layer: str) -> None:
        end = time.perf_counter_ns()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self._open.pop()
        self.self_ns[layer] += duration - self._child_ns.pop()
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.incl_ns[layer] += duration
        if self._child_ns:
            self._child_ns[-1] += duration

    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``layer``."""
        index = self._enter(layer)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if type(exc).__name__ == "NonEstimableError":
                self.non_estimable[layer] += 1
            raise
        finally:
            self._exit(index, layer)

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        return wrapper

    def install(self) -> int:
        """Wrap every layer function bound in a loaded package module.

        Returns the number of bindings wrapped."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in modules:
            namespace = vars(module)
            for layer, names in LAYERS.items():
                for attr in names:
                    original = namespace.get(attr)
                    if callable(original):
                        setattr(module, attr, self._wrap(layer, original))
                        self._patched.append((module, attr, original))
        return len(self._patched)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        """Write the recorded spans as JSON."""
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}))


def self_times_from_spans(path: Path) -> dict[str, int]:
    """Recompute per-layer self time (ns) from a span file written by dump."""
    data = json.loads(Path(path).read_text())
    names, spans = data["names"], data["spans"]
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, int] = {}
    for (name, start, end, _), covered in zip(spans, child):
        layer = names[name]
        out[layer] = out.get(layer, 0) + (end - start) - covered
    return out
