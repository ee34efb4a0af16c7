"""Outside-in span tracer for the lteusim layers.

The tracer times calls into the simulator from the benchmark's own
process: it rebinds every public function of the layer modules (and the
public methods of ``JointEvaluator``) to a timing wrapper, everywhere the
package holds a reference to it, and puts every original back on exit.
Nothing under ``src/`` is edited and nothing runs through a wrapper
outside the ``with tracer.installed()`` block.

Each call becomes a span: layer name, start, end, parent span and the
enclosing ``harness.run`` span (the request the span belongs to). Spans
live in flat arrays in memory; self time (span minus the time its direct
children cover) and call counts are accumulated as the spans close.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

LAYER_MODULES = ("scenario", "wifi", "rates", "game", "esn", "agents",
                 "harness")
# the batched evaluator is the hot layer of the game; its methods are
# reached through instances, so module rebinding alone would miss them
METHODS = (("game", "JointEvaluator", ("batch_utilities", "utilities",
                                       "utility_of")),)
REQUEST = "harness.run"
PACKAGE = "lteusim"


def _rows(result):
    return result.shape[0]  # (S, n_bs) utilities, one row per joint


def _exact(result):
    return 1 if result.exact else 0


# extra per-layer work counts: counter name -> (layer, fn(result) ->
# increment)
WORK_COUNTERS = {
    "game.batch_utilities.rows": ("game.batch_utilities", _rows),
    "agents.beta_expectation.exact": ("agents.beta_expectation", _exact),
}


class Tracer:
    """Span recorder; ``clock`` is injectable so tests can use a fake."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {c: 0 for c in WORK_COUNTERS}
        self._stack: list[list] = []  # [span index, child time]
        self._request = -1
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """A timing wrapper around ``fn`` that records spans as ``name``."""
        nid = self._name_id(name)
        counters = tuple((c, f) for c, (layer, f) in WORK_COUNTERS.items()
                         if layer == name)
        is_request = name == REQUEST
        stack, clock = self._stack, self.clock
        span_name, span_parent = self.span_name, self.span_parent
        span_request = self.span_request
        span_start, span_end = self.span_start, self.span_end
        self_s, calls, counts = self.self_s, self.calls, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            outer_request = self._request
            if is_request:
                self._request = idx
            span_request.append(self._request)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._request = outer_request
                span_start[idx] = start
                span_end[idx] = end
                duration = end - start
                self_s[nid] += duration - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += duration
            for counter, count in counters:
                counts[counter] += count(result)
            return result

        return traced

    # installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name in the loaded lteusim modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        for short in LAYER_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in public_functions(module):
                rebind(modules, fn, self.wrap(f"{short}.{attr}", fn),
                       self._patches)
        for short, cls_name, methods in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            for attr in methods:
                original = vars(cls)[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self.wrap(f"{short}.{attr}", original))

    def uninstall(self) -> None:
        restore(self._patches)

    @contextlib.contextmanager
    def installed(self):
        """Traced names are bound only inside this block."""
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # results ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict]:
        """{layer: {"self_s", "calls"}} over every span recorded so far."""
        return {name: {"self_s": self.self_s[i], "calls": self.calls[i]}
                for i, name in enumerate(self.names)}

    def save_spans(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))


def public_functions(module):
    """(name, function) pairs defined in ``module`` without a leading _."""
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


def package_modules():
    """The loaded lteusim modules, the package itself included."""
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(modules, original, replacement, patches) -> None:
    """Point every module-level name bound to ``original`` at
    ``replacement``, appending (module, name, original) to ``patches``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, replacement)


def restore(patches) -> None:
    """Undo ``patches`` in reverse order, emptying the list."""
    while patches:
        owner, attr, original = patches.pop()
        setattr(owner, attr, original)
