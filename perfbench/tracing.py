"""Timing of the benchmark's calls into spmofdm, with optional spans.

Every call the benchmark makes into a library module runs inside
``Recorder.span(name)``. The span's duration is always added to the
current accumulator under ``<name>.s`` (the end-to-end metrics are built
from these sums). With tracing on, the span itself is also kept in
memory, with its start, end and parent, and written out once at the end
of the run. Spans are only opened by the benchmark's own files; nothing
inside ``src/`` is instrumented.

A span name starts with its layer: ``simulation``, ``analysis``,
``selection`` or ``codebook`` for library calls, ``bench`` for the
benchmark's own pass and job spans.
"""

import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.tracing = False
        self.spans = []  # [name, start, end, parent index or None]
        self._stack = []
        self.totals = {}

    def add(self, name, value):
        self.totals[name] = self.totals.get(name, 0) + value

    def collect(self):
        """Return the accumulator and start a fresh one."""
        out, self.totals = self.totals, {}
        return out

    @contextmanager
    def span(self, name):
        idx = None
        if self.tracing:
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, 0.0, 0.0, parent])
            self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.add(name + ".s", end - start)
            if idx is not None:
                self.spans[idx][1:3] = [start, end]
                self._stack.pop()


def layer_self_times(spans, lo, hi):
    """Self time per layer over spans[lo:hi], a range that holds whole span
    trees: each span's duration minus the time its direct children cover."""
    out = {}
    for name, start, end, parent in spans[lo:hi]:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start)
        if parent is not None:
            parent_layer = spans[parent][0].split(".", 1)[0]
            out[parent_layer] = out.get(parent_layer, 0.0) - (end - start)
    return out


def spans_json(spans):
    return [
        {"name": n, "start": s, "end": e, "parent": p}
        for n, s, e, p in spans
    ]
