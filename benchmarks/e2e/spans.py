"""In-memory span recorder for the traced run (benchmark-side only).

Spans wrap the benchmark's own calls into the program's public functions;
nothing inside ``src/repro`` is instrumented.  A layer's busy time is the
sum of the *self* times (span minus its direct children) of its spans.
"""

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def timed(fn):
    """``(seconds, fn())``."""
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


class SpanRecorder:
    def __init__(self, workload, run_id):
        self.workload, self.run_id = workload, run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self):
        """``{name: seconds}`` — every span's duration minus its children."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = defaultdict(float)
        for (name, *_rest), seconds in zip(self.spans, own):
            out[name] += seconds
        return out

    def span_cost_s(self, samples=20000):
        """Measured cost of recording one empty span (for overhead_share)."""
        scratch = SpanRecorder(self.workload, self.run_id)
        start = time.perf_counter()
        for _ in range(samples):
            with scratch.span("x"):
                pass
        return (time.perf_counter() - start) / samples

    def write_chrome(self, path):
        """Chrome ``trace_event`` JSON (loads in Perfetto / about:tracing)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        events = [{"name": name, "ph": "X", "pid": 0, "tid": 0,
                   "ts": start * 1e6, "dur": (end - start) * 1e6,
                   "args": {"id": i, "parent": parent,
                            "workload": self.workload, "run": self.run_id}}
                  for i, (name, start, end, parent) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
