"""In-memory spans around the benchmark's calls into utcat, and their self times.

A span is [name, start_ns, end_ns, parent, op, error]: `parent` is the index
of the enclosing span (None at top level), `op` the id of the op that made
the call and `error` the name of the exception raised out of the call, if
any.  Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def direct(name, fn, *args, **kwargs):
    """The untraced `call`: no span, no bookkeeping."""
    return fn(*args, **kwargs)


class Tracer:
    """The traced `call`: records one span per call it forwards."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def __call__(self, name, fn, *args, **kwargs):
        span = [name, time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else None, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "start_ns", "end_ns", "parent",
                                  "op", "error"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def layer_totals(spans, lo: int, hi: int, scales: dict) -> dict:
    """name -> {"s": self seconds, "calls", "errors"} over spans[lo:hi].

    Self time is a span's duration minus the durations of its direct
    children; spans never overlap their siblings, as calls are sequential.
    It is scaled by `scales[op]`, the op's measured-to-reference factor.
    """
    self_ns = {}
    for k in range(lo, hi):
        name, start, end, parent, _, _ = spans[k]
        self_ns[k] = self_ns.get(k, 0) + end - start
        if parent is not None and parent >= lo:
            self_ns[parent] = self_ns.get(parent, 0) - (end - start)
    out = defaultdict(lambda: {"s": 0.0, "calls": 0, "errors": 0})
    for k in range(lo, hi):
        name, _, _, _, op, error = spans[k]
        out[name]["s"] += self_ns[k] * 1e-9 * scales[op]
        out[name]["calls"] += 1
        out[name]["errors"] += error is not None
    return dict(out)
