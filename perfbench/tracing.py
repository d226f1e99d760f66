"""In-memory spans around calls into the package, installed from outside.

`Tracer.wrap(owner, attr, name)` registers a wrapper for the function that
`owner` exposes as `attr` (a module global as its caller sees it, or a
method/classmethod on a class).  Wrappers are installed only inside
`Tracer.active(op_id)`, so an untraced operation runs unpatched code.
Each span keeps its name, start, end, parent and operation; counts are
attributed to the operation in which they were taken.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent_index, op_id]
        self.counts = defaultdict(lambda: defaultdict(float))  # op -> name -> n
        self._patches = []  # (owner, attr, original, replacement)
        self._stack = []
        self._op = None

    def wrap(self, owner, attr, name, count=None):
        """Register a span `name` around `owner.attr`.

        `count(args, kwargs, result)` may return {count_name: value}; it runs
        after the span has ended, so its cost is not charged to the layer.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    tracer.add_count(key, value)
            return result

        replacement = classmethod(traced) if is_classmethod else traced
        self._patches.append((owner, attr, raw, replacement))

    def add_count(self, name, value):
        self.counts[self._op][name] += value

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def active(self, op_id):
        """Install the wrappers and open the root span `op` of one operation."""
        for owner, attr, _raw, replacement in self._patches:
            setattr(owner, attr, replacement)
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None
            for owner, attr, raw, _replacement in reversed(self._patches):
                setattr(owner, attr, raw)

    def self_times(self):
        """{(op_id, name): seconds} of span durations minus child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            totals[(op, name)] += (end - start) - child_time[i]
        return totals

    def op_durations(self):
        """{op_id: seconds} of the root span of each traced operation."""
        return {op: end - start
                for name, start, end, parent, op in self.spans
                if parent < 0}

    def dump(self):
        """Spans as plain records for the result file."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent,
             "op": op}
            for name, start, end, parent, op in self.spans
        ]
