"""In-memory span recorder for the traced benchmark run.

A span is one call through a wrapped function: its name, start and end on
one monotonic clock, the span that was open when it began (its parent) and
the top-level span it descends from (its run). Spans stay in a list while
the run goes on and are written out once at the end. Tracing is single
threaded, so a span's children never overlap one another.
"""

import csv
import functools
import importlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None      # sid of the enclosing span, None at top level
    run: int                # sid of the top-level span this one belongs to
    payload: object = None  # what a target's probe kept from the call

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Records a span per call of every function it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = {}
        self.probe_s = 0.0  # time spent in probes, all of it tracing overhead
        self._open = []     # (sid, run) of the spans now open, innermost last
        self._next = 0

    def wrap(self, fn, name, probe=None):
        """`fn` recording one span per call.

        `probe(args, kwargs, result)` runs after the span has closed and
        its return value is kept as the span's payload.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent, run = self._open[-1] if self._open else (None, sid)
            self._open.append((sid, run))
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._open.pop()
                span = Span(sid, name, start, end, parent, run)
                self.spans.append(span)
            if probe is not None:
                t = time.perf_counter()
                span.payload = probe(args, kwargs, result)
                self.probe_s += time.perf_counter() - t
            return result
        return traced

    def counter(self, fn, name):
        """`fn` counting its calls under `name`, with no span."""
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def write(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["sid", "name", "start", "end", "parent", "run"])
            for s in self.spans:
                w.writerow([s.sid, s.name, repr(s.start), repr(s.end),
                            "" if s.parent is None else s.parent, s.run])


def wrapper_costs(calls=20_000, rounds=5):
    """(seconds a span adds to a call, seconds a counter adds), on a no-op.

    The best of a few rounds, since the machine only ever adds time.
    """
    def noop():
        pass
    rec = Recorder()
    fns = {"bare": noop, "span": rec.wrap(noop, "noop"),
           "count": rec.counter(noop, "noop")}
    best = {}
    for _ in range(rounds):
        for name, fn in fns.items():
            t = time.perf_counter()
            for _ in range(calls):
                fn()
            per_call = (time.perf_counter() - t) / calls
            best[name] = min(best.get(name, per_call), per_call)
        rec.spans.clear()
    return (max(best["span"] - best["bare"], 0.0),
            max(best["count"] - best["bare"], 0.0))


def overhead_s(recorder, costs):
    """Time that tracing added to a run: wrappers, counters and probes."""
    span_cost, count_cost = costs
    return (len(recorder.spans) * span_cost
            + sum(recorder.counts.values()) * count_cost + recorder.probe_s)


def resolve(target):
    """(owner, attribute) for a dotted 'module:Attr.path' target, or None."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr


def install(patches):
    """Apply (target, make_wrapper) pairs; return (undo, missing targets).

    Targets are looked up where callers look them up, so a wrapper on
    'clood.ablate:train' sees the sweep's calls. A target that no longer
    exists is skipped and reported, and its metrics read zero calls.
    """
    applied, missing = [], []
    for target, make in patches:
        found = resolve(target)
        if found is None:
            missing.append(target)
            continue
        owner, attr = found
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        applied.append((owner, attr, original))

    def undo():
        for owner, attr, original in reversed(applied):
            setattr(owner, attr, original)
    return undo, missing


def self_times(spans):
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval that
    its direct children cover.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.name] = out.get(s.name, 0.0) + s.duration - covered
    return out
