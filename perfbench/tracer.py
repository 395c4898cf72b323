"""Span tracer and the timing shims that feed it.

The benchmark measures every layer from outside the program: each shim
replaces one public entry point *where its caller looks it up* (a
module global or a class attribute) with a wrapper that records a span
around the original call.  Nothing under ``src/`` is edited; the shims
exist only while :func:`install` is in effect, so untraced runs execute
the program unmodified.

Spans are kept in memory (name, start, end, parent span, op id, thread,
attributes) and written at exit as Chrome trace-event JSON, which
Perfetto and ``chrome://tracing`` read.  Per-layer figures are *self*
time: a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    #: index of the enclosing span in :attr:`Tracer.spans` (None: root).
    parent: int | None = None
    op: int | None = None
    tid: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Nested per-thread spans over ``perf_counter_ns``.

    ``perf_counter_ns`` reads CLOCK_MONOTONIC on Linux, so spans recorded
    in the serve daemon and in the benchmark process share one time base
    and can be windowed against each other.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, op: int | None = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            name, time.perf_counter_ns(), parent=parent, op=op,
            tid=threading.get_ident(), attrs=attrs,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        if op is None:
            # A root without an explicit op id (a daemon-side request)
            # starts its own op; children inherit their root's.
            record.op = index if parent is None else self.spans[parent].op
        stack.append(index)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            stack.pop()

    def write_chrome(self, path: str, *, pid: int | None = None) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        write_chrome(path, [(pid or os.getpid(), self.spans)])


def write_chrome(path: str, groups) -> None:
    """Write ``[(pid, spans), ...]`` as one trace-event file."""
    events = []
    for pid, spans in groups:
        for index, span in enumerate(spans):
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": span.start_ns / 1e3,
                "dur": span.duration_ns / 1e3,
                "pid": pid,
                "tid": span.tid,
                "args": {
                    "index": index, "parent": span.parent, "op": span.op,
                    **span.attrs,
                },
            })
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def read_chrome(path: str) -> list[Span]:
    """Spans back from a file :func:`write_chrome` wrote (one pid)."""
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    spans = []
    for event in sorted(events, key=lambda e: e["args"]["index"]):
        args = dict(event["args"])
        del args["index"]
        start = round(event["ts"] * 1e3)
        spans.append(Span(
            event["name"], start, start + round(event["dur"] * 1e3),
            parent=args.pop("parent"), op=args.pop("op"),
            tid=event["tid"], attrs=args,
        ))
    return spans


# -- shims -------------------------------------------------------------------


def _lift_note(span, args, kwargs, result):
    span.attrs["ok"] = bool(result)


def _plan_note(span, args, kwargs, result):
    span.attrs["tested"] = len(result.tested_arrays)


def _doall_note(span, args, kwargs, result):
    span.attrs["marked"] = kwargs.get("marker") is not None


def _lrpd_note(span, args, kwargs, result):
    span.attrs["passed"] = bool(result.passed)


#: (module, attribute path, span name, annotator).  Each entry is the
#: name the *caller* resolves at call time, so patching it intercepts
#: exactly the calls the layer table describes.
TARGETS = (
    ("repro.frontend.dsl", "DslFrontend.lift", "frontend.lift", _lift_note),
    ("repro.frontend.pyloop", "PythonFrontend.lift", "frontend.lift", _lift_note),
    ("repro.runtime.orchestrator", "build_plan", "analysis.plan", _plan_note),
    ("repro.runtime.orchestrator", "LoopRunner.run", "runtime.run", None),
    ("repro.runtime.orchestrator", "run_serial", "runtime.serial_ref", None),
    ("repro.runtime.orchestrator", "pattern_signature",
     "runtime.profile.signature", None),
    ("repro.runtime.orchestrator", "run_doall", "runtime.doall", _doall_note),
    ("repro.runtime.speculative", "run_doall", "runtime.doall", _doall_note),
    ("repro.runtime.speculative", "analyze_shadows", "core.lrpd", _lrpd_note),
    ("repro.runtime.orchestrator", "finalize_doall", "runtime.commit", None),
    ("repro.runtime.speculative", "finalize_doall", "runtime.commit", None),
    ("repro.core.checkpoint", "Checkpoint.restore", "runtime.rollback", None),
    ("repro.runtime.speculative", "rerun_loop_serially",
     "runtime.rollback", None),
    ("repro.runtime.speculative", "rerun_values_serially",
     "runtime.rollback", None),
    ("repro.runtime.orchestrator", "rerun_loop_serially",
     "runtime.rollback", None),
    ("repro.analysis.dependence", "measure_shadow_distances",
     "runtime.recovery", None),
    ("repro.runtime.engines.doacross", "DoacrossEngine.recover",
     "runtime.recovery", None),
    ("repro.service.server", "LoopService.execute", "service.execute", None),
    ("repro.service.server", "report_payload", "service.encode", None),
    ("repro.service.server", "encode_message", "service.encode", None),
)


def _shim(tracer: Tracer, original, name: str, note):
    @functools.wraps(original)
    def shim(*args, **kwargs):
        with tracer.span(name) as span:
            result = original(*args, **kwargs)
            if note is not None:
                note(span, args, kwargs, result)
            return result

    return shim


def install(tracer: Tracer, targets=TARGETS) -> list[tuple]:
    """Patch every target; returns what :func:`uninstall` restores."""
    saved = []
    for module_name, attr_path, span_name, note in targets:
        owner = importlib.import_module(module_name)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        setattr(owner, attr, _shim(tracer, original, span_name, note))
        saved.append((owner, attr, original))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


@contextmanager
def installed(tracer: Tracer):
    saved = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(saved)


# -- aggregation -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children
    (children of one span run on its thread, one after another)."""
    own = [span.duration_ns for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration_ns
    return own


@dataclass
class LayerTotals:
    """Self-time and annotation sums over the spans in a window."""

    self_ns: dict[str, int] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    flags: dict[tuple[str, str], int] = field(default_factory=dict)
    values: dict[tuple[str, str], float] = field(default_factory=dict)
    #: duration of root spans (no parent) per name.
    root_ns: dict[str, int] = field(default_factory=dict)

    @classmethod
    def collect(
        cls, spans: list[Span], keep=lambda span: True,
        factor=lambda span: 1.0,
    ) -> "LayerTotals":
        """Sum the spans ``keep`` selects, each time multiplied by
        ``factor(span)`` (the rescale to reference speed)."""
        totals = cls()
        own = self_times(spans)
        for span, ns in zip(spans, own):
            if not keep(span):
                continue
            ns = round(ns * factor(span))
            name = span.name
            totals.self_ns[name] = totals.self_ns.get(name, 0) + ns
            totals.calls[name] = totals.calls.get(name, 0) + 1
            if span.parent is None:
                totals.root_ns[name] = totals.root_ns.get(name, 0) + round(
                    span.duration_ns * factor(span)
                )
            for key, value in span.attrs.items():
                if isinstance(value, bool):
                    totals.flags[name, key] = (
                        totals.flags.get((name, key), 0) + int(value)
                    )
                elif isinstance(value, (int, float)):
                    totals.values[name, key] = (
                        totals.values.get((name, key), 0.0) + value
                    )
        return totals

    def ms_per_op(self, name: str, ops: int) -> float:
        return self.self_ns.get(name, 0) / 1e6 / max(ops, 1)

    def frac(self, name: str, flag: str) -> float:
        calls = self.calls.get(name, 0)
        return self.flags.get((name, flag), 0) / calls if calls else 0.0

    def mean(self, name: str, key: str) -> float:
        calls = self.calls.get(name, 0)
        return self.values.get((name, key), 0.0) / calls if calls else 0.0
