"""Outside-in layer trace for the traced run (``--trace 1``).

The program is not changed: the benchmark wraps public functions of each
``repro`` layer where their callers look them up, records one span per
call, and restores every original afterwards.

- A span records its name, start, end, parent and the id of the operation
  (diagnosis, plain run or campaign replay) it belongs to.  Spans stay in
  memory and are written out when the run ends.
- Each thread keeps its own span stack.  A span opened on a thread whose
  stack is empty (the ``threads`` engine's worker) is parented to the
  current operation's root span.
- Self time is a span's duration minus the part of it that its child spans
  cover.  Per-layer times are sums of self times, so together with the
  root spans' self time (``core.unattributed_s``) they add up to the summed
  duration of the operations (``trace.wall_s``).
- Functions imported with a module-level ``from`` are bound in the
  caller's module and are wrapped there (``repro.core.client.apply_patch``,
  ``repro.runtime.interpreter.compiled_program``, ...); methods are wrapped
  on their class.
- Per-instruction callbacks (``Scheduler.pick``, tracer ``on_step`` /
  ``on_mem``) are never wrapped: they run millions of times per pass.  PT
  encode, watchpoint traps and detectors therefore stay inside
  ``runtime.monitored_s`` / ``runtime.plain_s``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Spans recorded during set-up.  Their layers do cold, one-off work there
#: (front-end compile, slicing, GIR-to-Python compile) and only cache
#: lookups afterwards, which stay inside the caller's self time.
SETUP_SPANS = frozenset({"lang.compile", "analysis.slice", "runtime.compile"})

#: Spans recorded during the measured phase.
MEASURED_SPANS = frozenset({
    "instrument.plan", "instrument.apply",
    "runtime.plain", "runtime.monitored",
    "pt.decode",
    "core.client", "core.predictors", "core.ingest", "core.close",
    "core.refine", "core.sketch", "core.render",
    "fleet.encode", "fleet.decode",
})

#: The root span of one operation.
OP_SPAN = "op"

#: Span name -> the per-layer metric its summed self time is reported as.
SELF_TIME_METRIC = {
    "lang.compile": "lang.compile_s",
    "analysis.slice": "analysis.slice_s",
    "runtime.compile": "runtime.compile_s",
    "instrument.plan": "instrument.plan_s",
    "instrument.apply": "instrument.apply_s",
    "runtime.plain": "runtime.plain_s",
    "runtime.monitored": "runtime.monitored_s",
    "pt.decode": "pt.decode_s",
    "core.client": "core.client_self_s",
    "core.predictors": "core.predictors_s",
    "core.ingest": "core.ingest_s",
    "core.close": "core.close_self_s",
    "core.refine": "core.refine_s",
    "core.sketch": "core.sketch_s",
    "core.render": "core.render_s",
    "fleet.encode": "fleet.encode_s",
    "fleet.decode": "fleet.decode_s",
    OP_SPAN: "core.unattributed_s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[str]
    thread: int


class SpanRecorder:
    """Spans and counters of one phase, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: Span names recorded right now; wrappers of other layers only
        #: forward the call.
        self.active: frozenset = frozenset()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Optional[int] = None
        self._op: Optional[str] = None

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def push(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, self.clock(), float("nan"),
                                   parent, self._op, threading.get_ident()))
        stack.append(index)
        return index

    def pop(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack().pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order "
                               f"(innermost open span is {popped})")

    @contextlib.contextmanager
    def op(self, op_id: str) -> Iterator[int]:
        """The root span of one operation; spans opened inside it, on any
        thread, belong to ``op_id``."""
        if self._stack():
            raise RuntimeError("an operation span must be a root span")
        self._op = op_id
        self._root = None
        index = self.push(OP_SPAN)
        self._root = index
        try:
            yield index
        finally:
            self.pop(index)
            self._root = None
            self._op = None

    def take(self) -> Tuple[List[Span], Dict[str, int]]:
        """Hand over this phase's spans and counters and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [(span.end - span.start)
            - _covered(children.get(i, []), span.start, span.end)
            for i, span in enumerate(spans)]


def self_time_by_name(spans: List[Span]) -> Dict[str, float]:
    totals: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return totals


def durations(spans: List[Span], name: str) -> List[float]:
    return [span.end - span.start for span in spans if span.name == name]


def dump(path, phases: Dict[str, List[Span]]) -> None:
    """Write spans as JSON lines: phase, name, start, end, parent, op."""
    with open(path, "w") as out:
        for phase, spans in phases.items():
            for i, span in enumerate(spans):
                out.write(json.dumps({
                    "phase": phase, "id": i, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "op": span.op,
                    "thread": span.thread}) + "\n")


# -- wrapping the layers ------------------------------------------------------


class Wrapped:
    """Wrappers installed on modules and classes, restorable in one call."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make: Callable) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _timed(recorder: SpanRecorder, name, fn: Callable,
           after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span; ``name`` may be a function of the call's
    arguments.  ``after(counts, span, args, result)`` updates counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name(args) if callable(name) else name
        if span not in recorder.active:
            return fn(*args, **kwargs)
        index = recorder.push(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.pop(index)
        if after is not None:
            after(recorder.counts, span, args, result)
        return result

    return wrapper


def _count_module(counts, span, args, result):
    counts["lang.modules"] += 1


def _count_patch(counts, span, args, result):
    counts["instrument.patches"] += 1


def _count_run(counts, span, args, result):
    counts[span + "_runs"] += 1
    counts[span + "_steps"] += result.steps


def _count_predictors(counts, span, args, result):
    counts["core.predictors"] += len(result)


def _count_ingest(counts, span, args, result):
    if result is not None:
        counts["core.ingested"] += 1


def _count_iteration(counts, span, args, result):
    counts["core.iterations"] += 1


def _count_client_run(counts, span, args, result):
    client = args[0]
    if client.detectors:
        counts["detect.runs"] += 1
    if result.monitored is not None:
        counts["pt.trace_bytes"] += result.monitored.trace_bytes
        counts["hw.traps"] += len(result.monitored.traps)


def _count_envelope(counts, span, args, result):
    counts["fleet.envelopes"] += 1
    counts["fleet.envelope_bytes"] += len(args[1])
    if result is None:
        counts["fleet.quarantined"] += 1


def _run_span(args) -> str:
    interp = args[0]
    return "runtime.monitored" if interp.hooks else "runtime.plain"


def install(recorder: SpanRecorder) -> Wrapped:
    """Wrap every traced layer entry point; ``restore()`` undoes it."""
    from repro.analysis.context import AnalysisContext
    from repro.core import client, render, server
    from repro.core.client import GistClient
    from repro.core.server import DiagnosisCampaign, GistServer
    from repro.corpus import registry
    from repro.fleet import wire
    from repro.instrument.planner import InstrumentationPlanner
    from repro.pt.driver import PTDriver
    from repro.runtime import interpreter
    from repro.runtime.interpreter import Interpreter

    table = [
        (registry, "compile_source", "lang.compile", _count_module),
        (AnalysisContext, "slice_from", "analysis.slice", None),
        (interpreter, "compiled_program", "runtime.compile", None),
        (InstrumentationPlanner, "plan_window", "instrument.plan", None),
        (client, "apply_patch", "instrument.apply", _count_patch),
        (Interpreter, "run", _run_span, _count_run),
        (PTDriver, "decode_all", "pt.decode", None),
        (client, "extract_all", "core.predictors", _count_predictors),
        (GistClient, "run", "core.client", _count_client_run),
        (DiagnosisCampaign, "ingest_wire", "core.ingest", _count_ingest),
        (DiagnosisCampaign, "finish_iteration", "core.close",
         _count_iteration),
        (server, "refine", "core.refine", None),
        (server, "build_sketch", "core.sketch", None),
        (render, "render_sketch", "core.render", None),
        (GistServer, "receive", "fleet.decode", _count_envelope),
    ]
    table += [(wire, attr, "fleet.encode", None)
              for attr in sorted(vars(wire))
              if attr.startswith("encode_") and callable(getattr(wire, attr))]
    wrapped = Wrapped()
    for owner, attr, name, after in table:
        wrapped.wrap(owner, attr,
                     lambda fn, name=name, after=after:
                     _timed(recorder, name, fn, after))
    return wrapped
