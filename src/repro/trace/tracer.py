"""Deterministic causal tracing clocked off the simulated clock.

A :class:`Tracer` collects :class:`Span` records describing what one
logical operation did — agent op, directory lookup, invalidation fan-out,
storage round trip — as a tree linked by ``(trace_id, span_id,
parent_id)``.  The design constraints mirror the repository's analysis
rules:

* **Simulated time only** (DET01): spans are stamped with ``sim.now``;
  the tracer never reads a wall clock.
* **Deterministic identity** (DET03): trace/span ids come from plain
  counters, never ``id()`` or hashes, so two identically-seeded runs
  produce byte-identical exports regardless of ``PYTHONHASHSEED``.
* **Zero-cost no-op mode**: an unconfigured simulator carries the shared
  :data:`NULL_TRACER` whose ``active`` flag lets hot paths skip span
  construction entirely.

Context propagation is ambient: every :class:`~repro.sim.process.Process`
carries a ``trace_ctx`` slot, inherited from its spawner and updated as
spans open and close, so generator-based protocol code rarely needs to
thread contexts by hand.  RPC boundaries carry the context explicitly in
``Message.trace``; passing ``trace=INHERIT`` at a call site (the default)
says "attach to whatever operation this process is serving".

Ended spans go to a columnar log, not to a list of objects: typed arrays
hold the ids, lanes and timestamps, two lists hold the name and category
strings, and attributes are packed as ``(shape_index, *values)`` tuples
whose keys live once in an interned table of attribute shapes.  A
:class:`Span` handle forgets its process and contexts when it ends, so
once a traced simulation drains, nothing in the tracer reaches a
process, a generator or a span object.  :attr:`Tracer.spans` is a live,
read-only view that rebuilds :class:`Span` records from the log on
demand.
"""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class TraceContext:
    """Position inside one span tree, carried across process boundaries.

    Treat it as a value: one object is shared by its span, the processes
    running under it and the messages that carry it.  It is not frozen
    because one is built per span, and a frozen dataclass builds at about
    a third of the speed.
    """

    trace_id: int
    span_id: int


class _Inherit:
    """Sentinel: resolve the parent from the current process context."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "INHERIT"


#: Pass as ``parent=``/``trace=`` to propagate the ambient TraceContext.
INHERIT = _Inherit()

#: Log column value for "no parent" (span ids start at 1).
_NO_PARENT = -1
#: Packed attributes of a span without any (shape 0 is the empty shape).
_NO_ATTRS = (0,)


class Span:
    """One timed node of a trace tree.  Usable as a context manager.

    While open, a span is a live handle: :meth:`set` adds attributes and
    :meth:`end` logs it.  Once ended it is a read-only record that no
    longer references the process that opened it.  Spans compare by
    value, so a handle equals the record the log rebuilds for it.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "category",
                 "start_ms", "end_ms", "attrs", "tid",
                 "_tracer", "_process", "_prev_ctx", "_ctx")

    def __init__(self, tracer, trace_id, span_id, parent_id, name,
                 category, start_ms, attrs, tid, ctx=None, process=None,
                 prev_ctx=None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.attrs = attrs
        self.tid = tid
        self._tracer = tracer
        self._ctx: Optional[TraceContext] = ctx
        self._process = process
        self._prev_ctx: Optional[TraceContext] = prev_ctx

    @property
    def context(self) -> TraceContext:
        ctx = self._ctx
        if ctx is None:
            ctx = TraceContext(self.trace_id, self.span_id)
        return ctx

    @property
    def duration_ms(self) -> float:
        end = self.end_ms if self.end_ms is not None else self.start_ms
        return end - self.start_ms

    def set(self, key: str, value) -> "Span":
        """Attach/overwrite one attribute (e.g. ``status`` on timeout)."""
        if self.end_ms is not None:
            raise RuntimeError(f"{self!r} has ended; its attributes are "
                               f"already logged")
        self.attrs[key] = value
        return self

    def end(self) -> None:
        if self.end_ms is None:
            self._tracer._end(self)

    def to_dict(self) -> dict:
        end = self.end_ms if self.end_ms is not None else self.start_ms
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_ms": self.start_ms,
            "end_ms": end,
            "duration_ms": end - self.start_ms,
            "attrs": self.attrs,
            "tid": self.tid,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self is other or self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end_ms is None else f"{self.duration_ms:.3f}ms"
        return (f"Span({self.category}:{self.name} "
                f"t{self.trace_id}/s{self.span_id} {state})")


class _NullSpan:
    """Shared do-nothing span returned by :class:`NullTracer`."""

    __slots__ = ()
    context = None

    def set(self, key, value):
        return self

    def end(self):
        return None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()


class SpanView(Sequence):
    """Live, read-only sequence of a tracer's ended spans.

    ``len()`` reads the log's row count; indexing and iteration rebuild
    :class:`Span` records from the log, so ``list(tracer.spans)`` takes
    a snapshot.  Compares equal to any list or tuple of equal spans.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._names_col)

    def __getitem__(self, index: int) -> Span:
        rows = len(self)
        row = index + rows if index < 0 else index
        if not 0 <= row < rows:
            raise IndexError("span index out of range")
        return self._tracer._record(row)

    def __eq__(self, other) -> bool:
        if isinstance(other, (SpanView, list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpanView of {len(self)} span(s)>"


class Tracer:
    """Per-run span collector bound to one :class:`Simulator`.

    Spans are handed out by :meth:`span` (context manager) and logged in
    *closure* order once ended; only completed spans are exported.
    ``open_spans()`` exposes whatever is still running — a drained
    simulation must leave it empty.
    """

    active = True

    def __init__(self):
        self._sim = None
        # The span log: one row per ended span, in closure order.
        self._trace_ids_col = array("q")
        self._span_ids_col = array("q")
        self._parent_ids_col = array("q")   # _NO_PARENT for roots
        self._lanes_col = array("q")
        self._starts_col = array("d")
        self._ends_col = array("d")
        self._names_col: list = []
        self._categories_col: list = []
        self._attrs_col: list = []          # (shape index, *values)
        # Attribute key tuples by shape index, and their index lookup.
        self._shapes: list = [()]
        self._shape_index: dict = {(): 0}
        # One shared copy of each span name (many are built by f-string).
        self._names: dict = {}
        # Span id -> open span, in opening order.
        self._open: dict = {}
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        # Chrome-export lanes, numbered by first use: a process keeps its
        # lane id in its ``trace_lane`` slot; code outside any process
        # uses the "driver" lane.
        self._lane_names: list = []
        self._driver_lane = -1
        # Context for code running outside any sim process.
        self._ambient: Optional[TraceContext] = None
        self._view = SpanView(self)

    # -- wiring -------------------------------------------------------

    def bind(self, sim) -> "Tracer":
        if self._sim is not None and self._sim is not sim:
            raise ValueError("Tracer is already bound to another Simulator")
        self._sim = sim
        return self

    @property
    def sim(self):
        return self._sim

    # -- context handling ---------------------------------------------

    def current(self) -> Optional[TraceContext]:
        """The TraceContext of the running process (or ambient code)."""
        process = self._sim.active_process if self._sim is not None else None
        if process is not None:
            return process.trace_ctx
        return self._ambient

    def resolve(self, parent) -> Optional[TraceContext]:
        """Normalize a ``parent=``/``trace=`` argument to a context."""
        if parent is INHERIT:
            return self.current()
        if parent is None or isinstance(parent, TraceContext):
            return parent
        if isinstance(parent, Span):
            return parent.context
        raise TypeError(f"not a trace parent: {parent!r}")

    def _new_lane(self, process) -> int:
        """Number the lane of ``process`` (None = driver) on first use."""
        lane = len(self._lane_names)
        if process is None:
            self._lane_names.append("driver")
            self._driver_lane = lane
        else:
            self._lane_names.append(process.name or f"process-{lane}")
            process.trace_lane = lane
        return lane

    # -- span lifecycle -----------------------------------------------

    def span(self, name: str, category: str = "span",
             parent=INHERIT, **attrs) -> Span:
        """Open a span; it becomes the current context until ended."""
        sim = self._sim
        if sim is None:
            raise RuntimeError("Tracer.span() before bind(): attach the "
                               "tracer via Simulator(tracer=...)")
        process = sim.active_process
        if process is not None:
            prev_ctx = process.trace_ctx
            lane = process.trace_lane
        else:
            prev_ctx = self._ambient
            lane = self._driver_lane
        parent_ctx = prev_ctx if parent is INHERIT else self.resolve(parent)
        if parent_ctx is None:
            trace_id = next(self._trace_ids)
            parent_id = None
        else:
            trace_id = parent_ctx.trace_id
            parent_id = parent_ctx.span_id
        if lane < 0:
            lane = self._new_lane(process)
        span_id = next(self._span_ids)
        ctx = TraceContext(trace_id, span_id)
        span = Span(self, trace_id, span_id, parent_id, name, category,
                    sim.now, attrs, lane, ctx, process, prev_ctx)
        if process is not None:
            process.trace_ctx = ctx
        else:
            self._ambient = ctx
        self._open[span_id] = span
        return span

    def instant(self, name: str, category: str = "event",
                parent=INHERIT, **attrs) -> Span:
        """Record a zero-duration event without shifting the context."""
        sim = self._sim
        if sim is None:
            raise RuntimeError("Tracer.instant() before bind()")
        process = sim.active_process
        if process is not None:
            lane = process.trace_lane
            ambient = process.trace_ctx
        else:
            lane = self._driver_lane
            ambient = self._ambient
        parent_ctx = ambient if parent is INHERIT else self.resolve(parent)
        if parent_ctx is None:
            trace_id = next(self._trace_ids)
            parent_id = None
        else:
            trace_id = parent_ctx.trace_id
            parent_id = parent_ctx.span_id
        if lane < 0:
            lane = self._new_lane(process)
        span_id = next(self._span_ids)
        span = Span(self, trace_id, span_id, parent_id, name, category,
                    sim.now, attrs, lane)
        self._open[span_id] = span
        self._end(span)
        return span

    def _end(self, span: Span) -> None:
        """Close ``span``: log it and restore its process's context."""
        span.end_ms = end_ms = self._sim.now
        del self._open[span.span_id]
        self._trace_ids_col.append(span.trace_id)
        self._span_ids_col.append(span.span_id)
        parent_id = span.parent_id
        self._parent_ids_col.append(
            _NO_PARENT if parent_id is None else parent_id)
        self._lanes_col.append(span.tid)
        self._starts_col.append(span.start_ms)
        self._ends_col.append(end_ms)
        name = span.name
        self._names_col.append(self._names.setdefault(name, name))
        self._categories_col.append(span.category)
        attrs = span.attrs
        if attrs:
            keys = tuple(attrs)
            shape = self._shape_index.get(keys)
            if shape is None:
                shape = len(self._shapes)
                self._shapes.append(keys)
                self._shape_index[keys] = shape
            self._attrs_col.append((shape, *attrs.values()))
        else:
            self._attrs_col.append(_NO_ATTRS)
        # Restore the context on whichever process opened the span, but
        # only if that span is still its current context (spans closed
        # out of order keep whatever the inner code installed).
        process = span._process
        holder_ctx = (process.trace_ctx if process is not None
                      else self._ambient)
        if holder_ctx is not None and holder_ctx.span_id == span.span_id:
            if process is not None:
                process.trace_ctx = span._prev_ctx
            else:
                self._ambient = span._prev_ctx
        span._process = span._prev_ctx = span._ctx = None

    # -- inspection / export ------------------------------------------

    def _record(self, row: int) -> Span:
        """Rebuild the :class:`Span` record of log row ``row``."""
        parent_id = self._parent_ids_col[row]
        packed = self._attrs_col[row]
        attrs = dict(zip(self._shapes[packed[0]], packed[1:]))
        span = Span(None, self._trace_ids_col[row], self._span_ids_col[row],
                    None if parent_id == _NO_PARENT else parent_id,
                    self._names_col[row], self._categories_col[row],
                    self._starts_col[row], attrs, self._lanes_col[row])
        span.end_ms = self._ends_col[row]
        return span

    @property
    def spans(self) -> SpanView:
        """Completed spans, in the order they ended (a live view)."""
        return self._view

    def open_spans(self) -> list:
        """Spans begun but not yet ended (should drain to empty)."""
        return list(self._open.values())

    def lane_names(self) -> dict:
        """Chrome-export lane id -> human-readable process name."""
        return dict(enumerate(self._lane_names))

    def to_dicts(self) -> list:
        """Completed spans as JSON-ready dicts, sorted by span id."""
        span_ids = self._span_ids_col
        rows = sorted(range(len(span_ids)), key=span_ids.__getitem__)
        return [self._record(row).to_dict() for row in rows]


class NullTracer:
    """Inactive tracer: every operation is a no-op.

    ``active`` is False so hot paths can skip attribute packing; code
    that opens spans unconditionally still works and pays only a couple
    of attribute lookups.
    """

    active = False

    def bind(self, sim) -> "NullTracer":
        return self

    @property
    def sim(self):
        return None

    def current(self) -> Optional[TraceContext]:
        return None

    def resolve(self, parent) -> Optional[TraceContext]:
        return None

    def span(self, name, category="span", parent=INHERIT, **attrs):
        return NULL_SPAN

    def instant(self, name, category="event", parent=INHERIT, **attrs):
        return NULL_SPAN

    @property
    def spans(self) -> list:
        return []

    def open_spans(self) -> list:
        return []

    def lane_names(self) -> dict:
        return {}

    def to_dicts(self) -> list:
        return []


#: Shared inactive tracer; the default for every Simulator.
NULL_TRACER = NullTracer()
