"""Per-layer exclusive wall time, measured by wrapping public entry points.

The traced run wraps the public entry points of each layer (see
:func:`install`) in timers.  A plain call is one timed segment; a generator is timed once per
resumption (``send``/``throw``/``close``), because a simulated process runs
its body in slices between yields.  Segments nest on the real call stack, so
a stack of child-time accumulators gives each segment its *exclusive* time:
its duration minus the durations of the wrapped segments it called.

``Simulator.run`` is itself an entry point (layer ``sim``), so ``sim.self_s``
is the kernel's own time: the wall time of ``run`` minus everything wrapped
inside it.  Time outside every wrapped call (the harness, result checks) is
``unattributed``.  By construction the per-layer exclusive times plus the
unattributed time add up to the traced wall time.

Every segment is also kept in memory as a span row (entry point, call id,
parent call id, start, duration, exclusive time) and written out at the end.
"""

from __future__ import annotations

import inspect
import time
import types
from array import array

#: Layer names in report order.  ``unattributed`` is the root, not a layer.
LAYERS = ("sim", "net", "storage", "core", "caching", "metrics", "faas",
          "workloads", "coord", "obs", "trace", "telemetry")

_GENERATOR = types.GeneratorType

#: Fields of one span row, in the order they are stored.
SPAN_FIELDS = ("entry", "call", "parent", "start_ns", "dur_ns", "self_ns")


class LayerClock:
    """Exclusive-time bookkeeping for wrapped calls and generator slices."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        #: layer -> [exclusive ns, calls]
        self.layers = {layer: [0, 0] for layer in LAYERS}
        #: entry-point name -> calls
        self.entry_calls: dict[str, int] = {}
        #: entry-point names by index (span rows store the index).
        self.entries: list[str] = []
        #: entry-point name -> exceptions it raised, by exception type.
        self.raised: dict[tuple[str, str], int] = {}
        #: One child-time accumulator per open segment; [0] is the root.
        self._child = [0]
        #: Call id of each open segment; 0 is the root.
        self._calls = [0]
        self._next_call = 1
        self.spans = array("q")
        self._started = None
        self._stopped = None

    # -- the root segment ---------------------------------------------------
    def start(self) -> None:
        self._started = self.clock()

    def stop(self) -> None:
        self._stopped = self.clock()

    @property
    def wall_ns(self) -> int:
        return self._stopped - self._started

    @property
    def unattributed_ns(self) -> int:
        return self.wall_ns - self._child[0]

    # -- wrapping -----------------------------------------------------------
    def wrap(self, fn, layer: str, name: str):
        """``fn`` timed as ``name`` in ``layer``; generators per slice."""
        record = self.layers[layer]
        entry = len(self.entries)
        self.entries.append(name)
        self.entry_calls[name] = 0
        entry_calls = self.entry_calls
        slice_gen = self._slice_gen

        if inspect.isgeneratorfunction(fn):
            # Creating a generator runs none of its body: time only the
            # resumptions, and leave the allocation to the caller.
            def timed(*args, **kwargs):
                record[1] += 1
                entry_calls[name] += 1
                call = self._next_call
                self._next_call = call + 1
                return slice_gen(fn(*args, **kwargs), record, entry, name,
                                 call)
        else:
            timed = self._timed_call(fn, record, entry, name)
        timed.__name__ = getattr(fn, "__name__", name)
        timed.__qualname__ = getattr(fn, "__qualname__", name)
        timed.__doc__ = getattr(fn, "__doc__", None)
        timed.__wrapped__ = fn
        return timed

    def _timed_call(self, fn, record, entry, name):
        """A plain call as one segment; a returned generator per slice."""
        entry_calls = self.entry_calls
        child = self._child
        calls = self._calls
        spans = self.spans
        clock = self.clock
        slice_gen = self._slice_gen

        def timed(*args, **kwargs):
            record[1] += 1
            entry_calls[name] += 1
            call = self._next_call
            self._next_call = call + 1
            parent = calls[-1]
            child.append(0)
            calls.append(call)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count_raise(name, exc)
                raise
            finally:
                elapsed = clock() - start
                own = elapsed - child.pop()
                calls.pop()
                record[0] += own
                child[-1] += elapsed
                spans.extend((entry, call, parent, start, elapsed, own))
            if result.__class__ is _GENERATOR:
                return slice_gen(result, record, entry, name, call)
            return result

        return timed

    def _count_raise(self, name: str, exc: BaseException) -> None:
        key = (name, type(exc).__name__)
        self.raised[key] = self.raised.get(key, 0) + 1

    def _slice_gen(self, inner, record, entry, name, call):
        """Drive ``inner``, timing each resumption as one segment."""
        child = self._child
        calls = self._calls
        spans = self.spans
        clock = self.clock
        send = inner.send
        value = None
        error = None
        while True:
            parent = calls[-1]
            child.append(0)
            calls.append(call)
            start = clock()
            try:
                if error is not None:
                    target = inner.throw(error)
                else:
                    target = send(value)
            except StopIteration as stop:
                return stop.value
            except BaseException as exc:
                self._count_raise(name, exc)
                raise
            finally:
                elapsed = clock() - start
                own = elapsed - child.pop()
                calls.pop()
                record[0] += own
                child[-1] += elapsed
                spans.extend((entry, call, parent, start, elapsed, own))
            error = None
            try:
                value = yield target
            except GeneratorExit:
                self._close(inner, record, entry, call)
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded inward
                error = exc

    def _close(self, inner, record, entry, call) -> None:
        child = self._child
        calls = self._calls
        parent = calls[-1]
        child.append(0)
        calls.append(call)
        start = self.clock()
        try:
            inner.close()
        finally:
            elapsed = self.clock() - start
            own = elapsed - child.pop()
            calls.pop()
            record[0] += own
            child[-1] += elapsed
            self.spans.extend((entry, call, parent, start, elapsed, own))

    # -- results ------------------------------------------------------------
    def self_seconds(self) -> dict:
        """``<layer>.self_s`` and ``<layer>.calls`` plus the unattributed time."""
        out = {}
        for layer, (own, count) in self.layers.items():
            out[f"{layer}.self_s"] = own / 1e9
            out[f"{layer}.calls"] = count
        out["unattributed.self_s"] = self.unattributed_ns / 1e9
        return out

    def write_spans(self, path) -> int:
        """Write the in-memory spans as tab-separated rows; returns rows."""
        rows = len(self.spans) // len(SPAN_FIELDS)
        width = len(SPAN_FIELDS)
        spans = self.spans
        with open(path, "w", encoding="utf-8") as out:
            out.write("entry_point\t" + "\t".join(SPAN_FIELDS[1:]) + "\n")
            for row in range(rows):
                base = row * width
                fields = spans[base:base + width]
                out.write(self.entries[fields[0]] + "\t"
                          + "\t".join(map(str, fields[1:])) + "\n")
        return rows


def patch_method(clock: LayerClock, owner, attr: str, layer: str) -> None:
    """Replace ``owner.attr`` (its own or inherited) with its timed twin."""
    original = getattr(owner, attr)
    name = f"{owner.__name__}.{attr}"
    setattr(owner, attr, clock.wrap(original, layer, name))


def install(clock: LayerClock) -> None:
    """Wrap every layer's public entry points for this process.

    Must run before the workload builds anything: objects bind some
    methods at construction (RPC handler tables, process generators).
    """
    from repro.caching.base import LruCache
    from repro.coord.service import CoordinationService
    from repro.core.agent import CacheAgent
    from repro.core.concord import ConcordSystem
    from repro.faas.context import InvocationContext
    from repro.faas.platform import FaasPlatform
    from repro.metrics.stats import AccessStats
    from repro.net.fabric import Network
    from repro.net.rpc import Endpoint
    from repro.obs.recorder import FlightRecorder
    from repro.sim.simulator import Simulator
    from repro.storage.blob import GlobalStorage
    from repro.telemetry.sampler import Sampler
    from repro.trace.tracer import Span, Tracer
    from repro.workloads import profiles

    plan = (
        (Simulator, ("run",), "sim"),
        (Endpoint, ("call",), "net"),
        (Network, ("send",), "net"),
        (GlobalStorage, ("read", "write", "compare_and_swap"), "storage"),
        (CacheAgent, ("read", "write"), "core"),
        (ConcordSystem,
         ("read", "write", "remove_instance", "create_instance"), "core"),
        (LruCache, ("get", "put", "remove"), "caching"),
        (AccessStats, ("record",), "metrics"),
        (FaasPlatform, ("request", "invoke"), "faas"),
        (InvocationContext, ("read", "write", "compute"), "faas"),
        (CoordinationService,
         tuple(name for name, value in vars(CoordinationService).items()
               if callable(value) and not name.startswith("__")), "coord"),
        (FlightRecorder, ("emit",), "obs"),
        (Tracer, ("span", "instant"), "trace"),
        (Span, ("end",), "trace"),
        (Sampler, ("_run",), "telemetry"),
    )
    for owner, attrs, layer in plan:
        for attr in attrs:
            patch_method(clock, owner, attr, layer)

    build_app = profiles.build_app
    inputs_factory = profiles.entity_inputs_factory

    def timed_build_app(profile):
        spec = build_app(profile)
        for function in spec.functions.values():
            function.handler = clock.wrap(
                function.handler, "workloads", f"handler:{function.name}")
        return spec

    def timed_inputs_factory(profile, sim, stream=None):
        return clock.wrap(inputs_factory(profile, sim, stream), "workloads",
                          f"inputs:{profile.name}")

    profiles.build_app = timed_build_app
    profiles.entity_inputs_factory = timed_inputs_factory
