"""Labeled metrics instruments and the registry that owns them.

The registry mirrors the tracing layer's design contract
(:mod:`repro.trace.tracer`):

* **Simulated time only** (DET01): values are snapshotted by the
  :class:`~repro.telemetry.sampler.Sampler` at ``sim.now``; nothing here
  reads a wall clock.
* **Deterministic identity** (DET02/DET03): instruments and their
  labeled children live in insertion-ordered dicts keyed by name and
  label-value tuples — never ``id()`` or hash order — so two
  identically-seeded runs produce byte-identical exports regardless of
  ``PYTHONHASHSEED``.
* **Zero-cost no-op mode**: an unconfigured simulator carries the shared
  :data:`NULL_REGISTRY` whose ``active`` flag lets instrumentation sites
  skip callback registration entirely.

Instrumentation is *pull-style* where possible: layers that already
maintain raw counters (network stats, cache stats, resource queues)
register a zero-argument callback via :meth:`Instrument.set_callback`
and pay nothing on their hot paths; the sampler evaluates callbacks only
at sampling instants.  Push-style updates (``inc``/``set``/``observe``)
exist for signals with no resident state to read back.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.store import COUNTER, GAUGE, TimeSeriesStore


class MetricError(ValueError):
    """Inconsistent instrument registration or labeling."""


def _label_key(labelnames: tuple, labelvalues: dict) -> tuple:
    """Validate and order label values into the child key tuple."""
    if sorted(labelvalues) != sorted(labelnames):
        raise MetricError(
            f"label set {sorted(labelvalues)!r} does not match declared "
            f"labelnames {sorted(labelnames)!r}")
    return tuple(str(labelvalues[name]) for name in labelnames)


class _Child:
    """One labeled stream of an instrument."""

    __slots__ = ("_value", "_callback")

    def __init__(self):
        self._value = 0.0
        self._callback = None

    def current(self):
        callback = self._callback
        if callback is not None:
            return callback()
        return self._value


class CounterChild(_Child):
    """Monotonically non-decreasing stream (pushed or pulled)."""

    __slots__ = ()

    def inc(self, amount=1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter increment must be >= 0, got {amount}")
        self._value += amount


class GaugeChild(_Child):
    """Instantaneous level (pushed or pulled)."""

    __slots__ = ()

    def set(self, value) -> None:
        self._value = value

    def inc(self, amount=1.0) -> None:
        self._value += amount

    def dec(self, amount=1.0) -> None:
        self._value -= amount


class HistogramChild:
    """Streaming distribution summary: count / sum / min / max.

    Full per-sample retention belongs to :class:`repro.metrics.stats.
    Histogram`; this child keeps only what the sampler snapshots as
    ``<name>_count`` / ``<name>_sum`` series (plus min/max for the
    summary CLI), so high-rate observation stays O(1) in memory.
    """

    __slots__ = ("count", "sum", "min", "max")

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value


class Instrument:
    """Base: a named metric family with a fixed label set."""

    kind: str = ""
    child_class = _Child

    def __init__(self, name: str, help: str, labelnames: tuple):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        # Label-value tuple -> child, in first-touch order.
        self._children: dict = {}
        # (child, *series points) per child, bound by the first sample
        # that sees the child.
        self._bound: list = []

    def labels(self, **labelvalues):
        """Get or create the child for one label-value combination."""
        key = _label_key(self.labelnames, labelvalues)
        child = self._children.get(key)
        if child is None:
            child = self.child_class()
            self._children[key] = child
        return child

    def set_callback(self, callback, **labelvalues):
        """Register a pull callback sampled instead of the pushed value.

        The callback runs only at sampling instants, so instrumented
        layers pay nothing on their hot paths.  Callbacks must be
        deterministic: no wall clock, no iteration over bare sets
        (rule MET01).
        """
        child = self.labels(**labelvalues)
        child._callback = callback
        return child

    def children(self) -> list:
        """(label_pairs, child) in registration order."""
        return [(tuple(zip(self.labelnames, key)), child)
                for key, child in self._children.items()]

    def _bindings(self, store: TimeSeriesStore) -> list:
        """``(child, *points)`` per child, binding children added since."""
        bound = self._bound
        if len(bound) < len(self._children):
            for label_pairs, child in self.children()[len(bound):]:
                bound.append((child, *self._series_points(store, label_pairs)))
        return bound

    def _series_points(self, store: TimeSeriesStore, label_pairs) -> tuple:
        return (store.series(self.name, self.kind, label_pairs,
                             self.help).points,)

    def _sample(self, now: float, store: TimeSeriesStore) -> None:
        for child, points in self._bindings(store):
            points.append((now, child.current()))


class Counter(Instrument):
    kind = COUNTER
    child_class = CounterChild

    def inc(self, amount=1.0) -> None:
        """Shorthand for unlabeled counters."""
        self.labels().inc(amount)


class Gauge(Instrument):
    kind = GAUGE
    child_class = GaugeChild

    def set(self, value) -> None:
        """Shorthand for unlabeled gauges."""
        self.labels().set(value)


class HistogramMetric(Instrument):
    kind = "histogram"
    child_class = HistogramChild

    def set_callback(self, callback, **labelvalues):
        raise MetricError("histograms are push-only; use observe()")

    def observe(self, value) -> None:
        """Shorthand for unlabeled histograms."""
        self.labels().observe(value)

    def _series_points(self, store: TimeSeriesStore, label_pairs) -> tuple:
        # A histogram exports as two counter series, Prometheus-style.
        return (store.series(f"{self.name}_count", COUNTER, label_pairs,
                             self.help).points,
                store.series(f"{self.name}_sum", COUNTER, label_pairs,
                             self.help).points)

    def _sample(self, now: float, store: TimeSeriesStore) -> None:
        for child, count, total in self._bindings(store):
            count.append((now, child.count))
            total.append((now, child.sum))


class MetricsRegistry:
    """Per-run instrument registry bound to one :class:`Simulator`.

    Instruments are get-or-create by name; re-registering with a
    different kind or label set raises :class:`MetricError` so the same
    family can't fork into incompatible shapes across layers.
    """

    active = True

    def __init__(self):
        self._sim = None
        self._instruments: dict = {}
        self.store = TimeSeriesStore()
        self.samples = 0

    # -- wiring -------------------------------------------------------

    def bind(self, sim) -> "MetricsRegistry":
        if self._sim is not None and self._sim is not sim:
            raise ValueError(
                "MetricsRegistry is already bound to another Simulator")
        self._sim = sim
        return self

    @property
    def sim(self):
        return self._sim

    # -- registration -------------------------------------------------

    def _instrument(self, cls, name, help, labelnames):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind or type(existing).__name__}")
            if sorted(existing.labelnames) != sorted(tuple(labelnames)):
                raise MetricError(
                    f"metric {name!r} already registered with labelnames "
                    f"{sorted(existing.labelnames)!r}, got "
                    f"{sorted(tuple(labelnames))!r}")
            return existing
        instrument = cls(name, help, tuple(labelnames))
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "", labelnames: tuple = ()):
        return self._instrument(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: tuple = ()):
        return self._instrument(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: tuple = ()):
        return self._instrument(HistogramMetric, name, help, labelnames)

    def instruments(self) -> list:
        """All instruments, in registration order."""
        return list(self._instruments.values())

    # -- sampling / export --------------------------------------------

    def sample(self, now: float) -> None:
        """Snapshot every instrument into the store at sim time ``now``."""
        for instrument in self._instruments.values():
            instrument._sample(now, self.store)
        self.samples += 1

    def to_dicts(self) -> list:
        """Sampled series as JSON-ready dicts (canonical order)."""
        return self.store.to_dicts()


class _NullChild:
    """Shared do-nothing child returned by :class:`NullRegistry`."""

    __slots__ = ()

    def inc(self, amount=1.0):
        return None

    def dec(self, amount=1.0):
        return None

    def set(self, value):
        return None

    def observe(self, value):
        return None

    def current(self):
        return 0.0


NULL_CHILD = _NullChild()


class _NullInstrument:
    """Shared do-nothing instrument returned by :class:`NullRegistry`."""

    __slots__ = ()

    def labels(self, **labelvalues):
        return NULL_CHILD

    def set_callback(self, callback, **labelvalues):
        return NULL_CHILD

    def children(self) -> list:
        return []

    def inc(self, amount=1.0):
        return None

    def set(self, value):
        return None

    def observe(self, value):
        return None


NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """Inactive registry: every operation is a no-op.

    ``active`` is False so instrumentation sites can skip closure
    construction entirely; code that registers unconditionally still
    works and pays only a couple of attribute lookups.
    """

    active = False
    samples = 0

    def __init__(self):
        # Shared empty store so export helpers accept a null registry.
        self.store = TimeSeriesStore()

    def bind(self, sim) -> "NullRegistry":
        return self

    @property
    def sim(self):
        return None

    def counter(self, name, help="", labelnames=()):
        return NULL_INSTRUMENT

    def gauge(self, name, help="", labelnames=()):
        return NULL_INSTRUMENT

    def histogram(self, name, help="", labelnames=()):
        return NULL_INSTRUMENT

    def instruments(self) -> list:
        return []

    def sample(self, now: float) -> None:
        return None

    def to_dicts(self) -> list:
        return []


#: Shared inactive registry; the default for every Simulator.
NULL_REGISTRY = NullRegistry()
