"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence: it is *triggered* at most once,
either successfully (carrying a value) or with a failure (carrying an
exception).  Processes wait on events by yielding them; arbitrary callbacks
may also be attached.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

# Event lifecycle states.
PENDING = "pending"
TRIGGERED = "triggered"  # scheduled for processing, value/exc set
PROCESSED = "processed"  # callbacks have run


class Event:
    """A one-shot simulation event.

    Events move through three states: *pending* (created), *triggered*
    (value or failure set, processing scheduled) and *processed*
    (callbacks executed).  Waiting processes are resumed during
    processing.
    """

    __slots__ = ("sim", "name", "_state", "_value", "_exc", "callbacks", "_defused")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._state = PENDING
        self._value: object = None
        self._exc: Optional[BaseException] = None
        self.callbacks: list[Callable[["Event"], None]] = []
        #: True once some party has consumed a failure, suppressing the
        #: "unhandled failed event" crash at the simulator level.
        self._defused = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has fired (value or failure is set)."""
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully.  Requires ``triggered``."""
        if self._state == PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._exc is None

    @property
    def value(self) -> object:
        """The success value (or raises the failure exception)."""
        if self._state == PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None on success / still pending."""
        return self._exc

    def defuse(self) -> None:
        """Mark a failure as handled so the simulator will not re-raise it."""
        self._defused = True

    # -- triggering ------------------------------------------------------
    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self._state = TRIGGERED
        # Inlined Simulator._schedule zero-delay fast path (succeed is the
        # single busiest scheduling site in a run).
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        wheel = sim._wheel
        free = wheel._free
        if free:
            entry = free.pop()
            entry[0] = sim._now
            entry[1] = seq
            entry[2] = self
        else:
            entry = [sim._now, seq, self, None, None]
        wheel._live += 1
        wheel._imm.append(entry)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed with exception ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        if self._state != PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._exc = exc
        self._state = TRIGGERED
        self.sim._schedule(self)
        return self

    def trigger_like(self, other: "Event") -> "Event":
        """Trigger with the same outcome as an already-fired ``other``."""
        if other._exc is not None:
            return self.fail(other._exc)
        return self.succeed(other._value)

    # -- internal --------------------------------------------------------
    def _process(self) -> None:
        """Run callbacks; called by the simulator at the scheduled time."""
        self._state = PROCESSED
        callbacks = self.callbacks
        if len(callbacks) == 1:
            # Dominant case (a single waiting process): clear in place
            # before invoking — late appends land in the emptied list and
            # are never run, exactly as with the list swap below.
            callback = callbacks[0]
            callbacks.clear()
            callback(self)
        else:
            self.callbacks = []
            for callback in callbacks:
                callback(self)
        if self._exc is not None and not self._defused:
            raise self._exc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or type(self).__name__
        return f"<{label} {self._state}>"


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None):
        # Hot path: inlined Event.__init__ with an interned name (the old
        # f"timeout({delay})" label dominated allocation profiles; the
        # delay is still visible via the ``delay`` attribute).
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.name = "timeout"
        self._state = TRIGGERED
        self._value = value
        self._exc = None
        self.callbacks = []
        self._defused = False
        self.delay = delay
        sim._schedule(self, delay)


class AllOf(Event):
    """Fires when every child event has fired successfully.

    The value is a list of the children's values, in the order given.  If
    any child fails, :class:`AllOf` fails with that child's exception.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            if child.processed:
                # Outcome already delivered; account for it immediately.
                self._on_child(child)
            else:
                # Pending *or* scheduled (e.g. a Timeout): callbacks run
                # when the child is processed at its scheduled time.
                child.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if child.exception is not None:
            child.defuse()
            self.fail(child.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self._children])


class AnyOf(Event):
    """Fires when the first child event fires; value is that child's value.

    A failed first child fails the :class:`AnyOf`.  Later children firing
    are ignored (failures among them are defused).
    """

    __slots__ = ("_children", "first")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self._children = list(events)
        if not self._children:
            raise ValueError("any_of() requires at least one event")
        #: The child that fired first (set when this event triggers).
        self.first: Optional[Event] = None
        for child in self._children:
            if child.processed:
                self._on_child(child)
                break
            child.callbacks.append(self._on_child)

    def detach(self, child: Event) -> None:
        """Stop listening to ``child`` once this wait is over.

        For a long-lived child shared by many waits (say, a "member
        removed" event), whose callback list would otherwise keep every
        finished :class:`AnyOf` alive.  Detach only children that cannot
        fail: a late failure of a detached child is no longer defused.
        """
        if not child.processed:
            try:
                child.callbacks.remove(self._on_child)
            except ValueError:
                pass  # never attached: an earlier child had already fired

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            if child.exception is not None:
                child.defuse()
            return
        self.first = child
        if child.exception is not None:
            child.defuse()
            self.fail(child.exception)
        else:
            self.succeed(child._value)
