"""Generator-based simulation processes."""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import PENDING, PROCESSED, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.simulator import Simulator

ProcessGenerator = Generator[Event, object, object]


class _RawWait:
    """Sentinel yielded by :meth:`Simulator.sleep`.

    Tells :meth:`Process._step` that the wakeup entry is already in the
    wheel (registered by ``sleep``), so there is no event to attach a
    callback to — the process just parks until the entry fires.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<raw-wait>"


RAW_WAIT = _RawWait()


class Process(Event):
    """A running simulation process.

    Wraps a generator that yields :class:`~repro.sim.events.Event` objects.
    The process itself *is* an event: it fires when the generator returns
    (value = the generator's return value) or raises (failure).  This lets
    processes wait on each other by yielding a :class:`Process`.

    ``daemon`` processes have failures recorded on the simulator instead of
    crashing the run; use for background services whose crash is itself a
    simulated condition (for example a process on a failed node).
    """

    __slots__ = ("generator", "daemon", "trace_ctx", "trace_lane",
                 "_waiting_on", "_send", "_throw", "_sleep_token")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: str = "",
        daemon: bool = False,
    ):
        # Inlined Event.__init__ (spawns are a hot allocation site).
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._state = PENDING
        self._value = None
        self._exc = None
        self.callbacks = []
        self._defused = False
        self.generator = generator
        self.daemon = daemon
        #: Ambient TraceContext this process runs under (see repro.trace).
        #: Inherited from the spawning process; updated as spans open/close.
        self.trace_ctx = None
        #: Chrome-export lane id, numbered by the tracer on first use.
        self.trace_lane = -1
        #: The event this process is currently blocked on, if any.
        self._waiting_on: Optional[Event] = None
        #: Wheel entry of an in-flight raw sleep (see Simulator.sleep).
        self._sleep_token: Optional[list] = None
        # Bound generator methods, cached: _step runs a few hundred
        # thousand times per benchmark and the attribute walk shows up.
        self._send = generator.send
        self._throw = generator.throw
        # Kick off the first step "now" (one schedule slot, exactly like
        # the old bootstrap event + succeed()).
        sim.call_soon(self._step)

    @property
    def is_alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`~repro.sim.errors.Interrupt` into the process.

        No-op if the process already finished.  The event the process was
        waiting on is abandoned (its eventual outcome is ignored).
        """
        if self.triggered:
            return
        target = self._waiting_on
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        # Orphan any in-flight raw sleep: its wheel entry stays scheduled
        # (exactly like the stale Timeout the old path left in the heap)
        # but the token mismatch makes its firing a no-op.
        self._sleep_token = None
        self.sim.call_soon(self._interrupt_step, cause)

    # -- internal --------------------------------------------------------
    def _interrupt_step(self, cause: object) -> None:
        self._step(throw=Interrupt(cause))

    def _sleep_wake(self, token: list) -> None:
        """Fire a raw sleep (see Simulator.sleep); stale tokens are no-ops."""
        if self._sleep_token is token:
            self._sleep_token = None
            self._step()

    def _resume(self, event: Event) -> None:
        """Callback attached to the event the process waits on."""
        self._waiting_on = None
        if event._exc is not None:
            event._defused = True
            self._step(throw=event._exc)
        else:
            self._step(send=event._value)

    def _step(self, send: object = None, throw: Optional[BaseException] = None) -> None:
        if self._state is not PENDING:
            return
        sim = self.sim
        sim._active_process = self
        try:
            if throw is not None:
                target = self._throw(throw)
            else:
                target = self._send(send)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process crashed
            if self.daemon:
                sim.daemon_failures.append((self, exc))
                self.defuse()
            self.fail(exc)
            return
        finally:
            sim._active_process = None

        if target is RAW_WAIT:
            # Simulator.sleep already planted the wakeup entry; nothing to
            # wait on — the entry re-enters _step at its scheduled time.
            self._waiting_on = None
            return
        if target.__class__ is not Event and not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes must yield Event objects"
                )
            )
            return
        self._waiting_on = target
        if target._state is PROCESSED:
            # Already-processed events resume the process immediately
            # (at the current simulated time) via a raw wakeup entry —
            # the same schedule slot the old wakeup event occupied.
            sim.call_soon(self._resume, target)
        else:
            target.callbacks.append(self._resume)
