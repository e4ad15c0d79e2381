"""Checks of the traced run's arithmetic.

    python3 -m pytest perfbench/test_layers.py

A toy nest of generators runs against a fake clock, so every exclusive time
is known exactly.  The last test traces one real repetition and checks that
the layers plus the unattributed time add up to the traced wall time, and
that tracing left every simulated result unchanged.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LayerClock  # noqa: E402


class FakeClock:
    """A clock that moves only when the code under test spends time."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def spend(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def toy():
    clock = FakeClock()
    layers = LayerClock(clock=clock)

    def leaf():
        clock.spend(3)
        return "value"

    leaf = layers.wrap(leaf, "caching", "leaf")

    def inner():
        clock.spend(5)
        yield "first"
        clock.spend(7)
        return leaf()

    inner = layers.wrap(inner, "core", "inner")

    def outer():
        clock.spend(10)
        value = yield from inner()
        clock.spend(2)
        yield "second"
        clock.spend(4)
        return value

    outer = layers.wrap(outer, "faas", "outer")

    def kernel(process):
        """Resumes ``process`` like the simulator does, 1 ns per step."""
        yielded = []
        clock.spend(1)
        yielded.append(process.send(None))
        while True:
            clock.spend(1)
            try:
                yielded.append(process.send(None))
            except StopIteration as stop:
                return yielded, stop.value

    kernel = layers.wrap(kernel, "sim", "kernel")
    return clock, layers, kernel, outer


def test_exclusive_times_of_a_generator_nest(toy):
    clock, layers, kernel, outer = toy
    layers.start()
    yielded, value = kernel(outer())
    clock.spend(2)  # harness work outside every wrapped call
    layers.stop()

    assert yielded == ["first", "second"]
    assert value == "value"
    own = {layer: ns for layer, (ns, _calls) in layers.layers.items()}
    assert own["caching"] == 3
    assert own["core"] == 5 + 7
    assert own["faas"] == 10 + 2 + 4
    # The kernel's own steps: 1 ns before each of its three resumptions.
    assert own["sim"] == 3
    assert layers.unattributed_ns == 2
    assert sum(own.values()) + layers.unattributed_ns == layers.wall_ns == 36


def test_calls_count_once_per_call_not_per_resumption(toy):
    _clock, layers, kernel, outer = toy
    layers.start()
    kernel(outer())
    layers.stop()
    calls = {layer: count for layer, (_ns, count) in layers.layers.items()}
    assert calls["faas"] == calls["core"] == calls["caching"] == 1
    assert calls["sim"] == 1
    assert layers.entry_calls == {"leaf": 1, "inner": 1, "outer": 1,
                                  "kernel": 1}


def test_span_rows_nest_under_their_callers(toy):
    _clock, layers, kernel, outer = toy
    layers.start()
    kernel(outer())
    layers.stop()
    width = 6
    rows = [tuple(layers.spans[i:i + width])
            for i in range(0, len(layers.spans), width)]
    names = {call: layers.entries[entry] for entry, call, *_rest in rows}
    names[0] = "root"
    edges = {(names[call], names[parent]) for _entry, call, parent, *_rest
             in rows}
    # Each resumption of a generator is a segment of whatever resumed it.
    assert edges == {("kernel", "root"), ("outer", "kernel"),
                     ("inner", "outer"), ("leaf", "inner")}
    assert sum(row[5] for row in rows) + layers.unattributed_ns \
        == layers.wall_ns


def test_exceptions_thrown_into_a_wrapped_generator_are_forwarded():
    clock = FakeClock()
    layers = LayerClock(clock=clock)

    def body():
        try:
            yield "waiting"
        except KeyError:
            clock.spend(4)
            return "recovered"

    body = layers.wrap(body, "core", "body")
    layers.start()
    process = body()
    assert process.send(None) == "waiting"
    with pytest.raises(StopIteration) as stop:
        process.throw(KeyError("interrupt"))
    layers.stop()
    assert stop.value.value == "recovered"
    assert layers.layers["core"][0] == 4


def test_raised_exceptions_are_counted_and_propagate():
    layers = LayerClock(clock=FakeClock())

    def failing():
        raise TimeoutError("late")
        yield  # pragma: no cover - generator marker

    failing = layers.wrap(failing, "net", "failing")
    layers.start()
    with pytest.raises(TimeoutError):
        next(failing())
    layers.stop()
    assert layers.raised == {("failing", "TimeoutError"): 1}


def test_closing_a_wrapped_generator_closes_the_inner_one():
    clock = FakeClock()
    layers = LayerClock(clock=clock)
    closed = []

    def body():
        try:
            yield "waiting"
        finally:
            clock.spend(6)
            closed.append(True)

    body = layers.wrap(body, "core", "body")
    layers.start()
    process = body()
    next(process)
    process.close()
    layers.stop()
    assert closed == [True]
    assert layers.layers["core"][0] == 6


def _worker(trace: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "hot_reads", "7",
         repr(time.monotonic()), trace],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_real_layers_add_up_and_tracing_is_passive():
    traced = _worker("1")
    plain = _worker("0")
    layers = traced["layers"]
    total = sum(value for name, value in layers.items()
                if name.endswith(".self_s"))
    assert total == pytest.approx(traced["traced_wall_s"], rel=1e-9)
    assert layers["sim.self_s"] > 0 and layers["core.self_s"] > 0
    assert traced["sim"] == plain["sim"]
