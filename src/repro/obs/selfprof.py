"""Simulator self-observation: event-wheel gauges.

:func:`install_wheel_gauges` exposes the event wheel's occupancy and lag
as ordinary pull-callback gauges on the run's MetricsRegistry — live
entry count, current-instant lane depth, occupied future slots, freelist
fill, and the horizon to the next scheduled entry.  These read only
simulator state at sampling instants, so they are fully deterministic
and safe to leave on in replay runs.  Per-layer wall time is measured
outside the simulator, by ``perfbench/layers.py``.
"""

from __future__ import annotations

__all__ = ["install_wheel_gauges"]

_INF = float("inf")


def install_wheel_gauges(sim) -> None:
    """Register event-wheel occupancy/lag gauges on ``sim.metrics``.

    No-op under the Null registry.  Callbacks read kernel state only at
    sampling instants (zero hot-path cost, deterministic values).
    """
    metrics = sim.metrics
    if not metrics.active:
        return
    wheel = sim._wheel
    metrics.gauge(
        "sim_wheel_live_entries",
        "Live (non-cancelled) entries in the event wheel.",
        labelnames=(),
    ).set_callback(lambda: len(wheel))
    metrics.gauge(
        "sim_wheel_imm_depth",
        "Entries queued in the current-instant FIFO lane.",
        labelnames=(),
    ).set_callback(lambda: len(wheel._imm))
    metrics.gauge(
        "sim_wheel_pending_days",
        "Occupied future time slots (calendar days) in the wheel.",
        labelnames=(),
    ).set_callback(lambda: len(wheel._days))
    metrics.gauge(
        "sim_wheel_freelist_entries",
        "Recycled entries parked on the wheel freelist.",
        labelnames=(),
    ).set_callback(lambda: len(wheel._free))
    metrics.gauge(
        "sim_wheel_horizon_ms",
        "Sim-time lag from now to the next scheduled entry "
        "(-1 when the schedule is drained).",
        labelnames=(),
    ).set_callback(
        lambda: -1.0 if (nxt := wheel.peek()) == _INF else nxt - sim.now)
    metrics.counter(
        "sim_schedule_entries_total",
        "Entries ever scheduled (events and raw callbacks).",
        labelnames=(),
    ).set_callback(lambda: sim.schedule_count)
