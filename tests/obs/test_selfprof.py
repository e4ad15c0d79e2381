"""Event-wheel gauges on the telemetry registry."""

from repro.obs.selfprof import install_wheel_gauges
from repro.session import Session
from repro.sim import Simulator
from repro.storage import DataItem
from repro.telemetry import jsonl_dumps


def _loaded_session():
    session = Session(nodes=2, seed=9, scheme="concord", metrics=True,
                      metrics_interval_ms=50.0)
    session.preload({f"k{i}": DataItem("v0", 64) for i in range(4)})
    for i in range(4):
        session.sim.spawn(
            session.system.write("node0", f"k{i}", DataItem(f"v{i}", 64)))
        session.sim.spawn(session.system.read("node1", f"k{i}"))
    return session


class TestWheelGauges:
    def test_gauges_sampled_into_registry(self):
        session = _loaded_session()
        install_wheel_gauges(session.sim)
        session.advance(300.0)
        session.close()
        text = jsonl_dumps(session.metrics)
        for name in ("sim_wheel_live_entries", "sim_wheel_imm_depth",
                     "sim_wheel_pending_days", "sim_wheel_freelist_entries",
                     "sim_wheel_horizon_ms", "sim_schedule_entries_total"):
            assert name in text

    def test_noop_without_metrics(self):
        sim = Simulator(seed=0)
        install_wheel_gauges(sim)  # Null registry: must not raise
        sim.run(until=10.0)
