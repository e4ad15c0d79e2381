"""Unit tests for the FaultInjector daemon against a bare cluster."""

import pytest

from repro.cluster import Cluster
from repro.config import SimConfig
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MessageDelay,
    MessageDrop,
    NetworkPartition,
    NodeCrash,
    NodeRestart,
    StorageBrownout,
)
from repro.net import Endpoint
from repro.sim import Simulator
from repro.telemetry import MetricsRegistry


@pytest.fixture
def sim():
    return Simulator(seed=5)


@pytest.fixture
def cluster(sim):
    return Cluster(sim, SimConfig(num_nodes=4, cores_per_node=1))


def run_plan(sim, cluster, plan, until=10_000.0, **kwargs):
    injector = FaultInjector(cluster, plan, **kwargs)
    injector.start()
    sim.run(until=until)
    return injector


class TestLifecycleEvents:
    def test_crash_and_restart_drive_cluster(self, sim, cluster):
        crashed, events = [], []
        cluster.on_crash(crashed.append)
        plan = FaultPlan(events=(
            NodeCrash(at_ms=100.0, node="node1"),
            NodeRestart(at_ms=500.0, node="node1"),
        ))
        injector = FaultInjector(cluster, plan)
        injector.start()
        sim.run(until=200.0)
        assert crashed == ["node1"]
        assert cluster.network.is_down("node1")
        sim.run(until=600.0)
        assert not cluster.network.is_down("node1")
        assert [kind for _t, kind, _d in injector.applied] == [
            "NodeCrash", "NodeRestart"]

    def test_applied_log_records_times_in_order(self, sim, cluster):
        plan = FaultPlan(events=(
            NodeCrash(at_ms=250.0, node="node2"),
            StorageBrownout(at_ms=400.0, duration_ms=100.0, slowdown=3.0),
        ))
        injector = run_plan(sim, cluster, plan)
        times = [t for t, _k, _d in injector.applied]
        assert times == [250.0, 400.0]

    def test_restart_rejoins_registered_systems(self, sim, cluster):
        class SystemStub:
            app = "stub"

            def __init__(self):
                self.restarted = []

            def restart_instance(self, node_id):
                self.restarted.append(node_id)
                return
                yield  # pragma: no cover - generator marker

        stub = SystemStub()
        plan = FaultPlan(events=(
            NodeCrash(at_ms=10.0, node="node3"),
            NodeRestart(at_ms=20.0, node="node3"),
        ))
        run_plan(sim, cluster, plan, systems=(stub,))
        assert stub.restarted == ["node3"]


class TestNetworkRules:
    def test_full_drop_window_blocks_traffic(self, sim, cluster):
        a = Endpoint(cluster.network, "node0", "svc")
        b = Endpoint(cluster.network, "node1", "svc")
        received = []

        def handler(endpoint, src, args):
            received.append((sim.now, args))
            return None
            yield  # pragma: no cover - generator marker

        b.register_handler("poke", handler)
        plan = FaultPlan(events=(
            MessageDrop(at_ms=100.0, duration_ms=200.0, probability=1.0),
        ))
        injector = FaultInjector(cluster, plan)
        injector.start()

        def sender(sim):
            yield sim.timeout(150.0)  # inside the window
            a.notify(b.address, "poke", "lost")
            yield sim.timeout(250.0)  # after the window
            a.notify(b.address, "poke", "delivered")

        sim.spawn(sender(sim), name="sender")
        sim.run(until=1000.0)
        assert [args for _t, args in received] == ["delivered"]
        assert cluster.network.faults.dropped_injected == 1

    def test_partition_severs_cross_group_only(self, sim, cluster):
        endpoints = {n: Endpoint(cluster.network, n, "svc")
                     for n in ("node0", "node1", "node2")}
        received = []

        def make_handler(name):
            def handler(endpoint, src, args):
                received.append((name, args))
                return None
                yield  # pragma: no cover - generator marker
            return handler

        for name, ep in endpoints.items():
            ep.register_handler("poke", make_handler(name))
        plan = FaultPlan(events=(
            NetworkPartition(at_ms=100.0, duration_ms=500.0,
                             groups=(("node0", "node1"), ("node2",))),
        ))
        FaultInjector(cluster, plan).start()

        def sender(sim):
            yield sim.timeout(200.0)
            endpoints["node0"].notify("node1/svc", "poke", "same-side")
            endpoints["node0"].notify("node2/svc", "poke", "cross")
        sim.spawn(sender(sim), name="sender")
        sim.run(until=1000.0)
        assert received == [("node1", "same-side")]

    def test_delay_window_slows_messages(self, sim, cluster):
        a = Endpoint(cluster.network, "node0", "svc")
        b = Endpoint(cluster.network, "node1", "svc")
        arrivals = []

        def handler(endpoint, src, args):
            arrivals.append(sim.now)
            return None
            yield  # pragma: no cover - generator marker

        b.register_handler("poke", handler)
        plan = FaultPlan(events=(
            MessageDelay(at_ms=0.0, duration_ms=300.0, extra_ms=50.0),
        ))
        FaultInjector(cluster, plan).start()

        def sender(sim):
            yield sim.timeout(100.0)
            a.notify(b.address, "poke", "slow")
            yield sim.timeout(400.0)  # past the window
            a.notify(b.address, "poke", "fast")
        sim.spawn(sender(sim), name="sender")
        sim.run(until=1000.0)
        assert len(arrivals) == 2
        slow_transit = arrivals[0] - 100.0
        fast_transit = arrivals[1] - 500.0
        assert slow_transit - fast_transit == pytest.approx(50.0)
        assert cluster.network.faults.delayed_injected == 1


class TestBrownout:
    def test_brownout_multiplies_storage_latency(self, sim, cluster):
        plan = FaultPlan(events=(
            StorageBrownout(at_ms=0.0, duration_ms=500.0, slowdown=4.0),
        ))
        FaultInjector(cluster, plan).start()
        durations = []

        def reader(sim):
            yield sim.timeout(1.0)  # let the injector apply the event
            start = sim.now
            yield from cluster.storage.write("k", "v", writer="test")
            durations.append(sim.now - start)
            yield sim.timeout(600.0)  # past the window
            start = sim.now
            yield from cluster.storage.write("k", "v2", writer="test")
            durations.append(sim.now - start)

        sim.spawn(reader(sim), name="reader")
        sim.run(until=2000.0)
        assert len(durations) == 2
        assert durations[0] == pytest.approx(4.0 * durations[1])


class TestBookkeeping:
    def test_fail_fast_armed_by_default(self, sim, cluster):
        assert cluster.network.fail_fast is False
        FaultInjector(cluster, FaultPlan()).start()
        assert cluster.network.fail_fast is True

    def test_fail_fast_opt_out(self, sim, cluster):
        FaultInjector(cluster, FaultPlan(), fail_fast=False).start()
        assert cluster.network.fail_fast is False

    def test_start_is_idempotent(self, sim, cluster):
        injector = FaultInjector(cluster, FaultPlan())
        assert injector.start() is injector.start()

    def test_metrics_count_injected_events_by_kind(self):
        registry = MetricsRegistry()
        sim = Simulator(seed=5, metrics=registry)
        cluster = Cluster(sim, SimConfig(num_nodes=4, cores_per_node=1))
        plan = FaultPlan(events=(
            NodeCrash(at_ms=10.0, node="node1"),
            NodeRestart(at_ms=20.0, node="node1"),
            StorageBrownout(at_ms=30.0, duration_ms=10.0, slowdown=2.0),
        ))
        injector = run_plan(sim, cluster, plan)
        assert injector.injected_by_kind == {
            "NodeCrash": 1, "NodeRestart": 1, "StorageBrownout": 1,
        }
        counter = registry.counter(
            "faults_injected_total", labelnames=("kind",))
        samples = {
            dict(label_pairs)["kind"]: child.current()
            for label_pairs, child in counter.children()
        }
        assert samples["NodeCrash"] == 1
        assert samples["MessageDrop"] == 0


class TestUnknownNodes:
    """A plan naming nodes outside the cluster fails at construction.

    Regression: the injector used to accept such a plan; its daemon then
    died on the first unknown node and the run looked clean (no events
    applied, no violations).
    """

    def test_scenario_with_unknown_crash_node_raises(self):
        from repro.faults import run_fault_scenario

        plan = FaultPlan([NodeCrash(at_ms=500.0, node="node9")])
        with pytest.raises(ValueError, match="node9"):
            run_fault_scenario(plan, seed=1, num_nodes=3, duration_ms=1500.0,
                               rps=10)

    @pytest.mark.parametrize("event", [
        NodeRestart(at_ms=1.0, node="ghost"),
        NetworkPartition(at_ms=1.0, duration_ms=5.0,
                         groups=(("node0",), ("ghost",))),
        MessageDrop(at_ms=1.0, duration_ms=5.0, src="ghost"),
        MessageDelay(at_ms=1.0, duration_ms=5.0, dst="ghost"),
    ])
    def test_every_node_naming_event_is_checked(self, cluster, event):
        with pytest.raises(ValueError, match="ghost"):
            FaultInjector(cluster, FaultPlan(events=(event,)))

    def test_known_nodes_and_wildcards_pass(self, cluster):
        FaultInjector(cluster, FaultPlan(events=(
            NodeCrash(at_ms=1.0, node="node3"),
            MessageDrop(at_ms=1.0, duration_ms=5.0),
            StorageBrownout(at_ms=1.0, duration_ms=5.0),
        )))

