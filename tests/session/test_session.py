"""The Session facade: wiring, driving, tracing lifecycle."""

import json

import pytest

from repro.caching import DirectStorage
from repro.config import SimConfig
from repro.core import ConcordSystem
from repro.faults import FaultPlan, NodeCrash, NodeRestart
from repro.schemes import UnknownSchemeError
from repro.session import Session
from repro.storage import DataItem
from repro.trace import Tracer, load_trace
from repro.workloads import ALL_PROFILES
from repro.workloads.profiles import working_set


class TestWiring:
    def test_defaults_build_a_concord_cluster(self):
        with Session() as s:
            assert isinstance(s.system, ConcordSystem)
            assert len(s.cluster.node_ids) == 4
            assert s.storage is s.cluster.storage
            assert s.tracer is None

    def test_scheme_selection_through_registry(self):
        with Session(scheme="nocache") as s:
            assert isinstance(s.system, DirectStorage)

    def test_unknown_scheme_raises(self):
        with pytest.raises(UnknownSchemeError):
            Session(scheme="definitely-not-a-scheme")

    def test_scheme_config_passthrough(self):
        with Session(scheme="concord", capacity=1024) as s:
            agent = next(iter(s.system.agents.values()))
            assert agent.cache.capacity_bytes == 1024

    def test_node_and_core_counts(self):
        with Session(nodes=6, cores_per_node=2) as s:
            assert len(s.cluster.node_ids) == 6
            node = s.cluster.node("node0")
            assert node.cores.capacity == 2

    def test_positional_config_rejected(self):
        with pytest.raises(TypeError):
            Session(2, 9)

    def test_bare_cluster_has_no_scheme_or_coordination(self):
        with Session(nodes=2, scheme=None) as s:
            assert s.coord is None
            assert s.system is None
            assert s.schemes == {}

    def test_int_regions_split_the_configured_nodes(self):
        config = SimConfig(num_nodes=4, cores_per_node=2)
        with Session(config=config, regions=2) as s:
            assert s.config.cores_per_node == 2
            topology = s.config.regions
            assert [topology.region_of(n) for n in s.cluster.node_ids] == [
                "region0", "region1", "region0", "region1"]


class TestDeployment:
    APPS = ("SocNet", "HotelBook")

    def test_apps_deploy_on_one_platform(self):
        with Session(nodes=2, seed=1, apps=self.APPS) as s:
            assert s.system is None
            assert tuple(s.platform.apps) == self.APPS
            assert tuple(s.deployed) == tuple(s.factories) == self.APPS
            assert s.schemes["SocNet"] is not s.schemes["HotelBook"]
            assert all(isinstance(system, ConcordSystem)
                       for system in s.schemes.values())
            key = next(iter(working_set(ALL_PROFILES["SocNet"])))
            assert s.storage.peek(key) is not None

    def test_shared_scheme_is_one_instance(self):
        with Session(nodes=2, scheme="ofc", apps=self.APPS) as s:
            assert s.schemes["SocNet"] is s.schemes["HotelBook"]
            assert s.distinct_schemes() == [s.schemes["SocNet"]]

    def test_preload_hook_primes_the_terminal_tier(self):
        with Session(nodes=2, scheme="concord-mem", apps=("SocNet",)) as s:
            tier = s.schemes["SocNet"].storage
            assert tier is not s.storage
            key = next(iter(working_set(ALL_PROFILES["SocNet"])))
            assert tier.peek(key) is not None

    def test_run_drives_a_request(self):
        with Session(nodes=2, seed=1, apps=("SocNet",)) as s:
            outcome = s.run(
                s.platform.request("SocNet", s.factories["SocNet"](0)),
                limit_ms=600_000.0).value
            assert outcome.latency_ms > 0
            assert s.deployed["SocNet"].requests_completed == 1


class TestFaults:
    PLAN = FaultPlan([NodeCrash(at_ms=50.0, node="node1"),
                      NodeRestart(at_ms=80.0, node="node1")])

    def test_injector_covers_the_restartable_schemes(self):
        with Session(nodes=3, apps=("SocNet",), faults=self.PLAN) as s:
            assert s.injector.systems == [s.schemes["SocNet"]]
            s.advance(100.0)
            assert [kind for _t, kind, _d in s.injector.applied] == [
                "NodeCrash", "NodeRestart"]

    def test_schemes_without_restart_are_left_out(self):
        with Session(nodes=3, scheme="nocache", faults=self.PLAN) as s:
            assert s.injector.systems == []

    def test_plan_naming_unknown_nodes_fails_at_construction(self):
        with pytest.raises(ValueError, match="node7"):
            Session(nodes=3, faults=FaultPlan([NodeCrash(at_ms=50.0, node="node7")]))

    def test_build_starts_nothing(self):
        s = Session.build(nodes=3, metrics=True, faults=self.PLAN)
        s.advance(100.0)
        assert s.injector.applied == []
        assert not s.sampler.running
        s.injector.start()
        s.sampler.start()
        s.advance(100.0)
        assert len(s.injector.applied) == 2
        assert s.sampler.running


class TestDriving:
    def test_read_write_round_trip(self):
        with Session(seed=9) as s:
            s.preload({"k": DataItem("v0", 256)})
            assert s.read("node1", "k").payload == "v0"
            s.write("node2", "k", DataItem("v1", 256))
            assert s.read("node3", "k").payload == "v1"

    def test_clock_advances(self):
        with Session(seed=9) as s:
            s.preload({"k": DataItem("v0", 256)})
            before = s.sim.now
            s.read("node1", "k")
            after_read = s.sim.now
            assert after_read > before
            s.advance(250.0)
            assert s.sim.now == after_read + 250.0

    def test_run_arbitrary_generator(self):
        with Session(seed=9) as s:
            def op(sim):
                yield sim.timeout(5.0)
                return "done"

            result = s.run(op(s.sim))
            assert result.value == "done"
            assert result.finished_ms == result.started_ms + 5.0
            assert result.duration_ms == 5.0

    def test_identical_sessions_identical_results(self):
        def trial():
            with Session(seed=33) as s:
                s.preload({"k": DataItem("v0", 256)})
                s.read("node1", "k")
                s.write("node2", "k", DataItem("v1", 256))
                return s.sim.now

        assert trial() == trial()


class TestTracing:
    def test_trace_true_collects_spans(self):
        with Session(seed=9, trace=True) as s:
            s.preload({"k": DataItem("v0", 256)})
            s.read("node1", "k")
            assert s.tracer is not None
            assert any(span.category == "op" for span in s.tracer.spans)
            assert s.tracer.open_spans() == []

    def test_trace_path_exports_chrome_on_close(self, tmp_path):
        path = tmp_path / "session.json"
        with Session(seed=9, trace=str(path)) as s:
            s.preload({"k": DataItem("v0", 256)})
            s.read("node1", "k")
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        spans = load_trace(path)
        assert any(span["category"] == "op" for span in spans)

    def test_trace_accepts_existing_tracer(self):
        tracer = Tracer()
        with Session(seed=9, trace=tracer) as s:
            assert s.tracer is tracer
            s.preload({"k": DataItem("v0", 256)})
            s.read("node1", "k")
        assert tracer.spans

    def test_export_jsonl_format(self, tmp_path):
        path = tmp_path / "session.jsonl"
        with Session(seed=9, trace=True) as s:
            s.preload({"k": DataItem("v0", 256)})
            s.read("node1", "k")
            s.export_trace(str(path), fmt="jsonl")
        spans = load_trace(path)
        assert spans == s.tracer.to_dicts()

    def test_export_without_tracer_raises(self, tmp_path):
        with Session(seed=9) as s:
            with pytest.raises(RuntimeError):
                s.export_trace(str(tmp_path / "x.json"))

    def test_export_unknown_format_rejected(self, tmp_path):
        with Session(seed=9, trace=True) as s:
            with pytest.raises(ValueError):
                s.export_trace(str(tmp_path / "x.bin"), fmt="protobuf")
