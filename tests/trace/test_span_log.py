"""Pinned trace exports and the memory shape of the span log.

The digests below were captured from the object-per-span tracer that the
columnar span log replaced, for one fixed, seeded, traced FaaS run.  The
log must reproduce every export byte for byte: JSONL, Chrome, and the
``to_dicts()`` records that ``fig01_breakdown`` derives its table from.
"""

import gc
import hashlib
import json

import pytest

from repro.cluster import Cluster
from repro.config import SimConfig
from repro.coord import CoordinationService
from repro.faas import CasScheduler, FaasPlatform
from repro.schemes import build_scheme
from repro.sim import Simulator
from repro.sim.process import Process
from repro.trace import Span, Tracer, chrome_dumps, jsonl_dumps
from repro.workloads import profiles

GOLDEN = {
    "jsonl": "87f3e8734f10b68db7d4d1b2c8d1c8b0515e47251e6aaedb8cf9798dd3990942",
    "chrome": "445c50e84086cbdd4a12b7e5b9f374fa36f761aaaf7cddd1169e7224f673db37",
    "dicts": "6775c10f3ace0808c380a14f2d1093af5cb8074ae01dbaf831ff1dfe6112d248",
}
GOLDEN_SPANS = 8541


def golden_run() -> Tracer:
    """SocNet at 40 rps for 1.5 simulated seconds over Concord, traced."""
    tracer = Tracer()
    sim = Simulator(seed=2024, tracer=tracer)
    cluster = Cluster(sim, SimConfig(num_nodes=4, cores_per_node=2))
    coord = CoordinationService(cluster.network, cluster.config)
    profile = profiles.ALL_PROFILES["SocNet"]
    concord = build_scheme("concord", cluster, coord, "SocNet")
    profiles.preload_storage(cluster.storage, profile)
    platform = FaasPlatform(cluster, scheduler=CasScheduler())
    platform.deploy(profiles.build_app(profile), concord)
    factory = profiles.entity_inputs_factory(profile, sim)
    sim.spawn(platform.open_loop("SocNet", 40.0, 1_500.0, factory),
              name="load")
    sim.run(until=4_000.0)
    return tracer


def digests(tracer: Tracer) -> dict:
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    return {
        "jsonl": sha(jsonl_dumps(tracer)),
        "chrome": sha(chrome_dumps(tracer)),
        "dicts": sha(json.dumps(tracer.to_dicts(), sort_keys=True)),
    }


def test_exports_match_pinned_digests():
    tracer = golden_run()
    assert len(tracer.spans) == GOLDEN_SPANS
    assert digests(tracer) == GOLDEN


def reachable(root, skip) -> list:
    """Objects reachable from ``root``, not walking into ``skip`` or types."""
    skipped = {id(obj) for obj in skip}
    seen = set()
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in skipped or isinstance(obj, type):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


class TestMemoryShape:
    def test_no_process_reachable_after_run(self):
        tracer = golden_run()
        # Heartbeat probes still have their rpc spans open when the run
        # stops; only those open handles may still reach a process.
        held = {id(span._process) for span in tracer.open_spans()}
        objects = reachable(tracer, skip=[tracer.sim, tracer._open])
        assert not [obj for obj in objects if isinstance(obj, Process)]
        assert not [obj for obj in objects if isinstance(obj, Span)]
        assert len(held) == len(tracer.open_spans())

    def test_len_builds_no_span(self, monkeypatch):
        tracer = golden_run()
        built = []
        original = Span.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting)
        assert len(tracer.spans) == GOLDEN_SPANS
        assert built == []
        assert tracer.spans[0].span_id > 0
        assert built == [1]

    def test_handle_readable_after_end(self):
        tracer = Tracer()
        sim = Simulator(seed=1, tracer=tracer)

        def proc(sim):
            span = tracer.span("rpc:get", "rpc", key="k")
            span.set("status", "ok")
            yield sim.timeout(2.5)
            span.end()
            span.end()
            return span

        process = sim.spawn(proc(sim), name="client")
        sim.run()
        span = process.value
        assert len(tracer.spans) == 1
        assert (span.name, span.category, span.start_ms, span.end_ms,
                span.duration_ms) == ("rpc:get", "rpc", 0.0, 2.5, 2.5)
        assert span.attrs == {"key": "k", "status": "ok"}
        assert span.context.span_id == span.span_id
        assert span._process is None and span._prev_ctx is None
        assert tracer.spans[0] == span
        assert tracer.spans == [span]


class TestSpanView:
    def test_view_is_live_and_read_only(self):
        tracer = Tracer()
        Simulator(seed=1, tracer=tracer)
        view = tracer.spans
        assert view == [] and len(view) == 0
        for name in ("a", "b", "c"):
            tracer.span(name, "op", parent=None).end()
        assert tracer.spans is view
        assert [s.name for s in view] == ["a", "b", "c"]
        assert view[-1].name == "c"
        assert view == list(view) and view == tuple(view)
        assert view != list(view)[:2]
        snapshot = list(view)
        tracer.span("d", "op").end()
        assert len(snapshot) == 3 and len(view) == 4
        with pytest.raises(IndexError):
            view[4]
        with pytest.raises(TypeError):
            view[0] = snapshot[0]

    def test_set_after_end_is_rejected(self):
        tracer = Tracer()
        Simulator(seed=1, tracer=tracer)
        span = tracer.span("op", "op")
        span.end()
        with pytest.raises(RuntimeError):
            span.set("late", True)
        assert tracer.spans[0].attrs == {}

    def test_attribute_shapes_are_shared(self):
        tracer = Tracer()
        Simulator(seed=1, tracer=tracer)
        for key in ("k1", "k2"):
            tracer.instant("dir:get", "directory", key=key, node="n0")
        tracer.instant("dir:remove", "directory", key="k3")
        assert [d["attrs"] for d in tracer.to_dicts()] == [
            {"key": "k1", "node": "n0"}, {"key": "k2", "node": "n0"},
            {"key": "k3"}]
        assert tracer._shapes == [(), ("key", "node"), ("key",)]
