"""The benchmark's four workloads, built through each layer's public API.

Every workload is a fixed amount of simulated work that depends only on the
seed, so one seed always yields the same simulated results.  The host-time
metrics come from timing that fixed work.

- ``hot_reads`` and ``shared_writes`` are closed loops: one driver process
  per node issues cache operations back to back against one Concord cache.
  An operation is one cache read or write.
- ``faas_mix``, ``socnet_observed`` and ``churn_observed`` are open loops
  of Poisson arrivals through :class:`FaasPlatform`.  An operation is one
  application request, timed from its arrival (the time it was due).

``churn_observed`` is not one of the benchmark's workloads: it runs, but its
figures swing several-fold from seed to seed (see NOTES.md).

Each workload keeps a ledger of the operations it attempted and checks
every result it can: read values against the key they were read for,
request outputs against the entity the request was issued for, and the
coherence invariants of every Concord cache once the run is quiescent.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from repro.workloads import profiles as apps
from repro.cluster import Cluster
from repro.config import MB, LatencyModel, SimConfig
from repro.coord import CoordinationService
from repro.faas import CasScheduler, FaasPlatform
from repro.faas.platform import RequestResult
from repro.metrics.stats import OpKind
from repro.obs import FlightRecorder
from repro.schemes import build_scheme, build_scheme_map, make_scheduler
from repro.sim import Simulator
from repro.storage import DataItem
from repro.telemetry import MetricsRegistry, Sampler
from repro.trace import Tracer
from repro.verify.runtime import check_coherence

#: Closed-loop driver workloads: one driver per node on 16 Concord nodes.
DRIVER_NODES = 16
DRIVER_VALUE_BYTES = 1024
#: hot_reads: 256 keys of 1 KB fit every cache; reads only.
HOT_KEYS = 256
HOT_OPS_PER_DRIVER = 4000
#: shared_writes: 64 shared keys, each operation a write with p = 0.25.
SHARED_KEYS = 64
SHARED_WRITE_PROB = 0.25
SHARED_OPS_PER_DRIVER = 500
#: Simulated time the closed loops may take before the rest counts failed.
DRIVER_LIMIT_MS = 600_000.0
DRIVER_CHUNK_MS = 1000.0

#: faas_mix: the seven paper apps on 8 x 4-core nodes at a fixed 80 rps,
#: below saturation (at 115 rps the p99 grows with the run length).
MIX_NODES = 8
MIX_CORES = 4
MIX_RPS = 80.0
MIX_WARMUP_MS = 2000.0
MIX_WINDOW_MS = 13000.0
MIX_DRAIN_MS = 5000.0
#: The fig08 agent service time (scaled-down cluster calibration).
MIX_AGENT_SERVICE_MS = 1.2
MIX_CACHE_BYTES = 64 * MB

#: socnet_observed and churn_observed: fig13's SocNet point with every
#: observability sink on; churn_observed adds fig13's instance churn.
SOCNET_APP = "SocNet"
SOCNET_NODES = 16
SOCNET_CORES = 2
SOCNET_RPS = 40.0
SOCNET_LOAD_MS = 26000.0
SOCNET_DRAIN_MS = 3000.0
SAMPLER_INTERVAL_MS = 100.0
CHURN_PER_MIN = 24
CHURN_REJOIN_PAUSE_MS = 50.0


class Ledger:
    """Attempted, completed and failed operations of one run."""

    def __init__(self):
        #: Operations attempted in the measured window.
        self.attempted = 0
        #: Simulated latency (ms) of each measured operation that completed.
        self.latencies: list = []
        #: Operations (measured or not) completed over the whole run.
        self.completed_total = 0
        #: Completed operations whose result failed its check.
        self.wrong_results = 0
        #: (process, expected output) of each measured request.
        self.requests: list = []


class Run:
    """One built workload, ready to execute."""

    def __init__(self, sim, cluster, systems, coord, platform=None):
        self.sim = sim
        self.cluster = cluster
        #: Distinct Concord caches, for the coherence check.
        self.systems = systems
        self.coord = coord
        self.platform = platform
        self.ledger = Ledger()
        #: Simulated time at which measurement starts.
        self.window_start_ms = 0.0
        #: Simulated time of the last measured completion.
        self.last_done_ms = 0.0
        #: Completed remove/create domain changes (churn only).
        self.domain_changes = 0
        #: repr() of the exception that aborted ``sim.run``, if any.
        self.aborted = None
        #: Runs the simulation (set by the builder).
        self.body = None
        #: Folds outcomes into the ledger afterwards (open loops only).
        self.settle = None
        self._window_counters = None

    # -- counters ----------------------------------------------------------
    def _counters(self) -> dict:
        network = self.cluster.network.stats
        storage = self.cluster.storage.stats
        ops: dict = {}
        for system in self.systems:
            for kind, count in system.stats.ops.items():
                ops[kind] = ops.get(kind, 0) + count
        apps_deployed = self.platform.apps.values() if self.platform else ()
        return {
            "net.messages": network.messages,
            "net.bytes": network.bytes,
            "core.invalidations_sent": network.by_kind.get("invalidate", 0),
            "storage.reads": storage.reads,
            "storage.writes": storage.writes,
            "core.local_hits": ops.get(OpKind.LOCAL_READ_HIT, 0),
            "core.remote_hits": ops.get(OpKind.REMOTE_READ_HIT, 0),
            "core.misses": ops.get(OpKind.READ_MISS, 0),
            "caching.evictions": sum(
                agent.cache.evictions
                for system in self.systems
                for agent in system.agents.values()),
            "faas.cold_starts": sum(app.cold_starts for app in apps_deployed),
        }

    def snapshot_window(self) -> None:
        """Mark the start of measurement: later deltas exclude warm-up."""
        self._window_counters = self._counters()

    def results(self) -> dict:
        """The run's simulated counts; identical for every run at a seed.

        Counters are deltas over the measured window.  Ratios and
        percentiles are left to the caller, which pools several runs.
        """
        ledger = self.ledger
        now = self._counters()
        out = {name: value - self._window_counters[name]
               for name, value in now.items()}
        sim = self.sim
        violations = []
        checked = 0
        for system in self.systems:
            violations.extend(check_coherence(system))
            checked += sum(len(agent.cache) + len(agent.directory)
                           for agent in system.agents.values())
        recorder = sim.obs
        latencies = ledger.latencies
        out.update({
            "attempted": ledger.attempted,
            "completed": len(latencies),
            "wrong_results": ledger.wrong_results,
            "completed_total": ledger.completed_total,
            "aborted": self.aborted,
            "measured_sim_s": (self.last_done_ms - self.window_start_ms)
            / 1000.0,
            "latency_sha256": hashlib.sha256(
                repr(latencies).encode()).hexdigest(),
            "coherence_violations": len(violations),
            "coherence_checked": checked,
            "violation_sample": violations[:5],
            "sim.entries_scheduled": sim.schedule_count,
            "sim.daemon_failures": len(sim.daemon_failures),
            "core.domain_changes": self.domain_changes,
            "coord.failures_declared": len(self.coord.failures_detected),
            "obs.events_recorded": len(recorder) + getattr(recorder,
                                                           "dropped", 0),
            "trace.spans": len(sim.tracer.spans),
            "telemetry.samples": sim.metrics.samples,
        })
        return out

    def execute(self) -> None:
        """Run the simulation; an exception escaping it aborts the run."""
        try:
            self.body()
        except Exception as exc:  # noqa: BLE001 - counted, not raised
            self.aborted = repr(exc)
        if self.settle is not None:
            self.settle()


# -- closed-loop driver workloads ---------------------------------------------
def _driver(run, concord, node_id, keys, ops, write_prob, done):
    sim = run.sim
    ledger = run.ledger
    rng = sim.rng.stream(f"driver:{node_id}")
    latencies = ledger.latencies
    for sequence in range(ops):
        key = keys[rng.randrange(len(keys))]
        write = write_prob > 0.0 and rng.random() < write_prob
        start = sim.now
        if write:
            yield from concord.write(
                node_id, key,
                DataItem((key, node_id, sequence), DRIVER_VALUE_BYTES))
        else:
            item = yield from concord.read(node_id, key)
            if item is None or item.payload[0] != key or (
                    write_prob == 0.0 and item.payload[1] != "init"):
                ledger.wrong_results += 1
        latencies.append(sim.now - start)
        ledger.completed_total += 1
        run.last_done_ms = sim.now
    done.append(node_id)


def _build_driver(name, seed, key_count, ops_per_driver, write_prob) -> Run:
    sim = Simulator(seed=seed)
    cluster = Cluster(sim, SimConfig(num_nodes=DRIVER_NODES))
    coord = CoordinationService(cluster.network, cluster.config)
    concord = build_scheme("concord", cluster, coord, name)
    keys = [f"{name}:k{index}" for index in range(key_count)]
    cluster.storage.preload({
        key: DataItem((key, "init", 0), DRIVER_VALUE_BYTES) for key in keys})
    run = Run(sim, cluster, [concord], coord)
    run.ledger.attempted = DRIVER_NODES * ops_per_driver
    done: list = []

    def execute() -> None:
        run.snapshot_window()
        for node_id in cluster.node_ids:
            sim.spawn(_driver(run, concord, node_id, keys, ops_per_driver,
                              write_prob, done),
                      name=f"driver:{node_id}", daemon=True)
        # The coordination service heartbeats forever, so the schedule
        # never drains: advance in chunks until every driver is done.
        while len(done) < DRIVER_NODES and sim.now < DRIVER_LIMIT_MS:
            sim.run(until=sim.now + DRIVER_CHUNK_MS)

    run.body = execute
    return run


def build_hot_reads(seed: int) -> Run:
    return _build_driver("hot_reads", seed, HOT_KEYS, HOT_OPS_PER_DRIVER, 0.0)


def build_shared_writes(seed: int) -> Run:
    return _build_driver("shared_writes", seed, SHARED_KEYS,
                         SHARED_OPS_PER_DRIVER, SHARED_WRITE_PROB)


# -- open-loop FaaS workloads --------------------------------------------------
def _arrivals(run, app, rps, end_ms, factory, measure_from_ms):
    """Poisson arrivals of ``app`` requests until ``end_ms``.

    Draws from the same ``arrivals:<app>`` stream, in the same order, as
    :meth:`FaasPlatform.open_loop`, but keeps each request's process so
    the ledger can account for every request it issued.
    """
    sim = run.sim
    rng = sim.rng.stream(f"arrivals:{app}")
    platform = run.platform
    ledger = run.ledger
    index = 0
    while sim.now < end_ms:
        yield sim.timeout(rng.expovariate(rps / 1000.0))
        if sim.now >= end_ms:
            break
        inputs = factory(index)
        process = platform.submit(app, inputs)
        index += 1
        if sim.now >= measure_from_ms:
            ledger.attempted += 1
            ledger.requests.append((process, inputs["entity"]))


def _settle_requests(run) -> None:
    """Fold each measured request's outcome into the ledger."""
    ledger = run.ledger
    for process, entity in ledger.requests:
        if not process.triggered or not process.ok:
            continue
        result = process.value
        if not isinstance(result, RequestResult):
            continue  # failed after exhausting crash re-runs
        if result.output != entity:
            ledger.wrong_results += 1
        ledger.latencies.append(result.latency_ms)
        run.last_done_ms = max(run.last_done_ms, result.end_ms)
    ledger.completed_total = sum(
        app.requests_completed for app in run.platform.apps.values())


def build_faas_mix(seed: int) -> Run:
    sim = Simulator(seed=seed)
    latency = replace(LatencyModel(), agent_service_ms=MIX_AGENT_SERVICE_MS)
    config = SimConfig(num_nodes=MIX_NODES, cores_per_node=MIX_CORES,
                       latency=latency)
    cluster = Cluster(sim, config)
    coord = CoordinationService(cluster.network, config)
    names = tuple(apps.ALL_PROFILES)
    schemes = build_scheme_map("concord", cluster, coord, names,
                               capacity=MIX_CACHE_BYTES)
    platform = FaasPlatform(cluster,
                            scheduler=make_scheduler("concord", schemes))
    factories = {}
    for name in names:
        profile = apps.ALL_PROFILES[name]
        apps.preload_storage(cluster.storage, profile)
        platform.deploy(apps.build_app(profile), schemes[name])
        factories[name] = apps.entity_inputs_factory(profile, sim)
    run = Run(sim, cluster, list(schemes.values()), coord, platform)
    run.window_start_ms = MIX_WARMUP_MS
    end_ms = MIX_WARMUP_MS + MIX_WINDOW_MS
    per_app_rps = MIX_RPS / len(names)

    def execute() -> None:
        for name in names:
            sim.spawn(_arrivals(run, name, per_app_rps, end_ms,
                                factories[name], MIX_WARMUP_MS),
                      name=f"load:{name}")
        sim.run(until=MIX_WARMUP_MS)
        run.snapshot_window()
        sim.run(until=end_ms + MIX_DRAIN_MS)

    run.body = execute
    run.settle = lambda: _settle_requests(run)
    return run


def _churner(run, concord, app, load_ms, interval_ms):
    """fig13's churner: remove a random instance, re-add it 50 ms later."""
    sim = run.sim
    rng = sim.rng.stream("churn")
    while sim.now < load_ms:
        yield sim.timeout(interval_ms)
        candidates = [n for n in app.node_ids if n in concord.agents]
        if len(candidates) < 2:
            continue
        victim = rng.choice(candidates)
        app.node_ids.remove(victim)
        yield from concord.remove_instance(victim)
        run.domain_changes += 1
        yield sim.timeout(CHURN_REJOIN_PAUSE_MS)
        yield from concord.create_instance(victim)
        run.domain_changes += 1
        app.node_ids.append(victim)


def build_socnet(seed: int, churn_per_min: int = 0,
                 load_ms: float = SOCNET_LOAD_MS,
                 drain_ms: float = SOCNET_DRAIN_MS) -> Run:
    """fig13's setup with the tracer, registry and recorder attached.

    ``churn_per_min`` removes and re-adds that many cache instances per
    minute, as fig13 does.  ``load_ms`` and ``drain_ms`` exist to reproduce
    the recorded churn defect (see NOTES.md); the workloads use defaults.
    """
    sim = Simulator(seed=seed, tracer=Tracer(), metrics=MetricsRegistry(),
                    obs=FlightRecorder())
    cluster = Cluster(sim, SimConfig(num_nodes=SOCNET_NODES,
                                     cores_per_node=SOCNET_CORES))
    coord = CoordinationService(cluster.network, cluster.config)
    profile = apps.ALL_PROFILES[SOCNET_APP]
    concord = build_scheme("concord", cluster, coord, SOCNET_APP)
    apps.preload_storage(cluster.storage, profile)
    platform = FaasPlatform(cluster, scheduler=CasScheduler())
    app = platform.deploy(apps.build_app(profile), concord)
    factory = apps.entity_inputs_factory(profile, sim)
    run = Run(sim, cluster, [concord], coord, platform)
    sampler = Sampler(sim, interval_ms=SAMPLER_INTERVAL_MS)

    def execute() -> None:
        sampler.start()
        sim.spawn(_arrivals(run, SOCNET_APP, SOCNET_RPS, load_ms, factory,
                            0.0),
                  name="load")
        if churn_per_min > 0:
            sim.spawn(_churner(run, concord, app, load_ms,
                               60_000.0 / churn_per_min),
                      name="churner", daemon=True)
        run.snapshot_window()
        sim.run(until=load_ms + drain_ms)

    def finish() -> None:
        sampler.stop()
        _settle_requests(run)

    run.body = execute
    run.settle = finish
    return run


BUILDERS = {
    "hot_reads": build_hot_reads,
    "shared_writes": build_shared_writes,
    "faas_mix": build_faas_mix,
    "socnet_observed": build_socnet,
    "churn_observed": lambda seed: build_socnet(seed, CHURN_PER_MIN),
}
