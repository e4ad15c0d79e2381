"""The shared mixed-workload runner behind most experiments.

Mirrors the paper's setup: all seven applications run concurrently on one
cluster, the offered load is split evenly among them, and low/medium/high
load levels drive cluster CPU utilization to roughly 25 %, 50 % and 70 %
(Section V).  The cluster is scaled down from the paper's 16x20 cores to
keep simulation time manageable; ``num_nodes``/``cores_per_node`` are
configurable, and every reported metric is shape-preserving (ratios, hit
mixes, invalidation counts) rather than absolute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.config import MB, LatencyModel, SimConfig
from repro.core import ConcordSystem
from repro.metrics import AccessStats, Histogram
from repro.session import Session
from repro.workloads import ALL_PROFILES

#: Load levels as target cluster CPU utilization (paper Section V).
LOAD_LEVELS = {"low": 0.25, "medium": 0.50, "high": 0.70}


@dataclass
class MixedRunConfig:
    """One mixed-workload measurement run."""

    scheme: str = "concord"
    num_nodes: int = 4
    cores_per_node: int = 8
    apps: tuple = tuple(ALL_PROFILES)
    #: Target cluster CPU utilization (overrides total_rps if set).
    utilization: Optional[float] = 0.50
    #: Explicit total request rate (requests/s across all apps).
    total_rps: Optional[float] = None
    duration_ms: float = 6000.0
    warmup_ms: float = 2000.0
    drain_ms: float = 2000.0
    seed: int = 0xC0FFEE
    #: Fixed per-instance cache capacity (None = repurposed memory).
    cache_capacity: Optional[int] = 64 * MB
    #: Sampling period for sharer/memory observations.
    sample_every_ms: float = 250.0
    read_only_annotations: bool = False
    #: Override for OFC's per-node shared cache budget (by default OFC
    #: shares one 64 MB per-node cache across all apps, as in its paper;
    #: Figure 14 sets this to a per-app-equivalent budget for a fair
    #: capacity sweep).
    ofc_shared_capacity: Optional[int] = None
    #: Cache-agent request service time.  The cluster here is scaled down
    #: ~10x from the paper's 16x20-core / 2000-RPS deployment, so the raw
    #: 0.3 ms agent cost would make per-node RPC utilization — the
    #: contention-point effect of Section III — vanish.  1.2 ms restores
    #: the paper's RPC-utilization operating points (roughly 25/50/70 %
    #: busy at the hot agents of single-home schemes under the three
    #: loads) while barely moving unloaded per-op costs.
    agent_service_ms: float = 1.2
    #: Causal tracing: ``True`` collects spans (``result.tracer``), a path
    #: string additionally exports a Chrome trace there, a
    #: :class:`~repro.trace.Tracer` instance is used as-is.
    trace: object = None
    #: Time-series telemetry: ``True`` samples instruments into
    #: ``result.metrics``, a path string additionally exports the JSONL
    #: timeline there, a :class:`~repro.telemetry.MetricsRegistry`
    #: instance is used as-is.
    metrics: object = None
    #: Simulated-clock sampling period of the telemetry Sampler.
    metrics_interval_ms: float = 100.0
    #: Protocol-event flight recorder: ``True`` records into
    #: ``result.obs``, a path string also dumps the ring there (on every
    #: injected fault and at the end), a
    #: :class:`~repro.obs.FlightRecorder` instance is used as-is.
    obs: object = None
    #: Optional :class:`~repro.faults.FaultPlan` replayed during the run
    #: (times are absolute simulated time, warmup included).
    faults: object = None
    #: Directory sharding (Concord schemes only): number of consistent-
    #: hash shards the home role is partitioned over (None = ring homes).
    shards: Optional[int] = None
    #: Replica-chain depth per shard (leader + followers).
    replication: int = 1
    #: Optional :class:`~repro.net.RegionTopology` for multi-region runs
    #: (an int splits the nodes round-robin over that many regions).
    regions: object = None
    #: Extra scheme-specific configuration splatted into the scheme
    #: builder (e.g. ``{"ttl_ms": 200.0}`` for read-through-ttl or
    #: ``{"wb_buffer_entries": 16}`` for write-behind); keys meant for
    #: other schemes are ignored by the builders.
    scheme_cfg: dict = field(default_factory=dict)

    def cpu_ms_per_request(self) -> float:
        """Average CPU demand of one request across the app mix."""
        demands = [
            ALL_PROFILES[name].functions * ALL_PROFILES[name].compute_ms
            for name in self.apps
        ]
        return sum(demands) / len(demands)

    def resolved_total_rps(self) -> float:
        if self.total_rps is not None:
            return self.total_rps
        cores = self.num_nodes * self.cores_per_node
        return self.utilization * cores * 1000.0 / self.cpu_ms_per_request()


@dataclass
class AppRunStats:
    """Per-application results of one run."""

    app: str
    mean_latency_ms: float
    p50_latency_ms: float
    p99_latency_ms: float
    completed: int
    storage_fraction: float


@dataclass
class MixedRunResult:
    """Everything the experiments extract from one run."""

    config: MixedRunConfig
    per_app: dict = field(default_factory=dict)      # app -> AppRunStats
    access: AccessStats = field(default_factory=AccessStats)
    #: app -> that app's own AccessStats (per-app schemes only; the shared
    #: OFC cache reports the same aggregate object for every app).
    per_app_access: dict = field(default_factory=dict)
    #: Per-sample (avg_sharers, max_sharers) over directory entries.
    sharer_samples: list = field(default_factory=list)
    #: app -> list of (avg_sharers, max_sharers) samples.
    sharer_samples_per_app: dict = field(default_factory=dict)
    #: Per-(app, node) peak cache occupancy in bytes.
    cache_peaks: dict = field(default_factory=dict)
    network_messages: int = 0
    storage_reads: int = 0
    storage_writes: int = 0
    #: The run's Tracer when ``config.trace`` was set (not fingerprinted).
    tracer: object = None
    #: The run's MetricsRegistry when ``config.metrics`` was set.
    metrics: object = None
    #: The run's FlightRecorder when ``config.obs`` was set.
    obs: object = None
    #: (sim_time, kind, detail) fault events applied (config.faults only).
    fault_log: list = field(default_factory=list)
    #: app -> the StorageAPI instance that served it (shared schemes map
    #: every app to the same object).  For post-run inspection — scheme
    #: invariant checks, staleness logs, loss counters.
    schemes: dict = field(default_factory=dict)

    def mean_latency(self) -> float:
        values = [s.mean_latency_ms for s in self.per_app.values() if s.completed]
        return sum(values) / len(values) if values else float("nan")


def _build_session(config: MixedRunConfig, latency: LatencyModel) -> Session:
    """Assemble ``config``'s deployment; the caller starts its processes."""
    return Session.build(
        seed=config.seed, scheme=config.scheme, apps=config.apps,
        config=SimConfig(num_nodes=config.num_nodes,
                         cores_per_node=config.cores_per_node,
                         latency=latency),
        regions=config.regions, faults=config.faults,
        trace=config.trace, metrics=config.metrics, obs=config.obs,
        metrics_interval_ms=config.metrics_interval_ms,
        capacity=config.cache_capacity,
        ofc_shared_capacity=config.ofc_shared_capacity,
        read_only_annotations=config.read_only_annotations,
        num_memory_nodes=config.num_nodes,
        shards=config.shards,
        replication=config.replication,
        **config.scheme_cfg,
    )


def run_mixed_workload(config: MixedRunConfig) -> MixedRunResult:
    """Execute one measurement run and collect all metrics."""
    session = _build_session(config, replace(
        LatencyModel(), agent_service_ms=config.agent_service_ms))
    sim, cluster = session.sim, session.cluster
    schemes, deployed = session.schemes, session.deployed
    if session.injector is not None:
        session.injector.start()

    per_app_rps = config.resolved_total_rps() / len(config.apps)
    result = MixedRunResult(config=config)

    def load_phase(duration_ms):
        for name in config.apps:
            sim.spawn(
                session.platform.open_loop(
                    name, per_app_rps, duration_ms, session.factories[name]),
                name=f"load:{name}",
            )

    # Warmup: populate caches, then reset every metric.
    load_phase(config.warmup_ms)
    sim.run(until=sim.now + config.warmup_ms + 500.0)
    for name, app in deployed.items():
        app.latency = Histogram()
        app.storage_ms_total = 0.0
        app.compute_ms_total = 0.0
        app.requests_completed = 0
        schemes[name].stats.reset()
    network_before = cluster.network.stats.messages
    storage_reads_before = cluster.storage.stats.reads
    storage_writes_before = cluster.storage.stats.writes

    # Sampler for sharer counts and cache occupancy (Concord only).
    def sampler(sim):
        while True:
            yield sim.timeout(config.sample_every_ms)
            counts = []
            for name in config.apps:
                scheme = schemes[name]
                if isinstance(scheme, ConcordSystem):
                    app_counts = scheme.sharer_counts()
                    counts.extend(app_counts)
                    if app_counts:
                        result.sharer_samples_per_app.setdefault(
                            name, []).append(
                            (sum(app_counts) / len(app_counts),
                             max(app_counts)))
                    for node_id, used in scheme.cache_bytes().items():
                        key = (name, node_id)
                        result.cache_peaks[key] = max(
                            result.cache_peaks.get(key, 0), used)
            if counts:
                result.sharer_samples.append(
                    (sum(counts) / len(counts), max(counts)))

    sim.spawn(sampler(sim), name="sampler", daemon=True)
    # Time-series telemetry sampling starts with the measurement phase,
    # so exported timelines cover measurement + drain (not warmup).
    session.sampler.start()

    # Measurement phase.
    load_phase(config.duration_ms)
    sim.run(until=sim.now + config.duration_ms + config.drain_ms)

    for name, app in deployed.items():
        histogram = app.latency
        result.per_app[name] = AppRunStats(
            app=name,
            mean_latency_ms=histogram.mean,
            p50_latency_ms=histogram.p50,
            p99_latency_ms=histogram.p99,
            completed=histogram.count,
            storage_fraction=app.storage_fraction,
        )
    for name, scheme in schemes.items():
        result.per_app_access[name] = scheme.stats
    # Merge access stats once per distinct scheme object (OFC is shared).
    for scheme in session.distinct_schemes():
        result.access.merge(scheme.stats)
    result.network_messages = cluster.network.stats.messages - network_before
    result.storage_reads = cluster.storage.stats.reads - storage_reads_before
    result.storage_writes = cluster.storage.stats.writes - storage_writes_before
    session.close()
    result.tracer = session.tracer
    result.metrics = session.metrics
    result.obs = session.obs
    result.schemes = schemes
    if session.injector is not None:
        result.fault_log = list(session.injector.applied)
    return result


def unloaded_latency(
    scheme: str,
    apps: Optional[tuple] = None,
    num_nodes: int = 4,
    cores_per_node: int = 8,
    requests: int = 8,
    seed: int = 77,
) -> dict:
    """Per-app mean latency on an otherwise idle cluster (SLO baseline)."""
    config = MixedRunConfig(
        scheme=scheme, num_nodes=num_nodes, cores_per_node=cores_per_node,
        apps=apps or tuple(ALL_PROFILES), seed=seed,
    )
    session = _build_session(config, LatencyModel())
    latencies = {}
    for name in config.apps:
        factory = session.factories[name]
        histogram = Histogram()
        for index in range(requests):
            outcome = session.run(
                session.platform.request(name, factory(index)),
                limit_ms=600_000.0).value
            histogram.record(outcome.latency_ms)
        latencies[name] = histogram.mean
    return latencies
