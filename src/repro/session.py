"""The one builder of simulated deployments.

Every experiment, bench point and fault scenario in :mod:`repro` gets its
simulator, cluster, coordination service and caching schemes from
:class:`Session`; nothing else constructs them.  The explicit wiring
(Simulator, Cluster, CoordinationService, ``build_scheme``) stays public
for scripts that want it, but most want exactly one shape::

    from repro.session import Session
    from repro.storage import DataItem

    with Session(nodes=4, seed=42, scheme="concord") as s:
        s.preload({"k": DataItem("v0", 256)})
        value = s.read("node1", "k")
        s.write("node2", "k", DataItem("v1", 256))

Schemes are constructed through the :mod:`repro.schemes` registry, so any
registered name works (``concord``, ``faast``, ``ofc``, ``nocache``, ...);
``scheme=None`` builds a bare cluster with no coordination service.
``apps=("SocNet", ...)`` deploys those workload profiles on one
:class:`~repro.faas.FaasPlatform` instead, with one scheme instance per
app (a single one for shared schemes), and ``faults=`` replays a
:class:`~repro.faults.FaultPlan` against the deployment.

Passing ``trace=True`` attaches a :class:`~repro.trace.Tracer`; passing a
path string additionally exports a Chrome trace there when the session
closes.  ``metrics=`` works the same way for time-series telemetry: pass
``True`` (or a :class:`~repro.telemetry.MetricsRegistry`) to attach a
registry sampled every ``metrics_interval_ms`` of simulated time, or a
path string to also export the JSONL timeline on close.  ``obs=``
follows the same contract for the protocol-event flight recorder: pass
``True`` (or a :class:`~repro.obs.FlightRecorder`) to record protocol
events, or a path string to also dump the ring as JSONL on close — and,
through the recorder's own auto-dump hook, the moment a fault is
injected or the coherence checker flags a violation.

Construction contract: building a session only constructs (the
processes that constructors spawn themselves, such as the coordination
heartbeat or a scheme's flush daemons, come with them).
``Session(...)`` then starts the fault injector and the telemetry
sampler; :meth:`Session.build` leaves both to the caller, for
sites that start them at their own moment (the mixed-workload runner
samples telemetry only after warm-up).  Spawn order sets the order of
same-instant events, so moving a start changes the run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.cluster import Cluster
from repro.config import SimConfig
from repro.coord import CoordinationService
from repro.faas import FaasPlatform
from repro.obs import FlightRecorder
from repro.obs import export_jsonl as _obs_export_jsonl
from repro.schemes import build_scheme, build_scheme_map, make_scheduler, \
    scheme_spec
from repro.sim import Simulator
from repro.telemetry import MetricsRegistry, Sampler
from repro.telemetry import export_csv as _metrics_export_csv
from repro.telemetry import export_jsonl as _metrics_export_jsonl
from repro.telemetry import export_prometheus as _metrics_export_prometheus
from repro.trace import Tracer, export_chrome, export_jsonl
from repro.workloads import ALL_PROFILES, build_app, entity_inputs_factory
from repro.workloads.profiles import preload_storage

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector

__all__ = ["RunResult", "Session"]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one :meth:`Session.run` drive.

    Carries the operation's return value together with where the
    simulated clock started and stopped, so callers get latency
    accounting without sampling ``sim.now`` around every call.
    """

    #: The driven generator's return value.
    value: object
    #: Simulated clock when the drive started / finished (ms).
    started_ms: float
    finished_ms: float

    @property
    def duration_ms(self) -> float:
        """Simulated milliseconds the operation took."""
        return self.finished_ms - self.started_ms


class Session:
    """A ready-to-use simulated deployment.

    All configuration is keyword-only::

        with Session(nodes=4, seed=42, scheme="concord") as s:
            ...

    Keywords: ``nodes``, ``cores_per_node``, ``regions`` (a
    :class:`~repro.net.RegionTopology`, or an int to split the nodes
    round-robin over that many regions) and ``config`` (a full
    :class:`~repro.config.SimConfig`, which then supplies the node and
    core counts) shape the cluster; ``seed`` seeds the simulator;
    ``scheme`` and ``app`` name the scheme instance (``system``), or
    ``apps`` names the workload profiles deployed on ``platform``;
    ``faults`` is a fault plan; ``trace``/``metrics``/``obs`` and
    ``metrics_interval_ms`` attach the probes; every other keyword is
    passed to the scheme builder.
    """

    def __init__(self, **settings):
        self._assemble(**settings)
        if self.injector is not None:
            self.injector.start()
        self.sampler.start()

    @classmethod
    def build(cls, **settings) -> "Session":
        """Assemble like ``Session(...)`` but start nothing.

        The caller starts ``injector`` and ``sampler`` (when it wants
        them) at the moment its run needs them.
        """
        session = cls.__new__(cls)
        session._assemble(**settings)
        return session

    def _assemble(self, *, nodes: int = 4, seed: int = 42,
                  scheme: Optional[str] = "concord", app: str = "app",
                  apps: Optional[tuple] = None, cores_per_node: int = 8,
                  trace=None, metrics=None, obs=None,
                  metrics_interval_ms: float = 100.0, regions=None,
                  config: Optional[SimConfig] = None, faults=None,
                  **scheme_cfg) -> None:
        self._trace = trace
        tracer = None
        if trace:
            tracer = trace if isinstance(trace, Tracer) else Tracer()
        self.tracer: Optional[Tracer] = tracer
        self._metrics = metrics
        registry = None
        if metrics:
            registry = (metrics if isinstance(metrics, MetricsRegistry)
                        else MetricsRegistry())
        self.metrics: Optional[MetricsRegistry] = registry
        self._obs = obs
        # isinstance first: an empty FlightRecorder is falsy (len() == 0).
        recorder = None
        if isinstance(obs, FlightRecorder):
            recorder = obs
        elif isinstance(obs, str):
            # Auto-dump to the same path on faults/violations too.
            recorder = FlightRecorder(dump_path=obs)
        elif obs:
            recorder = FlightRecorder()
        self.obs: Optional[FlightRecorder] = recorder
        self.sim = Simulator(seed=seed, tracer=tracer, metrics=registry,
                             obs=recorder)
        config = config or SimConfig(
            num_nodes=nodes, cores_per_node=cores_per_node)
        if isinstance(regions, int):
            from repro.net import RegionTopology

            regions = RegionTopology.even(
                [f"node{i}" for i in range(config.num_nodes)],
                regions=tuple(f"region{i}" for i in range(regions)))
        if regions is not None:
            config = replace(config, regions=regions)
        self.config = config
        self.cluster = Cluster(self.sim, config)
        self.scheme = scheme
        self.app = app
        #: None for a bare cluster (``scheme=None``).
        self.coord: Optional[CoordinationService] = None
        #: The single-app scheme instance (a StorageAPI); None when the
        #: session deploys ``apps`` or is a bare cluster.
        self.system = None
        #: app -> the StorageAPI serving it (shared schemes map every app
        #: to the same instance).
        self.schemes: dict = {}
        #: The FaaS platform ``apps`` are deployed on (None otherwise),
        #: with each app's DeployedApp and per-request inputs factory.
        self.platform: Optional[FaasPlatform] = None
        self.deployed: dict = {}
        self.factories: dict = {}
        if scheme is not None:
            self.coord = CoordinationService(self.cluster.network, config)
            if apps is None:
                self.system = build_scheme(
                    scheme, self.cluster, self.coord, app=app, **scheme_cfg)
                self.schemes = {app: self.system}
            else:
                self._deploy(scheme, apps, scheme_cfg)
        #: Replays ``faults``; restarted nodes rejoin every distinct
        #: scheme that supports it.
        self.injector: Optional["FaultInjector"] = None
        if faults is not None:
            # Imported here: repro.faults' scenario runner builds through
            # this module.
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(
                self.cluster, faults,
                systems=[system for system in self.distinct_schemes()
                         if hasattr(system, "restart_instance")],
                platform=self.platform)
        #: Fixed-interval telemetry sampler (inert when metrics is off).
        self.sampler = Sampler(self.sim, interval_ms=metrics_interval_ms)

    def _deploy(self, scheme: str, apps: tuple, scheme_cfg: dict) -> None:
        """Build the per-app scheme map and deploy ``apps`` on a platform."""
        self.schemes = build_scheme_map(
            scheme, self.cluster, self.coord, apps, **scheme_cfg)
        self.platform = FaasPlatform(
            self.cluster, scheduler=make_scheduler(scheme, self.schemes))
        preload = scheme_spec(scheme).preload
        for name in apps:
            profile = ALL_PROFILES[name]
            preload_storage(self.cluster.storage, profile)
            system = self.schemes[name]
            if preload is not None:
                # Schemes acting as the terminal store prime themselves too.
                preload(system, profile)
            self.deployed[name] = self.platform.deploy(
                build_app(profile), system)
            self.factories[name] = entity_inputs_factory(profile, self.sim)

    def distinct_schemes(self) -> list:
        """Each scheme instance once, in app order (OFC is shared)."""
        distinct: list = []
        for system in self.schemes.values():
            if not any(system is seen for seen in distinct):
                distinct.append(system)
        return distinct

    # -- data ----------------------------------------------------------------
    @property
    def storage(self):
        """The cluster's global (durable) storage."""
        return self.cluster.storage

    def preload(self, items: dict) -> None:
        """Populate global storage instantly (no simulated latency)."""
        self.cluster.storage.preload(items)

    # -- driving the clock ---------------------------------------------------
    def run(self, operation, limit_ms: float = 60_000.0) -> RunResult:
        """Drive one operation generator to completion.

        Returns a :class:`RunResult` carrying the operation's value plus
        the simulated start/finish timestamps of the drive.
        """
        started = self.sim.now
        value = self.sim.run_until_complete(
            self.sim.spawn(operation), limit=started + limit_ms)
        return RunResult(value=value, started_ms=started,
                         finished_ms=self.sim.now)

    def read(self, node_id: str, key: str):
        """Read ``key`` from ``node_id`` through the scheme (blocking)."""
        return self.run(self.system.read(node_id, key)).value

    def write(self, node_id: str, key: str, value: object):
        """Write ``key`` at ``node_id`` through the scheme (blocking)."""
        return self.run(self.system.write(node_id, key, value)).value

    def advance(self, ms: float) -> None:
        """Let the simulation run for ``ms`` more milliseconds."""
        self.sim.run(until=self.sim.now + ms)

    # -- tracing -------------------------------------------------------------
    def export_trace(self, path: str, fmt: str = "chrome") -> None:
        """Write collected spans to ``path`` (``chrome`` or ``jsonl``)."""
        if self.tracer is None:
            raise RuntimeError("session was created without trace=...")
        if fmt == "chrome":
            export_chrome(self.tracer, path)
        elif fmt == "jsonl":
            export_jsonl(self.tracer, path)
        else:
            raise ValueError(f"unknown trace format {fmt!r}")

    # -- telemetry -----------------------------------------------------------
    def export_metrics(self, path: str, fmt: str = "jsonl") -> None:
        """Write sampled timelines to ``path``.

        ``fmt`` is ``jsonl``, ``csv`` or ``prometheus`` (text exposition
        format; export-only — the ``repro-metrics`` CLI reads the first
        two).
        """
        if self.metrics is None:
            raise RuntimeError("session was created without metrics=...")
        if fmt == "jsonl":
            _metrics_export_jsonl(self.metrics, path)
        elif fmt == "csv":
            _metrics_export_csv(self.metrics, path)
        elif fmt == "prometheus":
            _metrics_export_prometheus(self.metrics, path)
        else:
            raise ValueError(f"unknown metrics format {fmt!r}")

    # -- flight recorder -----------------------------------------------------
    def export_obs(self, path: str) -> None:
        """Write the flight recorder's event ring to ``path`` (JSONL)."""
        if self.obs is None:
            raise RuntimeError("session was created without obs=...")
        _obs_export_jsonl(self.obs, path)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Finish the session; exports trace/timeline/events as requested."""
        self.sampler.stop()
        if self.tracer is not None and isinstance(self._trace, str):
            self.export_trace(self._trace)
        if self.metrics is not None and isinstance(self._metrics, str):
            self.export_metrics(self._metrics)
        if self.obs is not None and isinstance(self._obs, str):
            self.export_obs(self._obs)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.close()
        return False
