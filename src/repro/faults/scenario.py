"""A canonical fault scenario: one app under load with faults injected.

Shared by the replay-determinism tests and the CI fault matrix
(``scripts/fault_matrix.py``): build a small single-app deployment of
any registered scheme (Concord by default), drive Poisson load through
the FaaS platform, replay a :class:`FaultPlan`, let recovery settle,
then capture everything a byte-level replay comparison needs — the
canonical telemetry export, the scheme-dispatched invariant verdict,
and the failure/recovery counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SimConfig
from repro.faults.plan import FaultPlan
from repro.obs import jsonl_dumps as obs_jsonl_dumps
from repro.session import Session
from repro.telemetry import jsonl_dumps
from repro.verify import check_scheme_invariants

#: Post-load settle window: failure detection + recovery + drain.
SETTLE_MS = 4000.0


@dataclass
class ScenarioOutcome:
    """Everything a replay comparison or invariant check needs."""

    plan: FaultPlan
    seed: int
    completed: int = 0
    failed: int = 0
    rescheduled: int = 0
    #: (sim_time, app, node_id) failure declarations by the coordinator.
    failures_detected: list = field(default_factory=list)
    recoveries_completed: int = 0
    #: (sim_time, kind, detail) events the injector applied.
    applied: list = field(default_factory=list)
    #: Coherence-invariant violations at the quiescent end state.
    violations: list = field(default_factory=list)
    #: Canonical telemetry export (byte-compared across replays).
    telemetry_jsonl: str = ""
    #: Flight-recorder JSONL ("" unless the scenario ran with obs=...).
    #: Deliberately NOT part of the fingerprint: a recorder must never
    #: change what the fingerprint measures, and obs-on runs are
    #: fingerprint-compared against obs-off runs to prove it.
    obs_jsonl: str = ""
    #: Final shard leader table, one chain per shard (() for flat runs).
    shard_table: tuple = ()
    #: Shards that changed leaders during the run (re-homes + failovers).
    shards_rehomed: int = 0
    #: Leader-loss failovers among those re-homes.
    shard_failovers: int = 0
    #: (process name, exception type name) per daemon process that died
    #: during the run, in the order the simulator recorded them.
    daemon_failures: list = field(default_factory=list)
    #: The scheme instance under test (NOT part of the fingerprint;
    #: experiments read loss counters / staleness logs off it post-run).
    system: object = None

    def fingerprint(self) -> tuple:
        """Order-stable digest for replay equality assertions."""
        return (
            self.completed, self.failed, self.rescheduled,
            tuple(self.failures_detected), self.recoveries_completed,
            tuple(self.applied), tuple(self.violations),
            self.telemetry_jsonl,
            self.shard_table, self.shards_rehomed, self.shard_failovers,
            tuple(self.daemon_failures),
        )


def run_fault_scenario(
    plan: FaultPlan,
    seed: int,
    num_nodes: int = 6,
    duration_ms: float = 8000.0,
    rps: float = 30.0,
    app_name: str = "SocNet",
    obs=None,
    regions=None,
    settle_ms: float = SETTLE_MS,
    scheme: str = "concord",
    **scheme_cfg,
) -> ScenarioOutcome:
    """Run the canonical scenario once and capture its outcome.

    ``obs`` attaches a flight recorder: pass ``True`` for an in-memory
    ring (exported into ``ScenarioOutcome.obs_jsonl``), a path string
    for a recorder that also auto-dumps there on every injected fault,
    or a ready :class:`FlightRecorder`.

    ``regions`` accepts a :class:`~repro.net.RegionTopology` or an int
    (nodes split round-robin over that many regions).  ``settle_ms``
    stretches the post-load drain — region partitions need a longer one
    because unreachability reports trail the RPC timeout (~5 s) and the
    resulting eject/rejoin churn must finish before the checker runs.

    ``scheme`` selects any registered scheme (the CI fault matrix races
    the whole catalogue through here); every other keyword goes to its
    builder — ``shards``/``replication`` run Concord's sharded-directory
    topology, ``recovery_lease_ms`` its lease-bounded recovery.
    Concord-specific outcome fields (recoveries, shard table) stay at
    their zero defaults for other schemes.
    """
    session = Session(
        seed=seed, scheme=scheme, apps=(app_name,),
        config=SimConfig(
            num_nodes=num_nodes, cores_per_node=2,
            # Fast detection keeps recovery inside the settle window.
            heartbeat_interval_ms=200.0, heartbeat_misses=3,
        ),
        regions=regions, faults=plan, metrics=True, obs=obs, **scheme_cfg)
    sim = session.sim
    system = session.schemes[app_name]
    app = session.deployed[app_name]
    sim.spawn(session.platform.open_loop(
        app_name, rps, duration_ms, session.factories[app_name]),
        name="load")
    sim.run(until=duration_ms + settle_ms)
    # Not session.close(): an obs path keeps the last fault auto-dump,
    # which a close-time export of the whole ring would overwrite.
    session.sampler.stop()

    manager = getattr(system, "shard_manager", None)
    shard_table = ()
    if manager is not None:
        shard_table = system.controller.ring.table()
    controller = getattr(system, "controller", None)
    recoveries = (controller.recoveries_completed
                  if controller is not None else 0)

    recorder = session.obs
    return ScenarioOutcome(
        plan=plan,
        seed=seed,
        completed=app.requests_completed,
        failed=app.requests_failed,
        rescheduled=app.requests_rescheduled,
        failures_detected=list(session.coord.failures_detected),
        recoveries_completed=recoveries,
        applied=list(session.injector.applied),
        violations=check_scheme_invariants(system, session.cluster),
        telemetry_jsonl=jsonl_dumps(session.metrics),
        obs_jsonl=obs_jsonl_dumps(recorder) if recorder is not None else "",
        shard_table=shard_table,
        shards_rehomed=manager.rehomes_total if manager is not None else 0,
        shard_failovers=(manager.failovers_total
                        if manager is not None else 0),
        daemon_failures=[(process.name, type(exc).__name__)
                         for process, exc in sim.daemon_failures],
        system=system,
    )
