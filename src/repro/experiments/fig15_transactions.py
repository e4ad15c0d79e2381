"""Figure 15: transaction latency — Saga vs Beldi vs Concord.

Five transactional applications, each a 6-8 function chain, run with
concurrent clients contending on popular entities.  Concord detects
conflicts through coherence messages and rolls back by flushing caches;
Saga re-reads storage and compensates; Beldi logs every access.  Paper:
Concord cuts average latency by 54 % vs Saga and 20 % vs Beldi.
"""

from __future__ import annotations

from repro.experiments.tables import ExperimentResult
from repro.metrics import Histogram
from repro.session import Session
from repro.storage import DataItem
from repro.txn import BeldiRunner, ConcordTxnRuntime, SagaRunner, TXN_APPS


def _preload(cluster, app):
    cluster.storage.preload({
        key: DataItem("init", 256) for key in app.keyspace()
    })


def _concord_body(app, entity):
    def body(txn):
        for step in app.steps:
            yield txn.runtime.sim.timeout(step.compute_ms)
            for template in step.reads:
                yield from txn.read(template.format(e=entity))
            for template in step.writes:
                key = template.format(e=entity)
                yield from txn.write(key, DataItem((key, "concord"), 256))
        return True
    return body


def _measure_system(system: str, app, clients: int, txns_per_client: int,
                    seed: int) -> float:
    # Saga and Beldi run on a bare cluster (no cache, no coordination).
    session = Session(nodes=4, cores_per_node=20, seed=seed,
                      scheme="concord" if system == "concord" else None,
                      app=app.name)
    sim, cluster = session.sim, session.cluster
    _preload(cluster, app)
    latencies = Histogram()

    if system == "concord":
        runtime = ConcordTxnRuntime(session.system)
    elif system == "saga":
        runtime = SagaRunner(cluster)
    else:
        runtime = BeldiRunner(cluster)

    rng = sim.rng.stream("txn-clients")

    def client(index: int):
        node = f"node{index % cluster.config.num_nodes}"
        for sequence in range(txns_per_client):
            yield sim.timeout(rng.expovariate(1 / 40.0))
            entity = rng.randrange(3)  # few entities -> real contention
            start = sim.now
            if system == "concord":
                yield from runtime.run(node, _concord_body(app, entity))
            else:
                yield from runtime.run(app, entity, writer_tag=f"c{index}")
            latencies.record(sim.now - start)

    for index in range(clients):
        sim.spawn(client(index), name=f"client{index}")
    sim.run(until=3_000_000.0)
    return latencies.mean


def run(scale: float = 1.0, seed: int = 125) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 15",
        title="Transaction latency: Saga vs Beldi vs Concord",
        columns=["app", "saga_ms", "beldi_ms", "concord_ms",
                 "vs_saga_pct", "vs_beldi_pct"],
        note="Paper: Concord reduces latency 54% vs Saga, 20% vs Beldi.",
    )
    clients = 4
    txns = max(2, int(6 * scale))
    vs_saga, vs_beldi = [], []
    for name, app in TXN_APPS.items():
        saga = _measure_system("saga", app, clients, txns, seed)
        beldi = _measure_system("beldi", app, clients, txns, seed)
        concord = _measure_system("concord", app, clients, txns, seed)
        saga_cut = 100.0 * (1 - concord / saga)
        beldi_cut = 100.0 * (1 - concord / beldi)
        vs_saga.append(saga_cut)
        vs_beldi.append(beldi_cut)
        result.data.append({
            "app": name, "saga_ms": saga, "beldi_ms": beldi,
            "concord_ms": concord,
            "vs_saga_pct": saga_cut, "vs_beldi_pct": beldi_cut,
        })
    result.data.append({
        "app": "Average", "saga_ms": "", "beldi_ms": "", "concord_ms": "",
        "vs_saga_pct": sum(vs_saga) / len(vs_saga),
        "vs_beldi_pct": sum(vs_beldi) / len(vs_beldi),
    })
    return result
