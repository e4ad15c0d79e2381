"""Figure 3: time to fetch+check a version number vs fetching the data.

The paper measures (on 10 GbE with gRPC) that a version probe costs about
the same as fetching the data itself for objects of 64 KB or less — only
for larger objects is the probe cheaper.  This experiment measures both
operations over the simulated fabric for a sweep of payload sizes.
"""

from __future__ import annotations

from repro.config import KB
from repro.experiments.tables import ExperimentResult
from repro.net.rpc import DEFAULT_RPC_TIMEOUT_MS, Endpoint, Reply
from repro.session import Session

SIZES = (1 * KB, 4 * KB, 12 * KB, 32 * KB, 64 * KB, 256 * KB, 1024 * KB)


def run(scale: float = 1.0, seed: int = 103) -> ExperimentResult:
    session = Session(nodes=2, cores_per_node=20, seed=seed, scheme=None)
    cluster = session.cluster
    latency = cluster.config.latency

    server = Endpoint(cluster.network, "node1", "bench",
                      service_time_ms=latency.agent_service_ms)

    def version_handler(endpoint, src, args):
        return Reply(42, size_bytes=8)
        yield  # pragma: no cover

    def data_handler(endpoint, src, size):
        return Reply("blob", size_bytes=size)
        yield  # pragma: no cover

    # Called through measure(method, ...) below, invisible to the static
    # RPC-surface match.
    server.register_handler("version", version_handler)  # noqa: PRO01
    server.register_handler("fetch", data_handler)
    client = Endpoint(cluster.network, "node0", "bench")

    def measure(method, args, size):
        return session.run(client.call(
            "node1/bench", method, args, size_bytes=size,
            timeout=DEFAULT_RPC_TIMEOUT_MS)).duration_ms

    result = ExperimentResult(
        experiment="Figure 3",
        title="Version fetch+check vs data fetch time by payload size",
        columns=["size_kb", "version_ms", "data_ms", "data/version"],
        note="Paper: comparable for <=64KB; version probe wins only above.",
    )
    for size in SIZES:
        version_ms = measure("version", "key", 8)
        data_ms = measure("fetch", size, 8)
        result.data.append({
            "size_kb": size // KB,
            "version_ms": version_ms,
            "data_ms": data_ms,
            "data/version": data_ms / version_ms,
        })
    return result
