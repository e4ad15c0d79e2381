"""Section VI-A characterization: Concord read-operation latencies.

Paper: a local hit takes 1.6 ms, a remote hit 3.1 ms and a remote miss
32 ms on average.
"""

from __future__ import annotations

from repro.experiments.tables import ExperimentResult
from repro.session import Session
from repro.storage import DataItem


def run(scale: float = 1.0, seed: int = 131) -> ExperimentResult:
    session = Session(nodes=4, cores_per_node=20, seed=seed, app="char")
    concord = session.system

    def timed(gen):
        return session.run(gen).duration_ms

    key = "char-item"
    session.preload({key: DataItem("v", size_bytes=4 * 1024)})
    home = concord.ring_template.home(key)
    others = [n for n in session.cluster.node_ids if n != home]

    # Remote miss: first touch from a non-home node (no directory entry).
    remote_miss = timed(concord.read(others[0], key))
    # Warm the home's own cache (downgrades the first reader to Shared)
    # so the next remote read is the common Shared-state serve.
    session.run(concord.read(home, key))
    remote_hit = timed(concord.read(others[1], key))
    # Local hit: read again where it is now cached.
    local_hit = timed(concord.read(others[1], key))

    result = ExperimentResult(
        experiment="Section VI-A",
        title="Concord read-operation latencies",
        columns=["operation", "measured_ms", "paper_ms"],
    )
    result.data.append({"operation": "local hit", "measured_ms": local_hit,
                        "paper_ms": 1.6})
    result.data.append({"operation": "remote hit", "measured_ms": remote_hit,
                        "paper_ms": 3.1})
    result.data.append({"operation": "remote miss", "measured_ms": remote_miss,
                        "paper_ms": 32.0})
    return result
