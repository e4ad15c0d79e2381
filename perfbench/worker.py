"""One benchmark repetition in a fresh process: build, run, check, report.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT TRACE [SPANS_PATH]

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, imports, building the
cluster and caches, storage preload and app deploy: everything paid before
the first simulated event.  The result is one JSON object on the last line
of standard output.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``getrusage`` is no good here: Linux folds the parent's peak into a
    child's ``ru_maxrss`` at exec, so it would report the harness's size.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list) -> int:
    workload, seed, spawned_at, trace = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    traced = trace == "1"
    sys.path.insert(0, str(ROOT / "src"))
    clock = None
    if traced:
        from layers import LayerClock, install

        clock = LayerClock()
        install(clock)
    from workloads import BUILDERS

    run = BUILDERS[workload](int(seed))
    setup_s = time.monotonic() - float(spawned_at)
    if clock is not None:
        clock.start()
    started = time.perf_counter()
    run.execute()
    run_wall_s = time.perf_counter() - started
    results = run.results()
    out = {
        "setup_s": setup_s,
        "run_wall_s": run_wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "sim": results,
        "latencies": run.ledger.latencies,
    }
    if clock is not None:
        clock.stop()
        out["layers"] = clock.self_seconds()
        out["traced_wall_s"] = clock.wall_ns / 1e9
        out["layer_counts"] = {
            "net.rpc_timeouts": sum(
                count for (name, error), count in clock.raised.items()
                if name == "Endpoint.call"
                and error in ("RpcTimeout", "PeerDown")),
            "faas.invocations": clock.entry_calls["FaasPlatform.invoke"],
        }
        if spans_path:
            out["span_rows"] = clock.write_spans(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
