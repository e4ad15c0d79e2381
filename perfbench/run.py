"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 20 --trace 0

Run it from the repository root.  Each repetition runs in a fresh,
single-threaded interpreter (``worker.py``), one at a time, with the
interpreter's default garbage collector.  The seed fixes a list of
sub-seeds, one simulation each; the simulated metrics pool those
simulations.  Throughput is operations over host seconds summed across
every untraced repetition; set-up time and memory are their medians.
Repetitions cycle through the sub-seeds until ``--seconds`` have passed,
so a repeated sub-seed also checks that its simulated results come out
identical.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` pairs each
untraced repetition with a traced one (``layers.py``) and reports the
per-layer metrics, including the tracing overhead.  Human-readable lines
(environment, checks, every metric with its unit) come first; the last line
of standard output is the JSON result.  Spans and a full record of the run
are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS

PROCESS_START = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Simulations pooled into one run's simulated metrics, per workload.  The
#: seven-app mix's median moves most from seed to seed, so it pools most.
#: churn_observed runs but is not a benchmark workload (see NOTES.md).
SUB_SEEDS = {"hot_reads": 1, "shared_writes": 2, "faas_mix": 4,
             "socnet_observed": 2, "churn_observed": 2}
SUB_SEED_STRIDE = 16
#: No repetition starts that could end later than this after process start
#: (a run must end within 180 s).
RUN_LIMIT_S = 165.0

#: (name, unit, better) of each end-to-end metric, reported untraced.
END_TO_END = (
    ("requests_per_wall_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_p50_ms", "sim_ms", "lower"),
    ("sim_p99_ms", "sim_ms", "lower"),
    ("sim_throughput_rps", "1/sim_s", "higher"),
    ("local_hit_ratio", "frac", "higher"),
    ("completed_ops_frac", "frac", "higher"),
    ("coherent_entries_frac", "frac", "higher"),
)

#: Pooled simulated counts reported by the traced run.
LAYER_COUNTS = (
    "sim.entries_scheduled", "sim.daemon_failures", "net.messages",
    "net.bytes", "net.rpc_timeouts", "storage.reads", "storage.writes",
    "core.local_hits", "core.remote_hits", "core.misses",
    "core.invalidations_sent", "core.domain_changes", "caching.evictions",
    "faas.invocations", "faas.cold_starts", "coord.failures_declared",
    "obs.events_recorded", "trace.spans", "telemetry.samples",
    "coherence_violations",
)
#: (name, unit, better) of each per-layer metric, reported traced.
PER_LAYER = (
    tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS)
    + tuple((f"{layer}.calls", "count", "lower") for layer in LAYERS)
    + (("unattributed.self_s", "s", "lower"),
       ("bench.trace_overhead_frac", "frac", "lower"),
       ("net.messages_per_op", "count", "lower"),
       ("storage.ops_per_op", "count", "lower"),
       ("failed_ops_frac", "frac", "lower"))
    + tuple((name, "count", "higher" if name == "core.local_hits"
             else "lower") for name in LAYER_COUNTS)
)


def source_digest() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    """What each result is recorded with: interpreter, cores, code."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # not a git checkout
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def run_worker(workload: str, seed: int, trace: bool, timeout_s: float,
               spans_path=None) -> dict:
    """One repetition in a fresh interpreter; returns its parsed record."""
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    spawned_at = time.monotonic()
    command += [repr(spawned_at), "1" if trace else "0"]
    if spans_path is not None:
        command.append(str(spans_path))
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout_s:.0f} s", "seed": seed}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {done.returncode}: {tail[0]}", "seed": seed}
    record = json.loads(lines[-1])
    record["seed"] = seed
    record["trace"] = trace
    return record


def pooled(firsts: list) -> dict:
    """Simulated metrics over the first run of every sub-seed."""
    sims = [record["sim"] for record in firsts]
    latencies = sorted(x for record in firsts for x in record["latencies"])

    def total(name):
        return sum(sim[name] for sim in sims)

    attempted = total("attempted")
    completed = total("completed")
    reads = total("core.local_hits") + total("core.remote_hits") \
        + total("core.misses")
    elapsed = sum(sim["measured_sim_s"] for sim in sims)
    checked = total("coherence_checked")
    out = {name: total(name) for name in LAYER_COUNTS
           if name not in ("net.rpc_timeouts", "faas.invocations")}
    out.update({
        "attempted": attempted,
        "completed": completed,
        "failed": attempted - completed,
        "wrong_results": total("wrong_results"),
        "aborted": [sim["aborted"] for sim in sims if sim["aborted"]],
        "sim_p50_ms": rank(latencies, 0.50),
        "sim_p99_ms": rank(latencies, 0.99),
        "sim_throughput_rps": completed / elapsed if elapsed else 0.0,
        "local_hit_ratio": total("core.local_hits") / reads if reads else 0.0,
        "completed_ops_frac": completed / attempted if attempted else 0.0,
        "failed_ops_frac": ((attempted - completed) / attempted
                            if attempted else 0.0),
        "coherent_entries_frac": (1.0 - total("coherence_violations")
                                  / checked if checked else 1.0),
        "net.messages_per_op": total("net.messages") / max(completed, 1),
        "storage.ops_per_op": (total("storage.reads")
                               + total("storage.writes")) / max(completed, 1),
        "violation_sample": [v for sim in sims
                             for v in sim["violation_sample"]][:5],
    })
    return out


def rank(ordered: list, quantile: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    index = -(-quantile * len(ordered) // 1) - 1
    return ordered[max(0, min(len(ordered) - 1, int(index)))]


def execute(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Run repetitions until ``seconds`` pass and every sub-seed ran.

    Returns ``(sub_seeds, records, errors)``.
    """
    seeds = [seed * SUB_SEED_STRIDE + i for i in range(SUB_SEEDS[workload])]
    OUT_DIR.mkdir(exist_ok=True)
    started = time.monotonic()
    records, errors = [], []
    slowest_turn = 0.0
    turn = 0
    while turn < len(seeds) or time.monotonic() - started < seconds:
        if time.monotonic() - PROCESS_START + 1.5 * slowest_turn > RUN_LIMIT_S:
            break
        turn_started = time.monotonic()
        sub_seed = seeds[turn % len(seeds)]
        for traced in ((False, True) if trace else (False,)):
            spans = None
            if traced and turn == 0:
                spans = OUT_DIR / f"spans-{workload}.tsv"
            budget = max(1.0, RUN_LIMIT_S - (time.monotonic() - PROCESS_START))
            record = run_worker(workload, sub_seed, traced, budget, spans)
            if turn >= len(seeds) or traced:
                record.pop("latencies", None)  # only first runs are pooled
            (errors if "error" in record else records).append(record)
        slowest_turn = max(slowest_turn, time.monotonic() - turn_started)
        turn += 1
    return seeds, records, errors


def check_determinism(workload: str, records: list, digest: str) -> list:
    """Sub-seeds whose runs disagree on any simulated result.

    Compares every repetition of a sub-seed in this run, and the first one
    with the record an earlier run of the same sources left behind.
    """
    first: dict = {}
    mismatched = []
    for record in records:
        key = json.dumps(record["sim"], sort_keys=True)
        seen = first.setdefault(record["seed"], key)
        if seen != key and record["seed"] not in mismatched:
            mismatched.append(record["seed"])
    for seed, key in first.items():
        path = OUT_DIR / f"sim-{workload}-{seed}-{digest}.json"
        if not path.exists():
            path.write_text(key)
        elif path.read_text() != key and seed not in mismatched:
            mismatched.append(seed)
    return mismatched


def per_layer(seeds: list, records: list, pool: dict) -> dict:
    traced = [r for r in records if r["trace"]]
    untraced = [r for r in records if not r["trace"]]
    out = {}
    for layer in LAYERS:
        for suffix in ("self_s", "calls"):
            name = f"{layer}.{suffix}"
            out[name] = sum_of_medians(traced, seeds,
                                       lambda r, n=name: r["layers"][n])
    out["unattributed.self_s"] = sum_of_medians(
        traced, seeds, lambda r: r["layers"]["unattributed.self_s"])
    traced_wall = sum_of_medians(traced, seeds, lambda r: r["run_wall_s"])
    plain_wall = sum_of_medians(untraced, seeds, lambda r: r["run_wall_s"])
    out["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    for name in LAYER_COUNTS:
        if name in ("net.rpc_timeouts", "faas.invocations"):
            out[name] = sum_of_medians(traced, seeds,
                                       lambda r, n=name: r["layer_counts"][n])
        else:
            out[name] = pool[name]
    for name in ("net.messages_per_op", "storage.ops_per_op",
                 "failed_ops_frac"):
        out[name] = pool[name]
    return out


def sum_of_medians(records: list, seeds: list, value) -> float:
    """Sum over sub-seeds of the median of ``value`` across their runs.

    ``median_low`` keeps a count a whole number (counts repeat exactly).
    """
    total = 0
    for seed in seeds:
        values = [value(r) for r in records if r["seed"] == seed]
        total += statistics.median_low(values)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(SUB_SEEDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Byte-compile first, so no repetition pays for it: users do not.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    str(HERE.relative_to(ROOT))], cwd=ROOT, check=True,
                   capture_output=True, timeout=120)

    env = environment()
    seeds, records, errors = execute(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    firsts = {}
    for record in records:
        if "latencies" in record:
            firsts.setdefault(record["seed"], record)
    if set(firsts) != set(seeds):
        for error in errors:
            print(f"error: seed {error['seed']}: {error['error']}",
                  file=sys.stderr)
        return 1
    pool = pooled([firsts[s] for s in seeds])
    for record in records:
        record.pop("latencies", None)
    mismatched = check_determinism(args.workload, records,
                                   env["source_sha256"])
    untraced = [r for r in records if not r["trace"]]
    # Throughput is total over total, not a median of per-repetition
    # rates: repetition speed here is bimodal, which makes a median of few
    # samples jump between the two modes.
    host = {
        "requests_per_wall_s": (
            sum(r["sim"]["completed_total"] for r in untraced)
            / sum(r["run_wall_s"] for r in untraced)),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    checks = {
        "repetitions": len(records),
        "repetition_errors": [e["error"] for e in errors],
        "nondeterministic_seeds": mismatched,
        "wrong_results": pool["wrong_results"],
        "attempted": pool["attempted"],
        "completed": pool["completed"],
        "failed": pool["failed"],
        "aborted_runs": pool["aborted"],
        "coherence_violations": pool["coherence_violations"],
        "daemon_failures": pool["sim.daemon_failures"],
        "violation_sample": pool["violation_sample"],
    }
    correct = (not errors and not mismatched and pool["wrong_results"] == 0
               and pool["completed"] + pool["failed"] == pool["attempted"])
    if args.trace:
        values = per_layer(seeds, records, pool)
        table = PER_LAYER
    else:
        values = {**host, **{name: pool[name] for name, _, _ in END_TO_END
                             if name not in host}}
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in table}

    print(f"workload {args.workload} seed {args.seed} sub-seeds {seeds} "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, value in checks.items():
        print(f"check {name}: {value}")
    print(f"check correct: {correct}")
    for name, unit, better in table:
        print(f"metric {name} = {values[name]!r} {unit} ({better} is better)")
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "environment": env, "checks": checks,
               "correct": correct, "metrics": metrics, "runs": records}
    result_path = OUT_DIR / (f"result-{args.workload}-{args.seed}"
                             f"-t{args.trace}.json")
    result_path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": pool["attempted"],
                      "failed": pool["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
