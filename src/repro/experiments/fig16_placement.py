"""Figure 16: communication-aware function placement.

Six producer-consumer pipeline applications run twice: once with
conventional independent placement and once with Concord's PCT-driven
placement, which co-locates paired functions so hand-offs hit the local
cache instance.  Paper: average latency drops 25 %, most for short apps.
"""

from __future__ import annotations

from repro.experiments.tables import ExperimentResult
from repro.faas import FaasPlatform
from repro.metrics import Histogram
from repro.placement import CommAwarePlacement, ProducerConsumerTable
from repro.session import Session
from repro.workloads.pc_apps import PC_PROFILES, build_pc_app


def _measure(profile, use_cafp: bool, duration_ms: float, seed: int) -> float:
    session = Session(nodes=8, cores_per_node=4, seed=seed,
                      app=profile.name)
    sim, cluster, concord = session.sim, session.cluster, session.system
    pct = ProducerConsumerTable(min_observations=2).attach(concord)

    if use_cafp:
        platform = FaasPlatform(cluster, placement=CommAwarePlacement(pct))
    else:
        platform = FaasPlatform(cluster)
    app = platform.deploy(build_pc_app(profile), concord, prewarm=False)

    counter = {"next": 0}

    def inputs_factory(_index):
        counter["next"] += 1
        return {"request": counter["next"]}

    rps = 8.0  # light load: single-instance pipelines must not CPU-saturate
    # Learning phase under load: the PCT observes the hand-off traffic and
    # the default placement scatters the pipeline's stages.
    sim.spawn(platform.open_loop(
        profile.name, rps, duration_ms * 0.5, inputs_factory), name="learn")
    sim.run(until=sim.now + duration_ms * 0.5 + 500.0)
    # Re-place: evict the idle containers; the next cold starts consult
    # the (now populated) PCT when CAFP is enabled.
    platform.collect_idle_containers(grace_ms=0.0)
    app.latency = Histogram()
    app.cold_starts = 0
    sim.spawn(platform.open_loop(
        profile.name, rps, duration_ms, inputs_factory), name="measure")
    sim.run(until=sim.now + duration_ms + 1500.0)
    # Exclude the cold-start transient at the head of the phase.
    return app.latency.trimmed_mean(0.1)


def run(scale: float = 1.0, seed: int = 127) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Figure 16",
        title="Latency with communication-aware function placement",
        columns=["app", "concord_ms", "concord+cafp_ms", "reduction_pct"],
        note="Paper: co-locating paired functions cuts latency 25% on average.",
    )
    duration = 3000.0 * scale
    reductions = []
    for name, profile in PC_PROFILES.items():
        base = _measure(profile, use_cafp=False, duration_ms=duration, seed=seed)
        cafp = _measure(profile, use_cafp=True, duration_ms=duration, seed=seed)
        reduction = 100.0 * (1 - cafp / base)
        reductions.append(reduction)
        result.data.append({
            "app": name, "concord_ms": base, "concord+cafp_ms": cafp,
            "reduction_pct": reduction,
        })
    result.data.append({
        "app": "Average", "concord_ms": "", "concord+cafp_ms": "",
        "reduction_pct": sum(reductions) / len(reductions),
    })
    return result
