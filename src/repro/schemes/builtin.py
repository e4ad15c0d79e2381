"""Builders for the schemes evaluated in the paper.

Each builder has the uniform signature ``builder(cluster, coord, app,
**cfg)`` and ignores configuration keys meant for other schemes (the
runner passes one flat keyword set to whichever scheme is selected).

Shared configuration keys:

``capacity``
    Per-instance cache capacity in bytes (None = scheme default).
``ofc_shared_capacity``
    Override for OFC's per-node shared budget (Figure 14 sweep).
``read_only_annotations``
    Faa$T only: derive the profile's read-only key set (Figure 13).
``num_memory_nodes``
    Apta only: memory-tier width (defaults to the cluster size).
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import MB
from repro.schemes import register_scheme


@register_scheme("nocache")
def build_nocache(cluster, coord, app, **_):
    """Every access goes straight to global storage (paper's baseline)."""
    from repro.caching import DirectStorage

    return DirectStorage(cluster)


@register_scheme("ofc", shared=True)
def build_ofc(cluster, coord, app, *, capacity=None,
              ofc_shared_capacity=None, **_):
    """One RAMCloud-style cache per node, shared by all applications."""
    from repro.caching import OfcSystem

    budget = ofc_shared_capacity or capacity or 64 * MB
    return OfcSystem(cluster, capacity_per_node=budget)


@register_scheme("faast")
def build_faast(cluster, coord, app, *, capacity=None,
                read_only_annotations=False, **_):
    """Per-app Faa$T instance with version-check coherence."""
    from repro.caching import FaastSystem

    read_only = set()
    if read_only_annotations:
        from repro.workloads import ALL_PROFILES
        from repro.workloads.profiles import key_table

        profile = ALL_PROFILES[app]
        read_only = {
            key
            for rows in key_table(profile).entities[:profile.entities]
            for key, is_read_only, _size in rows
            if is_read_only
        }
    return FaastSystem(
        cluster, app=app,
        capacity_per_instance=(capacity or 64 * MB),
        read_only_keys=read_only,
    )


def _memory_tier_storage(cluster, **_):
    """Prepare hook: one memory-node storage tier shared by all apps."""
    from repro.storage import GlobalStorage

    # Memory-node tier: storage served at internode latency.
    mem_latency = replace(
        cluster.config.latency,
        storage_rtt=cluster.config.latency.internode_rtt,
        storage_bytes_per_ms=cluster.config.latency.serialization_bytes_per_ms,
    )
    return {"storage": GlobalStorage(cluster.sim, mem_latency, name="memtier")}


def _preload_storage_tier(scheme, profile):
    from repro.workloads.profiles import preload_storage

    preload_storage(scheme.storage, profile)


@register_scheme("concord", scheduler="cas")
@register_scheme("concord-nocas")
def build_concord(cluster, coord, app, *, capacity=None, storage=None,
                  estate_writes=True, parallel_invalidations=True,
                  shards=None, replication=1, recovery_lease_ms=None, **_):
    """Concord's distributed-coherence cache (CAS scheduling optional).

    ``shards=N`` partitions the directory role over N consistent-hash
    shards; ``replication=R`` keeps R-deep replica chains per shard
    (leader + R-1 async followers).  ``recovery_lease_ms`` bounds how
    long a recovering directory blocks before falling back to storage.
    """
    from repro.core import ConcordSystem

    return ConcordSystem(
        cluster, app=app, coord=coord, storage=storage,
        capacity_override=capacity,
        estate_writes=estate_writes,
        parallel_invalidations=parallel_invalidations,
        shards=shards, replication=replication,
        recovery_lease_ms=recovery_lease_ms,
    )


@register_scheme("concord-mem", scheduler="cas",
                 prepare=_memory_tier_storage,
                 preload=_preload_storage_tier)
def build_concord_mem(cluster, coord, app, *, capacity=None, storage=None,
                      **_):
    """Concord backed by a memory-node tier instead of blob storage."""
    from repro.core import ConcordSystem

    return ConcordSystem(
        cluster, app=app, coord=coord, storage=storage,
        capacity_override=capacity,
    )


def _preload_working_set(scheme, profile):
    from repro.workloads.profiles import working_set

    scheme.preload(working_set(profile))


def _build_apta(cluster, app, capacity, num_memory_nodes, backing):
    from repro.apta import AptaSystem, make_memory_tier

    tier = make_memory_tier(
        cluster, num_memory_nodes or len(cluster.node_ids))
    return AptaSystem(
        cluster, tier, app=app, backing=backing,
        capacity_per_node=(capacity or 64 * MB),
    )


@register_scheme("apta-az", scheduler="apta")
def build_apta_az(cluster, coord, app, *, capacity=None,
                  num_memory_nodes=None, **_):
    """Apta with Azure blob storage backing the memory tier."""
    return _build_apta(cluster, app, capacity, num_memory_nodes,
                       backing=cluster.storage)


@register_scheme("apta-mem", scheduler="apta",
                 preload=_preload_working_set)
def build_apta_mem(cluster, coord, app, *, capacity=None,
                   num_memory_nodes=None, **_):
    """Apta with the memory tier as the terminal store."""
    return _build_apta(cluster, app, capacity, num_memory_nodes,
                       backing=None)
