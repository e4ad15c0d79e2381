"""The seven evaluation applications (paper Table II), parameterized.

Each profile describes an application's storage-access pattern; the
builder turns it into an :class:`~repro.faas.app.AppSpec` whose function
handlers generate that pattern:

- a request targets an *entity* (hotel, train, user feed ...) drawn from
  a Zipf distribution — this is the input Concord's coherence-aware
  scheduling hashes on;
- every workflow step reads the previous step's hand-off blob from
  storage (functions must communicate through storage, Section I);
- steps read entity-linked items plus popular app-global items, and
  write back a subset (overall 80 % reads / 20 % writes with 5 %
  read-only objects, the Azure distribution the paper uses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import KB
from repro.faas.app import AppSpec, FunctionSpec
from repro.storage import DataItem
from repro.workloads.distributions import SizeSampler, ZipfSampler, is_read_only


@dataclass(frozen=True)
class AppProfile:
    """Parameterization of one benchmark application."""

    name: str
    #: Workflow length (functions per request).
    functions: int
    #: Entity-linked reads per function.
    reads_per_fn: int
    #: Entity-linked writes per function (on top of hand-off writes).
    writes_per_fn: int
    #: Compute per function, milliseconds.
    compute_ms: float
    #: Number of entities (Zipf keyspace).
    entities: int
    #: Zipf skew of entity popularity.
    zipf_alpha: float
    #: Item-size scale relative to the default small-object mix.
    size_scale: float = 1.0
    #: Items attached to each entity.
    items_per_entity: int = 4
    #: Fraction of reads that target app-global (cross-entity) items.
    global_read_fraction: float = 0.25
    #: Number of app-global items.
    global_items: int = 64
    #: Probability that each potential write actually happens (tunes the
    #: overall mix to the paper's ~80 % reads / 20 % writes, counting the
    #: mandatory hand-off writes between workflow stages).
    write_prob: float = 0.35
    #: Fraction of writes that target shared app-global items (drives the
    #: cross-node sharing that makes invalidations happen, Figure 9).
    global_write_fraction: float = 0.1


# Profiles calibrated so that, with the paper's latency constants, the
# no-cache storage share of response time spans ~35-93% (Figure 1) and
# read-heavy small-item apps (TrainT, SocNet, HotelBook) benefit most
# from Concord.  Media apps (ImgProc, VidProc) move larger blobs and
# spend more time computing.
ALL_PROFILES: dict[str, AppProfile] = {
    profile.name: profile
    for profile in (
        AppProfile("TrainT", functions=3, reads_per_fn=6, writes_per_fn=1,
                   compute_ms=8.0, entities=200, zipf_alpha=1.1),
        AppProfile("eShop", functions=4, reads_per_fn=5, writes_per_fn=1,
                   compute_ms=30.0, entities=300, zipf_alpha=1.0),
        AppProfile("ImgProc", functions=3, reads_per_fn=3, writes_per_fn=1,
                   compute_ms=120.0, entities=400, zipf_alpha=0.9,
                   size_scale=8.0),
        AppProfile("VidProc", functions=4, reads_per_fn=2, writes_per_fn=1,
                   compute_ms=250.0, entities=300, zipf_alpha=0.9,
                   size_scale=16.0),
        AppProfile("HotelBook", functions=3, reads_per_fn=6, writes_per_fn=1,
                   compute_ms=10.0, entities=150, zipf_alpha=1.2),
        AppProfile("MediaServ", functions=4, reads_per_fn=5, writes_per_fn=1,
                   compute_ms=25.0, entities=250, zipf_alpha=1.1),
        AppProfile("SocNet", functions=5, reads_per_fn=7, writes_per_fn=1,
                   compute_ms=6.0, entities=100, zipf_alpha=1.3),
    )
}


def entity_key(app: str, entity: int, item: int) -> str:
    return f"{app}:e{entity}:i{item}"


def handoff_key(app: str, entity: int, stage: int) -> str:
    return f"{app}:e{entity}:stage{stage}"


def global_key(app: str, index: int) -> str:
    return f"{app}:g{index}"


class KeyTable:
    """Every ``(key, read_only, size)`` row one application touches.

    All key strings, read-only flags and item sizes are pure functions of
    the profile, so they are precompiled here once per profile (see
    :func:`key_table`) instead of being re-derived (f-strings + md5
    hashes) on every invocation, or once per workflow stage.  Every
    stage's handler and the storage preload share the rows, so each key
    is hashed once and exists as one string.
    """

    __slots__ = ("profile", "sizes", "entities", "globals", "handoffs",
                 "global_sampler")

    def __init__(self, profile: AppProfile):
        self.profile = profile
        self.sizes = SizeSampler(scale=profile.size_scale)
        #: entity -> its ``items_per_entity`` item rows.
        self.entities: list[list[tuple[str, bool, int]]] = []
        #: app-global item rows, by index.
        self.globals = [self._row(global_key(profile.name, index))
                        for index in range(profile.global_items)]
        #: stage -> entity -> ``(key, size)`` of the hand-off blob that
        #: stage writes and the next stage reads (no row for the last).
        self.handoffs: list[list[tuple[str, int]]] = [
            [] for _ in range(profile.functions - 1)]
        #: Popularity of the app-global items.
        self.global_sampler = ZipfSampler(profile.global_items, alpha=1.0)
        self.grow(profile.entities)

    def _row(self, key: str) -> tuple[str, bool, int]:
        return key, is_read_only(key), self.sizes.size_of(key)

    def grow(self, entities: int) -> None:
        """Extend the per-entity rows to cover ``entities`` entities."""
        app = self.profile.name
        size_of = self.sizes.size_of
        while len(self.entities) < entities:
            entity = len(self.entities)
            self.entities.append(
                [self._row(entity_key(app, entity, item))
                 for item in range(self.profile.items_per_entity)])
            for stage, rows in enumerate(self.handoffs):
                key = handoff_key(app, entity, stage)
                rows.append((key, size_of(key)))


_KEY_TABLES: dict[AppProfile, KeyTable] = {}


def key_table(profile: AppProfile) -> KeyTable:
    """The profile's shared :class:`KeyTable`, built on first use."""
    table = _KEY_TABLES.get(profile)
    if table is None:
        table = _KEY_TABLES[profile] = KeyTable(profile)
    return table


def _make_handler(profile: AppProfile, stage: int, table: KeyTable):
    """Build the handler generator-function for workflow step ``stage``.

    The RNG draw sequence inside the handler is exactly the one the
    non-tabled version made — same calls, same order — so workloads are
    byte-identical.
    """
    app = profile.name
    per_op_compute = profile.compute_ms / max(1, profile.reads_per_fn + 2)
    tail_compute = 2 * per_op_compute
    reads_per_fn = profile.reads_per_fn
    writes_per_fn = profile.writes_per_fn
    global_read_fraction = profile.global_read_fraction
    global_write_fraction = profile.global_write_fraction
    write_prob = profile.write_prob
    items_per_entity = profile.items_per_entity
    stream_name = f"wl:{app}"
    zipf_globals = table.global_sampler
    entity_items = table.entities
    global_items = table.globals
    handoff_in = table.handoffs[stage - 1] if stage > 0 else None
    handoff_out = (table.handoffs[stage]
                   if stage < len(table.handoffs) else None)

    def handler(ctx):
        rng = ctx.sim.rng.stream(stream_name)
        rng_random = rng.random
        entity = int(ctx.inputs.get("entity", 0))
        if not 0 <= entity < len(entity_items):
            # Out-of-profile entity id (callers may inject arbitrary
            # inputs): extend the shared table on demand.
            if entity < 0:
                raise ValueError(
                    f"negative entity id {entity} for app {app!r}")
            table.grow(entity + 1)
        my_items = entity_items[entity]

        if handoff_in is not None:
            yield from ctx.read(handoff_in[entity][0])
        for _ in range(reads_per_fn):
            yield from ctx.compute(per_op_compute)
            if rng_random() < global_read_fraction:
                key = global_items[zipf_globals.sample(rng)][0]
            else:
                key = my_items[rng.randrange(items_per_entity)][0]
            yield from ctx.read(key)
        for _ in range(writes_per_fn):
            if rng_random() >= write_prob:
                continue
            if rng_random() < global_write_fraction:
                key, read_only, size = global_items[zipf_globals.sample(rng)]
            else:
                key, read_only, size = my_items[rng.randrange(items_per_entity)]
            if read_only:
                # 5 % of objects are read-only; read instead of writing.
                yield from ctx.read(key)
            else:
                yield from ctx.write(
                    key, DataItem((key, ctx.invocation_id), size))
        if handoff_out is not None:
            key, size = handoff_out[entity]
            yield from ctx.write(key, DataItem((key, ctx.invocation_id), size))
        yield from ctx.compute(tail_compute)
        return entity

    handler.__name__ = f"{app}_f{stage}"
    return handler


def build_app(profile: AppProfile) -> AppSpec:
    """Turn a profile into a deployable application."""
    table = key_table(profile)
    spec = AppSpec(name=profile.name)
    for stage in range(profile.functions):
        spec.add_function(FunctionSpec(
            name=f"{profile.name}-f{stage}",
            handler=_make_handler(profile, stage, table),
        ))
    return spec


def working_set(profile: AppProfile) -> dict:
    """The app's initial key -> DataItem working set."""
    table = key_table(profile)
    items = {}
    for rows in table.entities[:profile.entities]:
        for key, _read_only, size in rows:
            items[key] = DataItem((key, 0), size)
    for key, _read_only, size in table.globals:
        items[key] = DataItem((key, 0), size)
    return items


def preload_storage(storage, profile: AppProfile) -> int:
    """Populate global storage with the app's working set; returns count."""
    items = working_set(profile)
    storage.preload(items)
    return len(items)


def entity_inputs_factory(profile: AppProfile, sim, stream: Optional[str] = None):
    """Per-request inputs: a Zipf-popular entity id."""
    sampler = ZipfSampler(profile.entities, alpha=profile.zipf_alpha)
    rng = sim.rng.stream(stream or f"entities:{profile.name}")

    def factory(_index: int) -> dict:
        return {"entity": sampler.sample(rng)}

    return factory
