"""The Concord Cache Agent: the data path of the coherence protocol.

One agent per (application, node) manages the local cache instance and the
data directory for locally-homed items (paper Section III-B).  It
implements the six coherence operations of Section III-C2:

- local read hit, remote read hit, read miss,
- local write hit (E and S flavours), remote write hit, write miss,

with the paper's optimizations: silent evictions, E-state writes that go
straight to storage bypassing the home, and invalidations sent in parallel
with the storage update (except the single-owner case, which is serial).

Fault tolerance and domain changes use a *barrier* mechanism: when a
member fails or the domain is reconfiguring, operations on the keys whose
home is affected wait until the new ring is committed everywhere
(Sections III-D, III-F, III-H).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.caching.base import AccessContext, CacheEntry, EXCLUSIVE, LruCache, SHARED
from repro.core.directory import DataDirectory, ENTRY_WIRE_BYTES
from repro.metrics import OpKind
from repro.obs.events import (
    BARRIER_LIFT,
    BARRIER_RAISE,
    CACHE_DOWNGRADE,
    CACHE_INSTALL,
    CACHE_INVALIDATE,
    CACHE_UPDATE,
    INV_RECV,
    INV_SEND,
    MEMBER_EJECT,
    PEER_UNREACHABLE,
)
from repro.net.rpc import INHERIT, Endpoint, Reply, RpcError, RpcTimeout
from repro.net.sizes import sizeof
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.concord import ConcordSystem


class ProtocolError(Exception):
    """An operation could not complete after exhausting retries."""


class NotHome(RpcError):
    """The contacted agent is not the key's home per its current ring."""


class NotCached:
    """Sentinel reply from an owner that silently evicted the item."""


#: Delay between retries when an operation must re-resolve its home.
RETRY_DELAY_MS = 1.0
MAX_ATTEMPTS = 60


class CacheAgent:
    """The per-node protocol engine of one application's Concord cache."""

    def __init__(self, system: "ConcordSystem", node_id: str, capacity_bytes: int):
        self.system = system
        self.sim = system.sim
        self.node_id = node_id
        self.app = system.app
        self.cache = LruCache(capacity_bytes, name=f"concord:{system.app}:{node_id}")
        self.cache.obs = self.sim.obs
        self.directory = DataDirectory(node_id, tracer=self.sim.tracer,
                                       obs=self.sim.obs)
        self.ring = system.ring_template.copy()
        node = system.cluster.nodes.get(node_id)
        self.endpoint = Endpoint(
            system.cluster.network, node_id, f"concord-{system.app}",
            service_time_ms=system.latency.agent_service_ms,
            cpu=node.cores if node is not None else None,
        )
        #: Home-side per-key serialization (directory is the write
        #: serialization point, Section III-C2).
        self._key_locks: dict[str, Resource] = {}
        #: Owner-side lock held during an E-state direct-to-storage write
        #: ("the local cache agent does not accept external requests for
        #: the data item until the storage acknowledges the update").
        self._owner_locks: dict[str, Resource] = {}
        #: Active barriers: affected member -> (ring snapshot that still
        #: contains the member, event fired when the barrier lifts).
        self._barriers: dict[str, tuple] = {}
        #: Producer tracking for placement learning: key -> (node, function).
        self._last_writer: dict[str, tuple] = {}
        #: Hook installed by repro.txn for conflict detection.
        self.txn_manager = None
        self.alive = True
        #: Bumped on every membership change visible to this agent; long
        #: home operations re-check it before mutating the directory.
        self.epoch = 0
        #: member -> event fired when that member leaves this agent's ring
        #: (lets in-flight invalidations/fetches to dead peers abort early).
        self._removal_events: dict[str, object] = {}
        #: True once this agent learned it was (possibly falsely) declared
        #: failed; it flushes and rejoins before serving again.
        self.ejected = False
        #: Async directory mirror held as a shard *follower*:
        #: key -> (state, sharers tuple).  Fed by fire-and-forget
        #: ``dir_replicate`` notifies from the shard leader; consumed on
        #: failover adoption.  May lag arbitrarily — adoption soundness
        #: never depends on its freshness (see ConcordSystem._shard_failover).
        self.dir_mirror: dict[str, tuple] = {}
        #: Telemetry counters (sampled by repro.telemetry when enabled).
        self.invalidations_sent = 0
        self.invalidations_received = 0
        #: Invalidation round trips currently awaiting an acknowledgement.
        self.invalidations_inflight = 0
        self._register_metrics()

        handlers = {
            "read": self._handle_read,
            "write": self._handle_write,
            "rfo": self._handle_rfo,
            "fetch_downgrade": self._handle_fetch_downgrade,
            "invalidate": self._handle_invalidate,
            "external_write": self._handle_external_write,
            "dir_replicate": self._handle_dir_replicate,
        }
        for method, handler in handlers.items():
            self.endpoint.register_handler(method, handler)

    def _register_metrics(self) -> None:
        """Expose per-node coherence instruments on the sim registry.

        Agents created by churn re-register the same label sets; the
        registry's get-or-create children make that an overwrite of the
        dead agent's callbacks, so timelines follow the live instance.
        """
        metrics = self.sim.metrics
        if not metrics.active:
            return
        from repro.caching.base import register_cache_gauges

        register_cache_gauges(metrics, self.cache, scheme="concord",
                              app=self.app, node=self.node_id)
        labels = {"scheme": "concord", "app": self.app, "node": self.node_id}
        metrics.counter(
            "cache_invalidations_sent_total",
            "Invalidation RPCs issued to remote sharers.",
            labelnames=("app", "node", "scheme"),
        ).set_callback(lambda: self.invalidations_sent, **labels)
        metrics.counter(
            "cache_invalidations_received_total",
            "Invalidation RPCs served for remote homes.",
            labelnames=("app", "node", "scheme"),
        ).set_callback(lambda: self.invalidations_received, **labels)
        metrics.gauge(
            "cache_invalidations_pending",
            "Invalidation round trips awaiting acknowledgement.",
            labelnames=("app", "node", "scheme"),
        ).set_callback(lambda: self.invalidations_inflight, **labels)
        self.directory.register_metrics(metrics, scheme="concord",
                                        app=self.app)

    # ------------------------------------------------------------------
    # Public data path (called by ConcordSystem.read / write)
    # ------------------------------------------------------------------
    def read(self, key: str, ctx: Optional[AccessContext] = None):
        """Read ``key``; returns ``(value, OpKind)``."""
        yield self.sim.sleep(self.system.latency.local_access)
        entry = self.cache.get(key)
        while entry is not None:
            verdict = True
            if self.txn_manager is not None:
                verdict = self.txn_manager.on_local_access(
                    key, entry, ctx, is_write=False)
            if verdict is True:
                return entry.value, OpKind.LOCAL_READ_HIT
            if verdict is False:
                # A conflicting transaction was squashed and the entry
                # discarded; resolve the committed value via the home.
                entry = None
                break
            # A protected transaction owns the entry: wait, then retry.
            yield verdict
            entry = self.cache.get(key)

        value, state, dir_hit, cacheable = yield from self._read_via_home(key, ctx)
        if value is not None and cacheable and not self._key_barred(key):
            # The barred check covers a home that failed (or a domain
            # change that re-homed the key) while the reply was in
            # flight: the recovery eviction sweep already ran here, so
            # installing now would plant a copy nobody tracks.
            self._install(key, value, state, ctx, src="read")
        kind = OpKind.REMOTE_READ_HIT if dir_hit else OpKind.READ_MISS
        return value, kind

    def write(self, key: str, value: object, ctx: Optional[AccessContext] = None):
        """Write ``key``; returns the OpKind once durably stored."""
        yield self.sim.sleep(self.system.latency.local_access)
        entry = self.cache.get(key)
        while entry is not None and self.txn_manager is not None:
            verdict = self.txn_manager.on_local_access(
                key, entry, ctx, is_write=True)
            if verdict is True:
                break
            if verdict is False:
                entry = None  # conflicting speculation squashed; start over
                break
            yield verdict  # protected transaction owns it: wait, retry
            entry = self.cache.get(key)

        if (entry is not None and entry.state == EXCLUSIVE
                and self.system.estate_writes):
            # Local write hit in E: update locally, write straight to
            # storage, bypassing the home (Section III-C2).
            applied = yield from self._estate_write(key, value)
            if applied:
                return OpKind.LOCAL_WRITE_HIT
            # Exclusivity was lost while queued; take the home path.

        had_local_copy = entry is not None  # S state: still a local hit
        kind, cacheable, version = yield from self._write_via_home(key, value, ctx)
        current = self.cache.peek(key)
        if current is not None and current.version > version:
            # A concurrent local write (direct-to-storage in E state)
            # committed a later storage version while this write's reply
            # was in flight; installing our value now would resurrect a
            # stale copy over it.  Storage order wins: keep the entry.
            pass
        elif cacheable and not self._key_barred(key):
            self._install(key, value, EXCLUSIVE, ctx, version=version,
                          src="write_reply")
        else:
            # The value is durably in storage but the coherence state for
            # it was disturbed (membership changed mid-write): hold no copy.
            self.cache.remove(key)
        if had_local_copy:
            return OpKind.LOCAL_WRITE_HIT
        return kind

    def _estate_write(self, key: str, value: object):
        """Direct-to-storage write while holding E (Section III-C2).

        Returns True once applied, or False when the writer queued on
        the owner lock outlived its exclusivity (an invalidation,
        downgrade, or recovery landed while it waited) — writing storage
        directly without E would skip the sharers the home still tracks,
        so the caller must fall back to the home path.
        """
        lock = self._lock(self._owner_locks, key)
        yield lock.acquire()
        try:
            held = self.cache.get(key)
            if held is None or held.state != EXCLUSIVE:
                return False
            version = yield from self.system.storage.write(
                key, value, writer=self.node_id)
            # Update the cached copy only after the write is durable,
            # and only if no later storage version landed locally in
            # the meantime (a racing write's reply may have replaced
            # the entry, or an invalidation may have removed it).
            current = self.cache.get(key)
            if current is not None and current.version <= version:
                prev = current.version
                current.value = value
                current.size_bytes = sizeof(value)
                current.version = version
                obs = self.sim.obs
                if obs.active:
                    obs.emit(CACHE_UPDATE, node=self.node_id, key=key,
                             version=version, prev=prev)
            self.system.stats.invalidations_per_write.record(0)
            return True
        finally:
            lock.release()

    # ------------------------------------------------------------------
    # Requester-side routing with barriers and retries
    # ------------------------------------------------------------------
    def _read_via_home(self, key: str, ctx):
        fn = ctx.function if ctx is not None else ""
        for _attempt in range(MAX_ATTEMPTS):
            yield from self._barrier_wait(key)
            home = self.ring.home(key)
            epoch = self.epoch
            if home == self.node_id:
                try:
                    reply = yield from self._home_read(key, self.node_id, fn)
                    if self.epoch != epoch:
                        value, state, dir_hit, _ = reply
                        return value, state, dir_hit, False
                    return reply
                except NotHome:
                    yield self.sim.timeout(RETRY_DELAY_MS)
                    continue
            try:
                reply = yield from self.endpoint.call(
                    f"{home}/concord-{self.app}", "read", (key, self.node_id, fn),
                    size_bytes=len(key) + 8,
                    timeout=self.system.config.rpc_timeout_ms,
                    trace=INHERIT,
                )
                if self.epoch != epoch or self.ring.home(key) != home:
                    # The membership changed (or the key re-homed) while
                    # the grant was in flight; the registration the home
                    # recorded for us may already have been purged, so
                    # the copy must not be cached — but the value itself
                    # is still good.
                    value, state, dir_hit, _ = reply
                    return value, state, dir_hit, False
                return reply
            except RpcTimeout:
                yield from self._peer_unreachable(home)
            except NotHome:
                yield self.sim.timeout(RETRY_DELAY_MS)
        raise ProtocolError(f"read({key!r}) exhausted retries at {self.node_id}")

    def _write_via_home(self, key: str, value: object, ctx):
        fn = ctx.function if ctx is not None else ""
        for _attempt in range(MAX_ATTEMPTS):
            yield from self._barrier_wait(key)
            home = self.ring.home(key)
            epoch = self.epoch
            if home == self.node_id:
                try:
                    kind, cacheable, version = yield from self._home_write(
                        key, value, self.node_id, fn)
                    if cacheable and self.epoch != epoch:
                        cacheable = False
                    return kind, cacheable, version
                except NotHome:
                    yield self.sim.timeout(RETRY_DELAY_MS)
                    continue
            try:
                kind_name, cacheable, version = yield from self.endpoint.call(
                    f"{home}/concord-{self.app}", "write",
                    (key, value, self.node_id, fn),
                    size_bytes=sizeof(value) + len(key),
                    timeout=self.system.config.rpc_timeout_ms,
                    trace=INHERIT,
                )
                if cacheable and (self.epoch != epoch
                                  or self.ring.home(key) != home):
                    # Membership changed mid-write: the write is durable,
                    # but the exclusivity the old home granted is void.
                    cacheable = False
                return OpKind(kind_name), cacheable, version
            except RpcTimeout:
                yield from self._peer_unreachable(home)
            except NotHome:
                yield self.sim.timeout(RETRY_DELAY_MS)
        raise ProtocolError(f"write({key!r}) exhausted retries at {self.node_id}")

    def acquire_exclusive(self, key: str, ctx: Optional[AccessContext] = None):
        """Read-for-ownership (transactions, Section IV-A): become the
        exclusive owner of ``key`` — invalidating other sharers — without
        writing storage.  Returns the current committed value.

        The transactional runtime buffers speculative writes in entries
        acquired this way, so conflicting remote reads and writes are
        guaranteed to arrive at this agent (as fetch_downgrade /
        invalidate) and trigger a squash.
        """
        yield self.sim.sleep(self.system.latency.local_access)
        entry = self.cache.get(key)
        if entry is not None and entry.state == EXCLUSIVE:
            return entry.value
        has_local = entry is not None
        for _attempt in range(MAX_ATTEMPTS):
            yield from self._barrier_wait(key)
            home = self.ring.home(key)
            epoch = self.epoch
            try:
                if home == self.node_id:
                    value, cacheable = yield from self._home_rfo(
                        key, self.node_id, has_local)
                else:
                    value, cacheable = yield from self.endpoint.call(
                        f"{home}/concord-{self.app}", "rfo",
                        (key, self.node_id, has_local),
                        size_bytes=len(key) + 8,
                        timeout=self.system.config.rpc_timeout_ms,
                        trace=INHERIT,
                    )
                if value is None and has_local:
                    # Upgrade: no data traveled because we hold a Shared
                    # copy — unless a racing write invalidated it while
                    # the upgrade was in flight; then retry with a fetch.
                    current = self.cache.peek(key)
                    if current is None:
                        has_local = False
                        continue
                    value = current.value
            except NotHome:
                yield self.sim.timeout(RETRY_DELAY_MS)
                continue
            except RpcTimeout:
                yield from self._peer_unreachable(home)
                continue
            if (self._key_barred(key) or self.epoch != epoch
                    or self.ring.home(key) != home):
                # The home failed (or the key re-homed) while the grant
                # was in flight; the ownership it conferred is void.
                # Re-acquire once the barrier lifts.
                continue
            if not cacheable:
                # The home lost its homeship mid-RFO and never recorded
                # us as owner.  Unlike a plain write, RFO exists *only*
                # for the ownership — returning an untracked value would
                # let the txn layer write in E-state behind the new
                # home's back.  Re-acquire from the current home.
                has_local = self.cache.peek(key) is not None
                yield self.sim.timeout(RETRY_DELAY_MS)
                continue
            self._install(key, value, EXCLUSIVE, ctx, src="rfo")
            return value
        raise ProtocolError(f"rfo({key!r}) exhausted retries at {self.node_id}")

    def _home_rfo(self, key: str, requester: str, requester_has_copy: bool = False):
        """Home side of read-for-ownership: returns (value, cacheable).

        When the requester already holds a Shared copy, this is a pure
        *upgrade* — other sharers are invalidated and no data travels
        (value is None).  Otherwise the data comes from the home's own
        Shared copy if it has one, falling back to storage.
        """
        tracer = self.sim.tracer
        if not tracer.active:
            return (yield from self._home_rfo_impl(key, requester,
                                                   requester_has_copy))
        with tracer.span("home_rfo", "agent", key=key, requester=requester):
            return (yield from self._home_rfo_impl(key, requester,
                                                   requester_has_copy))

    def _home_rfo_impl(self, key, requester, requester_has_copy):
        lock = self._lock(self._key_locks, key)
        yield lock.acquire()
        try:
            yield from self._barrier_wait(key)
            if self.ring.home(key) != self.node_id or self.ejected:
                raise NotHome(f"{self.node_id} lost home of {key!r}")
            epoch = self.epoch
            entry = self.directory.get(key)
            value = None
            had_shared_copy = False
            if entry is not None:
                if entry.state == SHARED and not requester_has_copy:
                    # Write-through keeps every Shared copy current; grab
                    # the home's own copy before it gets invalidated.
                    local = self.cache.peek(key)
                    if local is not None:
                        value = local.value
                        had_shared_copy = True
                victims = sorted(entry.sharers - {requester, self.node_id})
                if self.node_id in entry.sharers and self.node_id != requester:
                    self._invalidate_local(key)
                yield from self._invalidate_sharers(key, victims)
            if not requester_has_copy and not had_shared_copy:
                # After all invalidations acked, storage holds the latest
                # committed value (write-through + owner-lock ordering).
                value, _version = yield from self.system.storage.read(
                    key, reader=self.node_id)
            if not self._still_home(key, epoch):
                return value, False
            self.directory.set_exclusive(key, requester)
            self._replicate_entry(key)
            return value, True
        finally:
            lock.release()

    def _handle_rfo(self, endpoint, src, args):
        key, requester, requester_has_copy = args
        yield from self._check_home(key)
        value, cacheable = yield from self._home_rfo(
            key, requester, requester_has_copy)
        return Reply((value, cacheable), size_bytes=sizeof(value) + 2)

    def _peer_unreachable(self, peer: str):
        """An RPC to ``peer`` timed out: report it and await the fallout.

        Section III-H: the waiting node informs the controller, the
        coordination service removes the peer's cache instance, and the
        waiter retries once the membership change reaches it.
        """
        obs = self.sim.obs
        if obs.active:
            obs.emit(PEER_UNREACHABLE, node=self.node_id, peer=peer)
        self.system.report_unreachable(peer)
        # Give the failure notification time to propagate and the local
        # membership handler time to erect the barrier.
        yield self.sim.timeout(RETRY_DELAY_MS)

    # ------------------------------------------------------------------
    # Home-side protocol (runs under the per-key home lock)
    # ------------------------------------------------------------------
    def _still_home(self, key: str, epoch: int) -> bool:
        """Whether this agent may mutate the directory entry for ``key``.

        Long home operations yield (storage, invalidations); if membership
        changed underneath them the entry may have been transferred, lost
        or recreated elsewhere — mutating it here would fork the directory.
        A raised barrier covering ``key`` means a domain change has already
        popped (or will not see) this key's entry: creating one now would
        park it at a home the committed ring no longer agrees on.
        """
        return (
            not self.ejected
            and self.epoch == epoch
            and self.ring.home(key) == self.node_id
            and not self._key_barred(key)
        )

    def _key_barred(self, key: str) -> bool:
        """Whether any raised barrier's snapshot re-homes ``key``."""
        for member, (ring_snapshot, _event) in self._barriers.items():
            if ring_snapshot.home(key) == member:
                return True
        return False

    def _home_read(self, key: str, requester: str, fn: str = ""):
        """Serve a read at the home; returns (value, state, dir_hit, cacheable)."""
        tracer = self.sim.tracer
        if not tracer.active:
            return (yield from self._home_read_impl(key, requester, fn))
        with tracer.span("home_read", "agent", key=key, requester=requester):
            return (yield from self._home_read_impl(key, requester, fn))

    def _home_read_impl(self, key, requester, fn):
        lock = self._lock(self._key_locks, key)
        yield lock.acquire()
        try:
            # A domain change may have re-homed the key while this request
            # queued on the lock; re-verify before touching the directory.
            yield from self._barrier_wait(key)
            if self.ring.home(key) != self.node_id or self.ejected:
                raise NotHome(f"{self.node_id} lost home of {key!r}")
            epoch = self.epoch
            entry = self.directory.get(key)
            if entry is None:
                # Read miss: fetch from storage, requester becomes E owner.
                value, _version = yield from self.system.storage.read(
                    key, reader=self.node_id)
                if value is None:
                    return None, EXCLUSIVE, False, False
                if not self._still_home(key, epoch):
                    return value, EXCLUSIVE, False, False
                self.directory.set_exclusive(key, requester)
                self._replicate_entry(key)
                return value, EXCLUSIVE, False, True

            self._observe_consumer(key, requester, fn)
            if entry.state == EXCLUSIVE:
                owner = entry.owner
                if owner == requester:
                    # Requester evicted silently but is still registered;
                    # storage is current (write-through).
                    value, _version = yield from self.system.storage.read(
                        key, reader=self.node_id)
                    cacheable = self._still_home(key, epoch)
                    return value, EXCLUSIVE, True, cacheable
                value = yield from self._fetch_from_owner(key, owner)
                if not self._still_home(key, epoch):
                    return value, SHARED, True, False
                if value is not None:
                    # Owner downgraded to S; both are sharers now.
                    entry.state = SHARED
                    entry.sharers.add(requester)
                    self._replicate_entry(key)
                    return value, SHARED, True, True
                # Owner evicted (or died): storage copy is current.
                value, _version = yield from self.system.storage.read(
                    key, reader=self.node_id)
                if not self._still_home(key, epoch):
                    return value, EXCLUSIVE, True, False
                self.directory.set_exclusive(key, requester)
                self._replicate_entry(key)
                return value, EXCLUSIVE, True, True

            # Shared: serve from the home's own cache if present, else storage.
            local = self.cache.get(key)
            if local is not None:
                value = local.value
            else:
                value, _version = yield from self.system.storage.read(
                    key, reader=self.node_id)
            if not self._still_home(key, epoch):
                return value, SHARED, True, False
            entry.sharers.add(requester)
            self._replicate_entry(key)
            return value, SHARED, True, True
        finally:
            lock.release()

    def _home_write(self, key: str, value: object, requester: str, fn: str = ""):
        """Serialize a write at the home.

        Returns ``(OpKind, cacheable, storage_version)`` — the version the
        write committed at, so the requester can order its cache install
        against concurrent direct-to-storage writes.
        """
        tracer = self.sim.tracer
        if not tracer.active:
            return (yield from self._home_write_impl(key, value, requester, fn))
        with tracer.span("home_write", "agent", key=key, requester=requester):
            return (yield from self._home_write_impl(key, value, requester, fn))

    def _home_write_impl(self, key, value, requester, fn):
        lock = self._lock(self._key_locks, key)
        yield lock.acquire()
        try:
            yield from self._barrier_wait(key)
            if self.ring.home(key) != self.node_id or self.ejected:
                raise NotHome(f"{self.node_id} lost home of {key!r}")
            epoch = self.epoch
            if fn:
                self._note_producer(key, requester, fn)
            entry = self.directory.get(key)
            if entry is None:
                # Write miss: update storage, requester becomes E owner.
                version = yield from self.system.storage.write(
                    key, value, writer=requester)
                self.system.stats.invalidations_per_write.record(0)
                if not self._still_home(key, epoch):
                    return OpKind.WRITE_MISS, False, version
                self.directory.set_exclusive(key, requester)
                self._replicate_entry(key)
                return OpKind.WRITE_MISS, True, version

            if entry.state == EXCLUSIVE and entry.owner != requester:
                # Single owner: invalidate it *before* updating storage
                # (the owner may have a direct-to-storage write in flight).
                yield from self._invalidate_sharers(key, [entry.owner])
                version = yield from self.system.storage.write(
                    key, value, writer=requester)
                self.system.stats.invalidations_per_write.record(1)
            else:
                # Shared (or stale self-ownership): invalidations travel in
                # parallel with the storage update, hiding their latency.
                victims = sorted(entry.sharers - {requester, self.node_id})
                if self.node_id in entry.sharers and self.node_id != requester:
                    self._invalidate_local(key)
                if self.system.parallel_invalidations:
                    # The agent issues the invalidation sends first (they
                    # serialize on its send path), then the storage write;
                    # all round trips overlap after that.
                    pending = yield from self._send_invalidations(key, victims)
                    storage_done = self.sim.spawn(
                        self.system.storage.write(key, value, writer=requester),
                        name=f"wt:{key}",
                    )
                    yield self.sim.all_of(pending + [storage_done])
                    version = storage_done.value
                else:
                    # Ablation: serialize invalidations before the update.
                    yield from self._invalidate_sharers(key, victims)
                    version = yield from self.system.storage.write(
                        key, value, writer=requester)
                self.system.stats.invalidations_per_write.record(len(victims))
            if not self._still_home(key, epoch):
                return OpKind.REMOTE_WRITE_HIT, False, version
            self.directory.set_exclusive(key, requester)
            self._replicate_entry(key)
            # If the home itself is the writer its cache copy stays E; any
            # other local copy was invalidated above.
            return OpKind.REMOTE_WRITE_HIT, True, version
        finally:
            lock.release()

    def _fetch_from_owner(self, key: str, owner: str):
        """Ask the E-state owner for the data (downgrades it to S)."""
        if owner == self.node_id:
            local = self.cache.get(key)
            if local is None:
                return None
            local.state = SHARED
            obs = self.sim.obs
            if obs.active:
                obs.emit(CACHE_DOWNGRADE, node=self.node_id, key=key,
                         version=local.version)
            return local.value
        with self.sim.tracer.span("fetch_owner", "agent", key=key, owner=owner):
            call = self.sim.spawn(
                self._call_catching(
                    f"{owner}/concord-{self.app}", "fetch_downgrade", key,
                    len(key)),
                name=f"fetch:{key}:{owner}",
            )
            # Abort early if the owner is declared failed while we wait; its
            # copies are unreadable (crash) or about to be flushed (ejection).
            yield from self._call_or_removal(call, owner)
            if not call.triggered:
                return None
            status, reply = call.value
            if status == "err":
                if isinstance(reply, RpcTimeout):
                    self.system.report_unreachable(owner)
                return None
            return None if isinstance(reply, NotCached) else reply

    def _send_invalidations(self, key: str, sharers: list):
        """Issue invalidations; returns the ack-wait processes.

        The sends serialize on the agent's NIC/syscall path (``send_ms``
        each) before the round trips overlap — the reason wide-fan-out
        writes creep up with sharer count (Figure 11: 30 -> 32.4 ms).
        """
        pending = []
        for sharer in sharers:
            if sharer == self.node_id:
                self._invalidate_local(key)
                continue
            yield self.sim.timeout(self.system.latency.send_ms)
            self.invalidations_sent += 1
            obs = self.sim.obs
            if obs.active:
                obs.emit(INV_SEND, node=self.node_id, key=key, sharer=sharer)
            pending.append(self.sim.spawn(
                self._invalidate_one(key, sharer), name=f"inv:{key}:{sharer}",
            ))
        return pending

    def _invalidate_sharers(self, key: str, sharers: list):
        """Send invalidations and gather all acknowledgements."""
        pending = yield from self._send_invalidations(key, sharers)
        if pending:
            yield self.sim.all_of(pending)
        return None

    def _invalidate_one(self, key: str, sharer: str):
        if sharer not in self.ring.members:
            return  # already recovered/left; nothing readable remains there
        # One span per sharer: the write's invalidation fan-out shows up
        # as parallel children of the home_write span.
        self.invalidations_inflight += 1
        try:
            with self.sim.tracer.span("invalidate", "invalidation",
                                      key=key, sharer=sharer):
                call = self.sim.spawn(
                    self._call_catching(
                        f"{sharer}/concord-{self.app}", "invalidate", key,
                        len(key)),
                    name=f"invrpc:{key}:{sharer}",
                )
                yield from self._call_or_removal(call, sharer)
                if not call.triggered:
                    return  # sharer declared failed; recovery handles its copies
                status, reply = call.value
                if status == "err" and isinstance(reply, RpcTimeout):
                    # A dead sharer holds no readable copy; report and move on.
                    self.system.report_unreachable(sharer)
        finally:
            self.invalidations_inflight -= 1

    def _call_catching(self, dst: str, method: str, args: object, size: int):
        """RPC returning ("ok", value) or ("err", exception) — never raises."""
        try:
            value = yield from self.endpoint.call(
                dst, method, args, size_bytes=size,
                timeout=self.system.config.rpc_timeout_ms,
                trace=INHERIT,
            )
        except RpcError as exc:
            return ("err", exc)
        return ("ok", value)

    def _call_or_removal(self, call, member: str):
        """Wait until ``call`` finishes or ``member`` leaves the ring."""
        removal = self._removal_event(member)
        wait = self.sim.any_of([call, removal])
        try:
            yield wait
        finally:
            # The removal event is shared by every wait on ``member`` and
            # lives until the member leaves; a callback left on it would
            # pin this wait and its finished call.
            wait.detach(removal)

    def _removal_event(self, member: str):
        """Event fired when ``member`` leaves this agent's ring view."""
        event = self._removal_events.get(member)
        if event is None or event.triggered:
            event = self.sim.event(f"removed:{member}")
            self._removal_events[member] = event
        return event

    def member_removed(self, member: str) -> None:
        """Signal waiters that ``member`` left the ring; bump the epoch."""
        self.epoch += 1
        event = self._removal_events.pop(member, None)
        if event is not None and not event.triggered:
            event.succeed()

    def _invalidate_local(self, key: str) -> None:
        entry = self.cache.remove(key)
        if entry is not None:
            obs = self.sim.obs
            if obs.active:
                obs.emit(CACHE_INVALIDATE, node=self.node_id, key=key,
                         state=entry.state)
        if entry is not None and self.txn_manager is not None and entry.speculative:
            self.txn_manager.on_external_invalidate(key, entry)

    # ------------------------------------------------------------------
    # RPC handlers (server side)
    # ------------------------------------------------------------------
    def _check_home(self, key: str):
        """Handlers first wait out barriers, then verify ring ownership."""
        yield from self._barrier_wait(key)
        if self.ring.home(key) != self.node_id or self.ejected:
            raise NotHome(f"{self.node_id} is not home of {key!r}")

    def _handle_read(self, endpoint, src, args):
        key, requester, fn = args
        yield from self._check_home(key)
        value, state, dir_hit, cacheable = yield from self._home_read(
            key, requester, fn)
        return Reply((value, state, dir_hit, cacheable),
                     size_bytes=sizeof(value) + 2)

    def _handle_write(self, endpoint, src, args):
        key, value, requester, fn = args
        yield from self._check_home(key)
        kind, cacheable, version = yield from self._home_write(
            key, value, requester, fn)
        return Reply((kind.value, cacheable, version), size_bytes=8)

    def _handle_fetch_downgrade(self, endpoint, src, key):
        yield from self._wait_protection(key)
        # Wait out any in-flight direct-to-storage E write.
        lock = self._lock(self._owner_locks, key)
        yield lock.acquire()
        lock.release()
        entry = self.cache.get(key)
        if entry is None:
            return Reply(NotCached(), size_bytes=2)
        if self.txn_manager is not None and entry.spec_writer is not None:
            self.txn_manager.on_external_read(key, entry)
            return Reply(NotCached(), size_bytes=2)
        entry.state = SHARED
        obs = self.sim.obs
        if obs.active:
            obs.emit(CACHE_DOWNGRADE, node=self.node_id, key=key,
                     version=entry.version)
        return Reply(entry.value, size_bytes=entry.size_bytes)

    def _handle_invalidate(self, endpoint, src, key):
        self.invalidations_received += 1
        obs = self.sim.obs
        if obs.active:
            obs.emit(INV_RECV, node=self.node_id, key=key, src=src)
        yield from self._wait_protection(key)
        lock = self._lock(self._owner_locks, key)
        yield lock.acquire()
        lock.release()
        self._invalidate_local(key)
        return Reply("ack", size_bytes=1)

    def _wait_protection(self, key: str):
        """Block while a protected (escalated) transaction marks the entry.

        Safe against deadlock: a protected transaction's buffered writes
        are E-state entries, so its commit goes straight to storage and
        never waits on another home's key lock.
        """
        while self.txn_manager is not None:
            entry = self.cache.peek(key)
            if entry is None or not entry.speculative:
                return
            event = self.txn_manager.writer_protection_event(entry)
            if event is None:
                return
            yield event

    def _handle_external_write(self, endpoint, src, args):
        """External write landed in storage: purge every cached copy."""
        key, _version = args
        yield from self._check_home(key)
        lock = self._lock(self._key_locks, key)
        yield lock.acquire()
        try:
            entry = self.directory.get(key)
            if entry is not None:
                victims = sorted(entry.sharers - {self.node_id})
                yield from self._invalidate_sharers(key, victims)
                self._invalidate_local(key)
                self.directory.remove(key)
                self._replicate_entry(key)
            else:
                self._invalidate_local(key)
            return Reply("ack", size_bytes=1)
        finally:
            lock.release()

    # ------------------------------------------------------------------
    # Shard-follower directory mirroring (sharded systems, replication>1)
    # ------------------------------------------------------------------
    def _replicate_entry(self, key: str) -> None:
        """Mirror ``key``'s directory entry to its shard's followers.

        Asynchronous by design (fire-and-forget ``notify``, no sender
        yield): the mirror may lag the directory arbitrarily, and
        failover adoption stays sound anyway because the recovery sweep
        evicts every copy homed at a dead leader first.  On flat or
        unreplicated systems this is a two-attribute-load no-op, keeping
        their schedules byte-identical.
        """
        system = self.system
        if system.replication < 2 or system.shard_manager is None:
            return
        followers = self.ring.followers(key)
        if not followers:
            return
        entry = self.directory.peek(key)
        if entry is None:
            payload = (key, None, ())
        else:
            payload = (key, entry.state, tuple(sorted(entry.sharers)))
        members = self.ring.members
        for follower in followers:
            if follower == self.node_id or follower not in members:
                continue
            self.endpoint.notify(
                f"{follower}/concord-{self.app}", "dir_replicate", payload,
                size_bytes=ENTRY_WIRE_BYTES, trace=INHERIT)

    def _handle_dir_replicate(self, endpoint, src, args):
        """Apply one mirrored entry snapshot (follower side)."""
        key, state, sharers = args
        if state is None:
            self.dir_mirror.pop(key, None)
        else:
            self.dir_mirror[key] = (state, sharers)
        return None
        yield  # pragma: no cover - generator marker

    # ------------------------------------------------------------------
    # Barriers (recovery and domain changes)
    # ------------------------------------------------------------------
    def raise_barrier(self, member: str, ring_snapshot) -> None:
        """Block operations on keys homed at ``member`` until lifted."""
        if member not in self._barriers:
            self._barriers[member] = (ring_snapshot, self.sim.event(f"barrier:{member}"))
            obs = self.sim.obs
            if obs.active:
                obs.emit(BARRIER_RAISE, node=self.node_id, member=member)

    def lift_barrier(self, member: str) -> None:
        barrier = self._barriers.pop(member, None)
        if barrier is not None:
            obs = self.sim.obs
            if obs.active:
                obs.emit(BARRIER_LIFT, node=self.node_id, member=member)
        if barrier is not None and not barrier[1].triggered:
            barrier[1].succeed()

    def _barrier_wait(self, key: str):
        """Wait until no active barrier covers ``key``."""
        for _attempt in range(MAX_ATTEMPTS):
            blocking = None
            for member, (ring_snapshot, event) in self._barriers.items():
                if member in ring_snapshot.members and ring_snapshot.home(key) == member:
                    blocking = event
                    break
            if blocking is None:
                return
            yield blocking
        raise ProtocolError(f"barrier on {key!r} never lifted at {self.node_id}")

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def _install(self, key: str, value: object, state: str, ctx=None, *,
                 version: int = 0, src: str = "") -> None:
        """Cache a fetched/written value, respecting the capacity budget."""
        if self.ejected:
            # The domain wrote this instance off and pruned it from every
            # sharer set; a reply landing after the ejection must not
            # plant a copy nobody tracks.  (eject() already flushed.)
            return
        self.refresh_capacity()
        size = sizeof(value)
        if size > self.cache.capacity_bytes:
            return  # large objects are cached only if memory allows
        existing = self.cache.peek(key)
        if (existing is not None and existing.speculative
                and self.txn_manager is not None):
            # Replacing a speculative entry is a conflict with whoever
            # speculated on it (unless that is the installing transaction).
            self.txn_manager.on_replace(key, existing, ctx)
        entry = CacheEntry(key=key, value=value, state=state, size_bytes=size,
                           version=version)
        if self.txn_manager is not None and ctx is not None and ctx.txn_id:
            self.txn_manager.on_install(key, entry, ctx)
        self.cache.put(entry)
        obs = self.sim.obs
        if obs.active:
            obs.emit(CACHE_INSTALL, node=self.node_id, key=key, state=state,
                     version=version, src=src)

    def refresh_capacity(self) -> None:
        """Track the application's currently-unused container memory."""
        budget = self.system.capacity_for(self.node_id)
        if budget != self.cache.capacity_bytes:
            self.cache.resize(budget)

    def eject(self) -> None:
        """This agent was declared failed (possibly falsely): flush.

        The rest of the domain already treats our directory entries as
        lost and our cached copies as unreadable, so holding on to either
        would fork the coherence state.  The system rejoins us afterwards.
        """
        if self.ejected:
            return
        self.ejected = True
        self.epoch += 1
        obs = self.sim.obs
        if obs.active:
            obs.emit(MEMBER_EJECT, node=self.node_id,
                     cached=len(self.cache), homed=len(self.directory))
        self.cache.clear()
        self.directory = DataDirectory(self.node_id, tracer=self.sim.tracer,
                                       obs=self.sim.obs)
        self.dir_mirror.clear()
        self._last_writer.clear()
        if self.node_id in self.ring.members:
            self.ring.remove(self.node_id)
        for member in list(self._barriers):
            self.lift_barrier(member)

    def evict_keys_homed_at(self, member: str, ring_snapshot) -> int:
        """Recovery step: drop all cached items homed at a failed member."""
        evicted = 0
        for key in self.cache.keys():
            if ring_snapshot.home(key) == member:
                self._invalidate_local(key)
                evicted += 1
        return evicted

    def pop_directory_entries_locked(self, keys: list):
        """Quiesce ``keys`` and pop their directory entries (generator).

        Acquires each key's home lock so no in-flight home operation can
        mutate (or recreate) an entry while it is being transferred to a
        new home; returns ``(entries, release)`` where ``release()`` must
        be called once the transfer is acknowledged.
        """
        locks = [self._lock(self._key_locks, key) for key in keys]
        for lock in locks:
            # Deliberate lock handoff: released by the returned closure
            # once the caller's dir_install RPC is acknowledged.
            yield lock.acquire()  # noqa: PRO03
        entries = self.directory.pop_entries_for(keys)

        def release():
            for lock in locks:
                lock.release()

        return entries, release

    def _lock(self, table: dict, key: str) -> Resource:
        lock = table.get(key)
        if lock is None:
            lock = Resource(self.sim, capacity=1, name=f"{self.node_id}:{key}")
            table[key] = lock
        return lock

    # ------------------------------------------------------------------
    # Placement learning hooks
    # ------------------------------------------------------------------
    def _note_producer(self, key: str, node: str, fn: str) -> None:
        self._last_writer[key] = (node, fn)

    def _observe_consumer(self, key: str, requester: str, fn: str) -> None:
        """A remote read of a recently-written key: producer-consumer edge."""
        producer = self._last_writer.get(key)
        if producer is None or not fn:
            return
        producer_node, producer_fn = producer
        if producer_node != requester and producer_fn and producer_fn != fn:
            self.system.observe_producer_consumer(producer_fn, fn)

    def close(self) -> None:
        """Tear down (graceful leave already transferred the directory)."""
        self.alive = False
        self.cache.clear()
        self.endpoint.close()
