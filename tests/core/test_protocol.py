"""Functional tests of Concord's coherence operations (Section III-C2)."""

import pytest

from repro.caching.base import EXCLUSIVE, SHARED
from repro.metrics import OpKind
from repro.storage import DataItem


def home_of(concord, key):
    return concord.ring_template.home(key)


def non_home_nodes(concord, key, count=2):
    others = [n for n in concord.agents if n != home_of(concord, key)]
    return others[:count]


@pytest.fixture
def key_and_nodes(concord, cluster):
    """A key, its home node, and two distinct non-home nodes."""
    key = "item-1"
    cluster.storage.preload({key: DataItem("v0", size_bytes=4096)})
    home = home_of(concord, key)
    n1, n2 = non_home_nodes(concord, key)
    return key, home, n1, n2


class TestReadOperations:
    def test_read_miss_loads_exclusive(self, do, concord, key_and_nodes):
        key, home, n1, _ = key_and_nodes
        value = do(concord.read(n1, key))
        assert value == DataItem("v0", size_bytes=4096)
        assert concord.stats.count(OpKind.READ_MISS) == 1
        entry = concord.agents[n1].cache.peek(key)
        assert entry.state == EXCLUSIVE
        dentry = concord.agents[home].directory.get(key)
        assert dentry.state == EXCLUSIVE
        assert dentry.sharers == {n1}

    def test_second_reader_downgrades_to_shared(self, do, concord, key_and_nodes):
        key, home, n1, n2 = key_and_nodes
        do(concord.read(n1, key))
        do(concord.read(n2, key))
        assert concord.agents[n1].cache.peek(key).state == SHARED
        assert concord.agents[n2].cache.peek(key).state == SHARED
        dentry = concord.agents[home].directory.get(key)
        assert dentry.state == SHARED
        assert dentry.sharers == {n1, n2}
        assert concord.stats.count(OpKind.REMOTE_READ_HIT) == 1

    def test_local_read_hit_after_load(self, do, concord, key_and_nodes):
        key, _, n1, _ = key_and_nodes
        do(concord.read(n1, key))
        do(concord.read(n1, key))
        assert concord.stats.count(OpKind.LOCAL_READ_HIT) == 1

    def test_local_hit_is_fast(self, sim, do, concord, key_and_nodes, config):
        key, _, n1, _ = key_and_nodes
        do(concord.read(n1, key))
        start = sim.now
        do(concord.read(n1, key))
        assert sim.now - start == pytest.approx(config.latency.local_access)

    def test_read_miss_pays_storage_round_trip(self, sim, do, concord, key_and_nodes, config):
        key, _, n1, _ = key_and_nodes
        start = sim.now
        do(concord.read(n1, key))
        assert sim.now - start >= config.latency.storage_rtt

    def test_read_of_missing_key_returns_none(self, do, concord):
        node = next(iter(concord.agents))
        assert do(concord.read(node, "ghost")) is None

    def test_home_read_uses_home_cache_when_shared(self, sim, do, concord, cluster):
        # Find a key homed at some node, cache it at home + one other node,
        # then a third node's read must be served without storage access.
        key = "homed-item"
        cluster.storage.preload({key: DataItem("x", size_bytes=1024)})
        home = home_of(concord, key)
        others = non_home_nodes(concord, key)
        do(concord.read(home, key))      # home caches it (E at home)
        do(concord.read(others[0], key))  # downgrades to S
        reads_before = cluster.storage.stats.reads
        do(concord.read(others[1], key))
        assert cluster.storage.stats.reads == reads_before

    def test_silent_eviction_then_remote_read(self, do, concord, key_and_nodes, cluster):
        key, home, n1, n2 = key_and_nodes
        do(concord.read(n1, key))
        # n1 silently evicts; the home still lists it as exclusive owner.
        concord.agents[n1].cache.remove(key)
        value = do(concord.read(n2, key))
        assert value == DataItem("v0", size_bytes=4096)
        # Paper: requester loads in state E when the owner lost its copy.
        assert concord.agents[n2].cache.peek(key).state == EXCLUSIVE
        dentry = concord.agents[home].directory.get(key)
        assert dentry.sharers == {n2}

    def test_owner_re_read_after_own_eviction(self, do, concord, key_and_nodes):
        key, home, n1, _ = key_and_nodes
        do(concord.read(n1, key))
        concord.agents[n1].cache.remove(key)
        value = do(concord.read(n1, key))
        assert value == DataItem("v0", size_bytes=4096)
        assert concord.agents[home].directory.get(key).sharers == {n1}


class TestWriteOperations:
    def test_write_miss_creates_exclusive_entry(self, do, concord, cluster):
        key = "fresh"
        writer = next(iter(concord.agents))
        do(concord.write(writer, key, DataItem("w1", size_bytes=100)))
        assert cluster.storage.peek(key).value == DataItem("w1", size_bytes=100)
        home = home_of(concord, key)
        dentry = concord.agents[home].directory.get(key)
        assert dentry.state == EXCLUSIVE
        assert dentry.sharers == {writer}
        assert concord.agents[writer].cache.peek(key).state == EXCLUSIVE

    def test_exclusive_write_bypasses_home(self, do, concord, cluster, key_and_nodes):
        key, home, n1, _ = key_and_nodes
        do(concord.read(n1, key))  # n1 now E owner
        messages_before = cluster.network.stats.messages
        do(concord.write(n1, key, DataItem("v1", size_bytes=4096)))
        # No coherence messages: update went straight to storage.
        assert cluster.network.stats.messages == messages_before
        assert cluster.storage.peek(key).value == DataItem("v1", size_bytes=4096)
        assert concord.stats.count(OpKind.LOCAL_WRITE_HIT) == 1

    def test_shared_write_invalidates_other_sharers(self, do, concord, key_and_nodes, cluster):
        key, home, n1, n2 = key_and_nodes
        do(concord.read(n1, key))
        do(concord.read(n2, key))
        do(concord.write(n1, key, DataItem("v1", size_bytes=4096)))
        assert concord.agents[n2].cache.peek(key) is None
        assert concord.agents[n1].cache.peek(key).state == EXCLUSIVE
        dentry = concord.agents[home].directory.get(key)
        assert dentry.state == EXCLUSIVE
        assert dentry.sharers == {n1}
        assert cluster.storage.peek(key).value == DataItem("v1", size_bytes=4096)

    def test_invalidation_count_recorded(self, do, concord, key_and_nodes):
        key, home, n1, n2 = key_and_nodes
        others = [n for n in concord.agents if n != home and n not in (n1, n2)]
        n3 = others[0]
        for node in (n1, n2, n3, home):
            do(concord.read(node, key))
        do(concord.write(n1, key, DataItem("v1", size_bytes=10)))
        # n2 and n3 received invalidation *messages*; the home's own copy
        # is dropped locally without a message (Figure 9 counts messages).
        assert concord.stats.invalidations_per_write.max == 2
        for node in (n2, n3, home):
            assert concord.agents[node].cache.peek(key) is None

    def test_remote_write_hit_invalidates_exclusive_owner(self, do, concord, key_and_nodes, cluster):
        key, home, n1, n2 = key_and_nodes
        do(concord.read(n1, key))  # n1 is E owner
        do(concord.write(n2, key, DataItem("v2", size_bytes=50)))
        assert concord.agents[n1].cache.peek(key) is None
        assert concord.agents[n2].cache.peek(key).state == EXCLUSIVE
        assert cluster.storage.peek(key).value == DataItem("v2", size_bytes=50)
        assert concord.stats.count(OpKind.REMOTE_WRITE_HIT) == 1

    def test_write_then_read_from_other_node(self, do, concord, key_and_nodes):
        key, _, n1, n2 = key_and_nodes
        do(concord.write(n1, key, DataItem("new", size_bytes=10)))
        assert do(concord.read(n2, key)) == DataItem("new", size_bytes=10)

    def test_repeated_exclusive_writes_have_no_invalidations(self, do, concord):
        key, writer = "counter", "node0"
        do(concord.write(writer, key, DataItem(0, size_bytes=8)))
        for i in range(1, 4):
            do(concord.write(writer, key, DataItem(i, size_bytes=8)))
        histogram = concord.stats.invalidations_per_write
        assert histogram.max == 0

    def test_stale_self_ownership_write(self, do, concord, key_and_nodes, cluster):
        key, home, n1, _ = key_and_nodes
        do(concord.read(n1, key))
        concord.agents[n1].cache.remove(key)  # silent eviction; still owner
        do(concord.write(n1, key, DataItem("again", size_bytes=10)))
        assert cluster.storage.peek(key).value == DataItem("again", size_bytes=10)
        assert concord.agents[n1].cache.peek(key).state == EXCLUSIVE

    def test_write_at_home_node(self, do, concord, key_and_nodes, cluster):
        key, home, n1, _ = key_and_nodes
        do(concord.read(n1, key))
        do(concord.write(home, key, DataItem("fromhome", size_bytes=10)))
        assert concord.agents[n1].cache.peek(key) is None
        dentry = concord.agents[home].directory.get(key)
        assert dentry.sharers == {home}


class TestWriteSerialization:
    def test_concurrent_writes_serialize_at_home(self, sim, concord, cluster, key_and_nodes):
        key, home, n1, n2 = key_and_nodes

        def writer(node, tag):
            yield from concord.write(node, key, DataItem(tag, size_bytes=10))

        p1 = sim.spawn(writer(n1, "w1"))
        p2 = sim.spawn(writer(n2, "w2"))
        sim.run(until=10_000.0)
        assert p1.triggered and p2.triggered
        final = cluster.storage.peek(key).value
        assert final in (DataItem("w1", size_bytes=10), DataItem("w2", size_bytes=10))
        # The directory must agree: exactly one exclusive owner, holding
        # the same value as storage.
        dentry = concord.agents[home].directory.get(key)
        assert dentry.state == EXCLUSIVE
        owner = dentry.owner
        entry = concord.agents[owner].cache.peek(key)
        assert entry is not None and entry.value == final

    def test_concurrent_read_and_write_are_coherent(self, sim, concord, cluster, key_and_nodes):
        key, home, n1, n2 = key_and_nodes
        results = {}

        def reader(node):
            value = yield from concord.read(node, key)
            results["read"] = value

        def writer(node):
            yield from concord.write(node, key, DataItem("vN", size_bytes=10))

        sim.spawn(reader(n1))
        sim.spawn(writer(n2))
        sim.run(until=10_000.0)
        # The read returned either the old or the new value...
        assert results["read"] in (
            DataItem("v0", size_bytes=4096), DataItem("vN", size_bytes=10),
        )
        # ...but whatever remains cached anywhere equals storage.
        final = cluster.storage.peek(key).value
        for agent in concord.agents.values():
            entry = agent.cache.peek(key)
            if entry is not None:
                assert entry.value == final


class TestExternalWrites:
    def test_external_write_purges_cached_copies(self, sim, do, concord, cluster, key_and_nodes):
        key, home, n1, n2 = key_and_nodes
        do(concord.read(n1, key))
        do(concord.read(n2, key))

        def external(sim):
            yield from cluster.storage.write(
                key, DataItem("ext", size_bytes=10), writer="external")

        do(external(sim))
        sim.run(until=sim.now + 100.0)
        assert concord.agents[n1].cache.peek(key) is None
        assert concord.agents[n2].cache.peek(key) is None
        assert do(concord.read(n1, key)) == DataItem("ext", size_bytes=10)

    def test_faas_writes_do_not_trigger_external_path(self, do, concord, cluster, key_and_nodes):
        key, home, n1, n2 = key_and_nodes
        do(concord.read(n2, key))
        do(concord.write(n1, key, DataItem("internal", size_bytes=10)))
        # Internal writes go through the protocol; the external-write
        # listener must not double-invalidate (n1 keeps its E copy).
        entry = concord.agents[n1].cache.peek(key)
        assert entry is not None and entry.state == EXCLUSIVE


class TestMemoryAccounting:
    def test_capacity_follows_unused_container_memory(self, cluster, concord):
        from repro.config import MB

        node = cluster.node("node0")
        node.add_container("app1", "f1", memory_used=28 * MB)
        agent = concord.agents["node0"]
        agent.refresh_capacity()
        assert agent.cache.capacity_bytes == 100 * MB

    def test_capacity_override_wins(self, cluster, coord):
        from repro.config import MB
        from repro.core import ConcordSystem

        system = ConcordSystem(
            cluster, app="app2", coord=coord, capacity_override=2 * MB)
        agent = system.agents["node0"]
        agent.refresh_capacity()
        assert agent.cache.capacity_bytes == 2 * MB

    def test_oversized_object_not_cached(self, do, cluster, coord):
        from repro.config import MB
        from repro.core import ConcordSystem

        system = ConcordSystem(
            cluster, app="app3", coord=coord, capacity_override=1 * MB)
        cluster.storage.preload({"big": DataItem("huge", size_bytes=4 * MB)})
        value = do(system.read("node1", "big"))
        assert value == DataItem("huge", size_bytes=4 * MB)
        assert system.agents["node1"].cache.peek("big") is None


class TestRemovalWaits:
    """Waits on a live member's removal event must not pile up on it."""

    def test_removal_event_callbacks_stay_bounded(self, do, concord, key_and_nodes):
        key, home, n1, n2 = key_and_nodes
        rounds = 20
        for round_ in range(rounds):
            do(concord.read(n1, key))   # n1 becomes owner or sharer
            do(concord.read(n2, key))   # home fetches from n1 (owner)
            do(concord.write(n2, key, DataItem(f"v{round_}", size_bytes=64)))
        agent = concord.agents[home]
        assert agent.invalidations_sent >= rounds
        removal = agent._removal_event(n1)
        assert not removal.triggered
        assert removal.callbacks == []
