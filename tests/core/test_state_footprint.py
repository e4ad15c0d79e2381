"""Memory shape of the state a large run builds and keeps.

A seven-app run creates one per-key lock for every key an agent ever
serialized, one cache entry per cached copy and one directory entry per
homed key, and every app's handlers look keys up in precompiled tables.
These tests pin the lean layout of that state: slotted objects, no idle
waiter queues, no per-entry speculation sets outside transactions, and one
key table per app shared by every stage and the storage preload.
"""

import gc
from collections import deque

import pytest

from repro.caching.base import NO_SPEC_READERS, CacheEntry
from repro.core.directory import DirectoryEntry
from repro.sim import Resource, SimulationError, Simulator
from repro.storage import DataItem
from repro.txn import ConcordTxnRuntime
from repro.workloads import ALL_PROFILES, build_app
from repro.workloads.profiles import KeyTable, key_table, working_set


def holds_deque(obj) -> bool:
    return any(isinstance(ref, deque) for ref in gc.get_referents(obj))


class TestResource:
    def test_is_slotted(self):
        assert not hasattr(Resource(Simulator()), "__dict__")

    def test_idle_resource_holds_no_deque(self):
        res = Resource(Simulator(), capacity=1, name="node0:k")
        assert not holds_deque(res)
        res.acquire()
        res.release()
        assert not holds_deque(res)
        assert res.queue_length == 0

    def test_first_contended_acquire_allocates_the_queue(self):
        res = Resource(Simulator(), capacity=1)
        res.acquire()
        waiting = res.acquire()
        assert holds_deque(res)
        assert res.queue_length == 1
        assert waiting.name == "acquire:" + res.name

    def test_cancel_of_foreign_grant_on_never_contended_resource(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        other = Resource(sim, capacity=1)
        other.acquire()
        foreign = other.acquire()  # pending on ``other``, not on ``res``
        with pytest.raises(SimulationError):
            res.cancel(foreign)


def closure_values(function) -> list:
    return [cell.cell_contents for cell in function.__closure__ or ()]


class TestKeyTables:
    @pytest.mark.parametrize("app", sorted(ALL_PROFILES))
    def test_all_stages_share_one_table(self, app):
        profile = ALL_PROFILES[app]
        table = key_table(profile)
        handlers = [function.handler
                    for spec in (build_app(profile), build_app(profile))
                    for function in spec.functions.values()]
        assert len(handlers) == 2 * profile.functions
        for handler in handlers:
            values = closure_values(handler)
            tables = [value for value in values
                      if isinstance(value, KeyTable)]
            assert tables == [table]
            assert any(value is table.entities for value in values)
            assert any(value is table.globals for value in values)

    def test_handoff_rows_are_shared_between_writer_and_reader(self):
        profile = ALL_PROFILES["SocNet"]
        handlers = [function.handler for function in
                    build_app(profile).functions.values()]
        for stage, rows in enumerate(key_table(profile).handoffs):
            assert any(v is rows for v in closure_values(handlers[stage]))
            assert any(v is rows for v in closure_values(handlers[stage + 1]))

    @pytest.mark.parametrize("app", sorted(ALL_PROFILES))
    def test_working_set_keys_are_the_table_strings(self, app):
        profile = ALL_PROFILES[app]
        table = key_table(profile)
        rows = [row for entity in table.entities[:profile.entities]
                for row in entity] + table.globals
        items = working_set(profile)
        assert len(items) == len(rows)
        for key, (row_key, _read_only, size) in zip(items, rows):
            assert key is row_key
            assert items[key] == DataItem((key, 0), size)


class TestEntries:
    def test_entries_are_slotted(self):
        assert not hasattr(CacheEntry(key="k", value=None), "__dict__")
        assert not hasattr(DirectoryEntry(key="k", sharers={"node0"}),
                           "__dict__")

    def test_plain_traffic_allocates_no_spec_readers(self, do, concord):
        for index in range(8):
            node = f"node{index % 4}"
            key = f"k{index % 3}"
            do(concord.write(node, key, DataItem(key, 64)))
            do(concord.read(f"node{(index + 1) % 4}", key))
        entries = [agent.cache.peek(key) for agent in concord.agents.values()
                   for key in agent.cache.keys()]
        assert entries
        assert all(entry.spec_readers is NO_SPEC_READERS
                   for entry in entries)

    def test_speculative_read_allocates_and_commit_frees(self, do, concord):
        runtime = ConcordTxnRuntime(concord)
        do(concord.write("node1", "x", DataItem("x", 64)))
        seen = []

        def body(txn):
            yield from txn.read("x")
            seen.append(set(concord.agents["node0"].cache.peek("x")
                            .spec_readers))
            return None

        do(runtime.run("node0", body))
        assert len(seen) == 1 and len(seen[0]) == 1
        assert (concord.agents["node0"].cache.peek("x").spec_readers
                is NO_SPEC_READERS)
