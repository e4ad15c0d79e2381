"""Daemon processes that die during a fault scenario are reported."""

import pytest

from repro.faults import FaultPlan, run_fault_scenario

NODES = [f"node{i}" for i in range(6)]


def _run(scheme):
    # The seeded plan that showed apta-az losing invocation daemons to
    # the node3 crash while the outcome reported nothing.
    plan = FaultPlan.random(seed=0, node_ids=NODES, horizon_ms=4000)
    return run_fault_scenario(plan, seed=0, num_nodes=len(NODES),
                              duration_ms=4000, rps=30, scheme=scheme)


@pytest.fixture(scope="module")
def apta():
    return _run("apta-az")


class TestDaemonFailures:
    def test_apta_invocation_daemons_recorded(self, apta):
        assert [failure for failure in apta.daemon_failures
                if failure[0].startswith("apta-inv:")] == [
            ("apta-inv:SocNet:e4:i1:node3", "PeerDown"),
            ("apta-inv:SocNet:e4:i2:node3", "PeerDown"),
            ("apta-inv:SocNet:e81:i3:node2", "RpcTimeout"),
            ("apta-inv:SocNet:g20:node2", "RpcTimeout"),
        ]
        assert apta.daemon_failures.count(("req:SocNet", "RpcTimeout")) == 3
        assert len(apta.daemon_failures) == 7

    def test_failures_are_part_of_the_fingerprint(self, apta):
        assert tuple(apta.daemon_failures) in apta.fingerprint()

    def test_concord_records_none_under_the_same_plan(self):
        assert _run("concord").daemon_failures == []
