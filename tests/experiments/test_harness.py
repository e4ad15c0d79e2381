"""Smoke tests of the experiment harness (tiny scales).

The benchmarks exercise the experiments at full size; these tests keep the
harness itself covered by the fast unit suite: configs resolve, runs
complete, rows carry the expected columns.
"""

import pytest

from repro.experiments import (
    LOAD_LEVELS,
    MixedRunConfig,
    run_mixed_workload,
    unloaded_latency,
)


class TestMixedRunConfig:
    def test_load_levels(self):
        assert set(LOAD_LEVELS) == {"low", "medium", "high"}
        assert LOAD_LEVELS["low"] < LOAD_LEVELS["medium"] < LOAD_LEVELS["high"]

    def test_rps_resolution_from_utilization(self):
        config = MixedRunConfig(utilization=0.5, num_nodes=4, cores_per_node=8)
        rps = config.resolved_total_rps()
        assert rps > 0
        # Doubling utilization doubles the rate.
        double = MixedRunConfig(utilization=1.0, num_nodes=4, cores_per_node=8)
        assert double.resolved_total_rps() == pytest.approx(2 * rps)

    def test_explicit_rps_wins(self):
        config = MixedRunConfig(utilization=0.5, total_rps=123.0)
        assert config.resolved_total_rps() == 123.0

    def test_unknown_scheme_rejected(self):
        config = MixedRunConfig(scheme="bogus", duration_ms=100, warmup_ms=50)
        with pytest.raises(ValueError):
            run_mixed_workload(config)


class TestTinyRuns:
    @pytest.mark.parametrize("scheme", ["nocache", "ofc", "faast", "concord"])
    def test_schemes_run_and_report(self, scheme):
        config = MixedRunConfig(
            scheme=scheme, num_nodes=2, cores_per_node=4,
            apps=("TrainT", "SocNet"),
            total_rps=20.0, utilization=None,
            duration_ms=800.0, warmup_ms=300.0, drain_ms=1500.0,
        )
        outcome = run_mixed_workload(config)
        assert set(outcome.per_app) == {"TrainT", "SocNet"}
        completed = sum(s.completed for s in outcome.per_app.values())
        assert completed > 0
        assert outcome.access.reads > 0

    def test_trace_knob_collects_and_exports(self, tmp_path):
        from repro.trace import load_trace
        from repro.trace.summary import per_app_requests

        path = tmp_path / "run.json"
        config = MixedRunConfig(
            scheme="concord", num_nodes=2, cores_per_node=4,
            apps=("TrainT",),
            total_rps=10.0, utilization=None,
            duration_ms=600.0, warmup_ms=200.0, drain_ms=1500.0,
            trace=str(path),
        )
        outcome = run_mixed_workload(config)
        assert outcome.tracer is not None
        assert outcome.tracer.open_spans() == []
        spans = load_trace(path)
        assert any(s["category"] == "request" for s in spans)
        traced = per_app_requests(spans)
        assert "TrainT" in traced

    def test_trace_off_by_default(self):
        config = MixedRunConfig(
            scheme="nocache", num_nodes=2, cores_per_node=4,
            apps=("TrainT",), total_rps=10.0, utilization=None,
            duration_ms=400.0, warmup_ms=200.0, drain_ms=1000.0,
        )
        outcome = run_mixed_workload(config)
        assert outcome.tracer is None

    def test_concord_collects_sharers_and_memory(self):
        config = MixedRunConfig(
            scheme="concord", num_nodes=2, cores_per_node=4,
            apps=("SocNet",), total_rps=30.0, utilization=None,
            duration_ms=1000.0, warmup_ms=300.0,
            sample_every_ms=100.0,
        )
        outcome = run_mixed_workload(config)
        assert outcome.sharer_samples
        assert "SocNet" in outcome.sharer_samples_per_app
        assert outcome.cache_peaks  # at least one instance held data

    def test_unloaded_latency_returns_all_apps(self):
        latencies = unloaded_latency(
            "concord", apps=("TrainT",), num_nodes=2, cores_per_node=4,
            requests=2)
        assert set(latencies) == {"TrainT"}
        assert latencies["TrainT"] > 0

    def test_unloaded_latency_applies_the_scheme_preload_hook(
            self, monkeypatch):
        # Regression: unloaded_latency skipped the preload hook that
        # run_mixed_workload applies, so concord-mem was measured against
        # an unprimed memory tier (SocNet 254.7 ms instead of 173.3 ms).
        from dataclasses import replace

        from repro import schemes

        primed = unloaded_latency("concord-mem", apps=("SocNet",),
                                  requests=3)
        spec = schemes.scheme_spec("concord-mem")
        calls = []

        def recording_preload(scheme, profile):
            calls.append(profile.name)
            spec.preload(scheme, profile)

        monkeypatch.setitem(schemes._REGISTRY, "concord-mem",
                            replace(spec, preload=recording_preload))
        assert unloaded_latency("concord-mem", apps=("SocNet",),
                                requests=3) == primed
        assert calls == ["SocNet"]
        monkeypatch.setitem(schemes._REGISTRY, "concord-mem",
                            replace(spec, preload=None))
        unprimed = unloaded_latency("concord-mem", apps=("SocNet",),
                                    requests=3)
        assert primed["SocNet"] < unprimed["SocNet"]


class TestCheapExperiments:
    def test_fig03_rows(self):
        from repro.experiments import fig03_version_vs_data

        result = fig03_version_vs_data.run()
        assert len(result.rows()) == 7
        assert {"size_kb", "version_ms", "data_ms"} <= set(result.rows()[0])

    def test_char_reads_ordering(self):
        from repro.experiments import char_reads

        rows = {r["operation"]: r["measured_ms"] for r in char_reads.run().rows()}
        assert rows["local hit"] < rows["remote hit"] < rows["remote miss"]

    def test_verify_protocol_clean(self):
        from repro.experiments import verify_protocol

        for row in verify_protocol.run().rows():
            assert row["violations"] == 0
            assert row["deadlocks"] == 0

    def test_ablation_virtual_nodes_balance(self):
        from repro.experiments.ablations import run_virtual_nodes

        rows = run_virtual_nodes().rows()
        assert rows[-1]["max/mean_keys"] < rows[0]["max/mean_keys"]
