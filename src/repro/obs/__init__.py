"""repro.obs — the flight recorder and post-mortem inspection tooling.

A typed, sim-clock-stamped protocol event log (:mod:`repro.obs.events`,
:mod:`repro.obs.recorder`) emitted by every protocol layer, carried in a
bounded ring buffer with a zero-cost Null sink, dumped to byte-
deterministic JSONL (:mod:`repro.obs.export`), and interrogated through
merged timelines (:mod:`repro.obs.timeline`), causal explanations
(:mod:`repro.obs.explain`) and the ``repro-inspect`` CLI
(:mod:`repro.obs.cli`).  Event-wheel gauges live in
:mod:`repro.obs.selfprof`.
"""

from repro.obs.explain import diagnose, explain_key, find_violations
from repro.obs.export import (
    export_jsonl,
    jsonl_dumps,
    load_events,
    loads_events,
)
from repro.obs.recorder import (
    DEFAULT_CAPACITY,
    NULL_RECORDER,
    FlightRecorder,
    NullRecorder,
    ProtoEvent,
)
from repro.obs.selfprof import install_wheel_gauges
from repro.obs.timeline import merge_timeline, render_html, render_text

__all__ = [
    "FlightRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "ProtoEvent",
    "DEFAULT_CAPACITY",
    "jsonl_dumps",
    "export_jsonl",
    "loads_events",
    "load_events",
    "merge_timeline",
    "render_text",
    "render_html",
    "explain_key",
    "diagnose",
    "find_violations",
    "install_wheel_gauges",
]
