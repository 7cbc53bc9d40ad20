"""Streaming protocol-health telemetry.

The subsystem the paper's evaluation needs but the tracer alone cannot
provide: *distributions over time* of the quantities Sections 5 and 7
argue about — end-to-end latency, path stretch versus the optimal
route, handoff blackout duration, registration latency, and
loop-dissolution time — recorded live while a simulation runs, at
~zero cost when disabled.

Three layers:

- :mod:`repro.telemetry.instruments` — counter / gauge / log-bucketed
  histogram / windowed time-series primitives;
- :mod:`repro.telemetry.journeys` — the journey index (a flight
  recorder that folds the recorded trace into :class:`Journey` objects
  when it is read, with completed-journey eviction bounding memory);
- :mod:`repro.telemetry.health` — the :class:`ProtocolHealth` hub that
  feeds the instruments from two channels: direct dataplane/agent
  hooks (``sim.telemetry``, ``None`` by default so the per-packet cost
  of the disabled state is one attribute load) and a
  ``Tracer.subscribe`` listener for the MHRP control-plane events.

Exporters (:mod:`repro.telemetry.exporters`) turn either channel into
a JSONL timeline or a Chrome trace-event / Perfetto file where every
packet uid is a track; ``python -m repro health`` and ``python -m
repro trace`` are the CLI surfaces.
"""

from repro.telemetry.exporters import (
    chrome_trace,
    export_chrome_trace,
    export_jsonl,
    timeline_records,
)
from repro.telemetry.health import ProtocolHealth, merge_health_summaries
from repro.telemetry.instruments import Counter, Gauge, Histogram, TimeSeries
from repro.telemetry.journeys import Journey, JourneyIndex, JourneyStep

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Journey",
    "JourneyIndex",
    "JourneyStep",
    "ProtocolHealth",
    "TimeSeries",
    "chrome_trace",
    "export_chrome_trace",
    "export_jsonl",
    "merge_health_summaries",
    "timeline_records",
]
