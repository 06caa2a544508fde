"""Report rendering: summary rows, wall phases, text/JSON output."""

import json

from repro.obs.registry import MetricsRegistry
from repro.obs.report import (
    metrics_rows,
    render_report,
    render_series_report,
    report_doc,
    wall_phase_rows,
)
from repro.obs.series import WindowSeriesRecorder
from repro.obs.tracer import EventTracer


def _populated():
    registry = MetricsRegistry()
    registry.counter("noc/windows").inc(7)
    registry.gauge("noc/backlog").set(3)
    registry.histogram("ml/error").observe(0.2)
    tracer = EventTracer()
    tracer.instant("window_close", "noc", ts=500)
    with tracer.wall_span("sim/measure", "sim"):
        pass
    return registry, tracer


class TestRows:
    def test_one_row_per_instrument(self):
        registry, _ = _populated()
        rows = metrics_rows(registry)
        assert [r["name"] for r in rows] == [
            "ml/error",
            "noc/backlog",
            "noc/windows",
        ]
        by_name = {r["name"]: r for r in rows}
        assert by_name["noc/windows"]["value"] == 7
        assert by_name["noc/backlog"]["peak"] == 3
        assert by_name["ml/error"]["count"] == 1
        assert "p95" in by_name["ml/error"]

    def test_wall_phases_sorted_longest_first(self):
        tracer = EventTracer()
        import time

        with tracer.wall_span("short", "sim"):
            pass
        with tracer.wall_span("long", "sim"):
            time.sleep(0.01)
        rows = wall_phase_rows(tracer)
        assert [r["name"] for r in rows] == ["long", "short"]

    def test_wall_phases_exclude_sim_events(self):
        _, tracer = _populated()
        rows = wall_phase_rows(tracer)
        assert [r["name"] for r in rows] == ["sim/measure"]


class TestDoc:
    def test_keys_and_serialisable(self):
        registry, tracer = _populated()
        doc = report_doc(registry, tracer, {"seed": 1})
        assert set(doc) == {
            "provenance",
            "engines",
            "metrics",
            "wall_phases",
            "trace_events",
            "trace_dropped",
            "trace_dropped_sampling",
            "trace_dropped_overflow",
            "series",
        }
        assert doc["trace_events"] == 2
        assert doc["series"] is None  # nothing recorded
        json.dumps(doc)

    def test_drop_split_and_engines(self):
        registry, tracer = _populated()
        series = WindowSeriesRecorder()
        series.record(
            500,
            0,
            injected=3.0,
            predicted=float("nan"),
            occ_cpu=0.1,
            occ_gpu=0.2,
            ej_cpu=0.0,
            ej_gpu=0.0,
            state_before=64,
            state_target=48,
            laser_power_w=0.871,
            dba_cpu=0.7,
            dba_gpu=0.3,
        )
        doc = report_doc(
            registry,
            tracer,
            series=series,
            engines={"array": 2, "reference": 1},
        )
        assert doc["engines"] == {"array": 2, "reference": 1}
        assert (
            doc["trace_dropped"]
            == doc["trace_dropped_sampling"] + doc["trace_dropped_overflow"]
        )
        assert doc["series"]["rows"] == 1
        assert doc["series"]["routers"] == 1
        json.dumps(doc)


class TestRender:
    def test_sections_present(self):
        registry, tracer = _populated()
        text = render_report(registry, tracer, {"seed": 1})
        assert "# provenance" in text
        assert "seed: 1" in text
        assert "# metrics (3)" in text
        assert "noc/windows" in text
        assert "# wall-clock phases" in text
        assert "sim/measure" in text
        assert "buffered events" in text

    def test_empty_session_renders(self):
        text = render_report(MetricsRegistry(), EventTracer())
        assert "(none)" in text

    def test_engines_and_series_sections(self):
        registry, tracer = _populated()
        series = WindowSeriesRecorder()
        series.record(
            500,
            4,
            injected=2.0,
            predicted=2.5,
            occ_cpu=0.1,
            occ_gpu=0.2,
            ej_cpu=0.0,
            ej_gpu=0.0,
            state_before=64,
            state_target=64,
            laser_power_w=1.16,
            dba_cpu=0.5,
            dba_gpu=0.5,
        )
        text = render_report(
            registry, tracer, series=series, engines={"array": 1}
        )
        assert "# engines" in text
        assert "array: 1 run(s)" in text
        assert "# window series: 1 records over 1 routers" in text
        assert "dropped by sampling" in text

    def test_series_report_renders(self):
        series = WindowSeriesRecorder()
        for cycle, predicted in ((500, 2.5), (1000, 3.5)):
            series.record(
                cycle,
                4,
                injected=3.0,
                predicted=predicted,
                occ_cpu=0.1,
                occ_gpu=0.2,
                ej_cpu=0.0,
                ej_gpu=0.0,
                state_before=64,
                state_target=48,
                laser_power_w=0.871,
                dba_cpu=0.7,
                dba_gpu=0.3,
            )
        from repro.obs.series import series_summary

        doc = series_summary(series.arrays())
        text = render_series_report(doc)
        assert "# per-router" in text
        assert "# prediction error" in text
        assert "# laser duty" in text
        assert "cycles: 500 .. 1000" in text
