"""Tests for the ``repro.observe`` layer: tracing spans, the metrics
registry, and cost-model calibration.

Covers span nesting/parenting, the disabled-mode no-op contract (one
shared handle, no recording), exporter round-trips (JSON, Chrome
trace_event, Prometheus text), worker-span collection through the fork
pool's result channel, Spearman edge cases, and the typed
``ExecutionResult.metrics`` view the redesign introduced.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import observe
from repro.baselines import reference
from repro.exceptions import ReproError
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.graph.generators import erdos_renyi
from repro.observe import metrics as metrics_mod
from repro.observe import trace as trace_mod
from repro.observe.calibration import (
    CalibrationRecorder,
    active_recorder,
    calibrate,
    calibrating,
    spearman,
)
from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observe.trace import (
    NOOP_SPAN,
    Trace,
    begin_worker_trace,
    graft_worker_spans,
    span,
    take_worker_spans,
)
from repro.patterns import catalog
from repro.runtime.engine import (
    EngineOptions,
    ExecutionMetrics,
    ExecutionResult,
    execute_plan,
)
from repro.runtime.supervisor import RunPolicy


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    observe.disable()
    yield
    observe.disable()


@pytest.fixture(scope="module")
def case():
    graph = erdos_renyi(16, 0.35, seed=3)
    profile = profile_graph(graph, max_pattern_size=3, trials=60)
    plan = compile_pattern(catalog.house(), profile)
    expected = reference.count_embeddings(graph, catalog.house())
    return graph, plan, expected


# ----------------------------------------------------------------------
# Spans and traces
# ----------------------------------------------------------------------

class TestSpans:
    def test_disabled_is_shared_noop(self):
        assert not observe.enabled()
        handle = span("anything", k=1)
        assert handle is NOOP_SPAN
        assert span("other") is NOOP_SPAN  # same object, no allocation
        with handle as inner:
            inner.set(ignored=True)  # all no-ops
        assert observe.current_trace() is None

    def test_enable_disable_lifecycle(self):
        trace = observe.enable("t")
        assert observe.enabled()
        assert observe.current_trace() is trace
        assert observe.disable() is trace
        assert not observe.enabled()
        assert observe.disable() is None  # idempotent

    def test_nesting_and_parenting(self):
        observe.enable()
        with span("outer", stage=1):
            with span("inner"):
                pass
            with span("inner"):
                pass
        trace = observe.disable()
        outer = trace.find("outer")
        inner = trace.find("inner")
        assert len(outer) == 1 and len(inner) == 2
        assert outer[0].parent is None
        assert all(child.parent == outer[0].sid for child in inner)
        assert trace.children(outer[0]) == inner
        assert outer[0].attrs == {"stage": 1}
        # Parent's window covers both children.
        assert outer[0].duration >= trace.total("inner") >= 0.0

    def test_set_attaches_attributes(self):
        observe.enable()
        with span("pass:cse") as handle:
            handle.set(unified=3)
        trace = observe.disable()
        assert trace.find("pass:cse")[0].attrs == {"unified": 3}

    def test_exception_unwind_closes_children(self):
        observe.enable()
        with pytest.raises(RuntimeError):
            with span("outer"):
                span("leaked").__enter__()  # never exited
                raise RuntimeError("boom")
        trace = observe.disable()
        leaked = trace.find("leaked")[0]
        outer = trace.find("outer")[0]
        assert leaked.end == outer.end  # closed by the unwind
        assert leaked.duration >= 0.0

    def test_disable_closes_open_spans(self):
        observe.enable()
        span("open").__enter__()
        trace = observe.disable()
        assert trace.find("open")[0].duration >= 0.0


class TestTraceExport:
    def _sample_trace(self) -> Trace:
        observe.enable("sample")
        with span("execute", workers=2):
            with span("chunk", index=0, worker_pid=4242):
                pass
        return observe.disable()

    def test_json_round_trip(self):
        trace = self._sample_trace()
        clone = Trace.from_json(trace.to_json())
        assert clone.name == trace.name
        assert [s.to_dict() for s in clone.spans] == \
            [s.to_dict() for s in trace.spans]
        assert clone.total("chunk") == pytest.approx(trace.total("chunk"))

    def test_chrome_events(self):
        trace = self._sample_trace()
        events = trace.to_chrome()
        assert [e["name"] for e in events] == ["execute", "chunk"]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
            assert event["ts"] >= 0.0
        execute, chunk = events
        assert execute["tid"] == trace.pid  # no worker_pid attr
        assert chunk["tid"] == 4242  # thread lane = worker pid
        assert chunk["args"]["index"] == 0

    def test_write_files(self, tmp_path):
        trace = self._sample_trace()
        jpath = tmp_path / "t.json"
        cpath = tmp_path / "t.chrome.json"
        trace.write_json(jpath)
        trace.write_chrome(cpath)
        assert Trace.from_json(jpath.read_text()).find("chunk")
        chrome = json.loads(cpath.read_text())
        assert chrome["traceEvents"][0]["ph"] == "X"


class TestWorkerSpans:
    def test_worker_round_trip_grafts_under_open_span(self):
        # Simulate the pool-worker protocol in-process: the "worker" swaps
        # in a fresh trace, records, exports; the parent adopts.
        observe.enable("parent")
        parent_trace = observe.current_trace()
        with span("execute"):
            worker = begin_worker_trace("chunk-0")
            assert observe.current_trace() is worker
            trace_mod._TRACE = worker  # what the fork does implicitly
            with span("chunk", index=0):
                pass
            records = take_worker_spans(worker)
            assert records and records[0]["name"] == "chunk"
            # Restore the parent's live trace (fork isolation normally
            # guarantees this) and graft.
            trace_mod._TRACE = parent_trace
            graft_worker_spans(records)
        trace = observe.disable()
        chunk = trace.find("chunk")[0]
        execute = trace.find("execute")[0]
        assert chunk.parent == execute.sid  # re-parented under open span
        assert chunk.duration >= 0.0
        assert chunk.end <= execute.end + 1e-9

    def test_disabled_worker_protocol_is_noop(self):
        assert begin_worker_trace() is None
        assert take_worker_spans(None) == []
        graft_worker_spans([])  # no live trace: must not raise
        graft_worker_spans([{"sid": 0, "name": "x", "start": 0.0,
                             "end": 1.0, "parent": None}])

    def test_adopt_remaps_sids_against_collisions(self):
        trace = Trace("t")
        with span("native"):
            pass  # disabled: no-op; record directly instead
        first = trace.begin("native")
        trace.finish(first)
        trace.adopt(
            [
                {"sid": 0, "name": "w", "start": 0.0, "end": 0.5,
                 "parent": None},
                {"sid": 1, "name": "w-child", "start": 0.1, "end": 0.2,
                 "parent": 0},
            ],
            base=10.0,
        )
        sids = [entry.sid for entry in trace.spans]
        assert len(sids) == len(set(sids))  # remapped, no collision
        adopted_parent = trace.find("w")[0]
        child = trace.find("w-child")[0]
        assert child.parent == adopted_parent.sid
        assert adopted_parent.start == pytest.approx(10.0)
        assert adopted_parent.duration == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Engine integration: spans from a real supervised parallel run
# ----------------------------------------------------------------------

class TestEngineTracing:
    def test_supervised_parallel_run_collects_chunk_spans(self, case):
        graph, plan, expected = case
        observe.enable("parallel")
        result = execute_plan(
            plan, graph, options=EngineOptions(workers=2),
            policy=RunPolicy(supervised=True),
        )
        trace = observe.disable()
        assert result.embedding_count == expected
        chunks = trace.find("chunk")
        assert len(chunks) == len(result.chunk_seconds)
        # Worker spans travel back through the result channel and carry
        # the chunk's real measurement window: their summed duration
        # matches the engine's own chunk_seconds within 10%.
        span_total = trace.total("chunk")
        chunk_total = sum(result.chunk_seconds)
        assert abs(span_total - chunk_total) <= 0.10 * max(chunk_total, 1e-9)
        execute = trace.find("execute")
        assert len(execute) == 1
        assert execute[0].attrs["workers"] == 2

    def test_serial_run_spans(self, case):
        graph, plan, expected = case
        observe.enable("serial")
        result = execute_plan(plan, graph, options=EngineOptions(workers=1))
        trace = observe.disable()
        assert result.embedding_count == expected
        assert len(trace.find("chunk")) == 1
        assert trace.find("execute")

    def test_tracing_does_not_change_counts(self, case):
        graph, plan, expected = case
        plain = execute_plan(plan, graph, options=EngineOptions(workers=1))
        observe.enable()
        traced = execute_plan(plan, graph, options=EngineOptions(workers=1))
        observe.disable()
        assert plain.raw_count == traced.raw_count


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)
        with pytest.raises(ValueError):
            c.inc(-1)
        assert reg.counter("repro_x_total") is c  # get-or-create

    def test_gauge(self):
        g = MetricsRegistry().gauge("repro_depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == pytest.approx(4.0)

    def test_histogram_buckets(self):
        h = Histogram("repro_t_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 5
        assert h.sum == pytest.approx(56.05)
        assert h.cumulative() == [1, 3, 4]  # 50.0 overflows all buckets
        with pytest.raises(ValueError):
            Histogram("repro_empty", buckets=())

    def test_name_validation_and_type_conflicts(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        reg.counter("repro_thing_total")
        with pytest.raises(ReproError, match="counter.*gauge"):
            reg.gauge("repro_thing_total")

    def test_histogram_bucket_conflict(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_t_seconds", buckets=(0.1, 1.0))
        # Same buckets (any order) -> get-or-create returns the original.
        assert reg.histogram("repro_t_seconds", buckets=(1.0, 0.1)) is h
        with pytest.raises(ReproError, match="buckets"):
            reg.histogram("repro_t_seconds", buckets=(0.5, 5.0))

    def test_zero_sample_histogram_exports(self):
        """A never-observed histogram must export cleanly: no NaN mean,
        no division by an empty count, all-zero bucket lines."""
        reg = MetricsRegistry()
        h = reg.histogram("repro_idle_seconds", buckets=(0.1, 1.0))
        assert h.mean == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["sum"] == 0.0
        assert snap["mean"] == 0.0
        assert all(cum == 0 for cum in snap["buckets"].values())
        text = reg.to_prometheus()
        assert 'repro_idle_seconds_bucket{le="0.1"} 0' in text
        assert 'repro_idle_seconds_bucket{le="+Inf"} 0' in text
        assert "repro_idle_seconds_sum 0" in text
        assert "repro_idle_seconds_count 0" in text
        assert "nan" not in text.lower()
        assert "nan" not in reg.to_json().lower()

    def test_snapshot_mid_run_is_consistent(self):
        """Snapshotting between observations sees a self-consistent view
        (count == sum of +Inf bucket, mean matches sum/count)."""
        reg = MetricsRegistry()
        h = reg.histogram("repro_mid_seconds", buckets=(1.0,))
        snapshots = []
        for value in (0.5, 2.0, 0.25):
            h.observe(value)
            snapshots.append(reg.snapshot()["repro_mid_seconds"])
        for i, snap in enumerate(snapshots, start=1):
            assert snap["count"] == i
            assert snap["mean"] == pytest.approx(snap["sum"] / i)
        assert snapshots[-1]["buckets"]["1"] == 2  # 0.5 and 0.25

    def test_snapshot_and_json(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total").inc(2)
        reg.histogram("repro_b_seconds", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["repro_a_total"] == {"type": "counter", "value": 2.0}
        assert snap["repro_b_seconds"]["count"] == 1
        assert json.loads(reg.to_json()) == json.loads(reg.to_json())
        reg.reset()
        assert reg.snapshot() == {}

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", "runs").inc(3)
        reg.histogram("repro_s_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = reg.to_prometheus()
        assert "# HELP repro_runs_total runs" in text
        assert "# TYPE repro_runs_total counter" in text
        assert "repro_runs_total 3" in text
        assert 'repro_s_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_s_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_s_seconds_count 1" in text
        assert text.endswith("\n")

    def test_module_level_registry_helpers(self):
        name = "repro_test_module_total"
        try:
            c = metrics_mod.counter(name)
            assert observe.REGISTRY.get(name) is c
        finally:
            observe.REGISTRY.reset()

    def test_engine_publishes_run_metrics(self, case):
        graph, plan, expected = case
        observe.REGISTRY.reset()
        try:
            result = execute_plan(plan, graph,
                                  options=EngineOptions(workers=1))
            assert result.embedding_count == expected
            snap = observe.REGISTRY.snapshot()
            assert snap["repro_executions_total"]["value"] >= 1
            assert snap["repro_chunk_seconds"]["count"] == \
                len(result.chunk_seconds)
            assert snap["repro_execution_seconds"]["count"] >= 1
            kernel_names = [n for n in snap if n.startswith("repro_setops_")]
            assert kernel_names  # kernel picks made it into the registry
        finally:
            observe.REGISTRY.reset()


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------

class TestCalibration:
    def test_spearman_perfect_and_inverted(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
        # Rank correlation ignores monotone distortion.
        assert spearman([1, 2, 3, 4], [1, 100, 10_000, 10**6]) == \
            pytest.approx(1.0)

    def test_spearman_ties_and_degenerate(self):
        rho = spearman([1, 1, 2, 2], [1, 2, 3, 4])
        assert -1.0 < rho < 1.0
        assert math.isnan(spearman([1], [1]))
        assert math.isnan(spearman([2, 2, 2], [1, 2, 3]))
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])

    def test_recorder_report(self):
        rec = CalibrationRecorder()
        for i, seconds in enumerate([0.1, 0.2, 0.4, 0.8]):
            rec.record(pattern="p", plan=f"plan-{i}", seconds=seconds,
                       estimates={"good": float(i), "bad": float(-i)})
        report = rec.report()
        assert report.num_records == 4
        assert report.spearman["good"] == pytest.approx(1.0)
        assert report.spearman["bad"] == pytest.approx(-1.0)
        payload = json.loads(report.to_json())
        assert payload["num_records"] == 4
        assert len(payload["records"]) == 4
        assert "spearman[good] = +1.000" in report.render()

    def test_report_nan_serializes_as_null(self):
        rec = CalibrationRecorder()
        rec.record(pattern="p", plan="only", seconds=1.0,
                   estimates={"m": 1.0})
        payload = json.loads(rec.report().to_json(include_records=False))
        assert payload["spearman"]["m"] is None
        assert "records" not in payload
        assert "n/a" in rec.report().render()

    def test_calibrate_lifecycle(self):
        assert not calibrating()
        rec = calibrate()
        try:
            assert calibrating()
            assert active_recorder() is rec
        finally:
            detached = calibrate(False)
        assert detached is rec
        assert not calibrating()
        assert active_recorder() is None

    def test_session_records_when_calibrating(self, case):
        graph, _, expected = case
        from repro.api.session import DecoMine

        session = DecoMine(graph, engine=EngineOptions(workers=1))
        rec = calibrate()
        try:
            assert session.get_pattern_count(catalog.house()) == expected
        finally:
            calibrate(False)
        report = rec.report()
        assert report.num_records == 1
        record = report.records[0]
        assert set(record.estimates) == {"automine", "locality",
                                         "approx_mining"}
        assert record.seconds > 0.0
        assert record.selected_model


# ----------------------------------------------------------------------
# Typed result metrics view
# ----------------------------------------------------------------------

class TestExecutionMetricsView:
    def test_metrics_view_is_read_only(self):
        result = ExecutionResult({"acc_count": 12}, 0.5, 2,
                                 kernel_stats={"cache_hits": 3,
                                               "cache_misses": 1},
                                 retries=2)
        assert isinstance(result.metrics, ExecutionMetrics)
        assert result.metrics.cache_hit_rate == pytest.approx(0.75)
        assert result.metrics.retries == 2
        with pytest.raises(Exception):
            result.metrics.retries = 5  # frozen dataclass
        with pytest.raises(TypeError):
            result.metrics.kernel_stats["cache_hits"] = 99  # mappingproxy
        as_dict = result.metrics.as_dict()
        assert as_dict["kernel_stats"] == {"cache_hits": 3,
                                           "cache_misses": 1}
        assert as_dict["retries"] == 2

    def test_repr_mentions_ok_and_supervision(self):
        clean = ExecutionResult({"acc_count": 6}, 0.1, 6)
        text = repr(clean)
        assert "ok=True" in text and "raw_count=6" in text
        assert "retries" not in text  # supervision tail omitted when clean
        retried = ExecutionResult({"acc_count": 6}, 0.1, 6, retries=2,
                                  pool_restarts=1)
        assert "retries=2" in repr(retried)
        assert "pool_restarts=1" in repr(retried)

    def test_describe_contents(self, case):
        graph, plan, expected = case
        result = execute_plan(plan, graph, options=EngineOptions(workers=1))
        text = result.describe()
        assert text.startswith("ok:")
        assert "supervision: 0 retries, 0 failed chunk(s)" in text
        assert "kernels:" in text
        assert result.embedding_count == expected
