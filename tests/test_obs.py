"""The observability spine: span taxonomy, metrics, export, rendering.

The load-bearing invariant (docs/observability.md): every FlowRunner run
emits exactly one ``flow`` root containing exactly the five phase spans
— ``frontend``, ``vectorize``, ``encode``, ``jit``, ``vm`` — with cache
hits and inapplicable stages recorded as span *attributes*, never as
missing spans.
"""

import json
import threading

import pytest

from repro import obs
from repro.harness import FlowRunner
from repro.kernels import get_kernel
from repro.obs import PHASES, TraceFormatError, load_trace, phase_rollup, render_trace
from repro.obs.trace import NULL_SPAN
from repro.service import KernelService, ServiceRequest


@pytest.fixture()
def inst():
    return get_kernel("saxpy_fp").instantiate(32)


def _phase_spans(spans):
    return [s for s in spans if s.phase in PHASES]


# -- disabled mode ------------------------------------------------------------


def test_disabled_by_default(inst):
    assert not obs.enabled()
    assert obs.span("vm", phase="vm") is NULL_SPAN
    # Guarded helpers are no-ops, not errors.
    obs.count("vm.runs")
    obs.observe("jit.compile_seconds", 0.1)
    obs.gauge("cache.bytes", 1)
    FlowRunner().run(inst, "split_vec_gcc4cli", "sse")
    assert obs.active_tracer() is None and obs.metrics() is None


def test_null_span_is_inert():
    with obs.span("anything") as sp:
        assert sp is NULL_SPAN
        assert sp.set(x=1) is sp


# -- the five-span invariant --------------------------------------------------


def test_flow_run_emits_exactly_five_phase_spans(inst):
    with obs.recording() as ob:
        FlowRunner().run(inst, "split_vec_gcc4cli", "sse")
    spans = ob.spans()
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1 and roots[0].name == "flow"
    phases = _phase_spans(spans)
    assert sorted(s.phase for s in phases) == sorted(PHASES)
    for s in phases:
        assert s.parent_id == roots[0].span_id
        assert s.trace_id == roots[0].trace_id
        assert s.dur_s is not None and s.dur_s >= 0.0
    assert roots[0].attrs["checked"] is True
    assert roots[0].attrs["cycles"] > 0


def test_cached_rerun_still_emits_all_five(inst):
    runner = FlowRunner()
    with obs.recording() as ob:
        runner.run(inst, "split_vec_gcc4cli", "sse")
        runner.run(inst, "split_vec_gcc4cli", "sse")
    spans = ob.spans()
    assert len([s for s in spans if s.name == "flow"]) == 2
    phases = _phase_spans(spans)
    assert len(phases) == 10  # five per run, cached or not
    second = phases[5:]
    # The warm run shows up as cached=True attributes, not missing spans.
    assert any(s.attrs.get("cached") for s in second)


def test_scalar_flow_marks_inapplicable_stages_skipped(inst):
    with obs.recording() as ob:
        FlowRunner().run(inst, "split_scalar_mono", "scalar")
    by_phase = {s.phase: s for s in _phase_spans(ob.spans())}
    assert sorted(by_phase) == sorted(PHASES)
    assert by_phase["vectorize"].attrs.get("skipped") is True
    assert by_phase["encode"].attrs.get("skipped") is True


def test_span_records_error_attr():
    with obs.recording() as ob:
        with pytest.raises(ValueError):
            with obs.span("jit", phase="jit"):
                raise ValueError("boom")
    (sp,) = ob.spans()
    assert sp.attrs["error"] == "ValueError"
    assert sp.dur_s is not None and sp.dur_s >= 0.0


def test_contextvar_parenthood_is_thread_local():
    with obs.recording() as ob:
        def worker():
            with obs.span("child", phase="vm"):
                pass

        with obs.span("root", phase="flow"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
    spans = {s.name: s for s in ob.spans()}
    # The worker thread's span must NOT inherit the main thread's root.
    assert spans["child"].parent_id is None


# -- JSONL export + rendering -------------------------------------------------


def test_jsonl_roundtrip_and_rollup(inst, tmp_path):
    with obs.recording() as ob:
        FlowRunner().run(inst, "split_vec_gcc4cli", "sse")
    path = tmp_path / "t.jsonl"
    ob.write_trace(str(path))
    lines = path.read_text().splitlines()
    records = load_trace(lines)
    assert len(records) == len(ob.spans())
    for rec in records:
        json.dumps(rec)  # every record is plain JSON data
    rollup = phase_rollup(records)
    assert set(PHASES) <= set(rollup["phases"])
    assert all(rollup["phases"][p]["spans"] == 1 for p in PHASES)
    assert rollup["vm_cycles"] > 0
    text = render_trace(records)
    for phase in PHASES:
        assert f"[{phase}]" in text
    assert "phase rollup" in text and "cycle(s)" in text


def test_load_trace_rejects_garbage():
    with pytest.raises(TraceFormatError, match="line 2"):
        load_trace(['{"span_id": 1, "name": "a", "phase": "", '
                    '"parent_id": null, "dur_s": 0.0, "attrs": {}}',
                    "not json"])


# -- metrics ------------------------------------------------------------------


def test_metrics_feed_from_flow_run(inst):
    with obs.recording() as ob:
        FlowRunner().run(inst, "split_vec_gcc4cli", "sse")
    snap = ob.metrics_snapshot()
    assert snap["jit.compiles"]["value"] == 1
    assert snap["jit.loops_vectorized"]["value"] >= 1
    assert snap["vm.runs"]["value"] == 1
    assert snap["vm.cycles"]["value"] > 0
    hist = snap["jit.compile_seconds"]
    assert hist["kind"] == "histogram" and hist["count"] == 1
    assert sum(hist["counts"]) == 1


def test_metric_kind_mismatch_is_type_error():
    reg = obs.MetricsRegistry()
    reg.counter("x").inc()
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_histogram_buckets_are_mergeable():
    h = obs.Histogram("h", bounds=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        h.observe(v)
    snap = h.to_dict()
    assert snap["counts"] == [1, 1, 1]
    assert snap["count"] == 3 and snap["min"] == 0.5 and snap["max"] == 50.0


# -- service request spans ----------------------------------------------------


def test_service_request_span_links_response(inst, tmp_path):
    with obs.recording() as ob:
        with KernelService(cache_dir=str(tmp_path / "c")) as svc:
            r1 = svc.handle(ServiceRequest("saxpy_fp", size=32))
            r2 = svc.handle(ServiceRequest("saxpy_fp", size=32))
    spans = ob.spans()
    requests = [s for s in spans if s.name == "service.request"]
    assert [s.span_id for s in requests] == [r1.span_id, r2.span_id]
    assert all(s.phase == "service" for s in requests)
    assert requests[0].attrs["status"] == "ok"
    assert requests[1].attrs["from_cache"] is True
    # jit/vm children nest under their request span.
    for req in requests:
        kids = [s for s in spans if s.parent_id == req.span_id]
        assert {k.phase for k in kids} == {"jit", "vm"}
    # The warm request's jit span records the cache hit.
    warm_jit = [s for s in spans
                if s.parent_id == r2.span_id and s.phase == "jit"]
    assert warm_jit[0].attrs.get("cached") is True


def test_submitted_request_span_nests_under_the_submitters_span():
    """``submit`` runs the request in a copy of the caller's context, so
    its span tree hangs off the span open at submission, not off
    whatever a worker thread last held."""
    with obs.recording() as ob:
        with KernelService() as svc:
            with obs.span("caller", phase="service") as caller:
                resp = svc.submit(ServiceRequest("saxpy_fp", size=32))
                resp = resp.result()
            bare = svc.submit(ServiceRequest("saxpy_fp", size=32)).result()
    spans = {s.span_id: s for s in ob.spans()}
    assert spans[resp.span_id].parent_id == caller.span_id
    assert spans[bare.span_id].parent_id is None


def test_service_rejection_span_carries_events():
    with obs.recording() as ob:
        with KernelService() as svc:
            resp = svc.handle(ServiceRequest("saxpy_fp", flow="nope"))
    assert resp.status == "rejected"
    (req,) = [s for s in ob.spans() if s.name == "service.request"]
    assert req.attrs["status"] == "rejected"
    assert "bad-request" in req.attrs["events"]
    assert resp.span_id == req.span_id


def test_service_metrics(inst, tmp_path):
    with obs.recording() as ob:
        with KernelService(cache_dir=str(tmp_path / "c")) as svc:
            svc.handle(ServiceRequest("saxpy_fp", size=32))
            svc.handle(ServiceRequest("saxpy_fp", size=32))
    snap = ob.metrics_snapshot()
    assert snap["service.requests"]["value"] == 2
    assert snap["service.ok"]["value"] == 2
    assert snap["admission.admitted"]["value"] == 2
    assert snap["cache.misses"]["value"] >= 1
    assert snap["cache.hits"]["value"] >= 1
    assert snap["cache.bytes"]["kind"] == "gauge"


# -- install/uninstall discipline --------------------------------------------


def test_recording_restores_previous_state():
    outer = obs.TraceRecorder()
    prev = obs.install_tracer(outer)
    try:
        with obs.recording() as ob:
            with obs.span("inner", phase="vm"):
                pass
        assert obs.active_tracer() is outer
        assert [s.name for s in ob.spans()] == ["inner"]
        assert outer.spans == []  # inner recording did not leak outward
    finally:
        obs.install_tracer(prev)
    assert not obs.enabled()


def test_recording_trace_only():
    with obs.recording(metrics=False) as ob:
        obs.count("vm.runs")
        with obs.span("x", phase="vm"):
            pass
    assert ob.metrics is None
    assert ob.metrics_snapshot() == {}
    assert len(ob.spans()) == 1
