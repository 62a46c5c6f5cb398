"""The service's concurrency model (docs/service.md §7).

Proves the three de-serialization properties of the hot path:

* **single-flight** — N concurrent identical cold misses perform exactly
  one JIT compile; followers share the leader's ``CompiledKernel`` (and
  its failure), are marked ``coalesced``, and honour their own deadline
  while waiting;
* **scoped locking** — distinct (kernel, flow, target) shapes compile
  *genuinely in parallel* (a barrier inside the compiler proves no
  global lock serializes them — under the old one-RLock design this
  test deadlocks);
* **hammer invariants** — under a seeded mixed-shape thread hammer:
  response order is stable, every unique key compiles exactly once
  (one non-cached, non-coalesced ``jit`` span and one cache ``put``
  per key), and admission depth never exceeds the limit.

Every test gates on explicit events/polling, never bare sleeps, so the
suite is deterministic on slow CI runners.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro import obs
from repro.harness import flows as flows_mod
from repro.jit import OptimizingJIT
from repro.service import KernelService, ServiceRequest
from repro.service.singleflight import Flight, SingleFlight

SIZE = 16
FLOW = "split_vec_gcc4cli"


def _req(kernel="saxpy_fp", flow=FLOW, target="sse", **kw):
    return ServiceRequest(kernel, flow=flow, target=target, size=SIZE, **kw)


def _poll(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:  # pragma: no cover - CI guard
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.005)


class _Patched:
    """Temporarily swap the online compiler of one flow (restored in
    ``__exit__``), so tests can gate or instrument real compiles."""

    def __init__(self, flow: str, jit_cls):
        self.flow = flow
        self.jit_cls = jit_cls

    def __enter__(self):
        self.saved = flows_mod.FLOWS[self.flow]
        flows_mod.FLOWS[self.flow] = (self.saved[0], self.jit_cls)
        return self

    def __exit__(self, *exc):
        flows_mod.FLOWS[self.flow] = self.saved
        return False


def _gated_jit():
    """An OptimizingJIT whose compile blocks on a test-controlled gate."""

    class GatedJIT(OptimizingJIT):
        name = OptimizingJIT.name  # same cache identity
        gate = threading.Event()
        calls: list = []
        _calls_lock = threading.Lock()

        def compile(self, ir, target, **kw):
            with GatedJIT._calls_lock:
                GatedJIT.calls.append(threading.get_ident())
            assert GatedJIT.gate.wait(20), "test gate never opened"
            return super().compile(ir, target, **kw)

    return GatedJIT


# -- SingleFlight primitives --------------------------------------------------


def test_singleflight_leader_then_fresh_flight():
    sf = SingleFlight()
    flight, leader = sf.begin("k")
    assert leader
    flight.resolve(42)
    sf.end("k", flight)
    # Retired: the next request for the same key is a fresh leader.
    flight2, leader2 = sf.begin("k")
    assert leader2 and flight2 is not flight
    sf.end("k", flight2)
    assert sf.inflight() == 0
    assert sf.stats()["leaders"] == 2


def test_singleflight_follower_shares_value_and_failure():
    sf = SingleFlight()
    flight, leader = sf.begin("k")
    _fl2, leader2 = sf.begin("k")
    assert leader and not leader2 and _fl2 is flight
    flight.resolve("artifact")
    assert flight.wait(1) and flight.outcome() == "artifact"

    fail, _ = sf.begin("boom")
    boom = ValueError("compile exploded")
    fail.reject(boom)
    sf.end("boom", fail)
    with pytest.raises(ValueError):
        fail.outcome()
    assert sf.stats()["followers"] == 1


def test_singleflight_stale_end_never_removes_newer_flight():
    sf = SingleFlight()
    old, _ = sf.begin("k")
    old.resolve(1)
    sf.end("k", old)
    new, leader = sf.begin("k")
    assert leader
    sf.end("k", old)  # stale double-end: must be a no-op
    assert sf.inflight() == 1
    sf.end("k", new)
    assert sf.inflight() == 0


def test_flight_wait_timeout():
    f = Flight()
    assert not f.wait(0.01)
    f.resolve(1)
    assert f.wait(0.01) and f.outcome() == 1


def test_flight_outcome_raises_a_per_follower_copy():
    """Concurrent re-raises must not share one exception object: every
    ``raise`` rewrites ``__traceback__``, so N followers re-raising the
    leader's exception race on (and corrupt) each other's tracebacks.
    Each follower gets its own copy, chained to the original."""
    from repro.service.admission import OverloadError

    f = Flight()
    original = OverloadError(7, 4)  # custom __init__: args != (depth, limit)
    try:
        raise original
    except OverloadError as exc:
        f.reject(exc)
    leader_tb = original.__traceback__

    caught = []
    errors = []

    def follower():
        try:
            f.outcome()
        except OverloadError as exc:
            caught.append(exc)
        except Exception as exc:  # noqa: BLE001 - test census
            errors.append(exc)

    threads = [threading.Thread(target=follower) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    assert len(caught) == 8
    # Distinct objects per follower, none of them the shared original.
    assert len({id(e) for e in caught}) == 8
    assert all(e is not original for e in caught)
    # Class, args, and custom attributes survive the copy; the chain
    # points back at the leader's exception.
    for e in caught:
        assert type(e) is OverloadError
        assert e.args == original.args
        assert (e.depth, e.limit) == (7, 4)
        assert e.__cause__ is original
    # The leader's traceback was never clobbered by a follower re-raise.
    assert original.__traceback__ is leader_tb


# -- single-flight through the service ----------------------------------------


def test_identical_cold_requests_compile_exactly_once_no_cache():
    """8 concurrent identical misses, no persistent cache: one leader
    compiles, 7 followers coalesce.  The gate holds the leader's compile
    open until every follower has joined, so the coalescing is
    deterministic, not a race."""
    GatedJIT = _gated_jit()
    svc = KernelService(cache_dir=None, workers=8, queue_limit=64)
    try:
        with _Patched(FLOW, GatedJIT):
            futures = [svc.submit(_req()) for _ in range(8)]
            _poll(
                lambda: svc._singleflight.stats()["followers"] >= 7,
                what="7 followers to join the flight",
            )
            GatedJIT.gate.set()
            responses = [f.result(timeout=30) for f in futures]
    finally:
        svc.close()

    assert len(GatedJIT.calls) == 1, "single-flight must do ONE compile"
    assert all(r.status == "ok" for r in responses)
    assert sum(r.coalesced for r in responses) == 7
    assert sum(not r.coalesced for r in responses) == 1
    # Followers share the leader's artifact: byte-identical results.
    cycles = {r.result.cycles for r in responses}
    values = {r.result.value for r in responses}
    assert len(cycles) == 1 and len(values) == 1
    sf = svc.stats()["singleflight"]
    assert sf["leaders"] == 1 and sf["followers"] == 7
    assert sf["inflight"] == 0


def test_identical_cold_requests_one_jit_compile_with_cache(tmp_path):
    """The acceptance shape: 8 concurrent identical cold requests against
    a cache-backed service perform exactly one JIT compile, whatever the
    interleaving (coalesced followers or warm hits for stragglers)."""
    with obs.recording(trace=True, metrics=True) as ob:
        svc = KernelService(cache_dir=str(tmp_path / "c"), workers=8,
                            queue_limit=64)
        try:
            responses = svc.serve([_req() for _ in range(8)])
        finally:
            svc.close()
    assert all(r.status == "ok" for r in responses)
    compiles = ob.metrics_snapshot()["jit.compiles"]["value"]
    assert compiles == 1, f"expected exactly 1 compile, saw {compiles}"
    # And exactly one non-cached, non-coalesced jit span.
    real = [
        s for s in ob.spans()
        if s.name == "jit" and not s.attrs.get("cached")
        and not s.attrs.get("coalesced")
    ]
    assert len(real) == 1
    assert svc.stats()["cache"]["entries"] == 1


def test_follower_deadline_honoured_while_waiting():
    """A follower blocked on a leader's compile still dies of ITS OWN
    deadline (classified DeadlineError, no breaker charge), instead of
    waiting unboundedly."""
    GatedJIT = _gated_jit()
    svc = KernelService(cache_dir=None, workers=4, queue_limit=64,
                        retries=0)
    try:
        with _Patched(FLOW, GatedJIT):
            leader_fut = svc.submit(_req())
            _poll(
                lambda: svc._singleflight.stats()["leaders"] >= 1,
                what="the leader to start compiling",
            )
            follower = svc.submit(_req(deadline_s=0.05)).result(timeout=30)
            assert follower.status == "rejected"
            assert follower.error == "DeadlineError"
            GatedJIT.gate.set()
            leader = leader_fut.result(timeout=30)
    finally:
        svc.close()
    assert leader.status == "ok"
    assert svc.stats()["deadline_misses"] == 1
    # Expiry-while-coalesced never judged the target.
    assert svc.health()["breakers"].get("sse", "closed") == "closed"


def test_distinct_kernels_compile_in_parallel():
    """Scoped locking: four distinct keys must be INSIDE the JIT at the
    same time.  A barrier inside the compiler proves it — under the old
    global-RLock design the first compile holds the lock, the barrier
    never fills, and this test times out."""
    kernels = ["saxpy_fp", "dscal_fp", "interp_fp", "sfir_fp"]
    barrier = threading.Barrier(len(kernels), timeout=20)
    outcome: dict = {"broken": False}

    class BarrierJIT(OptimizingJIT):
        name = OptimizingJIT.name

        def compile(self, ir, target, **kw):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:  # pragma: no cover
                outcome["broken"] = True
                raise
            return super().compile(ir, target, **kw)

    svc = KernelService(cache_dir=None, workers=len(kernels),
                        queue_limit=64)
    try:
        with _Patched(FLOW, BarrierJIT):
            responses = svc.serve([_req(k) for k in kernels])
    finally:
        svc.close()
    assert not outcome["broken"], (
        "compiles serialized: a global lock kept the barrier from filling"
    )
    assert all(r.status == "ok" for r in responses)
    assert svc.stats()["singleflight"]["leaders"] == len(kernels)


# -- the seeded thread hammer --------------------------------------------------


HAMMER_KERNELS = ("saxpy_fp", "dscal_fp", "interp_fp", "sfir_fp")
HAMMER_SHAPES = [
    (k, f, t)
    for k in HAMMER_KERNELS
    for f, t in (
        ("split_vec_gcc4cli", "sse"),
        ("split_vec_gcc4cli", "neon"),
        ("split_scalar_mono", "sse"),
    )
]


def test_hammer_one_compile_and_one_put_per_unique_key(tmp_path):
    """Many threads, one service, mixed shapes: exactly one real (non-
    cached, non-coalesced) ``jit`` span and one cache ``put`` per unique
    key, and every response checked-correct."""
    rng = random.Random(2026)
    reqs = [
        ServiceRequest(*rng.choice(HAMMER_SHAPES), size=SIZE)
        for _ in range(48)
    ]
    unique = {(r.kernel, r.flow, r.target, r.size) for r in reqs}

    with obs.recording(trace=True, metrics=True) as ob:
        svc = KernelService(cache_dir=str(tmp_path / "c"), workers=8,
                            queue_limit=64)
        errors: list = []

        def spin(chunk):
            try:
                for r in chunk:
                    resp = svc.handle(r)
                    assert resp.status == "ok", resp.status
                    assert resp.result.checked
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=spin, args=(reqs[i::6],))
            for i in range(6)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            svc.close()
    assert not errors

    real_compiles = [
        s for s in ob.spans()
        if s.name == "jit" and not s.attrs.get("cached")
        and not s.attrs.get("coalesced")
    ]
    assert len(real_compiles) == len(unique), (
        f"{len(real_compiles)} real compiles for {len(unique)} unique keys"
    )
    metrics = ob.metrics_snapshot()
    assert metrics["cache.puts"]["value"] == len(unique), \
        "duplicate cache put for a key"
    assert metrics["jit.compiles"]["value"] == len(unique)


def test_hammer_admission_depth_never_exceeds_limit(tmp_path):
    """Under a saturating hammer the bounded-admission invariant holds:
    depth never exceeds the limit (peak_depth tracks the high-water mark
    under the admission lock), and overload sheds instead of queueing."""
    svc = KernelService(cache_dir=str(tmp_path / "c"), workers=2,
                        queue_limit=4)
    statuses: list = []
    lock = threading.Lock()

    def spin():
        for _ in range(6):
            resp = svc.handle(_req())
            with lock:
                statuses.append(resp.status)

    threads = [threading.Thread(target=spin) for _ in range(10)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        svc.close()
    adm = svc.admission.stats()
    assert adm["peak_depth"] <= adm["limit"] == 4
    assert adm["depth"] == 0
    assert statuses and set(statuses) <= {"ok", "shed"}
    assert "ok" in statuses  # the hammer did not starve everyone


def test_serve_preserves_request_order_under_mixed_load(tmp_path):
    """Response-order stability: ``serve`` returns responses in request
    order no matter how the pool interleaves the work."""
    rng = random.Random(7)
    reqs = [
        ServiceRequest(*rng.choice(HAMMER_SHAPES), size=SIZE)
        for _ in range(32)
    ]
    svc = KernelService(cache_dir=str(tmp_path / "c"), workers=8,
                        queue_limit=64)
    try:
        responses = svc.serve(reqs)
    finally:
        svc.close()
    assert [r.request for r in responses] == reqs
    assert all(r.ok for r in responses)


def test_warm_responses_byte_identical_to_cold_under_concurrency(tmp_path):
    """The refactor's correctness bar: after a concurrent cold hammer,
    warm-cache responses still exactly equal a cache-less cold run."""
    from repro.harness.flows import FlowRunner
    from repro.kernels import get_kernel

    cold_runner = FlowRunner()
    expected = {
        k: cold_runner.run(get_kernel(k).instantiate(SIZE), FLOW, "sse")
        for k in HAMMER_KERNELS
    }

    svc = KernelService(cache_dir=str(tmp_path / "c"), workers=8,
                        queue_limit=64)
    try:
        cold = svc.serve([_req(k) for k in HAMMER_KERNELS] * 4)
        warm = svc.serve([_req(k) for k in HAMMER_KERNELS])
    finally:
        svc.close()
    for resp in cold + warm:
        ref = expected[resp.request.kernel]
        assert resp.status == "ok"
        assert resp.result.cycles == ref.cycles
        assert resp.result.value == ref.value
        assert resp.result.bytecode_bytes == ref.bytecode_bytes
    assert any(r.from_cache for r in warm)
