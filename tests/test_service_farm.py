"""The cross-process compile fabric (docs/service.md section 7).

Covers the farm end to end through the public service API — dispatch
with byte-identical results, worker-crash rerouting with no torn cache
entry, the per-flight compile-budget watchdog (worker stalls *and*
wedged in-process leaders), the cross-replica leader-marker protocol
(wait-and-read, stale-TTL takeover, injected stale markers) — plus the
satellites that ride along: reservation-style byte-budget admission,
the VBK1 envelope as the farm wire format, and the sharded service
counters.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import faults
from repro.harness.flows import FLOWS, FlowRunner
from repro.kernels import get_kernel
from repro.service import (
    CacheError,
    CacheKey,
    FarmError,
    KernelCache,
    KernelService,
    ServiceRequest,
)
from repro.service.cache import pack_kernel, unpack_kernel
from repro.service.core import _ShardedCounters
from repro.targets import get_target

SIZE = 16
FLOW = "split_vec_gcc4cli"


def _req(kernel="saxpy_fp", **kw):
    kw.setdefault("flow", FLOW)
    kw.setdefault("target", "sse")
    kw.setdefault("size", SIZE)
    return ServiceRequest(kernel, **kw)


def _sig(response):
    r = response.result
    return (r.cycles, r.value, r.bytecode_bytes)


@pytest.fixture()
def farm_svc(tmp_path):
    service = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                            backoff_base=0.0, farm_workers=2)
    yield service
    service.close()


# -- dispatch: results must be indistinguishable from inline ------------------


def test_farm_cold_compiles_match_inline_and_warm_is_byte_identical(tmp_path):
    """Distinct cold misses route through worker processes; execution
    results (cycles, value) must equal an inline service's, and the warm
    read-back of the worker-shipped envelope must be byte-identical to
    the cold response.  (Raw ``bytecode_bytes`` is not compared *across*
    processes: the encoded stream embeds process-global gensym counters,
    which is exactly why cache identity uses ``canonical_crc``.)"""
    reqs = [_req("saxpy_fp"), _req("dscal_fp", target="neon")]

    inline = KernelService(cache_dir=str(tmp_path / "a"), seed=0)
    try:
        want = [(r.result.cycles, r.result.value)
                for r in inline.serve(reqs)]
    finally:
        inline.close()

    svc = KernelService(cache_dir=str(tmp_path / "b"), seed=0,
                        farm_workers=2)
    try:
        cold = svc.serve(reqs)
        assert all(r.ok and not r.from_cache for r in cold)
        assert [(r.result.cycles, r.result.value) for r in cold] == want
        farm = svc.stats()["farm"]
        assert farm["completed"] == len(reqs) == farm["dispatched"]
        # Warm read-back of the worker-produced envelope is byte-identical.
        warm = svc.serve(reqs)
        assert all(r.ok and r.from_cache for r in warm)
        assert [_sig(r) for r in warm] == [_sig(r) for r in cold]
    finally:
        svc.close()


def test_farm_mirrors_compile_metrics_in_parent(tmp_path):
    """jit.* metrics keep meaning one-per-compile even when the compile
    ran in a worker process (the leader mirrors them on dispatch)."""
    from repro import obs

    with obs.recording(trace=True, metrics=True) as ob:
        svc = KernelService(cache_dir=str(tmp_path / "c"), seed=0,
                            farm_workers=1)
        try:
            assert svc.handle(_req()).ok
        finally:
            svc.close()
    snap = ob.metrics_snapshot()
    assert int(snap["jit.compiles"]["value"]) == 1
    assert any(sp.name == "service.farm.dispatch" for sp in ob.spans())


# -- fault paths: crash, stall, watchdog --------------------------------------


def test_worker_crash_mid_compile_reroutes_without_torn_entry(tmp_path):
    """A worker hard-killed mid-compile (os._exit) must not take the
    request down: the leader detects the broken pool, rebuilds it,
    reroutes the compile inline, and the cache entry it publishes is
    whole (warm re-serve byte-identical)."""
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        farm_workers=1)
    try:
        plan = faults.FaultPlan([faults.WorkerCrash(kernel="saxpy_fp")])
        with faults.injected(plan):
            resp = svc.handle(_req())
        assert resp.ok and not resp.from_cache
        stats = svc.stats()
        assert stats["farm"]["crashes"] == 1
        assert stats["farm"]["rebuilds"] == 1
        assert stats["farm_fallbacks"] == 1
        # No torn entry: the rerouted compile's artifact reads back whole.
        warm = svc.handle(_req())
        assert warm.ok and warm.from_cache
        assert _sig(warm) == _sig(resp)
    finally:
        svc.close()


def test_worker_stall_trips_compile_budget_watchdog(tmp_path):
    """A wedged worker is reclaimed by the per-flight compile budget:
    the dispatch times out, the pool is rebuilt, and the compile is
    rerouted inline — the caller just sees a slower success."""
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        farm_workers=1, farm_budget_s=0.3)
    try:
        plan = faults.FaultPlan([faults.WorkerStall(seconds=30.0)])
        with faults.injected(plan):
            start = time.monotonic()
            resp = svc.handle(_req())
            elapsed = time.monotonic() - start
        assert resp.ok
        assert elapsed < 15.0  # reclaimed by budget, not the stall
        stats = svc.stats()
        assert stats["farm"]["stalls"] == 1
        assert stats["farm"]["rebuilds"] == 1
        assert stats["farm_fallbacks"] == 1
    finally:
        svc.close()


def test_follower_usurps_wedged_inprocess_leader(tmp_path):
    """The compile-budget watchdog also guards in-process flights: a
    follower that has waited past the budget removes the wedged flight
    from the single-flight table and compiles for itself."""
    from repro.harness import flows as flows_mod

    form, jit_cls = flows_mod.FLOWS[FLOW]
    gate = threading.Event()
    state = {"n": 0}
    lock = threading.Lock()

    class WedgedFirstJIT(jit_cls):
        def compile(self, *args, **kwargs):
            with lock:
                state["n"] += 1
                first = state["n"] == 1
            if first:
                gate.wait(timeout=10.0)  # wedge the first leader
            return super().compile(*args, **kwargs)

    flows_mod.FLOWS[FLOW] = (form, WedgedFirstJIT)
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        workers=4, farm_budget_s=0.2)
    try:
        results = [None, None]

        def worker(i):
            results[i] = svc.handle(_req())

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        # Let the usurper finish, then release the wedged leader.
        time.sleep(1.5)
        gate.set()
        for t in threads:
            t.join(timeout=20.0)
        assert all(r is not None and r.ok for r in results)
        stats = svc.stats()
        assert stats["flight_usurps"] >= 1
        assert stats["singleflight"]["usurped"] >= 1
    finally:
        svc.close()
        flows_mod.FLOWS[FLOW] = (form, jit_cls)


# -- cross-replica coalescing -------------------------------------------------


def _key_for(svc, kernel="saxpy_fp", target="sse"):
    inst = get_kernel(kernel).instantiate(SIZE)
    _ir, crc = svc.runner.offline(inst.entry, inst.source, FLOW,
                                  get_target(target))
    return CacheKey(crc, target, FLOWS[FLOW][1].name)


def test_replica_waits_for_fresh_marker_and_reads_entry(tmp_path):
    """Two services on one cache directory: while replica A's leader
    marker is fresh, replica B polls instead of compiling, and serves
    the entry A publishes — one compile across processes."""
    cache_dir = str(tmp_path / "shared")
    a = KernelService(cache_dir=cache_dir, seed=0)
    b = KernelService(cache_dir=cache_dir, seed=0, farm_budget_s=10.0)
    try:
        key = _key_for(a)
        token = a.cache.claim_leader(key, ttl_s=30.0)  # "A is compiling"
        assert isinstance(token, str)

        done = {}

        def follower():
            done["resp"] = b.handle(_req())

        t = threading.Thread(target=follower)
        t.start()
        time.sleep(0.2)  # B is polling the fresh marker
        assert "resp" not in done
        # A finishes its compile and publishes the entry.
        a.replica_coalesce = False
        lead = a.handle(_req())
        assert lead.ok
        t.join(timeout=20.0)

        resp = done["resp"]
        assert resp.ok and resp.from_cache
        assert _sig(resp) == _sig(lead)
        stats = b.stats()
        assert stats["replica_waits"] == 1
        assert stats["replica_hits"] == 1
        a.cache.release_leader(key, token)
    finally:
        a.close()
        b.close()


def test_stale_marker_takeover_between_replicas(tmp_path):
    """A marker older than the TTL is a dead replica's: the waiter
    unlinks it, claims leadership, and compiles — no deadline-less
    follower is stranded behind a crashed leader."""
    cache_dir = str(tmp_path / "shared")
    a = KernelService(cache_dir=cache_dir, seed=0)
    b = KernelService(cache_dir=cache_dir, seed=0, marker_ttl_s=5.0)
    try:
        key = _key_for(a)
        token = a.cache.claim_leader(key, ttl_s=5.0)
        assert isinstance(token, str)
        # Age A's marker past the TTL: A "died" holding leadership.
        marker = b.cache._marker_path(key)
        old = time.time() - 60.0
        os.utime(marker, (old, old))

        resp = b.handle(_req())
        assert resp.ok and not resp.from_cache
        assert b.cache.marker_takeovers == 1
        # The stale marker is gone; B released its own claim after.
        assert not os.path.exists(marker)
    finally:
        a.close()
        b.close()


def test_injected_stale_marker_fault_forces_takeover(tmp_path):
    """faults.StaleMarker plants an expired foreign marker right before
    the claim — the service must take over and still serve."""
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0)
    try:
        plan = faults.FaultPlan([faults.StaleMarker()])
        with faults.injected(plan):
            resp = svc.handle(_req())
        assert resp.ok
        assert svc.cache.marker_takeovers == 1
        assert svc.cache.marker_claims == 1
    finally:
        svc.close()


def test_replica_budget_reclaims_leadership_from_wedged_replica(tmp_path):
    """A fresh-but-wedged foreign marker cannot strand a follower: once
    the compile budget expires, the waiter force-takes leadership."""
    cache_dir = str(tmp_path / "shared")
    svc = KernelService(cache_dir=cache_dir, seed=0, farm_budget_s=0.3,
                        marker_ttl_s=3600.0)
    try:
        key = _key_for(svc)
        other = KernelCache(cache_dir)
        token = other.claim_leader(key, ttl_s=3600.0)  # wedged replica
        assert isinstance(token, str)

        start = time.monotonic()
        resp = svc.handle(_req())
        assert resp.ok
        assert time.monotonic() - start < 15.0
        assert svc.cache.marker_takeovers == 1
        assert svc.stats()["replica_waits"] == 1
    finally:
        svc.close()


# -- envelope as wire format --------------------------------------------------


def test_pack_unpack_kernel_roundtrip_and_corruption(tmp_path):
    runner = FlowRunner()
    inst = get_kernel("saxpy_fp").instantiate(SIZE)
    ck = runner.compiled(inst, FLOW, get_target("sse"))

    envelope = pack_kernel(ck)
    ck2 = unpack_kernel(envelope)
    assert (ck2.compiler, ck2.compile_seconds, ck2.degraded) == \
        (ck.compiler, ck.compile_seconds, ck.degraded)
    assert ck2.stats == ck.stats
    # The byte-identity guarantee is store-exact-bytes (put_bytes keeps a
    # worker's envelope verbatim), not canonical re-serialization: pickle
    # bytes legitimately differ on repack, but must stay a valid envelope.
    assert unpack_kernel(pack_kernel(ck2)).compiler == ck.compiler

    corrupt = bytearray(envelope)
    corrupt[len(corrupt) // 2] ^= 0x40
    with pytest.raises(CacheError):
        unpack_kernel(bytes(corrupt))


# -- reservation-style byte-budget admission ----------------------------------


def _envelope(kernel="saxpy_fp", target="sse"):
    """(VBK1 envelope bytes, the kernel they encode)."""
    runner = FlowRunner()
    inst = get_kernel(kernel).instantiate(SIZE)
    ck = runner.compiled(inst, FLOW, get_target(target))
    return pack_kernel(ck), ck


def test_oversize_entry_rejected_before_any_write(tmp_path):
    data, ck = _envelope()
    cache = KernelCache(str(tmp_path / "kc"), byte_budget=len(data) - 1)
    key = CacheKey(0x1, "sse", "gcc4cli")
    assert cache.put_bytes(key, data, ck) is False
    assert cache.oversize_rejects == 1
    assert os.listdir(cache.root) == []  # no tempfile ever landed
    stats = cache.stats()
    assert stats["pending_bytes"] == 0 and stats["bytes"] == 0


def test_reservation_evicts_before_write_and_rolls_back(tmp_path):
    data, ck = _envelope()
    cache = KernelCache(str(tmp_path / "kc"), byte_budget=len(data) + 8)
    k1, k2 = CacheKey(0x1, "sse", "gcc4cli"), CacheKey(0x2, "sse", "gcc4cli")
    assert cache.put_bytes(k1, data, ck)
    assert cache.put_bytes(k2, data, ck)  # must evict k1 to fit
    assert cache.get(k1) is None and cache.get(k2) is not None
    stats = cache.stats()
    assert stats["bytes"] <= len(data) + 8
    assert stats["pending_bytes"] == 0

    # A failed write releases its reservation.
    plan = faults.FaultPlan([faults.CacheTornWrite()])
    with faults.injected(plan):
        assert cache.put_bytes(
            CacheKey(0x3, "sse", "gcc4cli"), data, ck
        ) is False
    assert cache.stats()["pending_bytes"] == 0
    assert cache.put_failures == 1


def test_concurrent_puts_respect_budget_via_reservations(tmp_path):
    data, ck = _envelope()
    cache = KernelCache(str(tmp_path / "kc"),
                        byte_budget=2 * len(data) + 8)
    errs = []

    def put(i):
        try:
            cache.put_bytes(CacheKey(0x100 + i, "sse", "gcc4cli"), data, ck)
        except Exception as exc:  # pragma: no cover - fail loudly below
            errs.append(exc)

    threads = [threading.Thread(target=put, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errs
    stats = cache.stats()
    # Reservations keep the budget a hard bound even when eight puts
    # race: inserts that cannot fit after draining the index are given
    # up (budget_rejects), never allowed to overshoot.
    assert stats["bytes"] <= 2 * len(data) + 8
    assert stats["pending_bytes"] == 0
    assert stats["entries"] + cache.budget_rejects + cache.evictions == 8


# -- sharded counters ---------------------------------------------------------


def test_sharded_counters_sum_exactly_under_contention():
    counters = _ShardedCounters(["a", "b"])
    per_thread, threads_n = 5000, 8

    def hammer():
        for _ in range(per_thread):
            counters.bump("a")
            counters.bump("b", 2)

    threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = counters.snapshot()
    assert snap["a"] == per_thread * threads_n
    assert snap["b"] == 2 * per_thread * threads_n


def test_service_stats_stay_consistent_while_hammered(tmp_path):
    """stats() snapshots mid-traffic must never lose increments."""
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        workers=4)
    try:
        stop = threading.Event()
        snaps = []

        def reader():
            while not stop.is_set():
                snaps.append(svc.stats()["requests"])

        t = threading.Thread(target=reader)
        t.start()
        n = 24
        responses = svc.serve([_req()] * n)
        stop.set()
        t.join()
        assert all(r.ok for r in responses)
        assert svc.stats()["requests"] == n
        assert all(s <= n for s in snaps)
        assert snaps == sorted(snaps)  # monotonic merge
    finally:
        svc.close()


# -- farm lifecycle -----------------------------------------------------------


def test_farm_close_is_classified_and_idempotent(tmp_path):
    from repro.service import CompileFarm, CompileJob

    farm = CompileFarm(1, budget_s=5.0)
    farm.close()
    farm.close()  # idempotent
    job = CompileJob(key=CacheKey(0x0, "sse", "gcc4cli"), kernel="saxpy_fp",
                     size=SIZE, flow=FLOW, target="sse")
    with pytest.raises(FarmError) as exc:
        farm.compile(job)
    assert "[closed]" in str(exc.value)


def test_farm_key_mismatch_is_remote_classified(tmp_path):
    """A job whose CacheKey does not match the worker's rebuilt IR is
    refused by the worker (defense against identity drift)."""
    from repro.service import CompileFarm, CompileJob

    farm = CompileFarm(1, budget_s=30.0)
    try:
        job = CompileJob(key=CacheKey(0xBAD0BAD, "sse", "gcc4cli"),
                         kernel="saxpy_fp", size=SIZE, flow=FLOW,
                         target="sse")
        with pytest.raises(FarmError) as exc:
            farm.compile(job)
        assert "[key-mismatch]" in str(exc.value)
    finally:
        farm.close()
