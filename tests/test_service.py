"""The resilient JIT compilation service (docs/service.md).

Covers every resilience primitive in isolation — crash-safe cache,
admission, deadlines, circuit breakers — and their composition in
:class:`repro.service.KernelService`: the strictly ordered degradation
cascade, stale serving, warm/cold byte-identity, and the health/stats
surfaces.  The hypothesis suite at the bottom proves the cache's VBK1
envelope catches *any* single-byte corruption (the mirror of
``test_resilience.test_every_single_byte_corruption_rejected`` for the
on-disk artifact store).
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.errors import ReproError, classify
from repro.harness.flows import FlowRunner
from repro.kernels import get_kernel
from repro.machine.registry import DEFAULT_ENGINE
from repro.service import (
    AdmissionQueue,
    CacheError,
    CacheKey,
    CircuitBreaker,
    Deadline,
    DeadlineError,
    KernelCache,
    KernelService,
    OverloadError,
    ServiceRequest,
    atomic_write,
)
from repro.service import cache as cache_mod
from repro.service import core as core_mod

SIZE = 16
FLOW = "split_vec_gcc4cli"


@pytest.fixture()
def svc(tmp_path):
    service = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                            backoff_base=0.0)
    yield service
    service.close()


def _req(kernel="saxpy_fp", **kw):
    kw.setdefault("flow", FLOW)
    kw.setdefault("target", "sse")
    kw.setdefault("size", SIZE)
    return ServiceRequest(kernel, **kw)


def _compiled(tmp_path, kernel="saxpy_fp", target="sse"):
    """(cache, key, CompiledKernel) for direct cache-layer tests."""
    from repro.targets import get_target

    runner = FlowRunner()
    inst = get_kernel(kernel).instantiate(SIZE)
    ck = runner.compiled(inst, FLOW, get_target(target))
    cache = KernelCache(str(tmp_path / "kc"))
    key = CacheKey(0xDEADBEEF, target, "gcc4cli")
    return cache, key, ck


# -- atomic_write -------------------------------------------------------------


def test_atomic_write_creates_and_replaces(tmp_path):
    path = str(tmp_path / "artifact.bin")
    atomic_write(path, b"first")
    assert Path(path).read_bytes() == b"first"
    atomic_write(path, b"second")
    assert Path(path).read_bytes() == b"second"
    # no temp litter
    assert os.listdir(tmp_path) == ["artifact.bin"]


def test_atomic_write_torn_leaves_destination_untouched(tmp_path):
    path = str(tmp_path / "artifact.bin")
    atomic_write(path, b"good old content")
    with faults.injected(faults.FaultPlan([faults.CacheTornWrite()])):
        with pytest.raises(CacheError) as exc_info:
            atomic_write(path, b"NEW content that dies mid-write")
    assert exc_info.value.kind == "torn-write"
    assert isinstance(exc_info.value, faults.FaultInjected)
    assert classify(exc_info.value) == "CacheError[injected]"
    # Destination still the old content; the partial temp file is the
    # only evidence of the crash.
    assert Path(path).read_bytes() == b"good old content"
    tmps = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert tmps, "expected the partial temp file to remain"


def test_torn_write_count_bounds_failures(tmp_path):
    path = str(tmp_path / "a.bin")
    with faults.injected(faults.FaultPlan([faults.CacheTornWrite(count=1)])):
        with pytest.raises(CacheError):
            atomic_write(path, b"x" * 64)
        atomic_write(path, b"recovered")  # second write under plan is fine
    assert Path(path).read_bytes() == b"recovered"


# -- KernelCache --------------------------------------------------------------


def test_cache_roundtrip_preserves_kernel(tmp_path):
    cache, key, ck = _compiled(tmp_path)
    assert cache.get(key) is None  # miss on empty
    assert cache.put(key, ck)
    got = cache.get(key)
    assert got is not None
    assert got.target.name == ck.target.name
    assert got.compiler == ck.compiler
    assert got.degraded == ck.degraded
    assert got.mfunc.dump() == ck.mfunc.dump()
    s = cache.stats()
    assert s["entries"] == 1 and s["hits"] == 1 and s["misses"] == 1


def test_cache_filename_is_key_deterministic(tmp_path):
    key = CacheKey(0xABCD1234, "neon", "mono")
    assert key.filename() == CacheKey(0xABCD1234, "neon", "mono").filename()
    assert key.filename() != CacheKey(0xABCD1234, "sse", "mono").filename()
    assert key.filename() != CacheKey(0xABCD1235, "neon", "mono").filename()
    other_tool = CacheKey(0xABCD1234, "neon", "mono", toolchain="v2")
    assert key.filename() != other_tool.filename()


def test_cache_quarantines_corrupt_entry_and_self_heals(tmp_path):
    cache, key, ck = _compiled(tmp_path)
    cache.put(key, ck)
    path = os.path.join(cache.root, key.filename())
    _corrupt(path)

    assert cache.get(key) is None  # classified miss, not an exception
    assert cache.quarantined == 1
    assert not os.path.exists(path)
    assert os.listdir(cache.quarantine_dir)  # evidence kept

    # Self-heal: recompile path re-puts and the entry serves again.
    assert cache.put(key, ck)
    assert cache.get(key) is not None


def test_cache_lru_eviction_respects_byte_budget(tmp_path):
    cache, key, ck = _compiled(tmp_path)
    cache.put(key, ck)
    entry_bytes = cache.total_bytes()
    small = KernelCache(str(tmp_path / "small"),
                        byte_budget=int(entry_bytes * 2.5))
    keys = [CacheKey(i, "sse", "gcc4cli") for i in range(4)]
    for k in keys:
        small.put(k, ck)
    assert small.evictions >= 1
    assert small.total_bytes() <= small.byte_budget
    # Newest entries survive, oldest were evicted.
    assert small.get(keys[-1]) is not None
    assert small.get(keys[0]) is None


def _corrupt(path: str) -> None:
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[len(data) // 2] ^= 0x40
    with open(path, "wb") as f:
        f.write(bytes(data))


def test_quarantine_names_never_collide_across_instances(tmp_path):
    """Regression (quarantine collision): evidence files were named with
    the in-process ``quarantined`` counter, which resets on every
    restart — a second service instance quarantining the same entry name
    silently ``os.replace``d the first instance's evidence away."""
    cache, key, ck = _compiled(tmp_path)
    path = os.path.join(cache.root, key.filename())

    cache.put(key, ck)
    _corrupt(path)
    assert cache.get(key) is None  # quarantined by instance 1

    # A *fresh* cache over the same directory (counter would reset to 0)
    # quarantines the same entry name again.
    cache2 = KernelCache(cache.root)
    cache2.put(key, ck)
    _corrupt(path)
    assert cache2.get(key) is None  # quarantined by instance 2

    evidence = [n for n in os.listdir(cache.quarantine_dir)
                if n.startswith(key.filename())]
    assert len(evidence) == 2, (
        f"expected both evidence files to survive, got {evidence}"
    )


def _assert_bytes_consistent(cache: KernelCache) -> None:
    """The running byte total must equal the O(n) recomputed sum."""
    with cache._lock:
        assert cache._bytes == sum(cache._index.values())
        assert cache.total_bytes() == cache._bytes


def test_cache_running_byte_total_stays_consistent(tmp_path):
    """The eviction loop now budgets against a running byte total
    (O(evicted)) instead of re-summing the index per eviction (O(n²));
    the total must stay exact through put/get/evict/quarantine/scan."""
    cache, key, ck = _compiled(tmp_path)
    cache.put(key, ck)
    entry_bytes = cache.total_bytes()
    assert entry_bytes > 0
    _assert_bytes_consistent(cache)

    small = KernelCache(str(tmp_path / "small"),
                        byte_budget=int(entry_bytes * 2.5))
    keys = [CacheKey(i, "sse", "gcc4cli") for i in range(6)]
    for k in keys:
        small.put(k, ck)
        _assert_bytes_consistent(small)
    assert small.evictions >= 1
    assert small.total_bytes() <= small.byte_budget

    # LRU touch keeps the total exact.
    assert small.get(keys[-1]) is not None
    _assert_bytes_consistent(small)

    # Explicit eviction subtracts.
    assert small.evict(keys[-1])
    _assert_bytes_consistent(small)

    # Quarantine subtracts.
    victim = next(iter(small._index))
    _corrupt(os.path.join(small.root, victim))
    small._scan()
    _assert_bytes_consistent(small)
    for k in keys:
        small.get(k)  # one of these quarantines the corrupt entry
    assert small.quarantined >= 1
    _assert_bytes_consistent(small)

    # A fresh scan over the same directory agrees with disk.
    rescan = KernelCache(small.root, byte_budget=small.byte_budget)
    _assert_bytes_consistent(rescan)
    assert rescan.total_bytes() == sum(
        os.stat(os.path.join(rescan.root, n)).st_size
        for n in rescan._index
    )


def test_cache_evict_is_idempotent(tmp_path):
    cache, key, ck = _compiled(tmp_path)
    cache.put(key, ck)
    assert cache.evict(key) is True
    assert cache.evict(key) is False
    assert cache.get(key) is None


def test_cache_put_failure_is_counted_not_raised(tmp_path):
    cache, key, ck = _compiled(tmp_path)
    with faults.injected(faults.FaultPlan([faults.CacheTornWrite()])):
        assert cache.put(key, ck) is False
    assert cache.put_failures == 1
    assert cache.get(key) is None  # destination never appeared


def test_cache_forgets_an_entry_deleted_behind_it(tmp_path):
    """An entry another replica (or an operator) deleted is a miss, and
    the index stops counting it: neither ``entries``/``total_bytes`` nor
    a later budget eviction may see the vanished file."""
    _cache, _key, ck = _compiled(tmp_path)
    size = len(cache_mod.pack_kernel(ck))
    cache = KernelCache(str(tmp_path / "one"), byte_budget=size)
    gone, fresh = CacheKey(1, "sse", "gcc4cli"), CacheKey(2, "sse", "gcc4cli")
    assert cache.put(gone, ck)
    os.unlink(os.path.join(cache.root, gone.filename()))

    assert cache.get(gone) is None
    assert cache.stats()["entries"] == 0 and cache.total_bytes() == 0
    _assert_bytes_consistent(cache)
    # The budget holds exactly one entry: the next put has nothing to
    # evict, because the vanished file no longer counts.
    assert cache.put(fresh, ck)
    assert cache.evictions == 0 and cache.total_bytes() == size


# -- KernelCache: the hot tier ------------------------------------------------


def test_cache_hot_tier_returns_one_kernel_for_unchanged_bytes(tmp_path):
    cache, key, ck = _compiled(tmp_path)
    cache.put(key, ck)
    # The put seeded the tier with the kernel it wrote: both reads are
    # disk-cache hits that the tier answers with that same kernel.
    assert cache.get(key) is ck
    assert cache.get(key) is ck
    s = cache.stats()
    assert s["hits"] == 2 and s["hot_hits"] == 2

    # A fresh cache over the same directory (a restart) has an empty
    # tier: its first read unpacks, the second reuses that kernel.
    cold = KernelCache(cache.root)
    first = cold.get(key)
    assert first is not ck and cold.get(key) is first
    assert cold.stats()["hot_hits"] == 1


def test_cache_put_seeds_the_tier_only_when_the_write_lands(tmp_path):
    cache, key, ck = _compiled(tmp_path)
    with faults.injected(faults.FaultPlan([faults.CacheTornWrite()])):
        assert cache.put(key, ck) is False
    assert key.filename() not in cache._hot

    assert cache.put(key, ck)
    hot_data, hot_ck = cache._hot[key.filename()]
    with open(os.path.join(cache.root, key.filename()), "rb") as f:
        assert hot_data == f.read()
    assert hot_ck is ck
    assert cache.get(key) is ck and cache.hot_hits == 1


def test_cache_hot_tier_yields_to_a_replicas_overwrite(tmp_path):
    """A second cache on the same directory (another replica) overwrites
    the entry with a different valid envelope of the same size: the next
    get must unpack the new bytes, not return the memoized kernel."""
    cache, key, ck = _compiled(tmp_path)
    cache.put(key, ck)
    old = cache.get(key)
    other = dataclasses.replace(ck, compile_seconds=ck.compile_seconds + 1.0)
    assert KernelCache(cache.root).put(key, other)

    new = cache.get(key)
    assert new is not old and new is not other
    assert new.compile_seconds == other.compile_seconds
    assert cache.hot_hits == 1  # only the read before the overwrite
    assert cache.get(key) is new and cache.hot_hits == 2


def test_cache_hot_tier_never_goes_back_under_a_racing_writer(tmp_path):
    """Six readers race a replica that keeps overwriting the entry with
    newer same-size versions.  The disk only moves forward, so no reader
    may see an older version after a newer one, the last read must see
    the last write, and no counter update may be lost."""
    cache, key, ck = _compiled(tmp_path)
    versions = [dataclasses.replace(ck, compile_seconds=float(i))
                for i in range(40)]
    cache.put(key, versions[0])
    replica = KernelCache(cache.root)
    readers, gets = 6, 150
    errors: list = []

    def read():
        last = -1.0
        try:
            for _ in range(gets):
                seen = cache.get(key).compile_seconds
                assert seen >= last, f"went back from {last} to {seen}"
                last = seen
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def write():
        for v in versions[1:]:
            replica.put(key, v)

    threads = [threading.Thread(target=read) for _ in range(readers)]
    threads.append(threading.Thread(target=write))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    assert cache.get(key).compile_seconds == versions[-1].compile_seconds
    s = cache.stats()
    assert s["hits"] == readers * gets + 1 and s["misses"] == 0
    assert 0 < s["hot_hits"] < s["hits"]


def test_cache_hot_tier_forgets_evicted_and_quarantined_entries(tmp_path):
    cache, key, ck = _compiled(tmp_path)
    name = key.filename()
    cache.put(key, ck)
    cache.get(key)
    assert name in cache._hot
    assert cache.evict(key)
    assert name not in cache._hot

    cache.put(key, ck)
    cache.get(key)
    assert name in cache._hot
    _corrupt(os.path.join(cache.root, name))
    assert cache.get(key) is None and cache.quarantined == 1
    assert name not in cache._hot


def test_cache_hot_tier_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_mod, "HOT_ENTRIES", 2)
    cache, _key, ck = _compiled(tmp_path)
    keys = [CacheKey(i, "sse", "gcc4cli") for i in range(3)]
    for k in keys:
        cache.put(k, ck)
        assert cache.get(k) is not None
    # Least recently read out first; the disk entries all stay.
    assert list(cache._hot) == [k.filename() for k in keys[1:]]
    assert len(cache) == 3


# -- KernelCache: the VBK1 envelope and the byte budget -----------------------


def test_pack_unpack_kernel_roundtrip_and_corruption(tmp_path):
    _cache, _key, ck = _compiled(tmp_path)
    envelope = cache_mod.pack_kernel(ck)
    ck2 = cache_mod.unpack_kernel(envelope)
    assert (ck2.compiler, ck2.compile_seconds, ck2.degraded) == \
        (ck.compiler, ck.compile_seconds, ck.degraded)
    assert ck2.stats == ck.stats
    # Pickle bytes may legitimately differ on repack, but must stay a
    # valid envelope.
    assert cache_mod.unpack_kernel(
        cache_mod.pack_kernel(ck2)).compiler == ck.compiler

    corrupt = bytearray(envelope)
    corrupt[len(corrupt) // 2] ^= 0x40
    with pytest.raises(CacheError):
        cache_mod.unpack_kernel(bytes(corrupt))


def test_oversize_entry_rejected_before_any_write(tmp_path):
    _cache, _key, ck = _compiled(tmp_path)
    size = len(cache_mod.pack_kernel(ck))
    cache = KernelCache(str(tmp_path / "small"), byte_budget=size - 1)
    key = CacheKey(0x1, "sse", "gcc4cli")
    assert cache.put(key, ck) is False
    assert cache.oversize_rejects == 1
    assert os.listdir(cache.root) == []  # no tempfile ever landed
    stats = cache.stats()
    assert stats["pending_bytes"] == 0 and stats["bytes"] == 0


def test_reservation_evicts_before_write_and_rolls_back(tmp_path):
    _cache, _key, ck = _compiled(tmp_path)
    size = len(cache_mod.pack_kernel(ck))
    cache = KernelCache(str(tmp_path / "two"), byte_budget=size + 8)
    k1, k2 = CacheKey(0x1, "sse", "gcc4cli"), CacheKey(0x2, "sse", "gcc4cli")
    assert cache.put(k1, ck)
    assert cache.put(k2, ck)  # must evict k1 to fit
    assert cache.get(k1) is None and cache.get(k2) is not None
    stats = cache.stats()
    assert stats["bytes"] <= size + 8
    assert stats["pending_bytes"] == 0

    # A failed write releases its reservation.
    plan = faults.FaultPlan([faults.CacheTornWrite()])
    with faults.injected(plan):
        assert cache.put(CacheKey(0x3, "sse", "gcc4cli"), ck) is False
    assert cache.stats()["pending_bytes"] == 0
    assert cache.put_failures == 1


def test_concurrent_puts_respect_budget_via_reservations(tmp_path):
    _cache, _key, ck = _compiled(tmp_path)
    size = len(cache_mod.pack_kernel(ck))
    cache = KernelCache(str(tmp_path / "race"), byte_budget=2 * size + 8)
    errs = []

    def put(i):
        try:
            cache.put(CacheKey(0x100 + i, "sse", "gcc4cli"), ck)
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
    assert stats["bytes"] <= 2 * size + 8
    assert stats["pending_bytes"] == 0
    assert stats["entries"] + cache.budget_rejects + cache.evictions == 8


# -- Deadline / AdmissionQueue ------------------------------------------------


def test_deadline_with_injected_clock():
    now = [0.0]
    dl = Deadline(5.0, clock=lambda: now[0])
    assert dl.remaining() == 5.0 and not dl.expired()
    now[0] = 4.0
    dl.check("mid-flight")  # fine
    now[0] = 5.0
    assert dl.expired() and dl.remaining() == 0.0
    with pytest.raises(DeadlineError) as exc_info:
        dl.check("after compilation")
    assert "after compilation" in str(exc_info.value)
    assert isinstance(exc_info.value, ReproError)
    # no deadline = never expires
    assert Deadline(None).remaining() is None
    assert not Deadline(None).expired()


def test_admission_sheds_past_limit_and_recovers():
    q = AdmissionQueue(limit=2)
    a, b = q.admit(), q.admit()
    with pytest.raises(OverloadError) as exc_info:
        q.admit()
    assert exc_info.value.limit == 2
    assert classify(exc_info.value) == "OverloadError"
    a.__exit__(None, None, None)
    with q.admit():
        pass
    b.__exit__(None, None, None)
    s = q.stats()
    assert s["depth"] == 0 and s["shed"] == 1 and s["peak_depth"] == 2


# -- CircuitBreaker -----------------------------------------------------------


def test_breaker_full_cycle():
    b = CircuitBreaker(failure_threshold=2, cooldown=3)
    assert b.state == "closed" and b.allow()
    b.record_failure()
    assert b.state == "closed"  # below threshold
    b.record_failure()
    assert b.state == "open"
    # cooldown - 1 requests are short-circuited...
    assert not b.allow() and not b.allow()
    assert b.state == "open"
    # ...and the request that crosses the cooldown IS the probe (it used
    # to be denied too, costing sparse traffic one extra request).
    assert b.allow()
    assert b.state == "half-open"
    assert not b.allow()  # only one probe at a time
    b.record_failure()    # probe fails -> back to open
    assert b.state == "open"
    for _ in range(2):
        assert not b.allow()
    assert b.allow()      # cooldown crossed again: next probe
    b.record_success()
    assert b.state == "closed"
    snap = b.snapshot()
    assert snap["opens"] == 2 and snap["probes"] == 2
    assert snap["short_circuits"] == 5  # 2 + 1 (probe busy) + 2


def test_breaker_probe_not_delayed_an_extra_request():
    """Regression (delayed probe): the call that crosses ``cooldown``
    must itself be admitted as the probe — sparse traffic used to need
    cooldown + 1 requests because that call flipped OPEN -> HALF-OPEN
    but still returned False."""
    b = CircuitBreaker(failure_threshold=1, cooldown=2)
    b.record_failure()
    assert b.state == "open"
    assert not b.allow()          # denial 1 of 2
    assert b.allow()              # denial 2 crosses cooldown -> the probe
    assert b.state == "half-open"
    assert b.snapshot()["probes"] == 1
    b.record_success()
    assert b.state == "closed"


def test_breaker_release_probe_frees_slot_without_judging_target():
    """Regression (half-open wedge): a probe that evaporates (deadline
    expiry before the attempt ran) must release the slot — without a
    state change or a failure charge — or the breaker wedges half-open
    and short-circuits every later request forever."""
    b = CircuitBreaker(failure_threshold=1, cooldown=1)
    b.record_failure()
    assert b.state == "open"
    assert b.allow()              # cooldown=1: first call is the probe
    assert b.state == "half-open"
    assert not b.allow()          # probe slot busy
    b.release_probe()             # the probe's request evaporated
    assert b.state == "half-open"  # no judgement either way
    assert b.allow()              # slot free again: next request probes
    b.record_success()
    assert b.state == "closed"


def test_breaker_success_resets_failure_streak():
    b = CircuitBreaker(failure_threshold=3, cooldown=2)
    b.record_failure()
    b.record_failure()
    b.record_success()
    b.record_failure()
    b.record_failure()
    assert b.state == "closed"  # streak broken, never reached 3


# -- KernelService: primary path ----------------------------------------------


def test_service_warm_cache_is_byte_identical_to_cold(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold_runner = FlowRunner()  # no cache at all
    inst = get_kernel("saxpy_fp").instantiate(SIZE)
    cold = cold_runner.run(inst, FLOW, "sse")

    with KernelService(cache_dir=cache_dir) as first:
        r1 = first.handle(_req())
        assert r1.status == "ok" and not r1.from_cache

    # A *fresh* service over the same directory: cross-instance warm hit.
    with KernelService(cache_dir=cache_dir) as second:
        r2 = second.handle(_req())
        assert r2.status == "ok" and r2.from_cache
    for resp in (r1, r2):
        assert resp.result.cycles == cold.cycles
        assert resp.result.value == cold.value
        assert resp.result.checked


def test_service_counts_and_health(svc):
    for _ in range(3):
        assert svc.handle(_req()).ok
    stats = svc.stats()
    assert stats["requests"] == 3 and stats["ok"] == 3
    assert stats["served"] == 3
    assert stats["cache"]["entries"] == 1
    assert stats["cache"]["hits"] == 2
    health = svc.health()
    assert health["status"] == "ok"
    assert health["cache_enabled"] and health["queue_depth"] == 0


def test_service_warm_hits_translate_once(svc):
    """The cold request's put seeds the tier with the kernel it
    compiled, so the cold run's translation is the only one: every warm
    hit of the shape reuses it."""
    n = 6
    with obs.recording(trace=False, metrics=True) as ob:
        assert not svc.handle(_req()).from_cache  # cold compile and put
        responses = [svc.handle(_req()) for _ in range(n)]
    assert all(r.status == "ok" and r.from_cache for r in responses)
    assert svc.stats()["cache"]["hot_hits"] == n
    metrics = ob.metrics_snapshot()
    assert metrics["vm.translate_seconds"]["count"] == 1
    assert metrics["cache.hot_hits"]["value"] == n


def test_service_rejects_unknown_kernel_and_flow(svc):
    bad_kernel = svc.handle(_req(kernel="no_such_kernel"))
    assert bad_kernel.status == "rejected"
    assert bad_kernel.error == "bad-request"
    bad_flow = svc.handle(_req(flow="no_such_flow"))
    assert bad_flow.status == "rejected" and bad_flow.error == "bad-request"
    bad_target = svc.handle(_req(target="vax"))
    assert bad_target.status == "rejected"


def test_service_batch_submit_and_order(svc):
    kernels = ["saxpy_fp", "dscal_fp", "interp_fp", "saxpy_fp"]
    responses = svc.serve([_req(k) for k in kernels])
    assert [r.request.kernel for r in responses] == kernels
    assert all(r.ok for r in responses)


def test_service_submit_after_close_is_classified(tmp_path):
    svc = KernelService(cache_dir=str(tmp_path / "c"))
    svc.close()
    resp = svc.submit(_req()).result()
    assert resp.status == "rejected"
    assert resp.events and resp.events[0].cause == "service-closed"
    stats = svc.stats()
    assert stats["requests"] == 1
    assert stats["requests"] == sum(
        stats[k] for k in ("ok", "degraded", "stale", "shed", "rejected")
    )
    assert stats["admission"]["depth"] == 0


def test_service_engine_default_follows_the_registry():
    """Flipping DEFAULT_ENGINE must move the service with the runner."""
    def default(cls):
        return inspect.signature(cls).parameters["engine"].default

    assert default(KernelService) == default(FlowRunner) == DEFAULT_ENGINE


def test_service_runs_the_offline_stage_once_per_source(tmp_path,
                                                        frontend_calls):
    """saxpy_fp's source does not embed the size: eight new sizes are one
    program, so the frontend runs once, and every answer still equals a
    fresh runner's."""
    sizes = [16, 17, 33, 64, 100, 257, 1000, 2000]
    with KernelService(cache_dir=str(tmp_path / "c")) as svc:
        responses = [svc.handle(_req(size=n)) for n in sizes]
    assert len(frontend_calls) == 1
    for n, resp in zip(sizes, responses):
        assert resp.status == "ok"
        fresh = FlowRunner().run(get_kernel("saxpy_fp").instantiate(n),
                                 FLOW, "sse")
        assert (resp.result.value, resp.result.cycles,
                resp.result.bytecode_bytes) == \
            (fresh.value, fresh.cycles, fresh.bytecode_bytes)


def test_service_instance_memo_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(core_mod, "MAX_INSTANCES", 4)
    with KernelService(cache_dir=str(tmp_path / "c")) as svc:
        for n in range(16, 26):
            assert svc.handle(_req(size=n)).ok
            assert svc._instances.cache_info().currsize <= 4
            assert len(svc._stale) <= 4
        # size=None is the kernel's default size: one instance, one entry.
        default = get_kernel("saxpy_fp").default_size
        assert svc._instance("saxpy_fp", None) is \
            svc._instance("saxpy_fp", default)


# -- KernelService: resilience ------------------------------------------------


def test_service_retry_rescues_transient_fault(svc):
    plan = faults.FaultPlan([faults.MemFault(after=5)])  # one-shot
    with faults.injected(plan):
        resp = svc.handle(_req())
    assert resp.status == "ok"
    assert resp.attempts == 2
    assert svc.stats()["retries"] == 1


def test_service_deadline_zero_is_classified_rejection(svc):
    resp = svc.handle(_req(deadline_s=0.0))
    assert resp.status == "rejected"
    assert resp.error == "DeadlineError"
    assert svc.stats()["deadline_misses"] == 1


def test_service_overload_sheds_with_classified_error(svc):
    slots = [svc.admission.admit()
             for _ in range(svc.admission.limit)]
    try:
        resp = svc.handle(_req())
        assert resp.status == "shed"
        assert resp.error == "OverloadError"
        assert svc.health()["status"] == "overloaded"
    finally:
        for s in slots:
            s.__exit__(None, None, None)
    assert svc.handle(_req()).ok  # recovered


def test_materialize_fault_degrades_before_cascade(svc):
    """A materializer fault is absorbed *below* the service: the JIT's
    compile-level retry (PR 2) re-materializes with every group
    scalarized, so the primary attempt itself serves — degraded, with
    the forced-scalar events — and the cascade never engages."""
    plan = faults.FaultPlan([faults.MaterializeFault(target="sse")])
    with faults.injected(plan):
        resp = svc.handle(_req())
    assert resp.status == "degraded"
    assert resp.ok and resp.result.checked
    causes = [e.cause for e in resp.events]
    assert "forced-scalar" in causes
    assert "primary-failed" not in causes  # the primary served
    assert resp.result.flow == FLOW and resp.result.target == "sse"


def test_cascade_order_native_before_forced_scalar(svc):
    """When the primary fails but the cascade serves, the native
    fallback (step 1) is attempted before forced-scalar (step 2)."""
    plan = faults.FaultPlan([faults.MemFault(after=1, repeat=True)])
    with faults.injected(plan):
        resp = svc.handle(_req())
    causes = [e.cause for e in resp.events]
    assert causes[0] == "primary-failed"
    if "forced-scalar" in causes or "forced-scalar-failed" in causes:
        # step 2 only ever runs after step 1 failed
        assert "native-fallback-failed" in causes
        assert causes.index("native-fallback-failed") < max(
            causes.index(c) for c in causes
            if c.startswith("forced-scalar")
        )


def test_cascade_stale_serve_after_total_outage(svc):
    good = svc.handle(_req("dscal_fp"))
    assert good.status == "ok"
    # Persistent memory fault: every engine run traps, every cascade
    # step that executes code fails -> stale is the only source left.
    plan = faults.FaultPlan([faults.MemFault(after=1, repeat=True)])
    with faults.injected(plan):
        resp = svc.handle(_req("dscal_fp"))
    assert resp.status == "stale"
    assert resp.result.value == good.result.value
    assert resp.result.cycles == good.result.cycles
    assert any(e.cause == "stale-cache" for e in resp.events)


def test_cascade_rejection_floor_is_classified(svc):
    """No stale entry + total outage = classified rejection with the
    full event chain, never a traceback."""
    plan = faults.FaultPlan([faults.MemFault(after=1, repeat=True)])
    with faults.injected(plan):
        resp = svc.handle(_req("interp_fp"))
    assert resp.status == "rejected"
    assert resp.error == "VMError[injected]"  # injection stays visible
    causes = [e.cause for e in resp.events]
    assert "primary-failed" in causes
    assert "native-fallback-failed" in causes
    assert "forced-scalar-failed" in causes


def test_breaker_opens_and_short_circuits(tmp_path):
    svc = KernelService(
        cache_dir=str(tmp_path / "c"), retries=0, backoff_base=0.0,
        breaker_threshold=2, breaker_cooldown=3,
    )
    try:
        plan = faults.FaultPlan([faults.MemFault(after=1, repeat=True)])
        with faults.injected(plan):
            svc.handle(_req("interp_fp"))
            svc.handle(_req("interp_fp"))
            assert svc.health()["breakers"]["sse"] == "open"
            resp = svc.handle(_req("interp_fp"))
        assert any(e.cause == "breaker-open" for e in resp.events)
        assert svc.stats()["breaker_short_circuits"] >= 1
        assert svc.health()["status"] == "degraded"
    finally:
        svc.close()


def test_half_open_probe_deadline_does_not_wedge_breaker(tmp_path):
    """Regression (half-open wedge, end to end): a HALF-OPEN probe whose
    request dies of deadline expiry used to return early without
    releasing the probe slot, leaving ``_probe_inflight`` True forever —
    every later request for that target was short-circuited into the
    cascade and the breaker could never close again."""
    svc = KernelService(
        cache_dir=str(tmp_path / "c"), retries=0, backoff_base=0.0,
        breaker_threshold=1, breaker_cooldown=1,
    )
    try:
        plan = faults.FaultPlan([faults.MemFault(after=1, repeat=True)])
        with faults.injected(plan):
            bad = svc.handle(_req("saxpy_fp", target="neon"))
        assert not any(e.cause == "breaker-open" for e in bad.events)
        assert svc.health()["breakers"]["neon"] == "open"

        # cooldown=1: this request crosses the cooldown and IS the
        # probe — and its zero deadline expires before the attempt runs.
        probe = svc.handle(_req("saxpy_fp", target="neon", deadline_s=0.0))
        assert probe.status == "rejected" and probe.error == "DeadlineError"
        # Expiry is load, not target health: no state change...
        assert svc.health()["breakers"]["neon"] == "half-open"

        # ...and crucially the probe slot is free again: the next clean
        # request is admitted as a probe, succeeds, and closes the
        # breaker.  (Wedged, it would cascade-degrade forever.)
        good = svc.handle(_req("saxpy_fp", target="neon"))
        assert good.status == "ok"
        assert not any(e.cause == "breaker-open" for e in good.events)
        assert svc.health()["breakers"]["neon"] == "closed"
    finally:
        svc.close()


def test_fault_degraded_artifacts_are_not_cached(svc):
    """The taint rule: artifacts degraded under an active fault plan
    never reach the persistent cache, so a later clean request does not
    replay the fault."""
    plan = faults.FaultPlan([faults.LoweringFault(idiom="*", target="sse")])
    with faults.injected(plan):
        degraded = svc.handle(_req())
    assert degraded.status == "degraded"
    clean = svc.handle(_req())
    assert clean.status == "ok"
    assert not any(e.cause == "fault-injected" for e in clean.events)


def test_service_concurrent_requests_are_all_served(tmp_path):
    svc = KernelService(cache_dir=str(tmp_path / "c"), workers=4,
                        queue_limit=64)
    try:
        kernels = ["saxpy_fp", "dscal_fp", "interp_fp", "sfir_fp"]
        reqs = [_req(kernels[i % 4]) for i in range(24)]
        responses = svc.serve(reqs)
        assert all(r.ok for r in responses)
        # warm hits appear once each kernel's first compile landed
        assert svc.stats()["cache"]["hits"] > 0
    finally:
        svc.close()


def test_service_thread_safety_under_racing_handles(tmp_path):
    svc = KernelService(cache_dir=str(tmp_path / "c"), queue_limit=64)
    errors: list = []

    def spin():
        try:
            for _ in range(5):
                resp = svc.handle(_req("dscal_fp"))
                assert resp.ok
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=spin) for _ in range(6)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        svc.close()
    assert not errors


# -- hypothesis: the single-byte corruption property --------------------------


class TestCacheCorruptionProperty:
    """Any single-byte corruption of an on-disk entry is detected,
    quarantined, and transparently recompiled — never served."""

    _prepared: dict = {}

    @classmethod
    def _entry(cls):
        if "data" not in cls._prepared:
            import shutil
            import tempfile

            from repro.targets import get_target

            runner = FlowRunner()
            inst = get_kernel("saxpy_fp").instantiate(SIZE)
            ck = runner.compiled(inst, FLOW, get_target("sse"))
            seed_root = tempfile.mkdtemp(prefix="repro-vbk-seed-")
            try:
                cache = KernelCache(seed_root)
                key = CacheKey(0x1234, "sse", "gcc4cli")
                cache.put(key, ck)
                path = os.path.join(cache.root, key.filename())
                cls._prepared = {
                    "data": Path(path).read_bytes(),
                    "dump": ck.mfunc.dump(),
                    "ck": ck,
                }
            finally:
                shutil.rmtree(seed_root, ignore_errors=True)
        return cls._prepared

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_any_single_byte_corruption_never_served(self, data):
        import shutil
        import tempfile

        prep = self._entry()
        blob = bytearray(prep["data"])
        off = data.draw(st.integers(0, len(blob) - 1))
        delta = data.draw(st.integers(1, 255))
        blob[off] = (blob[off] + delta) % 256

        root = tempfile.mkdtemp(prefix="repro-vbk-fuzz-")
        try:
            cache = KernelCache(root)
            key = CacheKey(0x1234, "sse", "gcc4cli")
            path = os.path.join(root, key.filename())
            atomic_write(path, prep["data"])
            cache._scan()
            # Prime the hot tier with the true entry, then corrupt it in
            # place behind the cache: same inode, same size, same mtime.
            assert cache.get(key) is not None
            stat = os.stat(path)
            with open(path, "r+b") as f:
                f.seek(off)
                f.write(blob[off:off + 1])
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))

            got = cache.get(key)
            if got is None:
                # Detected: quarantined, and the self-healing re-put
                # serves the true artifact again.
                assert cache.quarantined == 1
                assert not os.path.exists(path)
                assert key.filename() not in cache._hot
                assert cache.put(key, prep["ck"])
                healed = cache.get(key)
                assert healed is not None
                assert healed.mfunc.dump() == prep["dump"]
            else:
                # The VBK1 CRC covers the whole payload, so any byte
                # change must be caught; reaching here is a hole in the
                # envelope.
                pytest.fail(
                    f"single-byte corruption at offset {off} (+{delta}) "
                    "was not detected by the VBK1 envelope"
                )
        finally:
            shutil.rmtree(root, ignore_errors=True)
