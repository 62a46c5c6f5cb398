"""The resilient JIT compilation service: ``repro.service.KernelService``.

The paper's split model makes the online stage cheap enough to run
*everywhere, all the time* — which at ROADMAP scale means a long-running,
multi-threaded service accepting (kernel, flow, target) compile/run
requests.  This module composes the resilience primitives of the package
into that service:

* **admission** (:mod:`.admission`) — a bounded in-flight counter sheds
  excess load with a classified :class:`OverloadError` instead of
  queueing unboundedly; per-request :class:`Deadline`\\ s are enforced at
  every pipeline stage.
* **kernel cache** (:mod:`.cache`) — compiled artifacts are persisted
  crash-safely and served on later requests; corrupt entries self-heal
  (quarantine → recompile → overwrite).
* **circuit breakers** (:mod:`.breaker`) — one per target; a target whose
  compiles keep failing is short-circuited so requests stop burning
  retry budget on it.
* **retries** — transient failures are retried with the harness's
  jittered exponential :func:`~repro.harness.parallel.backoff_delay`
  before degrading.
* **single-flight** (:mod:`.singleflight`) — concurrent identical cold
  misses share one inline compile in the first requester's thread; a
  follower whose flight outlives :data:`FLIGHT_BUDGET_S` deposes the
  wedged leader and compiles for itself.

When the primary attempt is exhausted (or short-circuited), the request
enters the **degradation cascade** — strictly ordered, every step
recorded as a :class:`~repro.jit.materialize.DegradationEvent`:

1. **native fallback** — serve from the always-available monolithic
   scalar flow (``native_scalar`` on the ``scalar`` target);
2. **forced-scalar retry** — recompile the requested flow for the
   requested target with every loop group scalarized (PR 2's
   ``force_scalar``), sidestepping vector materializer faults;
3. **stale cache** — re-serve the last known-good response for the same
   request shape, explicitly marked ``stale``;
4. **classified rejection** — a :class:`ServiceResponse` with
   ``status="rejected"``, a closed-taxonomy error tag, and the full
   event chain.  Never a silent wrong answer, never a traceback.
"""

from __future__ import annotations

import contextvars
import functools
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .. import faults, obs
from ..errors import classify
from ..harness.flows import FLOWS, FlowResult, FlowRunner
from ..harness.parallel import backoff_delay
from ..jit.materialize import DegradationEvent
from ..kernels import get_kernel
from ..machine.registry import DEFAULT_ENGINE
from ..targets import get_target
from .admission import AdmissionQueue, Deadline, DeadlineError, OverloadError
from .breaker import CircuitBreaker, CircuitOpenError
from .cache import CacheKey, KernelCache
from .singleflight import SingleFlight

__all__ = ["ServiceRequest", "ServiceResponse", "KernelService"]

#: Most kernel instances (inputs plus numpy reference results) one service
#: keeps, least recently used out first.  Rebuilding an evicted instance
#: is deterministic, so the bound costs time, never answers.  It also
#: bounds the last-good results kept for the stale-cache fallback, least
#: recently stored out first.
MAX_INSTANCES = 128

#: How long a single-flight follower waits on an unsettled flight before
#: it presumes the leader wedged, deposes it and compiles for itself.  A
#: real compile takes milliseconds, so only a hung leader ever trips it.
FLIGHT_BUDGET_S = 30.0


class _ShardedCounters:
    """Per-thread sharded counters, merged at snapshot time.

    The old global ``_counts`` dict behind one lock was the last
    hot-path critical section every request crossed (twice: admission
    and finish).  Each thread now bumps its *own* shard — a plain dict
    pre-populated with the full key set, touched by no other thread — so
    the hot path takes no lock at all.  ``snapshot`` merges the shards
    under the registry lock; it may observe a bump that is mid-flight on
    another core (counters are monotonic, so the snapshot is simply a
    moment-in-time floor), which is the usual sharded-counter bargain.

    Shards are keyed by thread lifetime: a shard stays registered after
    its thread exits so no counts are ever lost, and the registry is
    bounded by the total number of threads that ever touched the service
    (the worker pool is fixed-size; client threads are the caller's).
    """

    def __init__(self, keys) -> None:
        self._keys = tuple(keys)
        self._local = threading.local()
        self._registry: list[dict] = []
        self._registry_lock = threading.Lock()

    def _shard(self) -> dict:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            # Pre-populate every key: after this, the shard is only ever
            # value-updated (never resized), so the lock-free reads in
            # ``snapshot`` can iterate it safely.
            shard = {k: 0 for k in self._keys}
            with self._registry_lock:
                self._registry.append(shard)
            self._local.shard = shard
        return shard

    def bump(self, key: str, n: int = 1) -> None:
        self._shard()[key] += n

    def snapshot(self) -> dict:
        with self._registry_lock:
            shards = list(self._registry)
        out = {k: 0 for k in self._keys}
        for shard in shards:
            for k in self._keys:
                out[k] += shard[k]
        return out


@dataclass(frozen=True)
class ServiceRequest:
    """One compile/run request for a (kernel, flow, target) tuple."""

    kernel: str
    flow: str = "split_vec_gcc4cli"
    target: str = "sse"
    size: int | None = None
    #: wall-clock budget in seconds (None = no deadline).
    deadline_s: float | None = None


@dataclass
class ServiceResponse:
    """The service's answer — always well-formed, never a traceback.

    ``status`` is one of:

    ========== =========================================================
    status     meaning
    ========== =========================================================
    ``ok``       served from the primary path, clean vector compile
    ``degraded`` served correctly but via a fallback (compile-level
                 scalarization or a cascade step); ``events`` says why
    ``stale``    served from the last known-good result after the whole
                 compile path failed — correct *for that earlier run*
    ``shed``     rejected at admission (:class:`OverloadError`)
    ``rejected`` every cascade step failed; ``error`` holds the
                 classified tag of the root failure
    ========== =========================================================
    """

    request: ServiceRequest
    status: str
    result: FlowResult | None = None
    #: closed-taxonomy tag (:func:`repro.errors.classify`) when not served.
    error: str | None = None
    #: the DegradationEvent chain explaining every fallback step taken.
    events: list = field(default_factory=list)
    from_cache: bool = False
    #: True when this request was coalesced onto another request's
    #: in-flight compile (single-flight follower) instead of compiling
    #: or reading the persistent cache itself.
    coalesced: bool = False
    attempts: int = 1
    #: id of the ``service.request`` trace span that produced this
    #: response (None when tracing is disabled) — lets log processors
    #: join responses to their span trees in the JSONL export.
    span_id: int | None = None

    @property
    def ok(self) -> bool:
        """True when a (possibly degraded/stale) result was served."""
        return self.result is not None

    @property
    def degraded(self) -> bool:
        return bool(self.events)


def _event(kernel: str, target: str, cause: str, detail: str = ""):
    return DegradationEvent(
        function=kernel, target=target, group=None, cause=cause,
        detail=detail,
    )


def _resolved(resp: ServiceResponse) -> Future:
    fut: Future = Future()
    fut.set_result(resp)
    return fut


class KernelService:
    """A long-running, multi-threaded JIT compilation service.

    Synchronous use::

        svc = KernelService(cache_dir="/var/cache/repro")
        resp = svc.handle(ServiceRequest("saxpy_fp", target="sse"))

    Concurrent use::

        futures = [svc.submit(r) for r in requests]   # sheds when full
        responses = [f.result() for f in futures]

    All configuration knobs are keyword-only constructor arguments;
    ``seed`` makes retry jitter deterministic for seeded campaigns.
    The service is a context manager (``close()`` drains the worker
    pool).

    Every request is traced as one ``service.request`` span (phase
    ``service``) whose attributes record the final status, cache hit,
    attempt count, breaker state, and degradation-event causes; the
    span's id is echoed on :attr:`ServiceResponse.span_id`.
    """

    #: cascade step names, in order (documented in docs/service.md).
    CASCADE = ("native-fallback", "forced-scalar", "stale-cache")

    def __init__(
        self,
        *,
        cache_dir: str | None = None,
        cache_budget: int = 8 << 20,
        queue_limit: int = 32,
        workers: int = 4,
        retries: int = 2,
        backoff_base: float = 0.005,
        breaker_threshold: int = 3,
        breaker_cooldown: int = 6,
        engine: str = DEFAULT_ENGINE,
        check: bool = True,
        seed: int = 0,
    ) -> None:
        self.runner = FlowRunner(engine=engine, check=check)
        self.cache = (
            KernelCache(cache_dir, cache_budget)
            if cache_dir is not None
            else None
        )
        self.admission = AdmissionQueue(queue_limit)
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = int(breaker_cooldown)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._stale: dict[tuple, FlowResult] = {}
        self._instances = functools.lru_cache(maxsize=MAX_INSTANCES)(
            lambda kernel, size: get_kernel(kernel).instantiate(size)
        )
        self._rng = random.Random(seed)
        # -- scoped locking (the lock map; see docs/service.md §7) -----------
        # The old design funnelled every critical section — IR builds,
        # JIT compiles, bytecode sizing, counters, breakers — through one
        # global RLock, so the worker pool added zero compile throughput.
        # Each concern now has its own lock, and the expensive work (JIT
        # compilation) is serialized only per CacheKey via single-flight.
        # The offline stage builds under the runner's per-program locks.
        # (Service counters went further: per-thread shards, no lock at
        # all on the hot path — see _ShardedCounters.)
        self._breakers_lock = threading.Lock()  # self._breakers map
        self._instances_lock = threading.Lock()  # self._instances LRU
        self._stale_lock = threading.Lock()     # self._stale map
        self._rng_lock = threading.Lock()       # retry-jitter RNG
        #: per-CacheKey in-flight compile table: concurrent identical
        #: misses share one compile (leader/follower).
        self._singleflight = SingleFlight()
        self._pool = ThreadPoolExecutor(
            max_workers=int(workers), thread_name_prefix="repro-service"
        )
        self._started = time.monotonic()
        self._counters = _ShardedCounters([
            "requests",
            "ok",
            "degraded",
            "stale",
            "shed",
            "rejected",
            "retries",
            "deadline_misses",
            "degradation_events",
            "breaker_short_circuits",
            "internal_errors",
            "flight_usurps",
        ])
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut down the worker pool; pass ``wait=False`` to return at
        once, leaving running requests to finish unwaited and cancelling
        queued ones (each counted ``rejected``)."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "KernelService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- request entry points -------------------------------------------------

    def handle(self, request: ServiceRequest) -> ServiceResponse:
        """Serve one request synchronously (admission still applies)."""
        self._bump("requests")
        try:
            slot = self.admission.admit()
        except OverloadError as exc:
            return self._shed_response(request, exc)
        with slot:
            return self._guarded_serve(request)

    def submit(self, request: ServiceRequest) -> Future:
        """Enqueue a request onto the worker pool.

        Admission is charged *now*, on the calling thread, so a flood of
        submissions past ``queue_limit`` is shed immediately (the future
        is already resolved to a ``shed`` response) instead of parking
        unboundedly in the executor queue.  The request runs in a copy
        of the caller's context, so its ``service.request`` span nests
        under the span the caller has open (the gateway's
        ``service.gateway.request``).
        """
        self._bump("requests")
        try:
            slot = self.admission.admit()
        except OverloadError as exc:
            return _resolved(self._shed_response(request, exc))

        def work() -> ServiceResponse:
            with slot:
                return self._guarded_serve(request)

        def settle(fut: Future) -> None:
            # close(wait=False) cancels work still queued: it never ran,
            # so hand its slot back here and count it as rejected.
            if fut.cancelled():
                slot.__exit__(None, None, None)
                self._bump("rejected")

        try:
            fut = self._pool.submit(contextvars.copy_context().run, work)
        except RuntimeError as exc:  # pool shut down
            slot.__exit__(None, None, None)
            self._bump("rejected")
            return _resolved(ServiceResponse(
                request, "rejected", error=classify(exc),
                events=[_event(request.kernel, request.target,
                               "service-closed", str(exc))],
            ))
        fut.add_done_callback(settle)
        return fut

    def serve(self, requests) -> list:
        """Submit a batch concurrently; responses in request order."""
        futures = [self.submit(r) for r in requests]
        return [f.result() for f in futures]

    # -- surfaces -------------------------------------------------------------

    def health(self) -> dict:
        """Cheap liveness/pressure summary (the ``/healthz`` analogue)."""
        with self._breakers_lock:
            breakers = {t: b.state for t, b in self._breakers.items()}
        adm = self.admission.stats()
        status = "ok"
        if any(s != "closed" for s in breakers.values()):
            status = "degraded"
        if adm["depth"] >= adm["limit"]:
            status = "overloaded"
        return {
            "status": status,
            "uptime_s": time.monotonic() - self._started,
            "queue_depth": adm["depth"],
            "queue_limit": adm["limit"],
            "breakers": breakers,
            "cache_enabled": self.cache is not None,
        }

    def stats(self) -> dict:
        """Full counter census for dashboards and the soak artifact."""
        counts = self._counters.snapshot()
        with self._breakers_lock:
            breakers = {
                t: b.snapshot() for t, b in sorted(self._breakers.items())
            }
        out = {
            **counts,
            "admission": self.admission.stats(),
            "breakers": breakers,
            "cache": self.cache.stats() if self.cache is not None else None,
            "singleflight": self._singleflight.stats(),
        }
        served = counts["ok"] + counts["degraded"] + counts["stale"]
        out["served"] = served
        return out

    # -- internals ------------------------------------------------------------

    def _bump(self, key: str, n: int = 1) -> None:
        self._counters.bump(key, n)
        obs.count(f"service.{key}", n)

    def _shed_response(self, request, exc) -> ServiceResponse:
        self._bump("shed")
        resp = ServiceResponse(request, "shed", error=classify(exc))
        with obs.span("service.request", phase="service",
                      kernel=request.kernel, flow=request.flow,
                      target=request.target) as sp:
            sp.set(status="shed", error=resp.error)
            resp.span_id = getattr(sp, "span_id", None)
        return resp

    def _breaker(self, target: str) -> CircuitBreaker:
        with self._breakers_lock:
            b = self._breakers.get(target)
            if b is None:
                b = self._breakers[target] = CircuitBreaker(
                    self.breaker_threshold, self.breaker_cooldown
                )
            return b

    def _instance(self, kernel: str, size: int | None):
        if size is None:
            size = get_kernel(kernel).default_size
        with self._instances_lock:
            return self._instances(kernel, size)

    def _guarded_serve(self, request: ServiceRequest) -> ServiceResponse:
        """The no-traceback guarantee: anything the pipeline (or a bug in
        the service itself) throws becomes a classified rejection.

        Every pass through here is one ``service.request`` span; the
        compile/execute child spans (``jit`` / ``vm``) nest under it.
        """
        with obs.span("service.request", phase="service",
                      kernel=request.kernel, flow=request.flow,
                      target=request.target) as sp:
            try:
                resp = self._serve(request)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # pragma: no cover - defensive
                self._bump("internal_errors")
                self._bump("rejected")
                resp = ServiceResponse(
                    request, "rejected", error=classify(exc),
                    events=[_event(request.kernel, request.target,
                                   "internal-error",
                                   f"{classify(exc)}: {exc}")],
                )
            sp.set(status=resp.status, from_cache=resp.from_cache,
                   attempts=resp.attempts)
            if resp.coalesced:
                sp.set(coalesced=True)
            with self._breakers_lock:
                breaker = self._breakers.get(request.target)
            if breaker is not None:
                sp.set(breaker=breaker.state)
            if resp.error:
                sp.set(error=resp.error)
            if resp.events:
                sp.set(events=[e.cause for e in resp.events])
            resp.span_id = getattr(sp, "span_id", None)
        return resp

    def _serve(self, request: ServiceRequest) -> ServiceResponse:
        deadline = Deadline(request.deadline_s)
        # Request validation: malformed requests are rejected up front.
        if request.flow not in FLOWS:
            self._bump("rejected")
            return ServiceResponse(
                request, "rejected", error="bad-request",
                events=[_event(request.kernel, request.target, "bad-request",
                               f"unknown flow {request.flow!r}")],
            )
        try:
            get_target(request.target)
            inst = self._instance(request.kernel, request.size)
        except Exception as exc:
            self._bump("rejected")
            return ServiceResponse(
                request, "rejected", error="bad-request",
                events=[_event(request.kernel, request.target, "bad-request",
                               f"{type(exc).__name__}: {exc}")],
            )

        events: list = []
        breaker = self._breaker(request.target)
        primary_exc: Exception | None = None
        attempts = 0

        if breaker.allow():
            # From here this request may BE the half-open probe: every
            # exit path must settle the breaker.  Success and failure
            # record an outcome; any path that leaves without judging
            # the target (deadline expiry, KeyboardInterrupt, a bug in
            # the cascade dispatch below) must still free the probe slot
            # or the breaker wedges half-open forever — hence the
            # try/finally with the ``settled`` flag.
            settled = False
            try:
                try:
                    resp, attempts = self._attempt_with_retries(
                        request, inst, request.flow, request.target, deadline,
                        force_scalar=False,
                    )
                except DeadlineError as exc:
                    # Expiry is load, not target health: no breaker
                    # charge, and the cascade would only blow the budget
                    # further.  (The finally below releases the probe.)
                    self._bump("deadline_misses")
                    self._bump("rejected")
                    return ServiceResponse(
                        request, "rejected", error=classify(exc),
                        events=events, attempts=max(1, attempts),
                    )
                except Exception as exc:
                    primary_exc = exc
                    breaker.record_failure()
                    settled = True
                    events.append(_event(
                        request.kernel, request.target, "primary-failed",
                        f"{classify(exc)}: {exc}",
                    ))
                else:
                    breaker.record_success()
                    settled = True
                    self._remember_good(request, resp)
                    return self._finish(resp)
            finally:
                if not settled:
                    breaker.release_probe()
        else:
            self._bump("breaker_short_circuits")
            events.append(_event(
                request.kernel, request.target, "breaker-open",
                f"target {request.target!r} circuit is "
                f"{breaker.state}; primary attempt short-circuited",
            ))

        return self._cascade(
            request, inst, deadline, events, primary_exc, attempts
        )

    def _attempt_with_retries(
        self, request, inst, flow, target_name, deadline, force_scalar
    ):
        """(response, attempts) for one (flow, target) shape, retrying
        transient classified failures with jittered exponential backoff."""
        last: Exception | None = None
        attempts = 0
        for attempt in range(1, self.retries + 2):
            deadline.check(f"before attempt {attempt}")
            attempts = attempt
            if attempt > 1:
                self._bump("retries")
                with self._rng_lock:
                    delay = backoff_delay(
                        attempt - 1, base=self.backoff_base, cap=0.1,
                        rng=self._rng,
                    )
                rem = deadline.remaining()
                if rem is not None:
                    delay = min(delay, rem)
                if delay > 0:
                    time.sleep(delay)
            try:
                resp = self._attempt_once(
                    request, inst, flow, target_name, deadline, force_scalar
                )
                resp.attempts = attempt
                return resp, attempts
            except (KeyboardInterrupt, SystemExit, DeadlineError):
                raise
            except Exception as exc:
                last = exc
        assert last is not None
        raise last

    def _attempt_once(
        self, request, inst, flow, target_name, deadline, force_scalar
    ) -> ServiceResponse:
        target = get_target(target_name)
        ck, from_cache, coalesced = self._compiled(
            inst, flow, target, force_scalar, deadline=deadline
        )
        deadline.check("after compilation")
        result = self.runner.execute(inst, ck, flow, target)
        events = list(ck.events)
        status = "degraded" if events else "ok"
        return ServiceResponse(
            request, status, result=result, events=events,
            from_cache=from_cache, coalesced=coalesced,
        )

    # -- compile path (cache-fronted) ----------------------------------------

    def _cache_key(self, inst, flow, target, force_scalar=False):
        """(CacheKey, ir) for one request shape: the runner's canonical
        CRC of the IR ``flow`` compiles, plus the target and compiler."""
        ir, crc = self.runner.offline(inst.entry, inst.source, flow, target)
        compiler = FLOWS[flow][1].name
        if force_scalar:
            compiler += "+scalarized"
        return CacheKey(crc, target.name, compiler), ir

    def evict(self, kernel: str, flow: str, target: str,
              size: int | None = None, force_scalar: bool = False) -> bool:
        """Drop the persistent cache entry for one request shape.

        The operational cache-invalidation surface: True when an on-disk
        entry existed and was removed.  (Also what the chaos soak uses to
        force a real compile-and-put on a warm cache.)
        """
        if self.cache is None:
            return False
        inst = self._instance(kernel, size)
        key, _ir = self._cache_key(
            inst, flow, get_target(target), force_scalar
        )
        return self.cache.evict(key)

    def _compiled(self, inst, flow, target, force_scalar=False,
                  deadline=None):
        """(CompiledKernel, from_cache, coalesced) for one request shape.

        The IR and its CacheKey come from the runner's offline stage,
        which is built once per VaporC program: a new size of a kernel
        whose source does not embed the size re-runs no frontend,
        vectorizer or canonical print, and hits the same cache entry.

        The compile path is **single-flight**: a persistent-cache miss
        enters the per-CacheKey in-flight table.  The first requester
        (the *leader*) JIT-compiles — under no service-wide lock, so
        distinct keys compile genuinely in parallel — and only the
        leader writes the cache.  Concurrent requesters for the same key
        (*followers*) block on the leader's flight and share its
        CompiledKernel: N identical cold misses do exactly one compile
        instead of N (the classic cache stampede).  Followers honour
        their own deadline while waiting and share the leader's failure
        (one deterministic compile error answers the whole cohort; each
        request's retry loop then starts its own fresh flight).  A
        follower whose flight outlives :data:`FLIGHT_BUDGET_S` deposes
        the presumed-wedged leader and compiles for itself.

        Coalescing stops at the process: replicas sharing a cache
        directory may compile one key at once, and the atomic entry
        write makes the last one win harmlessly.
        """
        key, ir = self._cache_key(inst, flow, target, force_scalar)
        jit_cls = FLOWS[flow][1]
        with obs.span("jit", phase="jit", target=target.name,
                      compiler=jit_cls.name,
                      force_scalar=force_scalar) as sp:
            while True:
                if self.cache is not None:
                    ck = self.cache.get(key)
                    if ck is not None:
                        sp.set(cached=True)
                        return ck, True, False
                flight, leader = self._singleflight.begin(key)
                if leader:
                    return self._lead_flight(
                        key, ir, jit_cls, flight, target, force_scalar, sp,
                    )
                # Follower: coalesce onto the in-flight compile.
                obs.count("service.singleflight.follower")
                if self._await_flight(flight, deadline):
                    ck = flight.outcome()  # re-raises the leader's failure
                    sp.set(cached=False, coalesced=True)
                    if ck.degraded:
                        sp.set(degraded=True,
                               events=[e.cause for e in ck.events])
                    return ck, False, True
                # Compile-budget watchdog: the flight outlived our
                # patience without settling — its leader is presumed
                # crashed or wedged.  Depose it (identity-checked, so a
                # racing settle wins harmlessly) and loop: we re-check
                # the cache and then become the new leader, or follow
                # whoever beat us to it.
                self._bump("flight_usurps")
                obs.count("service.singleflight.usurped")
                self._singleflight.usurp(key, flight)

    def _lead_flight(self, key, ir, jit_cls, flight, target, force_scalar,
                     sp):
        """The leader's whole tenure: recheck, compile, publish, cache put.

        Everything below runs under flight ownership; ``end`` is
        deferred until *after* the cache put so that any straggler that
        missed the cache pre-put either joins this flight (begin before
        end) or re-checks the cache and hits (begin after end implies
        the put already landed).  Either way: exactly one compile per
        key per cohort, deterministic.  Any exit — including a bug in
        the code below — settles the flight, so followers are never
        stranded on a leader that died silently.
        """
        try:
            if self.cache is not None:
                ck = self.cache.get(key)
                if ck is not None:
                    # Lost the pre-begin race: a previous leader
                    # compiled and published between our cache miss
                    # and our begin().  Serve the artifact and hand
                    # it to any followers already parked on us.
                    flight.resolve(ck)
                    sp.set(cached=True)
                    return ck, True, False
            # Compile outside any global lock: distinct keys compile
            # in parallel.
            obs.count("service.singleflight.leader")
            try:
                ck = jit_cls().compile(ir, target, force_scalar=force_scalar)
            except BaseException as exc:
                flight.reject(exc)
                raise
            flight.resolve(ck)
            sp.set(cached=False, compile_seconds=ck.compile_seconds)
            if ck.degraded:
                sp.set(degraded=True,
                       events=[e.cause for e in ck.events])
            if self.cache is not None and not self._tainted(ck):
                # A failed write (ENOSPC, injected torn write) only
                # loses the cache benefit; the freshly compiled
                # kernel is still served.  Only the leader ever
                # writes: one put per key per cohort.  The put seeds
                # the hot tier with ck, so the first warm hit reuses
                # the translation this request makes.
                self.cache.put(key, ck)
            return ck, False, False
        except BaseException as exc:
            # Defensive: a failure anywhere in the leader region (cache
            # recheck, a service bug) must not strand parked followers
            # on an unsettled flight.
            if not flight.settled:
                flight.reject(exc)
            raise
        finally:
            self._singleflight.end(key, flight)

    @staticmethod
    def _await_flight(flight, deadline) -> bool:
        """Block on a leader's flight; True when it settled.

        Honours the follower's own deadline (raising
        :class:`DeadlineError` on expiry) *and* :data:`FLIGHT_BUDGET_S`:
        False means the budget ran out on an unsettled flight — the
        caller's cue to usurp the presumed-dead leader instead of
        waiting forever (deadline-less requests used to hang here if a
        leader crashed between ``begin`` and ``reject``).
        """
        limit = time.monotonic() + FLIGHT_BUDGET_S
        while True:
            timeout = max(0.0, limit - time.monotonic())
            if deadline is not None:
                rem = deadline.remaining()
                if rem is not None:
                    timeout = min(timeout, rem)
            if flight.wait(timeout=timeout):
                return True
            if deadline is not None:
                # remaining() clamps at 0.0, so once expired check() raises.
                deadline.check("while waiting for the coalesced compile")
            if time.monotonic() >= limit:
                return False

    @staticmethod
    def _tainted(ck) -> bool:
        """Must this artifact be kept out of the persistent cache?

        A kernel that degraded *while a fault plan was installed* (or
        whose events record an injected cause) reflects the fault, not
        the toolchain — persisting it would serve a needlessly
        scalarized artifact long after the fault cleared, the exact
        cached-artifact rot Revec warns about.  Genuine deterministic
        degradations (e.g. AltiVec's unsupported unaligned store) are
        cacheable: they reproduce identically on recompile.
        """
        if any(e.cause == "fault-injected" for e in ck.events):
            return True
        return ck.degraded and faults.active_plan() is not None

    # -- the degradation cascade ---------------------------------------------

    def _cascade(
        self, request, inst, deadline, events, primary_exc, attempts
    ) -> ServiceResponse:
        """native target -> forced-scalar retry -> stale cache ->
        classified rejection.  Every step leaves a DegradationEvent."""
        root = (
            f"{classify(primary_exc)}: {primary_exc}"
            if primary_exc is not None
            else "breaker open"
        )

        # Step 1: the always-available monolithic scalar flow.
        if (request.flow, request.target) != ("native_scalar", "scalar"):
            try:
                deadline.check("before native fallback")
                resp = self._attempt_once(
                    request, inst, "native_scalar", "scalar", deadline,
                    force_scalar=False,
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:
                events.append(_event(
                    request.kernel, "scalar", "native-fallback-failed",
                    f"{classify(exc)}: {exc}",
                ))
            else:
                events.append(_event(
                    request.kernel, "scalar", "native-fallback",
                    f"served via native_scalar/scalar after: {root}",
                ))
                resp.status = "degraded"
                resp.events = events + resp.events
                return self._finish(resp)

        # Step 2: requested shape, every loop group force-scalarized.
        try:
            deadline.check("before forced-scalar retry")
            resp = self._attempt_once(
                request, inst, request.flow, request.target, deadline,
                force_scalar=True,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            events.append(_event(
                request.kernel, request.target, "forced-scalar-failed",
                f"{classify(exc)}: {exc}",
            ))
        else:
            events.append(_event(
                request.kernel, request.target, "forced-scalar",
                f"served with all groups scalarized after: {root}",
            ))
            resp.status = "degraded"
            resp.events = events + resp.events
            return self._finish(resp)

        # Step 3: last known-good result for this exact request shape.
        with self._stale_lock:
            stale = self._stale.get(self._stale_key(request))
        if stale is not None:
            events.append(_event(
                request.kernel, request.target, "stale-cache",
                f"re-serving last known-good result after: {root}",
            ))
            return self._finish(ServiceResponse(
                request, "stale", result=replace(stale), events=events,
            ))

        # Step 4: classified rejection — the fail-soft floor.
        exc = primary_exc if primary_exc is not None else CircuitOpenError(
            request.target, "degradation cascade exhausted"
        )
        self._bump("degradation_events", len(events))
        self._bump("rejected")
        return ServiceResponse(
            request, "rejected", error=classify(exc), events=events,
            attempts=max(1, attempts),
        )

    def _stale_key(self, request) -> tuple:
        return (request.kernel, request.size, request.flow, request.target)

    def _remember_good(self, request, resp) -> None:
        if resp.result is not None and resp.result.checked:
            key = self._stale_key(request)
            with self._stale_lock:
                self._stale.pop(key, None)  # re-store moves it to the end
                self._stale[key] = resp.result
                if len(self._stale) > MAX_INSTANCES:
                    del self._stale[next(iter(self._stale))]

    def _finish(self, resp: ServiceResponse) -> ServiceResponse:
        self._bump(resp.status)
        if resp.events:
            self._bump("degradation_events", len(resp.events))
        return resp
