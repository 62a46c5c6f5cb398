"""The resilient JIT compilation service: ``repro.service.KernelService``.

The paper's split model makes the online stage cheap enough to run
*everywhere, all the time* — which at ROADMAP scale means a long-running,
multi-threaded service accepting (kernel, flow, target) compile/run
requests.  This module composes the resilience primitives of the package
into that service:

* **admission** (:mod:`.admission`) — a bounded in-flight counter sheds
  excess load with a classified :class:`OverloadError` instead of
  queueing unboundedly; per-request :class:`Deadline`\\ s are enforced at
  every pipeline stage and propagated into the parallel sweep harness.
* **kernel cache** (:mod:`.cache`) — compiled artifacts are persisted
  crash-safely and served on later requests; corrupt entries self-heal
  (quarantine → recompile → overwrite).
* **circuit breakers** (:mod:`.breaker`) — one per target; a target whose
  compiles keep failing is short-circuited so requests stop burning
  retry budget on it.
* **retries** — transient failures are retried with the harness's
  jittered exponential :func:`~repro.harness.parallel.backoff_delay`
  before degrading.
* **compile farm** (:mod:`.farm`) — with ``farm_workers > 0`` the
  single-flight leader dispatches each cold compile to a persistent
  worker-*process* pool instead of compiling under the GIL, so N
  distinct misses compile on N cores; with a shared ``cache_dir``,
  leadership coalesces *across replicas* through advisory TTL markers,
  and a per-flight compile-budget watchdog reroutes any flight whose
  leader (thread, worker, or foreign replica) crashes or wedges.

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

import functools
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .. import faults, obs
from ..errors import classify
from ..harness.flows import FLOWS, FlowResult, FlowRunner
from ..harness.parallel import backoff_delay, run_cells
from ..jit.materialize import DegradationEvent
from ..kernels import get_kernel
from ..machine.registry import DEFAULT_ENGINE
from ..targets import get_target
from .admission import AdmissionQueue, Deadline, DeadlineError, OverloadError
from .breaker import CircuitBreaker, CircuitOpenError
from .cache import CacheKey, KernelCache, unpack_kernel
from .farm import CompileFarm, CompileJob, FarmError
from .singleflight import SingleFlight

__all__ = ["ServiceRequest", "ServiceResponse", "KernelService"]

#: Most kernel instances (inputs plus numpy reference results) one service
#: keeps, least recently used out first.  Rebuilding an evicted instance
#: is deterministic, so the bound costs time, never answers.
MAX_INSTANCES = 128


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
        farm_workers: int = 0,
        farm_budget_s: float | None = 30.0,
        replica_coalesce: bool = True,
        marker_ttl_s: float = 10.0,
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
        #: per-flight compile budget (seconds): bounds a farm dispatch,
        #: a follower's patience on an unsettled flight, and the wait on
        #: a foreign replica's leader marker.  None disables watchdogs.
        self.farm_budget_s = farm_budget_s
        self.replica_coalesce = bool(replica_coalesce)
        self.marker_ttl_s = float(marker_ttl_s)
        self._runner_config = self.runner.config()
        # The farm forks eagerly, BEFORE any service thread exists (the
        # request pool below spawns its threads lazily on first submit),
        # so workers never inherit a mid-transaction lock.
        self._farm = (
            CompileFarm(farm_workers, budget_s=farm_budget_s)
            if int(farm_workers) > 0
            else None
        )
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
            "farm_dispatches",
            "farm_fallbacks",
            "flight_usurps",
            "replica_waits",
            "replica_hits",
        ])
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut down the worker pool and the compile farm.

        The farm teardown sits in a ``finally`` so an interrupt (Ctrl-C
        lands in ``shutdown(wait=True)`` far more often than anywhere
        else) can never skip it and orphan worker processes; pass
        ``wait=False`` to skip waiting for queued thread work entirely.
        """
        if not self._closed:
            self._closed = True
            try:
                self._pool.shutdown(wait=wait, cancel_futures=not wait)
            finally:
                if self._farm is not None:
                    self._farm.close()

    def farm_worker_pids(self) -> list[int]:
        """PIDs of live compile-farm workers ([] without a farm)."""
        if self._farm is None:
            return []
        return self._farm.worker_pids()

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

        Admission is charged *now* — at submission — so a flood of
        submissions past ``queue_limit`` is shed immediately (the future
        resolves to a ``shed`` response) instead of parking unboundedly
        in the executor queue.
        """
        self._bump("requests")
        try:
            slot = self.admission.admit()
        except OverloadError as exc:
            fut: Future = Future()
            fut.set_result(self._shed_response(request, exc))
            return fut

        def work() -> ServiceResponse:
            with slot:
                return self._guarded_serve(request)

        try:
            return self._pool.submit(work)
        except RuntimeError as exc:  # pool shut down
            slot.__exit__(None, None, None)
            fut = Future()
            fut.set_result(
                ServiceResponse(
                    request, "rejected", error=classify(exc),
                    events=[_event(request.kernel, request.target,
                                   "service-closed", str(exc))],
                )
            )
            return fut

    def serve(self, requests) -> list:
        """Submit a batch concurrently; responses in request order."""
        futures = [self.submit(r) for r in requests]
        return [f.result() for f in futures]

    def sweep(self, cells, deadline_s: float | None = None, **kwargs):
        """Run a parallel experiment sweep with the request deadline
        propagated into :func:`repro.harness.parallel.run_cells` (the
        remaining budget tightens every cell's timeout)."""
        deadline = Deadline(deadline_s)
        return run_cells(cells, deadline=deadline, **kwargs)

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
            "farm": self._farm.stats() if self._farm is not None else None,
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
        result = self._execute(inst, ck, flow, target)
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
        request's retry loop then starts its own fresh flight).

        With a :class:`CompileFarm` the leader *dispatches* instead of
        compiling inline, so distinct keys compile in distinct worker
        processes — genuinely on distinct cores, no GIL.  With a shared
        cache directory, leadership extends *across replicas* through
        advisory TTL markers (see ``KernelCache.claim_leader``).  Both
        layers are guarded by the per-flight compile-budget watchdog:
        a follower whose flight outlives ``farm_budget_s`` usurps the
        presumed-dead leader and reroutes the compile, and a leader
        waiting on a foreign replica's fresh-but-silent marker reclaims
        leadership the same way.
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
                        key, ir, jit_cls, flight, inst, flow, target,
                        force_scalar, deadline, sp,
                    )
                # Follower: coalesce onto the in-flight compile.
                obs.count("service.singleflight.follower")
                if self._await_flight(flight, deadline, self.farm_budget_s):
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

    def _lead_flight(self, key, ir, jit_cls, flight, inst, flow, target,
                     force_scalar, deadline, sp):
        """The leader's whole tenure: recheck, cross-replica claim,
        compile (farm or inline), publish, cache put.

        Everything below runs under flight ownership; ``end`` is
        deferred until *after* the cache put so that any straggler that
        missed the cache pre-put either joins this flight (begin before
        end) or re-checks the cache and hits (begin after end implies
        the put already landed).  Either way: exactly one compile per
        key per cohort, deterministic.  Any exit — including a bug in
        the dispatch below — settles the flight, so followers are never
        stranded on a leader that died silently.
        """
        token = None
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
                if self.replica_coalesce:
                    claimed = self._claim_replica_lead(
                        key, flight, deadline, sp
                    )
                    if not isinstance(claimed, str):
                        return claimed  # served from a replica's compile
                    token = claimed
            # Compile outside any global lock: distinct keys compile
            # genuinely in parallel (farm workers: on distinct cores).
            obs.count("service.singleflight.leader")
            try:
                ck, envelope = self._jit_compile(
                    key, ir, jit_cls, inst, flow, target, force_scalar, sp
                )
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
                # writes: one put per key per cohort — and a farm
                # compile persists the worker's exact envelope bytes.
                if envelope is not None:
                    self.cache.put_bytes(key, envelope)
                else:
                    self.cache.put(key, ck)
            return ck, False, False
        except BaseException as exc:
            # Defensive: a failure anywhere in the leader region (cache
            # recheck, marker I/O, a service bug) must not strand parked
            # followers on an unsettled flight.
            if not flight.settled:
                flight.reject(exc)
            raise
        finally:
            if token is not None and self.cache is not None:
                self.cache.release_leader(key, token)
            self._singleflight.end(key, flight)

    #: poll interval while waiting on a foreign replica's leader marker.
    _MARKER_POLL_S = 0.02

    def _claim_replica_lead(self, key, flight, deadline, sp):
        """Claim cross-replica leadership, or wait out whoever holds it.

        Returns the marker token (str) once this service owns the
        compile for ``key`` — possibly after a TTL/budget takeover from
        a dead replica — or the full ``(ck, True, False)`` result triple
        when the foreign leader published first and we served its
        artifact straight from the shared cache.
        """
        token = self.cache.claim_leader(key, self.marker_ttl_s)
        if token is not None:
            return token
        # A foreign replica holds a fresh marker: wait-and-read.  Our
        # patience is the compile budget; past it we forcibly reclaim
        # leadership (the marker looked fresh but its owner may be
        # wedged — the watchdog rule is the same as for local flights).
        self._bump("replica_waits")
        budget = self.farm_budget_s
        limit = None if budget is None else time.monotonic() + budget
        while token is None:
            time.sleep(self._MARKER_POLL_S)
            ck = self.cache.get(key)
            if ck is not None:
                self._bump("replica_hits")
                obs.count("farm.replica_hits")
                flight.resolve(ck)
                sp.set(cached=True, replica=True)
                return ck, True, False
            if deadline is not None:
                deadline.check("while waiting for a replica's compile")
            force = limit is not None and time.monotonic() >= limit
            token = self.cache.claim_leader(
                key, self.marker_ttl_s, force=force
            )
        return token

    def _jit_compile(self, key, ir, jit_cls, inst, flow, target,
                     force_scalar, sp):
        """(CompiledKernel, envelope-bytes-or-None) for one compile.

        With a farm, the leader dispatches and gets back the packed VBK1
        envelope (reused verbatim for the cache put); a *dispatch*
        failure (worker crash/stall — :class:`FarmError`) falls back to
        compiling inline, so farm faults cost latency, never answers.  A
        *compile* failure inside the worker arrives reclassified as the
        same error the inline path would raise and propagates to the
        retry/cascade machinery unchanged.
        """
        if self._farm is not None:
            job = CompileJob(
                key=key, kernel=inst.name, size=inst.size, flow=flow,
                target=target.name, force_scalar=bool(force_scalar),
                runner_kwargs=self._runner_config,
                plan=faults.active_plan(),
            )
            self._bump("farm_dispatches")
            try:
                envelope = self._farm.compile(job)
            except FarmError as exc:
                self._bump("farm_fallbacks")
                obs.count("farm.inline_fallbacks")
                sp.set(farm_fallback=exc.kind)
            else:
                ck = unpack_kernel(envelope)
                self._mirror_compile_obs(ck)
                sp.set(farm=True)
                return ck, envelope
        return jit_cls().compile(ir, target, force_scalar=force_scalar), None

    @staticmethod
    def _mirror_compile_obs(ck) -> None:
        """Re-emit the ``jit.*`` metrics for a farm compile in *this*
        process (the worker's own emissions died with its memory), so
        dashboards and the identical-mix benchmark see exactly one
        ``jit.compiles`` per cold compile regardless of where it ran."""
        obs.count("jit.compiles")
        obs.count("jit.loops_vectorized", ck.stats.get("loops_vectorized", 0))
        obs.count("jit.loops_scalarized", ck.stats.get("loops_scalarized", 0))
        obs.count("jit.degradation_events", len(ck.events))
        if ck.events:
            obs.count("jit.degraded_compiles")
        obs.observe("jit.compile_seconds", ck.compile_seconds)

    @staticmethod
    def _await_flight(flight, deadline, budget_s=None) -> bool:
        """Block on a leader's flight; True when it settled.

        Honours the follower's own deadline (raising
        :class:`DeadlineError` on expiry, as before) *and* the per-flight
        compile budget: False means the budget ran out on an unsettled
        flight — the caller's cue to usurp the presumed-dead leader
        instead of waiting forever (deadline-less requests used to hang
        here if a leader crashed between ``begin`` and ``reject``).
        """
        limit = None if budget_s is None else time.monotonic() + budget_s
        while True:
            timeout = None if deadline is None else deadline.remaining()
            if limit is not None:
                rem = max(0.0, limit - time.monotonic())
                timeout = rem if timeout is None else min(timeout, rem)
            if flight.wait(timeout=timeout):
                return True
            if deadline is not None:
                # remaining() clamps at 0.0, so once expired check() raises.
                deadline.check("while waiting for the coalesced compile")
            if limit is not None and time.monotonic() >= limit:
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
        from .. import faults as _faults

        if any(e.cause == "fault-injected" for e in ck.events):
            return True
        return ck.degraded and _faults.active_plan() is not None

    def _execute(self, inst, ck, flow, target) -> FlowResult:
        # A method of its own so a subclass can wrap execution (the
        # concurrency bench's global-lock baseline does).
        return self.runner.execute(inst, ck, flow, target)

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
            with self._stale_lock:
                self._stale[self._stale_key(request)] = resp.result

    def _finish(self, resp: ServiceResponse) -> ServiceResponse:
        self._bump(resp.status)
        if resp.events:
            self._bump("degradation_events", len(resp.events))
        return resp
