"""The compile farm: a cross-process fabric for the service's JIT work.

PR 5 bought the service single-flight coalescing and scoped locks, and
the benchmark promptly showed the ceiling: with a pure-Python online
compiler every "parallel" compile still serializes on the interpreter
lock, so 8 worker *threads* deliver ~1× aggregate compile throughput on
distinct keys.  The paper's economics — one expensive offline
vectorization, then a cheap JIT *everywhere* — need that JIT step to
scale with cores, not with one GIL.

So the leader stops compiling inline and **dispatches**:

* A persistent pool of worker *processes* is spawned eagerly per
  :class:`CompileFarm` (warm: each worker imports :mod:`repro.jit` and
  builds its :class:`~repro.harness.flows.FlowRunner` up front), so
  dispatch latency is one pickled :class:`CompileJob`, not a fork+import.
* A job carries the request *shape* (kernel, size, flow, target,
  force_scalar) plus the process-stable
  :class:`~repro.service.cache.CacheKey` the leader computed.  The
  worker renders the kernel's VaporC source for the size and asks its
  runner's offline stage (:meth:`~repro.harness.flows.FlowRunner.offline`,
  the same call the leader keyed with, memoized by source) for the IR
  and its canonical CRC, **verifies the CRC matches the job's key** (a
  divergent worker toolchain must fail loudly, never poison the cache),
  compiles, and ships back the packed VBK1 envelope — the exact bytes
  the cache stores, so warm responses stay byte-identical to cold ones
  with no re-serialization.
* Failures come back *classified*: a compile error inside the worker is
  reconstructed in the leader with the same
  :func:`repro.errors.classify` tag (including the ``[injected]``
  marker), so retries, breakers, and the degradation cascade behave
  exactly as they would for an inline compile.
* A worker that dies mid-job (:class:`~repro.faults.WorkerCrash`, real
  segfault, OOM-kill) breaks the pool: the farm hard-kills and rebuilds
  it, then reports a :class:`FarmError` (``worker-crash``) for the job —
  the service reroutes that compile inline, so one dead worker costs one
  compile's latency, never a wrong answer or a torn cache entry.  A job
  that overruns its compile budget (:class:`~repro.faults.WorkerStall`,
  wedged worker) is treated the same way under ``worker-stall``.

The farm also ships the active :class:`~repro.faults.FaultPlan` with
every job, so seeded chaos campaigns reach *inside* the worker
processes: crash/stall faults fire at the dispatch boundary and compile
faults fire in the worker's JIT, deterministically.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context

from .. import faults, obs
from ..errors import FaultInjected, ReproError, classify
from .cache import CacheKey, pack_kernel

__all__ = ["CompileJob", "CompileFarm", "FarmError"]


class FarmError(ReproError):
    """A compile-farm dispatch that could not produce an artifact.

    Attributes:
        kind: machine-readable tag — ``"worker-crash"`` (the worker
            process died mid-compile), ``"worker-stall"`` (the compile
            budget expired on a wedged worker), ``"key-mismatch"`` (the
            worker's rebuilt IR hashed differently from the job's
            CacheKey — toolchain skew), ``"remote"`` (an unclassified
            error inside the worker), or ``"closed"`` (dispatch after
            shutdown).

    The service treats a FarmError as a *dispatch* failure, not a kernel
    failure: the leader falls back to compiling inline, so farm faults
    degrade throughput, never correctness.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"[{kind}] {message}")
        self.kind = kind


@dataclass(frozen=True)
class CompileJob:
    """One JIT compile, described portably enough to run in any worker.

    The job ships the request *shape* plus the leader's
    :class:`CacheKey`; the worker rebuilds the IR from kernel source and
    refuses to compile if its canonical CRC disagrees with
    ``key.bytecode_crc`` (see :class:`FarmError` ``key-mismatch``).
    ``runner_kwargs`` reproduce the service's FlowRunner configuration
    (vectorizer overrides change the IR, hence the key); ``plan`` arms
    the worker's fault-injection points for seeded chaos campaigns.
    """

    key: CacheKey
    kernel: str
    size: int | None
    flow: str
    target: str
    force_scalar: bool = False
    runner_kwargs: dict | None = None
    plan: object | None = None


# -- worker-process state ------------------------------------------------------

_W_RUNNERS: dict = {}


#: how often a farm worker checks that its parent service is alive.
_PARENT_WATCH_INTERVAL_S = 0.5


def _watch_parent() -> None:
    """Worker-side dead-man's switch: exit when the parent dies.

    ``atexit`` and ``close()`` reap workers on every *polite* teardown,
    but a ``kill -9`` of the service process runs neither — and a
    fork-spawned pool worker blocked on its job queue would sit orphaned
    forever (the queue's write end survives in sibling workers, so no
    EOF ever arrives).  A daemon thread polls ``os.getppid()`` instead:
    when the parent dies the worker is reparented (to init or a
    subreaper), the ppid changes, and the worker hard-exits.  This is
    what makes the fleet invariant — *zero leaked farm workers after a
    replica SIGKILL* — true by construction rather than by cleanup.
    """
    parent = os.getppid()

    def watch() -> None:
        while True:
            if os.getppid() != parent:
                os._exit(0)
            time.sleep(_PARENT_WATCH_INTERVAL_S)

    threading.Thread(
        target=watch, name="repro-farm-parent-watch", daemon=True
    ).start()


def _warm_worker() -> None:
    """Pool initializer: pay the import bill at spawn time, not on the
    first dispatched job, and arm the parent-death watchdog."""
    from .. import jit  # noqa: F401  (imported for its side effects)
    from ..harness import flows  # noqa: F401

    _watch_parent()


def _w_runner(runner_kwargs: dict | None):
    from ..harness.flows import FlowRunner

    key = tuple(sorted((runner_kwargs or {}).items(), key=lambda kv: kv[0]))
    key = repr(key)
    runner = _W_RUNNERS.get(key)
    if runner is None:
        runner = _W_RUNNERS[key] = FlowRunner(**(runner_kwargs or {}))
    return runner


def _run_job(job: CompileJob):
    """Execute one compile job inside a worker process.

    Returns ``("ok", envelope_bytes)`` or ``("error", tag, injected,
    message)`` — errors are *described*, not raised, because a pickled
    exception round-trip loses multi-arg constructors; the leader
    reconstructs an exception that classifies identically.
    """
    from ..harness.flows import FLOWS
    from ..kernels import get_kernel
    from ..targets import get_target

    if job.plan is not None:
        faults.install(job.plan)
    else:
        faults.uninstall()
    fault = faults.worker_fault(job.kernel, job.flow)
    if fault is not None:
        if isinstance(fault, faults.WorkerCrash):
            import os

            os._exit(fault.exit_code)  # simulated segfault: no reply
        if isinstance(fault, faults.WorkerStall):
            time.sleep(fault.seconds)
    try:
        kernel = get_kernel(job.kernel)
        size = kernel.default_size if job.size is None else job.size
        target = get_target(job.target)
        ir, crc = _w_runner(job.runner_kwargs).offline(
            kernel.entry, kernel.source_fn(size), job.flow, target
        )
        if crc != job.key.bytecode_crc:
            raise FarmError(
                "key-mismatch",
                f"worker IR for {job.kernel}/{job.flow} hashed to "
                f"0x{crc:08x}, leader keyed 0x{job.key.bytecode_crc:08x} "
                f"— toolchain skew, refusing to poison the cache",
            )
        ck = FLOWS[job.flow][1]().compile(
            ir, target, force_scalar=job.force_scalar
        )
        return ("ok", pack_kernel(ck))
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        return (
            "error",
            classify(exc),
            isinstance(exc, FaultInjected),
            f"{type(exc).__name__}: {exc}",
        )


def _reraise_remote(tag: str, injected: bool, message: str) -> None:
    """Rebuild a worker-side failure so :func:`classify` agrees.

    The base class named by ``tag`` is resolved from the
    :mod:`repro.errors` catalogue; injected faults get a dynamic
    ``(base, FaultInjected)`` hybrid so the ``[injected]`` marker
    survives the process boundary.  Unclassified worker errors become
    ``FarmError`` (``remote``) — a farm problem by definition.
    """
    from .. import errors

    base = tag.split("[", 1)[0]
    if base == "FarmError":
        cls: type = FarmError
    elif base in errors._HOMES:
        cls = getattr(errors, base)
    else:
        raise FarmError("remote", f"unclassified worker failure: {message}")
    if injected and not issubclass(cls, FaultInjected):
        cls = type(f"Remote{base}", (cls, FaultInjected), {})
    exc = cls.__new__(cls)
    Exception.__init__(exc, message)
    if isinstance(exc, FarmError):
        exc.kind = "remote"
    raise exc


class CompileFarm:
    """A persistent, rebuildable pool of compile-worker processes.

    Spawned **eagerly** (workers fork and warm at construction, before
    the service's request threads exist — forking a threaded process is
    the classic deadlock recipe) and owned by one
    :class:`~repro.service.core.KernelService`.  ``compile`` dispatches
    one :class:`CompileJob` and blocks the calling leader thread — which
    holds no lock and shares the GIL freely — until the worker replies,
    so N leader threads drive N workers compiling on N cores.

    Crash/stall recovery keeps the farm available: a broken pool is
    hard-killed and respawned (``rebuilds`` counter) and the failed job
    is reported as a classified :class:`FarmError` for the service to
    reroute inline.  ``budget_s`` is the per-dispatch compile budget the
    watchdog enforces; ``None`` disables it (trusting workers never to
    wedge, which chaos campaigns demonstrate is optimism).
    """

    def __init__(self, workers: int, budget_s: float | None = 30.0) -> None:
        self.workers = max(1, int(workers))
        self.budget_s = budget_s
        self._ctx = get_context("fork")
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self.dispatched = 0
        self.completed = 0
        self.crashes = 0
        self.stalls = 0
        self.rebuilds = 0
        self._spawn()
        # A farm that outlives its owner must not outlive the process:
        # if the service is torn down by KeyboardInterrupt/SIGTERM before
        # close() runs, this hook hard-kills the workers at interpreter
        # exit instead of leaving orphaned compile processes behind.
        atexit.register(self._kill)

    # -- pool lifecycle --------------------------------------------------------

    def _spawn(self) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._ctx,
            initializer=_warm_worker,
        )
        # Force the workers into existence now (ProcessPoolExecutor
        # spawns lazily on first submit): map a no-op over the pool.
        for fut in [
            self._pool.submit(_warm_probe) for _ in range(self.workers)
        ]:
            try:
                fut.result(timeout=60.0)
            except Exception:
                break  # degraded spawn; first dispatch will surface it

    def _kill(self) -> None:
        """Hard-kill the pool: stuck or dead workers cannot be joined."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values())
        for p in procs:
            try:
                p.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for p in procs:
            try:
                p.join(timeout=5.0)
            except Exception:
                pass

    def _rebuild(self) -> None:
        self._kill()
        if not self._closed:
            self.rebuilds += 1
            obs.count("farm.rebuilds")
            self._spawn()

    def close(self) -> None:
        self._closed = True
        self._kill()
        atexit.unregister(self._kill)

    def worker_pids(self) -> list[int]:
        """PIDs of the current worker processes (for leak auditing).

        The gateway's ``stats`` verb and the chaos campaign's
        leaked-workers invariant both read this: after ``close()`` every
        PID listed here must be dead.
        """
        pool = self._pool
        if pool is None:
            return []
        return sorted(
            p.pid for p in getattr(pool, "_processes", {}).values()
            if p.pid is not None
        )

    # -- dispatch --------------------------------------------------------------

    def compile(self, job: CompileJob, budget_s: float | None = None):
        """Compile ``job`` in a worker; returns the VBK1 envelope bytes.

        Raises a reconstructed classified error when the *compile*
        failed (same tag the inline path would raise), or
        :class:`FarmError` when the *dispatch* failed — worker crash,
        budget overrun (``budget_s`` overrides the farm default for this
        call), or a closed farm.
        """
        if self._closed or self._pool is None:
            raise FarmError("closed", "compile farm is shut down")
        budget = self.budget_s if budget_s is None else budget_s
        self.dispatched += 1
        obs.count("farm.dispatched")
        start = time.perf_counter()
        with obs.span(
            "service.farm.dispatch", phase="service", kernel=job.kernel,
            flow=job.flow, target=job.target, workers=self.workers,
        ) as sp:
            try:
                fut = self._pool.submit(_run_job, job)
            except (RuntimeError, BrokenProcessPool) as exc:
                sp.set(outcome="worker-crash")
                self.crashes += 1
                obs.count("farm.crashes")
                self._rebuild()
                raise FarmError(
                    "worker-crash", f"pool rejected dispatch: {exc}"
                ) from exc
            try:
                reply = fut.result(timeout=budget)
            except FutureTimeoutError:
                sp.set(outcome="worker-stall")
                self.stalls += 1
                obs.count("farm.stalls")
                self._rebuild()
                raise FarmError(
                    "worker-stall",
                    f"{job.kernel}/{job.flow} on {job.target}: compile "
                    f"budget of {budget}s expired; worker killed",
                ) from None
            except (BrokenProcessPool, OSError, EOFError) as exc:
                sp.set(outcome="worker-crash")
                self.crashes += 1
                obs.count("farm.crashes")
                self._rebuild()
                raise FarmError(
                    "worker-crash",
                    f"{job.kernel}/{job.flow} on {job.target}: worker died "
                    f"mid-compile ({type(exc).__name__})",
                ) from exc
            elapsed = time.perf_counter() - start
            if reply[0] == "ok":
                self.completed += 1
                obs.count("farm.completed")
                obs.observe("farm.dispatch_seconds", elapsed)
                sp.set(outcome="ok", dispatch_seconds=elapsed)
                return reply[1]
            _status, tag, injected, message = reply
            sp.set(outcome="error", error=tag)
            obs.count("farm.remote_errors")
            _reraise_remote(tag, injected, message)

    # -- surfaces --------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "workers": self.workers,
            "budget_s": self.budget_s,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "crashes": self.crashes,
            "stalls": self.stalls,
            "rebuilds": self.rebuilds,
        }


def _warm_probe() -> bool:
    """No-op submitted at spawn to force worker creation and verify the
    warm imports succeeded."""
    return True
