"""Process-parallel experiment sweeps, hardened for the fail-soft story.

An experiment is a map over *cells* — (kernel, flow, target, size)
tuples — each producing one :class:`~repro.harness.flows.FlowResult`.
Cells are independent (the VM is deterministic and every worker builds
its own :class:`FlowRunner`), so the sweep parallelizes across processes
with :class:`concurrent.futures.ProcessPoolExecutor`.

Determinism: results are returned in *input cell order* regardless of
completion order, kernel instantiation is seeded, and the VM has no
timing noise — so a report generated with ``jobs=N`` is byte-identical
to ``jobs=1``.  Only the per-cell wall-clock timings (reported
separately) differ between runs.

Resilience (the hardened part):

* a cell that raises inside a worker comes back as an error-annotated
  :class:`CellResult` (``result=None``, ``error``/``error_kind`` set) —
  the sweep completes and only the faulty cell is quarantined;
* a worker that *dies* (segfault-style, simulated by
  :class:`~repro.faults.WorkerCrash`) breaks the process pool — the pool
  is torn down and rebuilt, the in-flight cells are re-run in
  **isolation mode** (one at a time) so the crasher is blamed
  deterministically and innocent neighbours are not charged attempts;
* a cell that overruns ``timeout`` seconds (simulated by
  :class:`~repro.faults.WorkerStall`) has its pool killed and is charged
  an attempt;
* charged failures are retried up to ``retries`` times with linear
  backoff before the cell is quarantined;
* ``KeyboardInterrupt`` propagates promptly: worker processes are
  terminated and the pool is shut down in a ``finally:`` block, so no
  children are orphaned.

Worker processes keep a per-process :class:`FlowRunner` (compilation
caches) and a per-process kernel-instance cache, so cells should be
ordered kernel-major to maximize cache reuse.  A ``fault_plan``
(:class:`~repro.faults.FaultPlan`) ships to every worker through the
pool initializer, arming all injection points inside the worker.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from .. import faults, obs
from ..errors import ReproError, classify
from ..kernels import get_kernel
from .flows import FlowResult, FlowRunner

__all__ = ["Cell", "CellResult", "CellError", "backoff_delay", "run_cells"]


def backoff_delay(
    attempt: int, base: float = 0.05, cap: float = 1.0, rng=None
) -> float:
    """Jittered exponential backoff delay for re-attempt ``attempt``.

    ``base * 2**(attempt-1)`` capped at ``cap``, scaled by a uniform
    jitter in ``[0.5, 1.0)`` so a thundering herd of retries decorrelates.
    This is the one retry policy of the toolchain: :func:`run_cells` uses
    it between cell re-attempts and
    :class:`repro.service.KernelService` uses it between request retries
    (pass a seeded ``rng`` for deterministic campaigns).
    """
    if attempt <= 0 or base <= 0:
        return 0.0
    span = min(float(cap), float(base) * (2.0 ** (attempt - 1)))
    r = (rng or random).random()
    return span * (0.5 + 0.5 * r)


class CellError(ReproError):
    """A sweep cell that could not produce a result: the wrapped worker
    failure (classified), a worker crash, or a deadline overrun.

    Attributes:
        kind: machine-readable tag — ``"worker-crash"``, ``"timeout"``,
            or the :func:`repro.errors.classify` tag of the underlying
            exception.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"[{kind}] {message}")
        self.kind = kind


@dataclass(frozen=True)
class Cell:
    """One (kernel x flow x target) execution of an experiment sweep."""

    kernel: str
    flow: str
    target: str
    size: int | None = None


@dataclass
class CellResult:
    """A cell's flow result plus its wall-clock cost (compile + run).

    A quarantined cell carries ``result=None`` with ``error`` (human
    readable) and ``error_kind`` (machine readable) set; ``attempts`` is
    the number of tries consumed (1 for a first-try success).
    """

    cell: Cell
    result: FlowResult | None
    seconds: float
    error: str | None = None
    error_kind: str | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.result is not None


# -- worker-process state -----------------------------------------------------

_RUNNER: FlowRunner | None = None
_INSTANCES: dict = {}


def _init_worker(runner_kwargs: dict, fault_plan=None) -> None:
    global _RUNNER
    _RUNNER = FlowRunner(**runner_kwargs)
    _INSTANCES.clear()
    if fault_plan is not None:
        faults.install(fault_plan)
    else:
        faults.uninstall()


def _instance(name: str, size: int | None):
    key = (name, size)
    inst = _INSTANCES.get(key)
    if inst is None:
        inst = _INSTANCES[key] = get_kernel(name).instantiate(size)
    return inst


def _apply_worker_fault(cell: Cell) -> None:
    """Consult the installed plan for a crash/stall matching this cell."""
    fault = faults.worker_fault(cell.kernel, cell.flow)
    if fault is None:
        return
    if isinstance(fault, faults.WorkerCrash):
        import os

        os._exit(fault.exit_code)  # simulated segfault: no cleanup, no reply
    if isinstance(fault, faults.WorkerStall):
        time.sleep(fault.seconds)


def _run_cell(cell: Cell) -> CellResult:
    _apply_worker_fault(cell)
    start = time.perf_counter()
    try:
        inst = _instance(cell.kernel, cell.size)
        result = _RUNNER.run(inst, cell.flow, cell.target)
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        return CellResult(
            cell, None, time.perf_counter() - start,
            error=str(exc), error_kind=classify(exc),
        )
    return CellResult(cell, result, time.perf_counter() - start)


def _run_cell_serial(cell: Cell, runner: FlowRunner, instances: dict) -> CellResult:
    start = time.perf_counter()
    try:
        key = (cell.kernel, cell.size)
        inst = instances.get(key)
        if inst is None:
            inst = instances[key] = get_kernel(cell.kernel).instantiate(
                cell.size
            )
        result = runner.run(inst, cell.flow, cell.target)
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        return CellResult(
            cell, None, time.perf_counter() - start,
            error=str(exc), error_kind=classify(exc),
        )
    return CellResult(cell, result, time.perf_counter() - start)


# -- the hardened scheduler ---------------------------------------------------


class _Pool:
    """A rebuildable ProcessPoolExecutor with hard-kill teardown."""

    def __init__(self, jobs: int, kwargs: dict, fault_plan) -> None:
        self.jobs = jobs
        self.kwargs = kwargs
        self.fault_plan = fault_plan
        self.pool: ProcessPoolExecutor | None = None

    def get(self) -> ProcessPoolExecutor:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self.kwargs, self.fault_plan),
            )
        return self.pool

    def kill(self) -> None:
        """Terminate worker processes and discard the executor.  Used
        after a crash/timeout (stuck or dead workers cannot be joined)
        and on KeyboardInterrupt (no orphaned children)."""
        pool = self.pool
        self.pool = None
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


def run_cells(
    cells,
    jobs: int = 1,
    runner: FlowRunner | None = None,
    runner_kwargs: dict | None = None,
    timeout: float | None = None,
    retries: int = 1,
    backoff: float = 0.05,
    fault_plan=None,
) -> list[CellResult]:
    """Run every cell; returns results in input order.

    ``jobs=1`` runs serially in-process against ``runner`` (or a fresh
    :class:`FlowRunner` built from ``runner_kwargs``), sharing its
    compilation caches with the caller.  ``jobs>1`` fans the cells out to
    a process pool; each worker builds its own runner from
    ``runner_kwargs`` (a live runner's caches hold compiled closures and
    are deliberately not shipped across the process boundary).

    ``timeout`` is a per-cell deadline in seconds (None = no deadline);
    ``retries`` bounds re-attempts after a crash or overrun (with
    jittered exponential :func:`backoff_delay` sleeps, ``backoff`` being
    the base delay); ``fault_plan`` arms the injection points inside
    every worker.  A cell that exhausts its attempts is *quarantined*:
    its :class:`CellResult` carries ``result=None`` and a classified
    ``error_kind`` while the rest of the sweep completes normally.
    """
    cells = list(cells)

    if jobs <= 1:
        if runner is None:
            runner = FlowRunner(**(runner_kwargs or {}))
        instances: dict = {}
        if fault_plan is not None:
            with faults.injected(fault_plan):
                return [_run_cell_serial(c, runner, instances) for c in cells]
        return [_run_cell_serial(c, runner, instances) for c in cells]

    kwargs = dict(runner_kwargs or {})
    if runner is not None and not kwargs:
        kwargs = runner.config()

    results: list[CellResult | None] = [None] * len(cells)
    #: (index, cell, attempts-so-far)
    pending: deque = deque((i, c, 0) for i, c in enumerate(cells))
    isolate: deque = deque()  # cells re-run one-at-a-time after a crash
    mgr = _Pool(jobs, kwargs, fault_plan)
    inflight: dict = {}  # future -> (index, cell, attempts, deadline)

    def submit(i, cell, attempts):
        if attempts > 0 and backoff > 0:
            time.sleep(backoff_delay(attempts, base=backoff))
        fut = mgr.get().submit(_run_cell, cell)
        dl = None if timeout is None else time.monotonic() + timeout
        inflight[fut] = (i, cell, attempts + 1, dl)

    def charge(i, cell, attempts, kind, message):
        """Charge a failed attempt; requeue or quarantine."""
        if attempts <= retries:
            obs.count("harness.retries")
            (isolate if isolation[0] else pending).append((i, cell, attempts))
        else:
            obs.count("harness.quarantined")
            err = CellError(kind, message)
            results[i] = CellResult(
                cell, None, 0.0,
                error=str(err), error_kind=f"CellError[{kind}]",
                attempts=attempts,
            )

    isolation = [False]

    def breakdown(blame_kind: str, expired_keys):
        """Pool died or a deadline passed: kill it, sort the in-flight
        cells into blamed (charged) vs innocent (free re-run)."""
        obs.count(
            "harness.timeouts" if blame_kind == "timeout"
            else "harness.worker_crashes"
        )
        mgr.kill()
        isolation[0] = True
        for fut, (i, cell, attempts, _dl) in list(inflight.items()):
            blamed = fut in expired_keys or len(inflight) == 1
            if blamed:
                charge(
                    i, cell, attempts, blame_kind,
                    f"{cell.kernel}/{cell.flow} on {cell.target} "
                    f"(attempt {attempts})",
                )
            else:
                # Innocent bystander: re-run without charging an attempt.
                isolate.append((i, cell, attempts - 1))
        inflight.clear()

    try:
        while pending or isolate or inflight:
            # Isolation mode runs one cell at a time so a repeat crash
            # deterministically blames the cell that died.
            cap = 1 if isolation[0] else jobs
            queue = isolate if isolate else pending
            while queue and len(inflight) < cap:
                i, cell, attempts = queue.popleft()
                try:
                    submit(i, cell, attempts)
                except BrokenProcessPool:
                    # The pool broke between completions; everything in
                    # flight is innocent, this cell is merely unlucky.
                    queue.appendleft((i, cell, attempts))
                    breakdown("worker-crash", set())
                    break
                queue = isolate if isolate else pending
            if not inflight:
                continue

            poll = 0.05
            if timeout:
                poll = min(poll, timeout / 4)
            done, _ = wait(inflight, timeout=poll, return_when=FIRST_COMPLETED)

            now = time.monotonic()
            expired = {
                f for f, (_i, _c, _a, dl) in inflight.items()
                if dl is not None and now > dl and f not in done
            }
            if expired:
                breakdown("timeout", expired)
                continue

            crashed = False
            for fut in done:
                i, cell, attempts, _dl = inflight.pop(fut)
                try:
                    res = fut.result()
                except (BrokenProcessPool, OSError, EOFError):
                    # The worker died; we cannot tell (yet) whether this
                    # future's cell was the trigger — re-examine everyone.
                    inflight[fut] = (i, cell, attempts, _dl)
                    crashed = True
                    break
                res.attempts = attempts
                results[i] = res
            if crashed:
                breakdown("worker-crash", set())
    finally:
        mgr.kill()

    return [r for r in results if r is not None]
