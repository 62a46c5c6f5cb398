"""Seeded fault injection for the fail-soft pipeline.

Cross-target SIMD translation layers live or die by their fallback paths
(Revec; SIMD-Everywhere) — and fallback paths rot unless they are
exercised.  This module provides a deterministic, seeded fault-injection
framework with injection points threaded through every layer of the
toolchain:

* **bytecode** (:mod:`repro.bytecode.codec`): bit-flips of the encoded
  stream, exercising the container checksum and the stream verifier;
* **JIT** (:mod:`repro.jit.materialize`): forced per-idiom lowering
  failures and whole-function materialization failures, exercising
  loop-granularity scalarization fallback and the compile-level retry;
* **VM** (:mod:`repro.machine.vm` / :mod:`repro.machine.codegen`):
  memory faults on the N-th memory access — raised identically by both
  engines — and base misalignment, exercising trap classification;
* **harness** (:mod:`repro.harness.parallel`): simulated worker crashes
  (``os._exit``) and deadline overruns, exercising pool recovery,
  retry-with-backoff, and cell quarantine;
* **service cache** (:mod:`repro.service.cache`): torn writes — the
  process "dies" between the partial temp-file write and the atomic
  rename — exercising the crash-safe cache discipline (the destination
  entry must never be observable half-written);
* **network gateway** (:mod:`repro.service.gateway`): wire-level faults
  at the TCP front door.  :class:`ConnDrop` fires inside the gateway's
  response writer (the connection is aborted mid-frame, as a crashed
  proxy or flaky link would), exercising the client's torn-response
  detection and retry/failover; :class:`SlowWire`,
  :class:`TruncatedFrame`, and :class:`GarbageFrame` describe *hostile
  client* behavior — the gateway chaos campaign drives real sockets
  with them (slow-dripped bytes, frames cut short, seeded garbage),
  exercising the gateway's framing CRC, idle timeouts, and
  connection hygiene.

A :class:`FaultPlan` is plain picklable data, so it ships to sweep worker
processes.  Faults are *installed* for a dynamic extent::

    from repro import faults

    plan = faults.FaultPlan([faults.MemFault(after=12)])
    with faults.injected(plan):
        run_result = kernel.run(...)      # traps with a classified VMError

Injected exceptions carry the :class:`~repro.errors.FaultInjected` marker
mixin on top of their ordinary classification, so chaos campaigns can
tell an injected trap from a genuine one without special-casing messages.

The injection points are dormant (a single ``is None`` test) when no plan
is installed, so the production path pays effectively nothing.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import FaultInjected

__all__ = [
    "FaultPlan",
    "BitFlip",
    "LoweringFault",
    "MaterializeFault",
    "MemFault",
    "MisalignFault",
    "WorkerCrash",
    "WorkerStall",
    "CacheTornWrite",
    "ConnDrop",
    "SlowWire",
    "TruncatedFrame",
    "GarbageFrame",
    "injected",
    "install",
    "uninstall",
    "active_plan",
    "lowering_fails",
    "materialize_fails",
    "corrupt",
    "worker_fault",
    "cache_torn_write",
    "wire_conn_drop",
]


# -- fault descriptions (plain picklable data) --------------------------------


@dataclass(frozen=True)
class BitFlip:
    """Flip one bit of an encoded bytecode stream.

    ``offset``/``bit`` of ``None`` choose a seeded-random position over
    the stream (header included), so a campaign covers magic, checksum,
    and payload corruption alike.
    """

    offset: int | None = None
    bit: int | None = None


@dataclass(frozen=True)
class LoweringFault:
    """Force per-idiom lowering failure: any vector loop group containing
    a matching idiom on a matching target degrades to its scalar loop
    version (``"*"`` matches everything)."""

    idiom: str = "*"
    target: str = "*"


@dataclass(frozen=True)
class MaterializeFault:
    """Force whole-function materialization to fail on first (vector)
    attempt, exercising the compile-level retry that re-materializes with
    every group scalarized."""

    target: str = "*"


@dataclass(frozen=True)
class MemFault:
    """Raise a classified VM memory fault on the ``after``-th memory
    access (scalar or vector, load or store; 1-based).  Both VM engines
    observe the identical access stream, so the trap — type and message —
    is engine-independent by construction.

    ``repeat=False`` (default) is a transient glitch: it fires once per
    install, so a retry of the run survives.  ``repeat=True`` is a
    persistently broken memory system: the fault fires on *every*
    ``after``-th access, defeating retries — this is what drives a
    service target's circuit breaker open and exercises the full
    degradation cascade."""

    after: int = 1
    repeat: bool = False


@dataclass(frozen=True)
class MisalignFault:
    """Simulate an allocator that does not align array bases: harness
    buffers are built with ``base_misalign`` bytes of skew."""

    misalign: int = 4


@dataclass(frozen=True)
class WorkerCrash:
    """Hard-kill (``os._exit``) the worker process that picks up a
    matching unit of work — the process dies mid-task, as a segfault
    would.  Fires in sweep workers (:mod:`repro.harness.parallel`), whose
    pool must detect the broken worker and quarantine the cell."""

    kernel: str = "*"
    flow: str = "*"
    exit_code: int = 17


@dataclass(frozen=True)
class WorkerStall:
    """Stall a matching unit of work (sleep ``seconds``), so the timeout
    machinery must reclaim the worker: the sweep harness's per-cell
    timeout (:mod:`repro.harness.parallel`)."""

    kernel: str = "*"
    flow: str = "*"
    seconds: float = 3600.0


@dataclass(frozen=True)
class CacheTornWrite:
    """Simulate a crash in the middle of a kernel-cache entry write: a
    partial temp file is produced, the atomic rename never happens, and a
    classified injection-marked :class:`~repro.service.cache.CacheError`
    is raised.  ``count`` bounds how many writes fail (None = all writes
    under this plan)."""

    count: int | None = 1


@dataclass(frozen=True)
class ConnDrop:
    """Abort the TCP connection after ``after_bytes`` of a response
    frame have been written — the wire goes dead mid-response, exactly
    as a crashed proxy, flaky link, or OOM-killed gateway would leave
    it.  The client must *detect* the torn frame (CRC / short read) and
    classify it as a :class:`~repro.service.wire.NetworkError`, never
    accept a partial response as an answer.  ``count`` bounds how many
    responses are torn (None = every response under this plan)."""

    after_bytes: int = 8
    count: int | None = 1


@dataclass(frozen=True)
class SlowWire:
    """Slowloris: the hostile peer drips bytes ``chunk`` at a time with
    ``delay_s`` between chunks.  Driven by the gateway chaos campaign's
    raw-socket client against a live gateway, whose per-read idle
    timeout must reclaim the connection instead of letting one slow
    writer pin a handler forever.  ``complete=True`` drips a *valid*
    frame slowly enough to finish inside the timeout (the gateway must
    tolerate slow-but-honest peers); ``complete=False`` stalls forever
    after the dripped prefix (the gateway must cut the connection)."""

    chunk: int = 1
    delay_s: float = 0.02
    complete: bool = False


@dataclass(frozen=True)
class TruncatedFrame:
    """The hostile peer sends a frame cut short at ``keep`` bytes and
    then closes the connection (``keep=None`` = a seeded-random proper
    prefix).  The gateway must classify the torn frame and drop the
    connection cleanly — no handler leak, no half-served request."""

    keep: int | None = None


@dataclass(frozen=True)
class GarbageFrame:
    """The hostile peer sends bytes that are not a valid frame.
    ``mode`` picks the corruption: ``"random"`` (seeded noise),
    ``"bad-magic"``, ``"bad-crc"`` (valid header, flipped payload CRC),
    or ``"bad-length"`` (adversarial length field far beyond the frame
    limit — must be rejected *before* any allocation).  The gateway
    must answer with a classified error frame where framing allows and
    close the connection, never crash or wedge."""

    mode: str = "random"
    nbytes: int | None = None


def _match(pattern: str, value: str) -> bool:
    return pattern == "*" or pattern == value


#: lazily created once (VMError cannot be imported at module load — the VM
#: imports this module); a single class object keeps trap *types* identical
#: across engines and across repeated installs.
_INJECTED_VM_FAULT: type | None = None


def injected_vm_fault_cls() -> type:
    """The ``InjectedVMFault(VMError, FaultInjected)`` class, created on
    first use and cached."""
    global _INJECTED_VM_FAULT
    if _INJECTED_VM_FAULT is None:
        from .machine.vm import VMError

        class InjectedVMFault(VMError, FaultInjected):
            """A :class:`MemFault` firing (never raised in production)."""

        InjectedVMFault.__module__ = __name__
        InjectedVMFault.__qualname__ = "InjectedVMFault"
        _INJECTED_VM_FAULT = InjectedVMFault
    return _INJECTED_VM_FAULT


class FaultPlan:
    """An immutable, picklable set of faults plus the seed that resolves
    any random positions (bit-flip offsets)."""

    def __init__(self, faults=(), seed: int = 0) -> None:
        self.faults = tuple(faults)
        self.seed = int(seed)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, faults={list(self.faults)})"

    def __reduce__(self):
        return (FaultPlan, (self.faults, self.seed))

    def _of(self, cls):
        return [f for f in self.faults if isinstance(f, cls)]

    # -- bytecode layer -----------------------------------------------------

    def corrupt(self, data: bytes) -> bytes:
        """Apply the plan's :class:`BitFlip` faults to ``data``."""
        flips = self._of(BitFlip)
        if not flips:
            return data
        rng = random.Random(self.seed)
        out = bytearray(data)
        for f in flips:
            if not out:
                break
            off = f.offset if f.offset is not None else rng.randrange(len(out))
            bit = f.bit if f.bit is not None else rng.randrange(8)
            out[off % len(out)] ^= 1 << (bit % 8)
        return bytes(out)

    # -- JIT layer ----------------------------------------------------------

    def lowering_fails(self, idiom: str, target: str) -> bool:
        return any(
            _match(f.idiom, idiom) and _match(f.target, target)
            for f in self._of(LoweringFault)
        )

    def materialize_fails(self, target: str) -> bool:
        return any(_match(f.target, target) for f in self._of(MaterializeFault))

    # -- VM layer -----------------------------------------------------------

    def make_mem_hook(self):
        """A fresh countdown closure for the plan's first :class:`MemFault`
        (one per install, so repeated runs under one plan re-arm)."""
        mem = self._of(MemFault)
        if not mem:
            return None
        after = max(1, int(mem[0].after))
        repeat = bool(mem[0].repeat)
        state = [0]

        def hook(op: str, array: str) -> None:
            state[0] += 1
            fires = (
                state[0] % after == 0 if repeat else state[0] == after
            )
            if fires:
                raise injected_vm_fault_cls()(
                    f"injected memory fault at access #{state[0]} "
                    f"(op {op}, array {array})"
                )

        return hook

    def misalign(self) -> int | None:
        mis = self._of(MisalignFault)
        return mis[0].misalign if mis else None

    # -- service cache layer ------------------------------------------------

    def make_torn_write_hook(self):
        """A fresh countdown closure for the plan's first
        :class:`CacheTornWrite` (re-armed per install)."""
        return self._make_counted_hook(CacheTornWrite)

    # -- gateway wire layer ---------------------------------------------------

    def make_conn_drop_hook(self):
        """A fresh countdown closure for the plan's first
        :class:`ConnDrop` (re-armed per install)."""
        return self._make_counted_hook(ConnDrop)

    def _make_counted_hook(self, cls):
        found = self._of(cls)
        if not found:
            return None
        fault = found[0]
        state = [0]

        def hook():
            if fault.count is not None and state[0] >= fault.count:
                return None
            state[0] += 1
            return fault

        return hook

    # -- harness layer ------------------------------------------------------

    def worker_fault(self, kernel: str, flow: str):
        """The first :class:`WorkerCrash`/:class:`WorkerStall` matching the
        cell, or None."""
        for f in self.faults:
            if isinstance(f, (WorkerCrash, WorkerStall)) and _match(
                f.kernel, kernel
            ) and _match(f.flow, flow):
                return f
        return None


# -- installation (dynamic extent) --------------------------------------------

#: the currently installed plan (None = all injection points dormant).
_ACTIVE: FaultPlan | None = None

#: memory-access hook consulted by both VM engines at every memory op;
#: kept as a plain module global so the check is one attribute load.
mem_hook = None

#: torn-write hook consulted by the service cache's atomic_write.
torn_write_hook = None

#: connection-drop hook consulted by the gateway's response writer.
conn_drop_hook = None


def install(plan: FaultPlan) -> FaultPlan:
    """Install ``plan``; arms fresh memory-fault/torn-write/
    connection-drop countdowns."""
    global _ACTIVE, mem_hook, torn_write_hook, conn_drop_hook
    _ACTIVE = plan
    mem_hook = plan.make_mem_hook()
    torn_write_hook = plan.make_torn_write_hook()
    conn_drop_hook = plan.make_conn_drop_hook()
    return plan


def uninstall() -> None:
    """Remove any installed plan; every injection point goes dormant."""
    global _ACTIVE, mem_hook, torn_write_hook, conn_drop_hook
    _ACTIVE = None
    mem_hook = None
    torn_write_hook = None
    conn_drop_hook = None


@contextmanager
def injected(plan: FaultPlan):
    """Install ``plan`` for the duration of the ``with`` block."""
    global _ACTIVE, mem_hook, torn_write_hook, conn_drop_hook
    prev = (_ACTIVE, mem_hook, torn_write_hook, conn_drop_hook)
    install(plan)
    try:
        yield plan
    finally:
        _ACTIVE, mem_hook, torn_write_hook, conn_drop_hook = prev


def active_plan() -> FaultPlan | None:
    """The currently installed :class:`FaultPlan`, or None."""
    return _ACTIVE


# -- convenience wrappers used at the injection points ------------------------


def lowering_fails(idiom: str, target: str) -> bool:
    """JIT injection point: should lowering ``idiom`` for ``target`` be
    forced to fail under the active plan?"""
    return _ACTIVE is not None and _ACTIVE.lowering_fails(idiom, target)


def materialize_fails(target: str) -> bool:
    """JIT injection point: should whole-function materialization for
    ``target`` be forced to fail under the active plan?"""
    return _ACTIVE is not None and _ACTIVE.materialize_fails(target)


def corrupt(data: bytes) -> bytes:
    """Bytecode injection point: corrupt ``data`` per the active plan."""
    return data if _ACTIVE is None else _ACTIVE.corrupt(data)


def worker_fault(kernel: str, flow: str):
    """Harness injection point: the crash/stall fault matching this sweep
    cell under the active plan, or None."""
    return None if _ACTIVE is None else _ACTIVE.worker_fault(kernel, flow)


def cache_torn_write():
    """Service-cache injection point: the :class:`CacheTornWrite` that
    should fire on this write under the active plan, or None."""
    return None if torn_write_hook is None else torn_write_hook()


def wire_conn_drop():
    """Gateway injection point: the :class:`ConnDrop` that should tear
    this response's connection under the active plan, or None."""
    return None if conn_drop_hook is None else conn_drop_hook()
