"""Seeded chaos campaigns over the fail-soft pipeline.

A campaign draws ``n_faults`` faults from a seeded RNG, injects each into
the matching layer of the toolchain, and classifies the observable
outcome.  The **chaos invariant** asserted by :meth:`ChaosReport.ok`:

    every injected fault leads to a *correct* result (possibly via the
    scalar-fallback degradation path) or a *classified* trap — never a
    silent wrong answer and never an unclassified traceback.

Layers and their pass criteria:

========================= ==================================================
layer                     passing outcomes
========================= ==================================================
``bytecode``              bit-flipped container rejected by a classified
                          :class:`~repro.bytecode.writer.FormatError`
                          before any IR reaches the JIT
``jit-lowering``          forced idiom-lowering failure degrades the loop
                          group to scalar; run still checks against numpy
``jit-materialize``       whole-function materialization failure triggers
                          the force-scalar compile retry; run still checks
``vm-mem``                injected memory fault raises the *identical*
                          classified VMError from every registered
                          execution engine
``vm-misalign``           skewed array bases either still check or raise a
                          classified VMError (alignment trap)
``harness``               crashed/stalled workers are quarantined; every
                          other cell of the sweep completes and checks
========================= ==================================================

Failing outcomes — ``silent-wrong`` (corruption accepted), ``wrong-answer``
(fallback produced values that fail the numpy check), ``unclassified-trap``
(an exception outside the :mod:`repro.errors` taxonomy), and
``parity-mismatch`` (an execution engine disagrees with the reference
interpreter on a trap) — make the campaign fail.

Campaigns are deterministic in ``seed`` and run single-process (the
``harness`` layer, which needs real worker processes, is opt-in via
``include_harness``).

**Service soak profile** (:func:`run_service_campaign`, CLI ``repro chaos
--profile service``): the same invariant asserted against a *live*
:class:`~repro.service.KernelService` — one long-running service absorbs
hundreds of seeded faults (on-disk cache corruption, torn cache writes,
JIT faults, transient and persistent VM faults, overload bursts, expired
deadlines) while every response stays well-formed: correct answers are
byte-identical to a cold no-cache run, degraded/stale responses carry
their :class:`~repro.jit.materialize.DegradationEvent` chain, rejections
carry a closed-taxonomy tag, and corrupt/torn cache entries are
quarantined and recompiled, never served.

**Gateway soak profile** (:func:`run_gateway_campaign`, CLI ``repro chaos
--profile gateway``): the invariant moves out to the *network front
door* — a live :class:`~repro.service.gateway.ThreadedGateway` fronting
a farm-backed service absorbs seeded wire-level hostility (garbage
frames, truncated frames, slowloris drips, connections torn mid-response
by :class:`~repro.faults.ConnDrop`) alongside overload bursts, expired
wire deadlines, and in-service JIT/VM faults, while three gateway-grade
guarantees hold: **zero torn responses** (every answer a client accepts
reproduces the cold reference bit-for-bit; every partial frame is
classified), **zero unclassified errors** (every rejection carries a
closed-taxonomy tag), and **zero leaked farm workers** (after the drain
epilogue and service close, no compile worker PID survives).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .. import faults
from ..bytecode import encode_module
from ..errors import classify, is_classified
from ..frontend import compile_source
from ..kernels import get_kernel
from ..machine.registry import engine_names
from ..vectorizer import split_config, vectorize_module
from .flows import CheckError, FlowRunner

__all__ = [
    "ChaosTrial",
    "ChaosReport",
    "run_campaign",
    "run_service_campaign",
    "run_gateway_campaign",
    "LAYERS",
    "SERVICE_LAYERS",
    "FARM_LAYERS",
    "GATEWAY_LAYERS",
]

#: injection layers with their campaign weights.
LAYERS = ("bytecode", "jit-lowering", "jit-materialize", "vm-mem",
          "vm-misalign")
_WEIGHTS = (40, 20, 5, 20, 15)

#: failing outcome tags (anything else passes).  ``torn-response`` (a
#: partial or corrupted wire frame accepted as an answer) and
#: ``leaked-workers`` (farm processes outliving their service) belong to
#: the gateway profile's invariant; ``torn-cache`` (a shared cache entry
#: that fails envelope verification after a replica SIGKILL) and
#: ``stale-lead`` (a dead leader's marker outliving its TTL unreclaimed)
#: belong to the fleet profile's.
FAILING = ("silent-wrong", "wrong-answer", "unclassified-trap",
           "parity-mismatch", "torn-response", "leaked-workers",
           "torn-cache", "stale-lead")

_DEFAULT_KERNELS = ("saxpy_fp", "dscal_fp", "interp_fp", "sfir_fp")
_IDIOMS = ("*", "realign_load", "vstore", "reduc_plus", "init_uniform")
_TARGETS = ("sse", "altivec", "neon")
_FLOWS = ("split_vec_mono", "split_vec_gcc4cli")


@dataclass(frozen=True)
class ChaosTrial:
    """One injected fault and its observed outcome."""

    layer: str
    kernel: str
    fault: str
    outcome: str  # trapped | degraded-correct | correct | quarantined | FAILING
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome not in FAILING


@dataclass
class ChaosReport:
    """The outcome census of one campaign."""

    seed: int
    trials: list = field(default_factory=list)
    #: final ``KernelService.stats()`` snapshot (service profile only).
    service_stats: dict | None = None

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.trials)

    @property
    def failures(self) -> list:
        return [t for t in self.trials if not t.ok]

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for t in self.trials:
            out[t.outcome] = out.get(t.outcome, 0) + 1
        return dict(sorted(out.items()))

    def summary(self) -> str:
        lines = [
            f"chaos campaign: seed={self.seed}, "
            f"{len(self.trials)} faults injected"
        ]
        for outcome, n in self.counts().items():
            flag = "  !!" if outcome in FAILING else ""
            lines.append(f"  {outcome:18s} {n:4d}{flag}")
        lines.append("invariant " + ("HELD" if self.ok else "VIOLATED"))
        return "\n".join(lines)


def _encoded(kernel: str, size: int, cache: dict) -> bytes:
    blob = cache.get(kernel)
    if blob is None:
        inst = get_kernel(kernel).instantiate(size)
        module = compile_source(inst.source, inst.name)
        blob = cache[kernel] = encode_module(
            vectorize_module(module, split_config())
        )
    return blob


def _classified_outcome(exc: Exception) -> ChaosTrial | tuple[str, str]:
    if isinstance(exc, CheckError):
        return ("wrong-answer", str(exc))
    if is_classified(exc):
        return ("trapped", classify(exc))
    return ("unclassified-trap", f"{type(exc).__name__}: {exc}")


def _trial_bytecode(kernel: str, size: int, rng, cache) -> ChaosTrial:
    from ..bytecode import decode_module

    data = _encoded(kernel, size, cache)
    flip = faults.BitFlip(offset=rng.randrange(len(data)),
                          bit=rng.randrange(8))
    corrupted = faults.FaultPlan([flip]).corrupt(data)
    try:
        decode_module(corrupted)
    except Exception as exc:
        outcome, detail = _classified_outcome(exc)
        return ChaosTrial("bytecode", kernel, repr(flip), outcome, detail)
    return ChaosTrial(
        "bytecode", kernel, repr(flip), "silent-wrong",
        "corrupted container decoded without a trap",
    )


def _run_checked(kernel: str, size: int, flow: str, target: str,
                 plan, **runner_kwargs):
    """(FlowResult, CompiledKernel) under an installed plan."""
    from ..targets import get_target

    runner = FlowRunner(**runner_kwargs)
    inst = get_kernel(kernel).instantiate(size)
    with faults.injected(plan):
        result = runner.run(inst, flow, target)
        ck = runner.compiled(inst, flow, get_target(target))
    return result, ck


def _trial_jit(kernel: str, size: int, rng, materialize: bool) -> ChaosTrial:
    flow = rng.choice(_FLOWS)
    target = rng.choice(_TARGETS)
    if materialize:
        fault = faults.MaterializeFault(target="*")
        layer = "jit-materialize"
    else:
        fault = faults.LoweringFault(idiom=rng.choice(_IDIOMS), target="*")
        layer = "jit-lowering"
    plan = faults.FaultPlan([fault])
    try:
        result, ck = _run_checked(kernel, size, flow, target, plan)
    except Exception as exc:
        outcome, detail = _classified_outcome(exc)
        return ChaosTrial(layer, kernel, repr(fault), outcome, detail)
    if not result.checked:
        return ChaosTrial(layer, kernel, repr(fault), "silent-wrong",
                          "result was not checked")
    outcome = "degraded-correct" if ck.degraded else "correct"
    detail = "; ".join(f"{e.cause}" for e in ck.events)
    return ChaosTrial(layer, kernel, repr(fault), outcome, detail)


def _trial_vm_mem(kernel: str, size: int, rng) -> ChaosTrial:
    flow = rng.choice(_FLOWS)
    target = rng.choice(_TARGETS)
    after = rng.randrange(1, 80)
    fault = faults.MemFault(after=after)
    observed = {}
    for engine in engine_names():
        plan = faults.FaultPlan([fault])
        try:
            result, _ck = _run_checked(
                kernel, size, flow, target, plan, engine=engine
            )
            observed[engine] = (
                ("correct", "") if result.checked
                else ("silent-wrong", "unchecked")
            )
        except Exception as exc:
            observed[engine] = _classified_outcome(exc) + (str(exc),)
    ref = observed["reference"]
    for engine, seen in observed.items():
        if seen != ref:
            return ChaosTrial(
                "vm-mem", kernel, repr(fault), "parity-mismatch",
                f"{engine}={seen} reference={ref}",
            )
    outcome, detail = ref[0], ref[1]
    return ChaosTrial("vm-mem", kernel, repr(fault), outcome, detail)


def _trial_vm_misalign(kernel: str, size: int, rng) -> ChaosTrial:
    flow = rng.choice(_FLOWS)
    target = rng.choice(_TARGETS)
    mis = rng.choice((1, 2, 3, 4, 5, 7, 8, 12))
    fault = faults.MisalignFault(misalign=mis)
    plan = faults.FaultPlan([fault])
    try:
        result, _ck = _run_checked(
            kernel, size, flow, target, plan,
            base_misalign=plan.misalign() or 0,
        )
    except Exception as exc:
        outcome, detail = _classified_outcome(exc)
        return ChaosTrial("vm-misalign", kernel, repr(fault), outcome, detail)
    if not result.checked:
        return ChaosTrial("vm-misalign", kernel, repr(fault), "silent-wrong",
                          "result was not checked")
    return ChaosTrial("vm-misalign", kernel, repr(fault), "correct", "")


def _trials_harness(kernels, size: int, rng, timeout: float) -> list:
    """One crashed and one stalled sweep (worker processes required)."""
    from .parallel import Cell, run_cells

    out = []
    cells = [
        Cell(k, flow, "sse", size) for k in kernels for flow in _FLOWS
    ]
    for fault in (
        faults.WorkerCrash(kernel=rng.choice(kernels)),
        faults.WorkerStall(kernel=rng.choice(kernels), seconds=3600.0),
    ):
        plan = faults.FaultPlan([fault])
        results = run_cells(
            cells, jobs=2, fault_plan=plan, timeout=timeout, retries=1
        )
        bad = [r for r in results if not r.ok]
        wrongly_ok = [r for r in bad if r.cell.kernel != fault.kernel]
        missing = len(results) != len(cells)
        if wrongly_ok or missing or not bad:
            out.append(ChaosTrial(
                "harness", fault.kernel, repr(fault), "silent-wrong",
                f"quarantined={[(r.cell.kernel, r.cell.flow) for r in bad]} "
                f"of {len(results)}/{len(cells)} results",
            ))
        else:
            out.append(ChaosTrial(
                "harness", fault.kernel, repr(fault), "quarantined",
                f"{len(bad)} cell(s) quarantined "
                f"({bad[0].error_kind}), {len(results) - len(bad)} completed",
            ))
    return out


def run_campaign(
    n_faults: int = 200,
    seed: int = 0,
    kernels=_DEFAULT_KERNELS,
    size: int = 16,
    include_harness: bool = False,
    harness_timeout: float = 10.0,
) -> ChaosReport:
    """Inject ``n_faults`` seeded faults; returns the outcome census.

    Deterministic in ``seed``.  ``include_harness`` adds two process-pool
    sweeps (a worker crash and a worker stall) on top of ``n_faults``.
    """
    rng = random.Random(seed)
    kernels = tuple(kernels)
    report = ChaosReport(seed=seed)
    enc_cache: dict = {}
    for _ in range(int(n_faults)):
        layer = rng.choices(LAYERS, weights=_WEIGHTS)[0]
        kernel = rng.choice(kernels)
        if layer == "bytecode":
            t = _trial_bytecode(kernel, size, rng, enc_cache)
        elif layer == "jit-lowering":
            t = _trial_jit(kernel, size, rng, materialize=False)
        elif layer == "jit-materialize":
            t = _trial_jit(kernel, size, rng, materialize=True)
        elif layer == "vm-mem":
            t = _trial_vm_mem(kernel, size, rng)
        else:
            t = _trial_vm_misalign(kernel, size, rng)
        report.trials.append(t)
    if include_harness:
        report.trials.extend(
            _trials_harness(kernels, size, rng, harness_timeout)
        )
    return report


# -- the service soak profile -------------------------------------------------

#: service-profile fault layers with their campaign weights.
SERVICE_LAYERS = (
    "svc-plain", "svc-cache-corrupt", "svc-torn-write", "svc-jit-lowering",
    "svc-jit-materialize", "svc-vm-transient", "svc-vm-persistent",
    "svc-overload", "svc-deadline",
)
_SERVICE_WEIGHTS = (20, 18, 8, 12, 8, 12, 12, 5, 5)

#: extra layers mixed in when the soak runs with a compile farm
#: (``farm_workers > 0``); kept separate so the default campaign's
#: seeded fault stream — and every pinned-seed determinism test — is
#: unchanged by the farm's existence.
FARM_LAYERS = ("svc-farm-crash", "svc-farm-stall", "svc-stale-marker")
_FARM_WEIGHTS = (6, 4, 5)


class _ServiceSoak:
    """State of one service soak campaign: a live service, a cold
    no-cache reference runner, and per-trial validators."""

    def __init__(self, seed: int, size: int, cache_dir: str,
                 farm_workers: int = 0) -> None:
        from ..service import KernelService

        self.rng = random.Random(seed)
        self.seed = seed
        self.size = size
        self.cache_dir = cache_dir
        # backoff_base=0 keeps the soak fast and deterministic (no real
        # sleeps); tight breaker knobs make open/half-open/closed cycles
        # happen organically within a 200-fault campaign.  The tight
        # farm budget keeps the stall-watchdog trials sub-second.
        self.svc = KernelService(
            cache_dir=cache_dir, seed=seed, retries=1,
            backoff_base=0.0, breaker_threshold=2, breaker_cooldown=4,
            queue_limit=16, workers=2,
            farm_workers=farm_workers, farm_budget_s=0.4,
        )
        self.ref_runner = FlowRunner()
        self._refs: dict = {}
        self._torn = 0

    def close(self) -> None:
        self.svc.close()

    def _request(self, kernel: str, size: int | None = None, **over):
        from ..service import ServiceRequest

        return ServiceRequest(
            kernel,
            flow=over.get("flow", self.rng.choice(_FLOWS)),
            target=over.get("target", self.rng.choice(_TARGETS)),
            size=self.size if size is None else size,
            deadline_s=over.get("deadline_s"),
        )

    def reference(self, kernel: str, flow: str, target: str, size: int):
        """Cold no-cache (cycles, value) for one shape, computed outside
        any fault extent."""
        key = (kernel, flow, target, size)
        if key not in self._refs:
            inst = get_kernel(kernel).instantiate(size)
            r = self.ref_runner.run(inst, flow, target)
            self._refs[key] = (r.cycles, r.value)
        return self._refs[key]

    def judge(self, layer: str, fault: str, req, resp) -> ChaosTrial:
        """Classify a ServiceResponse against the fail-soft invariant."""
        kernel = req.kernel
        if resp.error is not None and resp.error.startswith("unclassified"):
            return ChaosTrial(layer, kernel, fault, "unclassified-trap",
                              resp.error)
        if resp.result is not None:
            if not resp.result.checked and resp.status != "stale":
                return ChaosTrial(layer, kernel, fault, "silent-wrong",
                                  "result served without checking")
            if resp.status == "ok":
                cycles, value = self.reference(
                    kernel, resp.result.flow, resp.result.target, req.size
                )
                if resp.result.cycles != cycles or resp.result.value != value:
                    return ChaosTrial(
                        layer, kernel, fault, "wrong-answer",
                        f"cycles {resp.result.cycles} vs cold {cycles}",
                    )
                return ChaosTrial(layer, kernel, fault, "correct",
                                  "warm-cache" if resp.from_cache else "")
            if resp.status == "stale":
                if not resp.events:
                    return ChaosTrial(layer, kernel, fault, "silent-wrong",
                                      "stale response without event chain")
                return ChaosTrial(layer, kernel, fault, "served-stale",
                                  "; ".join(e.cause for e in resp.events))
            # degraded
            if not resp.events:
                return ChaosTrial(layer, kernel, fault, "silent-wrong",
                                  "degraded response without event chain")
            return ChaosTrial(layer, kernel, fault, "degraded-correct",
                              "; ".join(e.cause for e in resp.events))
        if resp.status == "shed":
            return ChaosTrial(layer, kernel, fault, "shed", resp.error or "")
        if resp.status == "rejected":
            if resp.error is None:
                return ChaosTrial(layer, kernel, fault, "silent-wrong",
                                  "rejected without a classified tag")
            return ChaosTrial(layer, kernel, fault, "trapped", resp.error)
        return ChaosTrial(layer, kernel, fault, "silent-wrong",
                          f"unknown response status {resp.status!r}")

    # -- trial kinds ----------------------------------------------------------

    def plain(self, kernel: str) -> ChaosTrial:
        req = self._request(kernel)
        return self.judge("svc-plain", "none", req, self.svc.handle(req))

    def cache_corrupt(self, kernel: str) -> ChaosTrial:
        """Flip one byte of every on-disk entry, then serve: corrupted
        entries must be quarantined and recompiled, never served."""
        import os

        names = [
            n for n in os.listdir(self.cache_dir) if n.endswith(".vbk")
        ]
        for name in names:
            path = os.path.join(self.cache_dir, name)
            with open(path, "rb") as f:
                data = bytearray(f.read())
            if not data:
                continue
            off = self.rng.randrange(len(data))
            data[off] ^= 1 << self.rng.randrange(8)
            with open(path, "wb") as f:
                f.write(bytes(data))
        before = self.svc.cache.quarantined
        req = self._request(kernel)
        resp = self.svc.handle(req)
        if names and resp.from_cache:
            return ChaosTrial(
                "svc-cache-corrupt", kernel, "bitflip-all-entries",
                "silent-wrong", "a corrupted cache entry was served",
            )
        trial = self.judge("svc-cache-corrupt", "bitflip-all-entries",
                           req, resp)
        if not trial.ok:
            return trial
        healed = self.svc.cache.quarantined > before
        # Self-healing: the same request is now re-servable (recompiled,
        # overwritten) with identical results.
        resp2 = self.svc.handle(req)
        trial2 = self.judge("svc-cache-corrupt", "bitflip-all-entries",
                            req, resp2)
        if not trial2.ok:
            return trial2
        if (
            resp.result is not None and resp2.result is not None
            and resp2.result.value != resp.result.value
        ):
            return ChaosTrial(
                "svc-cache-corrupt", kernel, "bitflip-all-entries",
                "wrong-answer", "recompiled entry changed the answer",
            )
        return ChaosTrial(
            "svc-cache-corrupt", kernel, "bitflip-all-entries",
            "healed" if healed else trial.outcome,
            f"quarantined {self.svc.cache.quarantined - before} entries",
        )

    def torn_write(self, kernel: str) -> ChaosTrial:
        """Kill the (simulated) service mid-cache-write: no entry under
        the final name, fresh services recompile."""
        from ..service import KernelService

        self._torn += 1
        req = self._request(kernel, flow="split_vec_gcc4cli", target="sse")
        # Drop any existing entry so the request compiles and *puts* — the
        # put is where the torn write fires.  (The cache key is a function
        # of the bytecode, so a warm entry would otherwise absorb it.)
        self.svc.evict(kernel, req.flow, req.target, size=req.size)
        fault = faults.CacheTornWrite()
        before = self.svc.cache.put_failures
        with faults.injected(faults.FaultPlan([fault])):
            resp = self.svc.handle(req)
        trial = self.judge("svc-torn-write", repr(fault), req, resp)
        if not trial.ok:
            return trial
        if self.svc.cache.put_failures <= before:
            return ChaosTrial("svc-torn-write", kernel, repr(fault),
                              "silent-wrong", "torn write did not fire")
        # Crash-safety: a fresh service over the same directory must not
        # find (let alone serve) the half-written entry.
        fresh = KernelService(cache_dir=self.cache_dir, seed=self.seed)
        try:
            resp2 = fresh.handle(req)
        finally:
            fresh.close()
        if resp2.from_cache:
            return ChaosTrial(
                "svc-torn-write", kernel, repr(fault), "silent-wrong",
                "fresh service served a torn-write entry",
            )
        trial2 = self.judge("svc-torn-write", repr(fault), req, resp2)
        if not trial2.ok:
            return trial2
        return ChaosTrial(
            "svc-torn-write", kernel, repr(fault), "crash-safe",
            "destination untouched; fresh service recompiled",
        )

    def jit(self, kernel: str, materialize: bool) -> ChaosTrial:
        layer = "svc-jit-materialize" if materialize else "svc-jit-lowering"
        fault = (
            faults.MaterializeFault(target="*") if materialize
            else faults.LoweringFault(idiom=self.rng.choice(_IDIOMS),
                                      target="*")
        )
        req = self._request(kernel)
        with faults.injected(faults.FaultPlan([fault])):
            resp = self.svc.handle(req)
        trial = self.judge(layer, repr(fault), req, resp)
        if not trial.ok:
            return trial
        # Taint guard: the fault-degraded artifact must not have been
        # persisted — a later clean request must not replay the fault.
        resp2 = self.svc.handle(self._request(
            kernel, flow=req.flow, target=req.target
        ))
        if resp2.events and any(
            e.cause == "fault-injected" for e in resp2.events
        ):
            return ChaosTrial(
                layer, kernel, repr(fault), "silent-wrong",
                "fault-degraded artifact leaked into the persistent cache",
            )
        return trial

    def vm(self, kernel: str, persistent: bool) -> ChaosTrial:
        layer = "svc-vm-persistent" if persistent else "svc-vm-transient"
        fault = (
            faults.MemFault(after=self.rng.randrange(1, 8), repeat=True)
            if persistent
            else faults.MemFault(after=self.rng.randrange(1, 80))
        )
        req = self._request(kernel)
        with faults.injected(faults.FaultPlan([fault])):
            resp = self.svc.handle(req)
        return self.judge(layer, repr(fault), req, resp)

    def overload(self, kernel: str) -> ChaosTrial:
        """Saturate admission, observe a classified shed, then recover."""
        adm = self.svc.admission
        slots = []
        try:
            while adm.depth < adm.limit:
                slots.append(adm.admit())
            req = self._request(kernel)
            resp = self.svc.handle(req)
        finally:
            for s in slots:
                s.__exit__(None, None, None)
        if resp.status != "shed" or resp.error != "OverloadError":
            return ChaosTrial(
                "svc-overload", kernel, "admission-saturation",
                "silent-wrong",
                f"expected a classified shed, got {resp.status}/{resp.error}",
            )
        resp2 = self.svc.handle(req)
        trial2 = self.judge("svc-overload", "admission-saturation",
                            req, resp2)
        if not trial2.ok:
            return trial2
        return ChaosTrial("svc-overload", kernel, "admission-saturation",
                          "shed", "shed while saturated, served after")

    def deadline(self, kernel: str) -> ChaosTrial:
        req = self._request(kernel, deadline_s=0.0)
        resp = self.svc.handle(req)
        trial = self.judge("svc-deadline", "deadline_s=0", req, resp)
        # An open breaker (left by an earlier persistent-fault trial) may
        # short-circuit before the deadline is even consulted; both tags
        # are classified and correct for their interleaving.
        if trial.outcome == "trapped" and resp.error not in (
            "DeadlineError", "CircuitOpenError"
        ):
            return ChaosTrial(
                "svc-deadline", kernel, "deadline_s=0", "silent-wrong",
                f"expected DeadlineError, got {resp.error}",
            )
        return trial

    # -- compile-farm trials (farm_workers > 0 campaigns only) ----------------

    def farm_crash(self, kernel: str) -> ChaosTrial:
        """A farm worker dies mid-compile: the pool is rebuilt, the job
        rerouted inline, the response classified and correct, and the
        cache entry written afterwards is whole (served next request)."""
        req = self._request(kernel, flow="split_vec_gcc4cli")
        self.svc.evict(kernel, req.flow, req.target, size=req.size)
        fault = faults.WorkerCrash(kernel=kernel)
        before = self.svc._farm.crashes
        with faults.injected(faults.FaultPlan([fault])):
            resp = self.svc.handle(req)
        trial = self.judge("svc-farm-crash", repr(fault), req, resp)
        if not trial.ok:
            return trial
        if self.svc._farm.crashes <= before:
            return ChaosTrial("svc-farm-crash", kernel, repr(fault),
                              "silent-wrong", "worker crash did not fire")
        # No torn entry: the rerouted compile's cache entry must verify
        # and serve (a crash must never poison what the leader persists).
        resp2 = self.svc.handle(req)
        trial2 = self.judge("svc-farm-crash", repr(fault), req, resp2)
        if not trial2.ok:
            return trial2
        return ChaosTrial("svc-farm-crash", kernel, repr(fault),
                          "rerouted", "pool rebuilt; compiled inline")

    def farm_stall(self, kernel: str) -> ChaosTrial:
        """A wedged farm worker outlives the compile budget: the
        watchdog kills the pool and the leader reroutes inline."""
        req = self._request(kernel, flow="split_vec_gcc4cli")
        self.svc.evict(kernel, req.flow, req.target, size=req.size)
        fault = faults.WorkerStall(kernel=kernel, seconds=30.0)
        before = self.svc._farm.stalls
        with faults.injected(faults.FaultPlan([fault])):
            resp = self.svc.handle(req)
        trial = self.judge("svc-farm-stall", repr(fault), req, resp)
        if not trial.ok:
            return trial
        if self.svc._farm.stalls <= before:
            return ChaosTrial("svc-farm-stall", kernel, repr(fault),
                              "silent-wrong",
                              "stall watchdog did not fire")
        return ChaosTrial("svc-farm-stall", kernel, repr(fault),
                          "rerouted", "budget watchdog killed the worker; "
                          "compiled inline")

    def stale_marker(self, kernel: str) -> ChaosTrial:
        """A dead replica's aged leader marker sits next to the entry at
        claim time: this service must take leadership over (TTL expiry),
        compile, and serve — never wait forever on a corpse."""
        req = self._request(kernel, flow="split_vec_gcc4cli")
        self.svc.evict(kernel, req.flow, req.target, size=req.size)
        fault = faults.StaleMarker()
        before = self.svc.cache.marker_takeovers
        with faults.injected(faults.FaultPlan([fault])):
            resp = self.svc.handle(req)
        trial = self.judge("svc-stale-marker", repr(fault), req, resp)
        if not trial.ok:
            return trial
        if self.svc.cache.marker_takeovers <= before:
            return ChaosTrial("svc-stale-marker", kernel, repr(fault),
                              "silent-wrong",
                              "marker takeover did not fire")
        return ChaosTrial("svc-stale-marker", kernel, repr(fault),
                          "marker-takeover",
                          "aged marker reclaimed; compiled locally")

    # -- scripted epilogue trials ---------------------------------------------

    def breaker_cycle(self) -> ChaosTrial:
        """Deterministic closed -> open -> half-open -> closed cycle."""
        from ..service import KernelService

        s2 = KernelService(
            cache_dir=None, retries=0, backoff_base=0.0,
            breaker_threshold=2, breaker_cooldown=3,
        )
        try:
            req = self._request("saxpy_fp", flow="split_vec_gcc4cli",
                                target="neon")
            plan = faults.FaultPlan([faults.MemFault(after=1, repeat=True)])
            states = []
            with faults.injected(plan):
                for _ in range(2):          # threshold failures -> open
                    s2.handle(req)
                states.append(s2._breakers["neon"].state)
                for _ in range(2):          # cooldown - 1 short-circuits
                    s2.handle(req)
                states.append(s2._breakers["neon"].state)
            # The request that crosses the cooldown IS the probe (the
            # breaker no longer burns one extra denied request arming
            # it); the fault has cleared, so it succeeds and closes.
            probe = s2.handle(req)
            states.append(s2._breakers["neon"].state)
            ok = (
                states == ["open", "open", "closed"]
                and probe.result is not None
            )
            return ChaosTrial(
                "svc-breaker", "saxpy_fp", "MemFault(repeat)",
                "breaker-cycled" if ok else "silent-wrong",
                f"states={states}",
            )
        finally:
            s2.close()

    def stale_serve(self) -> ChaosTrial:
        """A known-good result survives a total runtime outage."""
        from ..service import KernelService

        s3 = KernelService(cache_dir=None, retries=0, backoff_base=0.0)
        try:
            req = self._request("dscal_fp", flow="split_vec_gcc4cli",
                                target="sse")
            good = s3.handle(req)
            plan = faults.FaultPlan([faults.MemFault(after=1, repeat=True)])
            with faults.injected(plan):
                resp = s3.handle(req)
            ok = (
                good.status == "ok"
                and resp.status == "stale"
                and resp.result is not None
                and resp.result.value == good.result.value
                and resp.result.cycles == good.result.cycles
                and any(e.cause == "stale-cache" for e in resp.events)
            )
            return ChaosTrial(
                "svc-stale", "dscal_fp", "MemFault(repeat)",
                "served-stale" if ok else "silent-wrong",
                f"status={resp.status}, events="
                f"{[e.cause for e in resp.events]}",
            )
        finally:
            s3.close()


def run_service_campaign(
    n_faults: int = 200,
    seed: int = 0,
    kernels=_DEFAULT_KERNELS,
    size: int = 16,
    cache_dir: str | None = None,
    farm_workers: int = 0,
) -> ChaosReport:
    """Soak a live :class:`~repro.service.KernelService` with ``n_faults``
    seeded faults; returns the outcome census with ``service_stats``
    attached.  Deterministic in ``seed`` (service jitter is seeded and
    backoff sleeps are disabled).

    ``farm_workers > 0`` runs the service with a compile farm and mixes
    the :data:`FARM_LAYERS` into the stream — worker crash/stall at the
    dispatch boundary and stale cross-replica leader markers at claim
    time.  The default (farm-less) fault stream is bit-for-bit what it
    was before the farm existed, so pinned-seed campaigns stay stable.
    """
    import shutil
    import tempfile

    rng = random.Random(seed)
    kernels = tuple(kernels)
    layers, weights = SERVICE_LAYERS, _SERVICE_WEIGHTS
    if int(farm_workers) > 0:
        layers = layers + FARM_LAYERS
        weights = weights + _FARM_WEIGHTS
    own_dir = cache_dir is None
    root = cache_dir or tempfile.mkdtemp(prefix="repro-svc-chaos-")
    soak = _ServiceSoak(seed, size, root, farm_workers=int(farm_workers))
    report = ChaosReport(seed=seed)
    try:
        for _ in range(int(n_faults)):
            layer = rng.choices(layers, weights=weights)[0]
            kernel = rng.choice(kernels)
            if layer == "svc-plain":
                t = soak.plain(kernel)
            elif layer == "svc-cache-corrupt":
                t = soak.cache_corrupt(kernel)
            elif layer == "svc-torn-write":
                t = soak.torn_write(kernel)
            elif layer == "svc-jit-lowering":
                t = soak.jit(kernel, materialize=False)
            elif layer == "svc-jit-materialize":
                t = soak.jit(kernel, materialize=True)
            elif layer == "svc-vm-transient":
                t = soak.vm(kernel, persistent=False)
            elif layer == "svc-vm-persistent":
                t = soak.vm(kernel, persistent=True)
            elif layer == "svc-overload":
                t = soak.overload(kernel)
            elif layer == "svc-farm-crash":
                t = soak.farm_crash(kernel)
            elif layer == "svc-farm-stall":
                t = soak.farm_stall(kernel)
            elif layer == "svc-stale-marker":
                t = soak.stale_marker(kernel)
            else:
                t = soak.deadline(kernel)
            report.trials.append(t)
        report.trials.append(soak.breaker_cycle())
        report.trials.append(soak.stale_serve())
        report.service_stats = soak.svc.stats()
    finally:
        soak.close()
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)
    return report


# -- the gateway soak profile --------------------------------------------------

#: gateway-profile fault layers with their campaign weights.
GATEWAY_LAYERS = (
    "gw-plain", "gw-garbage", "gw-truncated", "gw-slowloris",
    "gw-conn-drop", "gw-overload", "gw-deadline", "gw-jit-fault",
)
_GATEWAY_WEIGHTS = (30, 10, 10, 8, 12, 8, 10, 12)


def _pid_alive(pid: int) -> bool:
    import os

    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class _WireJudge:
    """Response judging shared by the gateway and fleet soaks.

    Subclass contract: ``self.size`` (trial problem size),
    ``self.ref_runner`` (a cold :class:`FlowRunner`), ``self._refs``
    (the reference memo dict).
    """

    def reference(self, kernel: str, flow: str, target: str,
                  size: int | None = None):
        """Cold no-cache (cycles, value), computed outside any fault."""
        size = self.size if size is None else size
        key = (kernel, flow, target, size)
        if key not in self._refs:
            inst = get_kernel(kernel).instantiate(size)
            r = self.ref_runner.run(inst, flow, target)
            self._refs[key] = (r.cycles, r.value)
        return self._refs[key]

    def judge(self, layer: str, fault: str, req: dict,
              resp: dict) -> ChaosTrial:
        """Classify a wire response payload against the invariant.

        The gateway-grade twist on :meth:`_ServiceSoak.judge`: an ``ok``
        result whose cycles/value diverge from the cold reference is a
        **torn response** — the wire changed the answer."""
        kernel = req.get("kernel", "?")
        error = resp.get("error")
        if error is not None and str(error).startswith("unclassified"):
            return ChaosTrial(layer, kernel, fault, "unclassified-trap",
                              str(error))
        status = resp.get("status")
        result = resp.get("result")
        if result is not None:
            if not result.get("checked") and status != "stale":
                return ChaosTrial(layer, kernel, fault, "silent-wrong",
                                  "result served without checking")
            if status == "ok":
                cycles, value = self.reference(
                    kernel, resp["flow"], resp["target"],
                    size=req.get("size"),
                )
                if result["cycles"] != cycles or result["value"] != value:
                    return ChaosTrial(
                        layer, kernel, fault, "torn-response",
                        f"wire result {result['cycles']}/{result['value']} "
                        f"diverged from cold reference {cycles}/{value}",
                    )
                return ChaosTrial(layer, kernel, fault, "correct",
                                  "warm-cache" if resp.get("from_cache")
                                  else "")
            if status in ("stale", "degraded"):
                if not resp.get("events"):
                    return ChaosTrial(layer, kernel, fault, "silent-wrong",
                                      f"{status} response without its "
                                      f"event chain")
                tag = ("served-stale" if status == "stale"
                       else "degraded-correct")
                return ChaosTrial(layer, kernel, fault, tag, "; ".join(
                    e["cause"] for e in resp["events"]
                ))
        if status == "shed":
            return ChaosTrial(layer, kernel, fault, "shed", error or "")
        if status == "rejected":
            if error is None:
                return ChaosTrial(layer, kernel, fault, "silent-wrong",
                                  "rejected without a classified tag")
            return ChaosTrial(layer, kernel, fault, "trapped", str(error))
        return ChaosTrial(layer, kernel, fault, "silent-wrong",
                          f"unknown response status {status!r}")


class _GatewaySoak(_WireJudge):
    """State of one gateway soak: a live farm-backed service behind a
    live :class:`~repro.service.gateway.ThreadedGateway`, one resilient
    client, one no-retry client, and raw-socket hostile peers."""

    def __init__(self, seed: int, size: int, cache_dir: str,
                 farm_workers: int = 2) -> None:
        from ..service import GatewayClient, KernelService, ThreadedGateway

        self.rng = random.Random(seed)
        self.seed = seed
        self.size = size
        self.svc = KernelService(
            cache_dir=cache_dir, seed=seed, retries=1, backoff_base=0.0,
            breaker_threshold=4, breaker_cooldown=3, queue_limit=16,
            workers=4, farm_workers=farm_workers, farm_budget_s=10.0,
        )
        # A short idle timeout keeps the slowloris trials sub-second;
        # drain_grace_s=0 because readiness-vs-listener ordering is the
        # drain epilogue's (and the unit tests') job, not the soak's.
        self.gw = ThreadedGateway(
            self.svc, max_inflight=8, idle_timeout_s=0.35,
            drain_grace_s=0.0, drain_budget_s=10.0,
        )
        self.addr = self.gw.address
        self.client = GatewayClient(
            [self.addr], retries=2, backoff_base=0.001, backoff_cap=0.01,
            seed=seed,
        )
        self.fast = GatewayClient([self.addr], retries=0, seed=seed + 1)
        self.ref_runner = FlowRunner()
        self._refs: dict = {}

    def close(self) -> None:
        self.client.close()
        self.fast.close()
        self.gw.close()
        self.svc.close()

    # -- shared plumbing -------------------------------------------------------

    def _payload(self, kernel: str, **over) -> dict:
        return {
            "op": "compile",
            "kernel": kernel,
            "flow": over.get("flow", self.rng.choice(_FLOWS)),
            "target": over.get("target", self.rng.choice(_TARGETS)),
            "size": self.size,
        }

    # -- raw-socket hostile peer ----------------------------------------------

    def _raw_reply(self, sock, timeout: float = 5.0):
        """Read one reply frame: ``(payload, torn)`` — ``(None, False)``
        is a clean close with no reply, ``(None, True)`` a torn one."""
        import socket as _socket

        from ..service.wire import (
            HEADER_LEN, NetworkError, check_header, decode_frame,
        )

        sock.settimeout(timeout)

        def rd(n: int) -> bytes:
            buf = b""
            while len(buf) < n:
                try:
                    chunk = sock.recv(n - len(buf))
                except (_socket.timeout, OSError):
                    return buf
                if not chunk:
                    return buf
                buf += chunk
            return buf

        header = rd(HEADER_LEN)
        if not header:
            return None, False
        try:
            if len(header) < HEADER_LEN:
                raise NetworkError("truncated", "short reply header")
            _ms, length = check_header(header)
            payload, _dl = decode_frame(header + rd(length + 4))
            return payload, False
        except NetworkError:
            return None, True

    def _raw_send(self, chunks, delay_s: float = 0.0, timeout: float = 5.0):
        """Open a raw connection, send ``chunks`` (optionally dripped),
        then read one reply.  Returns ``(payload, torn)``."""
        import socket as _socket

        sock = _socket.create_connection(self.addr, timeout=timeout)
        try:
            try:
                for i, chunk in enumerate(chunks):
                    if i and delay_s:
                        time.sleep(delay_s)
                    sock.sendall(chunk)
            except OSError:
                pass  # the gateway cut us off early — also an answer
            return self._raw_reply(sock, timeout=timeout)
        finally:
            sock.close()

    def _liveness(self, layer: str, kernel: str, fault: str):
        """The gateway must still answer after hostile bytes."""
        self.fast.close()  # probe on a fresh connection
        try:
            if self.fast.ready():
                return None
            detail = "gateway reports not-ready"
        except Exception as exc:  # noqa: BLE001 - census, not control flow
            detail = f"liveness probe failed: {exc}"
        return ChaosTrial(layer, kernel, fault, "silent-wrong",
                          f"gateway wedged after hostile bytes ({detail})")

    # -- trial kinds ----------------------------------------------------------

    def plain(self, kernel: str) -> ChaosTrial:
        req = self._payload(kernel)
        resp = self.client.request(req, deadline_s=60.0)
        return self.judge("gw-plain", "none", req, resp)

    def garbage(self, kernel: str) -> ChaosTrial:
        from ..service import wire

        mode = self.rng.choice(
            ("random", "bad-magic", "bad-crc", "bad-length")
        )
        fault = faults.GarbageFrame(mode=mode)
        good = wire.encode_frame({"op": "ready"})
        if mode == "bad-magic":
            data = b"XGW0" + good[4:]
        elif mode == "bad-crc":
            data = good[:-1] + bytes([good[-1] ^ 0x5A])
        elif mode == "bad-length":
            # An adversarial length field: must be rejected before any
            # payload allocation, so a tiny body is all we ever send.
            data = wire._HEADER.pack(
                wire.MAGIC, wire.VERSION, wire.NO_DEADLINE,
                wire.MAX_PAYLOAD + 1,
            ) + b"\x00" * 8
        else:
            n = self.rng.randrange(16, 64)
            data = bytes(self.rng.getrandbits(8) for _ in range(n))
            if data[:4] == wire.MAGIC:  # astronomically unlikely; be sure
                data = b"\xff" + data[1:]
        reply, torn = self._raw_send([data])
        alive = self._liveness("gw-garbage", kernel, repr(fault))
        if alive is not None:
            return alive
        if torn:
            return ChaosTrial("gw-garbage", kernel, repr(fault),
                              "torn-response", "garbled error reply")
        if reply is None:
            return ChaosTrial("gw-garbage", kernel, repr(fault),
                              "conn-closed", "dropped without a reply")
        if reply.get("status") == "rejected" and (
            reply.get("error") == "NetworkError"
        ):
            return ChaosTrial("gw-garbage", kernel, repr(fault), "trapped",
                              f"NetworkError ({mode})")
        return ChaosTrial("gw-garbage", kernel, repr(fault), "silent-wrong",
                          f"garbage answered with {reply.get('status')}/"
                          f"{reply.get('error')}")

    def truncated(self, kernel: str) -> ChaosTrial:
        import socket as _socket

        from ..service import wire

        good = wire.encode_frame(self._payload(kernel), deadline_s=5.0)
        keep = self.rng.randrange(1, len(good) - 1)
        fault = faults.TruncatedFrame(keep=keep)
        sock = _socket.create_connection(self.addr, timeout=5.0)
        try:
            sock.sendall(good[:keep])
            sock.shutdown(_socket.SHUT_WR)  # EOF mid-frame, reply readable
            reply, torn = self._raw_reply(sock)
        finally:
            sock.close()
        alive = self._liveness("gw-truncated", kernel, repr(fault))
        if alive is not None:
            return alive
        if torn:
            return ChaosTrial("gw-truncated", kernel, repr(fault),
                              "torn-response", "garbled error reply")
        if reply is None:
            return ChaosTrial("gw-truncated", kernel, repr(fault),
                              "conn-closed", f"cut at {keep}B, clean close")
        if reply.get("status") == "rejected" and (
            reply.get("error") == "NetworkError"
        ):
            return ChaosTrial("gw-truncated", kernel, repr(fault), "trapped",
                              f"NetworkError after {keep}B prefix")
        return ChaosTrial("gw-truncated", kernel, repr(fault),
                          "silent-wrong",
                          f"truncated frame answered with "
                          f"{reply.get('status')}/{reply.get('error')}")

    def slowloris(self, kernel: str) -> ChaosTrial:
        from ..service import wire

        req = self._payload(kernel)
        frame = wire.encode_frame(req, deadline_s=30.0)
        honest = self.rng.random() < 0.4
        if honest:
            # Slow but honest: the whole frame arrives, dripped well
            # inside the idle timeout — the gateway must serve it.
            fault = faults.SlowWire(chunk=32, delay_s=0.01, complete=True)
            chunks = [frame[i:i + 32] for i in range(0, len(frame), 32)]
            reply, torn = self._raw_send(chunks, delay_s=0.01)
            if torn:
                return ChaosTrial("gw-slowloris", kernel, repr(fault),
                                  "torn-response", "garbled reply")
            if reply is None:
                return ChaosTrial("gw-slowloris", kernel, repr(fault),
                                  "silent-wrong",
                                  "honest slow frame got no reply")
            return self.judge("gw-slowloris", repr(fault), req, reply)
        # Stalling peer: a prefix, then silence — the idle timeout must
        # reclaim the connection instead of pinning it open forever.
        fault = faults.SlowWire(chunk=7, complete=False)
        start = time.perf_counter()
        reply, torn = self._raw_send([frame[:7]])
        elapsed = time.perf_counter() - start
        alive = self._liveness("gw-slowloris", kernel, repr(fault))
        if alive is not None:
            return alive
        if torn:
            return ChaosTrial("gw-slowloris", kernel, repr(fault),
                              "torn-response", "garbled timeout reply")
        if reply is not None and not (
            reply.get("status") == "rejected"
            and reply.get("error") == "NetworkError"
        ):
            return ChaosTrial("gw-slowloris", kernel, repr(fault),
                              "silent-wrong",
                              f"stalled peer answered with "
                              f"{reply.get('status')}/{reply.get('error')}")
        return ChaosTrial("gw-slowloris", kernel, repr(fault),
                          "timeout-reclaimed",
                          f"connection reclaimed in {elapsed:.2f}s")

    def conn_drop(self, kernel: str) -> ChaosTrial:
        after = self.rng.randrange(1, 48)
        fault = faults.ConnDrop(after_bytes=after, count=1)
        req = self._payload(kernel)
        before = self.client.wire_errors
        with faults.injected(faults.FaultPlan([fault])):
            resp = self.client.request(req, deadline_s=60.0)
        trial = self.judge("gw-conn-drop", repr(fault), req, resp)
        if not trial.ok:
            return trial
        if self.client.wire_errors <= before:
            return ChaosTrial("gw-conn-drop", kernel, repr(fault),
                              "silent-wrong", "conn drop did not fire")
        return ChaosTrial(
            "gw-conn-drop", kernel, repr(fault), "retried-through",
            f"response torn at {after}B, classified and retried "
            f"({trial.outcome})",
        )

    def overload(self, kernel: str) -> ChaosTrial:
        req = self._payload(kernel)
        gw = self.gw.gateway
        # Saturate the gateway's inflight gauge (the campaign is serial,
        # so nothing else is touching it), observe a fast classified
        # shed, then release and observe recovery.
        gw._inflight += gw.max_inflight
        try:
            resp = self.fast.request(req, deadline_s=10.0)
        finally:
            gw._inflight -= gw.max_inflight
        if resp.get("status") != "shed" or (
            resp.get("error") != "OverloadError"
        ):
            return ChaosTrial(
                "gw-overload", kernel, "inflight-saturation",
                "silent-wrong",
                f"expected a classified shed, got {resp.get('status')}/"
                f"{resp.get('error')}",
            )
        resp2 = self.client.request(req, deadline_s=60.0)
        trial2 = self.judge("gw-overload", "inflight-saturation", req, resp2)
        if not trial2.ok:
            return trial2
        return ChaosTrial("gw-overload", kernel, "inflight-saturation",
                          "shed", "shed while saturated, served after")

    def deadline(self, kernel: str) -> ChaosTrial:
        from ..service import wire

        # A 1 ms budget in the frame header: the wire deadline must land
        # in the service, which rejects with DeadlineError (or, rarely,
        # serves inside the millisecond / trips an already-open breaker).
        req = self._payload(kernel)
        reply, torn = self._raw_send(
            [wire.encode_frame(req, deadline_s=0.001)]
        )
        fault = "wire-deadline=1ms"
        if torn:
            return ChaosTrial("gw-deadline", kernel, fault, "torn-response",
                              "garbled reply")
        if reply is None:
            return ChaosTrial("gw-deadline", kernel, fault, "silent-wrong",
                              "no reply to a deadlined request")
        trial = self.judge("gw-deadline", fault, req, reply)
        if trial.outcome == "trapped" and reply.get("error") not in (
            "DeadlineError", "CircuitOpenError"
        ):
            return ChaosTrial(
                "gw-deadline", kernel, fault, "silent-wrong",
                f"expected DeadlineError, got {reply.get('error')}",
            )
        return trial

    def jit_fault(self, kernel: str) -> ChaosTrial:
        """An in-service fault observed *through* the wire: the response
        must carry the same classified degradation story it would
        in-process."""
        if self.rng.random() < 0.5:
            fault = faults.MemFault(after=self.rng.randrange(1, 60))
        else:
            fault = faults.LoweringFault(idiom=self.rng.choice(_IDIOMS),
                                         target="*")
        req = self._payload(kernel)
        with faults.injected(faults.FaultPlan([fault])):
            resp = self.client.request(req, deadline_s=60.0)
        return self.judge("gw-jit-fault", repr(fault), req, resp)

    # -- scripted epilogue trials ---------------------------------------------

    def drain_trial(self) -> ChaosTrial:
        """Graceful drain on a fresh gateway: readiness flips first, a
        late request gets a classified DrainError, the in-flight request
        completes with a whole response, and post-drain connections are
        refused."""
        import threading

        from ..service import (
            GatewayClient, KernelService, NetworkError, ThreadedGateway,
        )

        svc2 = KernelService(cache_dir=None, seed=self.seed, workers=2,
                             farm_workers=0)
        gw2 = ThreadedGateway(svc2, drain_grace_s=0.4, drain_budget_s=15.0,
                              close_service=True)
        addr = gw2.address
        bg: dict = {}

        def inflight_request() -> None:
            c = GatewayClient([addr], retries=0, seed=self.seed + 7)
            try:
                # Cold compile on a no-cache service: long enough to
                # still be in flight when the drain lands.
                bg["resp"] = c.request(
                    self._payload("gemm_fp", flow="split_vec_gcc4cli",
                                  target="sse"),
                    deadline_s=60.0,
                )
            except Exception as exc:  # noqa: BLE001 - judged below
                bg["exc"] = exc
            finally:
                c.close()

        worker = threading.Thread(target=inflight_request)
        worker.start()
        waited = 0.0
        while (gw2.stats()["inflight"] == 0 and not bg and waited < 5.0):
            time.sleep(0.005)
            waited += 0.005
        drainer = threading.Thread(target=gw2.drain)
        drainer.start()
        time.sleep(0.05)  # let the drain coroutine flip the state
        # Inside the grace window the listener still accepts: readiness
        # must already answer False and compiles must already be
        # rejected with a classified DrainError.
        late_ready: bool | None = None
        late_resp: dict | None = None
        late = GatewayClient([addr], retries=0, seed=self.seed + 8)
        try:
            late_ready = late.ready(deadline_s=5.0)
            late_resp = late.request(self._payload("saxpy_fp"),
                                     deadline_s=5.0)
        except Exception:  # noqa: BLE001 - the grace window may close
            pass
        finally:
            late.close()
        worker.join(timeout=60.0)
        drainer.join(timeout=60.0)
        refused = False
        try:
            probe = GatewayClient([addr], retries=0, seed=self.seed + 9)
            try:
                probe.ready(deadline_s=2.0)
            finally:
                probe.close()
        except NetworkError:
            refused = True
        gw2.close()
        svc2.close()
        fault = "SIGTERM-equivalent drain"
        if "exc" in bg:
            return ChaosTrial("gw-drain", "gemm_fp", fault, "torn-response",
                              f"in-flight request died in the drain: "
                              f"{bg['exc']}")
        if "resp" not in bg:
            return ChaosTrial("gw-drain", "gemm_fp", fault, "silent-wrong",
                              "in-flight request never completed")
        trial = self.judge("gw-drain", fault,
                           self._payload("gemm_fp", flow="split_vec_gcc4cli",
                                         target="sse"), bg["resp"])
        if not trial.ok:
            return trial
        if late_ready is True:
            return ChaosTrial("gw-drain", "gemm_fp", fault, "silent-wrong",
                              "readiness still True after drain began")
        if late_resp is not None and not (
            late_resp.get("status") == "rejected"
            and late_resp.get("error") == "DrainError"
        ):
            return ChaosTrial(
                "gw-drain", "gemm_fp", fault, "silent-wrong",
                f"late request got {late_resp.get('status')}/"
                f"{late_resp.get('error')}, wanted a DrainError rejection",
            )
        if not refused:
            return ChaosTrial("gw-drain", "gemm_fp", fault, "silent-wrong",
                              "gateway still accepting after drain closed")
        return ChaosTrial(
            "gw-drain", "gemm_fp", fault, "drained-clean",
            "in-flight completed whole; late request classified; "
            "listener closed",
        )

    def leaked_workers_trial(self) -> ChaosTrial:
        """Close the whole stack; every farm worker PID must be dead."""
        pids = self.svc.farm_worker_pids()
        self.close()
        deadline = time.perf_counter() + 10.0
        alive = [p for p in pids if _pid_alive(p)]
        while alive and time.perf_counter() < deadline:
            time.sleep(0.05)
            alive = [p for p in pids if _pid_alive(p)]
        if alive:
            return ChaosTrial("gw-shutdown", "*", "stack close",
                              "leaked-workers",
                              f"farm PIDs {alive} survived service close")
        return ChaosTrial("gw-shutdown", "*", "stack close", "farm-reaped",
                          f"all {len(pids)} farm workers dead after close")


def run_gateway_campaign(
    n_faults: int = 200,
    seed: int = 0,
    kernels=_DEFAULT_KERNELS,
    size: int = 16,
    cache_dir: str | None = None,
    farm_workers: int = 2,
) -> ChaosReport:
    """Soak a live gateway-fronted service with ``n_faults`` seeded
    wire-and-service faults; returns the outcome census with gateway and
    service stats attached.

    The fault stream is deterministic in ``seed``; trial outcomes are
    wall-clock tolerant (a deadline that is rarely met in time is still
    a passing, classified outcome).  Ends with two scripted epilogues:
    the graceful-drain trial and the leaked-workers audit — the
    invariant of ISSUE 7: zero torn responses, zero unclassified errors,
    zero leaked farm workers.
    """
    import shutil
    import tempfile

    rng = random.Random(seed)
    kernels = tuple(kernels)
    own_dir = cache_dir is None
    root = cache_dir or tempfile.mkdtemp(prefix="repro-gw-chaos-")
    soak = _GatewaySoak(seed, size, root, farm_workers=int(farm_workers))
    report = ChaosReport(seed=seed)
    try:
        for _ in range(int(n_faults)):
            layer = rng.choices(GATEWAY_LAYERS,
                                weights=_GATEWAY_WEIGHTS)[0]
            kernel = rng.choice(kernels)
            if layer == "gw-plain":
                t = soak.plain(kernel)
            elif layer == "gw-garbage":
                t = soak.garbage(kernel)
            elif layer == "gw-truncated":
                t = soak.truncated(kernel)
            elif layer == "gw-slowloris":
                t = soak.slowloris(kernel)
            elif layer == "gw-conn-drop":
                t = soak.conn_drop(kernel)
            elif layer == "gw-overload":
                t = soak.overload(kernel)
            elif layer == "gw-deadline":
                t = soak.deadline(kernel)
            else:
                t = soak.jit_fault(kernel)
            report.trials.append(t)
        report.service_stats = {
            "service": soak.svc.stats(),
            "gateway": soak.gw.stats(),
        }
        report.trials.append(soak.drain_trial())
        report.trials.append(soak.leaked_workers_trial())
    finally:
        soak.close()
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)
    return report


FLEET_LAYERS = ("fl-plain", "fl-warm-identity", "fl-kill-compile",
                "fl-kill-write", "fl-kill-lead", "fl-kill-wire")
_FLEET_WEIGHTS = (25, 15, 18, 12, 15, 15)


class _FleetSoak(_WireJudge):
    """State of one fleet soak: a live :class:`FleetSupervisor` over N
    real ``serve --listen`` child processes sharing one cache directory,
    one sharded failover client, and the SIGKILL chaos driver.

    The kill layers SIGKILL the *shard-owner* replica of an in-flight
    cold compile at seeded moments — early (mid-compile), late
    (mid-cache-write), while its ``.lead`` cross-replica coalescing
    marker is fresh, and mid-frame under a pinned no-retry client — and
    judge that the sharded client rides through with a correct answer
    while the supervisor respawns the victim.  Every killed pid (replica
    and its farm workers) is recorded for the end-of-campaign leak
    audit; the shared cache directory is audited last: every ``*.vbk``
    must verify, the quarantine must be empty (atomic writes never let a
    torn entry into the namespace), and no stale ``.lead`` marker may
    survive.
    """

    def __init__(self, seed: int, size: int, cache_dir: str,
                 replicas: int = 3, farm_workers: int = 1) -> None:
        from ..service.supervisor import FleetSupervisor

        self.rng = random.Random(seed)
        self.seed = seed
        self.size = size
        self.root = cache_dir
        self.replicas = int(replicas)
        self.marker_ttl_s = 1.5
        self.sup = FleetSupervisor(
            self.replicas, cache_dir,
            farm_workers=farm_workers, workers=4,
            queue_limit=32, max_inflight=32,
            marker_ttl_s=self.marker_ttl_s, farm_budget_s=10.0,
            probe_interval_s=0.1, probe_timeout_s=2.0, probe_failures=3,
            restart_backoff_base=0.02, restart_backoff_cap=0.1,
            # Kill storms are the point of this campaign; the flap->park
            # path has its own scripted epilogue on a throwaway replica.
            restart_budget=10 ** 9,
            seed=seed,
        )
        self.sup.start()
        # Retry budget sized to ride out a full respawn (~1s): even if a
        # kill ever leaves zero live slots for a moment, the client must
        # wait out the supervisor, not surface a lost answer.
        self.client = self.sup.client(
            retries=8, backoff_base=0.02, backoff_cap=0.4,
            dead_cooldown_s=0.25, seed=seed,
        )
        self.ref_runner = FlowRunner()
        self._refs: dict = {}
        # Odd sizes, strictly increasing: every cold shape is a CacheKey
        # the fleet has never seen (warm trials use ``size`` itself).
        self._cold_size = size + (1 if size % 2 == 0 else 2)
        self.dead_pids: list[int] = []
        self.kills = 0

    def close(self) -> None:
        self.client.close()
        self.sup.stop()

    # -- plumbing --------------------------------------------------------------

    def _payload(self, kernel: str, size: int | None = None) -> dict:
        return {
            "op": "compile",
            "kernel": kernel,
            "flow": self.rng.choice(_FLOWS),
            "target": self.rng.choice(_TARGETS),
            "size": self.size if size is None else size,
        }

    def _cold_payload(self, kernel: str) -> dict:
        size = self._cold_size
        self._cold_size += 2
        return self._payload(kernel, size=size)

    def _pids_of(self, index: int) -> list:
        """The victim's own pid plus its farm workers' (for the
        post-mortem leak audit) — snapshotted *before* the kill."""
        from ..service import GatewayClient

        pids = []
        pid = self.sup.replica_pids().get(index)
        if pid is not None:
            pids.append(pid)
        addr = self.sup.slots()[index]
        if addr is not None:
            c = GatewayClient([addr], retries=0, seed=self.seed + 97)
            try:
                st = c.stats(deadline_s=10.0)
                pids.extend(int(p) for p in (st.get("farm_pids") or ()))
            except Exception:  # noqa: BLE001 - racing the kill window
                pass
            finally:
                c.close()
        return pids

    def _heal(self, layer: str, kernel: str, fault: str):
        """Wait for the supervisor to respawn every replica; a fleet
        that cannot heal is a failing outcome, not a flake."""
        deadline = time.perf_counter() + 60.0
        while time.perf_counter() < deadline:
            if self.sup.up_count() == self.replicas:
                return None
            time.sleep(0.05)
        return ChaosTrial(layer, kernel, fault, "silent-wrong",
                          f"fleet stuck at {self.sup.up_count()}/"
                          f"{self.replicas} replicas 60s after the kill")

    def _lead_files(self) -> list:
        import os

        try:
            return [n for n in os.listdir(self.root)
                    if n.endswith(".lead")]
        except OSError:
            return []

    # -- trial kinds -----------------------------------------------------------

    def plain(self, kernel: str) -> ChaosTrial:
        req = self._payload(kernel)
        resp = self.client.request(req, deadline_s=120.0)
        return self.judge("fl-plain", "none", req, resp)

    def warm_identity(self, kernel: str) -> ChaosTrial:
        """The same warm key served by *every* live replica must come
        back byte-identical — shared-cache read-through means one
        envelope on disk is the single source of truth."""
        from ..service import DeadlineError, GatewayClient, NetworkError
        from ..service.wire import encode_payload

        layer, fault = "fl-warm-identity", "cross-replica byte-compare"
        req = self._payload(kernel)
        warm = self.client.request(req, deadline_s=120.0)
        t0 = self.judge(layer, fault, req, warm)
        if not t0.ok:
            return t0
        if warm.get("status") != "ok":
            return ChaosTrial(layer, kernel, fault, t0.outcome,
                              f"warm-up got {warm.get('status')}; "
                              f"identity not comparable this trial")
        blobs = set()
        probed = 0
        for addr in self.sup.slots():
            if addr is None:
                continue
            c = GatewayClient([addr], retries=2, backoff_base=0.01,
                              seed=self.seed + 31)
            try:
                resp = c.request(req, deadline_s=60.0)
            except (NetworkError, DeadlineError):
                # The slot list is a snapshot: a replica killed by an
                # earlier trial can die between slots() and connect.
                # That's a liveness event, not an identity violation —
                # skip it; the supervisor's restart loop owns recovery.
                continue
            except Exception as exc:  # noqa: BLE001 - judged below
                return ChaosTrial(layer, kernel, fault, "unclassified-trap",
                                  f"replica {addr} probe died: {exc!r}")
            finally:
                c.close()
            t = self.judge(layer, fault, req, resp)
            if not t.ok:
                return t
            if resp.get("status") != "ok" or not resp.get("from_cache"):
                return ChaosTrial(
                    layer, kernel, fault, "silent-wrong",
                    f"replica {addr} answered {resp.get('status')}/"
                    f"from_cache={resp.get('from_cache')} for a warm key",
                )
            blobs.add(encode_payload(resp["result"]))
            probed += 1
        if len(blobs) > 1:
            return ChaosTrial(layer, kernel, fault, "torn-response",
                              f"warm result diverges across {probed} "
                              f"replicas ({len(blobs)} variants)")
        return ChaosTrial(layer, kernel, fault, "correct",
                          f"byte-identical across {probed} replicas")

    def _kill_mid_flight(self, layer: str, delay_lo: float,
                         delay_hi: float) -> ChaosTrial:
        """Cold compile through the sharded client; SIGKILL the shard
        owner after a seeded delay inside the flight."""
        import threading

        from ..service.client import shard_index

        kernel = self.rng.choice(_DEFAULT_KERNELS)
        req = self._cold_payload(kernel)
        victim = shard_index(req, self.replicas)
        fault = f"kill -9 replica {victim} after ~{delay_lo:.2f}s"
        doomed = self._pids_of(victim)
        out: dict = {}

        def issue() -> None:
            try:
                out["resp"] = self.client.request(req, deadline_s=120.0)
            except Exception as exc:  # noqa: BLE001 - judged below
                out["exc"] = exc

        worker = threading.Thread(target=issue)
        worker.start()
        time.sleep(self.rng.uniform(delay_lo, delay_hi))
        pid = self.sup.kill(victim)
        if pid is not None:
            self.kills += 1
            self.dead_pids.extend(doomed)
        worker.join(timeout=180.0)
        if worker.is_alive():
            return ChaosTrial(layer, kernel, fault, "silent-wrong",
                              "request still in flight 180s after kill")
        trial = self._judge_ride_through(layer, kernel, fault, req, out)
        if not trial.ok:
            return trial
        healed = self._heal(layer, kernel, fault)
        if healed is not None:
            return healed
        return trial

    def _judge_ride_through(self, layer: str, kernel: str, fault: str,
                            req: dict, out: dict) -> ChaosTrial:
        if "exc" in out:
            from ..errors import classify, is_classified

            exc = out["exc"]
            if is_classified(exc):
                # Classified but still a lost answer: with a whole fleet
                # to fail over to, the client should have ridden through.
                return ChaosTrial(layer, kernel, fault, "silent-wrong",
                                  f"sharded client gave up with "
                                  f"{classify(exc)}: {exc}")
            return ChaosTrial(layer, kernel, fault, "unclassified-trap",
                              f"{type(exc).__name__}: {exc}")
        trial = self.judge(layer, fault, req, out["resp"])
        if not trial.ok:
            return trial
        if trial.outcome != "correct":
            return trial
        return ChaosTrial(layer, kernel, fault, "killed-through",
                          f"served correct through the kill "
                          f"({out['resp'].get('attempts')} attempt(s))")

    def kill_compile(self) -> ChaosTrial:
        return self._kill_mid_flight("fl-kill-compile", 0.005, 0.08)

    def kill_write(self) -> ChaosTrial:
        return self._kill_mid_flight("fl-kill-write", 0.08, 0.4)

    def kill_lead(self) -> ChaosTrial:
        """Kill the shard owner while its cross-replica ``.lead`` marker
        is fresh; a survivor must reclaim it within the marker TTL and
        no stale marker may outlive the trial."""
        trial = self._kill_mid_flight("fl-kill-lead", 0.02, 0.15)
        if not trial.ok:
            return trial
        deadline = time.perf_counter() + self.marker_ttl_s + 10.0
        leads = self._lead_files()
        while leads and time.perf_counter() < deadline:
            time.sleep(0.05)
            leads = self._lead_files()
        if leads:
            return ChaosTrial("fl-kill-lead", trial.kernel, trial.fault,
                              "stale-lead",
                              f"markers {leads} still present "
                              f"{self.marker_ttl_s + 10.0:.1f}s after the "
                              f"kill (TTL {self.marker_ttl_s}s)")
        return trial

    def kill_wire(self) -> ChaosTrial:
        """SIGKILL the replica a *pinned no-retry* client is mid-frame
        with: the cut must surface as a classified NetworkError (never a
        partial frame accepted as an answer), and the sharded client
        must then serve the same request through the survivors."""
        import threading

        from ..service import GatewayClient
        from ..service.client import shard_index

        layer = "fl-kill-wire"
        kernel = self.rng.choice(_DEFAULT_KERNELS)
        req = self._cold_payload(kernel)
        victim = shard_index(req, self.replicas)
        fault = f"kill -9 replica {victim} mid-frame"
        addr = self.sup.slots()[victim]
        if addr is None:
            # The victim is mid-respawn from a prior trial; the pinned
            # half of this trial needs a live socket to cut.
            healed = self._heal(layer, kernel, fault)
            if healed is not None:
                return healed
            addr = self.sup.slots()[victim]
        doomed = self._pids_of(victim)
        pinned = GatewayClient([addr], retries=0, seed=self.seed + 53)
        out: dict = {}

        def issue() -> None:
            try:
                out["resp"] = pinned.request(req, deadline_s=60.0)
            except Exception as exc:  # noqa: BLE001 - judged below
                out["exc"] = exc

        worker = threading.Thread(target=issue)
        worker.start()
        time.sleep(self.rng.uniform(0.01, 0.1))
        pid = self.sup.kill(victim)
        if pid is not None:
            self.kills += 1
            self.dead_pids.extend(doomed)
        worker.join(timeout=120.0)
        pinned.close()
        if worker.is_alive():
            return ChaosTrial(layer, kernel, fault, "silent-wrong",
                              "pinned request still in flight 120s "
                              "after kill")
        if "exc" in out:
            from ..errors import classify, is_classified

            exc = out["exc"]
            if not is_classified(exc):
                return ChaosTrial(layer, kernel, fault, "unclassified-trap",
                                  f"{type(exc).__name__}: {exc}")
            detail = f"pinned client saw classified {classify(exc)}"
        else:
            # The kill landed outside the flight; the reply must still
            # be a whole, correct frame.
            t = self.judge(layer, fault, req, out["resp"])
            if not t.ok:
                return t
            detail = "kill missed the flight; whole frame served"
        resp2 = self.client.request(req, deadline_s=120.0)
        t2 = self.judge(layer, fault, req, resp2)
        if not t2.ok:
            return t2
        healed = self._heal(layer, kernel, fault)
        if healed is not None:
            return healed
        return ChaosTrial(layer, kernel, fault, "killed-through",
                          f"{detail}; survivors served the same key")

    # -- scripted epilogue trials ---------------------------------------------

    def park_trial(self) -> ChaosTrial:
        """Flap suppression on a throwaway one-replica supervisor: kill
        it past its restart budget and the replica must park with a
        classified FleetError, with readiness reporting the lost
        capacity."""
        from ..errors import classify
        from ..service.supervisor import FleetSupervisor

        layer, fault = "fl-park", "kill -9 x3 inside the flap window"
        sup = FleetSupervisor(
            1, self.root, farm_workers=0, workers=2,
            probe_interval_s=0.05, probe_timeout_s=2.0,
            restart_backoff_base=0.01, restart_backoff_cap=0.05,
            restart_budget=2, restart_window_s=60.0,
            seed=self.seed + 71,
        )
        try:
            sup.start()
            deadline = time.perf_counter() + 90.0
            while time.perf_counter() < deadline:
                ready = sup.ready()
                if ready["parked"] == 1:
                    break
                pids = sup.replica_pids()
                if pids:
                    sup.kill(0)
                time.sleep(0.05)
            ready = sup.ready()
            if ready["parked"] != 1:
                return ChaosTrial(layer, "*", fault, "silent-wrong",
                                  f"replica never parked: {ready}")
            if ready["ready"] or not ready["degraded"]:
                return ChaosTrial(layer, "*", fault, "silent-wrong",
                                  f"parked fleet still reports {ready}")
            err = sup.stats()["replicas"][0]["error"]
            parked_err = sup._replicas[0].error
            if parked_err is None or classify(parked_err) != "FleetError":
                return ChaosTrial(layer, "*", fault, "unclassified-trap",
                                  f"parked without a classified "
                                  f"FleetError: {err!r}")
            return ChaosTrial(layer, "*", fault, "parked-classified",
                              str(err))
        finally:
            sup.stop()

    def cache_audit_trial(self) -> ChaosTrial:
        """The shared cache after the kill storm: every ``*.vbk``
        envelope verifies, the quarantine is empty, no ``.lead`` marker
        survives.  Leftover ``*.tmp`` droppings are harmless by design
        (the index never reads them) and only reported."""
        import os

        from ..service.cache import unpack_kernel

        layer, fault = "fl-cache-audit", f"after {self.kills} kills"
        entries, tmps = 0, 0
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if name.endswith(".tmp"):
                tmps += 1
                continue
            if not name.endswith(".vbk") or not os.path.isfile(path):
                continue
            entries += 1
            try:
                with open(path, "rb") as f:
                    unpack_kernel(f.read())
            except Exception as exc:  # noqa: BLE001 - the audit verdict
                return ChaosTrial(layer, "*", fault, "torn-cache",
                                  f"{name} failed verification: {exc}")
        qdir = os.path.join(self.root, "quarantine")
        quarantined = os.listdir(qdir) if os.path.isdir(qdir) else []
        if quarantined:
            return ChaosTrial(layer, "*", fault, "torn-cache",
                              f"quarantine not empty: {quarantined} — a "
                              f"torn entry reached the cache namespace")
        leads = self._lead_files()
        if leads:
            return ChaosTrial(layer, "*", fault, "stale-lead",
                              f"leader markers survived the campaign: "
                              f"{leads}")
        return ChaosTrial(layer, "*", fault, "cache-clean",
                          f"{entries} entries verified, quarantine "
                          f"empty, 0 stale leads, {tmps} harmless "
                          f"tmp dropping(s)")

    def farm_leak_trial(self) -> ChaosTrial:
        """Every pid that died in the storm — replicas *and* their farm
        workers — must actually be gone (the farm's parent-death
        watchdog is what makes the workers true orphan-proof)."""
        layer, fault = "fl-leak-audit", f"{self.kills} kills"
        deadline = time.perf_counter() + 20.0
        alive = [p for p in set(self.dead_pids) if _pid_alive(p)]
        while alive and time.perf_counter() < deadline:
            time.sleep(0.05)
            alive = [p for p in set(self.dead_pids) if _pid_alive(p)]
        if alive:
            return ChaosTrial(layer, "*", fault, "leaked-workers",
                              f"pids {alive} survived their replica's "
                              f"SIGKILL")
        return ChaosTrial(layer, "*", fault, "farm-reaped",
                          f"all {len(set(self.dead_pids))} killed pids "
                          f"(replicas + farm workers) are gone")

    def final_ready_trial(self) -> ChaosTrial:
        """The fleet must end the campaign at full serving capacity."""
        layer, fault = "fl-final", "post-storm readiness"
        healed = self._heal(layer, "*", fault)
        if healed is not None:
            return healed
        req = self._payload(self.rng.choice(_DEFAULT_KERNELS))
        resp = self.client.request(req, deadline_s=120.0)
        trial = self.judge(layer, fault, req, resp)
        if not trial.ok:
            return trial
        ready = self.sup.ready()
        if not ready["ready"] or ready["degraded"]:
            return ChaosTrial(layer, "*", fault, "silent-wrong",
                              f"fleet not at full capacity: {ready}")
        return ChaosTrial(layer, "*", fault, "fleet-ready",
                          f"{ready['up']}/{ready['replicas']} replicas "
                          f"up after {self.kills} kills")


def run_fleet_campaign(
    n_faults: int = 200,
    seed: int = 0,
    kernels=_DEFAULT_KERNELS,
    size: int = 16,
    cache_dir: str | None = None,
    replicas: int = 3,
    farm_workers: int = 1,
) -> ChaosReport:
    """SIGKILL crash-consistency campaign over a supervised replica
    fleet (ISSUE 8's invariant).

    ``n_faults`` seeded trials against a live N-replica fleet sharing
    one cache directory — plain sharded traffic, cross-replica warm
    byte-identity probes, and SIGKILLs of the shard-owner replica
    mid-cold-compile, mid-cache-write, while holding a ``.lead``
    marker, and mid-frame under a pinned client — followed by four
    scripted epilogues: the flap->park trial, the shared-cache audit
    (every envelope verifies, quarantine empty, zero stale leads), the
    killed-pid leak audit, and the full-capacity readiness check.
    """
    import shutil
    import tempfile

    rng = random.Random(seed)
    kernels = tuple(kernels)
    own_dir = cache_dir is None
    root = cache_dir or tempfile.mkdtemp(prefix="repro-fleet-chaos-")
    soak = _FleetSoak(seed, size, root, replicas=int(replicas),
                      farm_workers=int(farm_workers))
    report = ChaosReport(seed=seed)
    try:
        for _ in range(int(n_faults)):
            layer = rng.choices(FLEET_LAYERS, weights=_FLEET_WEIGHTS)[0]
            kernel = rng.choice(kernels)
            try:
                if layer == "fl-plain":
                    t = soak.plain(kernel)
                elif layer == "fl-warm-identity":
                    t = soak.warm_identity(kernel)
                elif layer == "fl-kill-compile":
                    t = soak.kill_compile()
                elif layer == "fl-kill-write":
                    t = soak.kill_write()
                elif layer == "fl-kill-lead":
                    t = soak.kill_lead()
                else:
                    t = soak.kill_wire()
            except Exception as exc:  # noqa: BLE001 - census integrity:
                # a trial that dies is a failing outcome, never a
                # campaign crash that loses the whole report.
                t = ChaosTrial(layer, kernel, "trial-crashed",
                               "unclassified-trap",
                               f"{type(exc).__name__}: {exc}")
            report.trials.append(t)
        report.trials.append(soak.park_trial())
        report.trials.append(soak.cache_audit_trial())
        report.trials.append(soak.farm_leak_trial())
        report.trials.append(soak.final_ready_trial())
        report.service_stats = {
            "fleet": soak.sup.stats(),
            "ready": soak.sup.ready(),
            "kills": soak.kills,
            "client": {
                "attempts": soak.client.attempts,
                "failovers": soak.client.failovers,
                "wire_errors": soak.client.wire_errors,
            },
        }
    finally:
        soak.close()
        if own_dir:
            shutil.rmtree(root, ignore_errors=True)
    return report
