"""Seeded chaos campaigns: one runner, four profiles.

:func:`run_campaign` draws ``n_faults`` trials from a seeded RNG — each
trial's layer from the profile's weighted table ``{layer: (weight,
trial)}``, then its kernel — injects the fault, and classifies the
observable outcome.  It then runs the profile's scripted epilogue,
attaches the profile's stats, and closes it.  The **chaos invariant**
asserted by :meth:`ChaosReport.ok`:

    every injected fault leads to a *correct* result (possibly via a
    degradation path) or a *classified* trap — never a silent wrong
    answer and never an unclassified traceback.

Profiles (CLI ``repro chaos --profile NAME``):

=========== ===========================================================
profile     what the trials attack
=========== ===========================================================
``layers``  the pipeline stages, one fresh flow per trial: bit-flipped
            containers (``bytecode``), forced lowering and
            materialization failures (``jit-*``), a memory fault that
            every registered engine must trap exactly like the reference
            interpreter (``vm-mem``), skewed array bases
            (``vm-misalign``); ``include_harness`` adds a worker crash
            and a worker stall in a real process pool
``service`` a live cache-backed :class:`~repro.service.KernelService`:
            cache corruption, torn writes, JIT and VM faults, overload,
            expired deadlines; epilogue: a breaker cycle and a stale
            serve
``gateway`` the same service behind a live
            :class:`~repro.service.gateway.ThreadedGateway`: garbage,
            truncated and slowloris frames, connections torn
            mid-response, overload, wire deadlines, JIT faults through
            the wire; epilogue: a graceful drain
``fleet``   a supervised replica fleet over one cache directory:
            SIGKILL of the shard owner mid-compile, mid-cache-write and
            mid-frame, plus cross-replica warm byte-identity; epilogue:
            flap->park, a shared-cache audit, a killed-pid leak audit,
            full-capacity readiness
=========== ===========================================================

Each profile has its own passing outcomes (``trapped``,
``degraded-correct``, ``healed``, ``killed-through``, ...);
anything in :data:`FAILING` makes the campaign fail.  The live profiles
judge every response in its wire form
(:func:`~repro.service.wire.response_payload`) against a cold no-cache
reference run: an ``ok`` answer that differs is a ``wrong-answer`` in
process and a ``torn-response`` once a wire carried it.

Campaigns are deterministic in ``seed``.  The live profiles' trials draw
from a second ``Random(seed)`` of their own, so their (layer, kernel)
stream depends only on the seed, the table weights and the draw order;
the ``layers`` profile's trials share the campaign RNG.  A trial that
raises is a failing outcome, never a lost report: an exception outside
the :mod:`repro.errors` taxonomy is an ``unclassified-trap``, a
classified one a ``silent-wrong`` (a lost answer) naming its tag.
"""

from __future__ import annotations

import contextlib
import random
import shutil
import tempfile
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
    "LAYERS",
    "SERVICE_LAYERS",
    "GATEWAY_LAYERS",
]

#: failing outcome tags (anything else passes).  ``torn-response`` (a
#: partial or corrupted wire frame accepted as an answer) belongs to the
#: gateway profile's invariant; ``torn-cache`` (a shared cache entry that
#: fails envelope verification after a replica SIGKILL) and
#: ``leaked-workers`` (a killed replica's process still alive) belong to
#: the fleet profile's.
FAILING = ("silent-wrong", "wrong-answer", "unclassified-trap",
           "parity-mismatch", "torn-response", "leaked-workers",
           "torn-cache")

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
    #: the profile's final stats snapshot of its live system (the
    #: service, gateway or fleet); None for the ``layers`` profile.
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


def _classified_outcome(exc: Exception) -> tuple[str, str]:
    if isinstance(exc, CheckError):
        return ("wrong-answer", str(exc))
    if is_classified(exc):
        return ("trapped", classify(exc))
    return ("unclassified-trap", f"{type(exc).__name__}: {exc}")


def _escaped(layer: str, kernel: str, fault: str, exc: Exception,
             who: str) -> ChaosTrial:
    """The outcome of an exception that escaped ``who``: a classified one
    is still a lost answer (``silent-wrong`` naming its tag); anything
    else is an ``unclassified-trap``."""
    if is_classified(exc):
        return ChaosTrial(layer, kernel, fault, "silent-wrong",
                          f"{who} gave up with {classify(exc)}: {exc}")
    return ChaosTrial(layer, kernel, fault, "unclassified-trap",
                      f"{type(exc).__name__}: {exc}")


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


def _trials_harness(size: int, rng, timeout: float) -> list:
    """One crashed and one stalled sweep (worker processes required)."""
    from .parallel import Cell, run_cells

    kernels = _DEFAULT_KERNELS
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


# -- the layers profile -------------------------------------------------------


class _Layers:
    """The ``layers`` profile: faults injected straight into the pipeline
    stages.  Its trials draw their fault parameters from the campaign
    RNG itself, and a bit flip's offset is drawn over the encoded
    container, so its stream moves whenever encoded lengths do."""

    def __init__(self, seed: int, size: int, include_harness: bool = False,
                 harness_timeout: float = 10.0) -> None:
        self.draws = self.rng = random.Random(seed)
        self.size = size
        self.include_harness = include_harness
        self.harness_timeout = harness_timeout
        self.encoded: dict = {}

    table = {
        "bytecode": (40, lambda p, k: _trial_bytecode(
            k, p.size, p.rng, p.encoded)),
        "jit-lowering": (20, lambda p, k: _trial_jit(
            k, p.size, p.rng, materialize=False)),
        "jit-materialize": (5, lambda p, k: _trial_jit(
            k, p.size, p.rng, materialize=True)),
        "vm-mem": (20, lambda p, k: _trial_vm_mem(k, p.size, p.rng)),
        "vm-misalign": (15, lambda p, k: _trial_vm_misalign(
            k, p.size, p.rng)),
    }

    def finish(self):
        """The process-pool crash and stall sweeps, when asked for."""
        if not self.include_harness:
            return [], None
        return _trials_harness(self.size, self.rng,
                               self.harness_timeout), None

    def close(self) -> None:
        pass


# -- the live-system profiles -------------------------------------------------


def _pid_alive(pid: int) -> bool:
    import os

    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class _Soak:
    """State shared by the live-system profiles: the seeded RNGs, a
    private cache directory, the cold reference memo, the payload
    builder, and the response judge.

    ``draws`` is the campaign RNG (layer, then kernel); trials draw their
    shapes and fault parameters from ``rng``, a second ``Random(seed)``.
    """

    #: the outcome of an ``ok`` answer that differs from the cold
    #: reference: the wire changed the answer.
    mismatch = "torn-response"

    def __init__(self, seed: int, size: int) -> None:
        self.draws = random.Random(seed)
        self.rng = random.Random(seed)
        self.seed = seed
        self.size = size
        self.root = tempfile.mkdtemp(prefix="repro-chaos-")
        self.ref_runner = FlowRunner()
        self._refs: dict = {}

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def _payload(self, kernel: str, size: int | None = None, **over) -> dict:
        # Both draws happen on every call, pinned shape or not, so pinning
        # one trial's flow or target never shifts the stream after it.
        flow = self.rng.choice(_FLOWS)
        target = self.rng.choice(_TARGETS)
        return {
            "op": "compile",
            "kernel": kernel,
            "flow": over.get("flow", flow),
            "target": over.get("target", target),
            "size": self.size if size is None else size,
        }

    @staticmethod
    @contextlib.contextmanager
    def _saturated(svc):
        """Hold every admission slot of ``svc`` for the ``with`` body (the
        campaign is serial, so nothing else competes for them)."""
        adm = svc.admission
        slots = []
        try:
            while adm.depth < adm.limit:
                slots.append(adm.admit())
            yield
        finally:
            for s in slots:
                s.__exit__(None, None, None)

    @staticmethod
    def _surviving(pids, timeout_s: float) -> list:
        """The pids still alive after waiting up to ``timeout_s``."""
        deadline = time.perf_counter() + timeout_s
        alive = [p for p in set(pids) if _pid_alive(p)]
        while alive and time.perf_counter() < deadline:
            time.sleep(0.05)
            alive = [p for p in alive if _pid_alive(p)]
        return alive

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
        """Classify a wire response payload against the invariant."""
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
                        layer, kernel, fault, self.mismatch,
                        f"result {result['cycles']}/{result['value']} "
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

    def _judge_shed(self, layer: str, fault: str, req: dict, shed: dict,
                    after: dict) -> ChaosTrial:
        """A saturated front must shed with a classified OverloadError,
        then serve the same request once released."""
        if shed.get("status") != "shed" or (
            shed.get("error") != "OverloadError"
        ):
            return ChaosTrial(
                layer, req["kernel"], fault, "silent-wrong",
                f"expected a classified shed, got {shed.get('status')}/"
                f"{shed.get('error')}",
            )
        trial = self.judge(layer, fault, req, after)
        if not trial.ok:
            return trial
        return ChaosTrial(layer, req["kernel"], fault, "shed",
                          "shed while saturated, served after")

    def _judge_deadline(self, layer: str, fault: str, req: dict,
                        resp: dict) -> ChaosTrial:
        trial = self.judge(layer, fault, req, resp)
        # An open breaker (left by an earlier persistent-fault trial) may
        # short-circuit before the deadline is even consulted; both tags
        # are classified and correct for their interleaving.
        if trial.outcome == "trapped" and resp.get("error") not in (
            "DeadlineError", "CircuitOpenError"
        ):
            return ChaosTrial(
                layer, req["kernel"], fault, "silent-wrong",
                f"expected DeadlineError, got {resp.get('error')}",
            )
        return trial


class _ServiceSoak(_Soak):
    """The ``service`` profile: a live cache-backed service soaked in
    process.  Responses are judged in their wire form, but no wire
    carried them, so a mismatch here is a ``wrong-answer``."""

    mismatch = "wrong-answer"

    def __init__(self, seed: int, size: int) -> None:
        from ..service import KernelService

        super().__init__(seed, size)
        # backoff_base=0 keeps the soak fast and deterministic (no real
        # sleeps); tight breaker knobs make open/half-open/closed cycles
        # happen organically within a 200-fault campaign.
        self.svc = KernelService(
            cache_dir=self.root, seed=seed, retries=1,
            backoff_base=0.0, breaker_threshold=2, breaker_cooldown=4,
            queue_limit=16, workers=2,
        )

    def close(self) -> None:
        self.svc.close()
        super().close()

    def _serve(self, req: dict, svc=None, deadline_s=None) -> dict:
        """Serve ``req`` in process (on ``svc``, default the soaked
        service); returns the response in its wire form."""
        from ..service import ServiceRequest
        from ..service.wire import response_payload

        return response_payload((svc or self.svc).handle(ServiceRequest(
            req["kernel"], flow=req["flow"], target=req["target"],
            size=req["size"], deadline_s=deadline_s,
        )))

    # -- trial kinds ----------------------------------------------------------

    def plain(self, kernel: str) -> ChaosTrial:
        req = self._payload(kernel)
        return self.judge("svc-plain", "none", req, self._serve(req))

    def cache_corrupt(self, kernel: str) -> ChaosTrial:
        """Flip one byte of every on-disk entry, then serve: corrupted
        entries must be quarantined and recompiled, never served."""
        import os

        layer, fault = "svc-cache-corrupt", "bitflip-all-entries"
        names = [n for n in os.listdir(self.root) if n.endswith(".vbk")]
        for name in names:
            path = os.path.join(self.root, name)
            with open(path, "rb") as f:
                data = bytearray(f.read())
            if not data:
                continue
            off = self.rng.randrange(len(data))
            data[off] ^= 1 << self.rng.randrange(8)
            with open(path, "wb") as f:
                f.write(bytes(data))
        before = self.svc.cache.quarantined
        req = self._payload(kernel)
        resp = self._serve(req)
        if names and resp["from_cache"]:
            return ChaosTrial(layer, kernel, fault, "silent-wrong",
                              "a corrupted cache entry was served")
        trial = self.judge(layer, fault, req, resp)
        if not trial.ok:
            return trial
        healed = self.svc.cache.quarantined > before
        # Self-healing: the same request is now re-servable (recompiled,
        # overwritten) with identical results.
        resp2 = self._serve(req)
        trial2 = self.judge(layer, fault, req, resp2)
        if not trial2.ok:
            return trial2
        if (
            resp["result"] is not None and resp2["result"] is not None
            and resp2["result"]["value"] != resp["result"]["value"]
        ):
            return ChaosTrial(layer, kernel, fault, "wrong-answer",
                              "recompiled entry changed the answer")
        return ChaosTrial(
            layer, kernel, fault, "healed" if healed else trial.outcome,
            f"quarantined {self.svc.cache.quarantined - before} entries",
        )

    def torn_write(self, kernel: str) -> ChaosTrial:
        """Kill the (simulated) service mid-cache-write: no entry under
        the final name, fresh services recompile."""
        from ..service import KernelService

        req = self._payload(kernel, flow="split_vec_gcc4cli", target="sse")
        # Drop any existing entry so the request compiles and *puts* — the
        # put is where the torn write fires.  (The cache key is a function
        # of the bytecode, so a warm entry would otherwise absorb it.)
        self.svc.evict(kernel, req["flow"], req["target"], size=req["size"])
        fault = faults.CacheTornWrite()
        before = self.svc.cache.put_failures
        with faults.injected(faults.FaultPlan([fault])):
            resp = self._serve(req)
        trial = self.judge("svc-torn-write", repr(fault), req, resp)
        if not trial.ok:
            return trial
        if self.svc.cache.put_failures <= before:
            return ChaosTrial("svc-torn-write", kernel, repr(fault),
                              "silent-wrong", "torn write did not fire")
        # Crash-safety: a fresh service over the same directory must not
        # find (let alone serve) the half-written entry.
        fresh = KernelService(cache_dir=self.root, seed=self.seed)
        try:
            resp2 = self._serve(req, fresh)
        finally:
            fresh.close()
        if resp2["from_cache"]:
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
        req = self._payload(kernel)
        with faults.injected(faults.FaultPlan([fault])):
            resp = self._serve(req)
        trial = self.judge(layer, repr(fault), req, resp)
        if not trial.ok:
            return trial
        # Taint guard: the fault-degraded artifact must not have been
        # persisted — a later clean request must not replay the fault.
        resp2 = self._serve(self._payload(
            kernel, flow=req["flow"], target=req["target"]
        ))
        if any(e["cause"] == "fault-injected" for e in resp2["events"]):
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
        req = self._payload(kernel)
        with faults.injected(faults.FaultPlan([fault])):
            resp = self._serve(req)
        return self.judge(layer, repr(fault), req, resp)

    def overload(self, kernel: str) -> ChaosTrial:
        """Saturate admission, observe a classified shed, then recover."""
        req = self._payload(kernel)
        with self._saturated(self.svc):
            resp = self._serve(req)
        return self._judge_shed("svc-overload", "admission-saturation",
                                req, resp, self._serve(req))

    def deadline(self, kernel: str) -> ChaosTrial:
        req = self._payload(kernel)
        return self._judge_deadline("svc-deadline", "deadline_s=0", req,
                                    self._serve(req, deadline_s=0.0))

    table = {
        "svc-plain": (20, plain),
        "svc-cache-corrupt": (18, cache_corrupt),
        "svc-torn-write": (8, torn_write),
        "svc-jit-lowering": (12, lambda s, k: s.jit(k, materialize=False)),
        "svc-jit-materialize": (8, lambda s, k: s.jit(k, materialize=True)),
        "svc-vm-transient": (12, lambda s, k: s.vm(k, persistent=False)),
        "svc-vm-persistent": (12, lambda s, k: s.vm(k, persistent=True)),
        "svc-overload": (5, overload),
        "svc-deadline": (5, deadline),
    }

    # -- scripted epilogue trials ---------------------------------------------

    def finish(self):
        """A breaker cycle and a stale serve, then the service stats."""
        return [self.breaker_cycle(), self.stale_serve()], self.svc.stats()

    def breaker_cycle(self) -> ChaosTrial:
        """Deterministic closed -> open -> half-open -> closed cycle."""
        from ..service import KernelService

        s2 = KernelService(
            cache_dir=None, retries=0, backoff_base=0.0,
            breaker_threshold=2, breaker_cooldown=3,
        )
        try:
            req = self._payload("saxpy_fp", flow="split_vec_gcc4cli",
                                target="neon")
            plan = faults.FaultPlan([faults.MemFault(after=1, repeat=True)])
            states = []
            with faults.injected(plan):
                for _ in range(2):          # threshold failures -> open
                    self._serve(req, s2)
                states.append(s2._breakers["neon"].state)
                for _ in range(2):          # cooldown - 1 short-circuits
                    self._serve(req, s2)
                states.append(s2._breakers["neon"].state)
            # The request that crosses the cooldown IS the probe (the
            # breaker no longer burns one extra denied request arming
            # it); the fault has cleared, so it succeeds and closes.
            probe = self._serve(req, s2)
            states.append(s2._breakers["neon"].state)
            ok = (
                states == ["open", "open", "closed"]
                and probe["result"] is not None
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
            req = self._payload("dscal_fp", flow="split_vec_gcc4cli",
                                target="sse")
            good = self._serve(req, s3)
            plan = faults.FaultPlan([faults.MemFault(after=1, repeat=True)])
            with faults.injected(plan):
                resp = self._serve(req, s3)
            ok = (
                good["status"] == "ok"
                and resp["status"] == "stale"
                and resp["result"] is not None
                and resp["result"]["value"] == good["result"]["value"]
                and resp["result"]["cycles"] == good["result"]["cycles"]
                and any(e["cause"] == "stale-cache" for e in resp["events"])
            )
            return ChaosTrial(
                "svc-stale", "dscal_fp", "MemFault(repeat)",
                "served-stale" if ok else "silent-wrong",
                f"status={resp['status']}, events="
                f"{[e['cause'] for e in resp['events']]}",
            )
        finally:
            s3.close()


class _GatewaySoak(_Soak):
    """The ``gateway`` profile: a live service behind a live
    :class:`~repro.service.gateway.ThreadedGateway`, one resilient
    client, one no-retry client, and raw-socket hostile peers."""

    def __init__(self, seed: int, size: int) -> None:
        from ..service import GatewayClient, KernelService, ThreadedGateway

        super().__init__(seed, size)
        self.svc = KernelService(
            cache_dir=self.root, seed=seed, retries=1, backoff_base=0.0,
            breaker_threshold=4, breaker_cooldown=3, queue_limit=16,
            workers=4,
        )
        # A short idle timeout keeps the slowloris trials sub-second;
        # drain_grace_s=0 because readiness-vs-listener ordering is the
        # drain epilogue's (and the unit tests') job, not the soak's.
        self.gw = ThreadedGateway(
            self.svc, idle_timeout_s=0.35, drain_grace_s=0.0,
            drain_budget_s=10.0,
        )
        self.addr = self.gw.address
        self.client = GatewayClient(
            [self.addr], retries=2, backoff_base=0.001, backoff_cap=0.01,
            seed=seed,
        )
        self.fast = GatewayClient([self.addr], retries=0, seed=seed + 1)

    def close(self) -> None:
        self.client.close()
        self.fast.close()
        self.gw.close()
        self.svc.close()
        super().close()

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
        """Saturate the service's admission behind the gateway, observe
        a fast classified shed over the wire, then recover."""
        req = self._payload(kernel)
        with self._saturated(self.svc):
            resp = self.fast.request(req, deadline_s=10.0)
        return self._judge_shed("gw-overload", "admission-saturation", req,
                                resp, self.client.request(req,
                                                          deadline_s=60.0))

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
        return self._judge_deadline("gw-deadline", fault, req, reply)

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

    table = {
        "gw-plain": (30, plain),
        "gw-garbage": (10, garbage),
        "gw-truncated": (10, truncated),
        "gw-slowloris": (8, slowloris),
        "gw-conn-drop": (12, conn_drop),
        "gw-overload": (8, overload),
        "gw-deadline": (10, deadline),
        "gw-jit-fault": (12, jit_fault),
    }

    # -- scripted epilogue trials ---------------------------------------------

    def finish(self):
        """The graceful drain, and the soaked stack's service and
        gateway stats."""
        stats = {"service": self.svc.stats(), "gateway": self.gw.stats()}
        return [self.drain_trial()], stats

    def drain_trial(self) -> ChaosTrial:
        """Graceful drain on a fresh gateway: readiness flips first, a
        late request gets a classified DrainError, the in-flight request
        completes with a whole response, and post-drain connections are
        refused."""
        import threading

        from ..service import (
            GatewayClient, KernelService, NetworkError, ThreadedGateway,
        )

        svc2 = KernelService(cache_dir=None, seed=self.seed, workers=2)
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


class _FleetSoak(_Soak):
    """The ``fleet`` profile: a live :class:`FleetSupervisor` over N real
    ``serve --listen`` child processes sharing one cache directory, one
    sharded failover client, and the SIGKILL chaos driver.

    The kill layers SIGKILL the *shard-owner* replica of an in-flight
    cold compile at seeded moments — early (mid-compile), late
    (mid-cache-write), and mid-frame under a pinned no-retry client —
    and judge that the sharded client rides through with a correct
    answer while the supervisor respawns the victim.  They ignore the
    drawn kernel: each draws its own cold shape from the soak RNG.
    Every killed replica pid is recorded for the end-of-campaign leak
    audit; the shared cache directory is audited last: every ``*.vbk``
    must verify and the quarantine must be empty (atomic writes never
    let a torn entry into the namespace).
    """

    def __init__(self, seed: int, size: int, replicas: int = 3) -> None:
        from ..service.supervisor import FleetSupervisor

        super().__init__(seed, size)
        self.replicas = int(replicas)
        self.sup = FleetSupervisor(
            self.replicas, self.root, workers=4, queue_limit=32,
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
        # Odd sizes, strictly increasing: every cold shape is a CacheKey
        # the fleet has never seen (warm trials use ``size`` itself).
        self._cold_size = size + (1 if size % 2 == 0 else 2)
        self.dead_pids: list[int] = []
        self.kills = 0

    def close(self) -> None:
        self.client.close()
        self.sup.stop()
        super().close()

    # -- plumbing --------------------------------------------------------------

    def _cold_payload(self, kernel: str) -> dict:
        size = self._cold_size
        self._cold_size += 2
        return self._payload(kernel, size=size)

    def _pids_of(self, index: int) -> list:
        """The victim's pid (for the post-mortem leak audit) —
        snapshotted *before* the kill."""
        pid = self.sup.replica_pids().get(index)
        return [] if pid is None else [pid]

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

    @staticmethod
    def _issue(client, req: dict, out: dict, deadline_s: float) -> None:
        """``client.request`` with its answer or exception kept in
        ``out`` for :meth:`_judge_ride_through`."""
        try:
            out["resp"] = client.request(req, deadline_s=deadline_s)
        except Exception as exc:  # noqa: BLE001 - judged by the caller
            out["exc"] = exc

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
        worker = threading.Thread(target=self._issue,
                                  args=(self.client, req, out, 120.0))
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
            # Classified but still a lost answer: with a whole fleet to
            # fail over to, the client should have ridden through.
            return _escaped(layer, kernel, fault, out["exc"],
                            "sharded client")
        trial = self.judge(layer, fault, req, out["resp"])
        if not trial.ok:
            return trial
        if trial.outcome != "correct":
            return trial
        return ChaosTrial(layer, kernel, fault, "killed-through",
                          f"served correct through the kill "
                          f"({out['resp'].get('attempts')} attempt(s))")

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
        worker = threading.Thread(target=self._issue,
                                  args=(pinned, req, out, 60.0))
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
        survivors: dict = {}
        self._issue(self.client, req, survivors, 120.0)
        t2 = self._judge_ride_through(layer, kernel, fault, req, survivors)
        if not t2.ok:
            return t2
        healed = self._heal(layer, kernel, fault)
        if healed is not None:
            return healed
        return ChaosTrial(layer, kernel, fault, "killed-through",
                          f"{detail}; survivors served the same key")

    table = {
        "fl-plain": (25, plain),
        "fl-warm-identity": (15, warm_identity),
        "fl-kill-compile": (18, lambda s, _k: s._kill_mid_flight(
            "fl-kill-compile", 0.005, 0.08)),
        "fl-kill-write": (12, lambda s, _k: s._kill_mid_flight(
            "fl-kill-write", 0.08, 0.4)),
        "fl-kill-wire": (15, lambda s, _k: s.kill_wire()),
    }

    # -- scripted epilogue trials ---------------------------------------------

    def finish(self):
        """The four audits, then the fleet stats (after the readiness
        check, which waits the fleet back to full capacity)."""
        trials = [self.park_trial(), self.cache_audit_trial(),
                  self.leak_trial(), self.final_ready_trial()]
        return trials, {
            "fleet": self.sup.stats(),
            "ready": self.sup.ready(),
            "kills": self.kills,
            "client": {
                "attempts": self.client.attempts,
                "failovers": self.client.failovers,
                "wire_errors": self.client.wire_errors,
            },
        }

    def park_trial(self) -> ChaosTrial:
        """Flap suppression on a throwaway one-replica supervisor: kill
        it past its restart budget and the replica must park with a
        classified FleetError, with readiness reporting the lost
        capacity."""
        from ..service.supervisor import FleetSupervisor

        layer, fault = "fl-park", "kill -9 x3 inside the flap window"
        sup = FleetSupervisor(
            1, self.root, workers=2,
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
        envelope verifies and the quarantine is empty.  Leftover ``*.tmp`` droppings are harmless by design
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
        return ChaosTrial(layer, "*", fault, "cache-clean",
                          f"{entries} entries verified, quarantine "
                          f"empty, {tmps} harmless tmp dropping(s)")

    def leak_trial(self) -> ChaosTrial:
        """Every replica pid that was killed in the storm must actually
        be gone."""
        layer, fault = "fl-leak-audit", f"{self.kills} kills"
        alive = self._surviving(self.dead_pids, 20.0)
        if alive:
            return ChaosTrial(layer, "*", fault, "leaked-workers",
                              f"pids {alive} survived their SIGKILL")
        return ChaosTrial(layer, "*", fault, "reaped",
                          f"all {len(set(self.dead_pids))} killed "
                          f"replica pids are gone")

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


#: profile name -> profile class.  A profile is constructed as
#: ``cls(seed, size, **options)`` and provides ``draws`` (the campaign
#: RNG), ``table`` (``{layer: (weight, trial)}``, ``trial(profile,
#: kernel) -> ChaosTrial``), ``finish() -> (epilogue trials, stats)`` and
#: ``close()``.
_PROFILES = {
    "layers": _Layers,
    "service": _ServiceSoak,
    "gateway": _GatewaySoak,
    "fleet": _FleetSoak,
}

#: each profile's layer names, in draw order.
LAYERS = tuple(_Layers.table)
SERVICE_LAYERS = tuple(_ServiceSoak.table)
GATEWAY_LAYERS = tuple(_GatewaySoak.table)
FLEET_LAYERS = tuple(_FleetSoak.table)


def run_campaign(profile: str = "layers", n_faults: int = 200,
                 seed: int = 0, size: int = 16,
                 **profile_options) -> ChaosReport:
    """Inject ``n_faults`` seeded faults under one profile; returns the
    outcome census with the profile's stats attached.

    Each iteration draws a layer from the profile's weighted table, then
    a kernel, and runs that layer's trial; the profile's scripted
    epilogue runs last.  ``profile_options`` configure the profile:
    ``include_harness``/``harness_timeout`` for ``layers``, ``replicas``
    for ``fleet``.
    """
    prof = _PROFILES[profile](seed, size, **profile_options)
    report = ChaosReport(seed=seed)
    try:
        names = tuple(prof.table)
        weights = [weight for weight, _trial in prof.table.values()]
        for _ in range(int(n_faults)):
            layer = prof.draws.choices(names, weights=weights)[0]
            kernel = prof.draws.choice(_DEFAULT_KERNELS)
            try:
                t = prof.table[layer][1](prof, kernel)
            except Exception as exc:  # noqa: BLE001 - census integrity:
                # a trial that dies is a failing outcome, never a
                # campaign crash that loses the whole report.
                t = _escaped(layer, kernel, "trial-crashed", exc, "trial")
            report.trials.append(t)
        epilogue, report.service_stats = prof.finish()
        report.trials.extend(epilogue)
    finally:
        prof.close()
    return report
