"""The online compilers: Mono-like lightweight JIT and gcc4cli-like
optimizing compiler, plus the monolithic native compiler (Figure 4).

All three share the same backend skeleton — materialize Table 1 idioms,
flatten to machine IR, allocate registers — and differ exactly where the
paper says the real systems differed:

================== ========================== ==========================
stage              MonoJIT                    OptimizingJIT / native
================== ========================== ==========================
guard folding      top level only             everywhere
scalar opts        dead-code removal only     fold/simplify/LICM/DCE
addressing         explicit shifts/adds       scaled addressing if the
                                              target has it
constants          rematerialized per use     cached in registers
register allocator local (block-crossing      linear scan (spill only
                   values spilled)            under real pressure)
scalar x86 floats  x87 (extra cost)           SSE scalar
================== ========================== ==========================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import obs
from ..ir import Function, clone_function
from ..machine import (
    FlattenOptions,
    MFunction,
    allocate_linear_scan,
    allocate_local,
    flatten,
)
from ..passes import eliminate_dead_code, optimize
from ..targets import get_target
from ..targets.base import Target
from .materialize import (
    DegradationEvent,
    MaterializeError,
    MaterializeOptions,
    materialize,
)

__all__ = ["CompiledKernel", "MonoJIT", "OptimizingJIT", "NativeBackend"]


@dataclass
class CompiledKernel:
    """The output of one online (or native backend) compilation."""

    mfunc: MFunction
    target: Target
    compiler: str
    compile_seconds: float
    stats: dict = field(default_factory=dict)
    ir: Function | None = None
    #: True when any vector loop group fell back to its scalar version (or
    #: the whole function re-materialized force-scalar after a
    #: MaterializeError) — the run is still correct, just slower.
    degraded: bool = False
    #: the structured :class:`~repro.jit.materialize.DegradationEvent`\\ s
    #: explaining *why* (empty on a clean vector compile).
    events: list = field(default_factory=list)
    #: lazily-populated per-engine translations, keyed by
    #: ``(engine, count_ops)``; see :meth:`translated`.
    _threaded: dict = field(default_factory=dict, repr=False, compare=False)

    def translated(self, engine: str, count_ops: bool = False):
        """This kernel translated for ``engine`` (registry lookup).

        Translation happens once per ``(engine, count_ops)`` and is
        cached on the compiled kernel, so repeated executions (sweeps,
        repeated benchmark runs) pay translation exactly once; the
        wall-clock cost is recorded in the ``vm.translate_seconds``
        metric.  Raises ``ValueError`` for engines without a
        ``translate`` callable (e.g. the reference interpreter).
        """
        key = (engine, count_ops)
        code = self._threaded.get(key)
        if code is None:
            from ..machine.registry import get_engine

            eng = get_engine(engine)
            if eng.translate is None:
                raise ValueError(
                    f"engine {engine!r} has no translate step"
                )
            t0 = time.perf_counter()
            code = eng.translate(self.mfunc, self.target, count_ops)
            obs.observe("vm.translate_seconds", time.perf_counter() - t0)
            self._threaded[key] = code
        return code

    def threaded(self, count_ops: bool = False):
        """The machine code pre-decoded for the threaded engine
        (shorthand for ``translated("threaded", count_ops)``)."""
        return self.translated("threaded", count_ops)


class _BaseCompiler:
    name = "base"
    fold_guards_top_only = False
    x87_scalar_fp = False
    rematerialize_consts = False
    opt_level = 2
    local_regalloc = False

    def __init__(self, *, runtime_aligns: bool = True,
                 scalar_via_loop_bound: bool = True) -> None:
        self.runtime_aligns = runtime_aligns
        self.scalar_via_loop_bound = scalar_via_loop_bound

    def _options(self, force_scalar: bool = False) -> MaterializeOptions:
        return MaterializeOptions(
            fold_guards_top_only=self.fold_guards_top_only,
            runtime_aligns=self.runtime_aligns,
            scalar_via_loop_bound=self.scalar_via_loop_bound,
            force_scalar=force_scalar,
        )

    def compile(
        self, fn: Function, target: Target | str, *,
        force_scalar: bool = False,
    ) -> CompiledKernel:
        """Compile IR (scalar or vectorized bytecode) to machine code.

        ``target`` accepts a :class:`Target` or its canonical name (the
        one-coercion-everywhere API convention); ``force_scalar`` is
        keyword-only.

        Fail-soft: a whole-function :class:`MaterializeError` on the first
        (vector) attempt triggers one retry with every loop group forced
        scalar — a slower but correct compilation — and the kernel is
        marked ``degraded`` with the cause recorded in ``events``.

        ``force_scalar=True`` skips the vector attempt entirely and
        materializes every loop group scalar from the start — the
        degradation cascade of :class:`repro.service.KernelService` uses
        this as its always-lowerable fallback compilation.
        """
        if isinstance(target, str):
            target = get_target(target)
        start = time.perf_counter()
        try:
            work = clone_function(fn)
            work, mstats = materialize(
                work, target, self._options(force_scalar=force_scalar)
            )
        except MaterializeError as exc:
            work = clone_function(fn)
            work, mstats = materialize(
                work, target, self._options(force_scalar=True)
            )
            mstats.setdefault("degradation_events", []).insert(
                0,
                DegradationEvent(
                    function=fn.name,
                    target=target.name,
                    group=None,
                    cause="forced-scalar",
                    detail=f"materialization retry after: {exc}",
                ),
            )
        if self.opt_level >= 2:
            optimize(work, level=2)
        else:
            # Even the lightweight JIT sweeps dead realignment chains
            # ("The JIT compiler can remove some of this code by
            # recognizing dead code", §III-C.d).
            eliminate_dead_code(work)
        mfunc = flatten(
            work,
            FlattenOptions(
                scaled_addressing=(
                    target.has_scaled_addressing and self.opt_level >= 2
                ),
                rematerialize_consts=self.rematerialize_consts,
            ),
        )
        if self.local_regalloc:
            alloc = allocate_local(mfunc, target)
        else:
            alloc = allocate_linear_scan(mfunc, target)
        if self.x87_scalar_fp and target.name in ("sse", "avx"):
            mfunc.meta["x87"] = True
        elapsed = time.perf_counter() - start
        stats = dict(mstats)
        events = list(stats.pop("degradation_events", []))
        stats.update(
            {
                "spilled_values": alloc.spilled_values,
                "spill_loads": alloc.spill_loads,
                "spill_stores": alloc.spill_stores,
                "minstrs": len(mfunc.instrs),
                "degraded_groups": len(events),
            }
        )
        # Feed the observability spine (no-ops when obs is disabled).
        obs.count("jit.compiles")
        obs.count("jit.loops_vectorized", stats.get("loops_vectorized", 0))
        obs.count("jit.loops_scalarized", stats.get("loops_scalarized", 0))
        obs.count("jit.degradation_events", len(events))
        if events:
            obs.count("jit.degraded_compiles")
        obs.observe("jit.compile_seconds", elapsed)
        return CompiledKernel(
            mfunc, target, self.name, elapsed, stats, ir=work,
            degraded=bool(events), events=events,
        )


class MonoJIT(_BaseCompiler):
    """The resource-constrained JIT of §IV: 1:1 idiom lowering, poor global
    register allocation, x87 scalar floats on x86, constants and guards not
    folded across loops."""

    name = "mono"
    fold_guards_top_only = True
    x87_scalar_fp = True
    rematerialize_consts = True
    opt_level = 0
    local_regalloc = True


class OptimizingJIT(_BaseCompiler):
    """The gcc4cli-based online compiler: a state-of-the-art backend fed
    with the same vectorized bytecode."""

    name = "gcc4cli"
    opt_level = 2


class NativeBackend(OptimizingJIT):
    """The backend half of the monolithic native compiler (same quality as
    the gcc4cli online stage; the difference is the *offline* config that
    produced its input — concrete VF, no guards)."""

    name = "native"
