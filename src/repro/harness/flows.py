"""The compilation flows of the paper's Figure 4.

Letters follow the figure as used in the evaluation ratios:

* **A** — scalar bytecode executed by the Mono-like JIT;
* **C** — vectorized bytecode executed by the Mono-like JIT;
* **D** — vectorized bytecode compiled by the gcc4cli-like online compiler;
* **E** — native scalar compilation;
* **F** — native (monolithic) vectorized compilation.

(The scalar-bytecode-through-gcc4cli flow is also provided for the
low-scalar-overhead claim.)  Each flow compiles a kernel instance, executes
it on the cycle-cost VM, checks the results against the numpy reference,
and reports cycles plus compile-time/bytecode statistics.

This module alone knows what an offline artifact is: the IR a flow hands
its online compiler, that IR's cache identity (canonical CRC) and the
bytecode sizes a result reports.  The service asks :class:`FlowRunner`
for them.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..api import execute_phase, resolve_engine
from ..machine.registry import DEFAULT_ENGINE
from ..bytecode import decode_function, encode_function
from ..errors import ReproError
from ..frontend import compile_source
from ..ir import Function, print_function
from ..jit import CompiledKernel, MonoJIT, NativeBackend, OptimizingJIT
from ..kernels import KernelInstance
from ..machine import ArrayBuffer
from ..targets import Target, get_target
from ..vectorizer import native_config, split_config, vectorize_function

__all__ = ["FlowResult", "FlowRunner", "FLOWS"]

#: flow name -> (offline form, online compiler class)
FLOWS = {
    "split_scalar_mono": ("scalar", MonoJIT),
    "split_vec_mono": ("split", MonoJIT),
    "split_scalar_gcc4cli": ("scalar", OptimizingJIT),
    "split_vec_gcc4cli": ("split", OptimizingJIT),
    "native_scalar": ("scalar", NativeBackend),
    "native_vec": ("native", NativeBackend),
}

#: Most VaporC programs one runner keeps the offline stage of (least
#: recently used out first); above the 35 a full ``repro report`` touches.
MAX_PROGRAMS = 64


@dataclass
class FlowResult:
    """One kernel execution under one flow."""

    kernel: str
    flow: str
    target: str
    cycles: float
    value: object
    compile_seconds: float
    bytecode_bytes: int
    checked: bool
    stats: dict = field(default_factory=dict)


class CheckError(ReproError, AssertionError):
    """A flow produced results that disagree with the numpy reference.

    Also an :class:`AssertionError` for backward compatibility with tests
    that assert on the check failure directly.
    """


class _Program:
    """One VaporC program's artifacts, each built once under ``lock``:
    IR forms, their CRCs, bytecode sizes and compiled kernels.  The lock
    is reentrant because a form is built from the forms before it."""

    __slots__ = ("entry", "source", "lock", "memo")

    def __init__(self, entry: str, source: str) -> None:
        self.entry = entry
        self.source = source
        self.lock = threading.RLock()
        self.memo: dict = {}

    def get(self, slot, build):
        value = self.memo.get(slot)
        if value is None:
            with self.lock:
                value = self.memo.get(slot)
                if value is None:
                    value = self.memo[slot] = build()
        return value


class FlowRunner:
    """Compiles and runs kernels through the Figure 4 flows.

    The offline stage is deterministic and the vectorizer configuration
    fixed per runner, so it is cached by program, ``(entry, source)``:
    every size of a kernel whose source takes the size as a runtime
    argument shares its IR, CRC, bytecode sizes and compiled kernels.
    Each program builds under its own lock, and at most
    :data:`MAX_PROGRAMS` are kept.

    ``base_misalign`` controls the simulated base alignment of every array
    (0 = the JIT/native runtime aligns allocations, the default story).
    ``vectorizer_overrides`` feed the ablation experiments (e.g.
    ``enable_alignment_opts=False`` for §V-A.b).

    ``engine`` selects the execution engine by registry name:
    ``"codegen"`` (default, :data:`~repro.machine.registry.DEFAULT_ENGINE`)
    runs generated Python source with batched loops
    (:mod:`repro.machine.codegen`), ``"reference"`` the
    decode-per-instruction reference interpreter.  The two are
    differential-tested to be bit-identical (cycles, values, op counts),
    so every figure/table is engine-independent.

    Every :meth:`run` is instrumented as the canonical span taxonomy of
    ``docs/observability.md``: one ``flow`` root containing exactly the
    five phase spans (``frontend`` / ``vectorize`` / ``encode`` / ``jit``
    / ``vm``), with cache hits and skipped stages recorded as span
    attributes rather than missing spans.  When :mod:`repro.obs` is
    disabled the instrumentation is a handful of no-op calls.
    """

    def __init__(
        self,
        *,
        base_misalign: int = 0,
        check: bool = True,
        vectorizer_overrides: dict | None = None,
        use_bytecode_roundtrip: bool = True,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.base_misalign = base_misalign
        self.check = check
        self.vectorizer_overrides = dict(vectorizer_overrides or {})
        self.use_bytecode_roundtrip = use_bytecode_roundtrip
        self.engine = resolve_engine(engine)
        self._programs = functools.lru_cache(maxsize=MAX_PROGRAMS)(_Program)
        self._programs_lock = threading.Lock()

    def config(self) -> dict:
        """Constructor kwargs reproducing this runner (minus its caches);
        used to rebuild equivalent runners inside worker processes."""
        return {
            "base_misalign": self.base_misalign,
            "check": self.check,
            "vectorizer_overrides": dict(self.vectorizer_overrides),
            "use_bytecode_roundtrip": self.use_bytecode_roundtrip,
            "engine": self.engine,
        }

    # -- offline stage --------------------------------------------------------

    def _program(self, entry: str, source: str) -> _Program:
        with self._programs_lock:
            return self._programs(entry, source)

    def _ir(self, prog: _Program, form: str,
            target: Target | None = None) -> Function:
        """One offline form of ``prog``, built once: ``"scalar"``,
        ``"vectorized"`` (straight out of the offline vectorizer),
        ``"split"`` (after the bytecode round trip) or ``"native"`` (the
        monolithic vectorization for ``target``)."""
        slot = ("native", target.name) if form == "native" else form
        return prog.get(slot, lambda: self._build(prog, form, target))

    def _build(self, prog: _Program, form: str, target) -> Function:
        if form == "scalar":
            return compile_source(prog.source, prog.entry)[prog.entry]
        if form == "split":
            vec = self._ir(prog, "vectorized")
            if self.use_bytecode_roundtrip:
                vec = decode_function(encode_function(vec))
            return vec
        overrides = dict(self.vectorizer_overrides)
        if form == "vectorized":
            cfg = split_config(**overrides)
        else:
            overrides.pop("assume_noalias", None)
            cfg = native_config(target, **overrides)
        return vectorize_function(self._ir(prog, "scalar"), cfg)

    def scalar_ir(self, instance: KernelInstance) -> Function:
        return self._ir(self._program(instance.entry, instance.source),
                        "scalar")

    def split_ir(self, instance: KernelInstance) -> Function:
        return self._ir(self._program(instance.entry, instance.source),
                        "split")

    def native_ir(self, instance: KernelInstance, target: Target) -> Function:
        return self._ir(self._program(instance.entry, instance.source),
                        "native", target)

    def bytecode_sizes(self, instance: KernelInstance) -> tuple[int, int]:
        """(scalar, vectorized) encoded byte sizes for this kernel."""
        prog = self._program(instance.entry, instance.source)
        return prog.get("sizes", lambda: (
            len(encode_function(self._ir(prog, "scalar"))),
            len(encode_function(self._ir(prog, "split"))),
        ))

    def offline(self, entry: str, source: str, flow: str,
                target: Target) -> tuple[Function, int]:
        """(IR, canonical CRC) that ``flow`` hands its online compiler on
        ``target``.  The CRC of the canonical print (positional SSA ids,
        unlike the encoded stream's gensym counters) is stable across
        processes: the service's cache identity."""
        # Imported here: the service package imports this module.
        from ..service.cache import canonical_crc

        form = FLOWS[flow][0]
        prog = self._program(entry, source)
        ir = self._ir(prog, form, target)
        slot = ("crc", form, target.name if form == "native" else None)
        return ir, prog.get(
            slot, lambda: canonical_crc(print_function(ir).encode())
        )

    # -- online stage ----------------------------------------------------------

    def compiled(
        self, instance: KernelInstance, flow: str, target: Target
    ) -> CompiledKernel:
        """The offline+online phases, spanned — see the class docstring.

        Each phase span is emitted even when its work is cached (attr
        ``cached=True``) or inapplicable to this flow (``skipped=True``),
        so one :meth:`run` always yields the same five-span shape and
        per-phase attribution stays truthful: a warm cache shows up as a
        near-zero-duration span, not a missing one.
        """
        form, jit_cls = FLOWS[flow]
        prog = self._program(instance.entry, instance.source)
        memo = prog.memo
        with obs.span("frontend", phase="frontend",
                      kernel=instance.name) as sp:
            sp.set(cached="scalar" in memo)
            scalar = self._ir(prog, "scalar")
        with obs.span("vectorize", phase="vectorize", form=form) as sp:
            if form == "scalar":
                sp.set(skipped=True)
                ir = scalar
            elif form == "split":
                sp.set(cached="vectorized" in memo)
                ir = self._ir(prog, "vectorized")
            else:
                sp.set(cached=("native", target.name) in memo,
                       mode="native", target=target.name)
                ir = self._ir(prog, "native", target)
        with obs.span("encode", phase="encode") as sp:
            if form == "split" and self.use_bytecode_roundtrip:
                sp.set(cached="split" in memo)
                ir = self._ir(prog, "split")
            else:
                sp.set(skipped=True)
        slot = ("jit", flow, target.name)
        with obs.span("jit", phase="jit", target=target.name,
                      compiler=jit_cls.name) as sp:
            cached = slot in memo
            ck = prog.get(slot, lambda: jit_cls().compile(ir, target))
            if cached:
                sp.set(cached=True)
            else:
                sp.set(cached=False, compile_seconds=ck.compile_seconds)
            if ck.degraded:
                sp.set(degraded=True, events=[e.cause for e in ck.events])
        return ck

    # -- execution ---------------------------------------------------------

    def make_buffers(self, instance: KernelInstance) -> dict[str, ArrayBuffer]:
        fn = self.scalar_ir(instance)
        bufs: dict[str, ArrayBuffer] = {}
        for arr in fn.array_params:
            data = instance.arrays[arr.name]
            bufs[arr.name] = ArrayBuffer(
                arr.elem, int(np.asarray(data).size),
                base_misalign=self.base_misalign,
                data=np.asarray(data),
            )
        return bufs

    def run(
        self, instance: KernelInstance, flow: str, target: Target | str
    ) -> FlowResult:
        if isinstance(target, str):
            target = get_target(target)
        with obs.span("flow", phase="flow", kernel=instance.name,
                      flow=flow, target=target.name) as root:
            ck = self.compiled(instance, flow, target)
            result = self.execute(instance, ck, flow, target)
            root.set(cycles=result.cycles, checked=result.checked)
        return result

    def execute(self, instance: KernelInstance, ck: CompiledKernel,
                flow: str, target: Target) -> FlowResult:
        """Run ``ck`` on fresh buffers of ``instance`` and check it: the
        tail of :meth:`run`, shared with the service so a warm-cache
        response is byte-identical to a cold run."""
        bufs = self.make_buffers(instance)
        result = execute_phase(
            ck, instance.scalar_args, bufs, engine=self.engine
        )
        checked = False
        if self.check:
            self.verify(instance, bufs, result.value)
            checked = True
        scalar_bytes, vec_bytes = self.bytecode_sizes(instance)
        form = FLOWS[flow][0]
        return FlowResult(
            kernel=instance.name,
            flow=flow,
            target=target.name,
            cycles=result.cycles,
            value=result.value,
            compile_seconds=ck.compile_seconds,
            bytecode_bytes=scalar_bytes if form == "scalar" else vec_bytes,
            checked=checked,
            stats=dict(ck.stats),
        )

    def verify(self, instance: KernelInstance, bufs, value) -> None:
        kernel = instance.kernel
        for name, expected in instance.expected_arrays.items():
            got = bufs[name].read_elements().reshape(np.asarray(expected).shape)
            expected = np.asarray(expected)
            if expected.dtype.kind == "f":
                if not np.allclose(got, expected, rtol=kernel.rtol, atol=1e-5):
                    worst = np.abs(got - expected).max()
                    raise CheckError(
                        f"{instance.name}: array {name} mismatch "
                        f"(max abs err {worst})"
                    )
            else:
                diff = np.abs(got.astype(np.int64) - expected.astype(np.int64))
                if diff.max() > kernel.int_atol:
                    raise CheckError(
                        f"{instance.name}: array {name} mismatch "
                        f"(max abs err {diff.max()})"
                    )
        if instance.expected_return is not None:
            exp = instance.expected_return
            if isinstance(exp, float):
                if not np.isclose(float(value), exp, rtol=kernel.rtol):
                    raise CheckError(
                        f"{instance.name}: return {value} != {exp}"
                    )
            else:
                if int(value) != int(exp):
                    raise CheckError(
                        f"{instance.name}: return {value} != {exp}"
                    )
