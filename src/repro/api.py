"""``repro.api`` — the one-call pipeline facade over the split toolchain.

Every entry point of the repo (library, :class:`FlowRunner`, the CLI,
:class:`KernelService`) ultimately performs the same five phases::

    frontend  ->  vectorize  ->  encode  ->  jit  ->  vm
    (VaporC)      (offline)      (.vbc)     (online)  (cycle-cost run)

This module is the single instrumented spine for that pipeline:

* :class:`Pipeline` / :func:`compile_and_run` run source to result in
  one call and return a structured :class:`RunArtifacts`;
* the ``*_phase`` helpers wrap each stage in its
  :mod:`repro.obs` span, so every caller that routes through them emits
  the same span taxonomy (``docs/observability.md``);
* :func:`resolve_target` / :func:`resolve_engine` /
  :func:`resolve_compiler` are the one canonical way to pick a target,
  an execution engine, and an online compiler anywhere in the API.

The historical entry points (``compile_source`` + ``vectorize_function``
+ ``MonoJIT().compile`` + ``VM().run``) keep working unchanged — they
are what the facade delegates to.  See ``docs/api.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import obs
from .bytecode import decode_function, encode_function
from .frontend import compile_source
from .ir import Function, Module
from .jit import CompiledKernel, MonoJIT, NativeBackend, OptimizingJIT
from .machine import ArrayBuffer
from .machine.registry import DEFAULT_ENGINE, get_engine
from .machine.vm import RunResult, VMError
from .targets import get_target
from .targets.base import Target
from .vectorizer import (
    VectorizerConfig,
    native_config,
    split_config,
    vectorize_module,
)

__all__ = [
    "Pipeline",
    "RunArtifacts",
    "compile_and_run",
    "resolve_target",
    "resolve_engine",
    "resolve_compiler",
    "COMPILERS",
    "frontend_phase",
    "vectorize_phase",
    "encode_phase",
    "jit_phase",
    "execute_phase",
]

#: canonical compiler-name -> class registry (the CLI ``--compiler``
#: choices and the service's ``FLOWS`` personalities resolve here).
COMPILERS = {
    "mono": MonoJIT,
    "gcc4cli": OptimizingJIT,
    "native": NativeBackend,
}


def resolve_target(target) -> Target:
    """The one canonical target coercion: name or Target -> Target."""
    if isinstance(target, Target):
        return target
    return get_target(target)


def resolve_engine(engine: str) -> str:
    """Validate/normalize an execution-engine name (registry lookup)."""
    return get_engine(engine).name


def resolve_compiler(compiler):
    """Name / class / instance -> online-compiler *instance*."""
    if isinstance(compiler, str):
        try:
            cls = COMPILERS[compiler]
        except KeyError:
            raise ValueError(
                f"unknown compiler {compiler!r}; one of "
                f"{', '.join(sorted(COMPILERS))}"
            ) from None
        return cls()
    if isinstance(compiler, type):
        return compiler()
    return compiler


# -- the instrumented phase helpers ------------------------------------------
#
# Each helper is one pipeline phase wrapped in its span.  FlowRunner,
# Pipeline, and the service route through these (directly or by emitting
# the same span names), which is what makes "every entry point emits the
# same span taxonomy" true by construction.


def frontend_phase(source: str, name: str = "module") -> Module:
    """VaporC source -> verified scalar IR module (span: ``frontend``)."""
    with obs.span("frontend", phase="frontend", module=name) as sp:
        module = compile_source(source, name)
        sp.set(functions=len(module.functions))
    return module


def vectorize_phase(
    module: Module, config: VectorizerConfig
) -> Module:
    """Offline auto-vectorization of a module (span: ``vectorize``)."""
    with obs.span(
        "vectorize", phase="vectorize",
        mode="native" if config.target is not None else "split",
    ) as sp:
        out = vectorize_module(module, config)
        sp.set(functions=len(out.functions))
    return out


def encode_phase(fn: Function) -> tuple[bytes, Function]:
    """Encode + decode round-trip through the .vbc wire format
    (span: ``encode``).  Returns ``(blob, decoded_fn)``."""
    with obs.span("encode", phase="encode", function=fn.name) as sp:
        blob = encode_function(fn)
        decoded = decode_function(blob)
        sp.set(bytes=len(blob))
    return blob, decoded


def jit_phase(
    compiler, fn: Function, target, *, force_scalar: bool = False
) -> CompiledKernel:
    """Online compilation for one target (span: ``jit``)."""
    compiler = resolve_compiler(compiler)
    target = resolve_target(target)
    with obs.span(
        "jit", phase="jit", function=fn.name, target=target.name,
        compiler=compiler.name,
    ) as sp:
        ck = compiler.compile(fn, target, force_scalar=force_scalar)
        sp.set(
            compile_seconds=ck.compile_seconds,
            degraded=ck.degraded,
            minstrs=ck.stats.get("minstrs"),
        )
        if ck.events:
            sp.set(events=[e.cause for e in ck.events])
    return ck


def execute_phase(
    ck: CompiledKernel,
    scalar_args: dict | None,
    arrays: dict | None,
    *,
    engine: str = DEFAULT_ENGINE,
) -> RunResult:
    """Cycle-cost execution of a compiled kernel (span: ``vm``).

    This is the unified VM call site: it dispatches through the engine
    registry (:mod:`repro.machine.registry` — any registered engine is
    selectable here by name), and feeds the metrics registry the
    engine's accounting (``vm.runs`` / ``vm.cycles`` /
    ``vm.instructions`` / ``vm.traps``).
    """
    eng = get_engine(engine)
    with obs.span(
        "vm", phase="vm", engine=eng.name, target=ck.target.name,
        function=ck.mfunc.name,
    ) as sp:
        try:
            result = eng.run(ck, scalar_args, arrays)
        except VMError as exc:
            obs.count("vm.traps")
            sp.set(error=type(exc).__name__)
            raise
        sp.set(cycles=result.cycles, instructions=result.instructions)
    obs.count("vm.runs")
    obs.count("vm.cycles", result.cycles)
    obs.count("vm.instructions", result.instructions)
    return result


# -- the one-call facade ------------------------------------------------------


@dataclass
class RunArtifacts:
    """Everything one pipeline invocation produced, in one structure.

    ``arrays`` holds the live :class:`ArrayBuffer`\\ s after execution —
    read outputs with ``artifacts.arrays["y"].read_elements()``.
    """

    function: str
    target: str
    engine: str
    scalar_ir: Function
    vector_ir: Function | None
    bytecode: bytes | None
    compiled: CompiledKernel
    result: RunResult | None = None
    arrays: dict = field(default_factory=dict)
    #: the DegradationEvent chain from the online compiler (empty on a
    #: clean vector compile).
    events: list = field(default_factory=list)
    #: spans recorded during this call (None when tracing was disabled).
    trace: list | None = None

    @property
    def cycles(self) -> float | None:
        return None if self.result is None else self.result.cycles

    @property
    def value(self):
        return None if self.result is None else self.result.value

    @property
    def degraded(self) -> bool:
        return bool(self.events)


class Pipeline:
    """Source -> vectorize -> encode -> JIT -> VM, in one object.

    All options are keyword-only (the API-consistency convention):

    ``target``
        name or :class:`Target` — the online machine (default ``sse``).
    ``compiler``
        ``"mono"`` | ``"gcc4cli"`` | ``"native"`` or a compiler
        class/instance (default ``gcc4cli``).
    ``engine``
        any name from :func:`repro.machine.registry.engine_names`
        (``codegen`` / ``reference`` built in — bit-identical;
        default ``codegen``).
    ``vectorize``
        False compiles the scalar bytecode directly (flow A/E shape).
    ``force_scalar``
        materialize every loop group scalar (the degradation cascade's
        always-lowerable compilation).
    ``roundtrip``
        push the bytecode through the .vbc encode/decode wire format
        (the split story; disable to JIT the in-memory IR directly).
    ``config``
        a :class:`VectorizerConfig`, or a dict of ``split_config``
        overrides (ignored when ``vectorize=False``).

    Example::

        arts = Pipeline(target="neon").run(SRC, {"n": 64}, {"x": x, "y": y})
        print(arts.cycles, arts.arrays["y"].read_elements())
    """

    def __init__(
        self,
        *,
        target="sse",
        compiler="gcc4cli",
        engine: str = DEFAULT_ENGINE,
        vectorize: bool = True,
        force_scalar: bool = False,
        roundtrip: bool = True,
        config=None,
    ) -> None:
        self.target = resolve_target(target)
        self.compiler = resolve_compiler(compiler)
        self.engine = resolve_engine(engine)
        self.vectorize = bool(vectorize)
        self.force_scalar = bool(force_scalar)
        self.roundtrip = bool(roundtrip)
        if config is None or isinstance(config, dict):
            overrides = dict(config or {})
            if isinstance(self.compiler, NativeBackend):
                self._config = native_config(self.target, **overrides)
            else:
                self._config = split_config(**overrides)
        else:
            self._config = config

    # -- internals --------------------------------------------------------

    def _function(self, module: Module, function: str | None) -> Function:
        if function is not None:
            return module[function]
        names = list(module.functions)
        if len(names) != 1:
            raise ValueError(
                f"module defines {len(names)} functions "
                f"({', '.join(names)}); pass function=..."
            )
        return module[names[0]]

    def compile(self, source: str, function: str | None = None) -> RunArtifacts:
        """Offline + online stages only (no execution)."""
        with obs.span("pipeline", phase="pipeline",
                      target=self.target.name) as sp:
            arts = self._compile(source, function)
            sp.set(function=arts.function, degraded=arts.degraded)
        return arts

    def _compile(self, source: str, function: str | None) -> RunArtifacts:
        module = frontend_phase(source)
        scalar_fn = self._function(module, function)
        if self.vectorize:
            vec_module = vectorize_phase(module, self._config)
            work = vec_module[scalar_fn.name]
            vector_ir: Function | None = work
        else:
            with obs.span("vectorize", phase="vectorize", skipped=True):
                pass
            work, vector_ir = scalar_fn, None
        if self.roundtrip and self._config.target is None:
            blob, work = encode_phase(work)
        else:
            with obs.span("encode", phase="encode", skipped=True):
                blob = None
        ck = jit_phase(
            self.compiler, work, self.target,
            force_scalar=self.force_scalar,
        )
        return RunArtifacts(
            function=scalar_fn.name,
            target=self.target.name,
            engine=self.engine,
            scalar_ir=scalar_fn,
            vector_ir=vector_ir,
            bytecode=blob,
            compiled=ck,
            events=list(ck.events),
        )

    def _buffers(self, scalar_fn: Function, arrays: dict | None) -> dict:
        bufs: dict[str, ArrayBuffer] = {}
        for arr in scalar_fn.array_params:
            if arrays is None or arr.name not in arrays:
                raise ValueError(
                    f"array parameter {arr.name!r} not supplied"
                )
            data = arrays[arr.name]
            if isinstance(data, ArrayBuffer):
                bufs[arr.name] = data
            else:
                data = np.asarray(data)
                bufs[arr.name] = ArrayBuffer(
                    arr.elem, int(data.size), data=data
                )
        return bufs

    def run(
        self,
        source: str,
        scalar_args: dict | None = None,
        arrays: dict | None = None,
        function: str | None = None,
    ) -> RunArtifacts:
        """The one-call path: compile ``source`` and execute it.

        ``arrays`` maps array-parameter names to numpy arrays (copied
        into fresh :class:`ArrayBuffer`\\ s) or live ``ArrayBuffer``\\ s
        (used as-is).  Outputs are read back from ``arts.arrays``.
        """
        recorder = obs.active_tracer()
        first = len(recorder.spans) if recorder is not None else 0
        with obs.span("pipeline", phase="pipeline",
                      target=self.target.name) as sp:
            arts = self._compile(source, function)
            bufs = self._buffers(arts.scalar_ir, arrays)
            arts.arrays = bufs
            arts.result = execute_phase(
                arts.compiled, dict(scalar_args or {}), bufs,
                engine=self.engine,
            )
            sp.set(
                function=arts.function, degraded=arts.degraded,
                cycles=arts.result.cycles,
            )
        if recorder is not None:
            arts.trace = recorder.snapshot()[first:]
        return arts


def compile_and_run(
    source: str,
    scalar_args: dict | None = None,
    arrays: dict | None = None,
    *,
    function: str | None = None,
    **pipeline_options,
) -> RunArtifacts:
    """One-call convenience: ``Pipeline(**options).run(...)``.

    >>> arts = compile_and_run(SRC, {"n": 8}, {"x": x, "y": y},
    ...                        target="altivec")
    >>> arts.cycles, arts.value, arts.degraded
    """
    return Pipeline(**pipeline_options).run(
        source, scalar_args, arrays, function=function
    )


# -- best-effort smoke execution (repro compile --trace-out) ------------------


def synthesize_inputs(fn: Function, n: int = 32) -> tuple[dict, dict]:
    """Fabricate plausible inputs for an arbitrary kernel signature.

    Integer scalars become ``n`` (they are overwhelmingly trip counts in
    this language), floats become 1.0; arrays are filled with ones (safe
    for the div/mod kernels) and sized by evaluating their declared
    extents against those scalars.  Best-effort by design — callers
    treat failures as "this kernel cannot be smoked", not as errors.
    """
    scalar_args: dict[str, object] = {}
    for arg in fn.scalar_params:
        scalar_args[arg.name] = 1.0 if arg.type.is_float else n
    arrays: dict[str, np.ndarray] = {}
    for arr in fn.array_params:
        size = 1
        for extent in arr.shape:
            if isinstance(extent, int):
                size *= extent if extent > 0 else n
            else:  # symbolic extent: a scalar Argument
                size *= int(scalar_args.get(extent.name, n))
        size = max(1, size)
        arrays[arr.name] = np.ones(size, dtype=arr.elem.numpy_dtype)
    return scalar_args, arrays


def smoke_run(
    fn: Function,
    scalar_fn: Function | None = None,
    *,
    target="sse",
    compiler="gcc4cli",
    engine: str = DEFAULT_ENGINE,
    n: int = 32,
) -> RunResult | None:
    """JIT + execute ``fn`` on synthesized inputs (spans: jit, vm).

    Used by ``repro compile --trace-out`` so a compile-only invocation
    still produces a trace covering all five phases.  Returns None when
    inputs could not be synthesized or execution trapped — the span
    records the error, the compile itself is unaffected.
    """
    sig = scalar_fn if scalar_fn is not None else fn
    try:
        ck = jit_phase(compiler, fn, target)
        scalar_args, np_arrays = synthesize_inputs(sig, n)
        bufs = {
            name: ArrayBuffer(sig.find_array(name).elem, arr.size, data=arr)
            for name, arr in np_arrays.items()
        }
        return execute_phase(ck, scalar_args, bufs, engine=engine)
    except Exception:
        return None
