"""The redesigned public API: facade and canonical conventions.

Covers the one-call :class:`repro.Pipeline` / :func:`repro.compile_and_run`
facade, the canonical resolvers, the public-API snapshot (so surface
changes are deliberate), and the keyword-only conventions.
"""

import numpy as np
import pytest

import repro
import repro.api as api
from repro import Pipeline, compile_and_run, obs
from repro.jit import MonoJIT, OptimizingJIT
from repro.service import KernelService
from repro.targets import SSE, get_target

SRC = """
void saxpy(int n, float alpha, float x[n], float y[n]) {
    for (int i = 0; i < n; i++) {
        y[i] = alpha * x[i] + y[i];
    }
}
"""

TWO_FNS = SRC + """
float total(int n, float x[n]) {
    float s = 0;
    for (int i = 0; i < n; i++) { s += x[i]; }
    return s;
}
"""


def _data(n=64, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n).astype(np.float32)
    y = rng.standard_normal(n).astype(np.float32)
    return x, y


# -- public-API snapshot ------------------------------------------------------


def test_package_all_snapshot():
    assert repro.__all__ == [
        "Pipeline",
        "RunArtifacts",
        "compile_and_run",
        "obs",
        "compile_source",
        "vectorize_function",
        "vectorize_module",
        "split_config",
        "native_config",
        "encode_function",
        "decode_function",
        "encode_module",
        "decode_module",
        "MonoJIT",
        "OptimizingJIT",
        "NativeBackend",
        "specialize_scalars",
        "VM",
        "ArrayBuffer",
        "analyze_loop_throughput",
        "get_target",
        "TARGETS",
        "SSE",
        "ALTIVEC",
        "NEON",
        "AVX",
        "SCALAR",
        "all_kernels",
        "get_kernel",
        "kernel_names",
        "FlowRunner",
        "figure5",
        "figure6",
        "table3",
        "__version__",
    ]
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_api_all_snapshot():
    assert api.__all__ == [
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


# -- canonical resolvers ------------------------------------------------------


def test_resolve_target_accepts_name_and_instance():
    assert api.resolve_target("sse") is get_target("sse")
    assert api.resolve_target(SSE) is SSE
    with pytest.raises(KeyError):
        api.resolve_target("mmx")


def test_resolve_engine_validates():
    assert api.resolve_engine("threaded") == "threaded"
    assert api.resolve_engine("reference") == "reference"
    with pytest.raises(ValueError, match="unknown engine"):
        api.resolve_engine("turbo")


def test_resolve_compiler_name_class_instance():
    assert isinstance(api.resolve_compiler("mono"), MonoJIT)
    assert isinstance(api.resolve_compiler(OptimizingJIT), OptimizingJIT)
    inst = MonoJIT()
    assert api.resolve_compiler(inst) is inst
    with pytest.raises(ValueError, match="unknown compiler"):
        api.resolve_compiler("llvm")


# -- the one-call facade ------------------------------------------------------


def test_compile_and_run_matches_numpy():
    x, y = _data()
    arts = compile_and_run(SRC, {"n": 64, "alpha": 2.5}, {"x": x, "y": y})
    assert arts.function == "saxpy" and arts.target == "sse"
    got = arts.arrays["y"].read_elements()
    assert np.allclose(got, 2.5 * x + y, rtol=1e-5)
    assert arts.cycles > 0 and not arts.degraded
    assert isinstance(arts.bytecode, bytes) and len(arts.bytecode) > 0
    assert arts.vector_ir is not None
    assert arts.trace is None  # tracing was disabled


def test_pipeline_engines_agree():
    x, y = _data()
    a = Pipeline(engine="threaded").run(SRC, {"n": 64, "alpha": 2.0},
                                        {"x": x, "y": y})
    b = Pipeline(engine="reference").run(SRC, {"n": 64, "alpha": 2.0},
                                         {"x": x, "y": y})
    assert a.cycles == b.cycles
    assert np.array_equal(a.arrays["y"].read_elements(),
                          b.arrays["y"].read_elements())


def test_pipeline_scalar_and_forced_scalar_paths():
    x, y = _data()
    scal = Pipeline(vectorize=False).run(SRC, {"n": 64, "alpha": 1.5},
                                         {"x": x, "y": y})
    # Scalar bytecode still rides the wire format (the flow A/E shape).
    assert scal.vector_ir is None and isinstance(scal.bytecode, bytes)
    assert np.allclose(scal.arrays["y"].read_elements(), 1.5 * x + y,
                       rtol=1e-5)
    forced = Pipeline(force_scalar=True).run(SRC, {"n": 64, "alpha": 1.5},
                                             {"x": x, "y": y})
    assert np.allclose(forced.arrays["y"].read_elements(), 1.5 * x + y,
                       rtol=1e-5)
    vec = Pipeline().run(SRC, {"n": 64, "alpha": 1.5}, {"x": x, "y": y})
    assert vec.cycles < forced.cycles  # scalarization costs cycles


def test_pipeline_native_compiler_skips_roundtrip():
    x, y = _data()
    arts = Pipeline(compiler="native", target="avx").run(
        SRC, {"n": 64, "alpha": 3.0}, {"x": x, "y": y}
    )
    assert arts.bytecode is None  # native config: no portable wire format
    assert np.allclose(arts.arrays["y"].read_elements(), 3.0 * x + y,
                       rtol=1e-5)


def test_pipeline_multi_function_module_needs_name():
    x, _ = _data()
    with pytest.raises(ValueError, match="pass function="):
        Pipeline().run(TWO_FNS, {"n": 64, "alpha": 1.0}, {"x": x, "y": x})
    arts = Pipeline().run(TWO_FNS, {"n": 64}, {"x": x}, function="total")
    assert np.isclose(float(arts.value), float(x.sum()), rtol=1e-4)


def test_pipeline_missing_array_is_clear_error():
    with pytest.raises(ValueError, match="'y' not supplied"):
        Pipeline().run(SRC, {"n": 8, "alpha": 1.0}, {"x": np.ones(8, np.float32)})


def test_pipeline_run_captures_trace_when_recording():
    x, y = _data()
    with obs.recording() as ob:
        arts = Pipeline().run(SRC, {"n": 64, "alpha": 2.0},
                              {"x": x, "y": y})
    assert arts.trace is not None
    names = {s.name for s in arts.trace}
    assert {"pipeline", "frontend", "vectorize", "encode", "jit",
            "vm"} <= names
    roots = [s for s in arts.trace if s.parent_id is None]
    assert len(roots) == 1 and roots[0].name == "pipeline"
    assert len(ob.spans()) == len(arts.trace)


def test_smoke_run_covers_jit_and_vm():
    from repro.api import frontend_phase, smoke_run

    fn = frontend_phase(SRC)["saxpy"]
    with obs.recording() as ob:
        result = smoke_run(fn)
    assert result is not None and result.cycles > 0
    assert {s.phase for s in ob.spans()} == {"jit", "vm"}


def test_synthesize_inputs_shapes():
    from repro.api import frontend_phase, synthesize_inputs

    fn = frontend_phase(SRC)["saxpy"]
    scalars, arrays = synthesize_inputs(fn, n=16)
    assert scalars["n"] == 16 and scalars["alpha"] == 1.0
    assert arrays["x"].size == 16 and arrays["y"].size == 16


# -- keyword-only constructor conventions -------------------------------------


def test_constructors_are_keyword_only():
    from repro.harness import FlowRunner

    with pytest.raises(TypeError):
        FlowRunner(0)
    with pytest.raises(TypeError):
        KernelService("somewhere")
    with pytest.raises(TypeError):
        Pipeline("sse")


def test_compiler_compile_accepts_target_name():
    fn = api.frontend_phase(SRC)["saxpy"]
    ck = OptimizingJIT().compile(fn, "neon")
    assert ck.target.name == "neon"
    with pytest.raises(TypeError):  # force_scalar is keyword-only
        MonoJIT().compile(fn, "sse", True)
