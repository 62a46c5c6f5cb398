"""Differential fuzz of the *flows*: for random kernels, the split flow
(offline symbolic vectorization + JIT) and the native flow (monolithic
target-specific vectorization) must produce identical integer results —
the strongest form of the paper's performance-portability claim: same
semantics, different compilation strategies.

Every compiled kernel also runs on every registered engine, which must
match the reference interpreter on value, output array, cycles and
instruction count.  Trip counts reach past codegen's ``_MIN_BATCH``, so
some loops take the batch path.

Float reductions (``float s += <expr>``) get the engine half only: the
split and native flows may legitimately sum in different orders, but
every engine must return the reference interpreter's value bit for bit,
which is what codegen's in-order fold of a batched accumulator
promises."""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import compile_source
from repro.ir import F32, I32
from repro.jit import MonoJIT, NativeBackend, OptimizingJIT
from repro.machine import VM, ArrayBuffer
from repro.machine.registry import engine_names, get_engine
from repro.targets import ALTIVEC, NEON, SSE
from repro.vectorizer import native_config, split_config, vectorize_function

_LEAVES = ["a[i]", "b[i]", "a[i + 1]", "4", "x", "min(a[i], x)", "abs(b[i])"]
_OPS = ["+", "-", "*", "&", "^"]
_F_LEAVES = ["a[i]", "b[i]", "a[i + 1]", "0.5", "x", "min(a[i], x)",
             "fabs(b[i])"]
_F_OPS = ["+", "-", "*"]


@st.composite
def expr(draw, depth=0, leaves=_LEAVES, ops=_OPS):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from(leaves))
    return (
        f"({draw(expr(depth + 1, leaves, ops))} "
        f"{draw(st.sampled_from(ops))} "
        f"{draw(expr(depth + 1, leaves, ops))})"
    )


@st.composite
def kernel(draw):
    body = draw(expr())
    if draw(st.booleans()):
        return f"""
int k(int n, int x, int a[], int b[]) {{
    int s = 0;
    for (int i = 0; i < n; i++) {{ s += {body}; }}
    return s;
}}
"""
    return f"""
void k(int n, int x, int a[], int b[], int o[]) {{
    for (int i = 0; i < n; i++) {{ o[i] = {body}; }}
}}
"""


class TestSplitVsNative:
    @given(src=kernel(), n=st.integers(1, 400), x=st.integers(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_flows_agree(self, src, n, x):
        fn = compile_source(src)["k"]
        split_ir = vectorize_function(fn, split_config())
        has_out = "o[" in src
        rng = np.random.default_rng(zlib.crc32(repr((src, n, x)).encode()))
        a = rng.integers(-70, 70, n + 2).astype(np.int32)
        b = rng.integers(-70, 70, n + 2).astype(np.int32)

        def execute(run, *args):
            bufs = {
                "a": ArrayBuffer(I32, n + 2, data=a),
                "b": ArrayBuffer(I32, n + 2, data=b),
            }
            if has_out:
                bufs["o"] = ArrayBuffer(I32, n)
            res = run(*args, {"n": n, "x": x}, bufs)
            return (
                int(res.value) if res.value is not None else None,
                tuple(bufs["o"].read_elements()) if has_out else None,
                res.cycles,
                res.instructions,
            )

        def run(ir, jit, target):
            ck = jit.compile(ir, target)
            ref = execute(VM(target).run, ck.mfunc)
            for engine in engine_names():
                got = execute(get_engine(engine).run, ck)
                assert got == ref, (target.name, jit.name, engine)
            return ref[:2]

        for target in (SSE, ALTIVEC):
            native_ir = vectorize_function(fn, native_config(target))
            results = {
                run(split_ir, MonoJIT(), target),
                run(native_ir, NativeBackend(), target),
            }
            assert len(results) == 1, (target.name, results)


@st.composite
def float_reduction(draw):
    return f"""
float k(int n, float x, float a[], float b[]) {{
    float s = 0;
    for (int i = 0; i < n; i++) {{ s += {draw(expr(0, _F_LEAVES, _F_OPS))}; }}
    return s;
}}
"""


def _bits(value):
    return (type(value).__name__, np.asarray(value).tobytes())


class TestFloatReductions:
    @given(src=float_reduction(), n=st.integers(1, 400),
           x=st.floats(-4, 4, width=32))
    @settings(max_examples=40, deadline=None)
    def test_engines_match_reference_bits(self, src, n, x):
        fn = compile_source(src)["k"]
        split_ir = vectorize_function(fn, split_config())
        rng = np.random.default_rng(zlib.crc32(repr((src, n, x)).encode()))
        a = rng.uniform(-8, 8, n + 2).astype(np.float32)
        b = rng.uniform(-8, 8, n + 2).astype(np.float32)

        def execute(run, *args):
            bufs = {
                "a": ArrayBuffer(F32, n + 2, data=a),
                "b": ArrayBuffer(F32, n + 2, data=b),
            }
            res = run(*args, {"n": n, "x": x}, bufs)
            return _bits(res.value), res.cycles, res.instructions

        for target in (SSE, NEON, ALTIVEC):
            native_ir = vectorize_function(fn, native_config(target))
            for ir, jit in ((split_ir, MonoJIT()),
                            (split_ir, OptimizingJIT()),
                            (native_ir, NativeBackend())):
                ck = jit.compile(ir, target)
                ref = execute(VM(target).run, ck.mfunc)
                for engine in engine_names():
                    got = execute(get_engine(engine).run, ck)
                    assert got == ref, (target.name, jit.name, engine)
