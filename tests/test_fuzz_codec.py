"""Fuzz the bytecode codec with randomly generated kernels.

For arbitrary VaporC programs (random expressions, optional reduction,
random offsets) the pipeline must satisfy:

    run(jit(decode(encode(vectorize(fn))))) == run(jit(vectorize(fn)))

exactly (integer kernels), on a SIMD target and the scalar target.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import decode_function, encode_function
from repro.frontend import compile_source
from repro.ir import I32, print_function, verify_function
from repro.jit import OptimizingJIT, specialize_scalars
from repro.machine import VM, ArrayBuffer
from repro.targets import NEON, SSE
from repro.vectorizer import split_config, vectorize_function

_LEAVES = ["a[i]", "b[i]", "a[i + 1]", "b[i + 2]", "5", "x", "i"]
_OPS = ["+", "-", "*", "&", "^", "|"]


@st.composite
def expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from(_LEAVES))
    return (
        f"({draw(expr(depth=depth + 1))} "
        f"{draw(st.sampled_from(_OPS))} "
        f"{draw(expr(depth=depth + 1))})"
    )


@st.composite
def kernel_source(draw):
    body = draw(expr())
    reduce = draw(st.booleans())
    if reduce:
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


class TestCodecFuzz:
    @given(src=kernel_source(), n=st.integers(1, 40), x=st.integers(-9, 9))
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_execution_identical(self, src, n, x):
        fn = compile_source(src)["k"]
        vec = vectorize_function(fn, split_config())
        verify_function(vec)
        dec = decode_function(encode_function(vec))
        verify_function(dec)
        # Stable re-encoding.
        assert encode_function(dec) == encode_function(
            decode_function(encode_function(dec))
        )

        rng = np.random.default_rng(zlib.crc32(repr((src, n, x)).encode()))
        a = rng.integers(-50, 50, n + 2).astype(np.int32)
        b = rng.integers(-50, 50, n + 3).astype(np.int32)
        has_out = "o[" in src

        def run(fn_ir, target):
            ck = OptimizingJIT().compile(fn_ir, target)
            bufs = {
                "a": ArrayBuffer(I32, n + 2, data=a),
                "b": ArrayBuffer(I32, n + 3, data=b),
            }
            if has_out:
                bufs["o"] = ArrayBuffer(I32, n)
            res = VM(target).run(ck.mfunc, {"n": n, "x": x}, bufs)
            out = bufs["o"].read_elements() if has_out else None
            return res.value, out

        for target in (SSE, NEON):
            v1, o1 = run(vec, target)
            v2, o2 = run(dec, target)
            if v1 is not None or v2 is not None:
                assert int(v1) == int(v2)
            if has_out:
                assert np.array_equal(o1, o2)


class TestSpecializationFuzz:
    @given(src=kernel_source(), n=st.integers(1, 40), x=st.integers(-9, 9))
    @settings(max_examples=40, deadline=None)
    def test_specialized_matches_generic(self, src, n, x):
        fn = compile_source(src)["k"]
        vec = vectorize_function(fn, split_config())
        spec = specialize_scalars(vec, {"n": n, "x": x})
        verify_function(spec)
        rng = np.random.default_rng(zlib.crc32(repr((src, n, x, 7)).encode()))
        a = rng.integers(-50, 50, n + 2).astype(np.int32)
        b = rng.integers(-50, 50, n + 3).astype(np.int32)
        has_out = "o[" in src

        def run(fn_ir, args):
            ck = OptimizingJIT().compile(fn_ir, SSE)
            bufs = {
                "a": ArrayBuffer(I32, n + 2, data=a),
                "b": ArrayBuffer(I32, n + 3, data=b),
            }
            if has_out:
                bufs["o"] = ArrayBuffer(I32, n)
            res = VM(SSE).run(ck.mfunc, args, bufs)
            return res.value, (bufs["o"].read_elements() if has_out else None)

        v1, o1 = run(vec, {"n": n, "x": x})
        v2, o2 = run(spec, {})
        if v1 is not None or v2 is not None:
            assert int(v1) == int(v2)
        if has_out:
            assert np.array_equal(o1, o2)
