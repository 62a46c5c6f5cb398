"""Differential fuzz of the *flows*: for random kernels, the split flow
(offline symbolic vectorization + JIT) and the native flow (monolithic
target-specific vectorization) must produce identical integer results —
the strongest form of the paper's performance-portability claim: same
semantics, different compilation strategies."""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import compile_source
from repro.ir import I32
from repro.jit import MonoJIT, NativeBackend
from repro.machine import VM, ArrayBuffer
from repro.targets import ALTIVEC, SSE
from repro.vectorizer import native_config, split_config, vectorize_function

_LEAVES = ["a[i]", "b[i]", "a[i + 1]", "4", "x", "min(a[i], x)", "abs(b[i])"]
_OPS = ["+", "-", "*", "&", "^"]


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
    @given(src=kernel(), n=st.integers(1, 50), x=st.integers(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_flows_agree(self, src, n, x):
        fn = compile_source(src)["k"]
        split_ir = vectorize_function(fn, split_config())
        has_out = "o[" in src
        rng = np.random.default_rng(zlib.crc32(repr((src, n, x)).encode()))
        a = rng.integers(-70, 70, n + 2).astype(np.int32)
        b = rng.integers(-70, 70, n + 2).astype(np.int32)

        def run(ir, jit, target):
            ck = jit.compile(ir, target)
            bufs = {
                "a": ArrayBuffer(I32, n + 2, data=a),
                "b": ArrayBuffer(I32, n + 2, data=b),
            }
            if has_out:
                bufs["o"] = ArrayBuffer(I32, n)
            res = VM(target).run(ck.mfunc, {"n": n, "x": x}, bufs)
            return (
                int(res.value) if res.value is not None else None,
                tuple(bufs["o"].read_elements()) if has_out else None,
            )

        for target in (SSE, ALTIVEC):
            native_ir = vectorize_function(fn, native_config(target))
            results = {
                run(split_ir, MonoJIT(), target),
                run(native_ir, NativeBackend(), target),
            }
            assert len(results) == 1, (target.name, results)
