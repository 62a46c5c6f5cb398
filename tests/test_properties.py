"""Property-based end-to-end tests: randomly generated kernels must produce
identical results under every compilation flow.

These are the strongest invariant checks in the suite: hypothesis builds a
random elementwise expression (or reduction) as VaporC source, and we assert
that split-vectorized execution on a SIMD target matches the scalar
interpretation exactly (integers) or within float tolerance.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import compile_source
from repro.ir import F32, I16, I32
from repro.jit import MonoJIT, OptimizingJIT
from repro.machine import VM, ArrayBuffer
from repro.targets import ALTIVEC, NEON, SCALAR, SSE
from repro.vectorizer import split_config, vectorize_function

# -- random expression generator --------------------------------------------

_INT_LEAVES = ["a[i]", "b[i]", "a[i + 1]", "7", "-3", "x"]
_INT_OPS = ["+", "-", "*", "&", "|", "^", ">>"]
_FLOAT_LEAVES = ["a[i]", "b[i]", "a[i + 1]", "2.5", "x"]
_FLOAT_OPS = ["+", "-", "*"]


@st.composite
def int_expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from(_INT_LEAVES))
    op = draw(st.sampled_from(_INT_OPS))
    lhs = draw(int_expr(depth=depth + 1))
    rhs = draw(int_expr(depth=depth + 1))
    if op == ">>":
        rhs = str(draw(st.integers(0, 7)))
    return f"({lhs} {op} {rhs})"


@st.composite
def float_expr(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from(_FLOAT_LEAVES))
    op = draw(st.sampled_from(_FLOAT_OPS))
    lhs = draw(float_expr(depth=depth + 1))
    rhs = draw(float_expr(depth=depth + 1))
    return f"({lhs} {op} {rhs})"


class TestRandomMapKernels:
    @given(expr=int_expr(), n=st.integers(1, 70), x=st.integers(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_int_map_kernel_matches_scalar(self, expr, n, x):
        src = f"""
void k(int n, int x, int a[], int b[], int o[]) {{
    for (int i = 0; i < n; i++) {{
        o[i] = {expr};
    }}
}}
"""
        fn = compile_source(src)["k"]
        vec = vectorize_function(fn, split_config())
        rng = np.random.default_rng(zlib.crc32(repr((expr, n, x)).encode()))
        a = rng.integers(-100, 100, n + 2).astype(np.int32)
        b = rng.integers(-100, 100, n + 2).astype(np.int32)
        i = np.arange(n)
        # Reference: evaluate the same expression over numpy int32 vectors.
        with np.errstate(over="ignore"):
            expect = eval(
                expr, {"__builtins__": {}},
                {"a": _Idx(a), "b": _Idx(b), "x": np.int32(x), "i": i},
            )
        expect = np.asarray(expect, dtype=np.int32)[:n] if hasattr(
            expect, "__len__"
        ) else np.full(n, expect, np.int32)

        results = {}
        for target in (SSE, SCALAR):
            ck = OptimizingJIT().compile(vec, target)
            bufs = {
                "a": ArrayBuffer(I32, n + 2, data=a),
                "b": ArrayBuffer(I32, n + 2, data=b),
                "o": ArrayBuffer(I32, n),
            }
            VM(target).run(ck.mfunc, {"n": n, "x": x}, bufs)
            results[target.name] = bufs["o"].read_elements()
        assert np.array_equal(results["sse"], results["scalar"])
        assert np.array_equal(results["sse"], expect)

    @given(expr=float_expr(), n=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_float_map_kernel_targets_agree(self, expr, n):
        src = f"""
void k(int n, float x, float a[], float b[], float o[]) {{
    for (int i = 0; i < n; i++) {{
        o[i] = {expr};
    }}
}}
"""
        fn = compile_source(src)["k"]
        vec = vectorize_function(fn, split_config())
        rng = np.random.default_rng(zlib.crc32(repr((expr, n)).encode()))
        a = rng.standard_normal(n + 2).astype(np.float32)
        b = rng.standard_normal(n + 2).astype(np.float32)
        outs = []
        for target, jit in ((SSE, OptimizingJIT()), (NEON, MonoJIT()),
                            (SCALAR, OptimizingJIT())):
            ck = jit.compile(vec, target)
            bufs = {
                "a": ArrayBuffer(F32, n + 2, data=a),
                "b": ArrayBuffer(F32, n + 2, data=b),
                "o": ArrayBuffer(F32, n),
            }
            VM(target).run(ck.mfunc, {"n": n, "x": 1.5}, bufs)
            outs.append(bufs["o"].read_elements())
        # Elementwise maps have no reassociation: exact agreement.
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])


class _Idx:
    """numpy-array wrapper giving C-style a[i] / a[i+1] indexing over a
    vector of indices inside eval()."""

    def __init__(self, arr):
        self.arr = arr

    def __getitem__(self, idx):
        return self.arr[idx].astype(np.int32)


class TestRandomReductions:
    @given(
        n=st.integers(1, 90),
        kind=st.sampled_from(["+", "min", "max"]),
        offset=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_int_reduction_exact(self, n, kind, offset):
        if kind == "+":
            update = f"s += a[i + {offset}] * b[i];"
            init = "0"
        elif kind == "min":
            update = f"s = min(s, a[i + {offset}] + b[i]);"
            init = "1000000"
        else:
            update = f"s = max(s, a[i + {offset}] - b[i]);"
            init = "-1000000"
        src = f"""
int k(int n, int a[], int b[]) {{
    int s = {init};
    for (int i = 0; i < n; i++) {{ {update} }}
    return s;
}}
"""
        fn = compile_source(src)["k"]
        vec = vectorize_function(fn, split_config())
        rng = np.random.default_rng(n * 31 + offset)
        a = rng.integers(-1000, 1000, n + 4).astype(np.int32)
        b = rng.integers(-1000, 1000, n + 4).astype(np.int32)
        av = a[offset : offset + n].astype(np.int64)
        bv = b[:n].astype(np.int64)
        if kind == "+":
            expect = int(np.int32((av * bv).sum()))
        elif kind == "min":
            expect = int(min(1000000, (av + bv).min())) if n else 1000000
        else:
            expect = int(max(-1000000, (av - bv).max())) if n else -1000000
        for target in (SSE, ALTIVEC, NEON, SCALAR):
            ck = OptimizingJIT().compile(vec, target)
            bufs = {
                "a": ArrayBuffer(I32, n + 4, data=a),
                "b": ArrayBuffer(I32, n + 4, data=b),
            }
            res = VM(target).run(ck.mfunc, {"n": n}, bufs)
            assert int(res.value) == expect, target.name

    @given(n=st.integers(1, 50), scale=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_i16_widening_reduction_exact(self, n, scale):
        src = f"""
int k(int n, short a[], short b[]) {{
    int s = 0;
    for (int i = 0; i < n; i++) {{
        s += (int)a[i] * (int)b[i] * {scale};
    }}
    return s;
}}
"""
        fn = compile_source(src)["k"]
        vec = vectorize_function(fn, split_config())
        rng = np.random.default_rng(n * 7 + scale)
        a = rng.integers(-500, 500, n).astype(np.int16)
        b = rng.integers(-500, 500, n).astype(np.int16)
        expect = int(
            np.int32((a.astype(np.int64) * b.astype(np.int64) * scale).sum())
        )
        for target in (SSE, ALTIVEC):
            ck = MonoJIT().compile(vec, target)
            bufs = {
                "a": ArrayBuffer(I16, n, data=a),
                "b": ArrayBuffer(I16, n, data=b),
            }
            res = VM(target).run(ck.mfunc, {"n": n}, bufs)
            assert int(res.value) == expect, target.name


class TestAlignmentProperty:
    @given(mis=st.sampled_from([0, 4, 8, 12, 16, 20]), n=st.integers(1, 80))
    @settings(max_examples=40, deadline=None)
    def test_unaligned_bases_still_correct(self, mis, n):
        """With runtime_aligns=False and arbitrarily misaligned bases, the
        guard routes to the fall-back version and results stay exact."""
        src = """
void k(int n, float a[], float o[]) {
    for (int i = 0; i < n; i++) { o[i] = a[i + 1] * 2.0; }
}
"""
        fn = compile_source(src)["k"]
        vec = vectorize_function(fn, split_config())
        jit = OptimizingJIT(runtime_aligns=False)
        rng = np.random.default_rng(mis + n)
        a = rng.standard_normal(n + 2).astype(np.float32)
        for target in (SSE, ALTIVEC):
            ck = jit.compile(vec, target)
            bufs = {
                "a": ArrayBuffer(F32, n + 2, base_misalign=mis, data=a),
                "o": ArrayBuffer(F32, n, base_misalign=mis),
            }
            VM(target).run(ck.mfunc, {"n": n}, bufs)
            assert np.array_equal(
                bufs["o"].read_elements(),
                a[1 : n + 1] * np.float32(2.0),
            ), (target.name, mis)
