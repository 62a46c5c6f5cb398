"""Edge-case coverage across the stack: frontend scoping, driver shapes
(multiple loops, deep nests), materializer fallback paths, VM details, and
the bytecode-compaction sub-goal from §I."""

import numpy as np
import pytest

from repro.bytecode import encode_function
from repro.frontend import SemaError, compile_source
from repro.ir import (
    F32,
    ForLoop,
    verify_function,
    walk,
)
from repro.jit import MonoJIT, OptimizingJIT
from repro.machine import VM, ArrayBuffer
from repro.targets import ALTIVEC, NEON, SSE, VSX
from repro.vectorizer import split_config, vectorize_function


def _vec(src, name=None, **cfg):
    module = compile_source(src)
    fn = module[name or next(iter(module.functions))]
    out = vectorize_function(fn, split_config(**cfg))
    verify_function(out)
    return out


class TestFrontendScoping:
    def test_block_scoped_declaration(self):
        fn = compile_source(
            "int f(int a) { int x = 1; { int x2 = a; x = x2; } return x; }"
        )["f"]
        verify_function(fn)

    def test_shadowing_in_inner_block_rejected_only_same_scope(self):
        # Same-scope redeclaration is an error...
        with pytest.raises(SemaError):
            compile_source("void f() { int x = 1; int x = 2; }")
        # ...but an inner block may declare a fresh name.
        compile_source("void f() { int x = 1; { int y = x; } { int y = 2; } }")

    def test_else_if_chain(self):
        fn = compile_source(
            "int f(int a) { int r = 0;"
            " if (a > 10) { r = 3; } else if (a > 5) { r = 2; }"
            " else { r = 1; } return r; }"
        )["f"]
        verify_function(fn)
        mf_args = [(-1, 1), (7, 2), (11, 3)]
        from repro.machine import flatten

        mf = flatten(fn)
        for a, expect in mf_args:
            res = VM(SSE).run(mf, {"a": a}, {})
            assert int(res.value) == expect

    def test_unary_minus_precedence(self):
        fn = compile_source("int f(int a) { return -a * 2; }")["f"]
        from repro.machine import flatten

        res = VM(SSE).run(flatten(fn), {"a": 3}, {})
        assert int(res.value) == -6

    def test_logical_ops(self):
        fn = compile_source(
            "int f(int a, int b) { return (a > 0 && b > 0) ? 1 : 0; }"
        )["f"]
        from repro.machine import flatten

        mf = flatten(fn)
        assert int(VM(SSE).run(mf, {"a": 1, "b": 1}, {}).value) == 1
        assert int(VM(SSE).run(mf, {"a": 1, "b": -1}, {}).value) == 0

    def test_long_and_double_params(self):
        fn = compile_source(
            "long f(long a, double x) { return a + (long)x; }"
        )["f"]
        from repro.machine import flatten

        res = VM(SSE).run(flatten(fn), {"a": 2**40, "x": 3.7}, {})
        assert int(res.value) == 2**40 + 3


class TestDriverShapes:
    def test_two_sibling_loops_both_vectorized(self):
        out = _vec(
            """
void f(int n, float a[], float b[], float o[], float p[]) {
    for (int i = 0; i < n; i++) { o[i] = a[i] * 2.0; }
    for (int j = 0; j < n; j++) { p[j] = b[j] + 1.0; }
}
"""
        )
        report = out.annotations["vect_report"]
        assert len(report) == 2
        assert all(v.startswith("vectorized") for v in report.values())
        # Distinct groups: the two trios must not share loop_bound routing.
        groups = {
            i.annotations["vect_group"]
            for i in walk(out.body)
            if isinstance(i, ForLoop) and "vect_group" in i.annotations
        }
        assert len(groups) == 2

    def test_triple_nest_inner_vectorized(self):
        out = _vec(
            """
void f(float A[8][8][8]) {
    for (int i = 0; i < 8; i++)
        for (int j = 0; j < 8; j++)
            for (int k = 0; k < 8; k++)
                A[i][j][k] = A[i][j][k] * 2.0;
}
"""
        )
        report = out.annotations["vect_report"]
        assert any(v.startswith("vectorized (inner)") for v in report.values())

    def test_loop_after_vectorized_loop_uses_its_result(self):
        out = _vec(
            """
float f(int n, float a[], float o[]) {
    float s = 0;
    for (int i = 0; i < n; i++) { s += a[i]; }
    for (int j = 0; j < n; j++) { o[j] = a[j] - s; }
    return s;
}
"""
        )
        # Execute to prove the result remapping across regions is right.
        n = 37
        rng = np.random.default_rng(0)
        a = rng.standard_normal(n).astype(np.float32)
        ck = OptimizingJIT().compile(out, SSE)
        bufs = {
            "a": ArrayBuffer(F32, n, data=a),
            "o": ArrayBuffer(F32, n),
        }
        res = VM(SSE).run(ck.mfunc, {"n": n}, bufs)
        s = float(a.astype(np.float64).sum())
        assert float(res.value) == pytest.approx(s, rel=1e-4)
        assert np.allclose(bufs["o"].read_elements(), a - np.float32(res.value),
                           rtol=1e-5)

    def test_vectorized_loop_inside_if(self):
        src = """
void f(int n, int flag, float a[]) {
    if (flag > 0) {
        for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
    }
}
"""
        out = _vec(src)
        assert any(
            v.startswith("vectorized") for v in
            out.annotations["vect_report"].values()
        )
        n = 21
        a = np.arange(n, dtype=np.float32)
        for flag, factor in ((1, 2.0), (0, 1.0)):
            ck = MonoJIT().compile(out, NEON)
            bufs = {"a": ArrayBuffer(F32, n, data=a)}
            VM(NEON).run(ck.mfunc, {"n": n, "flag": flag}, bufs)
            assert np.allclose(bufs["a"].read_elements(), a * factor)


class TestMaterializerFallbacks:
    SRC = """
void f(int n, float a[], float o[]) {
    for (int i = 0; i < n; i++) { o[i] = a[i + 1] + 1.0; }
}
"""

    def test_altivec_unaligned_runtime_takes_scalar_route(self):
        """runtime_aligns=False on AltiVec: the fall-back arm's misaligned
        stores can't exist, so its group scalarizes; with misaligned bases
        the run must still be correct (via that scalar route)."""
        vec = _vec(self.SRC)
        jit = OptimizingJIT(runtime_aligns=False)
        ck = jit.compile(vec, ALTIVEC)
        n = 29
        a = np.arange(n + 1, dtype=np.float32)
        for mis in (0, 8, 20):
            bufs = {
                "a": ArrayBuffer(F32, n + 1, base_misalign=mis, data=a),
                "o": ArrayBuffer(F32, n, base_misalign=mis),
            }
            VM(ALTIVEC).run(ck.mfunc, {"n": n}, bufs)
            assert np.allclose(bufs["o"].read_elements(), a[1:] + 1.0), mis

    def test_vsx_uses_misaligned_not_vperm_when_cheaper(self):
        """VSX has both options; our materializer prefers the single
        misaligned load over the explicit chain."""
        vec = _vec(self.SRC)
        ck = OptimizingJIT().compile(vec, VSX)
        ops = {i.op for i in ck.mfunc.instrs}
        assert "vload_u" in ops and "vperm" not in ops

    def test_guard_counts_in_stats(self):
        vec = _vec(self.SRC)
        ck = OptimizingJIT().compile(vec, SSE)
        assert ck.stats["guards_folded"] >= 1
        assert ck.stats["guards_runtime"] == 0


class TestVMEdgeCases:
    def test_i64_arithmetic(self):
        fn = compile_source(
            "long f(long a, long b) { return a * b + a; }"
        )["f"]
        from repro.machine import flatten

        res = VM(SSE).run(flatten(fn), {"a": 2**33, "b": 3}, {})
        assert int(res.value) == np.int64(2**33 * 3 + 2**33)

    def test_f64_precision_preserved(self):
        fn = compile_source("double f(double x) { return x + 1e-12; }")["f"]
        from repro.machine import flatten

        res = VM(SSE).run(flatten(fn), {"x": 1.0}, {})
        assert float(res.value) == 1.0 + 1e-12

    def test_instruction_budget_guard(self):
        from repro.machine import VMError, flatten

        fn = compile_source(
            "int f(int n) { int s = 0;"
            " for (int i = 0; i < n; i++) { s += i; } return s; }"
        )["f"]
        vm = VM(SSE, max_instructions=100)
        with pytest.raises(VMError):
            vm.run(flatten(fn), {"n": 10_000}, {})

    def test_unbound_array_raises(self):
        from repro.machine import VMError, flatten

        fn = compile_source("void f(float a[]) { a[0] = 1.0; }")["f"]
        with pytest.raises(VMError):
            VM(SSE).run(flatten(fn), {}, {})

    def test_unbound_scalar_raises(self):
        from repro.machine import VMError, flatten

        fn = compile_source("int f(int n) { return n; }")["f"]
        with pytest.raises(VMError):
            VM(SSE).run(flatten(fn), {}, {})

    def test_x87_charges_float_ops_only(self):
        fn = compile_source(
            "float f(int n, float x) { return x * x; }"
        )["f"]
        from repro.machine import flatten

        mf = flatten(fn)
        base = VM(SSE).run(mf, {"n": 0, "x": 2.0}, {}).cycles
        mf.meta["x87"] = True
        slow = VM(SSE).run(mf, {"n": 0, "x": 2.0}, {}).cycles
        assert slow > base


class TestBytecodeCompaction:
    """§I sub-goal 4: 'bytecode compaction' — the container must be compact
    relative to naive serializations of the same IR."""

    def test_vbc_beats_pickle(self):
        import pickle

        vec = _vec(
            """
float f(int n, float a[], float c[]) {
    float s = 0;
    for (int i = 0; i < n; i++) { s += a[i + 2] * c[i]; }
    return s;
}
"""
        )
        vbc = encode_function(vec)
        pickled = pickle.dumps(vec)
        assert len(vbc) < len(pickled) / 5

    def test_varints_keep_small_programs_small(self):
        scalar = compile_source(
            "void f(int n, float x[]) {"
            " for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0; } }"
        )["f"]
        assert len(encode_function(scalar)) < 150
