"""Tests for the online stage: materialization decisions per target
(§III-C's four translation schemes), guard folding policies, scalarization
via loop_bound, library fallback, and the JIT personalities."""

import numpy as np
import pytest

from repro.frontend import compile_source
from repro.jit import MaterializeOptions, MonoJIT, OptimizingJIT, materialize
from repro.ir import F32, clone_function, verify_function, walk
from repro.machine import VM, ArrayBuffer
from repro.targets import ALTIVEC, NEON, SCALAR, SSE
from repro.vectorizer import split_config, vectorize_function

SFIR = """
float sfir(int n, float a[], float c[]) {
    float s = 0;
    for (int i = 0; i < n; i++) { s += a[i + 2] * c[i]; }
    return s;
}
"""

MMM = """
void mmm(float A[8][8], float B[8][8], float C[8][8]) {
    for (int i = 0; i < 8; i++) {
        for (int k = 0; k < 8; k++) {
            for (int j = 0; j < 8; j++) {
                C[i][j] = C[i][j] + A[i][k] * B[k][j];
            }
        }
    }
}
"""


def _split(src, name):
    return vectorize_function(compile_source(src)[name], split_config())


def _ops(ck):
    counts = {}
    for ins in ck.mfunc.instrs:
        counts[ins.op] = counts.get(ins.op, 0) + 1
    return counts


class TestTranslationSchemes:
    """§III-C a-d: one bytecode, four lowering schemes for realign_load."""

    @pytest.fixture(scope="class")
    def bytecode(self):
        return _split(SFIR, "sfir")

    def test_altivec_explicit_realignment(self, bytecode):
        ops = _ops(OptimizingJIT().compile(bytecode, ALTIVEC))
        assert ops.get("vperm", 0) >= 1
        assert ops.get("lvsr", 0) >= 1
        assert ops.get("vload_fa", 0) >= 2
        assert "vload_u" not in ops

    def test_sse_implicit_misaligned(self, bytecode):
        ops = _ops(OptimizingJIT().compile(bytecode, SSE))
        # a[i+2] is misaligned for VS=16 -> movdqu; chain idioms dropped.
        assert ops.get("vload_u", 0) >= 1
        assert "vperm" not in ops and "lvsr" not in ops

    def test_neon_aligned(self, bytecode):
        # mis=8 is 0 mod VS=8: the same hint yields *aligned* loads.
        ops = _ops(OptimizingJIT().compile(bytecode, NEON))
        assert ops.get("vload_a", 0) >= 1
        assert "vperm" not in ops

    def test_scalar_collapses_to_one_loop(self, bytecode):
        ck = OptimizingJIT().compile(bytecode, SCALAR)
        ops = _ops(ck)
        assert not any(op.startswith("v") for op in ops)
        # One scalar loop: exactly one backward branch.
        labels = ck.mfunc.labels()
        back = [
            ins for i, ins in enumerate(ck.mfunc.instrs)
            if ins.op == "br" and labels[ins.imm["label"]] < i
        ]
        assert len(back) == 1

    def test_scalar_cost_matches_scalar_bytecode(self, bytecode):
        """Low overhead for scalar execution (one of the four sub-goals)."""
        scalar_ir = compile_source(SFIR)["sfir"]
        n = 77
        rng = np.random.default_rng(0)
        a = rng.standard_normal(n + 4).astype(np.float32)
        c = rng.standard_normal(n).astype(np.float32)

        def run(ir):
            ck = OptimizingJIT().compile(ir, SCALAR)
            bufs = {
                "a": ArrayBuffer(F32, n + 4, data=a),
                "c": ArrayBuffer(F32, n, data=c),
            }
            return VM(SCALAR).run(ck.mfunc, {"n": n}, bufs)

        vec_res = run(bytecode)
        scal_res = run(scalar_ir)
        assert float(vec_res.value) == pytest.approx(float(scal_res.value), rel=1e-5)
        assert vec_res.cycles <= scal_res.cycles * 1.05


class TestScalarization:
    def test_doubles_scalarize_on_altivec(self):
        src = """
void dscal(int n, double alpha, double x[]) {
    for (int i = 0; i < n; i++) { x[i] = alpha * x[i]; }
}
"""
        bytecode = _split(src, "dscal")
        ck = OptimizingJIT().compile(bytecode, ALTIVEC)
        assert ck.stats["loops_scalarized"] >= 1
        assert ck.stats["loops_vectorized"] == 0
        n = 33
        x = np.arange(n, dtype=np.float64)
        from repro.ir import F64

        bufs = {"x": ArrayBuffer(F64, n, data=x)}
        VM(ALTIVEC).run(ck.mfunc, {"n": n, "alpha": 1.5}, bufs)
        assert np.allclose(bufs["x"].read_elements(), 1.5 * x)

    def test_doubles_vectorize_on_sse(self):
        src = """
void dscal(int n, double alpha, double x[]) {
    for (int i = 0; i < n; i++) { x[i] = alpha * x[i]; }
}
"""
        ck = OptimizingJIT().compile(_split(src, "dscal"), SSE)
        assert ck.stats["loops_vectorized"] >= 1


class TestLibraryFallback:
    def test_neon_widen_mult_via_library(self):
        src = """
void widen(int n, char a[], short o[]) {
    for (int i = 0; i < n; i++) { o[i] = (short)a[i] * (short)3; }
}
"""
        bytecode = _split(src, "widen")
        ck = OptimizingJIT().compile(bytecode, NEON)
        ops = _ops(ck)
        assert ops.get("call_lib", 0) >= 2  # hi and lo halves
        # And it still computes the right thing.
        from repro.ir import I8, I16

        n = 37
        a = np.arange(-18, 19, dtype=np.int8)
        bufs = {"a": ArrayBuffer(I8, n, data=a), "o": ArrayBuffer(I16, n)}
        VM(NEON).run(ck.mfunc, {"n": n}, bufs)
        assert np.array_equal(
            bufs["o"].read_elements(), a.astype(np.int16) * 3
        )

    def test_sse_widen_mult_native_instruction(self):
        src = """
void widen(int n, char a[], short o[]) {
    for (int i = 0; i < n; i++) { o[i] = (short)a[i] * (short)3; }
}
"""
        ck = OptimizingJIT().compile(_split(src, "widen"), SSE)
        ops = _ops(ck)
        assert ops.get("vwidenmul", 0) >= 2
        assert "call_lib" not in ops


class TestGuardFolding:
    def test_optimizing_jit_folds_all_guards(self):
        ck = OptimizingJIT().compile(_split(MMM, "mmm"), SSE)
        assert ck.stats["guards_folded"] >= 1
        # After folding + collapse there are no runtime branches on guards.
        assert _ops(ck).get("arr_overlap", 0) == 0

    def test_mono_keeps_nested_guard_at_runtime(self):
        """The paper's MMM-on-Mono effect: the alignment guard inside the
        loop nest is evaluated per outer iteration."""
        bytecode = _split(MMM, "mmm")
        mono = MonoJIT().compile(bytecode, ALTIVEC)
        opt = OptimizingJIT().compile(bytecode, ALTIVEC)
        arrays = lambda: {
            k: ArrayBuffer(F32, 64, data=np.zeros(64, np.float32))
            for k in "ABC"
        }
        r_mono = VM(ALTIVEC).run(mono.mfunc, {}, arrays(), count_ops=True)
        r_opt = VM(ALTIVEC).run(opt.mfunc, {}, arrays(), count_ops=True)
        # Mono executes the guard's or-instruction every outer iteration.
        assert mono.stats["guards_runtime"] >= 1
        assert r_mono.op_counts.get("brfalse", 0) > r_opt.op_counts.get("brfalse", 0)

    def test_mono_folds_top_level_guard(self):
        src = """
void scale(int n, float x[]) {
    for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0; }
}
"""
        ck = MonoJIT().compile(_split(src, "scale"), SSE)
        # The loop guard sits at depth 0 -> folded even by Mono.
        assert ck.stats["guards_folded"] >= 1

    def test_alias_guard_is_runtime_check(self):
        src = """
void copy(int n, __may_alias float a[], __may_alias float b[]) {
    for (int i = 0; i < n; i++) { b[i] = a[i]; }
}
"""
        ck = OptimizingJIT().compile(_split(src, "copy"), SSE)
        assert _ops(ck).get("arr_overlap", 0) == 1

    def test_alias_guard_picks_scalar_on_overlap(self):
        src = """
void shift(int n, __may_alias float a[], __may_alias float b[]) {
    for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0; }
}
"""
        ck = OptimizingJIT().compile(_split(src, "shift"), SSE)
        base = ArrayBuffer(F32, 40, data=np.zeros(40, np.float32))
        overlapping = base.alias_view(F32, 32, byte_offset=16)
        res = VM(SSE).run(
            ck.mfunc, {"n": 24},
            {"a": base, "b": overlapping},
            count_ops=True,
        )
        # The vector path must not run; scalar loop handles the overlap
        # with exact C semantics.
        assert res.op_counts.get("vstore_a", 0) == 0
        assert res.op_counts.get("vstore_u", 0) == 0
        expect = np.zeros(40, np.float32)
        for i in range(24):
            expect[4 + i] = expect[i] + 1.0
        assert np.allclose(base.read_elements(), expect)


class TestRuntimeAlignment:
    def test_unaligned_runtime_uses_fallback_version(self):
        """With a runtime that does NOT align bases, the bases_aligned
        guard becomes a real check and the hint-less version runs."""
        bytecode = _split(SFIR, "sfir")
        jit = OptimizingJIT(runtime_aligns=False)
        ck = jit.compile(bytecode, SSE)
        assert _ops(ck).get("arr_aligned", 0) >= 1
        n = 53
        rng = np.random.default_rng(2)
        a = rng.standard_normal(n + 4).astype(np.float32)
        c = rng.standard_normal(n).astype(np.float32)
        for mis in (0, 4, 12):
            bufs = {
                "a": ArrayBuffer(F32, n + 4, base_misalign=mis, data=a),
                "c": ArrayBuffer(F32, n, base_misalign=mis, data=c),
            }
            res = VM(SSE).run(ck.mfunc, {"n": n}, bufs)
            assert float(res.value) == pytest.approx(
                float((a[2 : n + 2] * c).sum()), rel=1e-4
            )


class TestCompilerPersonalities:
    def test_mono_x87_flag_on_x86_only(self):
        scalar = compile_source(SFIR)["sfir"]
        assert MonoJIT().compile(scalar, SSE).mfunc.meta.get("x87")
        assert not MonoJIT().compile(scalar, ALTIVEC).mfunc.meta.get("x87")
        assert not OptimizingJIT().compile(scalar, SSE).mfunc.meta.get("x87")

    def test_mono_emits_more_code(self):
        bytecode = _split(SFIR, "sfir")
        mono = MonoJIT().compile(bytecode, SSE)
        opt = OptimizingJIT().compile(bytecode, SSE)
        assert mono.stats["minstrs"] > opt.stats["minstrs"]

    def test_compile_does_not_mutate_input(self):
        bytecode = _split(SFIR, "sfir")
        before = len(list(walk(bytecode.body)))
        MonoJIT().compile(bytecode, SSE)
        OptimizingJIT().compile(bytecode, ALTIVEC)
        assert len(list(walk(bytecode.body))) == before
        verify_function(bytecode)

    def test_materialize_reports_stats(self):
        bytecode = _split(SFIR, "sfir")
        work = clone_function(bytecode)
        _, stats = materialize(work, SSE, MaterializeOptions())
        assert stats["guards_folded"] >= 1
        assert stats["loops_vectorized"] >= 1
