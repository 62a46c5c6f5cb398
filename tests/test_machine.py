"""Tests for the machine layer: memory model, VM semantics (hypothesis-
checked against numpy), flattening, register allocation, and the IACA
analyzer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import compile_source
from repro.ir import F32, I8, I16, I32
from repro.machine import (
    GUARD_BYTES,
    VM,
    ArrayBuffer,
    FlattenOptions,
    MFunction,
    VMError,
    VReg,
    allocate_linear_scan,
    allocate_local,
    analyze_loop_throughput,
    flatten,
)
from repro.machine.mir import GPR, VEC
from repro.targets import ALTIVEC, AVX, NEON, SSE


class TestArrayBuffer:
    def test_roundtrip(self, rng):
        data = rng.standard_normal(17).astype(np.float32)
        buf = ArrayBuffer(F32, 17, data=data)
        assert np.array_equal(buf.read_elements(), data)

    def test_base_alignment(self):
        for mis in (0, 4, 12):
            buf = ArrayBuffer(F32, 8, base_misalign=mis)
            assert buf.address_of(0) % 32 == mis

    def test_invalid_misalign(self):
        with pytest.raises(ValueError):
            ArrayBuffer(F32, 8, base_misalign=40)

    def test_guard_region_allows_floor_overread(self):
        buf = ArrayBuffer(F32, 4)
        # Reading one vector past the last element stays in the guard.
        raw = buf.load_bytes(4 * 4, 16)
        assert raw.size == 16

    def test_out_of_bounds_raises(self):
        buf = ArrayBuffer(F32, 4)
        with pytest.raises(IndexError):
            buf.load_bytes(4 * 4 + GUARD_BYTES, 16)

    def test_vector_store_load(self):
        buf = ArrayBuffer(I16, 16)
        v = np.arange(8, dtype=np.int16)
        buf.store_vector(4, v)
        assert np.array_equal(buf.load_vector(4, np.dtype(np.int16), 8), v)

    def test_overlap_and_alias_view(self):
        a = ArrayBuffer(I8, 64)
        b = ArrayBuffer(I8, 64)
        assert not a.overlaps(b)
        view = a.alias_view(I8, 32, byte_offset=8)
        assert a.overlaps(view)
        view.store_scalar(0, 42, np.dtype(np.int8))
        assert a.read_elements()[8] == 42

    @given(st.integers(0, 24), st.integers(1, 8))
    def test_scalar_access_roundtrip(self, off, count):
        buf = ArrayBuffer(I32, 32)
        buf.store_scalar(off * 4, off * 3 - 5, np.dtype(np.int32))
        assert buf.load_scalar(off * 4, np.dtype(np.int32)) == off * 3 - 5


def _run_expr(src, name, args, arrays=None, target=SSE, opts=None):
    fn = compile_source(src)[name]
    mf = flatten(fn, opts or FlattenOptions())
    bufs = {}
    for a in fn.array_params:
        data = arrays[a.name]
        bufs[a.name] = ArrayBuffer(a.elem, len(data), data=data)
    return VM(target).run(mf, args, bufs), bufs


class TestVMScalarSemantics:
    @given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1))
    @settings(max_examples=100)
    def test_i32_add_wraps(self, a, b):
        res, _ = _run_expr(
            "int f(int a, int b) { return a + b; }", "f", {"a": a, "b": b}
        )
        with np.errstate(over="ignore"):
            expect = int(np.int32(np.int32(a) + np.int32(b)))
        assert int(res.value) == expect

    @given(st.integers(-128, 127), st.integers(-128, 127))
    @settings(max_examples=100)
    def test_i8_mul_wraps(self, a, b):
        res, _ = _run_expr(
            "char f(char a, char b) { return (char)(a * b); }",
            "f", {"a": a, "b": b},
        )
        with np.errstate(over="ignore"):
            expect = int(np.int8(np.int8(a) * np.int8(b)))
        assert int(res.value) == expect

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_f32_arith(self, a, b):
        res, _ = _run_expr(
            "float f(float a, float b) { return a * b + a; }",
            "f", {"a": a, "b": b},
        )
        expect = np.float32(a) * np.float32(b) + np.float32(a)
        assert float(res.value) == pytest.approx(float(expect), rel=1e-6)

    @given(st.integers(-1000, 1000), st.integers(1, 100))
    def test_c_division(self, a, b):
        res, _ = _run_expr(
            "int f(int a, int b) { return a / b; }", "f", {"a": a, "b": b}
        )
        expect = int(a / b)  # trunc toward zero
        assert int(res.value) == expect

    @given(st.integers(-1000, 1000), st.integers(1, 100))
    def test_c_modulo(self, a, b):
        res, _ = _run_expr(
            "int f(int a, int b) { return a % b; }", "f", {"a": a, "b": b}
        )
        assert int(res.value) == int(np.fmod(a, b))

    @given(st.floats(-100, 100, allow_nan=False))
    def test_float_to_int_truncates(self, x):
        res, _ = _run_expr(
            "int f(float x) { return (int)x; }", "f", {"x": x}
        )
        assert int(res.value) == int(np.float32(x))

    def test_abs_min_max(self):
        res, _ = _run_expr(
            "int f(int a, int b) { return abs(a - b) + min(a, b) - max(a, b); }",
            "f", {"a": -3, "b": 9},
        )
        assert int(res.value) == 12 + (-3) - 9

    def test_sqrt(self):
        res, _ = _run_expr(
            "float f(float x) { return sqrt(x); }", "f", {"x": 2.0}
        )
        assert float(res.value) == pytest.approx(2 ** 0.5, rel=1e-6)


class TestVMVectorSemantics:
    """Drive vector opcodes directly through a hand-built MFunction."""

    def _mf(self):
        return MFunction("t")

    def _exec(self, mf, arrays=None, target=SSE):
        return VM(target).run(mf, {}, arrays or {})

    def test_vsplat_and_vadd(self):
        mf = self._mf()
        s = VReg.fresh(GPR, I32)
        v1 = VReg.fresh(VEC)
        v2 = VReg.fresh(VEC)
        out = VReg.fresh(VEC)
        mf.emit("const", s, value=7, type=I32)
        mf.emit("vsplat", v1, [s], elem=I32, lanes=4)
        mf.emit("vsplat", v2, [s], elem=I32, lanes=4)
        mf.emit("vadd", out, [v1, v2], elem=I32, lanes=4)
        mf.emit("vreduce", s, [out], kind="plus")
        mf.emit("ret", srcs=[s])
        assert int(self._exec(mf).value) == 4 * 14

    def test_vaffine(self):
        mf = self._mf()
        base = VReg.fresh(GPR, I32)
        inc = VReg.fresh(GPR, I32)
        v = VReg.fresh(VEC)
        out = VReg.fresh(GPR, I32)
        mf.emit("const", base, value=10, type=I32)
        mf.emit("const", inc, value=3, type=I32)
        mf.emit("vaffine", v, [base, inc], elem=I32, lanes=4)
        mf.emit("vreduce", out, [v], kind="max")
        mf.emit("ret", srcs=[out])
        assert int(self._exec(mf).value) == 19

    def test_vperm_realigns(self):
        # lvsr + two floor-aligned loads + vperm == misaligned load.
        data = np.arange(16, dtype=np.float32)
        buf = ArrayBuffer(F32, 16, data=data)
        mf = self._mf()
        idx = VReg.fresh(GPR, I32)
        rt = VReg.fresh(GPR)
        v1 = VReg.fresh(VEC)
        v2 = VReg.fresh(VEC)
        out = VReg.fresh(VEC)
        red = VReg.fresh(GPR, F32)
        mf.arrays.append(__import__("repro.machine.mir", fromlist=["ArraySlot"]).ArraySlot("a", F32))
        mf.emit("const", idx, value=3 * 4, type=I32)  # byte offset of a[3]
        mf.emit("lvsr", rt, [idx], array="a")
        mf.emit("vload_fa", v1, [idx], array="a", elem=F32, lanes=4)
        idx2 = VReg.fresh(GPR, I32)
        mf.emit("const", idx2, value=3 * 4 + 16, type=I32)
        mf.emit("vload_fa", v2, [idx2], array="a", elem=F32, lanes=4)
        mf.emit("vperm", out, [v1, v2, rt])
        mf.emit("vreduce", red, [out], kind="plus")
        mf.emit("ret", srcs=[red])
        res = self._exec(mf, {"a": buf}, target=ALTIVEC)
        assert float(res.value) == float(data[3:7].sum())

    def test_vload_a_traps_on_misaligned(self):
        buf = ArrayBuffer(F32, 16)
        mf = self._mf()
        from repro.machine.mir import ArraySlot

        mf.arrays.append(ArraySlot("a", F32))
        idx = VReg.fresh(GPR, I32)
        v = VReg.fresh(VEC)
        mf.emit("const", idx, value=4, type=I32)
        mf.emit("vload_a", v, [idx], array="a", elem=F32, lanes=4)
        mf.emit("ret")
        with pytest.raises(VMError):
            self._exec(mf, {"a": buf})

    def test_vstore_a_traps_on_misaligned(self):
        buf = ArrayBuffer(F32, 16)
        mf = self._mf()
        from repro.machine.mir import ArraySlot

        mf.arrays.append(ArraySlot("a", F32))
        idx = VReg.fresh(GPR, I32)
        s = VReg.fresh(GPR, F32)
        v = VReg.fresh(VEC)
        mf.emit("const", idx, value=8, type=I32)
        mf.emit("const", s, value=1.0, type=F32)
        mf.emit("vsplat", v, [s], elem=F32, lanes=4)
        mf.emit("vstore_a", srcs=[idx, v], array="a")
        mf.emit("ret")
        with pytest.raises(VMError):
            self._exec(mf, {"a": buf})

    @given(st.lists(st.integers(-100, 100), min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_vwidenmul_halves(self, vals):
        a = np.array(vals, np.int8)
        mf = self._mf()
        from repro.machine.mir import ArraySlot

        mf.arrays.append(ArraySlot("a", I8))
        idx = VReg.fresh(GPR, I32)
        v = VReg.fresh(VEC)
        lo = VReg.fresh(VEC)
        hi = VReg.fresh(VEC)
        slo = VReg.fresh(GPR, I16)
        shi = VReg.fresh(GPR, I16)
        out = VReg.fresh(GPR, I16)
        mf.emit("const", idx, value=0, type=I32)
        mf.emit("vload_u", v, [idx], array="a", elem=I8, lanes=8)
        mf.emit("vwidenmul", lo, [v, v], elem=I16, lanes=4, half="lo")
        mf.emit("vwidenmul", hi, [v, v], elem=I16, lanes=4, half="hi")
        mf.emit("vreduce", slo, [lo], kind="plus")
        mf.emit("vreduce", shi, [hi], kind="plus")
        mf.emit("add", out, [slo, shi], type=I16)
        mf.emit("ret", srcs=[out])
        buf = ArrayBuffer(I8, 8, data=a)
        res = self._exec(mf, {"a": buf})
        expect = int(np.int16((a.astype(np.int16) ** 2).sum()))
        assert int(res.value) == expect

    def test_vextract_and_vinterleave_inverse(self):
        data = np.arange(8, dtype=np.float32)
        mf = self._mf()
        from repro.machine.mir import ArraySlot

        mf.arrays.append(ArraySlot("a", F32))
        mf.arrays.append(ArraySlot("out", F32))
        z = VReg.fresh(GPR, I32)
        w1 = VReg.fresh(VEC)
        w2 = VReg.fresh(VEC)
        even = VReg.fresh(VEC)
        odd = VReg.fresh(VEC)
        lo = VReg.fresh(VEC)
        hi = VReg.fresh(VEC)
        mf.emit("const", z, value=0, type=I32)
        mf.emit("vload_u", w1, [z], array="a", elem=F32, lanes=4)
        z2 = VReg.fresh(GPR, I32)
        mf.emit("const", z2, value=16, type=I32)
        mf.emit("vload_u", w2, [z2], array="a", elem=F32, lanes=4)
        mf.emit("vextract", even, [w1, w2], elem=F32, lanes=4, stride=2, offset=0)
        mf.emit("vextract", odd, [w1, w2], elem=F32, lanes=4, stride=2, offset=1)
        mf.emit("vinterleave", lo, [even, odd], elem=F32, lanes=4, half="lo")
        mf.emit("vinterleave", hi, [even, odd], elem=F32, lanes=4, half="hi")
        mf.emit("vstore_u", srcs=[z, lo], array="out")
        mf.emit("vstore_u", srcs=[z2, hi], array="out")
        mf.emit("ret")
        bufs = {"a": ArrayBuffer(F32, 8, data=data), "out": ArrayBuffer(F32, 8)}
        self._exec(mf, bufs)
        assert np.array_equal(bufs["out"].read_elements(), data)

    def test_vdot_pairwise(self):
        a = np.array([1, 2, 3, 4, 5, 6, 7, 8], np.int16)
        mf = self._mf()
        from repro.machine.mir import ArraySlot

        mf.arrays.append(ArraySlot("a", I16))
        z = VReg.fresh(GPR, I32)
        v = VReg.fresh(VEC)
        acc = VReg.fresh(VEC)
        zero = VReg.fresh(GPR, I32)
        out = VReg.fresh(GPR, I32)
        mf.emit("const", z, value=0, type=I32)
        mf.emit("const", zero, value=0, type=I32)
        mf.emit("vload_u", v, [z], array="a", elem=I16, lanes=8)
        mf.emit("vsplat", acc, [zero], elem=I32, lanes=4)
        mf.emit("vdot", acc, [v, v, acc], elem=I32, lanes=4)
        mf.emit("vreduce", out, [acc], kind="plus")
        mf.emit("ret", srcs=[out])
        res = self._exec(mf, {"a": ArrayBuffer(I16, 8, data=a)})
        assert int(res.value) == int((a.astype(np.int32) ** 2).sum())

    def test_call_lib_same_semantics(self):
        mf = self._mf()
        s = VReg.fresh(GPR, I8)
        v = VReg.fresh(VEC)
        lo = VReg.fresh(VEC)
        out = VReg.fresh(GPR, I16)
        mf.emit("const", s, value=3, type=I8)
        mf.emit("vsplat", v, [s], elem=I8, lanes=8)
        mf.emit("call_lib", lo, [v, v], sem="vwidenmul", elem=I16, lanes=4,
                half="lo")
        mf.emit("vreduce", out, [lo], kind="plus")
        mf.emit("ret", srcs=[out])
        res = self._exec(mf, target=NEON)
        assert int(res.value) == 4 * 9
        # The library call is priced like a call, not like the idiom.
        assert res.cycles >= NEON.cost.get("call_lib")


class TestRegalloc:
    def _kernel(self):
        return compile_source(
            "float f(int n, float a[], float b[], float c[], float d[]) {"
            " float s = 0;"
            " for (int i = 0; i < n; i++) {"
            "   s += a[i] * b[i] + c[i] * d[i];"
            " } return s; }"
        )["f"]

    def _run(self, mf, n=40):
        rng = np.random.default_rng(0)
        arrays = {
            k: rng.standard_normal(n).astype(np.float32)
            for k in "abcd"
        }
        bufs = {k: ArrayBuffer(F32, n, data=v) for k, v in arrays.items()}
        res = VM(SSE).run(mf, {"n": n}, bufs)
        expect = (
            arrays["a"] * arrays["b"] + arrays["c"] * arrays["d"]
        ).sum()
        assert float(res.value) == pytest.approx(float(expect), rel=1e-4)
        return res

    def test_local_alloc_preserves_semantics(self):
        mf = flatten(self._kernel(), FlattenOptions(rematerialize_consts=True))
        allocate_local(mf, SSE)
        self._run(mf)

    def test_local_alloc_spills_under_pressure(self):
        # Six live accumulators exceed x86's pinnable FPR budget; Mono's
        # local allocator must go to memory for the rest.
        src = (
            "float g(int n, float a[]) {"
            + "".join(f" float s{k} = 0;" for k in range(6))
            + " for (int i = 0; i < n; i++) {"
            + "".join(f" s{k} += a[i] * {float(k + 1)};" for k in range(6))
            + " } return s0 + s1 + s2 + s3 + s4 + s5; }"
        )
        fn = compile_source(src)["g"]
        mf = flatten(fn, FlattenOptions(rematerialize_consts=True))
        stats = allocate_local(mf, SSE)
        assert stats.spilled_values > 0
        n = 32
        data = np.ones(n, np.float32)
        bufs = {"a": ArrayBuffer(F32, n, data=data)}
        res = VM(SSE).run(mf, {"n": n}, bufs)
        assert float(res.value) == pytest.approx(n * (1 + 2 + 3 + 4 + 5 + 6))

    def test_local_alloc_spills_less_on_ppc(self):
        mf_x86 = flatten(self._kernel(), FlattenOptions())
        s_x86 = allocate_local(mf_x86, SSE)
        mf_ppc = flatten(self._kernel(), FlattenOptions())
        s_ppc = allocate_local(mf_ppc, ALTIVEC)
        assert s_ppc.spilled_values <= s_x86.spilled_values

    def test_linear_scan_no_spills_under_pressure_limit(self):
        mf = flatten(self._kernel(), FlattenOptions())
        stats = allocate_linear_scan(mf, ALTIVEC)
        assert stats.spilled_values == 0
        self._run(mf)

    def test_linear_scan_preserves_semantics_when_spilling(self):
        from dataclasses import replace

        tiny = replace(SSE, gpr_count=3, fpr_count=2)
        mf = flatten(self._kernel(), FlattenOptions())
        stats = allocate_linear_scan(mf, tiny)
        assert stats.spilled_values > 0
        self._run(mf)


class TestIACA:
    def test_throughput_of_vector_loop(self, runner):
        from repro.jit import NativeBackend
        from repro.kernels import get_kernel

        inst = get_kernel("saxpy_fp").instantiate()
        ck = NativeBackend().compile(runner.native_ir(inst, AVX), AVX)
        report = analyze_loop_throughput(ck.mfunc, AVX)
        assert report.vector_uops >= 3  # 2 loads + mul + add + store
        assert 1 <= report.rounded() <= 6

    def test_no_loops(self):
        mf = MFunction("empty")
        mf.emit("ret")
        assert analyze_loop_throughput(mf, AVX).cycles_per_iter == 0.0


class TestFlattenOptions:
    def test_scaled_addressing_reduces_instructions(self):
        fn = compile_source(
            "void f(int n, float a[]) {"
            " for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; } }"
        )["f"]
        lean = flatten(fn, FlattenOptions(scaled_addressing=True))
        fat = flatten(fn, FlattenOptions(scaled_addressing=False))
        assert len(lean.instrs) < len(fat.instrs)

    def test_remat_consts_increases_instructions(self):
        fn = compile_source(
            "void f(int n, float a[]) {"
            " for (int i = 0; i < n; i++) { a[i] = a[i] * 3.0 + 3.0; } }"
        )["f"]
        cached = flatten(fn, FlattenOptions())
        remat = flatten(fn, FlattenOptions(rematerialize_consts=True))
        n = 16
        data = np.ones(n, np.float32)
        for mf in (cached, remat):
            bufs = {"a": ArrayBuffer(F32, n, data=data)}
            VM(SSE).run(mf, {"n": n}, bufs)
            assert np.allclose(bufs["a"].read_elements(), 6.0)
        r_cached = VM(SSE).run(
            cached, {"n": n}, {"a": ArrayBuffer(F32, n, data=data)}
        )
        r_remat = VM(SSE).run(
            remat, {"n": n}, {"a": ArrayBuffer(F32, n, data=data)}
        )
        assert r_remat.instructions > r_cached.instructions
