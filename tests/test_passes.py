"""Tests for the optimization passes, including hypothesis checks that
constant folding matches the VM's wrap-around semantics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import compile_source
from repro.ir import (
    I8,
    I16,
    I32,
    BinOp,
    Const,
    ForLoop,
    If,
    Load,
    verify_function,
    walk,
)
from repro.passes import (
    eliminate_dead_code,
    eval_binop,
    fold_constants,
    hoist_invariants,
    optimize,
    simplify,
)


def _compile(src, name="f"):
    return compile_source(src)[name]


class TestConstFold:
    def test_folds_arithmetic(self):
        fn = _compile("int f() { return (3 + 4) * 2 - 1; }")
        fold_constants(fn)
        ret = fn.body.terminator
        assert isinstance(ret.value, Const) and ret.value.value == 13

    def test_folds_through_chains(self):
        fn = _compile("int f() { int a = 5; int b = a * 3; return b + a; }")
        fold_constants(fn)
        assert fn.body.terminator.value.value == 20

    def test_division_by_zero_not_folded(self):
        fn = _compile("int f(int x) { return x / (1 - 1); }")
        fold_constants(fn)  # must not raise
        assert any(
            isinstance(i, BinOp) and i.op == "div" for i in walk(fn.body)
        )

    def test_comparison_folds(self):
        fn = _compile("int f() { return 3 < 4 ? 10 : 20; }")
        fold_constants(fn)
        assert fn.body.terminator.value.value == 10

    @given(
        st.sampled_from(["add", "sub", "mul", "min", "max", "and", "or", "xor"]),
        st.integers(-(2**31), 2**31 - 1),
        st.integers(-(2**31), 2**31 - 1),
    )
    @settings(max_examples=200)
    def test_eval_binop_matches_numpy_i32(self, op, a, b):
        got = eval_binop(op, a, b, I32)
        x = np.int32(a)
        y = np.int32(b)
        with np.errstate(over="ignore"):
            ref = {
                "add": x + y, "sub": x - y, "mul": x * y,
                "min": min(x, y), "max": max(x, y),
                "and": x & y, "or": x | y, "xor": x ^ y,
            }[op]
        assert got == int(ref)

    @given(st.integers(-128, 127), st.integers(-128, 127))
    def test_eval_binop_i8_wraps(self, a, b):
        got = eval_binop("mul", a, b, I8)
        with np.errstate(over="ignore"):
            expect = int(np.int8(np.int8(a) * np.int8(b)))
        assert got == expect
        assert -128 <= got <= 127

    @given(st.integers(-(2**15), 2**15 - 1), st.integers(1, 15))
    def test_shifts_mask_amount(self, a, sh):
        got = eval_binop("shl", a, sh, I16)
        assert got == int(np.int16(np.int16(a) << sh))

    def test_c_division_truncates_toward_zero(self):
        assert eval_binop("div", -7, 2, I32) == -3
        assert eval_binop("div", 7, -2, I32) == -3
        assert eval_binop("mod", -7, 2, I32) == -1


class TestSimplify:
    def test_add_zero(self):
        fn = _compile("float f(float x) { return x + 0.0; }")
        simplify(fn)
        assert not any(isinstance(i, BinOp) for i in walk(fn.body))

    def test_mul_one(self):
        fn = _compile("float f(float x) { return x * 1.0; }")
        simplify(fn)
        assert not any(isinstance(i, BinOp) for i in walk(fn.body))

    def test_int_mul_zero(self):
        fn = _compile("int f(int x) { return x * 0; }")
        simplify(fn)
        assert fn.body.terminator.value.value == 0

    def test_float_mul_zero_not_folded(self):
        # 0.0 * inf != 0.0; float multiply by zero must survive.
        fn = _compile("float f(float x) { return x * 0.0; }")
        simplify(fn)
        assert any(isinstance(i, BinOp) for i in walk(fn.body))

    def test_sub_self_int(self):
        fn = _compile("int f(int x) { return x - x; }")
        simplify(fn)
        assert fn.body.terminator.value.value == 0

    def test_collapse_constant_if(self):
        fn = _compile(
            "int f(int x) { int s = 0; if (1 < 2) { s = x; } else { s = 7; }"
            " return s; }"
        )
        fold_constants(fn)
        simplify(fn)
        assert not any(isinstance(i, If) for i in walk(fn.body))
        verify_function(fn)

    def test_zero_trip_loop_removed(self):
        fn = _compile(
            "int f(int n) { int s = 5; for (int i = n; i < n; i++) { s = 0; }"
            " return s; }"
        )
        # Make bounds literally the same Value so the rule can fire.
        loop = next(i for i in walk(fn.body) if isinstance(i, ForLoop))
        loop._operands[1] = loop._operands[0]
        simplify(fn)
        eliminate_dead_code(fn)
        assert not any(isinstance(i, ForLoop) for i in walk(fn.body))
        assert fn.body.terminator.value.value == 5


class TestDCE:
    def test_removes_unused_pure(self):
        fn = _compile("int f(int x) { int dead = x * 17; return x; }")
        eliminate_dead_code(fn)
        assert not any(isinstance(i, BinOp) for i in walk(fn.body))

    def test_keeps_stores(self):
        fn = _compile("void f(float a[]) { a[0] = 1.0; }")
        eliminate_dead_code(fn)
        assert len(fn.body.instrs) >= 2  # store + return

    def test_removes_effect_free_loop(self):
        fn = _compile(
            "int f(int n) { int s = 0;"
            " for (int i = 0; i < n; i++) { int t = i * 2; }"
            " return s; }"
        )
        optimize(fn, 2)
        assert not any(isinstance(i, ForLoop) for i in walk(fn.body))

    def test_prunes_dead_carried_value(self):
        fn = _compile(
            "float f(int n, float a[]) { float live = 0; float dead = 0;"
            " for (int i = 0; i < n; i++) { live += a[i]; dead += a[i]; }"
            " return live; }"
        )
        eliminate_dead_code(fn)
        loop = next(i for i in walk(fn.body) if isinstance(i, ForLoop))
        assert len(loop.carried) == 1
        verify_function(fn)

    def test_keeps_loop_with_used_result(self):
        fn = _compile(
            "float f(int n, float a[]) { float s = 0;"
            " for (int i = 0; i < n; i++) { s += a[i]; } return s; }"
        )
        eliminate_dead_code(fn)
        assert any(isinstance(i, ForLoop) for i in walk(fn.body))


class TestLICM:
    def test_hoists_invariant(self):
        fn = _compile(
            "void f(int n, float x, float a[]) {"
            " for (int i = 0; i < n; i++) { a[i] = x * x + a[i]; } }"
        )
        moved = hoist_invariants(fn)
        assert moved >= 1
        loop = next(i for i in walk(fn.body) if isinstance(i, ForLoop))
        body_ops = [i for i in loop.body.instrs if isinstance(i, BinOp)]
        # x*x is gone from the body; only the i-dependent add remains.
        assert all(
            any(op is loop.iv or not isinstance(op, Const) for op in i.operands)
            for i in body_ops
        )
        verify_function(fn)

    def test_does_not_hoist_variant(self):
        fn = _compile(
            "void f(int n, float a[]) {"
            " for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; } }"
        )
        loop = next(i for i in walk(fn.body) if isinstance(i, ForLoop))
        before = len(loop.body.instrs)
        hoist_invariants(fn)
        assert any(isinstance(i, Load) for i in loop.body.instrs)
        assert len(loop.body.instrs) == before

    def test_optimize_pipeline_preserves_semantics(self):
        fn = _compile(
            "float f(int n, float a[]) { float s = 0;"
            " for (int i = 0; i < n; i++) { s += a[i] * (2.0 * 3.0); }"
            " return s; }"
        )
        optimize(fn, 2)
        verify_function(fn)
        # 2*3 folded to one constant.
        consts = [
            i for i in walk(fn.body)
            if isinstance(i, BinOp) and i.op == "mul"
        ]
        assert len(consts) == 1
