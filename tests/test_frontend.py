"""Tests for the VaporC frontend: lexer, parser, sema, lowering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import (
    LexError,
    ParseError,
    SemaError,
    compile_source,
    parse,
    tokenize,
)
from repro.frontend.ast_nodes import (
    AssignStmt,
    BinExpr,
    CastExpr,
    ForStmt,
    IfStmt,
    NumLit,
    TernaryExpr,
)
from repro.ir import (
    BOOL,
    F32,
    F64,
    I16,
    Cmp,
    Convert,
    ForLoop,
    If,
    Load,
    Select,
    Store,
    verify_function,
    walk,
)


class TestLexer:
    def test_keywords_and_idents(self):
        toks = tokenize("int foo for forx")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("kw", "int"),
            ("ident", "foo"),
            ("kw", "for"),
            ("ident", "forx"),
        ]

    def test_numbers(self):
        toks = tokenize("42 3.5 1e3 2.5e-2 7f")
        kinds = [(t.kind, t.text) for t in toks[:-1]]
        assert kinds == [
            ("int", "42"),
            ("float", "3.5"),
            ("float", "1e3"),
            ("float", "2.5e-2"),
            ("float", "7"),
        ]

    def test_multichar_punct_longest_match(self):
        toks = tokenize("a <<= b >= c << d < e")
        texts = [t.text for t in toks if t.kind == "punct"]
        assert texts == ["<<=", ">=", "<<", "<"]

    def test_line_comment(self):
        toks = tokenize("a // comment with * tokens\nb")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_block_comment(self):
        toks = tokenize("a /* multi\nline */ b")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* oops")

    def test_unknown_char(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert toks[0].line == 1 and toks[0].col == 1
        assert toks[1].line == 2 and toks[1].col == 3

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_int_literal_roundtrip(self, n):
        toks = tokenize(str(n))
        assert toks[0].kind == "int" and int(toks[0].text) == n

    @given(st.floats(min_value=0, max_value=1e18, allow_nan=False))
    @settings(max_examples=50)
    def test_float_literal_roundtrip(self, x):
        text = repr(float(x))
        toks = tokenize(text)
        assert toks[0].kind in ("float", "int")
        assert float(toks[0].text) == pytest.approx(float(x))


_SIMPLE = """
void f(int n, float a[]) {
    for (int i = 0; i < n; i++) {
        a[i] = a[i] * 2.0;
    }
}
"""


class TestParser:
    def test_function_shape(self):
        prog = parse(_SIMPLE)
        assert len(prog.functions) == 1
        fn = prog.functions[0]
        assert fn.name == "f"
        assert fn.return_type == "void"
        assert len(fn.params) == 2

    def test_for_normalization_lt(self):
        prog = parse(_SIMPLE)
        loop = prog.functions[0].body.stmts[0]
        assert isinstance(loop, ForStmt)
        assert loop.iv == "i" and loop.step == 1 and not loop.inclusive

    def test_for_le_and_step(self):
        prog = parse(
            "void f(int n) { int s = 0; for (int i = 0; i <= n; i += 2) { s = s + i; } }"
        )
        loop = prog.functions[0].body.stmts[1]
        assert loop.inclusive and loop.step == 2

    def test_for_i_eq_i_plus_c(self):
        prog = parse(
            "void f(int n) { int s = 0; for (int i = 0; i < n; i = i + 4) { s = s + i; } }"
        )
        assert prog.functions[0].body.stmts[1].step == 4

    def test_precedence_mul_over_add(self):
        prog = parse("int f(int a, int b, int c) { return a + b * c; }")
        ret = prog.functions[0].body.stmts[0]
        assert isinstance(ret.value, BinExpr) and ret.value.op == "+"
        assert isinstance(ret.value.rhs, BinExpr) and ret.value.rhs.op == "*"

    def test_precedence_shift_vs_add(self):
        prog = parse("int f(int a) { return a + 1 >> 2; }")
        ret = prog.functions[0].body.stmts[0]
        assert ret.value.op == ">>"
        assert ret.value.lhs.op == "+"

    def test_ternary(self):
        prog = parse("int f(int a) { return a > 0 ? a : -a; }")
        assert isinstance(prog.functions[0].body.stmts[0].value, TernaryExpr)

    def test_cast(self):
        prog = parse("int f(float x) { return (int)x; }")
        assert isinstance(prog.functions[0].body.stmts[0].value, CastExpr)

    def test_multidim_subscript(self):
        prog = parse(
            "void f(float A[4][8]) { A[1][2] = 0.0; }"
        )
        stmt = prog.functions[0].body.stmts[0]
        assert isinstance(stmt, AssignStmt)
        assert len(stmt.target.indices) == 2

    def test_compound_assign_desugars_in_sema(self):
        prog = parse("void f(int n) { int s = 0; s += n; }")
        assert prog.functions[0].body.stmts[1].op == "+"

    def test_increment_statement(self):
        prog = parse("void f() { int s = 0; s++; }")
        stmt = prog.functions[0].body.stmts[1]
        assert stmt.op == "+" and isinstance(stmt.value, NumLit)

    def test_if_else(self):
        prog = parse("void f(int a) { int s = 0; if (a > 0) s = 1; else s = 2; }")
        assert isinstance(prog.functions[0].body.stmts[1], IfStmt)

    def test_may_alias(self):
        prog = parse("void f(__may_alias char a[]) { a[0] = a[0]; }")
        assert prog.functions[0].params[0].may_alias

    def test_error_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("void f() { int x = 1 }")

    def test_error_bad_loop_condition(self):
        with pytest.raises(ParseError):
            parse("void f(int n) { for (int i = 0; n > i; i++) {} }")

    def test_error_bad_loop_step(self):
        with pytest.raises(ParseError):
            parse("void f(int n) { for (int i = 0; i < n; i--) {} }")


class TestSema:
    def test_undeclared_identifier(self):
        with pytest.raises(SemaError):
            compile_source("void f() { int x = y; }")

    def test_rank_mismatch(self):
        with pytest.raises(SemaError):
            compile_source("void f(float A[4][4]) { A[0] = 0.0; }")

    def test_subscript_of_scalar(self):
        with pytest.raises(SemaError):
            compile_source("void f(int n) { n[0] = 1; }")

    def test_array_without_subscript(self):
        with pytest.raises(SemaError):
            compile_source("int f(float a[]) { return a; }")

    def test_void_return_with_value(self):
        with pytest.raises(SemaError):
            compile_source("void f() { return 1; }")

    def test_nonvoid_return_without_value(self):
        with pytest.raises(SemaError):
            compile_source("int f() { return; }")

    def test_shift_of_float(self):
        with pytest.raises(SemaError):
            compile_source("float f(float x) { return x << 1; }")

    def test_mod_of_float(self):
        with pytest.raises(SemaError):
            compile_source("float f(float x) { return x % 2.0; }")

    def test_duplicate_function(self):
        with pytest.raises(SemaError):
            compile_source("void f() {} void f() {}")

    def test_redeclaration(self):
        with pytest.raises(SemaError):
            compile_source("void f() { int x = 1; int x = 2; }")

    def test_flexible_float_literal_adopts_f32(self):
        fn = compile_source("float f(float x) { return x * 2.0; }")["f"]
        muls = [i for i in walk(fn.body) if getattr(i, "op", "") == "mul"]
        assert muls[0].type is F32

    def test_flexible_literal_adopts_f64(self):
        fn = compile_source("double f(double x) { return x * 2.0; }")["f"]
        muls = [i for i in walk(fn.body) if getattr(i, "op", "") == "mul"]
        assert muls[0].type is F64

    def test_int_float_mix_promotes(self):
        fn = compile_source("float f(int a, float x) { return a + x; }")["f"]
        adds = [i for i in walk(fn.body) if getattr(i, "op", "") == "add"]
        assert adds[0].type is F32
        converts = [i for i in walk(fn.body) if isinstance(i, Convert)]
        assert any(c.to is F32 for c in converts)

    def test_small_int_arithmetic_stays_narrow(self):
        fn = compile_source("short f(short a, short b) { return (short)(a + b); }")["f"]
        adds = [i for i in walk(fn.body) if getattr(i, "op", "") == "add"]
        assert adds[0].type is I16

    def test_loop_var_must_be_int(self):
        with pytest.raises(SemaError):
            compile_source("void f(float n) { for (float i = 0; i < n; i++) {} }")

    def test_inner_dim_must_be_const(self):
        with pytest.raises(SemaError):
            compile_source("void f(int n, float A[4][n]) { A[0][0] = 1.0; }")


class TestLowering:
    def test_scalar_promotion_reduction(self):
        fn = compile_source(
            "float f(int n, float a[]) { float s = 0;"
            " for (int i = 0; i < n; i++) { s += a[i]; } return s; }"
        )["f"]
        verify_function(fn)
        loops = [i for i in walk(fn.body) if isinstance(i, ForLoop)]
        assert len(loops) == 1
        assert len(loops[0].carried) == 1

    def test_if_with_assignment_yields(self):
        fn = compile_source(
            "int f(int n, int a[]) { int best = 0;"
            " for (int i = 0; i < n; i++) { if (a[i] > best) { best = a[i]; } }"
            " return best; }"
        )["f"]
        verify_function(fn)
        ifs = [i for i in walk(fn.body) if isinstance(i, If)]
        assert len(ifs) == 1 and len(ifs[0].results) == 1

    def test_ternary_becomes_select(self):
        fn = compile_source("int f(int a, int b) { return a > b ? a : b; }")["f"]
        assert any(isinstance(i, Select) for i in walk(fn.body))

    def test_builtin_min_max_abs(self):
        fn = compile_source(
            "int f(int a, int b) { return min(a, b) + max(a, b) + abs(a); }"
        )["f"]
        ops = {getattr(i, "op", None) for i in walk(fn.body)}
        assert {"min", "max", "abs"} <= ops

    def test_iv_read_after_loop_rejected(self):
        with pytest.raises(SemaError):
            compile_source(
                "int f(int n) { int i = 0; int s = 0;"
                " for (i = 0; i < n; i++) { s += i; } return i; }"
            )

    def test_nested_loop_carried_threading(self):
        fn = compile_source(
            "float f(float A[4][4]) { float s = 0;"
            " for (int i = 0; i < 4; i++)"
            "   for (int j = 0; j < 4; j++) { s += A[i][j]; }"
            " return s; }"
        )["f"]
        verify_function(fn)
        loops = [i for i in walk(fn.body) if isinstance(i, ForLoop)]
        assert all(len(l.carried) == 1 for l in loops)

    def test_stores_and_loads_emitted(self):
        fn = compile_source(_SIMPLE)["f"]
        assert any(isinstance(i, Store) for i in walk(fn.body))
        assert any(isinstance(i, Load) for i in walk(fn.body))

    def test_symbolic_array_extent(self):
        fn = compile_source("void f(int n, float a[n]) { a[0] = 1.0; }")["f"]
        arr = fn.array_params[0]
        assert arr.shape[0] is fn.scalar_params[0]

    def test_bool_condition_type(self):
        fn = compile_source("int f(int a) { return a > 3 ? 1 : 0; }")["f"]
        cmps = [i for i in walk(fn.body) if isinstance(i, Cmp)]
        assert cmps and cmps[0].type is BOOL
