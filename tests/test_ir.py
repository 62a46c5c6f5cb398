"""Tests for the IR core: builder, structure, verifier, printer, cloning."""

import pytest

from repro.ir import (
    BOOL,
    F32,
    I32,
    Argument,
    ArrayRef,
    BinOp,
    Cmp,
    Const,
    ForLoop,
    Function,
    IRBuilder,
    Load,
    Return,
    Store,
    UnOp,
    VerificationError,
    Yield,
    clone_function,
    clone_instr,
    print_function,
    uses_in,
    verify_function,
    walk,
    walk_blocks,
)


def sum_function() -> Function:
    n = Argument("n", I32)
    a = ArrayRef("a", F32, (n,))
    fn = Function("sum", [n], [a], F32)
    b = IRBuilder(fn.body)
    loop = b.for_loop(b.const(0), n, 1, [b.const(0.0, F32)], iv_name="i")
    b.push(loop.body)
    x = b.load(a, [loop.iv])
    s = b.add(loop.carried[0], x)
    b.pop()
    b.end_loop(loop, [s])
    b.ret(loop.results[0])
    return fn


class TestBuilder:
    def test_sum_function_verifies(self):
        verify_function(sum_function())

    def test_binop_type_inference(self):
        a = Const(1, I32)
        assert BinOp("add", a, a).type is I32

    def test_unknown_binop_rejected(self):
        with pytest.raises(ValueError):
            BinOp("plus", Const(1, I32), Const(1, I32))

    def test_unknown_unop_rejected(self):
        with pytest.raises(ValueError):
            UnOp("negate", Const(1, I32))

    def test_cmp_produces_bool(self):
        assert Cmp("lt", Const(1, I32), Const(2, I32)).type is BOOL

    def test_load_rank_check(self):
        a = ArrayRef("a", F32, (8, 8))
        with pytest.raises(ValueError):
            Load(a, [Const(0, I32)])

    def test_store_rank_check(self):
        a = ArrayRef("a", F32, (8,))
        with pytest.raises(ValueError):
            Store(a, [Const(0, I32), Const(0, I32)], Const(0.0, F32))

    def test_symbolic_inner_extent_rejected(self):
        n = Argument("n", I32)
        with pytest.raises(ValueError):
            ArrayRef("a", F32, (4, n))

    def test_end_loop_arity_check(self):
        fn = sum_function()
        b = IRBuilder(fn.body)
        loop = b.for_loop(b.const(0), b.const(4), 1, [])
        with pytest.raises(ValueError):
            b.end_loop(loop, [Const(0, I32)])


class TestStructure:
    def test_loop_carried_blockargs(self):
        fn = sum_function()
        loop = next(i for i in walk(fn.body) if isinstance(i, ForLoop))
        assert loop.iv.index == 0
        assert loop.carried[0].type is F32
        assert loop.results[0].type is F32

    def test_walk_counts(self):
        fn = sum_function()
        kinds = [type(i).__name__ for i in walk(fn.body)]
        assert kinds.count("ForLoop") == 1
        assert kinds.count("Load") == 1
        assert kinds.count("Yield") == 1
        assert kinds.count("Return") == 1

    def test_walk_blocks(self):
        fn = sum_function()
        assert len(list(walk_blocks(fn.body))) == 2

    def test_uses_in(self):
        fn = sum_function()
        loop = next(i for i in walk(fn.body) if isinstance(i, ForLoop))
        uses = uses_in(fn.body)
        assert loop.iv in uses  # used by the load

    def test_terminator(self):
        fn = sum_function()
        loop = next(i for i in walk(fn.body) if isinstance(i, ForLoop))
        assert isinstance(loop.body.terminator, Yield)
        assert isinstance(fn.body.terminator, Return)


class TestClone:
    def test_clone_loop_is_deep(self):
        fn = sum_function()
        loop = next(i for i in walk(fn.body) if isinstance(i, ForLoop))
        vmap = {}
        copy = clone_instr(loop, vmap)
        assert copy is not loop
        assert copy.body is not loop.body
        assert copy.iv is not loop.iv
        assert len(copy.body.instrs) == len(loop.body.instrs)
        # Uses inside the clone reference the clone's block args.
        load = next(i for i in walk(copy.body) if isinstance(i, Load))
        assert load.indices[0] is copy.iv

    def test_clone_remaps_results(self):
        fn = sum_function()
        loop = next(i for i in walk(fn.body) if isinstance(i, ForLoop))
        vmap = {}
        copy = clone_instr(loop, vmap)
        assert vmap[loop.results[0]] is copy.results[0]

    def test_clone_function_independent(self):
        fn = sum_function()
        copy = clone_function(fn)
        verify_function(copy)
        copy.body.instrs.clear()
        assert fn.body.instrs  # original untouched


class TestVerifier:
    def test_use_before_def(self):
        n = Argument("n", I32)
        fn = Function("bad", [n], [], None)
        b = IRBuilder(fn.body)
        dangling = BinOp("add", n, n)  # never emitted
        b.emit(BinOp("add", dangling, n))
        b.ret(None)
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_inner_value_escapes_loop(self):
        n = Argument("n", I32)
        fn = Function("bad", [n], [], I32)
        b = IRBuilder(fn.body)
        loop = b.for_loop(b.const(0), n, 1, [])
        b.push(loop.body)
        inner = b.add(loop.iv, b.const(1))
        b.pop()
        b.end_loop(loop, [])
        b.ret(inner)  # not visible outside the loop
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_missing_yield(self):
        n = Argument("n", I32)
        fn = Function("bad", [n], [], None)
        b = IRBuilder(fn.body)
        b.for_loop(b.const(0), n, 1, [])  # body left without yield
        b.ret(None)
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_yield_type_mismatch(self):
        n = Argument("n", I32)
        fn = Function("bad", [n], [], None)
        b = IRBuilder(fn.body)
        loop = b.for_loop(b.const(0), n, 1, [Const(0, I32)])
        loop.body.append(Yield([Const(0.0, F32)]))
        b.ret(None)
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_operand_type_mismatch(self):
        fn = Function("bad", [], [], None)
        b = IRBuilder(fn.body)
        bad = BinOp("add", Const(1, I32), Const(1, I32))
        bad._operands[1] = Const(1.0, F32)
        b.emit(bad)
        b.ret(None)
        with pytest.raises(VerificationError):
            verify_function(fn)

    def test_missing_return(self):
        fn = Function("bad", [], [], I32)
        with pytest.raises(VerificationError):
            verify_function(fn)


class TestPrinter:
    def test_prints_signature_and_loop(self):
        text = print_function(sum_function())
        assert "func sum(" in text
        assert "for " in text
        assert "reduc" not in text  # scalar form
        assert "return" in text

    def test_stable_under_clone(self):
        fn = sum_function()
        a = print_function(fn)
        b = print_function(clone_function(fn))
        # Same shape (names may renumber identically from fresh namers).
        assert len(a.splitlines()) == len(b.splitlines())
