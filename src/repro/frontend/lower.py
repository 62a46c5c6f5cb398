"""AST → IR lowering.

The one non-mechanical job here is *scalar promotion*: mutable local scalars
(reduction accumulators, running maxima, ...) become loop/if iteration
arguments, giving the vectorizer clean SSA def-use chains — the paper lists
scalar promotion among the normalizations applied before vectorization.
"""

from __future__ import annotations

from ..ir import (
    Argument,
    ArrayRef,
    Const,
    Function,
    IRBuilder,
    Module,
    UnOp,
    Yield,
)
from ..ir.types import I32, scalar_type_from_name
from .ast_nodes import (
    ArrayParam,
    AssignStmt,
    BinExpr,
    BlockStmt,
    CallExpr,
    CastExpr,
    DeclStmt,
    Expr,
    ForStmt,
    FuncDef,
    IfStmt,
    IndexExpr,
    NumLit,
    Program,
    ReturnStmt,
    ScalarParam,
    TernaryExpr,
    UnExpr,
    VarExpr,
)
from .sema import SemaError

__all__ = ["lower_program", "lower_function"]

_BIN_OP_MAP = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "shl",
    ">>": "shr",
    "&&": "and",
    "||": "or",
}

_CMP_OP_MAP = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


def _assigned_vars(stmts: list, declared: set[str]) -> set[str]:
    """Scalar names assigned in ``stmts`` that were declared *outside*.

    ``declared`` accumulates names declared within the subtree so they are
    excluded (they are fresh per iteration, not loop-carried).
    """
    assigned: set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, DeclStmt):
            declared.add(stmt.name)
        elif isinstance(stmt, AssignStmt):
            if isinstance(stmt.target, VarExpr) and stmt.target.name not in declared:
                assigned.add(stmt.target.name)
        elif isinstance(stmt, ForStmt):
            inner_declared = set(declared)
            if stmt.iv_decl_type is not None:
                inner_declared.add(stmt.iv)
            else:
                assigned.add(stmt.iv)
            assigned |= _assigned_vars(stmt.body.stmts, inner_declared)
        elif isinstance(stmt, IfStmt):
            assigned |= _assigned_vars(stmt.then_body.stmts, set(declared))
            if stmt.else_body is not None:
                assigned |= _assigned_vars(stmt.else_body.stmts, set(declared))
        elif isinstance(stmt, BlockStmt):
            assigned |= _assigned_vars(stmt.stmts, set(declared))
    return assigned


class _Poisoned:
    """Marks a value that may not be read (loop IV after its loop)."""

    def __init__(self, name: str) -> None:
        self.name = name


class _Lowerer:
    def __init__(self, fn_ast: FuncDef) -> None:
        self.ast = fn_ast
        scalar_params = []
        array_params = []
        self.env: dict[str, object] = {}
        for p in fn_ast.params:
            if isinstance(p, ScalarParam):
                arg = Argument(p.name, scalar_type_from_name(p.type_name))
                scalar_params.append(arg)
                self.env[p.name] = arg
        for p in fn_ast.params:
            if isinstance(p, ArrayParam):
                shape = []
                for k, d in enumerate(p.dims):
                    if isinstance(d, int):
                        shape.append(d)
                    elif isinstance(d, str):
                        extent = self.env.get(d)
                        if not isinstance(extent, Argument):
                            raise SemaError(
                                f"array {p.name}: extent {d!r} is not a "
                                "scalar parameter",
                                p.line,
                            )
                        shape.append(extent)
                    elif d is None:
                        if k != 0:
                            raise SemaError(
                                f"array {p.name}: only the outer dimension "
                                "may be unsized",
                                p.line,
                            )
                        shape.append(0)
                arr = ArrayRef(
                    p.name,
                    scalar_type_from_name(p.elem_type),
                    tuple(shape),
                    may_alias=p.may_alias,
                )
                array_params.append(arr)
                self.env[p.name] = arr
        ret = (
            None
            if fn_ast.return_type == "void"
            else scalar_type_from_name(fn_ast.return_type)
        )
        self.fn = Function(fn_ast.name, scalar_params, array_params, ret)
        self.b = IRBuilder(self.fn.body)

    def run(self) -> Function:
        self.lower_block(self.ast.body)
        if self.fn.return_type is None and not isinstance(
            self.fn.body.terminator, type(None)
        ):
            pass
        if self.fn.body.terminator is None:
            self.b.ret(None)
        return self.fn

    # -- statements ---------------------------------------------------------

    def lower_block(self, blk: BlockStmt) -> None:
        saved = dict(self.env)
        declared_here: set[str] = set()
        for stmt in blk.stmts:
            self.lower_stmt(stmt, declared_here)
        # Names declared in this block go out of scope; outer names keep
        # their (possibly updated) values.
        for name in declared_here:
            if name in saved:
                self.env[name] = saved[name]
            else:
                self.env.pop(name, None)

    def lower_stmt(self, stmt, declared_here: set[str]) -> None:
        if isinstance(stmt, BlockStmt):
            self.lower_block(stmt)
        elif isinstance(stmt, DeclStmt):
            t = scalar_type_from_name(stmt.type_name)
            if stmt.init is not None:
                self.env[stmt.name] = self.expr(stmt.init)
            else:
                self.env[stmt.name] = Const(0, t)
            declared_here.add(stmt.name)
        elif isinstance(stmt, AssignStmt):
            value = self.expr(stmt.value)
            target = stmt.target
            if isinstance(target, VarExpr):
                self.env[target.name] = value
            else:
                assert isinstance(target, IndexExpr)
                arr = self.env[target.name]
                indices = [self.expr(ix) for ix in target.indices]
                self.b.store(arr, indices, value)
        elif isinstance(stmt, ForStmt):
            self.lower_for(stmt)
        elif isinstance(stmt, IfStmt):
            self.lower_if(stmt)
        elif isinstance(stmt, ReturnStmt):
            value = self.expr(stmt.value) if stmt.value is not None else None
            self.b.ret(value)
        else:
            raise SemaError(f"cannot lower {type(stmt).__name__}", stmt.line)

    def lower_for(self, stmt: ForStmt) -> None:
        lower = self.expr(stmt.lower)
        upper = self.expr(stmt.upper)
        if stmt.inclusive:
            upper = self.b.add(upper, Const(1, I32))
        carried_names = sorted(
            n
            for n in _assigned_vars(
                stmt.body.stmts,
                {stmt.iv} if stmt.iv_decl_type is not None else set(),
            )
            if n != stmt.iv
            and n in self.env
            and not isinstance(self.env[n], (ArrayRef, _Poisoned))
        )
        inits = [self.env[n] for n in carried_names]
        loop = self.b.for_loop(lower, upper, stmt.step, inits, iv_name=stmt.iv)
        saved = {n: self.env[n] for n in carried_names}
        saved_iv = self.env.get(stmt.iv)
        self.env[stmt.iv] = loop.iv
        for n, arg in zip(carried_names, loop.carried):
            self.env[n] = arg
        self.b.push(loop.body)
        self.lower_block(stmt.body)
        yields = [self.env[n] for n in carried_names]
        self.b.pop()
        self.b.end_loop(loop, yields)
        for n, res in zip(carried_names, loop.results):
            self.env[n] = res
        # The induction variable's post-loop value is ill-defined for our
        # structured loops; poison it so accidental reads are diagnosed.
        if stmt.iv_decl_type is None and saved_iv is not None:
            self.env[stmt.iv] = _Poisoned(stmt.iv)
        else:
            self.env.pop(stmt.iv, None)
        del saved

    def lower_if(self, stmt: IfStmt) -> None:
        cond = self.expr(stmt.cond)
        assigned = sorted(
            n
            for n in _assigned_vars(
                stmt.then_body.stmts
                + (stmt.else_body.stmts if stmt.else_body else []),
                set(),
            )
            if n in self.env and not isinstance(self.env[n], (ArrayRef, _Poisoned))
        )
        result_types = [self.env[n].type for n in assigned]
        if_op = self.b.if_op(cond, result_types)
        saved = {n: self.env[n] for n in assigned}
        self.b.push(if_op.then_block)
        self.lower_block(stmt.then_body)
        then_vals = [self.env[n] for n in assigned]
        if_op.then_block.append(Yield(then_vals))
        self.b.pop()
        for n, v in saved.items():
            self.env[n] = v
        self.b.push(if_op.else_block)
        if stmt.else_body is not None:
            self.lower_block(stmt.else_body)
        else_vals = [self.env[n] for n in assigned]
        if_op.else_block.append(Yield(else_vals))
        self.b.pop()
        for n, r in zip(assigned, if_op.results):
            self.env[n] = r

    # -- expressions -------------------------------------------------------

    def expr(self, e: Expr):
        if isinstance(e, NumLit):
            return Const(e.value, e.ctype)
        if isinstance(e, VarExpr):
            v = self.env.get(e.name)
            if isinstance(v, _Poisoned):
                raise SemaError(
                    f"loop variable {e.name!r} read after its loop", e.line
                )
            if v is None:
                raise SemaError(f"undefined {e.name!r}", e.line)
            return v
        if isinstance(e, IndexExpr):
            arr = self.env[e.name]
            indices = [self.expr(ix) for ix in e.indices]
            return self.b.load(arr, indices)
        if isinstance(e, BinExpr):
            lhs = self.expr(e.lhs)
            rhs = self.expr(e.rhs)
            if e.op in _CMP_OP_MAP:
                return self.b.cmp(_CMP_OP_MAP[e.op], lhs, rhs)
            return self.b.binop(_BIN_OP_MAP[e.op], lhs, rhs)
        if isinstance(e, UnExpr):
            v = self.expr(e.operand)
            if e.op == "-":
                return self.b.neg(v)
            if e.op == "!":
                return self.b.cmp("eq", v, Const(0, v.type))
            if e.op == "~":
                return self.b.emit(UnOp("not", v))
            raise SemaError(f"unknown unary {e.op!r}", e.line)
        if isinstance(e, TernaryExpr):
            cond = self.expr(e.cond)
            t = self.expr(e.if_true)
            f = self.expr(e.if_false)
            return self.b.select(cond, t, f)
        if isinstance(e, CallExpr):
            args = [self.expr(a) for a in e.args]
            if e.callee in ("abs", "fabs"):
                return self.b.abs(args[0])
            if e.callee == "min":
                return self.b.min(args[0], args[1])
            if e.callee == "max":
                return self.b.max(args[0], args[1])
            if e.callee == "sqrt":
                return self.b.emit(UnOp("sqrt", args[0]))
            raise SemaError(f"unknown call {e.callee!r}", e.line)
        if isinstance(e, CastExpr):
            return self.b.convert(self.expr(e.operand), scalar_type_from_name(e.to))
        raise SemaError(f"cannot lower expression {type(e).__name__}", e.line)


def lower_function(fn_ast: FuncDef) -> Function:
    """Lower one analyzed function AST to IR."""
    return _Lowerer(fn_ast).run()


def lower_program(program: Program, name: str = "module") -> Module:
    """Lower an analyzed program to an IR module."""
    module = Module(name)
    for fn_ast in program.functions:
        module.add(lower_function(fn_ast))
    return module
