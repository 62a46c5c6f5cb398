"""Semantic analysis for VaporC.

Performs name resolution and type checking, and *normalizes* the AST so that
lowering is mechanical:

* every expression node gets its ``ctype`` filled in;
* implicit conversions become explicit :class:`CastExpr` nodes, so after
  sema every ``BinExpr`` has identically typed operands;
* "flexible" numeric literals adopt the type of their context (C-style
  ``2.0`` next to a ``float`` array stays f32 arithmetic, matching what the
  paper's kernels mean);
* array subscripts are rank-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..ir.types import BOOL, F32, I32, ScalarType, scalar_type_from_name
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

__all__ = ["analyze", "SemaError", "ArrayInfo"]

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_LOGIC_OPS = ("&&", "||")
_BITWISE_OPS = ("&", "|", "^", "<<", ">>", "%")


class SemaError(ReproError):
    """Raised on a type or name error, with the source line."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"{message} (line {line})")
        self.line = line


@dataclass
class ArrayInfo:
    """Resolved array parameter: element type and dimension spellings."""

    elem: ScalarType
    dims: list
    may_alias: bool


class _Scope:
    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.scalars: dict[str, ScalarType] = {}
        self.arrays: dict[str, ArrayInfo] = {}

    def lookup_scalar(self, name: str) -> ScalarType | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.scalars:
                return scope.scalars[name]
            scope = scope.parent
        return None

    def lookup_array(self, name: str) -> ArrayInfo | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.arrays:
                return scope.arrays[name]
            scope = scope.parent
        return None


def _is_flexible(expr: Expr) -> bool:
    return isinstance(expr, NumLit)


def _rank(t: ScalarType) -> int:
    order = ["bool", "i8", "i16", "i32", "i64", "f32", "f64"]
    return order.index(t.name)


def _unify(a: ScalarType, b: ScalarType) -> ScalarType:
    """C-style usual arithmetic conversion, restricted to our types."""
    if a == b:
        return a
    if a.is_float or b.is_float:
        floats = [t for t in (a, b) if t.is_float]
        return max(floats, key=lambda t: t.size)
    wider = a if a.size >= b.size else b
    # Small ints promote to at least i32 under mixed arithmetic, C-style,
    # but VaporC keeps same-width small-int arithmetic narrow so the
    # vectorizer sees the real element width (GCC's vectorizer similarly
    # undoes promotion via over-widening detection).
    return wider


def _cast(expr: Expr, to: ScalarType) -> Expr:
    if expr.ctype == to:
        return expr
    if isinstance(expr, NumLit):
        # Retype the literal in place rather than emitting a runtime cast.
        expr.ctype = to
        if to.is_float:
            expr.value = float(expr.value)
        else:
            expr.value = int(expr.value)
        return expr
    cast = CastExpr(to=to.name, operand=expr, line=expr.line)
    cast.ctype = to
    return cast


class _Analyzer:
    def __init__(self, fn: FuncDef) -> None:
        self.fn = fn
        self.return_type = (
            None
            if fn.return_type == "void"
            else scalar_type_from_name(fn.return_type)
        )

    def run(self) -> None:
        scope = _Scope()
        for p in self.fn.params:
            if isinstance(p, ScalarParam):
                if p.type_name == "void":
                    raise SemaError("void parameter", p.line)
                scope.scalars[p.name] = scalar_type_from_name(p.type_name)
            elif isinstance(p, ArrayParam):
                for d in p.dims[1:]:
                    if not isinstance(d, int):
                        raise SemaError(
                            f"array {p.name}: inner dimensions must be "
                            "integer constants",
                            p.line,
                        )
                for d in p.dims:
                    if isinstance(d, str) and scope.lookup_scalar(d) is None:
                        raise SemaError(
                            f"array {p.name}: unknown extent {d!r} "
                            "(declare the scalar parameter first)",
                            p.line,
                        )
                scope.arrays[p.name] = ArrayInfo(
                    elem=scalar_type_from_name(p.elem_type),
                    dims=list(p.dims),
                    may_alias=p.may_alias,
                )
        self.block(self.fn.body, scope)

    # -- statements ---------------------------------------------------------

    def block(self, blk: BlockStmt, scope: _Scope) -> None:
        inner = _Scope(scope)
        for i, stmt in enumerate(blk.stmts):
            blk.stmts[i] = self.statement(stmt, inner)

    def statement(self, stmt, scope: _Scope):
        if isinstance(stmt, BlockStmt):
            self.block(stmt, scope)
        elif isinstance(stmt, DeclStmt):
            if scope.scalars.get(stmt.name) or scope.arrays.get(stmt.name):
                raise SemaError(f"redeclaration of {stmt.name!r}", stmt.line)
            t = scalar_type_from_name(stmt.type_name)
            if stmt.init is not None:
                stmt.init = _cast(self.expr(stmt.init, scope), t)
            scope.scalars[stmt.name] = t
        elif isinstance(stmt, AssignStmt):
            self.assign(stmt, scope)
        elif isinstance(stmt, ForStmt):
            self.for_stmt(stmt, scope)
        elif isinstance(stmt, IfStmt):
            stmt.cond = self.expr(stmt.cond, scope)
            if stmt.cond.ctype != BOOL:
                stmt.cond = _cast(stmt.cond, BOOL) if _is_flexible(stmt.cond) else stmt.cond
            self.block(stmt.then_body, scope)
            if stmt.else_body is not None:
                self.block(stmt.else_body, scope)
        elif isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                if self.return_type is None:
                    raise SemaError("void function returns a value", stmt.line)
                stmt.value = _cast(self.expr(stmt.value, scope), self.return_type)
            elif self.return_type is not None:
                raise SemaError("non-void function returns nothing", stmt.line)
        else:
            raise SemaError(f"unsupported statement {type(stmt).__name__}", stmt.line)
        return stmt

    def assign(self, stmt: AssignStmt, scope: _Scope) -> None:
        target = stmt.target
        if isinstance(target, VarExpr):
            t = scope.lookup_scalar(target.name)
            if t is None:
                raise SemaError(f"assignment to undeclared {target.name!r}", stmt.line)
            target.ctype = t
        elif isinstance(target, IndexExpr):
            self.index_expr(target, scope)
            t = target.ctype
        else:
            raise SemaError("bad assignment target", stmt.line)
        value = self.expr(stmt.value, scope)
        if stmt.op:
            # Desugar `x op= v` into `x = x op v` so lowering sees one form.
            lhs_copy: Expr
            if isinstance(target, VarExpr):
                lhs_copy = VarExpr(name=target.name, line=stmt.line)
                lhs_copy.ctype = t
            else:
                lhs_copy = IndexExpr(
                    name=target.name, indices=list(target.indices), line=stmt.line
                )
                lhs_copy.ctype = t
            combined = BinExpr(op=stmt.op, lhs=lhs_copy, rhs=value, line=stmt.line)
            value = self.bin_expr(combined, scope, pretyped=True)
            stmt.op = ""
        stmt.value = _cast(value, t)

    def for_stmt(self, stmt: ForStmt, scope: _Scope) -> None:
        stmt.lower = _cast(self.expr(stmt.lower, scope), I32)
        stmt.upper = _cast(self.expr(stmt.upper, scope), I32)
        if stmt.iv_decl_type is not None:
            if scalar_type_from_name(stmt.iv_decl_type) != I32:
                raise SemaError("loop variable must be int", stmt.line)
        else:
            existing = scope.lookup_scalar(stmt.iv)
            if existing is None:
                raise SemaError(f"undeclared loop variable {stmt.iv!r}", stmt.line)
            if existing != I32:
                raise SemaError("loop variable must be int", stmt.line)
        inner = _Scope(scope)
        inner.scalars[stmt.iv] = I32
        self.block(stmt.body, inner)

    # -- expressions -------------------------------------------------------

    def expr(self, e: Expr, scope: _Scope) -> Expr:
        if isinstance(e, NumLit):
            e.ctype = F32 if e.is_float else I32
            return e
        if isinstance(e, VarExpr):
            t = scope.lookup_scalar(e.name)
            if t is None:
                if scope.lookup_array(e.name) is not None:
                    raise SemaError(
                        f"array {e.name!r} used without subscript", e.line
                    )
                raise SemaError(f"undeclared identifier {e.name!r}", e.line)
            e.ctype = t
            return e
        if isinstance(e, IndexExpr):
            self.index_expr(e, scope)
            return e
        if isinstance(e, BinExpr):
            return self.bin_expr(e, scope)
        if isinstance(e, UnExpr):
            e.operand = self.expr(e.operand, scope)
            if e.op == "!":
                e.ctype = BOOL
            else:
                e.ctype = e.operand.ctype
            return e
        if isinstance(e, TernaryExpr):
            e.cond = self.expr(e.cond, scope)
            e.if_true = self.expr(e.if_true, scope)
            e.if_false = self.expr(e.if_false, scope)
            t = self._balance(e, "if_true", "if_false")
            e.ctype = t
            return e
        if isinstance(e, CallExpr):
            return self.call_expr(e, scope)
        if isinstance(e, CastExpr):
            e.operand = self.expr(e.operand, scope)
            to = scalar_type_from_name(e.to)
            if isinstance(e.operand, NumLit):
                # Fold casts of literals into retyped literals so the
                # vectorizer's idiom recognition sees plain constants.
                return _cast(e.operand, to)
            e.ctype = to
            return e
        raise SemaError(f"unsupported expression {type(e).__name__}", e.line)

    def _balance(self, node, a_attr: str, b_attr: str) -> ScalarType:
        a: Expr = getattr(node, a_attr)
        b: Expr = getattr(node, b_attr)
        if _is_flexible(a) and not _is_flexible(b):
            setattr(node, a_attr, _cast(a, b.ctype))
            return b.ctype
        if _is_flexible(b) and not _is_flexible(a):
            setattr(node, b_attr, _cast(b, a.ctype))
            return a.ctype
        t = _unify(a.ctype, b.ctype)
        setattr(node, a_attr, _cast(a, t))
        setattr(node, b_attr, _cast(b, t))
        return t

    def bin_expr(self, e: BinExpr, scope: _Scope, pretyped: bool = False) -> BinExpr:
        if not pretyped:
            e.lhs = self.expr(e.lhs, scope)
            e.rhs = self.expr(e.rhs, scope)
        else:
            if e.lhs.ctype is None:
                e.lhs = self.expr(e.lhs, scope)
            if e.rhs.ctype is None:
                e.rhs = self.expr(e.rhs, scope)
        if e.op in _LOGIC_OPS:
            e.ctype = BOOL
            return e
        if e.op in _CMP_OPS:
            self._balance(e, "lhs", "rhs")
            e.ctype = BOOL
            return e
        if e.op in ("<<", ">>"):
            if e.lhs.ctype.is_float:
                raise SemaError("shift of floating value", e.line)
            # Shift amounts take the shifted operand's type (the IR requires
            # homogeneous binary operands).
            e.rhs = _cast(e.rhs, e.lhs.ctype)
            e.ctype = e.lhs.ctype
            return e
        if e.op in ("&", "|", "^", "%") and (
            e.lhs.ctype.is_float or e.rhs.ctype.is_float
        ):
            raise SemaError(f"operator {e.op!r} on floating value", e.line)
        e.ctype = self._balance(e, "lhs", "rhs")
        return e

    def call_expr(self, e: CallExpr, scope: _Scope) -> CallExpr:
        e.args = [self.expr(a, scope) for a in e.args]
        if e.callee in ("abs", "fabs"):
            if len(e.args) != 1:
                raise SemaError(f"{e.callee} takes one argument", e.line)
            e.ctype = e.args[0].ctype
        elif e.callee in ("min", "max"):
            if len(e.args) != 2:
                raise SemaError(f"{e.callee} takes two arguments", e.line)
            t = _unify(e.args[0].ctype, e.args[1].ctype)
            if _is_flexible(e.args[0]) and not _is_flexible(e.args[1]):
                t = e.args[1].ctype
            elif _is_flexible(e.args[1]) and not _is_flexible(e.args[0]):
                t = e.args[0].ctype
            e.args = [_cast(a, t) for a in e.args]
            e.ctype = t
        elif e.callee == "sqrt":
            if len(e.args) != 1:
                raise SemaError("sqrt takes one argument", e.line)
            if not e.args[0].ctype.is_float:
                e.args[0] = _cast(e.args[0], F32)
            e.ctype = e.args[0].ctype
        else:
            raise SemaError(f"unknown function {e.callee!r}", e.line)
        return e

    def index_expr(self, e: IndexExpr, scope: _Scope) -> None:
        info = scope.lookup_array(e.name)
        if info is None:
            raise SemaError(f"subscript of non-array {e.name!r}", e.line)
        if len(e.indices) != len(info.dims):
            raise SemaError(
                f"array {e.name!r} has rank {len(info.dims)}, "
                f"subscripted with {len(e.indices)} indices",
                e.line,
            )
        e.indices = [_cast(self.expr(ix, scope), I32) for ix in e.indices]
        e.ctype = info.elem


def analyze(program: Program) -> Program:
    """Type-check and normalize every function in ``program`` in place."""
    seen = set()
    for fn in program.functions:
        if fn.name in seen:
            raise SemaError(f"duplicate function {fn.name!r}", fn.line)
        seen.add(fn.name)
        _Analyzer(fn).run()
    return program
