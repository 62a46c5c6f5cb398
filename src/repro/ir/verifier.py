"""IR verifier.

Checks structural and type invariants after the frontend and after each
transformation.  Both compilers run it in debug flows, and the test suite
runs it on every kernel before and after vectorization.
"""

from __future__ import annotations

from ..errors import ReproError
from .idioms import DotProduct, RealignLoad, VStore
from .instructions import BinOp, Cmp, Instr, Load, Select, Store
from .structure import Block, ForLoop, Function, If, Return, Yield
from .types import I32, VectorType, widened
from .values import ArrayRef, Const, Value

__all__ = ["verify_function", "VerificationError"]


class VerificationError(ReproError):
    """Raised when the IR violates an invariant."""


def verify_function(fn: Function) -> None:
    """Verify ``fn``; raises :class:`VerificationError` on the first issue.

    Invariants checked:

    * every operand is defined before use (params, block args of enclosing
      blocks, constants, or an earlier instruction in scope);
    * loops yield exactly their carried values, with matching types;
    * binary/compare operand types match;
    * memory ops index arrays with the right rank and scalar indices;
    * widening idioms have consistent element types.
    """
    defined: set[int] = set()
    for p in fn.params:
        defined.add(p.id)
    _verify_block(fn.body, defined, fn)
    term = fn.body.terminator
    if fn.return_type is not None and not isinstance(term, Return):
        raise VerificationError(f"{fn.name}: missing return")


def _define(value: Value, defined: set[int]) -> None:
    defined.add(value.id)


def _check_use(value: Value, defined: set[int], ctx: str) -> None:
    if isinstance(value, (Const, ArrayRef)):
        return
    if value.id not in defined:
        raise VerificationError(f"use of undefined value {value!r} in {ctx}")


def _verify_block(block: Block, defined: set[int], fn: Function) -> None:
    local = set(defined)
    for arg in block.args:
        _define(arg, local)
    for instr in block.instrs:
        for op in instr.operands:
            _check_use(op, local, repr(instr))
        _verify_instr(instr, local, fn)
        _define(instr, local)
        if isinstance(instr, ForLoop):
            for r in instr.results:
                _define(r, local)
        elif isinstance(instr, If):
            for r in instr.results:
                _define(r, local)


def _verify_instr(instr: Instr, defined: set[int], fn: Function) -> None:
    if isinstance(instr, ForLoop):
        if not all(op.type == I32 for op in (instr.lower, instr.upper, instr.step)):
            raise VerificationError(f"loop bounds/step must be i32: {instr!r}")
        if len(instr.carried) != len(instr.init_values):
            raise VerificationError(f"carried/init mismatch: {instr!r}")
        for carry, init in zip(instr.carried, instr.init_values):
            if carry.type != init.type:
                raise VerificationError(
                    f"carried {carry!r} type != init {init!r} type"
                )
        _verify_block(instr.body, defined, fn)
        term = instr.body.terminator
        if not isinstance(term, Yield):
            raise VerificationError(f"loop body must end in yield: {instr!r}")
        if len(term.values) != len(instr.carried):
            raise VerificationError(f"yield arity mismatch in {instr!r}")
        for y, carry in zip(term.values, instr.carried):
            if y.type != carry.type:
                raise VerificationError(
                    f"yield type {y.type} != carried type {carry.type} in {instr!r}"
                )
    elif isinstance(instr, If):
        if instr.cond.type.name not in ("bool", "i32"):
            raise VerificationError(f"if condition must be bool/i32: {instr!r}")
        _verify_block(instr.then_block, defined, fn)
        _verify_block(instr.else_block, defined, fn)
        if instr.results:
            for blk in (instr.then_block, instr.else_block):
                term = blk.terminator
                if not isinstance(term, Yield) or len(term.values) != len(
                    instr.results
                ):
                    raise VerificationError(f"if-arm yield mismatch: {instr!r}")
    elif isinstance(instr, (BinOp, Cmp)):
        if instr.lhs.type != instr.rhs.type:
            raise VerificationError(
                f"operand type mismatch {instr.lhs.type} vs {instr.rhs.type} "
                f"in {instr!r}"
            )
    elif isinstance(instr, Select):
        if instr.if_true.type != instr.if_false.type:
            raise VerificationError(f"select arm type mismatch in {instr!r}")
    elif isinstance(instr, (Load, Store)):
        for idx in instr.indices:
            if idx.type != I32:
                raise VerificationError(f"non-i32 index in {instr!r}")
    elif isinstance(instr, DotProduct):
        v1t, acct = instr.v1.type, instr.acc.type
        if not (isinstance(v1t, VectorType) and isinstance(acct, VectorType)):
            raise VerificationError(f"dot_product needs vector operands: {instr!r}")
        if widened(v1t.elem) != acct.elem:
            raise VerificationError(
                f"dot_product accumulator must be widened: {instr!r}"
            )
    elif isinstance(instr, (RealignLoad, VStore)):
        if instr.mod and instr.mis >= instr.mod:
            raise VerificationError(f"mis >= mod hint in {instr!r}")
