"""Structured IR -> flat machine IR translation.

Runs after the online compiler's materialization: every instruction left is
either scalar or an exact machine-dialect op, so this stage is purely
mechanical — loops become labels and branches, loop-carried values become
register copies, memory element indices become byte-address arithmetic.

Two quality knobs reproduce the Mono/gcc4cli code-generation gap the paper
discusses (addressing modes, constant handling):

* ``scaled_addressing`` — fold the element-size scaling into a single
  address instruction (x86-style ``lea``) instead of const+shift+add.
* ``rematerialize_consts`` — re-emit constants at every use (Mono) instead
  of caching them in a register.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..ir import (
    ArrayRef,
    BinOp,
    Block,
    Cmp,
    Const,
    Convert,
    ForLoop,
    Function,
    If,
    Instr,
    Load,
    Return,
    Select,
    Store,
    UnOp,
    Value,
    Yield,
)
from ..ir.types import BOOL, I32, I64, VectorType
from . import ops as mops
from .mir import FPR, GPR, VEC, ArraySlot, MFunction, MInstr, VReg

__all__ = ["flatten", "FlattenOptions"]

_label_ids = itertools.count()


@dataclass
class FlattenOptions:
    scaled_addressing: bool = False
    rematerialize_consts: bool = False


def _rclass(t) -> str:
    if isinstance(t, VectorType):
        return VEC
    return FPR if t.is_float else GPR


class _Flattener:
    def __init__(self, fn: Function, options: FlattenOptions) -> None:
        self.fn = fn
        self.options = options
        self.mf = MFunction(fn.name)
        self.loop_depth = 0
        self.regs: dict[int, VReg] = {}
        self.const_cache: dict[tuple, VReg] = {}
        # Cached constants are emitted into a prologue so their single
        # definition dominates every use regardless of control flow.
        self.const_prologue: list[MInstr] = []

    def run(self) -> MFunction:
        for p in self.fn.scalar_params:
            reg = VReg.fresh(_rclass(p.type), p.type)
            self.regs[p.id] = reg
            self.mf.scalar_params.append((p.name, p.type, reg))
        for a in self.fn.array_params:
            self.mf.arrays.append(ArraySlot(a.name, a.elem, a.may_alias))
        self.block(self.fn.body)
        self.mf.instrs = self.const_prologue + self.mf.instrs
        return self.mf

    # -- value plumbing ------------------------------------------------------

    def reg_of(self, v: Value) -> VReg:
        if isinstance(v, Const):
            key = (v.value, v.type.name)
            if self.options.rematerialize_consts:
                reg = VReg.fresh(_rclass(v.type), v.type)
                self.mf.emit("const", reg, value=v.value, type=v.type)
                return reg
            if key in self.const_cache:
                return self.const_cache[key]
            reg = VReg.fresh(_rclass(v.type), v.type)
            self.const_prologue.append(
                MInstr("const", reg, [], {"value": v.value, "type": v.type})
            )
            self.const_cache[key] = reg
            return reg
        try:
            return self.regs[v.id]
        except KeyError:
            raise KeyError(f"no register for {v!r} in {self.fn.name}") from None

    def new_reg(self, v: Value) -> VReg:
        reg = VReg.fresh(_rclass(v.type), v.type)
        self.regs[v.id] = reg
        return reg

    def label(self, hint: str) -> str:
        return f"{hint}_{next(_label_ids)}"

    # -- addressing ---------------------------------------------------------

    def byte_address(self, array: ArrayRef, index: Value) -> VReg:
        """Byte offset register for element ``index`` of ``array``."""
        idx = self.reg_of(index)
        esize = array.elem.size
        addr = VReg.fresh(GPR, I64)
        if esize == 1:
            self.mf.emit("mov", addr, [idx])
        elif self.options.scaled_addressing:
            self.mf.emit("lea", addr, [idx], scale=esize, offset=0)
        else:
            shift = self.reg_of(Const(esize.bit_length() - 1, I32))
            self.mf.emit("shl", addr, [idx, shift], type=I64)
        return addr

    def linear_index(self, array: ArrayRef, indices: list[Value]) -> Value:
        """Multi-dim indices are pre-linearized by materialization for
        vector ops; scalar Load/Store still carry per-dim indices, so emit
        the row-major arithmetic here and return a pseudo-value."""
        if len(indices) == 1:
            return indices[0]
        # Horner scheme: acc = ((i0*d1 + i1)*d2 + i2)...
        acc_reg = VReg.fresh(GPR, I32)
        self.mf.emit("mov", acc_reg, [self.reg_of(indices[0])])
        for k, idx in enumerate(indices[1:], start=1):
            dim = array.shape[k]
            dim_reg = self.reg_of(Const(dim, I32))
            tmp = VReg.fresh(GPR, I32)
            self.mf.emit("mul", tmp, [acc_reg, dim_reg], type=I32)
            acc_reg2 = VReg.fresh(GPR, I32)
            self.mf.emit("add", acc_reg2, [tmp, self.reg_of(idx)], type=I32)
            acc_reg = acc_reg2
        holder = Value(I32)
        self.regs[holder.id] = acc_reg
        return holder

    # -- structure ---------------------------------------------------------

    def block(self, block: Block) -> None:
        for instr in block.instrs:
            self.instr(instr)

    def for_loop(self, loop: ForLoop) -> None:
        self.loop_depth += 1
        iv = VReg.fresh(GPR, I32)
        self.mf.emit("mov", iv, [self.reg_of(loop.lower)])
        self.regs[loop.iv.id] = iv
        carried_regs = []
        for arg, init in zip(loop.carried, loop.init_values):
            reg = VReg.fresh(_rclass(arg.type), arg.type)
            self.mf.emit("mov", reg, [self.reg_of(init)])
            self.regs[arg.id] = reg
            carried_regs.append(reg)
        head = self.label(f"head_{loop.iv.name}")
        exit_ = self.label(f"exit_{loop.iv.name}")
        upper = self.reg_of(loop.upper)
        step = self.reg_of(loop.step)
        # Loop-control and carried values are the allocator's pin
        # candidates; deeper loops matter more.
        pins = self.mf.meta.setdefault("pinned", [])
        for reg in (iv, upper, step, *carried_regs):
            pins.append((self.loop_depth, reg.id, reg.rclass))
        self.mf.emit("label", name=head)
        cond = VReg.fresh(GPR, BOOL)
        self.mf.emit("cmp", cond, [iv, upper], op="lt")
        self.mf.emit("brfalse", srcs=[cond], label=exit_)
        term = loop.body.terminator
        for instr in loop.body.instrs:
            if instr is term:
                break
            self.instr(instr)
        # Parallel copy of yields into carried registers (via temps).
        assert isinstance(term, Yield)
        temps = []
        for v in term.values:
            t = VReg.fresh(_rclass(v.type), v.type)
            self.mf.emit("mov", t, [self.reg_of(v)])
            temps.append(t)
        for reg, t in zip(carried_regs, temps):
            self.mf.emit("mov", reg, [t])
        self.mf.emit("add", iv, [iv, step], type=I32)
        self.mf.emit("br", label=head)
        self.mf.emit("label", name=exit_)
        for res, reg in zip(loop.results, carried_regs):
            self.regs[res.id] = reg
        self.loop_depth -= 1

    def if_op(self, instr: If) -> None:
        cond = self.reg_of(instr.cond)
        else_l = self.label("else")
        end_l = self.label("endif")
        result_regs = [VReg.fresh(_rclass(r.type), r.type) for r in instr.results]
        self.mf.emit("brfalse", srcs=[cond], label=else_l)
        self._arm(instr.then_block, result_regs)
        self.mf.emit("br", label=end_l)
        self.mf.emit("label", name=else_l)
        self._arm(instr.else_block, result_regs)
        self.mf.emit("label", name=end_l)
        for r, reg in zip(instr.results, result_regs):
            self.regs[r.id] = reg

    def _arm(self, block: Block, result_regs: list[VReg]) -> None:
        term = block.terminator
        for instr in block.instrs:
            if instr is term and isinstance(term, Yield):
                break
            self.instr(instr)
        if isinstance(term, Yield):
            for reg, v in zip(result_regs, term.values):
                self.mf.emit("mov", reg, [self.reg_of(v)])

    # -- instructions -------------------------------------------------------

    def instr(self, instr: Instr) -> None:
        if isinstance(instr, ForLoop):
            self.for_loop(instr)
            return
        if isinstance(instr, If):
            self.if_op(instr)
            return
        if isinstance(instr, Return):
            if instr.value is not None:
                self.mf.emit("ret", srcs=[self.reg_of(instr.value)])
                self.mf.ret = self.reg_of(instr.value)
            else:
                self.mf.emit("ret")
            return
        if isinstance(instr, BinOp):
            if isinstance(instr.type, VectorType):
                self.mf.emit(
                    "v" + instr.op,
                    self.new_reg(instr),
                    [self.reg_of(instr.lhs), self.reg_of(instr.rhs)],
                    elem=instr.type.elem,
                    lanes=instr.type.lanes,
                )
            else:
                self.mf.emit(
                    instr.op,
                    self.new_reg(instr),
                    [self.reg_of(instr.lhs), self.reg_of(instr.rhs)],
                    type=instr.type,
                )
            return
        if isinstance(instr, UnOp):
            if isinstance(instr.type, VectorType):
                self.mf.emit(
                    "v" + instr.op,
                    self.new_reg(instr),
                    [self.reg_of(instr.value)],
                    elem=instr.type.elem,
                    lanes=instr.type.lanes,
                )
            else:
                self.mf.emit(
                    instr.op,
                    self.new_reg(instr),
                    [self.reg_of(instr.value)],
                    type=instr.type,
                )
            return
        if isinstance(instr, Cmp):
            op = "vcmp" if isinstance(instr.lhs.type, VectorType) else "cmp"
            imm = {"op": instr.op}
            if op == "vcmp":
                imm["lanes"] = instr.lhs.type.lanes
            self.mf.emit(
                op,
                self.new_reg(instr),
                [self.reg_of(instr.lhs), self.reg_of(instr.rhs)],
                **imm,
            )
            return
        if isinstance(instr, Select):
            op = "vselect" if isinstance(instr.type, VectorType) else "select"
            self.mf.emit(
                op,
                self.new_reg(instr),
                [
                    self.reg_of(instr.cond),
                    self.reg_of(instr.if_true),
                    self.reg_of(instr.if_false),
                ],
            )
            return
        if isinstance(instr, Convert):
            self.mf.emit(
                "cvt", self.new_reg(instr), [self.reg_of(instr.value)], to=instr.to,
                type=instr.to,
            )
            return
        if isinstance(instr, Load):
            index = self.linear_index(instr.array, instr.indices)
            addr = self.byte_address(instr.array, index)
            self.mf.emit(
                "load",
                self.new_reg(instr),
                [addr],
                array=instr.array.name,
                type=instr.array.elem,
            )
            return
        if isinstance(instr, Store):
            index = self.linear_index(instr.array, instr.indices)
            addr = self.byte_address(instr.array, index)
            self.mf.emit(
                "store",
                srcs=[addr, self.reg_of(instr.value)],
                array=instr.array.name,
                type=instr.array.elem,
            )
            return
        if isinstance(instr, mops.MVLoad):
            addr = self.byte_address(instr.array, instr.index)
            vt = instr.type
            self.mf.emit(
                f"vload_{instr.mode}",
                self.new_reg(instr),
                [addr],
                array=instr.array.name,
                elem=vt.elem,
                lanes=vt.lanes,
            )
            return
        if isinstance(instr, mops.MVStore):
            addr = self.byte_address(instr.array, instr.index)
            self.mf.emit(
                f"vstore_{instr.mode}",
                srcs=[addr, self.reg_of(instr.value)],
                array=instr.array.name,
            )
            return
        if isinstance(instr, mops.MLvsr):
            addr = self.byte_address(instr.array, instr.index)
            self.mf.emit(
                "lvsr", self.new_reg(instr), [addr], array=instr.array.name
            )
            return
        if isinstance(instr, mops.MVPerm):
            self.mf.emit(
                "vperm",
                self.new_reg(instr),
                [self.reg_of(o) for o in instr.operands],
            )
            return
        if isinstance(instr, mops.MVSplat):
            vt = instr.type
            self.mf.emit(
                "vsplat",
                self.new_reg(instr),
                [self.reg_of(instr.operands[0])],
                elem=vt.elem,
                lanes=vt.lanes,
            )
            return
        if isinstance(instr, mops.MVAffine):
            vt = instr.type
            self.mf.emit(
                "vaffine",
                self.new_reg(instr),
                [self.reg_of(o) for o in instr.operands],
                elem=vt.elem,
                lanes=vt.lanes,
            )
            return
        if isinstance(instr, mops.MVConst):
            vt = instr.type
            self.mf.emit(
                "vconst",
                self.new_reg(instr),
                [],
                elem=vt.elem,
                lanes=vt.lanes,
                values=instr.values,
            )
            return
        if isinstance(instr, mops.MVInsert0):
            self.mf.emit(
                "vinsert0",
                self.new_reg(instr),
                [self.reg_of(o) for o in instr.operands],
            )
            return
        if isinstance(instr, mops.MVReduce):
            self.mf.emit(
                "vreduce",
                self.new_reg(instr),
                [self.reg_of(instr.operands[0])],
                kind=instr.kind,
            )
            return
        if isinstance(instr, mops.MVDot):
            vt = instr.type
            self.mf.emit(
                "vdot",
                self.new_reg(instr),
                [self.reg_of(o) for o in instr.operands],
                elem=vt.elem,
                lanes=vt.lanes,
            )
            return
        if isinstance(instr, mops.MVWidenMult):
            vt = instr.type
            self.mf.emit(
                "vwidenmul",
                self.new_reg(instr),
                [self.reg_of(o) for o in instr.operands],
                elem=vt.elem,
                lanes=vt.lanes,
                half=instr.half,
            )
            return
        if isinstance(instr, mops.MVPack):
            vt = instr.type
            self.mf.emit(
                "vpack",
                self.new_reg(instr),
                [self.reg_of(o) for o in instr.operands],
                elem=vt.elem,
                lanes=vt.lanes,
            )
            return
        if isinstance(instr, mops.MVUnpack):
            vt = instr.type
            self.mf.emit(
                "vunpack",
                self.new_reg(instr),
                [self.reg_of(o) for o in instr.operands],
                elem=vt.elem,
                lanes=vt.lanes,
                half=instr.half,
            )
            return
        if isinstance(instr, mops.MVCvt):
            vt = instr.type
            self.mf.emit(
                "vcvt",
                self.new_reg(instr),
                [self.reg_of(o) for o in instr.operands],
                to=vt.elem,
                lanes=vt.lanes,
            )
            return
        if isinstance(instr, mops.MVExtract):
            vt = instr.type
            self.mf.emit(
                "vextract",
                self.new_reg(instr),
                [self.reg_of(o) for o in instr.operands],
                elem=vt.elem,
                lanes=vt.lanes,
                stride=instr.stride,
                offset=instr.offset,
            )
            return
        if isinstance(instr, mops.MVInterleave):
            vt = instr.type
            self.mf.emit(
                "vinterleave",
                self.new_reg(instr),
                [self.reg_of(o) for o in instr.operands],
                elem=vt.elem,
                lanes=vt.lanes,
                half=instr.half,
            )
            return
        if isinstance(instr, mops.MArrOverlap):
            a1, a2 = instr.operands
            self.mf.emit(
                "arr_overlap", self.new_reg(instr), [], a1=a1.name, a2=a2.name
            )
            return
        if isinstance(instr, mops.MArrAligned):
            self.mf.emit(
                "arr_aligned",
                self.new_reg(instr),
                [],
                array=instr.operands[0].name,
                align=instr.align,
            )
            return
        if isinstance(instr, mops.MLibCall):
            vt = instr.type
            imm = dict(instr.imm)
            imm.setdefault("elem", vt.elem if isinstance(vt, VectorType) else vt)
            if isinstance(vt, VectorType):
                imm.setdefault("lanes", vt.lanes)
            self.mf.emit(
                "call_lib",
                self.new_reg(instr),
                [self.reg_of(o) for o in instr.operands],
                sem=instr.sem,
                **imm,
            )
            return
        raise ValueError(f"flatten: unhandled instruction {instr!r}")


def flatten(fn: Function, options: FlattenOptions | None = None) -> MFunction:
    """Flatten a fully materialized function to machine IR."""
    return _Flattener(fn, options or FlattenOptions()).run()
