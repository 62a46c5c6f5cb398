"""The cycle-cost virtual machine (reference interpreter).

Executes :class:`~repro.machine.mir.MFunction` code against
:class:`~repro.machine.memory.ArrayBuffer` memory, charging every
instruction its target-specific cycle cost.  This is the stand-in for the
paper's physical Core2 / G5 / Cortex-A8 machines: absolute cycle counts are
synthetic, but the *ratios* between flows (scalar vs vector, split vs
native) — which is all the paper's figures report — are preserved by
construction, because both flows execute on the same cost model.

Alignment is enforced, not assumed: an aligned vector access to a
misaligned address raises :class:`VMError`, so a compiler bug that would
fault on AltiVec faults here too.

This module is the *reference* engine: a deliberately simple decode-per-
instruction interpreter that doubles as the executable specification of
the opcode set.  The production-speed engine lives in
:mod:`repro.machine.codegen`; it translates MIR into generated Python
source and must stay bit-identical to this interpreter (enforced by
``tests/test_engine_parity.py``).  The single-source op semantics both
engines share live here (``_BIN_FUNCS``/``_UN_FUNCS``/``_CMP``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .. import faults
from ..errors import ReproError
from ..ir.types import ScalarType
from ..targets.base import X87_FP_EXTRA, Target
from .memory import ArrayBuffer
from .mir import MFunction, MInstr

__all__ = ["VM", "VMError", "RunResult"]

_SCALAR_BIN = {
    "add", "sub", "mul", "div", "mod", "min", "max",
    "and", "or", "xor", "shl", "shr",
}
_SCALAR_UN = {"neg", "abs", "not", "sqrt"}
_VECTOR_BIN = {
    "vadd", "vsub", "vmul", "vdiv", "vmod", "vmin", "vmax",
    "vand", "vor", "vxor", "vshl", "vshr",
}
_VECTOR_UN = {"vneg", "vabs", "vnot", "vsqrt"}
_FP_SCALAR_OPS = _SCALAR_BIN | _SCALAR_UN | {"cmp", "cvt", "select", "mov"}


class VMError(ReproError):
    """Raised on alignment traps, unbound arrays, or runaway execution."""


@dataclass
class RunResult:
    """Outcome of one kernel execution."""

    value: object
    cycles: float
    instructions: int
    op_counts: dict[str, int] = field(default_factory=dict)


# -- shared op semantics ------------------------------------------------------
#
# One function per canonical opcode, shared by the reference interpreter
# (via :func:`_binop`/:func:`_unop`) and by the source-generating engine
# (:mod:`repro.machine.codegen`).  Keeping a single source of truth is
# what makes the two engines bit-identical by construction.


def _trunc_div(a, b, dtype: np.dtype):
    """C-style truncating integer division (shared by div and mod)."""
    q = np.floor_divide(a, b)
    r = a - q * b
    fix = (r != 0) & ((a < 0) != (b < 0))
    return (q + fix).astype(dtype)


def _div(a, b, dtype: np.dtype):
    if dtype.kind == "f":
        return a / b
    return _trunc_div(a, b, dtype)


def _mod(a, b, dtype: np.dtype):
    # One truncating division, shared with the div path (no re-dispatch).
    q = _div(a, b, dtype)
    return (a - q * b).astype(dtype)


def _shl(a, b, dtype: np.dtype):
    return (a << (b & (dtype.itemsize * 8 - 1))).astype(dtype)


def _shr(a, b, dtype: np.dtype):
    return (a >> (b & (dtype.itemsize * 8 - 1))).astype(dtype)


#: canonical binary op name -> fn(a, b, dtype); vector ops use the same
#: entry with the leading "v" stripped.
_BIN_FUNCS = {
    "add": lambda a, b, dt: a + b,
    "sub": lambda a, b, dt: a - b,
    "mul": lambda a, b, dt: a * b,
    "div": _div,
    "mod": _mod,
    "min": lambda a, b, dt: np.minimum(a, b),
    "max": lambda a, b, dt: np.maximum(a, b),
    "and": lambda a, b, dt: a & b,
    "or": lambda a, b, dt: a | b,
    "xor": lambda a, b, dt: a ^ b,
    "shl": _shl,
    "shr": _shr,
}

#: canonical unary op name -> fn(a, dtype).
_UN_FUNCS = {
    "neg": lambda a, dt: (-a).astype(dt) if dt.kind != "f" else -a,
    "abs": lambda a, dt: np.abs(a).astype(dt),
    "not": lambda a, dt: ~a,
    "sqrt": lambda a, dt: np.sqrt(a).astype(dt),
}


def _canon(op: str) -> str:
    """Map a (possibly vector) mnemonic to its canonical scalar name."""
    if op in _BIN_FUNCS or op in _UN_FUNCS:
        return op
    return op[1:]


def _binop(op: str, a, b, dtype: np.dtype):
    fn = _BIN_FUNCS.get(op) or _BIN_FUNCS.get(op[1:])
    if fn is None:
        raise VMError(f"unknown binary op {op}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return fn(a, b, dtype)


def _unop(op: str, a, dtype: np.dtype):
    fn = _UN_FUNCS.get(op) or _UN_FUNCS.get(op[1:])
    if fn is None:
        raise VMError(f"unknown unary op {op}")
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(a, dtype)


_CMP = {
    "eq": np.equal, "ne": np.not_equal, "lt": np.less,
    "le": np.less_equal, "gt": np.greater, "ge": np.greater_equal,
}


class VM:
    """Executes machine code for one target (reference interpreter)."""

    def __init__(self, target: Target, max_instructions: int = 500_000_000):
        self.target = target
        self.max_instructions = max_instructions

    def run(
        self,
        mfunc: MFunction,
        scalar_args: dict[str, object] | None = None,
        arrays: dict[str, ArrayBuffer] | None = None,
        count_ops: bool = False,
    ) -> RunResult:
        """Execute ``mfunc``; returns the result with cycle accounting."""
        scalar_args = scalar_args or {}
        arrays = arrays or {}
        for slot in mfunc.arrays:
            if slot.name not in arrays:
                raise VMError(f"array parameter {slot.name!r} not bound")
        regs: dict[int, object] = {}
        for name, type_, reg in mfunc.scalar_params:
            if name not in scalar_args:
                raise VMError(f"scalar parameter {name!r} not bound")
            regs[reg.id] = type_.numpy_dtype.type(scalar_args[name])

        labels = mfunc.labels()
        instrs = mfunc.instrs
        cost = self.target.cost
        x87 = bool(mfunc.meta.get("x87"))
        cycles = 0.0
        executed = 0
        # Accounting beyond cycles (per-op counts, the x87 FP surcharge) is
        # hoisted behind a single precomputed flag so the common fast path
        # (count_ops=False, non-x87 code) pays one local-bool test per
        # instruction instead of two dict/set probes.
        op_counts: Counter[str] = Counter()
        slow_account = count_ops or x87
        spills: dict[int, object] = {}
        pc = 0
        n = len(instrs)
        ret_value = None

        while pc < n:
            ins = instrs[pc]
            pc += 1
            executed += 1
            if executed > self.max_instructions:
                raise VMError(
                    f"instruction budget exceeded in {mfunc.name} "
                    f"({self.max_instructions})"
                )
            op = ins.op
            cycles += cost.get(op)
            if slow_account:
                if count_ops:
                    op_counts[op] += 1
                if x87 and op in _FP_SCALAR_OPS:
                    t = ins.imm.get("type")
                    if isinstance(t, ScalarType) and t.is_float:
                        cycles += X87_FP_EXTRA
            if op == "label":
                continue

            if op == "const":
                t: ScalarType = ins.imm["type"]
                regs[ins.dst.id] = t.numpy_dtype.type(ins.imm["value"])
            elif op == "mov":
                regs[ins.dst.id] = regs[ins.srcs[0].id]
            elif op == "lea":
                base = int(regs[ins.srcs[0].id])
                regs[ins.dst.id] = np.int64(
                    base * ins.imm.get("scale", 1) + ins.imm.get("offset", 0)
                )
            elif op in _SCALAR_BIN:
                t = ins.imm["type"]
                dt = t.numpy_dtype
                a = dt.type(regs[ins.srcs[0].id])
                b = dt.type(regs[ins.srcs[1].id])
                regs[ins.dst.id] = dt.type(_binop(op, a, b, dt))
            elif op in _SCALAR_UN:
                t = ins.imm["type"]
                dt = t.numpy_dtype
                regs[ins.dst.id] = dt.type(_unop(op, dt.type(regs[ins.srcs[0].id]), dt))
            elif op == "cmp":
                a = regs[ins.srcs[0].id]
                b = regs[ins.srcs[1].id]
                regs[ins.dst.id] = np.int8(_CMP[ins.imm["op"]](a, b))
            elif op == "select":
                c = regs[ins.srcs[0].id]
                regs[ins.dst.id] = (
                    regs[ins.srcs[1].id] if c else regs[ins.srcs[2].id]
                )
            elif op == "cvt":
                to: ScalarType = ins.imm["to"]
                v = regs[ins.srcs[0].id]
                if to.is_float:
                    regs[ins.dst.id] = to.numpy_dtype.type(v)
                else:
                    # C truncation toward zero for float sources; wrap ints.
                    if isinstance(v, (np.floating, float)):
                        v = int(v)
                    regs[ins.dst.id] = to.numpy_dtype.type(np.int64(v))
            elif op == "load":
                if faults.mem_hook is not None:
                    faults.mem_hook("load", ins.imm["array"])
                buf = arrays[ins.imm["array"]]
                t = ins.imm["type"]
                off = int(regs[ins.srcs[0].id])
                regs[ins.dst.id] = buf.load_scalar(off, t.numpy_dtype)
            elif op == "store":
                if faults.mem_hook is not None:
                    faults.mem_hook("store", ins.imm["array"])
                buf = arrays[ins.imm["array"]]
                t = ins.imm["type"]
                off = int(regs[ins.srcs[0].id])
                buf.store_scalar(off, regs[ins.srcs[1].id], t.numpy_dtype)
            elif op == "br":
                pc = labels[ins.imm["label"]]
            elif op == "brtrue":
                if regs[ins.srcs[0].id]:
                    pc = labels[ins.imm["label"]]
            elif op == "brfalse":
                if not regs[ins.srcs[0].id]:
                    pc = labels[ins.imm["label"]]
            elif op == "ret":
                ret_value = regs[ins.srcs[0].id] if ins.srcs else None
                break
            elif op == "spill_st":
                spills[ins.imm["slot"]] = regs[ins.srcs[0].id]
            elif op == "spill_ld":
                regs[ins.dst.id] = spills[ins.imm["slot"]]
            elif op == "arr_overlap":
                a = arrays[ins.imm["a1"]]
                b = arrays[ins.imm["a2"]]
                regs[ins.dst.id] = np.int8(a.overlaps(b))
            elif op == "arr_aligned":
                buf = arrays[ins.imm["array"]]
                regs[ins.dst.id] = np.int8(
                    buf.address_of(0) % ins.imm["align"] == 0
                )
            else:
                self._exec_vector(ins, regs, arrays)

        return RunResult(ret_value, cycles, executed, op_counts)

    # -- vector instruction semantics --------------------------------------

    def _exec_vector(self, ins: MInstr, regs: dict, arrays: dict) -> None:
        op = ins.op
        vs = self.target.vector_size
        if op == "vconst":
            elem: ScalarType = ins.imm["elem"]
            lanes: int = ins.imm["lanes"]
            values = ins.imm["values"]
            reps = -(-lanes // len(values))
            regs[ins.dst.id] = np.tile(
                np.asarray(values, dtype=elem.numpy_dtype), reps
            )[:lanes]
        elif op == "vsplat":
            elem, lanes = ins.imm["elem"], ins.imm["lanes"]
            regs[ins.dst.id] = np.full(
                lanes, regs[ins.srcs[0].id], dtype=elem.numpy_dtype
            )
        elif op == "vaffine":
            elem, lanes = ins.imm["elem"], ins.imm["lanes"]
            base = regs[ins.srcs[0].id]
            inc = regs[ins.srcs[1].id]
            dt = elem.numpy_dtype
            with np.errstate(over="ignore"):
                regs[ins.dst.id] = (
                    dt.type(base) + np.arange(lanes, dtype=dt) * dt.type(inc)
                ).astype(dt)
        elif op in ("vload_a", "vload_u", "vload_fa"):
            if faults.mem_hook is not None:
                faults.mem_hook(op, ins.imm["array"])
            buf = arrays[ins.imm["array"]]
            elem, lanes = ins.imm["elem"], ins.imm["lanes"]
            off = int(regs[ins.srcs[0].id])
            if op == "vload_a":
                if buf.address_of(off) % vs != 0:
                    raise VMError(
                        f"aligned vector load from misaligned address "
                        f"(array {ins.imm['array']}, offset {off}, "
                        f"addr%{vs}={buf.address_of(off) % vs})"
                    )
            elif op == "vload_fa":
                abs_addr = buf.address_of(off)
                off -= abs_addr % vs
            regs[ins.dst.id] = buf.load_vector(off, elem.numpy_dtype, lanes)
        elif op in ("vstore_a", "vstore_u"):
            if faults.mem_hook is not None:
                faults.mem_hook(op, ins.imm["array"])
            buf = arrays[ins.imm["array"]]
            off = int(regs[ins.srcs[0].id])
            if op == "vstore_a" and buf.address_of(off) % vs != 0:
                raise VMError(
                    f"aligned vector store to misaligned address "
                    f"(array {ins.imm['array']}, offset {off})"
                )
            buf.store_vector(off, regs[ins.srcs[1].id])
        elif op == "lvsr":
            buf = arrays[ins.imm["array"]]
            off = int(regs[ins.srcs[0].id])
            regs[ins.dst.id] = np.int64(buf.address_of(off) % vs)
        elif op == "vperm":
            v1 = regs[ins.srcs[0].id]
            v2 = regs[ins.srcs[1].id]
            shift = int(regs[ins.srcs[2].id])
            raw = np.concatenate(
                [np.ascontiguousarray(v1).view(np.uint8),
                 np.ascontiguousarray(v2).view(np.uint8)]
            )
            nbytes = np.ascontiguousarray(v1).view(np.uint8).size
            regs[ins.dst.id] = (
                raw[shift : shift + nbytes].view(v1.dtype).copy()
            )
        elif op in _VECTOR_BIN:
            elem = ins.imm["elem"]
            a, b = regs[ins.srcs[0].id], regs[ins.srcs[1].id]
            regs[ins.dst.id] = np.asarray(
                _binop(op, a, b, elem.numpy_dtype), dtype=elem.numpy_dtype
            )
        elif op in _VECTOR_UN:
            elem = ins.imm["elem"]
            regs[ins.dst.id] = np.asarray(
                _unop(op, regs[ins.srcs[0].id], elem.numpy_dtype),
                dtype=elem.numpy_dtype,
            )
        elif op == "vcmp":
            a, b = regs[ins.srcs[0].id], regs[ins.srcs[1].id]
            regs[ins.dst.id] = _CMP[ins.imm["op"]](a, b).astype(np.int8)
        elif op == "vselect":
            c = regs[ins.srcs[0].id]
            regs[ins.dst.id] = np.where(
                c.astype(bool), regs[ins.srcs[1].id], regs[ins.srcs[2].id]
            )
        elif op == "vcvt":
            to: ScalarType = ins.imm["to"]
            v = regs[ins.srcs[0].id]
            if to.is_float:
                regs[ins.dst.id] = v.astype(to.numpy_dtype)
            else:
                with np.errstate(invalid="ignore"):
                    regs[ins.dst.id] = np.trunc(v).astype(to.numpy_dtype)
        elif op == "vinsert0":
            v = regs[ins.srcs[0].id].copy()
            v[0] = v.dtype.type(regs[ins.srcs[1].id])
            regs[ins.dst.id] = v
        elif op == "vreduce":
            v = regs[ins.srcs[0].id]
            kind = ins.imm["kind"]
            if kind == "plus":
                with np.errstate(over="ignore"):
                    regs[ins.dst.id] = v.dtype.type(np.add.reduce(v))
            elif kind == "min":
                regs[ins.dst.id] = v.min()
            else:
                regs[ins.dst.id] = v.max()
        elif op == "vdot":
            elem = ins.imm["elem"]  # the *widened* accumulator element
            a = regs[ins.srcs[0].id]
            b = regs[ins.srcs[1].id]
            acc = regs[ins.srcs[2].id]
            wide = a.astype(elem.numpy_dtype) * b.astype(elem.numpy_dtype)
            with np.errstate(over="ignore"):
                pair = wide.reshape(-1, 2).sum(axis=1, dtype=elem.numpy_dtype)
                regs[ins.dst.id] = (acc + pair).astype(elem.numpy_dtype)
        elif op == "vwidenmul":
            elem = ins.imm["elem"]  # widened element type
            half = ins.imm["half"]
            a = regs[ins.srcs[0].id]
            b = regs[ins.srcs[1].id]
            m = a.size
            sl = slice(0, m // 2) if half == "lo" else slice(m // 2, m)
            with np.errstate(over="ignore"):
                regs[ins.dst.id] = a[sl].astype(elem.numpy_dtype) * b[
                    sl
                ].astype(elem.numpy_dtype)
        elif op == "vpack":
            elem = ins.imm["elem"]  # narrowed element type
            a = regs[ins.srcs[0].id]
            b = regs[ins.srcs[1].id]
            regs[ins.dst.id] = np.concatenate([a, b]).astype(elem.numpy_dtype)
        elif op == "vunpack":
            elem = ins.imm["elem"]  # widened element type
            half = ins.imm["half"]
            a = regs[ins.srcs[0].id]
            m = a.size
            sl = slice(0, m // 2) if half == "lo" else slice(m // 2, m)
            regs[ins.dst.id] = a[sl].astype(elem.numpy_dtype)
        elif op == "vextract":
            stride = ins.imm["stride"]
            offset = ins.imm["offset"]
            parts = np.concatenate([regs[s.id] for s in ins.srcs])
            regs[ins.dst.id] = parts[offset::stride].copy()
        elif op == "vinterleave":
            half = ins.imm["half"]
            a = regs[ins.srcs[0].id]
            b = regs[ins.srcs[1].id]
            m = a.size
            sl = slice(0, m // 2) if half == "lo" else slice(m // 2, m)
            out = np.empty(m, dtype=a.dtype)
            out[0::2] = a[sl]
            out[1::2] = b[sl]
            regs[ins.dst.id] = out
        elif op == "call_lib":
            # Library fallback: same semantics as the idiom it emulates,
            # at call_lib cost (charged by the main loop already).
            sem = ins.imm["sem"]
            inner = MInstr(sem, ins.dst, ins.srcs, ins.imm)
            self._exec_vector(inner, regs, arrays)
        else:
            raise VMError(f"unknown opcode {op!r}")
