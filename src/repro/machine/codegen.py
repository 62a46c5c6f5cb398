"""Source-generating execution engine: MIR -> Python superinstructions.

The translating VM engine.  Where the reference interpreter
(:mod:`repro.machine.vm`) re-decodes every instruction on every
execution, this engine translates a function once and **generates Python
source** for the whole of it:

* each basic block becomes one straight-line run of statements inside a
  single ``compile()``d function — zero per-instruction dispatch, no
  closure calls, virtual registers bound as plain locals (``r0``,
  ``r1``, ...) and immediates folded into the source;
* each block's accounting is pre-aggregated at translate time
  (:func:`block_accounting`): one pre-summed ``_cy += <const>`` /
  ``_n += <count>`` per block; a block that would cross the instruction
  budget is replayed per instruction with per-instruction budget checks
  (:class:`_Overrun` generates that replay on first use), so the trap
  raised (budget exhaustion vs. an earlier alignment fault inside the
  block) is exactly the reference VM's;
* counted loops additionally get a **batch plan** (``_BatchPlan``):
  on entry into the loop the plan computes the trip count from the live
  induction-variable value and — when the body is a supported streaming
  shape — executes ``trip - 1`` iterations as whole-array numpy slice
  operations (one numpy op per MIR instruction for the *entire batch*),
  then lets the final iteration run normally so every register, spill
  slot, and trap is materialized exactly as the reference interpreter
  would.  Any check that fails simply abandons the batch *before any
  memory write*, and normal per-block execution reproduces the
  reference behaviour, traps included.

Cycle parity with the reference interpreter is exact by construction:
a block's sum adds exactly the terms the reference adds; the x87
scalar-FP surcharge depends only on static instruction properties
(opcode + immediate type), so it folds into the block sums; and every
per-op cost is a small dyadic rational (a multiple of 0.5), so float
addition is exact and charging ``k * block_cycles`` equals the
sequential sum.  Fault injection is honored by construction: every
memory access in generated code checks the ``faults.mem_hook`` first,
and batch plans only run while no hook is installed.

Determinism: the generated source depends only on the MIR instruction
list, the target, and ``count_ops``.  Register names are dense
first-use slot indices (never the process-global ``VReg.id``), arrays
are numbered in declaration order, and interned constants are numbered
in first-use order — no process-global counters, no ``hash()`` — so two
fresh processes translating the same function emit byte-identical
source (the PR 8 warm-byte-identity invariant).
``tests/test_codegen_vm.py`` regression-tests this across processes.
"""

from __future__ import annotations

import operator
import threading
from collections import Counter

import numpy as np

from .. import faults
from ..ir.types import ScalarType
from ..targets.base import X87_FP_EXTRA, Target
from .memory import GUARD_BYTES
from .mir import MFunction, MInstr
from .vm import (
    _BIN_FUNCS,
    _CMP,
    _FP_SCALAR_OPS,
    _SCALAR_BIN,
    _SCALAR_UN,
    _UN_FUNCS,
    _VECTOR_BIN,
    _VECTOR_UN,
    _canon,
    RunResult,
    VMError,
)

__all__ = ["CodegenCode", "translate"]

#: Python comparison operators per cmp kind (generated inline).
_PYCMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

#: branch-predicate comparisons on invariant scalars in the batch walk;
#: ``a < b`` on numpy scalars dispatches to the same ufunc as
#: ``np.less`` and is substantially cheaper to call.
_CMP_OPERATORS = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}

#: shared immutable numpy scalars for predicate results (numpy scalars are
#: immutable, so reusing them is indistinguishable from fresh boxing).
_I8_ZERO = np.int8(0)
_I8_ONE = np.int8(1)

#: a batch must cover at least this many iterations to be worth taking:
#: the walk costs about one numpy call per body instruction, which a
#: trip must repay in iterations it skips.  Measured in one process, a
#: batch against the same trip run per iteration: the loops whose
#: iterations are cheapest to run one by one, sfir_fp's and dscal_fp's
#: on SSE (scaled addressing, no shl), break even at 8 (0.97-0.98x; 1.08
#: and 1.16x at 7), NEON's vector loops at 2; at 4, MMM_fp, atax, bicg
#: and gesummv on SSE ran 1.23-1.28x slower than at 32.
_MIN_BATCH = 8

#: upper bound on iterations per batch (bounds slice working-set size; a
#: longer trip runs as consecutive batches within one attempt).
_MAX_BATCH = 1 << 20

_INDENT = "    "


def _escape_pct(text: str) -> str:
    """Escape ``%`` for embedding in a %%-format template."""
    return text.replace("%", "%%")


# -- basic blocks ---------------------------------------------------------

#: control-transfer opcodes that end a basic block.
TERMINATORS = ("br", "brtrue", "brfalse", "ret")


def partition(instrs) -> tuple[list[int], dict[int, int]]:
    """Partition a flat instruction list into basic blocks.

    Leaders are the entry point, every ``label``, and every instruction
    following a terminator.  Returns ``(starts, block_at)`` where
    ``starts`` is the sorted list of leader indices and ``block_at`` maps
    a leader's instruction index to its block index.
    """
    n = len(instrs)
    leaders = {0}
    for i, ins in enumerate(instrs):
        if ins.op == "label":
            leaders.add(i)
        elif ins.op in TERMINATORS:
            leaders.add(i + 1)
    leaders.discard(n)
    starts = sorted(leaders)
    return starts, {s: bi for bi, s in enumerate(starts)}


def block_accounting(body, cost, x87: bool) -> tuple[float, dict[str, int]]:
    """Pre-aggregate one block's ``(cycle_sum, per_op_counts)``.

    Each instruction costs its opcode's cycles plus, on an x87 function,
    the scalar-FP surcharge, which depends only on the opcode and the
    immediate type and so folds into the sum at translate time.
    """
    cycles = 0.0
    op_counts: Counter[str] = Counter()
    for ins in body:
        c = cost.get(ins.op)
        if x87 and ins.op in _FP_SCALAR_OPS:
            t = ins.imm.get("type")
            if isinstance(t, ScalarType) and t.is_float:
                c += X87_FP_EXTRA
        cycles += c
        op_counts[ins.op] += 1
    return cycles, dict(op_counts)


def loop_depths(starts, instrs, labels, block_at) -> list[int]:
    """Static loop depth per block, from backward-branch ranges.

    Every branch from block ``b`` back to an earlier (or the same) block
    ``h`` marks the layout range ``[h, b]`` as one loop level.  The MIR
    produced by :mod:`repro.machine.flatten` is fully structured, so
    layout ranges coincide with loop bodies; the engine uses the depths
    only to order its dispatch chain (hot blocks first), so an imprecise
    depth can never affect correctness.
    """
    n = len(instrs)
    depths = [0] * len(starts)
    for bi, s in enumerate(starts):
        e = starts[bi + 1] if bi + 1 < len(starts) else n
        term = instrs[e - 1]
        if term.op in ("br", "brtrue", "brfalse"):
            tk = block_at[labels[term.imm["label"]]]
            if tk <= bi:
                for j in range(tk, bi + 1):
                    depths[j] += 1
    return depths


class _Ns:
    """Deterministic namespace for the generated module.

    Values that cannot be spelled as literals (dtypes, numpy scalar
    constants, tiled vector constants, shared op tables, batch plans) are
    bound to names numbered in first-use order with per-prefix counters,
    memoized by a value-derived key — never ``id()`` or ``hash()`` of an
    object, so the emitted source is process-independent.
    """

    def __init__(self):
        self.ns = {
            "_np": np,
            "_F": faults,
            "_VMError": VMError,
            "_i0": _I8_ZERO,
            "_i1": _I8_ONE,
        }
        self._memo: dict[tuple, str] = {}
        self._counters: dict[str, int] = {}

    def bind(self, prefix: str, key: tuple, value) -> str:
        name = self._memo.get((prefix, key))
        if name is None:
            i = self._counters.get(prefix, 0)
            self._counters[prefix] = i + 1
            name = f"{prefix}{i}"
            self._memo[(prefix, key)] = name
            self.ns[name] = value
        return name

    def bind_named(self, name: str, value) -> str:
        self.ns.setdefault(name, value)
        return name


class _Writer:
    """Indented source accumulator."""

    def __init__(self):
        self.lines: list[str] = []
        self.depth = 0

    def w(self, line: str = "") -> None:
        self.lines.append(_INDENT * self.depth + line if line else "")

    def block(self, lines: list[str]) -> None:
        pad = _INDENT * self.depth
        for line in lines:
            self.lines.append(pad + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Emitter:
    """Translates one ``MFunction`` into Python source + namespace.

    The per-op emission follows the reference interpreter's semantics
    (:mod:`repro.machine.vm`) statement for statement: the same op
    tables, the same ``dt.type(a)`` operand normalization, the same check
    order and the same messages, so values and traps are identical by
    construction.
    """

    def __init__(self, mfunc: MFunction, target: Target, count_ops: bool):
        self.mfunc = mfunc
        self.target = target
        self.count_ops = count_ops
        self.vs = target.vector_size
        self.names = _Ns()
        self._slot_of: dict[int, int] = {}
        self._arr_index = {
            slot.name: i for i, slot in enumerate(mfunc.arrays)
        }
        self.block_op_counts: list[dict] = []
        self.plans: list = []

    # -- naming ---------------------------------------------------------

    def _slot(self, reg) -> int:
        s = self._slot_of.get(reg.id)
        if s is None:
            s = self._slot_of[reg.id] = len(self._slot_of)
        return s

    def _dt(self, dt: np.dtype) -> str:
        return self.names.bind("_dt", (dt.str,), dt)

    def _T(self, dt: np.dtype) -> str:
        return self.names.bind("_T", (dt.str,), dt.type)

    def _guard(self, expr: str, dt: np.dtype) -> str:
        """The reference interpreter's scalar operand normalization
        (``dt.type(a)``) as an expression that skips the call when the
        operand already has the type."""
        T = self._T(dt)
        return f"({expr} if type({expr}) is {T} else {T}({expr}))"

    # -- per-instruction emission ---------------------------------------

    def emit(self, ins: MInstr) -> list[str]:  # noqa: C901
        op = ins.op
        imm = ins.imm
        d = f"r{self._slot(ins.dst)}" if ins.dst is not None else None
        ss = [f"r{self._slot(r)}" for r in ins.srcs]
        vs = self.vs

        if op == "const":
            v = imm["type"].numpy_dtype.type(imm["value"])
            k = self.names.bind(
                "_k", (imm["type"].numpy_dtype.str, repr(v)), v
            )
            return [f"{d} = {k}"]

        if op == "mov":
            return [f"{d} = {ss[0]}"]

        if op == "lea":
            scale = imm.get("scale", 1)
            offset = imm.get("offset", 0)
            if scale == 1 and offset == 0:
                return [f"{d} = int({ss[0]})"]
            if scale == 1:
                return [f"{d} = int({ss[0]}) + {offset}"]
            return [f"{d} = int({ss[0]}) * {scale} + {offset}"]

        if op in _SCALAR_BIN:
            dt = imm["type"].numpy_dtype
            a = self._guard(ss[0], dt)
            b = self._guard(ss[1], dt)
            if op == "add":
                return [f"{d} = {a} + {b}"]
            if op == "sub":
                return [f"{d} = {a} - {b}"]
            if op == "mul":
                return [f"{d} = {a} * {b}"]
            fn = self.names.bind_named(f"_f_{op}", _BIN_FUNCS[op])
            return [f"{d} = {fn}({a}, {b}, {self._dt(dt)})"]

        if op in _SCALAR_UN:
            dt = imm["type"].numpy_dtype
            fn = self.names.bind_named(f"_u_{op}", _UN_FUNCS[op])
            return [f"{d} = {fn}({self._guard(ss[0], dt)}, {self._dt(dt)})"]

        if op == "cmp":
            pyop = _PYCMP[imm["op"]]
            return [f"{d} = _i1 if {ss[0]} {pyop} {ss[1]} else _i0"]

        if op == "select":
            return [f"{d} = {ss[1]} if {ss[0]} else {ss[2]}"]

        if op == "cvt":
            to: ScalarType = imm["to"]
            T = self._T(to.numpy_dtype)
            if to.is_float:
                return [f"{d} = {T}({ss[0]})"]
            return [
                f"_v = {ss[0]}",
                "if isinstance(_v, (_np.floating, float)):",
                "    _v = int(_v)",
                f"{d} = {T}(_np.int64(_v))",
            ]

        if op == "load":
            ai = self._arr_index[imm["array"]]
            dt = imm["type"].numpy_dtype
            nb = dt.itemsize
            oob = (
                f"out-of-bounds access: offset %d, {nb} bytes (array of "
                f"%d data bytes + {GUARD_BYTES} guard)"
            )
            return [
                f"if _mh is not None: _mh('load', {imm['array']!r})",
                f"_o = int({ss[0]})",
                f"_s = _g{ai} + _o",
                f"if _s < 0 or _s + {nb} > _L{ai}:",
                f"    raise IndexError({oob!r} % (_o, _b{ai}.nbytes))",
                f"{d} = _w{ai}[_s : _s + {nb}].view({self._dt(dt)})[0]",
            ]

        if op == "store":
            ai = self._arr_index[imm["array"]]
            dt = imm["type"].numpy_dtype
            nb = dt.itemsize
            oob = f"out-of-bounds store: offset %d, {nb} bytes"
            return [
                f"if _mh is not None: _mh('store', {imm['array']!r})",
                f"_o = int({ss[0]})",
                f"_s = _g{ai} + _o",
                f"if _s < 0 or _s + {nb} > _L{ai}:",
                f"    raise IndexError({oob!r} % (_o,))",
                f"_w{ai}[_s : _s + {nb}].view({self._dt(dt)})[0] = {ss[1]}",
            ]

        if op == "spill_st":
            return [f"_sp[{imm['slot']!r}] = {ss[0]}"]

        if op == "spill_ld":
            return [f"{d} = _sp[{imm['slot']!r}]"]

        if op == "arr_overlap":
            i1 = self._arr_index[imm["a1"]]
            i2 = self._arr_index[imm["a2"]]
            return [f"{d} = _i1 if _w{i1} is _w{i2} else _i0"]

        if op == "arr_aligned":
            ai = self._arr_index[imm["array"]]
            return [f"{d} = _i1 if _g{ai} % {imm['align']} == 0 else _i0"]

        return self._emit_vector(ins, op, imm, d, ss, vs)

    def _emit_vector(self, ins, op, imm, d, ss, vs):  # noqa: C901
        if op == "vconst":
            elem: ScalarType = imm["elem"]
            lanes = imm["lanes"]
            values = imm["values"]
            reps = -(-lanes // len(values))
            v = np.tile(np.asarray(values, dtype=elem.numpy_dtype), reps)[
                :lanes
            ].copy()
            k = self.names.bind(
                "_K",
                (elem.numpy_dtype.str, lanes, repr(tuple(values))),
                v,
            )
            return [f"{d} = {k}"]

        if op == "vsplat":
            dt = imm["elem"].numpy_dtype
            return [
                f"{d} = _np.full({imm['lanes']}, {ss[0]}, "
                f"dtype={self._dt(dt)})"
            ]

        if op == "vaffine":
            dt = imm["elem"].numpy_dtype
            T = self._T(dt)
            idx = self.names.bind(
                "_X", (dt.str, imm["lanes"]),
                np.arange(imm["lanes"], dtype=dt),
            )
            return [
                f"{d} = ({T}({ss[0]}) + {idx} * {T}({ss[1]}))"
                f".astype({self._dt(dt)})"
            ]

        if op in ("vload_a", "vload_u", "vload_fa"):
            name = imm["array"]
            ai = self._arr_index[name]
            dt = imm["elem"].numpy_dtype
            nb = dt.itemsize * imm["lanes"]
            oob = (
                f"out-of-bounds access: offset %d, {nb} bytes (array of "
                f"%d data bytes + {GUARD_BYTES} guard)"
            )
            lines = [
                f"if _mh is not None: _mh({op!r}, {name!r})",
                f"_o = int({ss[0]})",
            ]
            if op == "vload_fa":
                lines.append(f"_o -= (_g{ai} + _o) % {vs}")
            lines.append(f"_s = _g{ai} + _o")
            if op == "vload_a":
                mis = (
                    f"aligned vector load from misaligned address (array "
                    f"{_escape_pct(name)}, offset %d, addr%%{vs}=%d)"
                )
                lines += [
                    f"if _s % {vs} != 0:",
                    f"    raise _VMError({mis!r} % (_o, _s % {vs}))",
                ]
            lines += [
                f"if _s < 0 or _s + {nb} > _L{ai}:",
                f"    raise IndexError({oob!r} % (_o, _b{ai}.nbytes))",
                f"{d} = _w{ai}[_s : _s + {nb}].view({self._dt(dt)}).copy()",
            ]
            return lines

        if op in ("vstore_a", "vstore_u"):
            name = imm["array"]
            ai = self._arr_index[name]
            lines = [
                f"if _mh is not None: _mh({op!r}, {name!r})",
                f"_o = int({ss[0]})",
                f"_s = _g{ai} + _o",
            ]
            if op == "vstore_a":
                mis = (
                    f"aligned vector store to misaligned address (array "
                    f"{_escape_pct(name)}, offset %d)"
                )
                lines += [
                    f"if _s % {vs} != 0:",
                    f"    raise _VMError({mis!r} % (_o,))",
                ]
            oob = "out-of-bounds store: offset %d, %d bytes"
            lines += [
                f"_v = {ss[1]}",
                "if not _v.flags['C_CONTIGUOUS']:",
                "    _v = _np.ascontiguousarray(_v)",
                "_u = _v.view(_np.uint8)",
                f"if _s < 0 or _s + _u.size > _L{ai}:",
                f"    raise IndexError({oob!r} % (_o, _u.size))",
                f"_w{ai}[_s : _s + _u.size] = _u",
            ]
            return lines

        if op == "lvsr":
            ai = self._arr_index[imm["array"]]
            return [f"{d} = _np.int64((_g{ai} + int({ss[0]})) % {vs})"]

        if op == "vperm":
            return [
                f"_v = _np.ascontiguousarray({ss[0]}).view(_np.uint8)",
                f"_u = _np.ascontiguousarray({ss[1]}).view(_np.uint8)",
                f"_t = int({ss[2]})",
                f"{d} = _np.concatenate([_v, _u])[_t : _t + _v.size]"
                f".view({ss[0]}.dtype).copy()",
            ]

        if op in _VECTOR_BIN:
            dt = imm["elem"].numpy_dtype
            dtn = self._dt(dt)
            canon = _canon(op)
            if canon in ("add", "sub", "mul"):
                sym = {"add": "+", "sub": "-", "mul": "*"}[canon]
                return [
                    f"_r = {ss[0]} {sym} {ss[1]}",
                    f"{d} = _r if _r.dtype == {dtn} "
                    f"else _np.asarray(_r, dtype={dtn})",
                ]
            fn = self.names.bind_named(f"_f_{canon}", _BIN_FUNCS[canon])
            return [
                f"{d} = _np.asarray({fn}({ss[0]}, {ss[1]}, {dtn}), "
                f"dtype={dtn})"
            ]

        if op in _VECTOR_UN:
            dt = imm["elem"].numpy_dtype
            dtn = self._dt(dt)
            canon = _canon(op)
            fn = self.names.bind_named(f"_u_{canon}", _UN_FUNCS[canon])
            return [f"{d} = _np.asarray({fn}({ss[0]}, {dtn}), dtype={dtn})"]

        if op == "vcmp":
            fn = self.names.bind_named(f"_c_{imm['op']}", _CMP[imm["op"]])
            return [f"{d} = {fn}({ss[0]}, {ss[1]}).astype(_np.int8)"]

        if op == "vselect":
            return [
                f"{d} = _np.where({ss[0]}.astype(bool), {ss[1]}, {ss[2]})"
            ]

        if op == "vcvt":
            to = imm["to"]
            dtn = self._dt(to.numpy_dtype)
            if to.is_float:
                return [f"{d} = {ss[0]}.astype({dtn})"]
            return [f"{d} = _np.trunc({ss[0]}).astype({dtn})"]

        if op == "vinsert0":
            return [
                f"_v = {ss[0]}.copy()",
                f"_v[0] = _v.dtype.type({ss[1]})",
                f"{d} = _v",
            ]

        if op == "vreduce":
            kind = imm["kind"]
            if kind == "plus":
                return [
                    f"_v = {ss[0]}",
                    f"{d} = _v.dtype.type(_np.add.reduce(_v))",
                ]
            if kind == "min":
                return [f"{d} = {ss[0]}.min()"]
            return [f"{d} = {ss[0]}.max()"]

        if op == "vdot":
            dtn = self._dt(imm["elem"].numpy_dtype)
            return [
                f"_v = {ss[0]}.astype({dtn}) * {ss[1]}.astype({dtn})",
                f"{d} = ({ss[2]} + _v.reshape(-1, 2).sum(axis=1, "
                f"dtype={dtn})).astype({dtn})",
            ]

        if op == "vwidenmul":
            dtn = self._dt(imm["elem"].numpy_dtype)
            sl = "0 : _m // 2" if imm["half"] == "lo" else "_m // 2 : _m"
            return [
                f"_v = {ss[0]}",
                "_m = _v.size",
                f"{d} = _v[{sl}].astype({dtn}) * {ss[1]}[{sl}]"
                f".astype({dtn})",
            ]

        if op == "vpack":
            dtn = self._dt(imm["elem"].numpy_dtype)
            return [
                f"{d} = _np.concatenate([{ss[0]}, {ss[1]}])"
                f".astype({dtn})"
            ]

        if op == "vunpack":
            dtn = self._dt(imm["elem"].numpy_dtype)
            sl = "0 : _m // 2" if imm["half"] == "lo" else "_m // 2 : _m"
            return [
                f"_v = {ss[0]}",
                "_m = _v.size",
                f"{d} = _v[{sl}].astype({dtn})",
            ]

        if op == "vextract":
            parts = ", ".join(ss)
            return [
                f"{d} = _np.concatenate([{parts}])"
                f"[{imm['offset']}::{imm['stride']}].copy()"
            ]

        if op == "vinterleave":
            sl = "0 : _m // 2" if imm["half"] == "lo" else "_m // 2 : _m"
            return [
                f"_v = {ss[0]}",
                f"_u = {ss[1]}",
                "_m = _v.size",
                "_x = _np.empty(_m, dtype=_v.dtype)",
                f"_x[0::2] = _v[{sl}]",
                f"_x[1::2] = _u[{sl}]",
                f"{d} = _x",
            ]

        if op == "call_lib":
            # Library fallback: emit the emulated idiom's statements; the
            # block accounting already charged call_lib's cost and counted
            # the op as "call_lib", exactly like the reference VM.
            return self.emit(MInstr(imm["sem"], ins.dst, ins.srcs, imm))

        raise VMError(f"unknown opcode {op!r}")

    # -- function assembly ----------------------------------------------

    def _ret(self, val: str) -> str:
        if self.count_ops:
            return f"return ({val}, _cy, _n, _bc)"
        return f"return ({val}, _cy, _n)"

    def build(self) -> tuple[str, dict]:
        """Emit the whole function; returns ``(source, namespace)``."""
        mfunc = self.mfunc
        # Dense register slots: parameters first, then first-use order.
        for _name, _type, reg in mfunc.scalar_params:
            self._slot(reg)
        for ins in mfunc.instrs:
            if ins.op == "label":
                continue
            if ins.op in TERMINATORS:
                if ins.srcs:
                    self._slot(ins.srcs[0])
                continue
            if ins.dst is not None:
                self._slot(ins.dst)
            for r in ins.srcs:
                self._slot(r)

        w = _Writer()
        params = [f"r{self._slot(reg)}" for _, _, reg in mfunc.scalar_params]
        bufs = [f"_b{i}" for i in range(len(mfunc.arrays))]
        sig = ", ".join(["_maxi", "_sp"] + params + bufs)
        w.w(f"def _kernel({sig}):")
        w.depth += 1
        instrs = mfunc.instrs
        if not instrs:
            w.w(
                "return (None, 0.0, 0, [])" if self.count_ops
                else "return (None, 0.0, 0)"
            )
            return w.source(), self.names.ns
        w.w("_mh = _F.mem_hook")
        for i in range(len(mfunc.arrays)):
            w.w(f"_w{i} = _b{i}._raw")
            w.w(f"_g{i} = _b{i}._base")
            w.w(f"_L{i} = _w{i}.shape[0]")
        w.w(f"_bufs = ({''.join(b + ', ' for b in bufs)})")
        w.w("_cy = 0.0")
        w.w("_n = 0")

        starts, block_at = partition(instrs)
        nblocks = len(starts)
        n = len(instrs)
        labels = mfunc.labels()
        cost = self.target.cost
        x87 = bool(mfunc.meta.get("x87"))

        if self.count_ops:
            w.w(f"_bc = [0] * {nblocks}")
        w.w("_bi = 0")

        bodies: list[list] = []
        accounting: list[tuple[int, float]] = []
        for bi, s in enumerate(starts):
            e = starts[bi + 1] if bi + 1 < nblocks else n
            body = instrs[s:e]
            bodies.append(body)
            cyc, oc = block_accounting(body, cost, x87)
            accounting.append((len(body), cyc))
            self.block_op_counts.append(oc)

        sites = self._find_plans(bodies, labels, block_at, accounting)
        for bi in sites:
            w.w(f"_a{bi} = _mh is None")
        self.names.bind_named("_over", _Overrun(self, bodies, accounting))

        depths = loop_depths(starts, instrs, labels, block_at)
        order = sorted(range(nblocks), key=lambda k: (-depths[k], k))

        w.w(
            "with _np.errstate(over='ignore', invalid='ignore', "
            "divide='ignore'):"
        )
        w.depth += 1
        w.w("while 1:")
        w.depth += 1
        for pos, bi in enumerate(order):
            w.w(("if" if pos == 0 else "elif") + f" _bi == {bi}:")
            w.depth += 1
            if bi in sites:
                self._emit_attempt(w, bi, sites[bi])
            term = self._emit_block(w, bi, bodies[bi], accounting[bi])
            if bi - 1 in sites:
                # Loop rotation: a planned body ends with its header's
                # own check and branch, so the plan is tried once per
                # entry into the loop, never once per iteration.
                hb = bi - 1
                term = self._emit_block(w, hb, bodies[hb], accounting[hb])
                self._emit_terminator(w, term, hb, labels, block_at, nblocks)
            else:
                self._emit_terminator(w, term, bi, labels, block_at, nblocks)
            w.depth -= 1
        w.w("else:")
        w.depth += 1
        w.w("raise AssertionError('unreachable block %r' % (_bi,))")
        return w.source(), self.names.ns

    def _emit_attempt(self, w, bi, site):
        """Call the plan on entry into loop ``bi``, unless the trip left
        is too short for any batch or an earlier entry of this run
        found the loop's strides unbatchable.  ``_a<bi>`` holds that
        run's verdict: false under a fault hook, and once the plan
        answers False.  The inline test sees the same IV, bound and
        step as the plan, so it skips only calls that would bail on
        ``_MIN_BATCH``; a value it cannot read (an unbound register, a
        missing spill slot, a value ``int()`` rejects) skips the call
        and leaves the loop to run normally."""
        pname, plan = site
        in_regs = "".join(f"r{s}, " for s in plan.in_slots)
        w.w(f"if _a{bi}:")
        w.depth += 1
        w.w("try:")
        w.w(_INDENT + f"_t = ({pname}.attempt(({in_regs}), _sp, _n, "
            f"_maxi, _bufs) if {self._trip_test(plan)} else None)")
        w.w("except (NameError, KeyError, TypeError, ValueError, "
            "OverflowError):")
        w.w(_INDENT + "_t = None")
        w.w("if _t is False:")
        w.w(_INDENT + f"_a{bi} = False")
        w.w("elif _t is not None:")
        w.depth += 1
        w.w(f"r{plan.iv_slot} = _t[0]")
        for i, (rid, _pos, _j) in enumerate(plan.accs):
            w.w(f"r{self._slot_of[rid]} = _t[{4 + i}]")
        w.w("_n += _t[1]")
        w.w("_cy += _t[2]")
        if self.count_ops:
            w.w(f"_bc[{bi}] += _t[3]")
            w.w(f"_bc[{bi + 1}] += _t[3]")
        w.depth -= 2

    def _trip_test(self, plan) -> str:
        """Python test, true when more than ``_MIN_BATCH`` iterations are
        left: iteration ``_MIN_BATCH`` (counting from 0) still passes the
        header's compare.  Exact Python ints, so nothing wraps."""
        if plan.bound_slot is None:
            bound = f"r{self._slot_of[plan.bound_id]}"
        else:
            bound = f"_sp[{plan.bound_slot!r}]"
        skind, sval = plan.step_src
        m = plan.min_batch
        if skind == "const":
            far = f"int(r{plan.iv_slot}) + {m * sval}"
        else:
            step = (f"r{self._slot_of[sval]}" if skind == "reg"
                    else f"_sp[{sval!r}]")
            far = f"int(r{plan.iv_slot}) + {m} * int({step})"
        return f"{far} {_PYCMP[plan.cmp_kind]} int({bound})"

    def _emit_block(self, w, bi, body, acct):
        """Emit block ``bi``'s accounting and statements; returns its
        terminator (None for a fallthrough).  A block that would pass
        the budget hands the frame's locals to ``_over``, which replays
        it per instruction (:class:`_Overrun`)."""
        count, cyc = acct
        w.w(f"_n += {count}")
        w.w("if _n > _maxi:")
        w.w(_INDENT + f"_over({bi}, locals())")
        w.w(f"_cy += {cyc!r}")
        if self.count_ops:
            w.w(f"_bc[{bi}] += 1")
        term = None
        for ins in body:
            if ins.op == "label":
                continue
            if ins.op in TERMINATORS:
                term = ins
                continue
            w.block(self.emit(ins))
        return term

    def replay_source(self, bi, body, count) -> str:
        """Source of ``_replay(env)``: block ``bi`` run one instruction at
        a time from the frame locals ``env``, with a budget check before
        each, so it raises the reference VM's trap, budget or earlier
        fault.  A register the frame never bound stays unbound here
        too."""
        w = _Writer()
        w.w("def _replay(_e):")
        w.depth += 1
        w.w(f"_n = _e['_n'] - {count}")
        names = ["_maxi", "_sp", "_mh"]
        for i in range(len(self.mfunc.arrays)):
            names += [f"_w{i}", f"_g{i}", f"_L{i}", f"_b{i}"]
        for name in names:
            w.w(f"{name} = _e[{name!r}]")
        regs = []
        for ins in body:
            for r in ins.srcs:
                reg = f"r{self._slot(r)}"
                if reg not in regs:
                    regs.append(reg)
                    w.w(f"if {reg!r} in _e: {reg} = _e[{reg!r}]")
        msg = (
            "instruction budget exceeded in "
            f"{_escape_pct(self.mfunc.name)} (%d)"
        )
        for ins in body:
            w.w("_n += 1")
            w.w("if _n > _maxi:")
            w.w(_INDENT + f"raise _VMError({msg!r} % (_maxi,))")
            if ins.op != "label" and ins.op not in TERMINATORS:
                w.block(self.emit(ins))
        return w.source()

    def _emit_terminator(self, w, term, bi, labels, block_at, nblocks):
        none_ret = self._ret("None")
        if term is None:  # fallthrough
            if bi + 1 < nblocks:
                w.w(f"_bi = {bi + 1}")
                w.w("continue")
            else:
                w.w(none_ret)
            return
        op = term.op
        if op == "br":
            w.w(f"_bi = {block_at[labels[term.imm['label']]]}")
            w.w("continue")
            return
        if op == "ret":
            if term.srcs:
                w.w(self._ret(f"r{self._slot(term.srcs[0])}"))
            else:
                w.w(none_ret)
            return
        tk = block_at[labels[term.imm["label"]]]
        fk = bi + 1 if bi + 1 < nblocks else -1
        s = f"r{self._slot(term.srcs[0])}"
        if fk >= 0:
            if op == "brtrue":
                w.w(f"_bi = {tk} if {s} else {fk}")
            else:  # brfalse
                w.w(f"_bi = {fk} if {s} else {tk}")
            w.w("continue")
            return
        # Falling through would run off the end: halt with a None return.
        if op == "brtrue":
            w.w(f"if {s}:")
            w.w(_INDENT + f"_bi = {tk}")
            w.w(_INDENT + "continue")
            w.w(none_ret)
        else:  # brfalse: truthy predicate falls through (halts)
            w.w(f"if {s}:")
            w.w(_INDENT + none_ret)
            w.w(f"_bi = {tk}")
            w.w("continue")

    # -- batch-plan discovery -------------------------------------------

    def _find_plans(self, bodies, labels, block_at, accounting):
        """Detect batchable counted loops; ``{header_bi: site}``.

        A site is ``(plan_name, plan)``; the loop's body is block
        ``header_bi + 1``.
        """
        sites = {}
        for bi in range(len(bodies) - 1):
            plan = self._plan_for(bi, bodies, labels, block_at, accounting)
            if plan is None:
                continue
            pname = self.names.bind("_P", (bi,), plan)
            self.plans.append(plan)
            sites[bi] = (pname, plan)
        return sites

    def _plan_for(self, bi, bodies, labels, block_at, accounting):
        """Build a ``_BatchPlan`` for header block ``bi`` if the loop has
        the canonical counted shape ``[label, cmp, brfalse]`` (or
        ``[label, spill_ld, cmp, brfalse]`` reloading a spilled bound) +
        a single body block of supported ops branching back; else None."""
        header = bodies[bi]
        reload = None
        if len(header) == 4 and header[1].op == "spill_ld":
            lab, reload, cmp_ins, brf = header
        elif len(header) == 3:
            lab, cmp_ins, brf = header
        else:
            return None
        if lab.op != "label" or cmp_ins.op != "cmp" or brf.op != "brfalse":
            return None
        kind = cmp_ins.imm["op"]
        if kind not in ("lt", "le", "gt", "ge"):
            return None
        if not brf.srcs or brf.srcs[0].id != cmp_ins.dst.id:
            return None
        body = bodies[bi + 1]
        if not body or body[0].op == "label":
            return None
        last = body[-1]
        if last.op != "br":
            return None
        if block_at[labels[last.imm["label"]]] != bi:
            return None

        steps = body[:-1]
        for ins in steps:
            if ins.op not in _PLAN_OPS:
                return None

        writes: dict[int, list] = {}
        for pos, ins in enumerate(steps):
            if ins.dst is not None:
                writes.setdefault(ins.dst.id, []).append((pos, ins))

        ra, rb = cmp_ins.srcs
        a_w = ra.id in writes
        if a_w == (rb.id in writes):
            return None
        iv, bound = (ra, rb) if a_w else (rb, ra)
        if not a_w:
            kind = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}[kind]
        if reload is not None and reload.dst.id != bound.id:
            return None
        wl = writes[iv.id]
        if len(wl) != 1:
            return None
        add_pos, add_ins = wl[0]
        if add_ins.op != "add":
            return None
        ivdt = add_ins.imm["type"].numpy_dtype
        if ivdt.kind not in "iu":
            return None
        s0, s1 = add_ins.srcs
        if s0.id == iv.id and s1.id != iv.id:
            step_reg = s1
        elif s1.id == iv.id and s0.id != iv.id:
            step_reg = s0
        else:
            return None

        spill_sts = {
            ins.imm["slot"] for ins in steps if ins.op == "spill_st"
        }
        if step_reg.id not in writes:
            step_src = ("reg", step_reg.id)
        else:
            swl = writes[step_reg.id]
            if len(swl) != 1 or swl[0][0] > add_pos:
                return None
            sins = swl[0][1]
            if sins.op == "const":
                step_src = (
                    "const",
                    int(sins.imm["type"].numpy_dtype.type(
                        sins.imm["value"]
                    )),
                )
            elif (sins.op == "spill_ld"
                  and sins.imm["slot"] not in spill_sts):
                step_src = ("spill", sins.imm["slot"])
            else:
                return None
        bound_slot = None
        if reload is not None:
            bound_slot = reload.imm["slot"]
            if bound_slot in spill_sts:
                return None

        readers: dict[int, list] = {}
        for pos, ins in enumerate(steps):
            for j, r in enumerate(ins.srcs):
                readers.setdefault(r.id, []).append((pos, j))

        # Only the IV and accumulators may be read before they are
        # written (any other loop-carried register or spill slot defeats
        # batching).
        accs: list[tuple[int, int, int]] = []
        seen: set[int] = set()
        seen_spills: set = set()
        for pos, ins in enumerate(steps):
            for j, r in enumerate(ins.srcs):
                if r.id in writes and r.id not in seen and r.id != iv.id:
                    if not _is_accumulator(r.id, pos, j, steps, writes,
                                           readers):
                        return None
                    accs.append((r.id, pos, j))
            if ins.op == "spill_ld":
                key = ins.imm["slot"]
                if key in spill_sts and key not in seen_spills:
                    return None
            elif ins.op == "spill_st":
                seen_spills.add(ins.imm["slot"])
            if ins.dst is not None:
                seen.add(ins.dst.id)

        # Live values the attempt takes from the frame: loop invariants,
        # the IV, the bound unless the header reloads it, accumulators.
        in_ids: list[int] = []
        for ins in steps:
            for r in ins.srcs:
                if r.id not in writes and r.id not in in_ids:
                    in_ids.append(r.id)
        for rid in [iv.id, bound.id] + [a for a, _, _ in accs]:
            if rid not in in_ids:
                in_ids.append(rid)
        if bound_slot is not None:
            in_ids.remove(bound.id)
        pairs = sorted((self._slot_of[rid], rid) for rid in in_ids)

        hc, hcyc = accounting[bi]
        bc, bcyc = accounting[bi + 1]
        return _BatchPlan(
            body=steps,
            iv_id=iv.id,
            iv_slot=self._slot_of[iv.id],
            bound_id=bound.id,
            bound_slot=bound_slot,
            step_src=step_src,
            cmp_kind=kind,
            ivdt=ivdt,
            in_slots=[s for s, _ in pairs],
            in_ids=[rid for _, rid in pairs],
            accs=accs,
            arr_index=self._arr_index,
            vs=self.vs,
            per_iter_count=hc + bc,
            per_iter_cycles=hcyc + bcyc,
        )


class _Overrun:
    """A block's per-instruction budget replay, built on first overrun.

    Generated code calls ``_over(bi, locals())`` only when block ``bi``
    would pass the budget, which a run does at most once.  The replay is
    emitted by the same :meth:`_Emitter.emit` as the block itself,
    compiled once per block under a lock (one translation serves every
    thread) and run on the frame's locals; it always raises.  Keeping it
    out of the main source is what keeps ``compile()`` short.
    """

    def __init__(self, emitter, bodies, accounting):
        self._emitter = emitter
        self._bodies = bodies
        self._counts = [count for count, _cyc in accounting]
        self._replays: dict[int, object] = {}
        self._lock = threading.Lock()

    def __call__(self, bi, env):
        with self._lock:
            fn = self._replays.get(bi)
            if fn is None:
                em = self._emitter
                src = em.replay_source(bi, self._bodies[bi], self._counts[bi])
                code = compile(
                    src,
                    f"<codegen-replay:{em.mfunc.name}:{em.target.name}:{bi}>",
                    "exec",
                )
                scope: dict = {}
                exec(code, em.names.ns, scope)
                fn = self._replays[bi] = scope["_replay"]
        fn(env)
        raise AssertionError("unreachable: overrun block must trap")


#: ops the batch walk understands; anything else in a loop body disables
#: the plan at translate time (realignment permutes, interleaves,
#: horizontal reductions, library calls, ...).  Loop-carried sums are
#: fine when they have an accumulator's shape (:func:`_is_accumulator`);
#: ``vdot`` is walked only as one.
_PLAN_OPS = (
    _SCALAR_BIN | _SCALAR_UN | _VECTOR_BIN | _VECTOR_UN | {
        "const", "mov", "lea", "cmp", "select", "cvt", "load", "store",
        "spill_ld", "spill_st", "arr_overlap", "arr_aligned",
        "vconst", "vsplat", "vaffine", "vcmp", "vselect", "vcvt",
        "vload_a", "vload_u", "vstore_a", "vstore_u",
        "vdot", "vwidenmul", "vpack", "vunpack",
    }
)

#: accumulating ops and the operand positions that may carry the sum.
_ACC_OPERANDS = {"add": (0, 1), "vadd": (0, 1), "vdot": (2,)}


def _is_accumulator(acc, pos, j, steps, writes, readers) -> bool:
    """Is register ``acc``, read by operand ``j`` of ``steps[pos]`` before
    the body writes it, a loop-carried accumulator?

    It must be read exactly once, as the sum operand of an ``add``,
    ``vadd`` or ``vdot``, and written exactly once, by that op or by a
    chain of single-use ``mov``\\ s from its result.  Any other reader of
    the sum (say, a prefix sum that stores its running value) keeps the
    loop sequential.
    """
    op = steps[pos].op
    if readers[acc] != [(pos, j)] or j not in _ACC_OPERANDS.get(op, ()):
        return False
    cur, at = steps[pos].dst.id, pos
    while len(writes[cur]) == 1:
        if cur == acc:
            return True
        users = readers.get(cur, ())
        if len(users) != 1:
            return False
        at2 = users[0][0]
        if at2 <= at or steps[at2].op != "mov":
            return False
        cur, at = steps[at2].dst.id, at2
    return False


class _Bail(Exception):
    """Abandon the current batch attempt (before any memory write).

    ``dead=True`` marks conditions that are structural (unsupported node
    kinds or dtype shapes), so the plan stops attempting in every later
    run.  ``fixed=True`` marks a strided access or an overlap between
    two accesses: what decides them is the distance between addresses,
    which comes from the step and the values a run sets before the loop
    (a row length, a stencil's offset), so the generated code stops
    trying the loop for the rest of that run, never for another.  Other
    conditions (trip too short, misalignment, out-of-bounds, a NaN
    addend) retry on the next entry into the loop; either way normal
    per-block execution reproduces the reference behaviour, traps
    included.
    """

    def __init__(self, dead: bool = False, fixed: bool = False):
        super().__init__()
        self.dead = dead
        self.fixed = fixed


class _WalkState:
    """Per-walk scratch: the batch width ``k``, the run's array buffers
    (in declaration order) and spill dict, the accumulators' running
    values, the walk's own spill slots, the loads and deferred stores it
    saw, and a lazy iota."""

    __slots__ = ("k", "bufs", "sp", "accs", "wsp", "loads", "stores", "_idx")

    def __init__(self, k: int, bufs: tuple, sp: dict, accs: list):
        self.k = k
        self.bufs = bufs
        self.sp = sp
        self.accs = accs
        self.wsp: dict = {}
        self.loads: list = []
        self.stores: list = []
        self._idx = None

    def idx(self):
        if self._idx is None:
            self._idx = np.arange(self.k, dtype=np.int64)
        return self._idx


_I64_MIN = int(np.iinfo(np.int64).min)
_I64_MAX = int(np.iinfo(np.int64).max)

#: node of an accumulating op's result: only its ``mov`` chain back to
#: the accumulator reads it, and a ``mov`` just copies the node.
_SUM = ("s",)

#: the walk's arithmetic for the ops Python spells as operators.
_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _bounds(dt):
    """``(min, max)`` of an integer dtype as Python ints; None for a
    float."""
    if dt.kind in "iu":
        info = np.iinfo(dt)
        return int(info.min), int(info.max)
    return None


def _binary(op, dt):
    """``fn(a, b)`` computing canonical binary op ``op`` in ``dt``."""
    arith = _ARITH.get(op)
    if arith is not None:
        return arith
    fn = _BIN_FUNCS[op]
    return lambda a, b: fn(a, b, dt)


def _cast_inv(v, T):
    """The reference interpreter's scalar operand normalization
    (``T(v)``), skipped when ``v`` already has the type."""
    return v if type(v) is T else T(v)


def _mat(node, st):
    """Materialize a node to a numpy operand (leading axis ``k`` for
    batch nodes; invariants broadcast)."""
    kind = node[0]
    if kind == "i" or kind == "b":
        return node[1]
    _, base, coef, ndt = node
    hi = base + (st.k - 1) * coef
    if not (_I64_MIN <= base <= _I64_MAX and _I64_MIN <= hi <= _I64_MAX):
        raise _Bail()
    arr = st.idx() * coef + base
    if ndt is not None and ndt != arr.dtype:
        arr = arr.astype(ndt)
    return arr


def _aff_or_none(base, coef, dt, lo, hi, k):
    """Affine node if every value fits ``dt`` (bounds ``lo``..``hi``)
    exactly, else None (the caller falls back to materialized batch
    arithmetic, which wraps elementwise exactly like the sequential
    engines)."""
    last = base + (k - 1) * coef
    if lo <= base <= hi and lo <= last <= hi:
        return ("a", base, coef, dt)
    return None


def _int_operand(node, T, lo, hi, k):
    """Node as exact ``(base, coef)`` Python ints whose values survive a
    cast to ``T`` (bounds ``lo``..``hi``) unchanged; None if not
    integer-affine under it."""
    if node[0] == "i":
        v = node[1]
        if not isinstance(v, (int, np.integer)):
            return None
        iv = int(v)
        if type(v) is not T and not (lo <= iv <= hi):
            return None
        return (iv, 0)
    if node[0] == "a":
        _, b, c, _ndt = node
        last = b + (k - 1) * c
        if lo <= b <= hi and lo <= last <= hi:
            return (b, c)
        return None
    return None


def _affine_fold(op, dt):
    """``fn(a, b)`` giving the exact ``(base, coef)`` of integer op
    ``op`` on two ``(base, coef)`` operands, or None when the result is
    not affine in the iteration index."""
    if op == "add":
        return lambda a, b: (a[0] + b[0], a[1] + b[1])
    if op == "sub":
        return lambda a, b: (a[0] - b[0], a[1] - b[1])
    if op == "shl":
        # Targets without scaled addressing (NEON, AltiVec, the Mono
        # JIT) scale indices by shl: an invariant count c is a multiply
        # by 2^c, masked like _shl; one that would wrap stays None.
        mask = dt.itemsize * 8 - 1

        def shl(a, b):
            if b[1]:
                return None
            c = b[0] & mask
            return (a[0] << c, a[1] << c)
        return shl

    def mul(a, b):
        if a[1] == 0:
            return (a[0] * b[0], a[0] * b[1])
        if b[1] == 0:
            return (a[0] * b[0], a[1] * b[0])
        return None
    return mul


def _addr(node):
    """Address operand as exact ``(base, coef)`` Python ints."""
    if node[0] == "i":
        v = node[1]
        if not isinstance(v, (int, np.integer)):
            raise _Bail(dead=True)
        return (int(v), 0)
    if node[0] == "a":
        return (int(node[1]), int(node[2]))
    raise _Bail(dead=True)


def _vec_operand(node):
    """Vector operand: invariant or batch value; affine makes no sense
    lane-wise."""
    if node[0] == "i" or node[0] == "b":
        return node[1]
    raise _Bail(dead=True)


def _batch_scalar(node, dt, bounds, st):
    """Emulate the reference interpreter's per-element ``T(a)``
    normalization for a whole batch (``bounds``: ``dt``'s, as
    :func:`_bounds` gives them)."""
    kind = node[0]
    if kind == "i":
        return _cast_inv(node[1], dt.type)
    if kind == "b":
        arr = node[1]
        if arr.dtype != dt:
            arr = arr.astype(dt)
        return arr
    _, base, coef, ndt = node
    hi = base + (st.k - 1) * coef
    if not (_I64_MIN <= base <= _I64_MAX and _I64_MIN <= hi <= _I64_MAX):
        raise _Bail()
    if ndt is None:
        # Python-int space: the sequential engines cast each value
        # through T(), which *raises* out of range instead of wrapping —
        # bail and let them.
        if bounds is not None:
            if not (bounds[0] <= base <= bounds[1]
                    and bounds[0] <= hi <= bounds[1]):
                raise _Bail()
        elif max(abs(base), abs(hi)) >= 2 ** 53:
            raise _Bail()  # int->float double-rounding differences
    arr = st.idx() * coef + base
    if ndt is not None and ndt != arr.dtype:
        arr = arr.astype(ndt)
    if arr.dtype != dt:
        arr = arr.astype(dt)
    return arr


def _store_payload(node, bounds, st):
    """Payload for a batched scalar store; must commit without any
    possibility of raising mid-commit."""
    p = _mat(node, st)
    if isinstance(p, (np.ndarray, np.generic)):
        return p
    if isinstance(p, int):
        if bounds is not None:
            if bounds[0] <= p <= bounds[1]:
                return p
            raise _Bail()  # sequential store raises OverflowError
        if abs(p) >= 2 ** 53:
            raise _Bail()
        return p
    raise _Bail(dead=True)


def _frozen(arr):
    """``arr``, read-only: one array a plan hands to every walk."""
    arr.flags.writeable = False
    return arr


def _constant(dst, node):
    """Walk step binding register ``dst`` to the invariant ``node``."""
    def constant(env, st):
        env[dst] = node
    return constant


class _BatchPlan:
    """Batched execution of one counted loop.

    Built at translate time from a canonical header (``label; cmp;
    brfalse``, or ``label; spill_ld; cmp; brfalse`` when the bound is
    reloaded from a slot the body never stores) plus a single body block
    that branches back.  The generated code rotates the loop (the body
    ends with its own copy of the header), so :meth:`attempt` runs once
    per entry into the loop.  It abstractly interprets the body once over
    nodes —

    * ``("i", value)`` — loop-invariant value,
    * ``("a", base, coef, dtype)`` — affine in the iteration index
      (``dtype is None`` for Python-int address space, as after ``lea``),
    * ``("b", array)`` — batch array with leading axis ``k``

    — turning each supported MIR instruction into at most one whole-batch
    numpy operation.  Each instruction is compiled once, when the plan is
    built, into a step closure that holds its static operands (registers,
    dtype, integer bounds, widths, buffer index, the op's function), so a
    walk is one call per instruction.  Loads slice ``k`` strided elements
    at once; stores are deferred, cross-checked against every load/store
    for unsafe overlap, and committed in program order only after the
    whole walk succeeded, so a bail can never leave memory half-written.
    An accumulator (``accs``: ``(register, op position, operand)``) is
    the one loop-carried value allowed: its op's ``k`` addends are
    computed as one batch and folded into the live sum with
    ``np.add.accumulate`` in iteration order, so a float sum rounds
    exactly as the sequential loop's.  The walk covers ``trip - 1``
    iterations (clipped to the remaining instruction budget); the final
    iteration and the loop exit run through the normal generated blocks,
    which rematerializes every live register and spill slot
    bit-identically.

    A plan holds no run state: live values, the spill dict and the array
    buffers arrive with each :meth:`attempt`, so runs on several threads
    never see each other's memory.  Only two fields change after
    translation.  ``batches`` counts successful batches, a statistic
    that concurrent runs may undercount.  ``dead`` is sticky: once a
    run's own walk proves the loop unbatchable (a structural bail or an
    unexpected error), later runs skip the attempt.  It never changes a
    result, only whether the batch path is tried.
    """

    def __init__(self, *, body, iv_id, iv_slot, bound_id, bound_slot,
                 step_src, cmp_kind, ivdt, in_slots, in_ids, accs,
                 arr_index, vs, per_iter_count, per_iter_cycles):
        self.body = body
        self.iv_id = iv_id
        self.iv_slot = iv_slot
        self.bound_id = bound_id
        self.bound_slot = bound_slot
        self.step_src = step_src
        self.cmp_kind = cmp_kind
        self.ivdt = ivdt
        self.ivT = ivdt.type
        self.in_slots = in_slots
        self.in_ids = in_ids
        self._pos = {rid: i for i, rid in enumerate(in_ids)}
        self.iv_pos = self._pos[iv_id]
        self.accs = accs
        self._acc_pos = [self._pos[rid] for rid, _, _ in accs]
        self._acc_at = {pos: (i, j) for i, (_, pos, j) in enumerate(accs)}
        self.arr_index = arr_index
        self.vs = vs
        self.per_iter_count = per_iter_count
        self.per_iter_cycles = per_iter_cycles
        #: read once, so the trip test baked into the generated source
        #: and :meth:`_attempt` gate on the same value.
        self.min_batch = _MIN_BATCH
        self._iv_lo, self._iv_hi = _bounds(ivdt)
        self._steps = [self._compile(pos, ins) for pos, ins in enumerate(body)]
        #: successful batches (observability + effectiveness tests).
        self.batches = 0
        self.dead = False

    # -- entry point ----------------------------------------------------

    def attempt(self, vals, sp, executed, maxi, bufs):
        """Batch the loop's remaining trip; ``(new_iv, d_count,
        d_cycles, k, *sums)`` for the ``k`` iterations done, with each
        accumulator's value after them; None when this entry cannot
        batch; False when no later entry of this run can either (a
        ``fixed`` bail, or a dead plan).

        ``vals`` holds the live values of ``in_slots`` in order; ``sp``
        is the spill dict; ``bufs`` the run's array buffers.  Never
        raises: any bail (or unexpected walk error) before the first
        chunk commits returns None or False with memory untouched, and
        the caller falls through to normal execution.
        """
        if self.dead:
            return False
        try:
            return self._attempt(vals, sp, executed, maxi, bufs)
        except _Bail as bail:
            if bail.dead:
                self.dead = True
            return False if bail.fixed else None
        except Exception:
            self.dead = True
            return None

    def _attempt(self, vals, sp, executed, maxi, bufs):
        iv0 = vals[self.iv_pos]
        if self.bound_slot is None:
            bound = vals[self._pos[self.bound_id]]
        elif self.bound_slot in sp:
            bound = sp[self.bound_slot]
        else:
            raise _Bail()
        if not isinstance(iv0, (int, np.integer)):
            raise _Bail(dead=True)
        if not isinstance(bound, (int, np.integer)):
            raise _Bail(dead=True)
        iv0 = int(iv0)
        bound = int(bound)
        step = self._step(vals, sp)
        trip = self._trip(iv0, bound, step)
        k = trip - 1
        if self.per_iter_count > 0:
            room = (maxi - executed) // self.per_iter_count
            if room < k:
                k = room
        if k < self.min_batch:
            raise _Bail()
        hi = iv0 + k * step
        if not (self._iv_lo <= iv0 <= self._iv_hi
                and self._iv_lo <= hi <= self._iv_hi):
            raise _Bail()

        # The plan is tried once per loop entry, so one attempt covers the
        # whole trip in chunks of at most _MAX_BATCH.  Each chunk commits
        # only after its own walk and checks pass, and carries the sums
        # on to the next; a later chunk that fails leaves the committed
        # ones standing and the loop resumes per iteration from there.
        sums = [vals[p] for p in self._acc_pos]
        done = 0
        while done < k:
            c = min(k - done, _MAX_BATCH)
            try:
                st = self._walk(vals, sp, iv0 + done * step, step, c, bufs,
                                sums)
                self._check_mem(st.loads, st.stores, c)
            except Exception:
                if not done:
                    raise
                break
            self._commit(st.stores, c)
            sums = st.accs
            self.batches += 1
            done += c
        return (
            self.ivT(iv0 + done * step),
            done * self.per_iter_count,
            done * self.per_iter_cycles,
            done,
            *sums,
        )

    def _step(self, vals, sp):
        skind, sval = self.step_src
        if skind == "const":
            step = sval
        elif skind == "reg":
            step = vals[self._pos[sval]]
        else:  # spill slot
            if sval not in sp:
                raise _Bail()
            step = sp[sval]
        if not isinstance(step, (int, np.integer)):
            raise _Bail(dead=True)
        step = int(step)
        if step == 0:
            raise _Bail()
        return step

    def _trip(self, iv0, bound, step):
        """Exact number of iterations the loop will still execute."""
        kind = self.cmp_kind
        if kind == "lt":
            if step < 0:
                raise _Bail()
            return -((iv0 - bound) // step) if iv0 < bound else 0
        if kind == "le":
            if step < 0:
                raise _Bail()
            return (bound - iv0) // step + 1 if iv0 <= bound else 0
        if kind == "gt":
            if step > 0:
                raise _Bail()
            return -((bound - iv0) // -step) if iv0 > bound else 0
        # ge
        if step > 0:
            raise _Bail()
        return (iv0 - bound) // -step + 1 if iv0 >= bound else 0

    # -- abstract interpretation over the body --------------------------

    def _walk(self, vals, sp, iv0, step, k, bufs, sums):
        env = {rid: ("i", vals[pos]) for rid, pos in self._pos.items()}
        env[self.iv_id] = ("a", iv0, step, self.ivdt)
        if self.bound_slot is not None:
            env[self.bound_id] = ("i", sp[self.bound_slot])
        st = _WalkState(k, bufs, sp, list(sums))
        for fn in self._steps:
            fn(env, st)
        return st

    def _compile(self, pos, ins):  # noqa: C901
        """Body instruction ``ins`` (at ``pos``) as a step ``fn(env,
        st)`` that walks it over the batch: ``env`` maps register ids to
        nodes, ``st`` is the walk's :class:`_WalkState`."""
        op = ins.op
        imm = ins.imm
        dst = ins.dst.id if ins.dst is not None else None
        src = [r.id for r in ins.srcs]

        acc = self._acc_at.get(pos)
        if acc is not None:
            return self._compile_fold(ins, dst, src, *acc)

        if op == "const":
            return _constant(
                dst, ("i", imm["type"].numpy_dtype.type(imm["value"]))
            )

        if op == "mov":
            (a,) = src

            def mov(env, st):
                env[dst] = env[a]
            return mov

        if op == "lea":
            (a,) = src
            scale = imm.get("scale", 1)
            offset = imm.get("offset", 0)

            def lea(env, st):
                node = env[a]
                if node[0] == "i":
                    v = node[1]
                    if not isinstance(v, (int, np.integer)):
                        raise _Bail(dead=True)
                    env[dst] = ("i", int(v) * scale + offset)
                elif node[0] == "a":
                    # int(...) is exact on in-range typed values; the
                    # result lives in Python-int address space (dtype
                    # None), exactly like the sequential engines' lea.
                    env[dst] = ("a", node[1] * scale + offset,
                                node[2] * scale, None)
                else:
                    raise _Bail(dead=True)
            return lea

        if op in _SCALAR_BIN:
            return self._compile_scalar_bin(op, imm, dst, src)

        if op in _SCALAR_UN:
            dt = imm["type"].numpy_dtype
            T = dt.type
            bounds = _bounds(dt)
            fn = _UN_FUNCS[op]
            (a,) = src

            def scalar_un(env, st):
                node = env[a]
                if node[0] == "i":
                    env[dst] = ("i", fn(_cast_inv(node[1], T), dt))
                    return
                r = fn(_batch_scalar(node, dt, bounds, st), dt)
                env[dst] = ("b", np.asarray(r, dtype=dt))
            return scalar_un

        if op == "cmp":
            pycmp = _CMP_OPERATORS[imm["op"]]
            npcmp = _CMP[imm["op"]]
            a, b = src

            def cmp(env, st):
                na = env[a]
                nb = env[b]
                if na[0] == "i" and nb[0] == "i":
                    env[dst] = ("i", _I8_ONE if pycmp(na[1], nb[1])
                                else _I8_ZERO)
                    return
                r = npcmp(_mat(na, st), _mat(nb, st))
                env[dst] = ("b", r.astype(np.int8))
            return cmp

        if op == "select":
            c, a, b = src

            def select(env, st):
                nc = env[c]
                na = env[a]
                nb = env[b]
                if nc[0] == "i":
                    env[dst] = na if nc[1] else nb
                    return
                va = _mat(na, st)
                vb = _mat(nb, st)
                da = getattr(va, "dtype", None)
                if da is None or da != getattr(vb, "dtype", None):
                    raise _Bail(dead=True)
                vc = _mat(nc, st)
                env[dst] = ("b", np.where(vc.astype(bool), va, vb))
            return select

        if op == "cvt":
            to = imm["to"]
            T = to.numpy_dtype.type
            to_float = to.is_float
            (a,) = src

            def cvt(env, st):
                node = env[a]
                if node[0] != "i":
                    raise _Bail(dead=True)
                v = node[1]
                if to_float:
                    env[dst] = ("i", T(v))
                    return
                if isinstance(v, (np.floating, float)):
                    v = int(v)
                env[dst] = ("i", T(np.int64(v)))
            return cvt

        if op in ("load", "vload_a", "vload_u"):
            return self._compile_load(op, imm, dst, src, pos)

        if op in ("store", "vstore_a", "vstore_u"):
            return self._compile_store(op, imm, src, pos)

        if op == "spill_ld":
            key = imm["slot"]

            def spill_ld(env, st):
                if key in st.wsp:
                    env[dst] = st.wsp[key]
                elif key in st.sp:
                    env[dst] = ("i", st.sp[key])
                else:
                    raise _Bail()
            return spill_ld

        if op == "spill_st":
            key = imm["slot"]
            (a,) = src

            def spill_st(env, st):
                st.wsp[key] = env[a]
            return spill_st

        if op == "arr_overlap":
            i1 = self.arr_index[imm["a1"]]
            i2 = self.arr_index[imm["a2"]]

            def arr_overlap(env, st):
                same = st.bufs[i1]._raw is st.bufs[i2]._raw
                env[dst] = ("i", _I8_ONE if same else _I8_ZERO)
            return arr_overlap

        if op == "arr_aligned":
            ai = self.arr_index[imm["array"]]
            align = imm["align"]

            def arr_aligned(env, st):
                ok = st.bufs[ai].address_of(0) % align == 0
                env[dst] = ("i", _I8_ONE if ok else _I8_ZERO)
            return arr_aligned

        return self._compile_vector(op, imm, dst, src)

    def _compile_scalar_bin(self, op, imm, dst, src):
        dt = imm["type"].numpy_dtype
        T = dt.type
        bounds = _bounds(dt)
        calc = _binary(op, dt)
        affine = None
        if bounds is not None and op in ("add", "sub", "mul", "shl"):
            affine = _affine_fold(op, dt)
            lo, hi = bounds
        a, b = src

        def scalar_bin(env, st):
            na = env[a]
            nb = env[b]
            if na[0] == "i" and nb[0] == "i":
                env[dst] = ("i", calc(_cast_inv(na[1], T),
                                      _cast_inv(nb[1], T)))
                return
            if affine is not None and na[0] != "b" and nb[0] != "b":
                k = st.k
                ai = _int_operand(na, T, lo, hi, k)
                bi = _int_operand(nb, T, lo, hi, k)
                if ai is not None and bi is not None:
                    folded = affine(ai, bi)
                    if folded is not None:
                        node = _aff_or_none(folded[0], folded[1], dt, lo,
                                            hi, k)
                        if node is not None:
                            env[dst] = node
                            return
            r = calc(_batch_scalar(na, dt, bounds, st),
                     _batch_scalar(nb, dt, bounds, st))
            env[dst] = ("b", np.asarray(r, dtype=dt))
        return scalar_bin

    def _compile_load(self, op, imm, dst, src, pos):
        ai = self.arr_index[imm["array"]]
        (a,) = src
        if op == "load":
            dt = imm["type"].numpy_dtype
            width = dt.itemsize

            def load(env, st):
                buf = st.bufs[ai]
                base, coef = _addr(env[a])
                lo = buf._base + base
                raw = buf._raw
                if coef == 0:
                    if lo < 0 or lo + width > raw.shape[0]:
                        raise _Bail()
                    st.loads.append((id(raw), lo, 0, width, pos))
                    env[dst] = ("i", raw[lo:lo + width].view(dt)[0])
                    return
                if coef != width:
                    raise _Bail(fixed=True)
                k = st.k
                if lo < 0 or lo + k * width > raw.shape[0]:
                    raise _Bail()
                st.loads.append((id(raw), lo, coef, width, pos))
                env[dst] = ("b", raw[lo:lo + k * width].view(dt).copy())
            return load

        dt = imm["elem"].numpy_dtype
        lanes = imm["lanes"]
        nb = dt.itemsize * lanes
        vs = self.vs if op == "vload_a" else None

        def vload(env, st):
            buf = st.bufs[ai]
            base, coef = _addr(env[a])
            lo = buf._base + base
            raw = buf._raw
            if vs is not None and lo % vs != 0:
                raise _Bail()
            if vs is not None and coef % vs != 0:
                raise _Bail(fixed=True)
            if coef == 0:
                if lo < 0 or lo + nb > raw.shape[0]:
                    raise _Bail()
                st.loads.append((id(raw), lo, 0, nb, pos))
                env[dst] = ("i", raw[lo:lo + nb].view(dt).copy())
                return
            if coef != nb:
                raise _Bail(fixed=True)
            k = st.k
            if lo < 0 or lo + k * nb > raw.shape[0]:
                raise _Bail()
            st.loads.append((id(raw), lo, coef, nb, pos))
            env[dst] = (
                "b", raw[lo:lo + k * nb].view(dt).copy().reshape(k, lanes)
            )
        return vload

    def _compile_store(self, op, imm, src, pos):
        ai = self.arr_index[imm["array"]]
        a, v = src
        if op == "store":
            dt = imm["type"].numpy_dtype
            width = dt.itemsize
            bounds = _bounds(dt)

            def store(env, st):
                buf = st.bufs[ai]
                base, coef = _addr(env[a])
                lo = buf._base + base
                raw = buf._raw
                if coef != width:
                    raise _Bail(fixed=True)
                if lo < 0 or lo + st.k * width > raw.shape[0]:
                    raise _Bail()
                payload = _store_payload(env[v], bounds, st)
                st.stores.append(
                    (id(raw), raw, lo, coef, width, pos, dt, None, payload)
                )
            return store

        vs = self.vs if op == "vstore_a" else None

        def vstore(env, st):
            buf = st.bufs[ai]
            base, coef = _addr(env[a])
            lo = buf._base + base
            raw = buf._raw
            node = env[v]
            p = _mat(node, st)
            if not isinstance(p, np.ndarray):
                raise _Bail(dead=True)
            k = st.k
            if node[0] == "b":
                if p.ndim != 2 or p.shape[0] != k:
                    raise _Bail(dead=True)
                lanes = p.shape[1]
            else:
                if p.ndim != 1:
                    raise _Bail(dead=True)
                lanes = p.shape[0]
            row_nb = p.dtype.itemsize * lanes
            if vs is not None and lo % vs != 0:
                raise _Bail()
            if vs is not None and coef % vs != 0:
                raise _Bail(fixed=True)
            if coef != row_nb:
                raise _Bail(fixed=True)
            if lo < 0 or lo + k * row_nb > raw.shape[0]:
                raise _Bail()
            st.stores.append(
                (id(raw), raw, lo, coef, row_nb, pos, p.dtype, lanes, p)
            )
        return vstore

    def _compile_vector(self, op, imm, dst, src):  # noqa: C901
        if op == "vconst":
            dt = imm["elem"].numpy_dtype
            lanes = imm["lanes"]
            values = imm["values"]
            reps = -(-lanes // len(values))
            return _constant(dst, ("i", _frozen(
                np.tile(np.asarray(values, dtype=dt), reps)[:lanes].copy()
            )))

        if op == "vsplat":
            dt = imm["elem"].numpy_dtype
            bounds = _bounds(dt)
            lanes = imm["lanes"]
            (a,) = src

            def vsplat(env, st):
                node = env[a]
                if node[0] == "i":
                    env[dst] = ("i", np.full(lanes, node[1], dtype=dt))
                    return
                col = _batch_scalar(node, dt, bounds, st)
                env[dst] = ("b", np.repeat(col, lanes).reshape(st.k, lanes))
            return vsplat

        if op == "vaffine":
            dt = imm["elem"].numpy_dtype
            T = dt.type
            idx = _frozen(np.arange(imm["lanes"], dtype=dt))
            a, b = src

            def vaffine(env, st):
                na = env[a]
                nb = env[b]
                if na[0] != "i" or nb[0] != "i":
                    raise _Bail(dead=True)
                env[dst] = ("i", (T(na[1]) + idx * T(nb[1])).astype(dt))
            return vaffine

        if op in _VECTOR_BIN:
            dt = imm["elem"].numpy_dtype
            calc = _binary(_canon(op), dt)
            a, b = src

            def vector_bin(env, st):
                na = env[a]
                nb = env[b]
                r = np.asarray(calc(_vec_operand(na), _vec_operand(nb)),
                               dtype=dt)
                env[dst] = ("i" if na[0] == "i" and nb[0] == "i" else "b", r)
            return vector_bin

        if op in _VECTOR_UN:
            dt = imm["elem"].numpy_dtype
            fn = _UN_FUNCS[_canon(op)]
            (a,) = src

            def vector_un(env, st):
                node = env[a]
                r = np.asarray(fn(_vec_operand(node), dt), dtype=dt)
                env[dst] = (node[0], r)
            return vector_un

        if op == "vcmp":
            fn = _CMP[imm["op"]]
            a, b = src

            def vcmp(env, st):
                na = env[a]
                nb = env[b]
                r = fn(_vec_operand(na), _vec_operand(nb)).astype(np.int8)
                env[dst] = ("i" if na[0] == "i" and nb[0] == "i" else "b", r)
            return vcmp

        if op == "vselect":
            c, a, b = src

            def vselect(env, st):
                nc = env[c]
                na = env[a]
                nb = env[b]
                vc = _vec_operand(nc)
                va = _vec_operand(na)
                vb = _vec_operand(nb)
                inv = nc[0] == "i" and na[0] == "i" and nb[0] == "i"
                if not inv:
                    da = getattr(va, "dtype", None)
                    if da is None or da != getattr(vb, "dtype", None):
                        raise _Bail(dead=True)
                env[dst] = ("i" if inv else "b",
                            np.where(vc.astype(bool), va, vb))
            return vselect

        if op == "vcvt":
            to = imm["to"]
            dt = to.numpy_dtype
            to_float = to.is_float
            (a,) = src

            def vcvt(env, st):
                node = env[a]
                x = _vec_operand(node)
                r = x.astype(dt) if to_float else np.trunc(x).astype(dt)
                env[dst] = (node[0], r)
            return vcvt

        # Widening and narrowing: emit()'s slicing and astype, applied to
        # the last (lane) axis of a batch node.
        if op in ("vunpack", "vwidenmul"):
            dt = imm["elem"].numpy_dtype
            lo_half = imm["half"] == "lo"
            mul = op == "vwidenmul"

            def widen(env, st):
                nodes = [env[r] for r in src]
                xs = [_vec_operand(n) for n in nodes]
                m = xs[0].shape[-1]
                sl = slice(0, m // 2) if lo_half else slice(m // 2, m)
                r = xs[0][..., sl].astype(dt)
                if mul:
                    r = r * xs[1][..., sl].astype(dt)
                kind = "i" if all(n[0] == "i" for n in nodes) else "b"
                env[dst] = (kind, r)
            return widen

        if op == "vpack":
            dt = imm["elem"].numpy_dtype
            a, b = src

            def vpack(env, st):
                na = env[a]
                nb = env[b]
                va = _vec_operand(na)
                vb = _vec_operand(nb)
                if na[0] == "i" and nb[0] == "i":
                    env[dst] = ("i", np.concatenate([va, vb]).astype(dt))
                    return
                k = st.k
                va, vb = (np.broadcast_to(x, (k, x.shape[-1]))
                          for x in (va, vb))
                env[dst] = (
                    "b", np.concatenate([va, vb], axis=1).astype(dt)
                )
            return vpack

        def unsupported(env, st):
            raise _Bail(dead=True)
        return unsupported

    def _compile_fold(self, ins, dst, src, i, j):
        """Accumulator op ``ins`` (sum in operand ``j``, running value in
        ``st.accs[i]``) run ``k`` times: the ``k`` addends as one batch,
        then added to the sum one iteration after another by
        ``np.add.accumulate``.  A pairwise sum would round a float
        differently.  A NaN addend bails: which of two NaNs an add
        returns depends on operand order, and numpy's scalar and array
        adds differ there."""
        op = ins.op
        other = src[1 - j]
        if op == "add":
            dt = ins.imm["type"].numpy_dtype
            T = dt.type
            bounds = _bounds(dt)

            def addends(env, acc, st):
                return (_cast_inv(acc, T),
                        _batch_scalar(env[other], dt, bounds, st))
        else:
            dt = ins.imm["elem"].numpy_dtype
            if op == "vadd":
                def batch(env):
                    return _vec_operand(env[other])
            elif dt.kind in "iu":
                # vdot: emit()'s widened products, pair-summed per lane
                # (exact for integers in any layout; a float pair sum's
                # sign of zero is not, so float vdot stays sequential).
                a_id, b_id = src[:2]

                def batch(env):
                    w = (_vec_operand(env[a_id]).astype(dt)
                         * _vec_operand(env[b_id]).astype(dt))
                    return w.reshape(w.shape[:-1] + (-1, 2)).sum(axis=-1,
                                                                 dtype=dt)
            else:
                def batch(env):
                    raise _Bail(dead=True)

            def addends(env, acc, st):
                add = batch(env)
                if not isinstance(acc, np.ndarray) or acc.ndim != 1:
                    raise _Bail(dead=True)
                return acc, add
        is_float = dt.kind == "f"

        def fold(env, st):
            acc, add = addends(env, st.accs[i], st)
            k = st.k
            if (acc.dtype != dt or add.dtype != dt
                    or add.shape not in (acc.shape, (k,) + acc.shape)):
                raise _Bail(dead=True)
            if is_float and np.isnan(add).any():
                raise _Bail()
            rows = np.empty((k + 1,) + acc.shape, dtype=dt)
            rows[0] = acc
            rows[1:] = add
            total = np.add.accumulate(rows, axis=0, dtype=dt)[-1]
            st.accs[i] = total.copy() if acc.ndim else total
            env[dst] = _SUM
        return fold

    # -- memory safety and commit ---------------------------------------

    @staticmethod
    def _check_mem(loads, stores, k):
        """Reject any load/store or store/store overlap the batch would
        reorder.

        The batch runs each instruction for *all* iterations at once, so
        a store is safe against a load only if the load happened earlier
        in the body **and** covers exactly the same strided interval
        (classic load-modify-store); two stores only if they are disjoint
        or write exactly the same interval (program order decides).
        Aliasing is keyed on the underlying raw byte array (``id()`` at
        run time only — nothing here reaches the generated source).
        """
        for si, s_ in enumerate(stores):
            sid, _, slo, scoef, sw, spos = s_[:6]
            s_end = slo + (k - 1) * scoef + sw
            for lid, llo, lcoef, lw, lpos in loads:
                if lid != sid:
                    continue
                l_end = llo + (k - 1) * lcoef + lw
                if l_end <= slo or llo >= s_end:
                    continue
                if lpos < spos and (llo, lcoef, lw) == (slo, scoef, sw):
                    continue
                raise _Bail(fixed=True)
            for s2 in stores[si + 1:]:
                if s2[0] != sid:
                    continue
                s2_end = s2[2] + (k - 1) * s2[3] + s2[4]
                if s2_end <= slo or s2[2] >= s_end:
                    continue
                if (s2[2], s2[3], s2[4]) == (slo, scoef, sw):
                    continue
                raise _Bail(fixed=True)

    @staticmethod
    def _commit(stores, k):
        """Apply deferred stores in program order (post-walk, so a bail
        can never leave memory half-written)."""
        for _, raw, lo, coef, _w, _pos, dt, lanes, payload in stores:
            view = raw[lo:lo + k * coef].view(dt)
            if lanes is None:
                view[:] = payload
            else:
                view.reshape(k, lanes)[:] = payload


class CodegenCode:
    """An :class:`MFunction` translated to compiled Python source.

    ``source`` holds the deterministic generated module text (the
    cross-process determinism test hashes it); :meth:`run` takes the
    arguments of :meth:`VM.run <repro.machine.vm.VM.run>`, with the
    instruction budget per run.  An instance holds no run state:
    buffers, live values and a fresh spill dict are arguments of each
    ``_kernel`` call, so one translation may run from several threads at
    once.
    """

    def __init__(self, mfunc: MFunction, target: Target,
                 count_ops: bool = False):
        self.mfunc = mfunc
        self.target = target
        self.count_ops = count_ops
        emitter = _Emitter(mfunc, target, count_ops)
        self.source, ns = emitter.build()
        self.plans = emitter.plans
        self._block_op_counts = emitter.block_op_counts
        self._param_convs = [
            (name, type_.numpy_dtype.type)
            for name, type_, _reg in mfunc.scalar_params
        ]
        code = compile(
            self.source, f"<codegen:{mfunc.name}:{target.name}>", "exec"
        )
        exec(code, ns)
        self._fn = ns["_kernel"]

    def run(self, scalar_args=None, arrays=None,
            max_instructions: int = 500_000_000) -> RunResult:
        """Execute; bit-identical to :meth:`repro.machine.vm.VM.run`."""
        scalar_args = scalar_args or {}
        arrays = arrays or {}
        bufs = []
        for slot in self.mfunc.arrays:
            buf = arrays.get(slot.name)
            if buf is None:
                raise VMError(
                    f"array parameter {slot.name!r} not bound"
                )
            bufs.append(buf)
        vals = []
        for name, conv in self._param_convs:
            if name not in scalar_args:
                raise VMError(f"scalar parameter {name!r} not bound")
            vals.append(conv(scalar_args[name]))
        out = self._fn(max_instructions, {}, *vals, *bufs)
        if not self.count_ops:
            return RunResult(out[0], out[1], out[2], {})
        counts: Counter[str] = Counter()
        for entered, oc in zip(out[3], self._block_op_counts):
            if entered:
                for opname, c in oc.items():
                    counts[opname] += c * entered
        return RunResult(out[0], out[1], out[2], dict(counts))


def translate(mfunc: MFunction, target: Target,
              count_ops: bool = False) -> CodegenCode:
    """Translate ``mfunc`` into compiled Python source for ``target``.

    The result is reusable across runs (and caches per ``(engine,
    count_ops)`` under :meth:`CompiledKernel.translated
    <repro.jit.compilers.CompiledKernel.translated>`).
    """
    return CodegenCode(mfunc, target, count_ops)
