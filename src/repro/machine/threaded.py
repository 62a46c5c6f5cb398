"""Threaded-code execution engine: pre-decoded closure dispatch.

The reference interpreter (:mod:`repro.machine.vm`) re-decodes every
instruction on every execution: opcode string compares down a long
``if/elif`` chain, dict-based register files keyed by virtual register id,
a cost-table lookup per instruction, and numpy scalar re-boxing of every
immediate.  That is the classic slow-interpreter shape.  This module
removes all of it with a **one-time translation pass**:

* every :class:`~repro.machine.mir.MInstr` becomes one specialized Python
  closure with its immediates (dtypes, constants, lane counts, addressing
  scale/offset, slot indices) captured in the closure environment —
  "threaded code" in the Forth/direct-threading sense;
* virtual registers, array buffers, spill slots and the return value are
  mapped to dense slots of one per-run ``regs`` list, so an access is one
  ``list`` index instead of a dict hash;
* label targets are resolved to basic-block indices at translate time, so
  a branch is an index assignment, not a label-table lookup;
* instructions are grouped into **basic blocks** whose cycle cost,
  instruction count, x87 scalar-FP surcharge, and per-op counts are
  pre-aggregated, so straight-line runs charge one precomputed sum per
  block instead of a cost-dict lookup per instruction.

Cycle parity with the reference interpreter is guaranteed by construction:

* the per-block cycle sum adds exactly the terms the reference adds, and
  every cost is a small dyadic rational (multiples of 0.5), so float
  addition is exact and re-association cannot change the total;
* the x87 floating-point surcharge depends only on static instruction
  properties (opcode + immediate type), so it is folded into the block
  sums at translate time;
* op semantics are shared with the reference VM (``_BIN_FUNCS`` /
  ``_UN_FUNCS`` / ``_CMP`` in :mod:`repro.machine.vm`), and memory
  accesses go through the same :class:`ArrayBuffer` methods, so values,
  alignment traps, and bounds errors are identical;
* when a block would cross the instruction budget, the engine replays
  that block per instruction with per-instruction budget checks, so the
  trap raised (budget exceeded vs. an earlier alignment fault inside the
  block) is exactly the reference VM's.

``tests/test_threaded_vm.py`` differential-tests the two engines across
the full kernel suite x all targets x all online compilers.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .. import faults
from ..ir.types import ScalarType
from ..targets.base import Target
from .blocks import TERMINATORS, instr_cost, partition
from .memory import GUARD_BYTES, ArrayBuffer
from .mir import MFunction, MInstr
from .vm import (
    _BIN_FUNCS,
    _CMP,
    _SCALAR_BIN,
    _SCALAR_UN,
    _UN_FUNCS,
    _VECTOR_BIN,
    _VECTOR_UN,
    _canon,
    RunResult,
    VMError,
)

__all__ = ["ThreadedCode", "translate"]

#: branch-predicate comparisons; ``a < b`` on numpy scalars dispatches to
#: the same ufunc as ``np.less`` and is substantially cheaper to call.
_CMP_OPERATORS = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
    "le": operator.le, "gt": operator.gt, "ge": operator.ge,
}

#: shared immutable numpy scalars for predicate results (numpy scalars are
#: immutable, so reusing them is indistinguishable from fresh boxing).
_I8_ZERO = np.int8(0)
_I8_ONE = np.int8(1)


def _const_next(k: int):
    """Terminator for unconditional control flow (br / fallthrough)."""

    def nxt(regs, k=k):
        return k

    return nxt


@dataclass
class _Block:
    """One pre-decoded basic block."""

    count: int                      # instructions (incl. label/terminator)
    cycles: float                   # pre-aggregated cycle sum (incl. x87)
    steps: tuple                    # non-control closures, in order
    next: object                    # terminator closure -> next block index
    op_counts: dict                 # pre-aggregated per-op counts
    replay: list = field(default_factory=list)  # (action|None) per instr


class ThreadedCode:
    """An :class:`MFunction` translated to threaded code for one target.

    Immutable once built: everything a run writes lives in the ``regs``
    list that :meth:`run` allocates, so one translation may run from
    several threads at once.
    """

    def __init__(self, mfunc: MFunction, target: Target,
                 count_ops: bool = False) -> None:
        self.mfunc = mfunc
        self.target = target
        self.count_ops = count_ops
        self._slot_of: dict[object, int] = {}
        self._ret = self._slot("ret")
        self._array_binds: list[tuple[int, str]] = []
        self._param_binds: list[tuple[int, object, str]] = []
        self._blocks: list[_Block] = []
        self._build()
        #: hot-loop view of the blocks: (count, cycles, steps, next).
        self._dispatch = [
            (b.count, b.cycles, b.steps, b.next) for b in self._blocks
        ]

    # -- translation --------------------------------------------------------

    def _slot(self, key) -> int:
        """Dense ``regs`` index for ``key``: a register id (int), an
        ``("array", name)`` buffer, a ``("spill", k)`` slot, or ``"ret"``."""
        s = self._slot_of.get(key)
        if s is None:
            s = self._slot_of[key] = len(self._slot_of)
        return s

    def _array(self, name: str) -> int:
        key = ("array", name)
        s = self._slot_of.get(key)
        if s is None:
            s = self._slot(key)
            self._array_binds.append((s, name))
        return s

    def _build(self) -> None:
        mfunc = self.mfunc
        for name, type_, reg in mfunc.scalar_params:
            self._param_binds.append(
                (self._slot(reg.id), type_.numpy_dtype.type, name)
            )
        for slot in mfunc.arrays:
            self._array(slot.name)

        instrs = mfunc.instrs
        n = len(instrs)
        labels = mfunc.labels()

        # Basic-block partition and per-instruction costs are shared with
        # the codegen engine (repro.machine.blocks), which is what keeps
        # the two engines' accounting identical by construction.
        starts, block_at = partition(instrs)

        cost = self.target.cost
        x87 = bool(mfunc.meta.get("x87"))

        for bi, s in enumerate(starts):
            e = starts[bi + 1] if bi + 1 < len(starts) else n
            body = instrs[s:e]
            cycles = 0.0
            op_counts: Counter[str] = Counter()
            steps: list = []
            replay: list = []
            nxt = None
            for j, ins in enumerate(body):
                op = ins.op
                cycles += instr_cost(ins, cost, x87)
                op_counts[op] += 1
                if op == "label":
                    replay.append(None)
                    continue
                if op in TERMINATORS:
                    # The terminator is always the last instruction of the
                    # block by construction.
                    assert j == len(body) - 1
                    nxt = self._compile_terminator(
                        ins, labels, block_at, bi, e, n
                    )
                    replay.append(None)
                    continue
                step = self._compile_instr(ins)
                steps.append(step)
                replay.append(step)
            if nxt is None:
                # Fallthrough into the next block (or off the end).
                nxt = _const_next(bi + 1 if e < n else -1)
            self._blocks.append(
                _Block(len(body), cycles, tuple(steps), nxt,
                       dict(op_counts), replay)
            )

    def _compile_terminator(self, ins: MInstr, labels, block_at,
                            bi: int, e: int, n: int):
        op = ins.op
        if op == "br":
            return _const_next(block_at[labels[ins.imm["label"]]])
        if op == "ret":
            if not ins.srcs:
                return _const_next(-1)  # the "ret" slot stays None

            def nxt(regs, r=self._ret, s=self._slot(ins.srcs[0].id)):
                regs[r] = regs[s]
                return -1
            return nxt
        tk = block_at[labels[ins.imm["label"]]]
        fk = bi + 1 if e < n else -1
        s = self._slot(ins.srcs[0].id)
        if op == "brtrue":

            def nxt(regs, s=s, tk=tk, fk=fk):
                return tk if regs[s] else fk
        else:  # brfalse

            def nxt(regs, s=s, tk=tk, fk=fk):
                return fk if regs[s] else tk
        return nxt

    # one long factory — runs once per instruction at translate time
    def _compile_instr(self, ins: MInstr):  # noqa: C901
        op = ins.op
        imm = ins.imm
        slot = self._slot
        d = slot(ins.dst.id) if ins.dst is not None else None
        ss = [slot(r.id) for r in ins.srcs]
        vs = self.target.vector_size

        if op == "const":
            v = imm["type"].numpy_dtype.type(imm["value"])

            def step(regs, d=d, v=v):
                regs[d] = v
            return step

        if op in ("mov", "spill_st", "spill_ld"):
            # A spill slot is one more regs slot, so spill code is a move
            # (the allocator stores every spill slot before it loads it).
            s = ss[0] if ss else None
            if op == "spill_st":
                d = slot(("spill", imm["slot"]))
            elif op == "spill_ld":
                s = slot(("spill", imm["slot"]))

            def step(regs, d=d, s=s):
                regs[d] = regs[s]
            return step

        if op == "lea":
            scale = imm.get("scale", 1)
            offset = imm.get("offset", 0)
            # Address arithmetic stays in exact Python-int space, like the
            # reference's int(...) * scale + offset; the np.int64 boxing is
            # deferred to consumers (every consumer either re-boxes through
            # its own dtype cast or takes int(...) again).
            if scale == 1 and offset == 0:

                def step(regs, d=d, s=ss[0]):
                    regs[d] = int(regs[s])
            elif scale == 1:

                def step(regs, d=d, s=ss[0], offset=offset):
                    regs[d] = int(regs[s]) + offset
            else:

                def step(regs, d=d, s=ss[0], scale=scale, offset=offset):
                    regs[d] = int(regs[s]) * scale + offset
            return step

        if op in _SCALAR_BIN:
            dt = imm["type"].numpy_dtype
            T = dt.type
            s0, s1 = ss
            if op == "add":

                def step(regs, d=d, s0=s0, s1=s1, T=T):
                    a = regs[s0]
                    b = regs[s1]
                    if type(a) is not T:
                        a = T(a)
                    if type(b) is not T:
                        b = T(b)
                    regs[d] = a + b
            elif op == "sub":

                def step(regs, d=d, s0=s0, s1=s1, T=T):
                    a = regs[s0]
                    b = regs[s1]
                    if type(a) is not T:
                        a = T(a)
                    if type(b) is not T:
                        b = T(b)
                    regs[d] = a - b
            elif op == "mul":

                def step(regs, d=d, s0=s0, s1=s1, T=T):
                    a = regs[s0]
                    b = regs[s1]
                    if type(a) is not T:
                        a = T(a)
                    if type(b) is not T:
                        b = T(b)
                    regs[d] = a * b
            else:
                fn = _BIN_FUNCS[op]

                def step(regs, d=d, s0=s0, s1=s1, T=T, dt=dt, fn=fn):
                    a = regs[s0]
                    b = regs[s1]
                    if type(a) is not T:
                        a = T(a)
                    if type(b) is not T:
                        b = T(b)
                    regs[d] = fn(a, b, dt)
            return step

        if op in _SCALAR_UN:
            dt = imm["type"].numpy_dtype
            T = dt.type
            fn = _UN_FUNCS[op]

            def step(regs, d=d, s=ss[0], T=T, dt=dt, fn=fn):
                a = regs[s]
                if type(a) is not T:
                    a = T(a)
                regs[d] = fn(a, dt)
            return step

        if op == "cmp":
            fn = _CMP_OPERATORS[imm["op"]]

            def step(regs, d=d, s0=ss[0], s1=ss[1], fn=fn):
                regs[d] = _I8_ONE if fn(regs[s0], regs[s1]) else _I8_ZERO
            return step

        if op == "select":

            def step(regs, d=d, c=ss[0], s1=ss[1], s2=ss[2]):
                regs[d] = regs[s1] if regs[c] else regs[s2]
            return step

        if op == "cvt":
            to: ScalarType = imm["to"]
            T = to.numpy_dtype.type
            if to.is_float:

                def step(regs, d=d, s=ss[0], T=T):
                    regs[d] = T(regs[s])
            else:

                def step(regs, d=d, s=ss[0], T=T):
                    v = regs[s]
                    if isinstance(v, (np.floating, float)):
                        v = int(v)
                    regs[d] = T(np.int64(v))
            return step

        if op == "load":
            name = imm["array"]
            a = self._array(name)
            dt = imm["type"].numpy_dtype

            def step(regs, d=d, s=ss[0], a=a, dt=dt, name=name):
                if faults.mem_hook is not None:
                    faults.mem_hook("load", name)
                regs[d] = regs[a].load_scalar(int(regs[s]), dt)
            return step

        if op == "store":
            name = imm["array"]
            a = self._array(name)
            dt = imm["type"].numpy_dtype

            def step(regs, s0=ss[0], s1=ss[1], a=a, dt=dt, name=name):
                if faults.mem_hook is not None:
                    faults.mem_hook("store", name)
                regs[a].store_scalar(int(regs[s0]), regs[s1], dt)
            return step

        if op == "arr_overlap":
            a1 = self._array(imm["a1"])
            a2 = self._array(imm["a2"])

            def step(regs, d=d, a1=a1, a2=a2):
                regs[d] = _I8_ONE if regs[a1].overlaps(regs[a2]) else _I8_ZERO
            return step

        if op == "arr_aligned":
            a = self._array(imm["array"])
            align = imm["align"]

            def step(regs, d=d, a=a, align=align):
                regs[d] = (
                    _I8_ONE if regs[a].address_of(0) % align == 0
                    else _I8_ZERO
                )
            return step

        # -- vector instructions -------------------------------------------

        if op == "vconst":
            elem: ScalarType = imm["elem"]
            lanes: int = imm["lanes"]
            values = imm["values"]
            reps = -(-lanes // len(values))
            v = np.tile(np.asarray(values, dtype=elem.numpy_dtype), reps)[
                :lanes
            ].copy()

            def step(regs, d=d, v=v):
                regs[d] = v
            return step

        if op == "vsplat":
            dt = imm["elem"].numpy_dtype
            lanes = imm["lanes"]

            def step(regs, d=d, s=ss[0], lanes=lanes, dt=dt):
                regs[d] = np.full(lanes, regs[s], dtype=dt)
            return step

        if op == "vaffine":
            dt = imm["elem"].numpy_dtype
            T = dt.type
            idx = np.arange(imm["lanes"], dtype=dt)

            def step(regs, d=d, s0=ss[0], s1=ss[1], T=T, dt=dt, idx=idx):
                regs[d] = (T(regs[s0]) + idx * T(regs[s1])).astype(dt)
            return step

        if op in ("vload_a", "vload_u", "vload_fa"):
            name = imm["array"]
            a = self._array(name)
            dt = imm["elem"].numpy_dtype
            lanes = imm["lanes"]
            # These closures inline ArrayBuffer.load_vector (the engines'
            # hottest memory path); check order and messages replicate the
            # reference VM / ArrayBuffer exactly (alignment trap first,
            # then bounds) and the differential tests enforce it.
            nb = dt.itemsize * lanes
            if op == "vload_a":

                def step(regs, d=d, s=ss[0], a=a, dt=dt, nb=nb,
                         vs=vs, name=name):
                    if faults.mem_hook is not None:
                        faults.mem_hook("vload_a", name)
                    buf = regs[a]
                    off = int(regs[s])
                    start = buf._base + off
                    if start % vs != 0:
                        raise VMError(
                            f"aligned vector load from misaligned address "
                            f"(array {name}, offset {off}, "
                            f"addr%{vs}={start % vs})"
                        )
                    raw = buf._raw
                    if start < 0 or start + nb > raw.shape[0]:
                        raise IndexError(
                            f"out-of-bounds access: offset {off}, {nb} "
                            f"bytes (array of {buf.nbytes} data bytes + "
                            f"{GUARD_BYTES} guard)"
                        )
                    regs[d] = raw[start : start + nb].view(dt).copy()
            elif op == "vload_fa":

                def step(regs, d=d, s=ss[0], a=a, dt=dt, nb=nb,
                         vs=vs, name=name):
                    if faults.mem_hook is not None:
                        faults.mem_hook("vload_fa", name)
                    buf = regs[a]
                    off = int(regs[s])
                    off -= (buf._base + off) % vs
                    start = buf._base + off
                    raw = buf._raw
                    if start < 0 or start + nb > raw.shape[0]:
                        raise IndexError(
                            f"out-of-bounds access: offset {off}, {nb} "
                            f"bytes (array of {buf.nbytes} data bytes + "
                            f"{GUARD_BYTES} guard)"
                        )
                    regs[d] = raw[start : start + nb].view(dt).copy()
            else:

                def step(regs, d=d, s=ss[0], a=a, dt=dt, nb=nb,
                         name=name):
                    if faults.mem_hook is not None:
                        faults.mem_hook("vload_u", name)
                    buf = regs[a]
                    off = int(regs[s])
                    start = buf._base + off
                    raw = buf._raw
                    if start < 0 or start + nb > raw.shape[0]:
                        raise IndexError(
                            f"out-of-bounds access: offset {off}, {nb} "
                            f"bytes (array of {buf.nbytes} data bytes + "
                            f"{GUARD_BYTES} guard)"
                        )
                    regs[d] = raw[start : start + nb].view(dt).copy()
            return step

        if op in ("vstore_a", "vstore_u"):
            name = imm["array"]
            a = self._array(name)
            # Inlined ArrayBuffer.store_vector (same messages, same order).
            if op == "vstore_a":

                def step(regs, s0=ss[0], s1=ss[1], a=a, vs=vs, name=name):
                    if faults.mem_hook is not None:
                        faults.mem_hook("vstore_a", name)
                    buf = regs[a]
                    off = int(regs[s0])
                    start = buf._base + off
                    if start % vs != 0:
                        raise VMError(
                            f"aligned vector store to misaligned address "
                            f"(array {name}, offset {off})"
                        )
                    values = regs[s1]
                    if not values.flags["C_CONTIGUOUS"]:
                        values = np.ascontiguousarray(values)
                    raw = values.view(np.uint8)
                    dst = buf._raw
                    if start < 0 or start + raw.size > dst.shape[0]:
                        raise IndexError(
                            f"out-of-bounds store: offset {off}, "
                            f"{raw.size} bytes"
                        )
                    dst[start : start + raw.size] = raw
            else:

                def step(regs, s0=ss[0], s1=ss[1], a=a, name=name):
                    if faults.mem_hook is not None:
                        faults.mem_hook("vstore_u", name)
                    buf = regs[a]
                    off = int(regs[s0])
                    start = buf._base + off
                    values = regs[s1]
                    if not values.flags["C_CONTIGUOUS"]:
                        values = np.ascontiguousarray(values)
                    raw = values.view(np.uint8)
                    dst = buf._raw
                    if start < 0 or start + raw.size > dst.shape[0]:
                        raise IndexError(
                            f"out-of-bounds store: offset {off}, "
                            f"{raw.size} bytes"
                        )
                    dst[start : start + raw.size] = raw
            return step

        if op == "lvsr":
            a = self._array(imm["array"])

            def step(regs, d=d, s=ss[0], a=a, vs=vs):
                regs[d] = np.int64(regs[a].address_of(int(regs[s])) % vs)
            return step

        if op == "vperm":

            def step(regs, d=d, s0=ss[0], s1=ss[1], s2=ss[2]):
                v1 = regs[s0]
                raw = np.concatenate(
                    [np.ascontiguousarray(v1).view(np.uint8),
                     np.ascontiguousarray(regs[s1]).view(np.uint8)]
                )
                nbytes = np.ascontiguousarray(v1).view(np.uint8).size
                shift = int(regs[s2])
                regs[d] = raw[shift : shift + nbytes].view(v1.dtype).copy()
            return step

        if op in _VECTOR_BIN:
            dt = imm["elem"].numpy_dtype
            canon = _canon(op)
            # add/sub/mul on same-dtype operands already yield dt, so the
            # normalizing asarray is skipped on that (overwhelmingly
            # common) path; mixed dtypes fall back to the exact reference
            # normalization.
            if canon in ("add", "sub", "mul"):
                opfn = {"add": operator.add, "sub": operator.sub,
                        "mul": operator.mul}[canon]

                def step(regs, d=d, s0=ss[0], s1=ss[1], opfn=opfn, dt=dt):
                    r = opfn(regs[s0], regs[s1])
                    regs[d] = r if r.dtype == dt else np.asarray(r, dtype=dt)
                return step
            fn = _BIN_FUNCS[canon]

            def step(regs, d=d, s0=ss[0], s1=ss[1], fn=fn, dt=dt):
                regs[d] = np.asarray(fn(regs[s0], regs[s1], dt), dtype=dt)
            return step

        if op in _VECTOR_UN:
            dt = imm["elem"].numpy_dtype
            fn = _UN_FUNCS[_canon(op)]

            def step(regs, d=d, s=ss[0], fn=fn, dt=dt):
                regs[d] = np.asarray(fn(regs[s], dt), dtype=dt)
            return step

        if op == "vcmp":
            fn = _CMP[imm["op"]]

            def step(regs, d=d, s0=ss[0], s1=ss[1], fn=fn):
                regs[d] = fn(regs[s0], regs[s1]).astype(np.int8)
            return step

        if op == "vselect":

            def step(regs, d=d, c=ss[0], s1=ss[1], s2=ss[2]):
                regs[d] = np.where(
                    regs[c].astype(bool), regs[s1], regs[s2]
                )
            return step

        if op == "vcvt":
            to = imm["to"]
            dt = to.numpy_dtype
            if to.is_float:

                def step(regs, d=d, s=ss[0], dt=dt):
                    regs[d] = regs[s].astype(dt)
            else:

                def step(regs, d=d, s=ss[0], dt=dt):
                    regs[d] = np.trunc(regs[s]).astype(dt)
            return step

        if op == "vinsert0":

            def step(regs, d=d, s0=ss[0], s1=ss[1]):
                v = regs[s0].copy()
                v[0] = v.dtype.type(regs[s1])
                regs[d] = v
            return step

        if op == "vreduce":
            kind = imm["kind"]
            if kind == "plus":

                def step(regs, d=d, s=ss[0]):
                    v = regs[s]
                    regs[d] = v.dtype.type(np.add.reduce(v))
            elif kind == "min":

                def step(regs, d=d, s=ss[0]):
                    regs[d] = regs[s].min()
            else:

                def step(regs, d=d, s=ss[0]):
                    regs[d] = regs[s].max()
            return step

        if op == "vdot":
            dt = imm["elem"].numpy_dtype  # the *widened* accumulator element

            def step(regs, d=d, s0=ss[0], s1=ss[1], s2=ss[2], dt=dt):
                wide = regs[s0].astype(dt) * regs[s1].astype(dt)
                pair = wide.reshape(-1, 2).sum(axis=1, dtype=dt)
                regs[d] = (regs[s2] + pair).astype(dt)
            return step

        if op == "vwidenmul":
            dt = imm["elem"].numpy_dtype  # widened element type
            lo = imm["half"] == "lo"

            def step(regs, d=d, s0=ss[0], s1=ss[1], dt=dt, lo=lo):
                a = regs[s0]
                m = a.size
                sl = slice(0, m // 2) if lo else slice(m // 2, m)
                regs[d] = a[sl].astype(dt) * regs[s1][sl].astype(dt)
            return step

        if op == "vpack":
            dt = imm["elem"].numpy_dtype  # narrowed element type

            def step(regs, d=d, s0=ss[0], s1=ss[1], dt=dt):
                regs[d] = np.concatenate(
                    [regs[s0], regs[s1]]
                ).astype(dt)
            return step

        if op == "vunpack":
            dt = imm["elem"].numpy_dtype  # widened element type
            lo = imm["half"] == "lo"

            def step(regs, d=d, s=ss[0], dt=dt, lo=lo):
                a = regs[s]
                m = a.size
                sl = slice(0, m // 2) if lo else slice(m // 2, m)
                regs[d] = a[sl].astype(dt)
            return step

        if op == "vextract":
            stride = imm["stride"]
            offset = imm["offset"]
            srcs = tuple(ss)

            def step(regs, d=d, srcs=srcs, stride=stride, offset=offset):
                parts = np.concatenate([regs[s] for s in srcs])
                regs[d] = parts[offset::stride].copy()
            return step

        if op == "vinterleave":
            lo = imm["half"] == "lo"

            def step(regs, d=d, s0=ss[0], s1=ss[1], lo=lo):
                a = regs[s0]
                b = regs[s1]
                m = a.size
                sl = slice(0, m // 2) if lo else slice(m // 2, m)
                out = np.empty(m, dtype=a.dtype)
                out[0::2] = a[sl]
                out[1::2] = b[sl]
                regs[d] = out
            return step

        if op == "call_lib":
            # Library fallback: compile the emulated idiom's closure; the
            # block accounting already charged call_lib's cost and counted
            # the op as "call_lib", exactly like the reference VM.
            inner = MInstr(imm["sem"], ins.dst, ins.srcs, imm)
            return self._compile_instr(inner)

        raise VMError(f"unknown opcode {op!r}")

    # -- execution ----------------------------------------------------------

    def run(
        self,
        scalar_args: dict[str, object] | None = None,
        arrays: dict[str, ArrayBuffer] | None = None,
        max_instructions: int = 500_000_000,
    ) -> RunResult:
        """Execute the translated code; mirrors :meth:`VM.run` exactly."""
        scalar_args = scalar_args or {}
        arrays = arrays or {}
        for slot in self.mfunc.arrays:
            if slot.name not in arrays:
                raise VMError(f"array parameter {slot.name!r} not bound")
        regs: list = [None] * len(self._slot_of)
        for slot_i, name in self._array_binds:
            regs[slot_i] = arrays.get(name)
        for slot_i, conv, name in self._param_binds:
            if name not in scalar_args:
                raise VMError(f"scalar parameter {name!r} not bound")
            regs[slot_i] = conv(scalar_args[name])

        blocks = self._blocks
        # (count, cycles, steps, next) tuples: tuple unpacking in the hot
        # loop is markedly cheaper than four dataclass attribute lookups
        # per block.
        dispatch = self._dispatch
        cycles = 0.0
        executed = 0
        counts: Counter[str] | None = Counter() if self.count_ops else None
        bi = 0 if blocks else -1
        # One errstate for the whole run: the reference VM suppresses the
        # same warning classes around every op, so values are unchanged.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if counts is None:
                while bi >= 0:
                    count, cyc, steps, nextf = dispatch[bi]
                    executed += count
                    if executed > max_instructions:
                        self._replay_overrun(
                            blocks[bi], regs, executed - count,
                            max_instructions,
                        )
                    cycles += cyc
                    for f in steps:
                        f(regs)
                    bi = nextf(regs)
            else:
                while bi >= 0:
                    count, cyc, steps, nextf = dispatch[bi]
                    executed += count
                    if executed > max_instructions:
                        self._replay_overrun(
                            blocks[bi], regs, executed - count,
                            max_instructions,
                        )
                    cycles += cyc
                    counts.update(blocks[bi].op_counts)
                    for f in steps:
                        f(regs)
                    bi = nextf(regs)
        return RunResult(
            regs[self._ret], cycles, executed,
            counts if counts is not None else {},
        )

    def _replay_overrun(self, block: _Block, regs: list, executed: int,
                        max_instructions: int) -> None:
        """Re-execute ``block`` per instruction with per-instruction budget
        checks, so the trap raised (budget exhaustion vs. an alignment
        fault on an earlier instruction of the block) is exactly the one
        the reference VM raises.  Always raises."""
        for action in block.replay:
            executed += 1
            if executed > max_instructions:
                raise VMError(
                    f"instruction budget exceeded in {self.mfunc.name} "
                    f"({max_instructions})"
                )
            if action is not None:
                action(regs)
        raise AssertionError("unreachable: overrun block must trap")


def translate(mfunc: MFunction, target: Target,
              count_ops: bool = False) -> ThreadedCode:
    """Translate ``mfunc`` into threaded code for ``target``."""
    return ThreadedCode(mfunc, target, count_ops)

