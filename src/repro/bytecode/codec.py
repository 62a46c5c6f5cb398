"""Vapor bytecode: serialization of (scalar or vectorized) IR functions.

This is the repo's stand-in for the CLI bytecode of the paper: a standard,
strongly typed, structure-preserving format that both compilation stages
speak.  The Table 1 idioms are ordinary opcodes in it — "incorporated into
a standard representation (without breaking it)" (§III-A) — so a consumer
that does not know them could still parse the stream.

The format is deliberately compact (varints, interned opcode table) because
the paper's §V-A.c measures bytecode-size growth under vectorization (~5x)
and shows JIT compile time is proportional to it; we reproduce both from
real encoded bytes.
"""

from __future__ import annotations

import struct
import zlib

from .. import faults
from ..ir import (
    ALoad,
    AlignLoad,
    Argument,
    ArrayRef,
    BinOp,
    Block,
    Cmp,
    Const,
    Convert,
    CvtIntFp,
    DotProduct,
    Extract,
    ForLoop,
    Function,
    GetAlignLimit,
    GetRT,
    GetVF,
    If,
    InitAffine,
    InitPattern,
    InitReduc,
    InitUniform,
    Instr,
    Interleave,
    Load,
    LoopBound,
    Module,
    Pack,
    RealignLoad,
    Reduce,
    Return,
    Select,
    Store,
    UnOp,
    Unpack,
    Value,
    VersionGuard,
    VStore,
    WidenMult,
    Yield,
)
from ..ir.types import (
    BOOL,
    F32,
    F64,
    I8,
    I16,
    I32,
    I64,
    VectorType,
)
from .verify import BytecodeVerifyError
from .writer import FormatError, Reader, Writer

__all__ = [
    "encode_function",
    "decode_function",
    "encode_module",
    "decode_module",
    "MAGIC",
    "FormatError",
]

#: container magic; VBC2 added the payload CRC-32 to the header.
MAGIC = b"VBC2"

#: bytes of container header: 4 magic + 4 CRC-32 (little-endian).
_HEADER_BYTES = 8

_SCALARS = [I8, I16, I32, I64, F32, F64, BOOL]
_SCALAR_ID = {t.name: i for i, t in enumerate(_SCALARS)}

_BIN_OPS = ["add", "sub", "mul", "div", "mod", "min", "max", "and", "or",
            "xor", "shl", "shr"]
_UN_OPS = ["neg", "abs", "not", "sqrt"]
_CMP_OPS = ["eq", "ne", "lt", "le", "gt", "ge"]

# Class ids.
C_BINOP, C_UNOP, C_CMP, C_SELECT, C_CONVERT, C_LOAD, C_STORE = range(7)
C_FOR, C_IF, C_YIELD, C_RETURN = 7, 8, 9, 10
(
    C_GETVF,
    C_GETALIGN,
    C_UNIFORM,
    C_AFFINE,
    C_REDUCINIT,
    C_PATTERN,
    C_REDUCE,
    C_DOT,
    C_WIDENMULT,
    C_PACK,
    C_UNPACK,
    C_CVT,
    C_EXTRACT,
    C_INTERLEAVE,
    C_ALOAD,
    C_ALIGNLOAD,
    C_GETRT,
    C_REALIGN,
    C_VSTORE,
    C_LOOPBOUND,
    C_GUARD,
) = range(20, 41)


def _write_type(w: Writer, t) -> None:
    if isinstance(t, VectorType):
        w.u8(0x40 | _SCALAR_ID[t.elem.name])
        w.varint(0 if t.lanes is None else t.lanes)
    else:
        w.u8(_SCALAR_ID[t.name])


def _read_type(r: Reader):
    b = r.u8()
    if b & 0x40:
        elem = _SCALARS[b & 0x3F]
        lanes = r.varint()
        return VectorType(elem, None if lanes == 0 else lanes)
    return _SCALARS[b]


class _Encoder:
    def __init__(self, fn: Function) -> None:
        self.fn = fn
        self.w = Writer()
        self.ids: dict[int, int] = {}
        self.next_id = 0

    def assign(self, v: Value) -> int:
        self.ids[v.id] = self.next_id
        self.next_id += 1
        return self.ids[v.id]

    def operand(self, v: Value) -> None:
        if isinstance(v, Const):
            self.w.u8(1)
            self.w.u8(_SCALAR_ID[v.type.name])
            if v.type.is_float:
                self.w.f64(float(v.value))
            else:
                self.w.varint(int(v.value))
            return
        self.w.u8(0)
        try:
            self.w.varint(self.ids[v.id])
        except KeyError:
            raise FormatError(f"operand {v!r} used before definition") from None

    def operands(self, ops: list[Value]) -> None:
        self.w.varint(len(ops))
        for op in ops:
            self.operand(op)

    def run(self) -> bytes:
        fn = self.fn
        w = self.w
        w.string(fn.name)
        w.string(fn.form)
        w.varint(len(fn.scalar_params))
        for p in fn.scalar_params:
            w.string(p.name)
            w.u8(_SCALAR_ID[p.type.name])
            self.assign(p)
        w.varint(len(fn.array_params))
        scalar_index = {p.id: i for i, p in enumerate(fn.scalar_params)}
        for a in fn.array_params:
            w.string(a.name)
            w.u8(_SCALAR_ID[a.elem.name])
            w.u8(1 if a.may_alias else 0)
            w.varint(len(a.shape))
            for extent in a.shape:
                if isinstance(extent, int):
                    w.u8(0)
                    w.varint(extent)
                else:
                    w.u8(1)
                    w.varint(scalar_index[extent.id])
            self.assign(a)
        if fn.return_type is None:
            w.u8(0xFF)
        else:
            w.u8(_SCALAR_ID[fn.return_type.name])
        w.value({k: v for k, v in fn.annotations.items() if k == "vect_report"})
        self.block(fn.body)
        return w.bytes()

    def block(self, block: Block) -> None:
        self.w.varint(len(block.instrs))
        for instr in block.instrs:
            self.instr(instr)

    def _group(self, instr) -> None:
        g = getattr(instr, "group", None)
        self.w.varint(-1 if g is None else g)

    def instr(self, instr: Instr) -> None:
        w = self.w
        if isinstance(instr, BinOp):
            w.u8(C_BINOP)
            w.u8(_BIN_OPS.index(instr.op))
            _write_type(w, instr.type)
            self.operand(instr.lhs)
            self.operand(instr.rhs)
        elif isinstance(instr, UnOp):
            w.u8(C_UNOP)
            w.u8(_UN_OPS.index(instr.op))
            _write_type(w, instr.type)
            self.operand(instr.value)
        elif isinstance(instr, Cmp):
            w.u8(C_CMP)
            w.u8(_CMP_OPS.index(instr.op))
            self.operand(instr.lhs)
            self.operand(instr.rhs)
        elif isinstance(instr, Select):
            w.u8(C_SELECT)
            self.operand(instr.cond)
            self.operand(instr.if_true)
            self.operand(instr.if_false)
        elif isinstance(instr, Convert):
            w.u8(C_CONVERT)
            w.u8(_SCALAR_ID[instr.to.name])
            self.operand(instr.value)
        elif isinstance(instr, Load):
            w.u8(C_LOAD)
            self.operand(instr.array)
            self.operands(instr.indices)
        elif isinstance(instr, Store):
            w.u8(C_STORE)
            self.operand(instr.array)
            self.operands(instr.indices)
            self.operand(instr.value)
        elif isinstance(instr, ForLoop):
            w.u8(C_FOR)
            w.string(instr.iv.name)
            w.string(instr.kind)
            w.value(instr.annotations)
            self.operand(instr.lower)
            self.operand(instr.upper)
            self.operand(instr.step)
            self.operands(instr.init_values)
            for arg in instr.body.args:
                self.assign(arg)
            self.block(instr.body)
            for res in instr.results:
                self.assign(res)
        elif isinstance(instr, If):
            w.u8(C_IF)
            self.operand(instr.cond)
            w.varint(len(instr.results))
            for res in instr.results:
                _write_type(w, res.type)
            self.block(instr.then_block)
            self.block(instr.else_block)
            for res in instr.results:
                self.assign(res)
        elif isinstance(instr, Yield):
            w.u8(C_YIELD)
            self.operands(instr.values)
        elif isinstance(instr, Return):
            w.u8(C_RETURN)
            if instr.value is None:
                w.u8(0)
            else:
                w.u8(1)
                self.operand(instr.value)
        elif isinstance(instr, GetVF):
            w.u8(C_GETVF)
            w.u8(_SCALAR_ID[instr.elem.name])
            self._group(instr)
        elif isinstance(instr, GetAlignLimit):
            w.u8(C_GETALIGN)
            w.u8(_SCALAR_ID[instr.elem.name])
            self._group(instr)
        elif isinstance(instr, InitUniform):
            w.u8(C_UNIFORM)
            _write_type(w, instr.type)
            self._group(instr)
            self.operand(instr.val)
        elif isinstance(instr, InitAffine):
            w.u8(C_AFFINE)
            _write_type(w, instr.type)
            self._group(instr)
            self.operand(instr.val)
            self.operand(instr.inc)
        elif isinstance(instr, InitReduc):
            w.u8(C_REDUCINIT)
            _write_type(w, instr.type)
            self._group(instr)
            w.f64(float(instr.default))
            self.operand(instr.val)
        elif isinstance(instr, InitPattern):
            w.u8(C_PATTERN)
            _write_type(w, instr.type)
            self._group(instr)
            w.value(tuple(instr.pattern))
        elif isinstance(instr, Reduce):
            w.u8(C_REDUCE)
            w.u8(Reduce.KINDS.index(instr.kind))
            self._group(instr)
            self.operand(instr.vec)
        elif isinstance(instr, DotProduct):
            w.u8(C_DOT)
            self._group(instr)
            self.operand(instr.v1)
            self.operand(instr.v2)
            self.operand(instr.acc)
        elif isinstance(instr, WidenMult):
            w.u8(C_WIDENMULT)
            w.u8(0 if instr.half == "lo" else 1)
            self._group(instr)
            self.operand(instr.operands[0])
            self.operand(instr.operands[1])
        elif isinstance(instr, Pack):
            w.u8(C_PACK)
            self._group(instr)
            self.operand(instr.operands[0])
            self.operand(instr.operands[1])
        elif isinstance(instr, Unpack):
            w.u8(C_UNPACK)
            w.u8(0 if instr.half == "lo" else 1)
            self._group(instr)
            self.operand(instr.operands[0])
        elif isinstance(instr, CvtIntFp):
            w.u8(C_CVT)
            w.u8(_SCALAR_ID[instr.to.name])
            self._group(instr)
            self.operand(instr.operands[0])
        elif isinstance(instr, Extract):
            w.u8(C_EXTRACT)
            w.u8(instr.stride)
            w.u8(instr.offset)
            self._group(instr)
            self.operands(list(instr.operands))
        elif isinstance(instr, Interleave):
            w.u8(C_INTERLEAVE)
            w.u8(0 if instr.half == "lo" else 1)
            self._group(instr)
            self.operand(instr.operands[0])
            self.operand(instr.operands[1])
        elif isinstance(instr, ALoad):
            w.u8(C_ALOAD)
            _write_type(w, instr.type)
            self._group(instr)
            self.operand(instr.array)
            self.operand(instr.index)
        elif isinstance(instr, AlignLoad):
            w.u8(C_ALIGNLOAD)
            _write_type(w, instr.type)
            self._group(instr)
            self.operand(instr.array)
            self.operand(instr.index)
        elif isinstance(instr, GetRT):
            w.u8(C_GETRT)
            self._group(instr)
            w.varint(instr.mis)
            w.varint(instr.mod)
            self.operand(instr.array)
            self.operand(instr.index)
        elif isinstance(instr, RealignLoad):
            w.u8(C_REALIGN)
            _write_type(w, instr.type)
            self._group(instr)
            w.varint(instr.mis)
            w.varint(instr.mod)
            w.varint(instr.step_bytes)
            w.u8(1 if instr.has_chain else 0)
            self.operand(instr.array)
            self.operand(instr.index)
            if instr.has_chain:
                self.operand(instr.v1)
                self.operand(instr.v2)
                self.operand(instr.rt)
        elif isinstance(instr, VStore):
            w.u8(C_VSTORE)
            self._group(instr)
            w.varint(instr.mis)
            w.varint(instr.mod)
            w.varint(instr.step_bytes)
            w.u8(1 if instr.aligned_by_peel else 0)
            self.operand(instr.array)
            self.operand(instr.index)
            self.operand(instr.value)
        elif isinstance(instr, LoopBound):
            w.u8(C_LOOPBOUND)
            self._group(instr)
            self.operand(instr.vect)
            self.operand(instr.scalar)
        elif isinstance(instr, VersionGuard):
            w.u8(C_GUARD)
            w.u8(VersionGuard.KINDS.index(instr.kind))
            self._group(instr)
            w.value(instr.params)
            self.operands(list(instr.operands))
        else:
            raise FormatError(f"unencodable instruction {instr!r}")
        self.assign(instr)


class _Decoder:
    def __init__(self, data: bytes) -> None:
        self.r = Reader(data)
        self.values: list[Value] = []

    def operand(self) -> Value:
        tag = self.r.u8()
        if tag == 1:
            t = _SCALARS[self.r.u8()]
            if t.is_float:
                return Const(self.r.f64(), t)
            return Const(self.r.varint(), t)
        idx = self.r.varint()
        try:
            return self.values[idx]
        except IndexError:
            raise FormatError(f"bad value index {idx}") from None

    def operands(self) -> list[Value]:
        return [self.operand() for _ in range(self.r.varint())]

    def run(self) -> Function:
        r = self.r
        name = r.string()
        form = r.string()
        scalar_params = []
        for _ in range(r.varint()):
            pname = r.string()
            t = _SCALARS[r.u8()]
            p = Argument(pname, t)
            scalar_params.append(p)
            self.values.append(p)
        array_params = []
        for _ in range(r.varint()):
            aname = r.string()
            elem = _SCALARS[r.u8()]
            may_alias = bool(r.u8())
            shape = []
            for _ in range(r.varint()):
                tag = r.u8()
                if tag == 0:
                    shape.append(r.varint())
                else:
                    shape.append(scalar_params[r.varint()])
            a = ArrayRef(aname, elem, tuple(shape), may_alias=may_alias)
            array_params.append(a)
            self.values.append(a)
        ret_byte = r.u8()
        ret = None if ret_byte == 0xFF else _SCALARS[ret_byte]
        annotations = r.value() or {}
        fn = Function(name, scalar_params, array_params, ret)
        fn.form = form
        fn.annotations = dict(annotations)
        self.block_into(fn.body)
        return fn

    def block_into(self, block: Block) -> None:
        count = self.r.varint()
        for _ in range(count):
            block.append(self.instr())

    def _group(self, instr) -> None:
        g = self.r.varint()
        if g >= 0:
            instr.group = g

    def instr(self) -> Instr:
        r = self.r
        cid = r.u8()
        if cid == C_BINOP:
            op = _BIN_OPS[r.u8()]
            t = _read_type(r)
            out: Instr = BinOp(op, self.operand(), self.operand())
            out.type = t
        elif cid == C_UNOP:
            op = _UN_OPS[r.u8()]
            t = _read_type(r)
            out = UnOp(op, self.operand())
            out.type = t
        elif cid == C_CMP:
            op = _CMP_OPS[r.u8()]
            out = Cmp(op, self.operand(), self.operand())
        elif cid == C_SELECT:
            out = Select(self.operand(), self.operand(), self.operand())
        elif cid == C_CONVERT:
            to = _SCALARS[r.u8()]
            out = Convert(self.operand(), to)
        elif cid == C_LOAD:
            arr = self.operand()
            out = Load(arr, self.operands())
        elif cid == C_STORE:
            arr = self.operand()
            idxs = self.operands()
            out = Store(arr, idxs, self.operand())
        elif cid == C_FOR:
            iv_name = r.string()
            kind = r.string()
            annotations = r.value() or {}
            lower = self.operand()
            upper = self.operand()
            step = self.operand()
            inits = self.operands()
            loop = ForLoop(lower, upper, step, inits, iv_name=iv_name, kind=kind)
            loop.annotations = dict(annotations)
            for arg in loop.body.args:
                self.values.append(arg)
            self.block_into(loop.body)
            for res in loop.results:
                self.values.append(res)
            out = loop
        elif cid == C_IF:
            cond = self.operand()
            result_types = [_read_type(r) for _ in range(r.varint())]
            ifop = If(cond, result_types)
            self.block_into(ifop.then_block)
            self.block_into(ifop.else_block)
            for res in ifop.results:
                self.values.append(res)
            out = ifop
        elif cid == C_YIELD:
            out = Yield(self.operands())
        elif cid == C_RETURN:
            has = r.u8()
            out = Return(self.operand() if has else None)
        elif cid == C_GETVF:
            out = GetVF(_SCALARS[r.u8()])
            self._group(out)
        elif cid == C_GETALIGN:
            out = GetAlignLimit(_SCALARS[r.u8()])
            self._group(out)
        elif cid == C_UNIFORM:
            t = _read_type(r)
            out = InitUniform.__new__(InitUniform)
            g = r.varint()
            val = self.operand()
            out = InitUniform(t, val)
            if g >= 0:
                out.group = g
        elif cid == C_AFFINE:
            t = _read_type(r)
            g = r.varint()
            out = InitAffine(t, self.operand(), self.operand())
            if g >= 0:
                out.group = g
        elif cid == C_REDUCINIT:
            t = _read_type(r)
            g = r.varint()
            default = r.f64()
            if not t.elem.is_float:
                default = int(default)
            out = InitReduc(t, self.operand(), default)
            if g >= 0:
                out.group = g
        elif cid == C_PATTERN:
            t = _read_type(r)
            g = r.varint()
            pattern = r.value()
            out = InitPattern(t, pattern)
            if g >= 0:
                out.group = g
        elif cid == C_REDUCE:
            kind = Reduce.KINDS[r.u8()]
            g = r.varint()
            out = Reduce(kind, self.operand())
            if g >= 0:
                out.group = g
        elif cid == C_DOT:
            g = r.varint()
            out = DotProduct(self.operand(), self.operand(), self.operand())
            if g >= 0:
                out.group = g
        elif cid == C_WIDENMULT:
            half = "lo" if r.u8() == 0 else "hi"
            g = r.varint()
            out = WidenMult(half, self.operand(), self.operand())
            if g >= 0:
                out.group = g
        elif cid == C_PACK:
            g = r.varint()
            out = Pack(self.operand(), self.operand())
            if g >= 0:
                out.group = g
        elif cid == C_UNPACK:
            half = "lo" if r.u8() == 0 else "hi"
            g = r.varint()
            out = Unpack(half, self.operand())
            if g >= 0:
                out.group = g
        elif cid == C_CVT:
            to = _SCALARS[r.u8()]
            g = r.varint()
            out = CvtIntFp(self.operand(), to)
            if g >= 0:
                out.group = g
        elif cid == C_EXTRACT:
            stride = r.u8()
            offset = r.u8()
            g = r.varint()
            out = Extract(stride, offset, self.operands())
            if g >= 0:
                out.group = g
        elif cid == C_INTERLEAVE:
            half = "lo" if r.u8() == 0 else "hi"
            g = r.varint()
            out = Interleave(half, self.operand(), self.operand())
            if g >= 0:
                out.group = g
        elif cid == C_ALOAD:
            t = _read_type(r)
            g = r.varint()
            out = ALoad(t, self.operand(), self.operand())
            if g >= 0:
                out.group = g
        elif cid == C_ALIGNLOAD:
            t = _read_type(r)
            g = r.varint()
            out = AlignLoad(t, self.operand(), self.operand())
            if g >= 0:
                out.group = g
        elif cid == C_GETRT:
            g = r.varint()
            mis = r.varint()
            mod = r.varint()
            out = GetRT(self.operand(), self.operand(), mis, mod)
            if g >= 0:
                out.group = g
        elif cid == C_REALIGN:
            t = _read_type(r)
            g = r.varint()
            mis = r.varint()
            mod = r.varint()
            step_bytes = r.varint()
            has_chain = bool(r.u8())
            arr = self.operand()
            idx = self.operand()
            if has_chain:
                v1, v2, rt = self.operand(), self.operand(), self.operand()
            else:
                v1 = v2 = rt = None
            out = RealignLoad(t, arr, idx, v1, v2, rt, mis, mod)
            out.step_bytes = step_bytes
            if g >= 0:
                out.group = g
        elif cid == C_VSTORE:
            g = r.varint()
            mis = r.varint()
            mod = r.varint()
            step_bytes = r.varint()
            aligned_by_peel = bool(r.u8())
            arr = self.operand()
            idx = self.operand()
            val = self.operand()
            out = VStore(arr, idx, val, mis, mod)
            out.step_bytes = step_bytes
            out.aligned_by_peel = aligned_by_peel
            if g >= 0:
                out.group = g
        elif cid == C_LOOPBOUND:
            g = r.varint()
            out = LoopBound(self.operand(), self.operand())
            if g >= 0:
                out.group = g
        elif cid == C_GUARD:
            kind = VersionGuard.KINDS[r.u8()]
            g = r.varint()
            params = r.value() or {}
            ops = self.operands()
            out = VersionGuard(kind, ops, dict(params))
            if g >= 0:
                out.group = g
        else:
            raise FormatError(f"unknown class id {cid}")
        self.values.append(out)
        return out


def encode_function(fn: Function) -> bytes:
    """Serialize one function to Vapor bytecode (without container header)."""
    return _Encoder(fn).run()


def decode_function(data: bytes) -> Function:
    """Deserialize one function (strict).

    Every malformation — truncation, out-of-range opcode/type/operand
    ids, malformed attribute values, trailing garbage — raises a
    positioned :class:`FormatError`; stray ``IndexError``/``KeyError``
    etc. from the raw reader never escape.
    """
    dec = _Decoder(data)
    try:
        fn = dec.run()
    except FormatError:
        raise
    except (IndexError, KeyError, ValueError, TypeError, OverflowError,
            AttributeError, AssertionError) as exc:
        raise FormatError(
            f"malformed function stream: {type(exc).__name__}: {exc}",
            offset=dec.r.pos,
        ) from None
    if not dec.r.exhausted:
        raise FormatError(
            f"{len(data) - dec.r.pos} trailing bytes after function body",
            offset=dec.r.pos,
        )
    return fn


def encode_module(module: Module) -> bytes:
    """Serialize a module with the VBC2 container header.

    Layout: ``"VBC2"  u32le(crc32(payload))  payload`` where payload is
    ``varint(function_count) { varint(len) function_bytes }*``.  The
    CRC-32 makes any single-byte corruption of the container detectable
    at decode time — corrupt streams are rejected before they can reach
    the JIT or the VM.
    """
    p = Writer()
    p.varint(len(module.functions))
    for fn in module:
        body = encode_function(fn)
        p.varint(len(body))
        p.buf.extend(body)
    payload = p.bytes()
    out = bytearray(MAGIC)
    out.extend(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
    out.extend(payload)
    # Fault-injection point: an active FaultPlan's bit-flips corrupt the
    # stream here, exercising the decode-side defenses end to end.
    return faults.corrupt(bytes(out))


def decode_module(data: bytes) -> Module:
    """Deserialize a VBC2 container (strict, checksum-verified).

    Raises classified :class:`~repro.bytecode.verify.BytecodeVerifyError`
    subtypes of :class:`FormatError`: ``bad-magic``, ``bad-checksum``,
    ``truncated``, ``bad-function``, ``trailing``.
    """
    if len(data) < _HEADER_BYTES:
        raise BytecodeVerifyError(
            "truncated",
            f"container of {len(data)} bytes, need >= {_HEADER_BYTES} "
            f"header bytes",
            offset=len(data),
        )
    if data[:4] != MAGIC:
        raise BytecodeVerifyError(
            "bad-magic",
            f"bad magic: expected {MAGIC!r}, got {bytes(data[:4])!r}",
            offset=0,
        )
    (stored,) = struct.unpack("<I", data[4:_HEADER_BYTES])
    payload = data[_HEADER_BYTES:]
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if stored != actual:
        raise BytecodeVerifyError(
            "bad-checksum",
            f"container checksum mismatch: header 0x{stored:08x}, "
            f"payload 0x{actual:08x}",
            offset=4,
        )
    r = Reader(payload)
    module = Module()
    count = r.varint()
    if count < 0:
        raise BytecodeVerifyError(
            "truncated", f"negative function count {count}", offset=0
        )
    for i in range(count):
        n = r.varint()
        if n < 0:
            raise BytecodeVerifyError(
                "truncated",
                f"negative length {n} for function #{i}",
                offset=_HEADER_BYTES + r.pos,
            )
        chunk = r.data[r.pos : r.pos + n]
        if len(chunk) != n:
            raise BytecodeVerifyError(
                "truncated",
                f"truncated function #{i}: need {n} bytes, got {len(chunk)}",
                offset=_HEADER_BYTES + r.pos,
            )
        r.pos += n
        try:
            module.add(decode_function(chunk))
        except BytecodeVerifyError:
            raise
        except FormatError as exc:
            raise BytecodeVerifyError(
                "bad-function", f"function #{i}: {exc}"
            ) from None
    if not r.exhausted:
        raise BytecodeVerifyError(
            "trailing",
            f"{len(payload) - r.pos} trailing bytes after last function",
            offset=_HEADER_BYTES + r.pos,
        )
    return module
