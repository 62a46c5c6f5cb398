"""Machine-dialect structured IR operations.

The online compiler's *materialization* stage (jit/materialize.py) rewrites
split-layer idioms into these target-legal operations — each has an exact
MIR counterpart — while the structure (loops, ifs) is still intact.  The
flattener then performs the purely mechanical structured->flat translation.

Memory operations here carry an *element index* value (index of the first
lane); the flattener emits the byte-address arithmetic, which is where
addressing-mode quality differences between online compilers show up.
"""

from __future__ import annotations

from ..ir.instructions import Instr
from ..ir.types import I64, VectorType
from ..ir.values import ArrayRef, Value

__all__ = [
    "MVLoad",
    "MVStore",
    "MLvsr",
    "MVPerm",
    "MVSplat",
    "MVAffine",
    "MVConst",
    "MVInsert0",
    "MVReduce",
    "MVDot",
    "MVWidenMult",
    "MVPack",
    "MVUnpack",
    "MVCvt",
    "MVExtract",
    "MVInterleave",
    "MArrOverlap",
    "MArrAligned",
    "MLibCall",
]


class _MMem(Instr):
    def __init__(self, result_type, array: ArrayRef, index: Value, extra, name=""):
        super().__init__(result_type, [array, index, *extra], name)

    @property
    def array(self) -> ArrayRef:
        return self._operands[0]  # type: ignore[return-value]

    @property
    def index(self) -> Value:
        return self._operands[1]


class MVLoad(_MMem):
    """Vector load; ``mode`` is 'a' (aligned, traps), 'u' (misaligned ok),
    or 'fa' (floor-aligned, AltiVec align_load)."""

    def __init__(self, vtype: VectorType, array, index, mode: str, name=""):
        super().__init__(vtype, array, index, [], name)
        self.mode = mode

    mnemonic = property(lambda self: f"mvload_{self.mode}")  # type: ignore[assignment]

    def attrs(self):
        return {"mode": self.mode}


class MVStore(_MMem):
    """Vector store; ``mode`` is 'a' or 'u'."""

    def __init__(self, array, index, value: Value, mode: str, name=""):
        super().__init__(value.type, array, index, [value], name)
        self.mode = mode

    mnemonic = property(lambda self: f"mvstore_{self.mode}")  # type: ignore[assignment]

    @property
    def has_side_effects(self) -> bool:
        return True

    @property
    def value(self) -> Value:
        return self._operands[2]

    def attrs(self):
        return {"mode": self.mode}


class MLvsr(_MMem):
    """Realignment token (byte shift) from a runtime address."""

    mnemonic = "mlvsr"

    def __init__(self, array, index, name=""):
        super().__init__(I64, array, index, [], name)


class MVPerm(Instr):
    """Explicit realignment: select VS bytes from concat(v1,v2) at token."""

    mnemonic = "mvperm"

    def __init__(self, v1: Value, v2: Value, token: Value, name=""):
        super().__init__(v1.type, [v1, v2, token], name)


class MVSplat(Instr):
    """Broadcast a scalar into all lanes."""

    mnemonic = "mvsplat"

    def __init__(self, vtype: VectorType, scalar: Value, name=""):
        super().__init__(vtype, [scalar], name)


class MVAffine(Instr):
    """(base, base+inc, base+2*inc, ...) — init_affine materialized."""

    mnemonic = "mvaffine"

    def __init__(self, vtype: VectorType, base: Value, inc: Value, name=""):
        super().__init__(vtype, [base, inc], name)


class MVConst(Instr):
    """A compile-time lane pattern, tiled to the vector width."""

    mnemonic = "mvconst"

    def __init__(self, vtype: VectorType, values: tuple, name=""):
        super().__init__(vtype, [], name)
        self.values = tuple(values)

    def attrs(self):
        return {"values": self.values}


class MVInsert0(Instr):
    """Insert a scalar into lane 0 of a vector (init_reduc materialized:
    splat the identity, then movss-style insert of the incoming value)."""

    mnemonic = "mvinsert0"

    def __init__(self, vec: Value, scalar: Value, name=""):
        super().__init__(vec.type, [vec, scalar], name)


class MVReduce(Instr):
    """Horizontal reduction to a scalar."""

    mnemonic = "mvreduce"

    def __init__(self, kind: str, vec: Value, name=""):
        vt = vec.type
        super().__init__(vt.elem, [vec], name)
        self.kind = kind

    def attrs(self):
        return {"kind": self.kind}


class MVDot(Instr):
    """Widening multiply + pairwise accumulate (pmaddwd-style)."""

    mnemonic = "mvdot"

    def __init__(self, v1: Value, v2: Value, acc: Value, name=""):
        super().__init__(acc.type, [v1, v2, acc], name)


class MVWidenMult(Instr):
    """Widening multiply of one input half (widen_mult materialized)."""

    mnemonic = "mvwidenmult"

    def __init__(self, result_type: VectorType, half: str, v1, v2, name=""):
        super().__init__(result_type, [v1, v2], name)
        self.half = half

    def attrs(self):
        return {"half": self.half}


class MVPack(Instr):
    """Demote-and-concatenate two vectors (pack materialized)."""

    mnemonic = "mvpack"

    def __init__(self, result_type: VectorType, v1, v2, name=""):
        super().__init__(result_type, [v1, v2], name)


class MVUnpack(Instr):
    """Promote one half of a vector (unpack_hi/lo materialized)."""

    mnemonic = "mvunpack"

    def __init__(self, result_type: VectorType, half: str, v1, name=""):
        super().__init__(result_type, [v1], name)
        self.half = half

    def attrs(self):
        return {"half": self.half}


class MVCvt(Instr):
    """Same-width int<->float lane conversion (cvt_* materialized)."""

    mnemonic = "mvcvt"

    def __init__(self, result_type: VectorType, v1, name=""):
        super().__init__(result_type, [v1], name)


class MVExtract(Instr):
    """Strided lane extraction across several registers."""

    mnemonic = "mvextract"

    def __init__(self, stride: int, offset: int, vecs: list[Value], name=""):
        super().__init__(vecs[0].type, list(vecs), name)
        self.stride = stride
        self.offset = offset

    def attrs(self):
        return {"stride": self.stride, "offset": self.offset}


class MVInterleave(Instr):
    """Interleave the hi/lo halves of two vectors (strided stores)."""

    mnemonic = "mvinterleave"

    def __init__(self, half: str, v1, v2, name=""):
        super().__init__(v1.type, [v1, v2], name)
        self.half = half

    def attrs(self):
        return {"half": self.half}


class MArrOverlap(Instr):
    """Runtime overlap check between two arrays (no_alias guard)."""

    mnemonic = "marr_overlap"

    def __init__(self, a1: ArrayRef, a2: ArrayRef, name=""):
        from ..ir.types import BOOL

        super().__init__(BOOL, [a1, a2], name)


class MArrAligned(Instr):
    """Runtime base-alignment check (unfoldable bases_aligned guard)."""

    mnemonic = "marr_aligned"

    def __init__(self, array: ArrayRef, align: int, name=""):
        from ..ir.types import BOOL

        super().__init__(BOOL, [array], name)
        self.align = align

    def attrs(self):
        return {"align": self.align}


class MLibCall(Instr):
    """Library-emulated vector idiom (the immature-backend fallback)."""

    mnemonic = "mlibcall"

    def __init__(self, result_type, sem: str, operands: list[Value], imm: dict, name=""):
        super().__init__(result_type, list(operands), name)
        self.sem = sem
        self.imm = dict(imm)

    def attrs(self):
        return {"sem": self.sem, **self.imm}
