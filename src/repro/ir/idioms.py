"""The split-layer SIMD idioms — Table 1 of the Vapor SIMD paper.

These instructions form the abstraction layer between the offline and online
compilers.  They are "translatable to any SIMD platform ... as high-level and
generic as possible" while still carrying enough hints (misalignment, loop
bounds, version guards) for the online compiler to emit the best code for
each target *without re-running any loop-level analysis*.

Vector types are *symbolic* (``lanes is None``) in split bytecode: each
vector fills one VS-byte register and the lane count ``m = VS/sizeof(T)`` is
materialized by the JIT.  SLP-generated code instead uses *concrete* lane
counts equal to the superword group size; the JIT expands such ops into
``group/VF`` machine vectors (or scalarizes when ``VF`` does not divide the
group) — this is how a single bytecode serves targets of different VS.

Misalignment hints follow §III-B of the paper: the offline compiler computes
misalignment relative to ``mod`` = 32 bytes ("the largest SIMD width
available today"); ``mod == 0`` nulls the hint (the fall-back loop version).
"""

from __future__ import annotations

from .instructions import Instr
from .types import (
    BOOL,
    I8,
    I32,
    ScalarType,
    VectorType,
    narrowed,
    widened,
)
from .values import ArrayRef, Value

__all__ = [
    "IdiomInstr",
    "GetVF",
    "GetAlignLimit",
    "InitUniform",
    "InitAffine",
    "InitReduc",
    "InitPattern",
    "Reduce",
    "DotProduct",
    "WidenMult",
    "Pack",
    "Unpack",
    "CvtIntFp",
    "Extract",
    "Interleave",
    "ALoad",
    "AlignLoad",
    "GetRT",
    "RealignLoad",
    "VStore",
    "LoopBound",
    "VersionGuard",
    "MOD_HINT",
]

#: The large modulo relative to which the offline compiler computes
#: misalignment ("currently set to 32 bytes, the largest SIMD width
#: available today" — §III-B.c; conveniently it still covers AVX).
MOD_HINT = 32


class IdiomInstr(Instr):
    """Base class for all Table 1 idioms (handy for isinstance checks).

    ``group`` links an idiom to the vectorized-loop group it belongs to
    (peel/main/epilogue trio); the online compiler materializes all idioms
    of a group consistently (vector mode vs scalar mode).
    """

    group: int | None = None


class GetVF(IdiomInstr):
    """``int get_VF(T)`` — number of T elements per vector register.

    Materialized by the online compiler to ``VS // sizeof(T)`` (or 1 when
    scalarizing).  Pointer increments and loop steps in the vectorized
    bytecode are expressed in terms of this value.
    """

    mnemonic = "get_VF"

    def __init__(self, elem: ScalarType, name: str = "") -> None:
        super().__init__(I32, [], name)
        self.elem = elem

    def attrs(self) -> dict:
        return {"elem": self.elem.name}


class GetAlignLimit(IdiomInstr):
    """``int get_align_limit(T)`` — alignment requirement in T elements."""

    mnemonic = "get_align_limit"

    def __init__(self, elem: ScalarType, name: str = "") -> None:
        super().__init__(I32, [], name)
        self.elem = elem

    def attrs(self) -> dict:
        return {"elem": self.elem.name}


class InitUniform(IdiomInstr):
    """``init_uniform(T, val)`` — a vector of m copies of ``val``."""

    mnemonic = "init_uniform"

    def __init__(self, vtype: VectorType, val: Value, name: str = "") -> None:
        super().__init__(vtype, [val], name)

    @property
    def val(self) -> Value:
        return self._operands[0]


class InitAffine(IdiomInstr):
    """``init_affine(T, val, inc)`` — (val, val+inc, ..., val+(m-1)inc)."""

    mnemonic = "init_affine"

    def __init__(
        self, vtype: VectorType, val: Value, inc: Value, name: str = ""
    ) -> None:
        super().__init__(vtype, [val, inc], name)

    @property
    def val(self) -> Value:
        return self._operands[0]

    @property
    def inc(self) -> Value:
        return self._operands[1]


class InitReduc(IdiomInstr):
    """``init_reduc(T, val, default)`` — (val, default, ..., default).

    ``default`` is the reduction identity (0 for plus, +/-inf for min/max)
    and is a compile-time constant so the encoder can store it inline.
    """

    mnemonic = "init_reduc"

    def __init__(
        self, vtype: VectorType, val: Value, default: float, name: str = ""
    ) -> None:
        super().__init__(vtype, [val], name)
        self.default = default

    @property
    def val(self) -> Value:
        return self._operands[0]

    def attrs(self) -> dict:
        return {"default": self.default}


class InitPattern(IdiomInstr):
    """``init_pattern(T, c0..c_{g-1})`` — periodic compile-time lane pattern.

    An extension of ``init_uniform`` for superword (SLP) code: the pattern of
    ``g`` constants is tiled across the register.  Only emitted under a
    ``slp_group`` version guard, which guarantees ``VF % g == 0`` so tiling
    is well defined on every target that executes the vector version.
    """

    mnemonic = "init_pattern"

    def __init__(self, vtype: VectorType, pattern: tuple, name: str = "") -> None:
        super().__init__(vtype, [], name)
        self.pattern = tuple(pattern)

    def attrs(self) -> dict:
        return {"pattern": self.pattern}


class Reduce(IdiomInstr):
    """``reduc_plus/max/min(T, v)`` — horizontal reduction to a scalar."""

    KINDS = ("plus", "max", "min")

    def __init__(self, kind: str, vec: Value, name: str = "") -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown reduction kind {kind!r}")
        vt = vec.type
        assert isinstance(vt, VectorType)
        super().__init__(vt.elem, [vec], name)
        self.kind = kind

    mnemonic = property(lambda self: "reduc_" + self.kind)  # type: ignore[assignment]

    @property
    def vec(self) -> Value:
        return self._operands[0]

    def attrs(self) -> dict:
        return {"kind": self.kind}


class DotProduct(IdiomInstr):
    """``dot_product(T, v1, v2, v3)``.

    Elementwise *widening* multiply of v1 and v2 (elements of type T),
    accumulated into v3 (elements of type widen(T)).  Matches e.g. SSE
    ``pmaddwd`` and is the key idiom for the sfir/interp s16 kernels.
    """

    mnemonic = "dot_product"

    def __init__(self, v1: Value, v2: Value, acc: Value, name: str = "") -> None:
        super().__init__(acc.type, [v1, v2, acc], name)

    @property
    def v1(self) -> Value:
        return self._operands[0]

    @property
    def v2(self) -> Value:
        return self._operands[1]

    @property
    def acc(self) -> Value:
        return self._operands[2]


class WidenMult(IdiomInstr):
    """``widen_mult_hi/lo(T, v1, v2)``.

    Widening multiply of the high/low halves of v1, v2; the result has m/2
    elements of type 2*sizeof(T).  Used by dissolve_s8.
    """

    mnemonic_base = "widen_mult"

    def __init__(self, half: str, v1: Value, v2: Value, name: str = "") -> None:
        if half not in ("hi", "lo"):
            raise ValueError("half must be 'hi' or 'lo'")
        vt = v1.type
        assert isinstance(vt, VectorType)
        lanes = None if vt.lanes is None else vt.lanes // 2
        super().__init__(VectorType(widened(vt.elem), lanes), [v1, v2], name)
        self.half = half

    mnemonic = property(lambda self: f"widen_mult_{self.half}")  # type: ignore[assignment]

    def attrs(self) -> dict:
        return {"half": self.half}


class Pack(IdiomInstr):
    """``pack(T, v1, v2)`` — demote 2m elements to half-width, one vector."""

    mnemonic = "pack"

    def __init__(self, v1: Value, v2: Value, name: str = "") -> None:
        vt = v1.type
        assert isinstance(vt, VectorType)
        lanes = None if vt.lanes is None else vt.lanes * 2
        super().__init__(VectorType(narrowed(vt.elem), lanes), [v1, v2], name)


class Unpack(IdiomInstr):
    """``unpack_hi/lo(T, v1)`` — promote the hi/lo half to double width."""

    def __init__(self, half: str, v1: Value, name: str = "") -> None:
        if half not in ("hi", "lo"):
            raise ValueError("half must be 'hi' or 'lo'")
        vt = v1.type
        assert isinstance(vt, VectorType)
        lanes = None if vt.lanes is None else vt.lanes // 2
        super().__init__(VectorType(widened(vt.elem), lanes), [v1], name)
        self.half = half

    mnemonic = property(lambda self: f"unpack_{self.half}")  # type: ignore[assignment]

    def attrs(self) -> dict:
        return {"half": self.half}


class CvtIntFp(IdiomInstr):
    """``cvt_int2fp/fp2int(T, v1)`` — same-width int<->float conversion."""

    def __init__(self, v1: Value, to: ScalarType, name: str = "") -> None:
        vt = v1.type
        assert isinstance(vt, VectorType)
        if to.size != vt.elem.size:
            raise ValueError("cvt_intfp requires same-width conversion")
        super().__init__(VectorType(to, vt.lanes), [v1], name)
        self.to = to

    mnemonic = property(  # type: ignore[assignment]
        lambda self: "cvt_int2fp" if self.to.is_float else "cvt_fp2int"
    )

    def attrs(self) -> dict:
        return {"to": self.to.name}


class Extract(IdiomInstr):
    """``extract(T, s, off, v1, v2, ...)``.

    Extract the elements at strided positions off, off+s, ..., off+(m-1)s
    from the concatenation of the input vectors.  This is how strided loads
    (e.g. the rate-2 ``interp`` kernels) are expressed: load s consecutive
    vectors, then extract each phase.
    """

    mnemonic = "extract"

    def __init__(
        self, stride: int, offset: int, vecs: list[Value], name: str = ""
    ) -> None:
        if len(vecs) != stride:
            raise ValueError("extract needs exactly `stride` input vectors")
        super().__init__(vecs[0].type, list(vecs), name)
        self.stride = stride
        self.offset = offset

    def attrs(self) -> dict:
        return {"stride": self.stride, "offset": self.offset}


class Interleave(IdiomInstr):
    """``interleave_hi/lo(T, v1, v2)`` — interleave hi/lo halves.

    The inverse of :class:`Extract` for stride 2; used for strided stores.
    """

    def __init__(self, half: str, v1: Value, v2: Value, name: str = "") -> None:
        if half not in ("hi", "lo"):
            raise ValueError("half must be 'hi' or 'lo'")
        super().__init__(v1.type, [v1, v2], name)
        self.half = half

    mnemonic = property(lambda self: f"interleave_{self.half}")  # type: ignore[assignment]

    def attrs(self) -> dict:
        return {"half": self.half}


class _VMemIdiom(IdiomInstr):
    """Shared shape for vector memory idioms.

    ``index`` is the *linearized element index* of the first lane (the
    vectorizer emits the row-major linearization arithmetic for multi-dim
    arrays as ordinary scalar IR).
    """

    def __init__(
        self,
        result_type,
        array: ArrayRef,
        index: Value,
        extra: list[Value],
        name: str = "",
    ) -> None:
        super().__init__(result_type, [array, index, *extra], name)

    @property
    def array(self) -> ArrayRef:
        return self._operands[0]  # type: ignore[return-value]

    @property
    def index(self) -> Value:
        return self._operands[1]

    @property
    def extra(self) -> list[Value]:
        return self._operands[2:]


class ALoad(_VMemIdiom):
    """``aload(addr)`` — aligned vector load; address guaranteed aligned."""

    mnemonic = "aload"

    def __init__(
        self,
        vtype: VectorType,
        array: ArrayRef,
        index: Value,
        name: str = "",
    ) -> None:
        super().__init__(vtype, array, index, [], name)


class AlignLoad(_VMemIdiom):
    """``align_load(addr)`` — load from floor(addr / VS) * VS.

    Only meaningful together with :class:`RealignLoad`; targets without
    explicit realignment generate *no code* for it (§III-C.b).
    """

    mnemonic = "align_load"

    def __init__(
        self,
        vtype: VectorType,
        array: ArrayRef,
        index: Value,
        name: str = "",
    ) -> None:
        super().__init__(vtype, array, index, [], name)


class GetRT(_VMemIdiom):
    """``get_rt(addr, mis, mod)`` — compute a realignment token.

    On AltiVec this maps to ``lvsr``-style permute-vector computation; on
    targets with misaligned loads it generates no code.  The token is typed
    as a byte vector.
    """

    mnemonic = "get_rt"

    def __init__(
        self,
        array: ArrayRef,
        index: Value,
        mis: int,
        mod: int,
        name: str = "",
    ) -> None:
        super().__init__(VectorType(I8, None), array, index, [], name)
        self.mis = mis
        self.mod = mod

    def attrs(self) -> dict:
        return {"mis": self.mis, "mod": self.mod}


class RealignLoad(_VMemIdiom):
    """``realign_load(v1, v2, rt, addr, mis, mod)`` — §III-C's chameleon.

    The central idiom of the split layer.  Depending on the target, the
    online compiler lowers it to:

    * explicit realignment: extract VF elements from ``v1:v2`` using ``rt``
      (AltiVec ``vperm``), ignoring ``addr``;
    * implicit realignment: one misaligned load from ``addr`` (SSE
      ``movdqu``), ignoring ``v1, v2, rt``;
    * an aligned load from ``addr`` when ``mod != 0 and mis % VS == 0``;
    * a scalar load from ``addr`` when scalarizing.

    ``v1``/``v2``/``rt`` are optional (None) in the fall-back loop versions
    that carry no realignment chain; such loads can only lower to the
    implicit/aligned/scalar schemes.  ``mod == 0`` nulls the hints.
    """

    mnemonic = "realign_load"

    def __init__(
        self,
        vtype: VectorType,
        array: ArrayRef,
        index: Value,
        v1: Value | None,
        v2: Value | None,
        rt: Value | None,
        mis: int,
        mod: int,
        name: str = "",
    ) -> None:
        extra = [v for v in (v1, v2, rt) if v is not None]
        if extra and len(extra) != 3:
            raise ValueError("realign_load takes all of v1, v2, rt or none")
        super().__init__(vtype, array, index, extra, name)
        self.mis = mis
        self.mod = mod
        self.has_chain = bool(extra)
        #: bytes the stream advances per *original scalar* iteration; lets
        #: the online compiler compute post-peel misalignment.
        self.step_bytes = vtype.elem.size

    @property
    def v1(self) -> Value | None:
        return self.extra[0] if self.has_chain else None

    @property
    def v2(self) -> Value | None:
        return self.extra[1] if self.has_chain else None

    @property
    def rt(self) -> Value | None:
        return self.extra[2] if self.has_chain else None

    def attrs(self) -> dict:
        return {
            "mis": self.mis,
            "mod": self.mod,
            "has_chain": self.has_chain,
            "step_bytes": self.step_bytes,
        }


class VStore(_VMemIdiom):
    """Vector store with misalignment hints.

    Table 1 of the paper lists only loads; stores follow the same hint
    scheme.  The vectorizer peels loops so that main-loop stores are aligned
    *conditionally on base alignment* (guarded by ``version_guard``); targets
    that require aligned stores (AltiVec) execute the aligned version, others
    may use misaligned stores.
    """

    mnemonic = "vstore"

    def __init__(
        self,
        array: ArrayRef,
        index: Value,
        value: Value,
        mis: int,
        mod: int,
        name: str = "",
    ) -> None:
        super().__init__(value.type, array, index, [value], name)
        self.mis = mis
        self.mod = mod
        #: True when loop peeling guarantees this store is aligned provided
        #: the array base is (the peel target stream, SIII-B.c).
        self.aligned_by_peel = False
        self.step_bytes = value.type.elem.size if hasattr(value.type, "elem") else 0

    @property
    def has_side_effects(self) -> bool:
        return True

    @property
    def value(self) -> Value:
        return self.extra[0]

    def attrs(self) -> dict:
        return {
            "mis": self.mis,
            "mod": self.mod,
            "aligned_by_peel": self.aligned_by_peel,
            "step_bytes": self.step_bytes,
        }


class LoopBound(IdiomInstr):
    """``loop_bound(vect_bound, scalar_bound)`` (§III-B.c).

    The online compiler materializes this to ``vect_bound`` when emitting
    vector code and to ``scalar_bound`` when scalarizing — so that a peeled
    3-loop structure collapses back to a single scalar loop on non-SIMD
    targets instead of degrading performance.
    """

    mnemonic = "loop_bound"

    def __init__(self, vect: Value, scalar: Value, name: str = "") -> None:
        super().__init__(I32, [vect, scalar], name)

    @property
    def vect(self) -> Value:
        return self._operands[0]

    @property
    def scalar(self) -> Value:
        return self._operands[1]


class VersionGuard(IdiomInstr):
    """``version_guard_COND()`` — selects among loop versions (§III-B.d).

    Guard kinds and their resolution by the online compiler:

    * ``bases_aligned`` — true iff the JIT can guarantee every operand
      array's base is VS-aligned (JITs controlling allocation fold this to
      a constant; others emit a runtime base-mask check).
    * ``no_alias`` — true iff the operand arrays do not overlap; folds to
      true for distinct non-aliasing arrays, otherwise a runtime check.
    * ``vf_le`` — true iff VF <= ``bound`` (dependence-distance hint,
      §III-B.b); always folded at JIT time.
    * ``prefer_outer`` — inner- vs outer-loop vectorization choice; folded
      from the target's support for the element types in ``attrs``.
    * ``slp_group`` — true iff VF divides the superword group size
      ``group``; always folded.
    * ``has_idiom`` — true iff the target supports the named idiom for the
      named element type.
    """

    KINDS = (
        "bases_aligned",
        "no_alias",
        "vf_le",
        "prefer_outer",
        "slp_group",
        "has_idiom",
    )

    mnemonic = "version_guard"

    def __init__(
        self, kind: str, operands: list[Value], params: dict, name: str = ""
    ) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown guard kind {kind!r}")
        super().__init__(BOOL, operands, name)
        self.kind = kind
        self.params = dict(params)

    def attrs(self) -> dict:
        return {"kind": self.kind, **self.params}
