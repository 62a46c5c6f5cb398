"""Statement vectorization: scalar body IR -> split-layer vector IR.

This is the engine shared by inner-loop, outer-loop and SLP vectorization.
Every scalar SSA value of element type T is represented by ``k`` vector
*packs*, where ``k = sizeof(T) / sizeof(T_min)`` and T_min is the smallest
element type in the loop — GCC's "vector pair" scheme for mixed-width
computations, which is what makes the widening kernels (dissolve_s8,
sad_s8) vectorizable at the narrow type's full VF.

Memory accesses are planned into *streams* first (:func:`plan_streams`):

* unit-stride streams get the paper's optimized realignment chain —
  ``get_rt`` + preheader ``align_load`` + per-iteration ``align_load`` and
  ``realign_load`` with cross-iteration reuse of the last loaded vector
  (Figure 2d / Figure 3a);
* strided streams (``a[2i]``, ``a[2i+1]``) load ``s`` consecutive vectors
  and split them with ``extract`` / merge with ``interleave`` (Table 1);
* invariant accesses become scalar loads plus ``init_uniform`` splats.

Idiom recognition maps multiply-of-converts onto ``widen_mult_hi/lo`` and
reduction-of-widening-multiply onto ``dot_product``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.affine import Affine
from ..errors import ReproError
from ..analysis.alignment import MisalignmentHint, misalignment_hint
from ..ir import (
    AlignLoad,
    BinOp,
    BlockArg,
    Cmp,
    Const,
    Convert,
    CvtIntFp,
    DotProduct,
    Extract,
    InitAffine,
    InitUniform,
    Interleave,
    IRBuilder,
    Load,
    Pack,
    RealignLoad,
    Select,
    Store,
    UnOp,
    Unpack,
    Value,
    VStore,
    WidenMult,
)
from ..ir.types import BOOL, I32, ScalarType, VectorType, narrowed, widened
from .config import VectorizerConfig
from .legality import Legality

__all__ = [
    "PlanError",
    "UnitLoadStream",
    "StridedLoadGroup",
    "UnitStorePlan",
    "StridedStoreGroup",
    "StreamPlan",
    "plan_streams",
    "VecCtx",
]


class PlanError(ReproError):
    """Raised when access shapes defeat the stream planner; the driver
    leaves the loop scalar."""


def _affine_key(array, affine: Affine, drop_const: bool = False):
    terms = tuple(sorted((v.id, c) for v, c in affine.terms.items()))
    return (array.id, terms, None if drop_const else affine.const)


@dataclass
class UnitLoadStream:
    """A unit-stride load stream (one or more identical loads)."""

    array: object
    affine: Affine
    elem: ScalarType
    k: int
    hint: MisalignmentHint
    use_chain: bool
    load_ids: set[int] = field(default_factory=set)
    # codegen state
    rt: Value | None = None
    carried_init: Value | None = None
    carried_arg: Value | None = None
    next_carry: Value | None = None
    packs: list[Value] | None = None


@dataclass
class StridedLoadGroup:
    """Loads a[s*i + c] sharing a window; phases extracted per offset."""

    array: object
    stride: int
    base_affine: Affine
    elem: ScalarType
    hint: MisalignmentHint
    offsets: dict[int, int] = field(default_factory=dict)  # load id -> phase
    packs_by_offset: dict[int, Value] = field(default_factory=dict)


@dataclass
class UnitStorePlan:
    array: object
    affine: Affine
    elem: ScalarType
    k: int
    hint: MisalignmentHint
    is_peel_target: bool = False
    step_bytes: int = 0


@dataclass
class StridedStoreGroup:
    array: object
    base_affine: Affine
    elem: ScalarType
    hint: MisalignmentHint
    store_offsets: dict[int, int] = field(default_factory=dict)  # store id -> phase
    pending: dict[int, Value] = field(default_factory=dict)


@dataclass
class StreamPlan:
    """All memory access plans of one vectorized loop."""

    unit_loads: dict = field(default_factory=dict)      # key -> UnitLoadStream
    load_plan: dict = field(default_factory=dict)       # load id -> plan obj
    strided_loads: list = field(default_factory=list)
    unit_stores: dict = field(default_factory=dict)     # store id -> UnitStorePlan
    strided_stores: list = field(default_factory=list)
    store_plan: dict = field(default_factory=dict)      # store id -> plan obj
    invariant_loads: set = field(default_factory=set)   # load ids
    peel: UnitStorePlan | None = None

    def chained_streams(self) -> list[UnitLoadStream]:
        return [
            s for s in self.unit_loads.values() if s.use_chain
        ]


def plan_streams(
    legal: Legality,
    iv: Value,
    min_elem: ScalarType,
    config: VectorizerConfig,
    lower_const: int | None,
    allow_chains: bool = True,
) -> StreamPlan:
    """Plan every memory reference of the candidate loop.

    Raises :class:`PlanError` when a shape is unsupported (odd strided-store
    sets, widened strided loads, ...).
    """
    plan = StreamPlan()
    with_hints = config.enable_alignment_opts

    def hint_for(affine: Affine, elem: ScalarType) -> MisalignmentHint:
        if not with_hints:
            return MisalignmentHint(0, 0)
        return misalignment_hint(affine, elem.size, iv, lower_const)

    strided_load_groups: dict = {}
    strided_store_groups: dict = {}

    for ref in legal.refs:
        stride = ref.affine.coeff(iv)
        elem = ref.array.elem
        k = max(1, elem.size // min_elem.size)
        if not ref.is_store:
            if stride == 0:
                plan.invariant_loads.add(ref.instr.id)
                plan.load_plan[ref.instr.id] = "invariant"
                continue
            if stride == 1:
                key = _affine_key(ref.array, ref.affine)
                stream = plan.unit_loads.get(key)
                if stream is None:
                    stream = UnitLoadStream(
                        array=ref.array,
                        affine=ref.affine,
                        elem=elem,
                        k=k,
                        hint=hint_for(ref.affine, elem),
                        use_chain=(
                            allow_chains
                            and config.enable_realign_reuse
                            and with_hints
                        ),
                    )
                    plan.unit_loads[key] = stream
                stream.load_ids.add(ref.instr.id)
                plan.load_plan[ref.instr.id] = stream
                continue
            # Strided load.
            if k != 1:
                raise PlanError("strided load with widened elements")
            gkey = _affine_key(ref.array, ref.affine, drop_const=True) + (
                "load",
                stride,
                ref.affine.const // stride,
            )
            group = strided_load_groups.get(gkey)
            base_const = (ref.affine.const // stride) * stride
            if group is None:
                base = Affine(dict(ref.affine.terms), base_const)
                group = StridedLoadGroup(
                    array=ref.array,
                    stride=stride,
                    base_affine=base,
                    elem=elem,
                    hint=hint_for(base, elem),
                )
                strided_load_groups[gkey] = group
                plan.strided_loads.append(group)
            offset = ref.affine.const - group.base_affine.const
            if not 0 <= offset < stride:
                raise PlanError("strided load phase outside window")
            group.offsets[ref.instr.id] = offset
            plan.load_plan[ref.instr.id] = group
        else:
            if stride == 1:
                splan = UnitStorePlan(
                    array=ref.array,
                    affine=ref.affine,
                    elem=elem,
                    k=k,
                    hint=hint_for(ref.affine, elem),
                    step_bytes=elem.size,
                )
                plan.unit_stores[ref.instr.id] = splan
                plan.store_plan[ref.instr.id] = splan
                continue
            if stride != 2:
                raise PlanError(f"store stride {stride} unsupported")
            if k != 1:
                raise PlanError("strided store with widened elements")
            gkey = _affine_key(ref.array, ref.affine, drop_const=True) + (
                "store",
                stride,
                ref.affine.const // stride,
            )
            group = strided_store_groups.get(gkey)
            base_const = (ref.affine.const // stride) * stride
            if group is None:
                base = Affine(dict(ref.affine.terms), base_const)
                group = StridedStoreGroup(
                    array=ref.array,
                    base_affine=base,
                    elem=elem,
                    hint=hint_for(base, elem),
                )
                strided_store_groups[gkey] = group
                plan.strided_stores.append(group)
            offset = ref.affine.const - group.base_affine.const
            if not 0 <= offset < 2:
                raise PlanError("strided store phase outside window")
            if offset in group.store_offsets.values():
                raise PlanError("duplicate strided store phase")
            group.store_offsets[ref.instr.id] = offset
            plan.store_plan[ref.instr.id] = group

    for group in plan.strided_stores:
        if sorted(group.store_offsets.values()) != [0, 1]:
            raise PlanError("incomplete strided store pair")

    # Streams on arrays that the loop also stores to cannot carry the
    # cross-iteration realignment chain: an intervening store invalidates
    # the cached window, and the loads are re-issued after each store to
    # get store-to-load forwarding through memory.
    stored_arrays = {r.array.id for r in legal.refs if r.is_store}
    for stream in plan.unit_loads.values():
        if stream.array.id in stored_arrays:
            stream.use_chain = False

    # Pick the peel target: the first unit store with a known hint.
    if with_hints and lower_const is not None:
        for splan in plan.unit_stores.values():
            if splan.hint.known:
                splan.is_peel_target = True
                plan.peel = splan
                break
    return plan


class VecCtx:
    """Per-loop vectorization context; owns the scalar->vector value map."""

    def __init__(
        self,
        b: IRBuilder,
        pre: IRBuilder,
        config: VectorizerConfig,
        group: int,
        min_elem: ScalarType,
        old_iv: BlockArg,
        new_iv: Value,
        body_value_ids: set[int],
        plan: StreamPlan,
        vf_of,
        scalar_subst: dict | None = None,
    ) -> None:
        self.b = b
        self.pre = pre
        self.config = config
        self.group = group
        self.min_elem = min_elem
        self.old_iv = old_iv
        self.new_iv = new_iv
        self.body_ids = body_value_ids
        self.plan = plan
        self.vf_of = vf_of  # callable: ScalarType -> Value (prologue-cached)
        self.vecmap: dict[int, list[Value]] = {}
        self._splats: dict[tuple, Value] = {}
        self._iv_packs: list[Value] | None = None
        #: old scalar value -> new scalar value (inner-loop IVs during
        #: outer-loop vectorization).
        self.scalar_subst: dict[Value, Value] = scalar_subst or {}

    # -- helpers -------------------------------------------------------------

    def k(self, t: ScalarType) -> int:
        if t == BOOL:
            return 1
        return max(1, t.size // self.min_elem.size)

    def vt(self, t: ScalarType) -> VectorType:
        lanes = None if self.config.is_split else self.config.target.vf(t)
        return VectorType(t, lanes)

    def is_invariant(self, v: Value) -> bool:
        return v.id not in self.body_ids

    def scalar_clone(self, v: Value) -> Value:
        """Recreate a pure scalar computation inside the new body,
        substituting inner-loop IVs.  Used for invariant-load subscripts
        during outer-loop vectorization."""
        if v in self.scalar_subst:
            return self.scalar_subst[v]
        if isinstance(v, Const) or self.is_invariant(v):
            return v
        if isinstance(v, BinOp):
            out = self.b.binop(
                v.op, self.scalar_clone(v.lhs), self.scalar_clone(v.rhs)
            )
            self.scalar_subst[v] = out
            return out
        if isinstance(v, UnOp):
            out = self.b.emit(UnOp(v.op, self.scalar_clone(v.value)))
            self.scalar_subst[v] = out
            return out
        if isinstance(v, Convert):
            out = self.b.emit(Convert(self.scalar_clone(v.value), v.to))
            self.scalar_subst[v] = out
            return out
        raise PlanError(f"cannot clone scalar value {v!r}")

    def _tag(self, instr):
        if hasattr(instr, "group"):
            instr.group = self.group
        return instr

    def splat(self, v: Value, t: ScalarType, hoist: bool | None = None) -> Value:
        key = (v.id, t.name)
        if key in self._splats:
            return self._splats[key]
        if hoist is None:
            hoist = self.is_invariant(v) or isinstance(v, Const)
        builder = self.pre if hoist else self.b
        out = builder.emit(self._tag(InitUniform(self.vt(t), v, name="splat")))
        if builder is self.pre:
            self._splats[key] = out
        return out

    def emit_affine(self, affine: Affine, builder: IRBuilder | None = None) -> Value:
        """Rebuild an affine subscript with the old IV replaced by the new
        element counter.  Terms over invariants are used directly."""
        b = builder or self.b
        acc: Value | None = None
        for term, coeff in affine.terms.items():
            if term is self.old_iv:
                val = self.new_iv
            else:
                val = self.scalar_subst.get(term, term)
            piece: Value = val
            if coeff != 1:
                piece = b.mul(piece, Const(coeff, I32))
            acc = piece if acc is None else b.add(acc, piece)
        if affine.const != 0 or acc is None:
            c = Const(affine.const, I32)
            acc = c if acc is None else b.add(acc, c)
        return acc

    def index_plus_packs(self, base: Value, j: int, elem: ScalarType) -> Value:
        """``base + j * VF(elem)`` — the index of pack ``j``."""
        if j == 0:
            return base
        step = self.vf_of(elem)
        if j != 1:
            step = self.b.mul(step, Const(j, I32))
        return self.b.add(base, step)

    def iv_packs(self) -> list[Value]:
        """Vector(s) holding the lane-wise induction values (init_affine)."""
        if self._iv_packs is None:
            packs = []
            for j in range(self.k(I32)):
                base = self.index_plus_packs(self.new_iv, j, I32)
                packs.append(
                    self.b.emit(
                        self._tag(
                            InitAffine(self.vt(I32), base, Const(1, I32), name="viv")
                        )
                    )
                )
            self._iv_packs = packs
        return self._iv_packs

    # -- memory --------------------------------------------------------------

    def emit_unit_load(self, stream: UnitLoadStream) -> list[Value]:
        if stream.packs is not None:
            return stream.packs
        base = self.emit_affine(stream.affine)
        mis, mod = stream.hint.mis, stream.hint.mod
        packs: list[Value] = []
        if stream.use_chain:
            prev = stream.carried_arg
            assert prev is not None and stream.rt is not None
            news: list[Value] = []
            for j in range(1, stream.k + 1):
                idx = self.index_plus_packs(base, j, stream.elem)
                w = self.b.emit(
                    self._tag(
                        AlignLoad(self.vt(stream.elem), stream.array, idx, name="va")
                    )
                )
                news.append(w)
            chain = [prev] + news
            for j in range(stream.k):
                idx = self.index_plus_packs(base, j, stream.elem)
                rl = RealignLoad(
                    self.vt(stream.elem), stream.array, idx,
                    chain[j], chain[j + 1], stream.rt, mis, mod, name="vx",
                )
                rl.step_bytes = stream.elem.size
                packs.append(self.b.emit(self._tag(rl)))
            stream.next_carry = news[-1]
        else:
            for j in range(stream.k):
                idx = self.index_plus_packs(base, j, stream.elem)
                rl = RealignLoad(
                    self.vt(stream.elem), stream.array, idx,
                    None, None, None, mis, mod, name="vx",
                )
                rl.step_bytes = stream.elem.size
                packs.append(self.b.emit(self._tag(rl)))
        stream.packs = packs
        return packs

    def emit_strided_load(self, group: StridedLoadGroup, offset: int) -> Value:
        if offset in group.packs_by_offset:
            return group.packs_by_offset[offset]
        base = self.emit_affine(group.base_affine)
        vecs = []
        for l in range(group.stride):
            idx = self.index_plus_packs(base, l, group.elem)
            rl = RealignLoad(
                self.vt(group.elem), group.array, idx,
                None, None, None, group.hint.mis, group.hint.mod, name="vw",
            )
            rl.step_bytes = group.elem.size * group.stride
            vecs.append(self.b.emit(self._tag(rl)))
        for phase in sorted(set(group.offsets.values())):
            group.packs_by_offset[phase] = self.b.emit(
                self._tag(
                    Extract(group.stride, phase, vecs, name=f"ph{phase}")
                )
            )
        return group.packs_by_offset[offset]

    def _invalidate_loads(self, array) -> None:
        """Forget cached load packs on ``array`` after a store to it, so a
        later load in the same iteration re-reads the stored values."""
        for stream in self.plan.unit_loads.values():
            if stream.array.id == array.id:
                stream.packs = None
        for group in self.plan.strided_loads:
            if group.array.id == array.id:
                group.packs_by_offset.clear()

    def emit_store(self, store: Store) -> None:
        plan = self.plan.store_plan[store.id]
        value_packs = self.vec(store.value)
        if isinstance(plan, UnitStorePlan):
            base = self.emit_affine(plan.affine)
            for j, v in enumerate(value_packs):
                idx = self.index_plus_packs(base, j, plan.elem)
                vs = VStore(
                    plan.array, idx, v, plan.hint.mis, plan.hint.mod, name="vst"
                )
                vs.aligned_by_peel = plan.is_peel_target
                vs.step_bytes = plan.step_bytes
                self.b.emit(self._tag(vs))
            self._invalidate_loads(plan.array)
            return
        assert isinstance(plan, StridedStoreGroup)
        phase = plan.store_offsets[store.id]
        plan.pending[phase] = value_packs[0]
        if len(plan.pending) < 2:
            return
        va, vb = plan.pending[0], plan.pending[1]
        base = self.emit_affine(plan.base_affine)
        lo = self.b.emit(self._tag(Interleave("lo", va, vb, name="ilo")))
        hi = self.b.emit(self._tag(Interleave("hi", va, vb, name="ihi")))
        for j, v in enumerate((lo, hi)):
            idx = self.index_plus_packs(base, j, plan.elem)
            vs = VStore(plan.array, idx, v, plan.hint.mis, plan.hint.mod, name="vst")
            vs.aligned_by_peel = False
            vs.step_bytes = plan.elem.size * 2
            self.b.emit(self._tag(vs))
        plan.pending.clear()
        self._invalidate_loads(plan.array)

    # -- the recursive value vectorizer -------------------------------------

    def vec(self, v: Value) -> list[Value]:
        if v.id in self.vecmap:
            return self.vecmap[v.id]
        out = self._vec(v)
        self.vecmap[v.id] = out
        return out

    def _vec(self, v: Value) -> list[Value]:
        if isinstance(v, Const):
            return [self.splat(v, v.type)] * self.k(v.type)
        if v is self.old_iv:
            return self.iv_packs()
        if self.is_invariant(v):
            return [self.splat(v, v.type)] * self.k(v.type)
        if isinstance(v, Load):
            plan = self.plan.load_plan[v.id]
            if plan == "invariant":
                # Re-emit the scalar load (invariant w.r.t. the vectorized
                # IV; its indices may still involve inner-loop IVs, which
                # get cloned into the new body), then splat it.
                indices = [self.scalar_clone(ix) for ix in v.indices]
                scalar = self.b.load(v.array, indices)
                return [self.splat(scalar, v.type, hoist=False)] * self.k(v.type)
            if isinstance(plan, UnitLoadStream):
                return self.emit_unit_load(plan)
            assert isinstance(plan, StridedLoadGroup)
            return [self.emit_strided_load(plan, plan.offsets[v.id])]
        if isinstance(v, Convert):
            return self._vec_convert(v)
        if isinstance(v, BinOp):
            widen = self._try_widen_mult(v)
            if widen is not None:
                return widen
            lhs = self.vec(v.lhs)
            rhs = self.vec(v.rhs)
            return [
                self.b.binop(v.op, a, b, name="v" + v.op)
                for a, b in zip(lhs, rhs)
            ]
        if isinstance(v, UnOp):
            src = self.vec(v.value)
            return [self.b.emit(UnOp(v.op, p, name="v" + v.op)) for p in src]
        if isinstance(v, Cmp):
            lhs = self.vec(v.lhs)
            rhs = self.vec(v.rhs)
            return [
                self.b.cmp(v.op, a, b, name="vmask") for a, b in zip(lhs, rhs)
            ]
        if isinstance(v, Select):
            cond = self.vec(v.cond)
            t = self.vec(v.if_true)
            f = self.vec(v.if_false)
            if len(cond) == 1 and len(t) > 1:
                cond = cond * len(t)
            return [
                self.b.select(c, a, bb, name="vsel")
                for c, a, bb in zip(cond, t, f)
            ]
        raise PlanError(f"cannot vectorize value {v!r}")

    def _vec_convert(self, cvt: Convert) -> list[Value]:
        src_t = cvt.value.type
        dst_t = cvt.to
        packs = self.vec(cvt.value)
        return self._convert_packs(packs, src_t, dst_t)

    def _convert_packs(
        self, packs: list[Value], src_t: ScalarType, dst_t: ScalarType
    ) -> list[Value]:
        if src_t == dst_t:
            return packs
        if src_t.size == dst_t.size:
            return [
                self.b.emit(self._tag(CvtIntFp(p, dst_t, name="vcvt")))
                for p in packs
            ]
        if dst_t.size > src_t.size:
            # Widen one level, recurse.  Int widening via unpack; float via
            # the same idiom (promotion semantics).
            mid_t = widened(src_t)
            widened_packs: list[Value] = []
            for p in packs:
                widened_packs.append(
                    self.b.emit(self._tag(Unpack("lo", p, name="vunp")))
                )
                widened_packs.append(
                    self.b.emit(self._tag(Unpack("hi", p, name="vunp")))
                )
            if mid_t.is_float != src_t.is_float:
                # e.g. i32 -> f64 goes i32 -> i64 -> f64? Not supported in
                # hardware idioms; convert width-matched first instead.
                raise PlanError(f"conversion {src_t} -> {dst_t} unsupported")
            return self._convert_packs(widened_packs, mid_t, dst_t)
        # Narrowing one level, recurse.
        mid_t = narrowed(src_t)
        if len(packs) % 2 != 0:
            raise PlanError("cannot narrow an odd pack count")
        narrowed_packs = [
            self.b.emit(self._tag(Pack(packs[2 * j], packs[2 * j + 1], name="vpk")))
            for j in range(len(packs) // 2)
        ]
        return self._convert_packs(narrowed_packs, mid_t, dst_t)

    def _narrow_operand(self, v: Value, narrow_t: ScalarType) -> list[Value] | None:
        """Packs of ``v`` at the *narrow* type, if cheaply available."""
        if isinstance(v, Convert) and isinstance(v.value, Const):
            v = Const(v.value.value, v.to) if not v.to.is_float else v
        if isinstance(v, Convert) and v.value.type == narrow_t:
            return self.vec(v.value)
        if isinstance(v, Const) and not v.type.is_float:
            val = int(v.value)
            if narrow_t.min_value <= val <= narrow_t.max_value:
                return [self.splat(Const(val, narrow_t), narrow_t)] * self.k(
                    narrow_t
                )
        return None

    def _try_widen_mult(self, mul: BinOp) -> list[Value] | None:
        """mul(convert(x), convert(y)) at 2T from T -> widen_mult_hi/lo."""
        if mul.op != "mul" or mul.type.is_float:
            return None
        t = mul.type
        if not isinstance(t, ScalarType) or t.size < 2:
            return None
        try:
            narrow_t = narrowed(t)
        except KeyError:
            return None
        if narrow_t.size < self.min_elem.size:
            # The narrow vectors would cover more elements per register
            # than the loop consumes per iteration (min_elem sets the
            # granularity): the hi/lo pair would not line up with k(T).
            return None
        lhs = self._narrow_operand(mul.lhs, narrow_t)
        if lhs is None:
            return None
        rhs = self._narrow_operand(mul.rhs, narrow_t)
        if rhs is None:
            return None
        out: list[Value] = []
        for a, b in zip(lhs, rhs):
            out.append(self.b.emit(self._tag(WidenMult("lo", a, b, name="vwm"))))
            out.append(self.b.emit(self._tag(WidenMult("hi", a, b, name="vwm"))))
        return out

    # -- reductions ----------------------------------------------------------

    def try_dot_product(self, addend: Value, acc_packs: list[Value]) -> list[Value] | None:
        """acc += convert-free widening multiply -> dot_product update.

        ``addend`` is the non-accumulator side of a plus-reduction update;
        when it is a widening multiply, emit one dot_product per narrow
        pack, halving the accumulator register pressure (pmaddwd).
        ``acc_packs`` must have been set up in dot form (k(narrow) packs of
        the widened type); returns the updated packs.
        """
        if not isinstance(addend, BinOp) or addend.op != "mul":
            return None
        t = addend.type
        if t.is_float or not isinstance(t, ScalarType) or t.size < 2:
            return None
        try:
            narrow_t = narrowed(t)
        except KeyError:
            return None
        lhs = self._narrow_operand(addend.lhs, narrow_t)
        rhs = self._narrow_operand(addend.rhs, narrow_t)
        if lhs is None or rhs is None:
            return None
        if len(lhs) != len(acc_packs):
            return None
        return [
            self.b.emit(self._tag(DotProduct(a, b, acc, name="vdot")))
            for a, b, acc in zip(lhs, rhs, acc_packs)
        ]
