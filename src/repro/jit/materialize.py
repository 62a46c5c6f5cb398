"""Materialization: the target-specific half of the split (§III-C).

This is the core of the online compiler.  It walks the decoded vectorized
bytecode once (linear time, as the split design demands — no loop analysis
happens here) and:

* materializes ``get_VF`` / ``get_align_limit`` to constants for the target
  (1 when the loop group scalarizes);
* selects ``loop_bound`` operands so a scalarized group executes exactly
  one loop (§III-B.c);
* resolves ``version_guard`` conditions — folding them to constants where
  the policy allows (the optimizing JIT always; the Mono-like JIT only at
  top level, reproducing the MMM-on-Mono behaviour of §V-A) or emitting
  runtime checks (array-overlap tests for ``no_alias``);
* lowers every ``realign_load`` according to the four translation schemes
  of §III-C: aligned load, implicit (misaligned) load, explicit vperm
  realignment, or — for scalarized groups — a plain load in a loop that
  never runs;
* drops the realignment-chain idioms (``get_rt``, ``align_load``) that the
  chosen scheme ignores, exactly as the paper describes ("no code is
  generated for idioms get_rt and align_load");
* rewrites the remaining Table 1 idioms onto machine-dialect operations,
  routing the target's missing ones through library calls (the immature
  NEON dissolve/dct path).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import faults
from ..errors import FaultInjected, ReproError
from ..ir import (
    ALoad,
    AlignLoad,
    BinOp,
    Block,
    Cmp,
    Const,
    CvtIntFp,
    DotProduct,
    Extract,
    ForLoop,
    Function,
    GetAlignLimit,
    GetRT,
    GetVF,
    IdiomInstr,
    If,
    InitAffine,
    InitPattern,
    InitReduc,
    InitUniform,
    Instr,
    Interleave,
    LoopBound,
    Pack,
    RealignLoad,
    Reduce,
    Unpack,
    Value,
    VersionGuard,
    VStore,
    WidenMult,
    walk,
)
from ..ir.types import BOOL, ScalarType, VectorType
from ..machine import ops as mops
from ..targets.base import Target

__all__ = [
    "materialize",
    "MaterializeOptions",
    "MaterializeError",
    "DegradationEvent",
]


class MaterializeError(ReproError):
    """Raised when bytecode cannot be lowered for the target (compiler bug
    — the mode analysis should have chosen scalarization)."""


class InjectedMaterializeFault(MaterializeError, FaultInjected):
    """A :class:`~repro.faults.MaterializeFault` firing (never raised by
    the production path)."""


@dataclass(frozen=True)
class DegradationEvent:
    """One vector loop group degrading to its scalar version on a SIMD
    target — the fail-soft path taken instead of a hard compile error.

    Attributes:
        function: function being materialized.
        target: online compilation target.
        group: ``vect_group`` id of the degraded loop trio (None for a
            whole-function forced-scalar retry).
        cause: machine-readable reason — one of ``"unsupported-elem"``,
            ``"unsupported-store"``, ``"pattern-mismatch"``,
            ``"fault-injected"``, ``"forced-scalar"``.
        detail: human-readable specifics.
    """

    function: str
    target: str
    group: int | None
    cause: str
    detail: str = ""


@dataclass
class MaterializeOptions:
    """Online-compiler policy.

    Attributes:
        fold_guards_top_only: Mono-like constant handling — version guards
            nested inside loops are *not* folded (they execute at run time
            even when statically known), reproducing "Mono is unable to
            fold constants across a nested loop" (§V-A).
        runtime_aligns: the JIT controls allocation and guarantees VS-
            aligned array bases, so ``bases_aligned`` folds to true.
    """

    fold_guards_top_only: bool = False
    runtime_aligns: bool = True
    #: Experiment-only (DESIGN.md loop_bound ablation): when False, a
    #: scalarized group keeps the three-loop structure and executes the
    #: vector loop with VF=1 instead of routing everything through the
    #: scalar peel loop — the naive scalarization §III-B.c warns about.
    #: Only sound for kernels without widening idioms.
    scalar_via_loop_bound: bool = True
    #: Fail-soft retry knob: scalarize *every* vector loop group, used by
    #: the compile-level retry after a whole-function MaterializeError.
    force_scalar: bool = False


@dataclass
class _GroupMode:
    mode: str  # "vector" | "scalar"
    library: set  # idiom mnemonics routed through call_lib
    cause: str | None = None  # why a SIMD target degraded to scalar
    detail: str = ""


class _Materializer:
    def __init__(self, fn: Function, target: Target, options: MaterializeOptions):
        self.fn = fn
        self.target = target
        self.options = options
        self.stats = {"guards_folded": 0, "guards_runtime": 0,
                      "chains_kept": 0, "chains_dropped": 0,
                      "loops_scalarized": 0, "loops_vectorized": 0}
        #: structured fail-soft records (one per degraded loop group).
        self.events: list[DegradationEvent] = []
        #: values that replaced bases_aligned guards, so the If that tests
        #: them still establishes the aligned context after substitution.
        self._align_values: set[int] = set()

    # -- group mode analysis --------------------------------------------------

    def _loop_mode(self, main: ForLoop) -> _GroupMode:
        t = self.target
        if not t.has_simd:
            return _GroupMode("scalar", set())
        if self.options.force_scalar:
            return _GroupMode("scalar", set(), "forced-scalar",
                              "compile-level scalar retry")
        library: set[str] = set()
        valign = main.annotations.get("valign", {})
        aligned_ctx = self._aligned_ctx_flag
        for instr in walk(main.body):
            if isinstance(instr, IdiomInstr) and faults.lowering_fails(
                instr.mnemonic, t.name
            ):
                return _GroupMode(
                    "scalar", set(), "fault-injected",
                    f"injected lowering failure for {instr.mnemonic}",
                )
            vt = instr.type
            elems = []
            if isinstance(vt, VectorType):
                elems.append(vt.elem)
            for op in instr.operands:
                if isinstance(op.type, VectorType):
                    elems.append(op.type.elem)
            for elem in elems:
                if elem == BOOL:
                    continue
                if not t.supports_elem(elem):
                    return _GroupMode(
                        "scalar", set(), "unsupported-elem",
                        f"{t.name} has no {elem.name} vectors",
                    )
            if isinstance(instr, WidenMult) and "widen_mult" in t.library_idioms:
                library.add("widen_mult")
            if isinstance(instr, CvtIntFp) and "cvt_intfp" in t.library_idioms:
                library.add("cvt_intfp")
            if isinstance(instr, DotProduct) and "dot_product" in t.library_idioms:
                library.add("dot_product")
            if isinstance(instr, VStore):
                if not self._store_aligned(instr, valign, aligned_ctx) and (
                    not t.supports_misaligned_store
                ):
                    return _GroupMode(
                        "scalar", set(), "unsupported-store",
                        f"misaligned vector store @{instr.array.name} "
                        f"unsupported on {t.name}",
                    )
            if isinstance(instr, InitPattern):
                g = len(instr.pattern)
                vf = t.vf(instr.type.elem)
                if vf % g != 0:
                    return _GroupMode(
                        "scalar", set(), "pattern-mismatch",
                        f"pattern width {g} does not divide VF {vf}",
                    )
        return _GroupMode("vector", library)

    def _peel_count(self, valign: dict) -> int | None:
        """The concrete peel iteration count, or None when unknowable."""
        if not valign.get("has_peel"):
            return 0
        lc = valign.get("lower_const")
        if lc is None:
            return None
        es = valign["peel_elem_size"]
        vf_store = self.target.vector_size // es if self.target.has_simd else 1
        if vf_store <= 0:
            return 0
        mis_elems = valign["peel_mis"] // es
        return (vf_store - (mis_elems % vf_store)) % vf_store

    def _store_aligned(self, vs: VStore, valign: dict, aligned_ctx: bool) -> bool:
        if not aligned_ctx or not self.target.has_simd:
            return False
        vsz = self.target.vector_size
        if getattr(vs, "aligned_by_peel", False) and valign.get("has_peel"):
            return True
        if vs.mod == 0 or vs.mod % vsz != 0:
            return False
        peel = self._peel_count(valign)
        if peel is None:
            return False
        return (vs.mis + peel * vs.step_bytes) % vsz == 0

    def _load_aligned(self, rl: RealignLoad, valign: dict, aligned_ctx: bool) -> bool:
        if not aligned_ctx or not self.target.has_simd:
            return False
        vsz = self.target.vector_size
        if rl.mod == 0 or rl.mod % vsz != 0:
            return False
        peel = self._peel_count(valign)
        if peel is None:
            return False
        return (rl.mis + peel * rl.step_bytes) % vsz == 0

    # -- driver ---------------------------------------------------------------

    def run(self) -> Function:
        if not self.options.force_scalar and faults.materialize_fails(
            self.target.name
        ):
            raise InjectedMaterializeFault(
                f"injected materialization failure for {self.fn.name} "
                f"on {self.target.name}"
            )
        self._aligned_ctx_flag = self.options.runtime_aligns
        self._rewrite_block(self.fn.body, {}, depth=0,
                            aligned_ctx=self.options.runtime_aligns,
                            modes={}, valign={})
        return self.fn

    def _concrete(self, vt: VectorType, mode: str) -> VectorType:
        if not isinstance(vt, VectorType) or vt.lanes is not None:
            return vt
        lanes = self.target.vf(vt.elem) if mode == "vector" else 1
        return VectorType(vt.elem, max(lanes, 1))

    def _mode_of(self, instr, modes: dict) -> str:
        gid = getattr(instr, "group", None)
        gm = modes.get(gid)
        if gm is None:
            return "vector" if self.target.has_simd else "scalar"
        return gm.mode

    def _vf_for(self, elem: ScalarType, mode: str) -> int:
        if mode != "vector":
            return 1
        return max(1, self.target.vf(elem))

    def _rewrite_block(
        self,
        block: Block,
        subst: dict[Value, Value],
        depth: int,
        aligned_ctx: bool,
        modes: dict,
        valign: dict,
    ) -> None:
        # First, compute the mode of every trio anchored in this block.
        local_modes = dict(modes)
        for instr in block.instrs:
            if isinstance(instr, ForLoop) and instr.kind == "vector":
                gid = instr.annotations.get("vect_group")
                if gid is not None:
                    gm = self._loop_mode(instr)
                    local_modes[gid] = gm
                    if gm.mode == "vector":
                        self.stats["loops_vectorized"] += 1
                    else:
                        self.stats["loops_scalarized"] += 1
                        if gm.cause is not None:
                            ev = DegradationEvent(
                                function=self.fn.name,
                                target=self.target.name,
                                group=gid,
                                cause=gm.cause,
                                detail=gm.detail,
                            )
                            # A group's loop trio may appear in several
                            # versioned branches; report it once.
                            if ev not in self.events:
                                self.events.append(ev)

        new_instrs: list[Instr] = []
        for instr in block.instrs:
            instr.replace_uses(subst)
            emitted = self._rewrite_instr(
                instr, new_instrs, subst, depth, aligned_ctx, local_modes, valign
            )
            if emitted is not None:
                new_instrs.extend(emitted)
        block.instrs = new_instrs

    def _rewrite_instr(
        self, instr, out, subst, depth, aligned_ctx, modes, valign
    ) -> list[Instr] | None:
        """Return the replacement instruction list ([] drops the instr and
        a subst entry must have been recorded)."""
        t = self.target
        mode = self._mode_of(instr, modes)

        if isinstance(instr, ForLoop):
            gid = instr.annotations.get("vect_group")
            gm = modes.get(gid)
            loop_mode = gm.mode if gm is not None else mode
            inner_valign = valign
            if instr.kind == "vector":
                inner_valign = instr.annotations.get("valign", {})
            # Concretize carried vector values and results.
            for arg in instr.body.args:
                if isinstance(arg.type, VectorType):
                    arg.type = self._concrete(arg.type, loop_mode)
            for res in instr.results:
                if isinstance(res.type, VectorType):
                    res.type = self._concrete(res.type, loop_mode)
            self._rewrite_block(
                instr.body, subst, depth + 1, aligned_ctx, modes, inner_valign
            )
            return [instr]

        if isinstance(instr, If):
            cond = instr.cond
            is_align_guard = (
                isinstance(cond, VersionGuard) and cond.kind == "bases_aligned"
            ) or cond.id in self._align_values
            then_aligned = (
                self.options.runtime_aligns if is_align_guard else aligned_ctx
            )
            else_aligned = False if is_align_guard else aligned_ctx
            self._rewrite_block(
                instr.then_block, subst, depth, then_aligned, modes, valign
            )
            self._rewrite_block(
                instr.else_block, subst, depth, else_aligned, modes, valign
            )
            for res in instr.results:
                if isinstance(res.type, VectorType):
                    res.type = self._concrete(res.type, mode)
            return [instr]

        if isinstance(instr, VersionGuard):
            return self._rewrite_guard(instr, subst, depth, modes)

        if isinstance(instr, GetVF):
            subst[instr] = Const(self._vf_for(instr.elem, mode), instr.type)
            return []
        if isinstance(instr, GetAlignLimit):
            subst[instr] = Const(self._vf_for(instr.elem, mode), instr.type)
            return []
        if isinstance(instr, LoopBound):
            use_vect = mode == "vector" or not self.options.scalar_via_loop_bound
            subst[instr] = instr.vect if use_vect else instr.scalar
            return []

        if isinstance(instr, InitUniform):
            rep = mops.MVSplat(self._concrete(instr.type, mode), instr.val)
            subst[instr] = rep
            return [rep]
        if isinstance(instr, InitAffine):
            rep = mops.MVAffine(
                self._concrete(instr.type, mode), instr.val, instr.inc
            )
            subst[instr] = rep
            return [rep]
        if isinstance(instr, InitReduc):
            vt = self._concrete(instr.type, mode)
            base = mops.MVConst(vt, (instr.default,))
            ins = mops.MVInsert0(base, instr.val)
            subst[instr] = ins
            return [base, ins]
        if isinstance(instr, InitPattern):
            rep = mops.MVConst(self._concrete(instr.type, mode), instr.pattern)
            subst[instr] = rep
            return [rep]
        if isinstance(instr, Reduce):
            rep = mops.MVReduce(instr.kind, instr.vec)
            rep.type = instr.type
            subst[instr] = rep
            return [rep]
        if isinstance(instr, DotProduct):
            gm = modes.get(getattr(instr, "group", None))
            if gm and "dot_product" in gm.library:
                rep = mops.MLibCall(
                    self._concrete(instr.type, mode), "vdot",
                    list(instr.operands), {},
                )
            else:
                rep = mops.MVDot(instr.v1, instr.v2, instr.acc)
                rep.type = self._concrete(instr.type, mode)
            subst[instr] = rep
            return [rep]
        if isinstance(instr, WidenMult):
            vt = self._concrete(instr.type, mode)
            gm = modes.get(getattr(instr, "group", None))
            if gm and "widen_mult" in gm.library:
                rep = mops.MLibCall(
                    vt, "vwidenmul", list(instr.operands), {"half": instr.half}
                )
            else:
                rep = mops.MVWidenMult(vt, instr.half, *instr.operands)
            subst[instr] = rep
            return [rep]
        if isinstance(instr, Pack):
            rep = mops.MVPack(self._concrete(instr.type, mode), *instr.operands)
            subst[instr] = rep
            return [rep]
        if isinstance(instr, Unpack):
            rep = mops.MVUnpack(
                self._concrete(instr.type, mode), instr.half, instr.operands[0]
            )
            subst[instr] = rep
            return [rep]
        if isinstance(instr, CvtIntFp):
            vt = self._concrete(instr.type, mode)
            gm = modes.get(getattr(instr, "group", None))
            if gm and "cvt_intfp" in gm.library:
                rep = mops.MLibCall(vt, "vcvt", list(instr.operands), {"to": vt.elem})
            else:
                rep = mops.MVCvt(vt, instr.operands[0])
            subst[instr] = rep
            return [rep]
        if isinstance(instr, Extract):
            rep = mops.MVExtract(instr.stride, instr.offset, list(instr.operands))
            rep.type = self._concrete(instr.type, mode)
            subst[instr] = rep
            return [rep]
        if isinstance(instr, Interleave):
            rep = mops.MVInterleave(instr.half, *instr.operands)
            rep.type = self._concrete(instr.type, mode)
            subst[instr] = rep
            return [rep]

        if isinstance(instr, GetRT):
            # Kept only when some realign_load lowers to vperm; we decide
            # lazily: emit MLvsr now and let DCE drop it if unused.
            rep = mops.MLvsr(instr.array, instr.index)
            subst[instr] = rep
            return [rep]
        if isinstance(instr, (ALoad, AlignLoad)):
            vt = self._concrete(instr.type, mode)
            load_mode = "a" if isinstance(instr, ALoad) else "fa"
            rep = mops.MVLoad(vt, instr.array, instr.index, load_mode)
            subst[instr] = rep
            return [rep]

        if isinstance(instr, RealignLoad):
            return self._rewrite_realign(instr, subst, mode, aligned_ctx, valign)

        if isinstance(instr, VStore):
            vt = self._concrete(instr.value.type, mode)
            if mode != "vector":
                store_mode = "u"
            elif self._store_aligned(instr, valign, aligned_ctx):
                store_mode = "a"
            elif t.supports_misaligned_store:
                store_mode = "u"
            else:
                raise MaterializeError(
                    f"misaligned vector store on {t.name} "
                    f"(@{instr.array.name}, mis={instr.mis}, mod={instr.mod})"
                )
            rep = mops.MVStore(instr.array, instr.index, instr.value, store_mode)
            subst[instr] = rep
            return [rep]

        if isinstance(instr, IdiomInstr):
            raise MaterializeError(f"unlowered idiom {instr.mnemonic}")

        # Plain generic instruction with a symbolic vector type: inherit the
        # concrete lane count from its (already rewritten) vector operands.
        if isinstance(instr.type, VectorType) and instr.type.lanes is None:
            lanes = None
            for op in instr.operands:
                if isinstance(op.type, VectorType) and op.type.lanes is not None:
                    if op.type.elem == instr.type.elem:
                        lanes = op.type.lanes
                        break
                    lanes = (
                        op.type.lanes * op.type.elem.size
                    ) // instr.type.elem.size
            if lanes is not None:
                instr.type = VectorType(instr.type.elem, max(lanes, 1))
            else:
                instr.type = self._concrete(instr.type, mode)
        return [instr]

    def _rewrite_realign(
        self, rl: RealignLoad, subst, mode, aligned_ctx, valign
    ) -> list[Instr]:
        t = self.target
        vt = self._concrete(rl.type, mode)
        if mode != "vector":
            rep = mops.MVLoad(vt, rl.array, rl.index, "u")
            subst[rl] = rep
            return [rep]
        if self._load_aligned(rl, valign, aligned_ctx):
            rep = mops.MVLoad(vt, rl.array, rl.index, "a")
            subst[rl] = rep
            return [rep]
        if t.supports_misaligned_load:
            rep = mops.MVLoad(vt, rl.array, rl.index, "u")
            subst[rl] = rep
            return [rep]
        if t.supports_explicit_realign:
            self.stats["chains_kept"] += 1
            if rl.has_chain:
                rep = mops.MVPerm(rl.v1, rl.v2, rl.rt)
                rep.type = vt
                subst[rl] = rep
                return [rep]
            # Chainless: inline lvsr + two floor-aligned loads + vperm.
            rt = mops.MLvsr(rl.array, rl.index)
            v1 = mops.MVLoad(vt, rl.array, rl.index, "fa")
            vf = max(1, t.vf(vt.elem))
            from ..ir.types import I32 as _I32

            offset = BinOp("add", rl.index, Const(vf, _I32))
            v2 = mops.MVLoad(vt, rl.array, offset, "fa")
            rep = mops.MVPerm(v1, v2, rt)
            rep.type = vt
            subst[rl] = rep
            return [rt, v1, offset, v2, rep]
        raise MaterializeError(
            f"no way to load misaligned vectors on {t.name}"
        )

    def _rewrite_guard(self, guard: VersionGuard, subst, depth, modes) -> list[Instr]:
        t = self.target
        value: bool | None = None
        runtime: list[Instr] = []
        if guard.kind == "bases_aligned":
            if self.options.runtime_aligns:
                value = True
            else:
                cond: Value | None = None
                for arr in guard.operands:
                    chk = mops.MArrAligned(arr, max(t.vector_size, 1))
                    runtime.append(chk)
                    if cond is None:
                        cond = chk
                    else:
                        comb = BinOp("and", cond, chk)
                        runtime.append(comb)
                        cond = comb
                rep_val = cond if cond is not None else Const(1, BOOL)
                subst[guard] = rep_val
                self._align_values.add(rep_val.id)
                self.stats["guards_runtime"] += 1
                return runtime
        elif guard.kind == "no_alias":
            a1, a2 = guard.operands
            ov = mops.MArrOverlap(a1, a2)
            inv = Cmp("eq", ov, Const(0, BOOL))
            runtime = [ov, inv]
            subst[guard] = inv
            self.stats["guards_runtime"] += 1
            return runtime
        elif guard.kind == "vf_le":
            from ..ir.types import scalar_type_from_name

            elem = scalar_type_from_name(guard.params.get("elem", "i32"))
            vf = t.vf(elem) if t.has_simd else 1
            value = vf <= guard.params["bound"]
        elif guard.kind == "slp_group":
            from ..ir.types import scalar_type_from_name

            elem = scalar_type_from_name(guard.params["elem"])
            g = guard.params["group"]
            vf = t.vf(elem) if t.has_simd else 1
            value = t.has_simd and vf % g == 0 and vf >= g
        elif guard.kind == "prefer_outer" or guard.kind == "has_idiom":
            from ..ir.types import scalar_type_from_name

            elems = [
                scalar_type_from_name(e) for e in guard.params.get("elems", [])
            ]
            idioms = guard.params.get("idioms", [])
            value = t.has_simd and all(t.supports_elem(e) for e in elems) and all(
                i not in t.library_idioms or True for i in idioms
            )
        assert value is not None
        self.stats["guards_folded"] += 1
        const = Const(1 if value else 0, BOOL)
        if self.options.fold_guards_top_only and depth > 0:
            # Mono: keep the (constant) test as a runtime branch condition.
            rep = BinOp("or", const, const, name="guard_rt")
            subst[guard] = rep
            if guard.kind == "bases_aligned":
                self._align_values.add(rep.id)
            self.stats["guards_runtime"] += 1
            return [rep]
        subst[guard] = const
        if guard.kind == "bases_aligned":
            self._align_values.add(const.id)
        return []


def materialize(
    fn: Function, target: Target, options: MaterializeOptions | None = None
) -> tuple[Function, dict]:
    """Materialize ``fn`` in place for ``target``; returns (fn, stats).

    ``stats["degradation_events"]`` carries the structured
    :class:`DegradationEvent` list (empty on a clean vector compile).
    """
    m = _Materializer(fn, target, options or MaterializeOptions())
    out = m.run()
    stats = dict(m.stats)
    stats["degradation_events"] = list(m.events)
    return out, stats
