"""Inner-loop vectorization: the peel/main/epilogue trio with versioning.

For a legal innermost loop this builds (§III-B):

* a *prologue* computing — in terms of ``get_VF`` / ``get_align_limit``
  idiom values — the peel count that aligns the chosen store stream, and
  the main-loop bound, both routed through ``loop_bound`` so a scalarizing
  JIT executes exactly one loop (§III-B.c);
* a scalar *peel* loop (clone of the original body);
* the *main vector loop*, stepping by ``get_VF(T_min)``, with optimized
  realignment chains carried across iterations and reductions accumulated
  in vector packs;
* a scalar *epilogue* loop for the remainder;
* (split flow) *loop versioning*: a ``bases_aligned`` guard selecting the
  hinted trio vs a hint-less fall-back trio, optionally wrapped in
  ``no_alias`` / ``vf_le`` guards with a scalar fall-back arm (§III-B.b,d).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.loopinfo import LoopInfo
from ..ir import (
    AlignLoad,
    BinOp,
    Block,
    Const,
    ForLoop,
    GetAlignLimit,
    GetRT,
    If,
    InitReduc,
    InitUniform,
    IRBuilder,
    Instr,
    LoopBound,
    Reduce,
    Store,
    Value,
    VersionGuard,
    Yield,
    clone_instr,
)
from ..ir.types import I32, VectorType, narrowed
from ..ir.instructions import Convert
from .config import VectorizerConfig
from .legality import Legality
from .stmt import PlanError, VecCtx, plan_streams

__all__ = ["build_vectorized_region", "VectorizedRegion"]

_RED_OP = {"plus": "add", "min": "min", "max": "max"}


@dataclass
class VectorizedRegion:
    """The instructions replacing the original loop, plus the value
    remapping from the old loop's results to the new final values."""

    instrs: list[Instr]
    result_map: dict[Value, Value]


def _lower_const(loop: ForLoop) -> int | None:
    if isinstance(loop.lower, Const):
        return int(loop.lower.value)
    return None


def _dot_candidate(red, loop: ForLoop, min_elem):
    """The Mul addend if the reduction fits dot_product, else None.

    The narrow operand type must equal the loop's granularity type
    (min_elem): dot_product pairwise-accumulates two narrow elements per
    accumulator lane, which only corresponds to two *original iterations*
    when the loop steps at the narrow type's VF.
    """
    if red.kind != "plus" or len(red.update_chain) != 1:
        return None
    upd = red.update_chain[0]
    if not isinstance(upd, BinOp):
        return None
    addend = upd.rhs if upd.lhs is red.carried else upd.lhs
    if not isinstance(addend, BinOp) or addend.op != "mul":
        return None
    t = addend.type
    if t.is_float or t.size < 2:
        return None
    try:
        narrow_t = narrowed(t)
    except KeyError:
        return None
    if narrow_t.size != min_elem.size:
        return None
    for side in (addend.lhs, addend.rhs):
        if isinstance(side, Convert) and isinstance(side.value, Const):
            side = Const(side.value.value, side.to)
        ok = (isinstance(side, Convert) and side.value.type == narrow_t) or (
            isinstance(side, Const)
            and not side.type.is_float
            and narrow_t.min_value <= int(side.value) <= narrow_t.max_value
        )
        if not ok:
            return None
    return addend


def _clone_scalar_loop(loop: ForLoop, lower: Value, upper: Value, kind: str,
                       inits: list[Value]) -> ForLoop:
    """Clone the whole original loop with new bounds/inits and a new kind."""
    vmap: dict[Value, Value] = {}
    new = clone_instr(loop, vmap)
    assert isinstance(new, ForLoop)
    new._operands = [lower, upper, Const(1, I32), *inits]
    new.kind = kind
    return new


def _check_native_store_feasibility(plan, config, lc) -> None:
    """The monolithic compiler knows the target: on an aligned-only ISA
    (AltiVec) it must refuse to vectorize loops whose stores it cannot
    prove aligned — exactly the decision the split flow defers to the JIT
    via hints and version guards."""
    t = config.target
    if not t.has_simd or t.supports_misaligned_store:
        return
    vsz = t.vector_size
    if plan.peel is not None and lc is not None:
        es = plan.peel.elem.size
        vf_store = max(1, vsz // es)
        peel = (vf_store - ((plan.peel.hint.mis // es) % vf_store)) % vf_store
    else:
        peel = 0
    for sp in plan.unit_stores.values():
        if sp.is_peel_target:
            continue
        ok = (
            sp.hint.known
            and sp.hint.mod % vsz == 0
            and (sp.hint.mis + peel * sp.step_bytes) % vsz == 0
        )
        if not ok:
            raise PlanError(
                f"store to {sp.array.name} not provably aligned on {t.name}"
            )
    for group in plan.strided_stores:
        ok = (
            group.hint.known
            and group.hint.mod % vsz == 0
            and (group.hint.mis + peel * group.elem.size * 2) % vsz == 0
        )
        if not ok:
            raise PlanError(
                f"strided store to {group.array.name} not provably aligned "
                f"on {t.name}"
            )


def build_trio(
    info: LoopInfo,
    legal: Legality,
    config: VectorizerConfig,
    group: int,
    hints_on: bool,
) -> VectorizedRegion:
    """Build prologue + peel + main + epilogue for one loop version.

    ``hints_on`` distinguishes the hinted version from the hint-less
    fall-back version (§III-B.c's two-version scheme).  Raises
    :class:`~repro.vectorizer.stmt.PlanError` when planning fails.
    """
    loop = info.loop
    staging = Block()
    b = IRBuilder(staging)
    min_elem = legal.min_elem
    assert min_elem is not None
    lc = _lower_const(loop)

    plan_cfg = config
    if not hints_on and config.enable_alignment_opts:
        from dataclasses import replace

        plan_cfg = replace(config, enable_alignment_opts=False,
                           _group_counter=config._group_counter)
    plan = plan_streams(legal, info.iv, min_elem, plan_cfg, lc)
    if not config.is_split:
        _check_native_store_feasibility(plan, config, lc)

    vf_cache: dict[str, Value] = {}

    def vf(elem) -> Value:
        if elem.name not in vf_cache:
            vf_cache[elem.name] = config.vf_value(b, elem, group)
        return vf_cache[elem.name]

    vf_min = vf(min_elem)
    lower, upper = loop.lower, loop.upper

    def tag(instr):
        instr.group = group
        return instr

    def loop_bound(vect: Value, scalar: Value) -> Value:
        if config.is_split:
            return b.emit(tag(LoopBound(vect, scalar, name="lb")))
        return vect

    # -- prologue: peel count and bounds ------------------------------------
    if plan.peel is not None and hints_on and lc is not None:
        store_elem = plan.peel.elem
        if config.is_split:
            al = b.emit(tag(GetAlignLimit(store_elem, name="al")))
        else:
            al = Const(config.target.vf(store_elem), I32)
        # hint.mis already accounts for the loop's lower bound (the hint is
        # the misalignment of the *first* access), so the peel count is
        # simply the element distance to the next aligned boundary.
        mis_elems = Const(plan.peel.hint.mis // store_elem.size, I32)
        t2 = b.mod(mis_elems, al)
        t3 = b.sub(al, t2)
        raw_peel = b.mod(t3, al)
        span = b.sub(upper, lower)
        span = b.max(span, Const(0, I32))
        peel_val = b.min(raw_peel, span)
    else:
        peel_val = Const(0, I32)
    peel_end = b.add(lower, peel_val, name="peel_end")
    peel_bound = loop_bound(peel_end, upper)
    rem = b.sub(upper, peel_end)
    rem = b.max(rem, Const(0, I32))
    q = b.div(rem, vf_min)
    main_span = b.mul(q, vf_min)
    main_end = b.add(peel_end, main_span, name="main_end")
    main_bound = loop_bound(main_end, upper)

    # -- peel loop -----------------------------------------------------------
    peel_loop = _clone_scalar_loop(
        loop, lower, peel_bound, "peel", list(loop.init_values)
    )
    peel_loop.annotations["vect_group"] = group
    b.emit(peel_loop)

    # -- preheader: realignment tokens and first aligned loads ---------------
    preheader = Block()
    pre_b = IRBuilder(preheader)

    def affine_at(affine, at: Value, builder: IRBuilder) -> Value:
        acc: Value | None = None
        for term, coeff in affine.terms.items():
            val = at if term is info.iv else term
            piece: Value = val
            if coeff != 1:
                piece = builder.mul(piece, Const(coeff, I32))
            acc = piece if acc is None else builder.add(acc, piece)
        if affine.const != 0 or acc is None:
            c = Const(affine.const, I32)
            acc = c if acc is None else builder.add(acc, c)
        return acc

    def vt(elem) -> VectorType:
        lanes = None if config.is_split else config.target.vf(elem)
        return VectorType(elem, lanes)

    chained = plan.chained_streams()
    for stream in chained:
        idx0 = affine_at(stream.affine, peel_end, pre_b)
        rt = GetRT(stream.array, idx0, stream.hint.mis, stream.hint.mod, name="rt")
        stream.rt = pre_b.emit(tag(rt))
        first = AlignLoad(vt(stream.elem), stream.array, idx0, name="va0")
        stream.carried_init = pre_b.emit(tag(first))

    # -- main vector loop ----------------------------------------------------
    reductions = [legal.reductions[i] for i in sorted(legal.reductions)]
    red_plans = []
    inits: list[Value] = []
    for red in reductions:
        t = red.carried.type
        dot_addend = _dot_candidate(red, loop, min_elem)
        if dot_addend is not None:
            packs = max(1, narrowed(t).size // min_elem.size)
        else:
            packs = max(1, t.size // min_elem.size)
        ident = red.identity
        scalar_in = peel_loop.results[red.index]
        first = InitReduc(vt(t), scalar_in, ident, name="vred")
        inits.append(b.emit(tag(first)))
        for _ in range(packs - 1):
            inits.append(
                b.emit(tag(InitUniform(vt(t), Const(ident, t), name="vred")))
            )
        red_plans.append((red, dot_addend, packs))
    n_red_slots = len(inits)
    for stream in chained:
        inits.append(stream.carried_init)

    main = ForLoop(peel_bound, main_bound, vf_min, inits,
                   iv_name=info.iv.name + "v", kind="vector")
    main.annotations["vect_group"] = group
    main.annotations["valign"] = {
        "has_peel": plan.peel is not None and hints_on and lc is not None,
        "peel_mis": plan.peel.hint.mis if plan.peel else 0,
        "peel_elem_size": plan.peel.elem.size if plan.peel else min_elem.size,
        "lower_const": lc,
    }

    # Wire carried block args.
    slot = 0
    acc_args: list[list[Value]] = []
    for red, dot_addend, packs in red_plans:
        acc_args.append([main.carried[slot + j] for j in range(packs)])
        slot += packs
    for stream in chained:
        stream.carried_arg = main.carried[slot]
        slot += 1

    body_b = IRBuilder(main.body)
    body_ids = {a.id for a in loop.body.args}
    from ..ir import walk as _walk

    for instr in _walk(loop.body):
        body_ids.add(instr.id)

    ctx = VecCtx(
        b=body_b,
        pre=pre_b,
        config=config,
        group=group,
        min_elem=min_elem,
        old_iv=info.iv,
        new_iv=main.iv,
        body_value_ids=body_ids,
        plan=plan,
        vf_of=vf,
    )
    # Map the old reduction accumulators to their vector packs so generic
    # statement vectorization of the update chains picks them up.
    for (red, dot_addend, packs), args in zip(red_plans, acc_args):
        ctx.vecmap[red.carried.id] = list(args)

    term = loop.body.terminator
    assert isinstance(term, Yield)
    for instr in loop.body.instrs:
        if instr is term:
            break
        if isinstance(instr, Store):
            ctx.emit_store(instr)

    yields: list[Value] = []
    for (red, dot_addend, packs), args in zip(red_plans, acc_args):
        if dot_addend is not None:
            updated = ctx.try_dot_product(dot_addend, list(args))
            if updated is None:
                raise PlanError("dot_product pattern failed to materialize")
            yields.extend(updated)
        else:
            final = term.values[red.index]
            yields.extend(ctx.vec(final))
    for stream in chained:
        if stream.packs is None:
            # The stream was never demanded (dead load); keep the carry.
            yields.append(stream.carried_arg)
        else:
            yields.append(stream.next_carry)
    main.body.append(Yield(yields))

    # Splice preheader before the main loop.
    staging.instrs.extend(preheader.instrs)
    b.set_block(staging)
    staging.instrs.append(main)

    # -- combine partial reductions ------------------------------------------
    slot = 0
    scalar_after: dict[int, Value] = {}
    for red, dot_addend, packs in red_plans:
        combined: Value | None = None
        for j in range(packs):
            part = b.emit(tag(Reduce(red.kind, main.results[slot + j], name="red")))
            combined = (
                part
                if combined is None
                else b.binop(_RED_OP[red.kind], combined, part)
            )
        scalar_after[red.index] = combined
        slot += packs

    # -- epilogue -------------------------------------------------------------
    epi_inits = [
        scalar_after.get(i, peel_loop.results[i])
        for i in range(len(loop.carried))
    ]
    epilogue = _clone_scalar_loop(loop, main_bound, upper, "epilogue", epi_inits)
    epilogue.annotations["vect_group"] = group
    b.emit(epilogue)

    result_map = {
        old: new for old, new in zip(loop.results, epilogue.results)
    }
    return VectorizedRegion(staging.instrs, result_map)


def build_vectorized_region(
    info: LoopInfo, legal: Legality, config: VectorizerConfig
) -> VectorizedRegion:
    """Build the full (possibly versioned) replacement for the loop."""
    loop = info.loop
    group = config.next_group()

    if not config.is_split:
        return build_trio(info, legal, config, group,
                          hints_on=config.enable_alignment_opts)

    use_align_versions = config.enable_versioning and config.enable_alignment_opts
    staging = Block()
    b = IRBuilder(staging)
    result_types = [r.type for r in loop.results]

    def tag(instr):
        instr.group = group
        return instr

    # Outer correctness guards first (runtime alias checks, dependence
    # distance hints); they dominate everything else.
    guards: list[Value] = []
    for a1, a2 in legal.alias_pairs:
        guards.append(
            b.emit(tag(VersionGuard("no_alias", [a1, a2], {}, name="galias")))
        )
    if legal.dep_distance_bound is not None:
        guards.append(
            b.emit(
                tag(
                    VersionGuard(
                        "vf_le",
                        [],
                        {
                            "bound": legal.dep_distance_bound,
                            "elem": legal.min_elem.name,
                        },
                        name="gdist",
                    )
                )
            )
        )
    if guards:
        cond = guards[0]
        for g in guards[1:]:
            cond = b.binop("and", cond, g)
        outer = If(cond, result_types)
        staging.instrs.append(outer)
        b.set_block(outer.then_block)

    if use_align_versions:
        arrays = sorted(
            {r.array for r in legal.refs}, key=lambda a: a.name
        )
        guard = b.emit(
            tag(VersionGuard("bases_aligned", list(arrays), {}, name="galign"))
        )
        if_align = If(guard, result_types)
        then_region = build_trio(info, legal, config, group, hints_on=True)
        if_align.then_block.instrs = then_region.instrs
        if_align.then_block.append(
            Yield([then_region.result_map[r] for r in loop.results])
        )
        else_region = build_trio(info, legal, config, group, hints_on=False)
        if_align.else_block.instrs = else_region.instrs
        if_align.else_block.append(
            Yield([else_region.result_map[r] for r in loop.results])
        )
        b.emit(if_align)
        inner_results = list(if_align.results)
    else:
        region = build_trio(info, legal, config, group, hints_on=False)
        for instr in region.instrs:
            b.emit(instr)
        inner_results = [region.result_map[r] for r in loop.results]

    if guards:
        b.emit(Yield(inner_results))
        scalar = _clone_scalar_loop(
            loop, loop.lower, loop.upper, "scalar", list(loop.init_values)
        )
        scalar.annotations["vect_group"] = group
        outer.else_block.append(scalar)
        outer.else_block.append(Yield(list(scalar.results)))
        final: list[Value] = list(outer.results)
    else:
        final = inner_results

    result_map = {old: new for old, new in zip(loop.results, final)}
    return VectorizedRegion(staging.instrs, result_map)
