"""Outer-loop vectorization (§II.c, the alvinn/dct path).

When the innermost loop of a nest resists vectorization (strided columns, a
recurrence) but the *outer* loop's iterations are independent and access
memory contiguously, the outer loop is vectorized in place: each vector
lane executes a different outer iteration, inner loops remain loops (now
over vector values), and inner loop-carried scalars become loop-carried
vectors — no reduction epilogue is needed because lanes never mix.

The result is wrapped in a ``prefer_outer`` version guard (§III-B.d): the
online compiler folds it from the target's support for the element types
involved, falling back to the original scalar nest.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import collect_memrefs, dependences_for_loop, find_reductions
from ..analysis.loopinfo import const_trip_count
from ..ir import (
    Block,
    Const,
    ForLoop,
    If,
    IRBuilder,
    LoopBound,
    Store,
    Value,
    VersionGuard,
    Yield,
    walk,
)
from ..ir.types import BOOL, I32, ScalarType
from .config import VectorizerConfig
from .legality import Legality
from .loop import _clone_scalar_loop
from .stmt import PlanError, VecCtx, plan_streams

__all__ = ["try_outer_vectorize"]


@dataclass
class _OuterLegal:
    refs: list
    min_elem: ScalarType
    inner_ivs: set
    alias_pairs: list
    reductions: dict


def _check_outer(loop: ForLoop, config: VectorizerConfig) -> _OuterLegal | None:
    if loop.kind != "scalar" or not isinstance(loop.step, Const):
        return None
    if int(loop.step.value) != 1:
        return None
    reductions = find_reductions(loop)
    for index in range(len(loop.carried)):
        if index not in reductions:
            # A non-reduction recurrence over the outer loop.
            return None

    body_ids = {a.id for a in loop.body.args}
    inner_ivs: set[Value] = set()
    inner_loops: list[ForLoop] = []
    for instr in walk(loop.body):
        body_ids.add(instr.id)
        if isinstance(instr, If):
            return None
        if isinstance(instr, ForLoop):
            inner_loops.append(instr)
            inner_ivs.add(instr.iv)
            if not isinstance(instr.step, Const) or int(instr.step.value) != 1:
                return None
            # Inner bounds must be invariant with respect to the outer loop.
            for bound in (instr.lower, instr.upper):
                if not isinstance(bound, Const) and bound.id in body_ids:
                    return None
    if not inner_loops:
        return None

    refs = collect_memrefs(loop)
    elem_types: list[ScalarType] = []
    for ref in refs:
        if ref.affine is None:
            return None
        coeff = ref.affine.coeff(loop.iv)
        if ref.is_store and coeff != 1:
            return None
        if not ref.is_store and coeff not in (0, 1):
            return None
        for term in ref.affine.terms:
            if term is loop.iv or term in inner_ivs:
                continue
            if term.id in body_ids:
                return None
        elem_types.append(ref.array.elem)
        if not config.supports_vector_elem(ref.array.elem):
            return None
    for inner in inner_loops:
        for carried in inner.carried:
            elem_types.append(carried.type)
            if not config.supports_vector_elem(carried.type):
                return None
    for red in reductions.values():
        elem_types.append(red.carried.type)
        if not config.supports_vector_elem(red.carried.type):
            return None
    if not elem_types:
        return None
    sizes = {t.size for t in elem_types if t != BOOL}
    if max(sizes) // min(sizes) > 8:
        return None
    min_elem = min(
        (t for t in elem_types if t != BOOL), key=lambda t: (t.size, t.name)
    )

    trip = const_trip_count(loop)
    trips = {loop.iv: trip} if trip is not None else {}
    for inner in inner_loops:
        t = const_trip_count(inner)
        if t is not None:
            trips[inner.iv] = t
    alias_pairs: list[tuple] = []
    for dep in dependences_for_loop(refs, loop.iv, inner_ivs, trips or None):
        r = dep.result
        if r.kind == "loop_independent":
            continue
        if (
            r.kind == "unknown"
            and dep.src.array is not dep.dst.array
            and dep.src.array.may_alias
            and dep.dst.array.may_alias
        ):
            if config.assume_noalias:
                continue
            pair = (dep.src.array, dep.dst.array)
            if pair not in alias_pairs and (pair[1], pair[0]) not in alias_pairs:
                alias_pairs.append(pair)
            continue
        return None
    return _OuterLegal(refs, min_elem, inner_ivs, alias_pairs, reductions)


def _vectorize_nest_body(
    ctx: VecCtx, old_block: Block, new_builder: IRBuilder
) -> None:
    """Emit the outer-vectorized version of one body block."""
    term = old_block.terminator
    for instr in old_block.instrs:
        if instr is term:
            continue
        if isinstance(instr, Store):
            ctx.emit_store(instr)
        elif isinstance(instr, ForLoop):
            _vectorize_inner_loop(ctx, instr)
        # Pure scalar/vector computations are pulled in on demand.


def _vectorize_inner_loop(ctx: VecCtx, inner: ForLoop) -> None:
    b = ctx.b
    lower = ctx.scalar_subst.get(inner.lower, inner.lower)
    upper = ctx.scalar_subst.get(inner.upper, inner.upper)
    inits: list[Value] = []
    pack_counts: list[int] = []
    for carried, init in zip(inner.carried, inner.init_values):
        packs = ctx.vec(init)
        pack_counts.append(len(packs))
        inits.extend(packs)
    new = ForLoop(lower, upper, Const(1, I32), inits,
                  iv_name=inner.iv.name, kind="inner")
    b.emit(new)
    ctx.scalar_subst[inner.iv] = new.iv
    slot = 0
    for carried, packs_n in zip(inner.carried, pack_counts):
        ctx.vecmap[carried.id] = [new.carried[slot + j] for j in range(packs_n)]
        slot += packs_n
    b.push(new.body)
    _vectorize_nest_body(ctx, inner.body, b)
    term = inner.body.terminator
    assert isinstance(term, Yield)
    yields: list[Value] = []
    for value in term.values:
        yields.extend(ctx.vec(value))
    b.pop()
    new.body.append(Yield(yields))
    slot = 0
    for res, packs_n in zip(inner.results, pack_counts):
        ctx.vecmap[res.id] = [new.results[slot + j] for j in range(packs_n)]
        slot += packs_n


def try_outer_vectorize(loop: ForLoop, config: VectorizerConfig):
    """Attempt outer-loop vectorization; returns a VectorizedRegion or None."""
    from .loop import VectorizedRegion

    legal = _check_outer(loop, config)
    if legal is None:
        return None
    group = config.next_group()
    min_elem = legal.min_elem
    lc = int(loop.lower.value) if isinstance(loop.lower, Const) else None

    fake = Legality(ok=True)
    fake.refs = legal.refs
    fake.min_elem = min_elem
    plan = plan_streams(
        fake, loop.iv, min_elem, config, lc, allow_chains=False
    )
    if plan.strided_loads or plan.strided_stores:
        raise PlanError("strided access under outer-loop vectorization")
    if not config.is_split:
        from .loop import _check_native_store_feasibility

        _check_native_store_feasibility(plan, config, lc)

    staging = Block()
    b = IRBuilder(staging)

    def tag(instr):
        instr.group = group
        return instr

    # prefer_outer guard: the target must support vector arithmetic on every
    # element type of the nest; otherwise run the scalar original.
    elems = sorted({r.array.elem.name for r in legal.refs})
    elems = sorted(set(elems) | {
        red.carried.type.name for red in legal.reductions.values()
    })
    result_types = [r.type for r in loop.results]
    guards: list[Value] = []
    if config.is_split:
        guards.append(
            b.emit(
                tag(
                    VersionGuard(
                        "prefer_outer", [], {"elems": tuple(elems)}, name="gouter"
                    )
                )
            )
        )
        for a1, a2 in legal.alias_pairs:
            guards.append(
                b.emit(tag(VersionGuard("no_alias", [a1, a2], {}, name="galias")))
            )
    cond: Value | None = None
    for g in guards:
        cond = g if cond is None else b.binop("and", cond, g)

    inner_block = staging
    outer_if: If | None = None
    if cond is not None:
        outer_if = If(cond, result_types)
        staging.instrs.append(outer_if)
        inner_block = outer_if.then_block
        b.set_block(inner_block)

    # -- trio over the outer loop --------------------------------------------
    vf_cache: dict[str, Value] = {}

    def vf(elem) -> Value:
        if elem.name not in vf_cache:
            vf_cache[elem.name] = config.vf_value(b, elem, group)
        return vf_cache[elem.name]

    vf_min = vf(min_elem)
    lower, upper = loop.lower, loop.upper

    def loop_bound(vect: Value, scalar: Value) -> Value:
        if config.is_split:
            return b.emit(tag(LoopBound(vect, scalar, name="lb")))
        return vect

    peel_end = lower  # outer-loop vectorization: no peel (stores unit-step)
    peel_bound = loop_bound(peel_end, upper)
    rem = b.sub(upper, peel_end)
    rem = b.max(rem, Const(0, I32))
    q = b.div(rem, vf_min)
    main_span = b.mul(q, vf_min)
    main_end = b.add(peel_end, main_span, name="main_end")
    main_bound = loop_bound(main_end, upper)

    peel_loop = _clone_scalar_loop(
        loop, lower, peel_bound, "peel", list(loop.init_values)
    )
    peel_loop.annotations["vect_group"] = group
    b.emit(peel_loop)

    # Outer reductions accumulate in vector packs across the main loop,
    # just as in inner-loop vectorization.
    from ..ir import InitReduc, InitUniform, Reduce

    def vt(elem):
        lanes = None if config.is_split else config.target.vf(elem)
        from ..ir.types import VectorType as _VT

        return _VT(elem, lanes)

    reductions = [legal.reductions[i] for i in sorted(legal.reductions)]
    red_packs: list[int] = []
    inits: list[Value] = []
    for red in reductions:
        t = red.carried.type
        packs = max(1, t.size // min_elem.size)
        red_packs.append(packs)
        first = InitReduc(vt(t), peel_loop.results[red.index], red.identity,
                          name="vred")
        first.group = group
        inits.append(b.emit(first))
        for _ in range(packs - 1):
            u = InitUniform(vt(t), Const(red.identity, t), name="vred")
            u.group = group
            inits.append(b.emit(u))

    main = ForLoop(peel_bound, main_bound, vf_min, inits,
                   iv_name=loop.iv.name + "v", kind="vector")
    main.annotations["vect_group"] = group
    main.annotations["valign"] = {
        "has_peel": False,
        "peel_mis": 0,
        "peel_elem_size": min_elem.size,
        "lower_const": lc,
    }

    pre = IRBuilder(Block())
    body_ids = {a.id for a in loop.body.args}
    for instr in walk(loop.body):
        body_ids.add(instr.id)
        if isinstance(instr, ForLoop):
            for a in instr.body.args:
                body_ids.add(a.id)

    body_b = IRBuilder(main.body)
    ctx = VecCtx(
        b=body_b,
        pre=pre,
        config=config,
        group=group,
        min_elem=min_elem,
        old_iv=loop.iv,
        new_iv=main.iv,
        body_value_ids=body_ids,
        plan=plan,
        vf_of=vf,
    )
    # Wire outer-reduction accumulators to their carried vector packs.
    slot = 0
    for red, packs in zip(reductions, red_packs):
        ctx.vecmap[red.carried.id] = [
            main.carried[slot + j] for j in range(packs)
        ]
        slot += packs

    _vectorize_nest_body(ctx, loop.body, body_b)
    outer_term = loop.body.terminator
    yields: list[Value] = []
    for red in reductions:
        yields.extend(ctx.vec(outer_term.values[red.index]))
    main.body.append(Yield(yields))

    b.block.instrs.extend(pre.block.instrs)
    b.block.instrs.append(main)

    # Combine partial vector accumulators back into scalars (as in the
    # inner-loop trio).
    red_op = {"plus": "add", "min": "min", "max": "max"}
    slot = 0
    scalar_after: dict[int, Value] = {}
    for red, packs in zip(reductions, red_packs):
        combined: Value | None = None
        for j in range(packs):
            r = Reduce(red.kind, main.results[slot + j], name="red")
            r.group = group
            part = b.emit(r)
            combined = (
                part
                if combined is None
                else b.binop(red_op[red.kind], combined, part)
            )
        scalar_after[red.index] = combined
        slot += packs

    epi_inits = [
        scalar_after.get(i, peel_loop.results[i])
        for i in range(len(loop.carried))
    ]
    epilogue = _clone_scalar_loop(
        loop, main_bound, upper, "epilogue", epi_inits
    )
    epilogue.annotations["vect_group"] = group
    b.emit(epilogue)
    final: list[Value] = list(epilogue.results)

    if outer_if is not None:
        inner_block.append(Yield(final))
        scalar = _clone_scalar_loop(
            loop, loop.lower, loop.upper, "scalar", list(loop.init_values)
        )
        scalar.annotations["vect_group"] = group
        outer_if.else_block.append(scalar)
        outer_if.else_block.append(Yield(list(scalar.results)))
        final = list(outer_if.results)

    result_map = {old_r: new_r for old_r, new_r in zip(loop.results, final)}
    return VectorizedRegion(staging.instrs, result_map)
