"""Superword-level parallelism (SLP) via loop re-rolling (§II.c).

Detects the classic SLP shape — a loop body that is a group of ``g``
isomorphic statements storing to ``g`` adjacent elements (a hand-unrolled
frame loop, e.g. mix_streams' four interleaved audio channels) — and
re-rolls it into a single *flat* vectorized loop over elements:

* stores ``out[g*i + p] = f_p(in[g*i + p])`` for p in 0..g-1 become one
  vector store per VF elements;
* per-position constants become an ``init_pattern`` periodic vector;
* the whole version is guarded by ``version_guard_slp_group`` which the
  online compiler folds from ``VF % g == 0`` — a target whose VF cannot
  tile the group (or a scalarizing target) runs the original loop.

The alignment story follows the paper's mix-streams observation: the split
flow emits misalignment hints (so a JIT that aligns bases uses aligned
accesses), while the native compiler — which does not version SLP groups
for alignment — uses plain misaligned accesses.  That asymmetry is exactly
what makes split-vectorized mix_streams *faster* than native in Figure 6a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import collect_memrefs
from ..analysis.affine import Affine
from ..ir import (
    BinOp,
    Block,
    Cmp,
    Const,
    ForLoop,
    If,
    InitPattern,
    InitUniform,
    IRBuilder,
    Instr,
    Load,
    LoopBound,
    RealignLoad,
    Select,
    UnOp,
    Value,
    VersionGuard,
    VStore,
    Yield,
    walk,
)
from ..ir.idioms import MOD_HINT
from ..ir.types import I32, ScalarType, VectorType
from .config import VectorizerConfig
from .loop import VectorizedRegion, _clone_scalar_loop
from .stmt import PlanError

__all__ = ["try_slp_vectorize"]

_MAX_GROUP = 8


@dataclass
class _TreeMatch:
    """Leaf substitutions discovered while matching the g statement trees."""

    #: id of a node in tree 0 -> per-position constants (pattern leaf).
    patterns: dict[int, list] = field(default_factory=dict)
    #: id of a Load in tree 0 -> (array, base affine offset of position 0).
    loads: dict[int, tuple] = field(default_factory=dict)


def _affine_sig(affine: Affine):
    return tuple(sorted((v.id, c) for v, c in affine.terms.items()))


def _match_trees(
    nodes: list[Value],
    iv,
    g: int,
    match: _TreeMatch,
    memo: dict,
    body_ids: set[int],
) -> bool:
    """Structurally match the g per-position expression trees."""
    first = nodes[0]
    key = tuple(n.id for n in nodes)
    if key in memo:
        return memo[key]

    def done(ok: bool) -> bool:
        memo[key] = ok
        return ok

    if all(isinstance(n, Const) for n in nodes):
        if any(n.type != first.type for n in nodes):
            return done(False)
        values = [n.value for n in nodes]
        if len(set(values)) > 1:
            match.patterns[first.id] = values
        return done(True)
    if all(n is first for n in nodes):
        # The same SSA value in every position: must be loop-invariant.
        if first.id in body_ids and not isinstance(first, Load):
            return done(False)
        return done(first.id not in body_ids)
    if all(isinstance(n, Load) for n in nodes):
        arrays = {n.array.id for n in nodes}
        if len(arrays) != 1:
            return done(False)
        from ..analysis.memrefs import linearize

        affines = [linearize(n.array, n.indices) for n in nodes]
        if any(a is None for a in affines):
            return done(False)
        base = affines[0]
        if base.coeff(iv) != g:
            return done(False)
        for p, a in enumerate(affines):
            if _affine_sig(a) != _affine_sig(base) or a.const != base.const + p:
                return done(False)
            for term in a.terms:
                if term is not iv and term.id in body_ids:
                    return done(False)
        match.loads[first.id] = (first.array, base)
        return done(True)
    if all(isinstance(n, BinOp) for n in nodes):
        if any(n.op != first.op or n.type != first.type for n in nodes):
            return done(False)
        return done(
            _match_trees([n.lhs for n in nodes], iv, g, match, memo, body_ids)
            and _match_trees([n.rhs for n in nodes], iv, g, match, memo, body_ids)
        )
    if all(isinstance(n, UnOp) for n in nodes):
        if any(n.op != first.op for n in nodes):
            return done(False)
        return done(
            _match_trees([n.value for n in nodes], iv, g, match, memo, body_ids)
        )
    if all(isinstance(n, Select) for n in nodes):
        return done(
            _match_trees([n.cond for n in nodes], iv, g, match, memo, body_ids)
            and _match_trees([n.if_true for n in nodes], iv, g, match, memo, body_ids)
            and _match_trees([n.if_false for n in nodes], iv, g, match, memo, body_ids)
        )
    if all(isinstance(n, Cmp) for n in nodes):
        if any(n.op != first.op for n in nodes):
            return done(False)
        return done(
            _match_trees([n.lhs for n in nodes], iv, g, match, memo, body_ids)
            and _match_trees([n.rhs for n in nodes], iv, g, match, memo, body_ids)
        )
    return done(False)


def try_slp_vectorize(loop: ForLoop, config: VectorizerConfig):
    """Attempt SLP re-rolling; returns a VectorizedRegion or None."""
    if not config.enable_slp or loop.kind != "scalar":
        return None
    if loop.carried or not isinstance(loop.step, Const) or int(loop.step.value) != 1:
        return None
    if any(isinstance(x, (ForLoop, If)) for x in walk(loop.body)):
        return None

    body_ids = {a.id for a in loop.body.args}
    for instr in walk(loop.body):
        body_ids.add(instr.id)

    refs = collect_memrefs(loop)
    stores = [r for r in refs if r.is_store]
    g = len(stores)
    if not 2 <= g <= _MAX_GROUP:
        return None
    arrays = {r.array.id for r in stores}
    if len(arrays) != 1:
        return None
    if any(r.affine is None for r in refs):
        return None
    store_arr = stores[0].array
    if any(r.affine.coeff(loop.iv) != g for r in stores):
        return None
    sig = _affine_sig(stores[0].affine)
    if any(_affine_sig(r.affine) != sig for r in stores):
        return None
    by_const = sorted(stores, key=lambda r: r.affine.const)
    sbase = by_const[0].affine.const
    if [r.affine.const - sbase for r in by_const] != list(range(g)):
        return None
    for term in stores[0].affine.terms:
        if term is not loop.iv and term.id in body_ids:
            return None

    elem = store_arr.elem
    # Widening inside SLP groups is out of scope; require a homogeneous
    # element width across the group trees.
    value_nodes = [r.instr.value for r in by_const]
    for node in value_nodes:
        if isinstance(node.type, ScalarType) and node.type.size != elem.size:
            return None
    if not config.supports_vector_elem(elem):
        return None

    match = _TreeMatch()
    if not _match_trees(value_nodes, loop.iv, g, match, {}, body_ids):
        return None
    # Every load in the trees must carry a consistent width.
    for lid, (arr, base) in match.loads.items():
        if arr.elem.size != elem.size:
            return None

    # Alignment policy.  Split flow: hints + the bases_aligned story, so a
    # JIT that aligns allocations gets aligned accesses.  Native flow: no
    # alignment *versioning* for SLP groups — on targets with misaligned
    # accesses GCC simply emits them (the paper's mix-streams observation
    # on SSE); on aligned-only targets it relies on the forced base
    # alignment of globals, requiring the group to be provably aligned.
    lc0 = int(loop.lower.value) if isinstance(loop.lower, Const) else None
    if config.is_split:
        hints_on = config.enable_alignment_opts
    else:
        vf = config.target.vf(elem)
        if vf < g or vf % g != 0:
            return None
        hints_on = not config.target.supports_misaligned_store
        if hints_on:
            vsz = config.target.vector_size
            if lc0 is None or ((g * lc0 + sbase) * elem.size) % vsz != 0:
                return None

    group = config.next_group()
    staging = Block()
    b = IRBuilder(staging)

    def tag(instr):
        instr.group = group
        return instr

    result_types: list = []  # the loop carries nothing
    outer_if: If | None = None
    if config.is_split:
        guard = b.emit(
            tag(
                VersionGuard(
                    "slp_group", [], {"group": g, "elem": elem.name}, name="gslp"
                )
            )
        )
        outer_if = If(guard, result_types)
        staging.instrs.append(outer_if)
        b.set_block(outer_if.then_block)

    vf_val = config.vf_value(b, elem, group)
    lower, upper = loop.lower, loop.upper
    lc = int(lower.value) if isinstance(lower, Const) else None

    def hint_mis(base_const: int) -> tuple[int, int]:
        if not hints_on or lc is None:
            return 0, 0
        mis = ((g * lc + base_const) * elem.size) % MOD_HINT
        return mis, MOD_HINT

    g_const = Const(g, I32)
    jlo = b.add(b.mul(lower, g_const), Const(sbase, I32), name="jlo")
    jhi = b.add(b.mul(upper, g_const), Const(sbase, I32), name="jhi")
    rem = b.max(b.sub(jhi, jlo), Const(0, I32))
    q = b.div(rem, vf_val)
    main_span = b.mul(q, vf_val)
    main_end = b.add(jlo, main_span, name="jmain_end")

    def loop_bound(vect: Value, scalar: Value) -> Value:
        if config.is_split:
            return b.emit(tag(LoopBound(vect, scalar, name="lb")))
        return vect

    main_lower = loop_bound(jlo, jlo)
    main_upper = loop_bound(main_end, jlo)

    main = ForLoop(main_lower, main_upper, vf_val, [],
                   iv_name="j", kind="vector")
    main.annotations["vect_group"] = group
    main.annotations["valign"] = {
        "has_peel": False,
        "peel_mis": 0,
        "peel_elem_size": elem.size,
        "lower_const": lc,
    }
    body_b = IRBuilder(main.body)
    vt = VectorType(elem, None if config.is_split else config.target.vf(elem))

    cache: dict[int, Value] = {}

    def emit_tree(node: Value) -> Value:
        if node.id in cache:
            return cache[node.id]
        out: Value
        if node.id in match.patterns:
            out = body_b.emit(
                tag(InitPattern(vt, tuple(match.patterns[node.id]), name="vpat"))
            )
        elif isinstance(node, Const):
            out = body_b.emit(tag(InitUniform(vt, node, name="splat")))
        elif node.id in match.loads:
            arr, base = match.loads[node.id]
            delta = base.const - sbase
            idx = (
                main.iv
                if delta == 0
                else body_b.add(main.iv, Const(delta, I32))
            )
            mis, mod = hint_mis(base.const)
            rl = RealignLoad(vt, arr, idx, None, None, None, mis, mod, name="vin")
            rl.step_bytes = elem.size
            out = body_b.emit(tag(rl))
        elif not isinstance(node, Instr) or node.id not in body_ids:
            out = body_b.emit(tag(InitUniform(vt, node, name="splat")))
        elif isinstance(node, BinOp):
            out = body_b.binop(node.op, emit_tree(node.lhs), emit_tree(node.rhs))
        elif isinstance(node, UnOp):
            out = body_b.emit(UnOp(node.op, emit_tree(node.value)))
        elif isinstance(node, Select):
            out = body_b.select(
                emit_tree(node.cond),
                emit_tree(node.if_true),
                emit_tree(node.if_false),
            )
        elif isinstance(node, Cmp):
            out = body_b.cmp(node.op, emit_tree(node.lhs), emit_tree(node.rhs))
        else:
            raise PlanError(f"SLP tree node {node!r} unsupported")
        cache[node.id] = out
        return out

    value_vec = emit_tree(value_nodes[0])
    mis, mod = hint_mis(sbase)
    vs = VStore(store_arr, main.iv, value_vec, mis, mod, name="vout")
    vs.step_bytes = elem.size * 1
    body_b.emit(tag(vs))
    main.body.append(Yield([]))
    b.emit(main)

    # Epilogue in original frame units: frames completed = span / g.
    done = b.div(b.sub(main_end, jlo), g_const)
    epi_lower = b.add(lower, done)
    epi_lower_b = loop_bound(epi_lower, lower)
    epilogue = _clone_scalar_loop(loop, epi_lower_b, upper, "epilogue", [])
    epilogue.annotations["vect_group"] = group
    b.emit(epilogue)

    if outer_if is not None:
        b.emit(Yield([]))
        scalar = _clone_scalar_loop(
            loop, loop.lower, loop.upper, "scalar", list(loop.init_values)
        )
        scalar.annotations["vect_group"] = group
        outer_if.else_block.append(scalar)
        outer_if.else_block.append(Yield([]))

    return VectorizedRegion(staging.instrs, {})
