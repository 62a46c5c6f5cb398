"""The vectorization cost model (§II.c).

"Because of these overheads, vectorization may not always be profitable.
A cost model is needed to determine when to vectorize."

The model estimates per-element cycle costs for the scalar loop and the
vectorized loop on a *profile*: a concrete target for the native flow, or
the generic least-common-denominator SIMD profile for the split flow (the
offline compiler cannot know the real machine; the paper encodes residual
decisions as version guards instead).  The driver records the estimate in
the vectorization report and can veto unprofitable loops.

The accounting mirrors the overhead taxonomy of §II:

* realignment: one extra aligned load + permute per misaligned unit stream
  (amortized by the cross-iteration reuse chain), or a misaligned-access
  penalty;
* strided access: the extract/interleave shuffles;
* widening: the unpack/pack ladder between element widths;
* loop peeling/epilogue: scalar iterations amortized over the trip count
  (unknown trip counts use a pessimistic default);
* versioning: the guard evaluation, amortized.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.loopinfo import LoopInfo, const_trip_count
from ..ir import BinOp, Cmp, Convert, Load, Select, Store, UnOp, Yield, walk
from ..ir.types import BOOL, ScalarType
from .config import VectorizerConfig
from .legality import Legality
from .stmt import StreamPlan

__all__ = ["CostEstimate", "GENERIC_SIMD", "estimate_loop_cost", "SimdProfile"]

#: Assumed trip count when the loop bound is symbolic (the paper's kernels
#: run hundreds of iterations; overheads amortize).
DEFAULT_TRIP = 128


@dataclass(frozen=True)
class SimdProfile:
    """The cost-model's view of a SIMD platform."""

    name: str
    vector_size: int
    misaligned_load_penalty: float = 1.0   # extra cycles vs aligned
    misaligned_store_penalty: float = 2.0
    shuffle_cost: float = 1.0              # permute/extract/interleave
    reduce_cost: float = 3.0
    scalar_op: float = 1.0
    vector_op: float = 1.0
    mul_extra: float = 1.0                 # multiply over add, either side
    mem_op: float = 1.0


#: "targeting the greatest common denominator of SIMD platforms" (§III-A):
#: 16-byte vectors, misaligned accesses assumed costly, shuffles cheap.
GENERIC_SIMD = SimdProfile("generic", vector_size=16)


def profile_for(config: VectorizerConfig) -> SimdProfile:
    if config.target is None:
        return GENERIC_SIMD
    t = config.target
    return SimdProfile(
        name=t.name,
        vector_size=max(t.vector_size, 1),
        misaligned_load_penalty=t.cost.get("vload_u") - t.cost.get("vload_a"),
        misaligned_store_penalty=t.cost.get("vstore_u") - t.cost.get("vstore_a"),
        shuffle_cost=t.cost.get("vextract"),
        reduce_cost=t.cost.get("vreduce"),
    )


@dataclass
class CostEstimate:
    """Scalar vs vector per-element cost and the verdict."""

    scalar_per_elem: float
    vector_per_elem: float
    trip: int
    profile: str

    @property
    def speedup(self) -> float:
        if self.vector_per_elem <= 0:
            return 1.0
        return self.scalar_per_elem / self.vector_per_elem

    @property
    def profitable(self) -> bool:
        return self.vector_per_elem < self.scalar_per_elem

    def __repr__(self) -> str:
        return (
            f"CostEstimate(scalar={self.scalar_per_elem:.2f}, "
            f"vector={self.vector_per_elem:.2f}, est x{self.speedup:.2f})"
        )


def _scalar_body_cost(loop, p: SimdProfile) -> float:
    cost = 0.0
    for instr in walk(loop.body):
        if isinstance(instr, (Load, Store)):
            cost += p.mem_op
        elif isinstance(instr, BinOp):
            cost += p.scalar_op + (p.mul_extra if instr.op in ("mul", "div") else 0)
        elif isinstance(instr, (UnOp, Cmp, Select, Convert)):
            cost += p.scalar_op
        elif isinstance(instr, Yield):
            continue
    # Loop control: compare + branch + induction increment.
    return cost + 3 * p.scalar_op


def estimate_loop_cost(
    info: LoopInfo,
    legal: Legality,
    plan: StreamPlan,
    config: VectorizerConfig,
) -> CostEstimate:
    """Estimate scalar vs vectorized per-element cost for an inner loop."""
    p = profile_for(config)
    loop = info.loop
    min_elem = legal.min_elem
    vf = max(1, p.vector_size // min_elem.size)
    trip = const_trip_count(loop) or DEFAULT_TRIP

    scalar_per_elem = _scalar_body_cost(loop, p)

    # Vector body: arithmetic per pack.
    vec_body = 0.0
    for instr in walk(loop.body):
        if isinstance(instr, (Load, Store)):
            continue  # accounted via streams below
        t = instr.type
        k = 1
        if isinstance(t, ScalarType) and t != BOOL:
            k = max(1, t.size // min_elem.size)
        if isinstance(instr, BinOp):
            vec_body += k * (
                p.vector_op + (p.mul_extra if instr.op in ("mul", "div") else 0)
            )
        elif isinstance(instr, (UnOp, Cmp, Select)):
            vec_body += k * p.vector_op
        elif isinstance(instr, Convert):
            # The widen/narrow ladder: one shuffle per produced pack.
            src_k = max(1, instr.value.type.size // min_elem.size)
            vec_body += max(k, src_k) * p.shuffle_cost

    # Memory streams.
    for stream in plan.unit_loads.values():
        loads = stream.k
        if stream.hint.known and stream.hint.mis % p.vector_size == 0:
            vec_body += loads * p.mem_op
        elif stream.use_chain:
            # Optimized realignment: one aligned load + one permute per
            # pack per iteration (Figure 2d).
            vec_body += loads * (p.mem_op + p.shuffle_cost)
        else:
            vec_body += loads * (p.mem_op + p.misaligned_load_penalty)
    for group in plan.strided_loads:
        vec_body += group.stride * (p.mem_op + p.misaligned_load_penalty)
        vec_body += len(set(group.offsets.values())) * p.shuffle_cost
    for splan in plan.unit_stores.values():
        if splan.is_peel_target or (
            splan.hint.known and splan.hint.mis % p.vector_size == 0
        ):
            vec_body += splan.k * p.mem_op
        else:
            vec_body += splan.k * (p.mem_op + p.misaligned_store_penalty)
    for group in plan.strided_stores:
        vec_body += 2 * p.shuffle_cost + 2 * (p.mem_op + p.misaligned_store_penalty)

    # Scalar-load splats for invariant streams.
    vec_body += len(plan.invariant_loads) * (p.mem_op + p.shuffle_cost)
    # Loop control.
    vec_body += 3 * p.scalar_op

    # Amortized overheads: peel + epilogue scalar iterations, reduction
    # finalization, guard evaluation.  Exact counts when the trip count and
    # misalignment are compile-time constants, pessimistic averages else.
    known_trip = const_trip_count(loop) is not None
    if plan.peel is not None:
        es = plan.peel.elem.size
        vf_store = max(1, p.vector_size // es)
        peel_iters = float((vf_store - plan.peel.hint.mis // es) % vf_store)
    else:
        peel_iters = 0.0
    if known_trip:
        epilogue_iters = float((trip - int(peel_iters)) % vf)
    else:
        epilogue_iters = (vf - 1) / 2
    overhead = (peel_iters + epilogue_iters) * scalar_per_elem
    overhead += len(legal.reductions) * p.reduce_cost
    overhead += len(legal.alias_pairs) * 4 * p.scalar_op
    if config.is_split and config.enable_versioning:
        overhead += 2 * p.scalar_op

    total_elems = max(trip, 1)
    vector_per_elem = vec_body / vf + overhead / total_elems
    return CostEstimate(
        scalar_per_elem=scalar_per_elem,
        vector_per_elem=vector_per_elem,
        trip=trip,
        profile=p.name,
    )
