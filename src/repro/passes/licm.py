"""Loop-invariant code motion.

Hoists pure instructions whose operands are all defined outside the loop.
The optimizing online compiler runs this so that e.g. ``get_rt`` tokens and
splatted constants are computed once per loop, while the lightweight Mono
JIT does not — one of the code-quality deltas Figure 5 of the paper shows.
"""

from __future__ import annotations

from ..ir import Block, ForLoop, Function, If, Instr

__all__ = ["hoist_invariants"]


def _defined_in(block: Block) -> set[int]:
    ids: set[int] = {a.id for a in block.args}
    for instr in block.instrs:
        ids.add(instr.id)
        if isinstance(instr, ForLoop):
            ids |= _defined_in(instr.body)
            ids |= {r.id for r in instr.results}
        elif isinstance(instr, If):
            ids |= _defined_in(instr.then_block)
            ids |= _defined_in(instr.else_block)
            ids |= {r.id for r in instr.results}
    return ids


def _hoist_from_loop(loop: ForLoop, dest: list[Instr]) -> int:
    """Move invariant instructions from ``loop.body`` into ``dest``."""
    hoisted = 0
    changed = True
    while changed:
        changed = False
        inside = _defined_in(loop.body)
        kept: list[Instr] = []
        for instr in loop.body.instrs:
            movable = (
                not instr.has_side_effects
                and not isinstance(instr, (ForLoop, If))
                and all(op.id not in inside for op in instr.operands)
            )
            if movable:
                dest.append(instr)
                hoisted += 1
                changed = True
            else:
                kept.append(instr)
        loop.body.instrs = kept
    return hoisted


def _walk(block: Block) -> int:
    hoisted = 0
    new_instrs: list[Instr] = []
    for instr in block.instrs:
        if isinstance(instr, ForLoop):
            hoisted += _walk(instr.body)
            pre: list[Instr] = []
            hoisted += _hoist_from_loop(instr, pre)
            new_instrs.extend(pre)
            new_instrs.append(instr)
        elif isinstance(instr, If):
            hoisted += _walk(instr.then_block)
            hoisted += _walk(instr.else_block)
            new_instrs.append(instr)
        else:
            new_instrs.append(instr)
    block.instrs = new_instrs
    return hoisted


def hoist_invariants(fn: Function) -> int:
    """Hoist loop-invariant code in ``fn``; returns the number of moves."""
    return _walk(fn.body)
