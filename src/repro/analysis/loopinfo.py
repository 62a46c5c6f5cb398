"""Loop-nest information.

Collects every loop in a function with its nesting context, constant trip
count where derivable, and the set of induction variables of enclosing
loops — the working context for dependence, alignment, and the vectorizer's
loop selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir import Block, Const, ForLoop, Function, If
from .affine import affine_of

__all__ = ["LoopInfo", "LoopNest", "analyze_loops", "const_trip_count"]


@dataclass
class LoopInfo:
    """One loop plus its context.

    Attributes:
        loop: the ForLoop instruction.
        parent: enclosing LoopInfo, or None for top-level loops.
        depth: 0 for top-level.
        children: directly nested loops.
    """

    loop: ForLoop
    parent: "LoopInfo | None"
    depth: int
    children: list["LoopInfo"] = field(default_factory=list)

    @property
    def iv(self):
        return self.loop.iv

    @property
    def is_innermost(self) -> bool:
        return not self.children

    def enclosing_ivs(self) -> list:
        """IVs of this loop and all enclosing loops, outermost first."""
        ivs = []
        node: LoopInfo | None = self
        while node is not None:
            ivs.append(node.iv)
            node = node.parent
        return list(reversed(ivs))

    def self_and_ancestors(self) -> list["LoopInfo"]:
        out = []
        node: LoopInfo | None = self
        while node is not None:
            out.append(node)
            node = node.parent
        return out

    def __repr__(self) -> str:
        return f"LoopInfo({self.loop.iv.name}, depth={self.depth})"


@dataclass
class LoopNest:
    """All loops of a function, with lookup by ForLoop identity."""

    roots: list[LoopInfo]
    by_loop: dict[int, LoopInfo]

    def info(self, loop: ForLoop) -> LoopInfo:
        return self.by_loop[loop.id]

    def all_loops(self) -> list[LoopInfo]:
        out: list[LoopInfo] = []

        def visit(node: LoopInfo) -> None:
            out.append(node)
            for c in node.children:
                visit(c)

        for r in self.roots:
            visit(r)
        return out

    def innermost(self) -> list[LoopInfo]:
        return [li for li in self.all_loops() if li.is_innermost]


def analyze_loops(fn: Function) -> LoopNest:
    """Build the loop nest of ``fn``."""
    roots: list[LoopInfo] = []
    by_loop: dict[int, LoopInfo] = {}

    def visit_block(block: Block, parent: LoopInfo | None) -> None:
        for instr in block.instrs:
            if isinstance(instr, ForLoop):
                info = LoopInfo(instr, parent, 0 if parent is None else parent.depth + 1)
                by_loop[instr.id] = info
                if parent is None:
                    roots.append(info)
                else:
                    parent.children.append(info)
                visit_block(instr.body, info)
            elif isinstance(instr, If):
                visit_block(instr.then_block, parent)
                visit_block(instr.else_block, parent)

    visit_block(fn.body, None)
    return LoopNest(roots, by_loop)


def const_trip_count(loop: ForLoop) -> int | None:
    """The constant trip count of ``loop``, or None if symbolic.

    Assumes the canonical ``for (iv = lower; iv < upper; iv += step)`` form.
    """
    lower = affine_of(loop.lower)
    upper = affine_of(loop.upper)
    if lower is None or upper is None:
        return None
    if not lower.is_constant or not upper.is_constant:
        return None
    if not isinstance(loop.step, Const):
        return None
    step = int(loop.step.value)
    if step <= 0:
        return None
    span = upper.const - lower.const
    if span <= 0:
        return 0
    return (span + step - 1) // step
