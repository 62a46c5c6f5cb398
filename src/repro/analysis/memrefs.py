"""Memory reference collection and linearization.

Every load/store inside a candidate loop is summarized as a :class:`MemRef`
with a linearized affine subscript (in *elements* relative to the array
base).  The dependence, alignment, and strided-access machinery all operate
on these summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir import ArrayRef, ForLoop, Instr, Load, Store, Value, walk
from .affine import Affine, affine_of

__all__ = ["MemRef", "collect_memrefs", "linearize"]


@dataclass
class MemRef:
    """One memory access summarized for analysis.

    Attributes:
        instr: the Load or Store.
        array: accessed array.
        affine: linearized subscript in elements, or None if non-affine.
        is_store: write vs read.
        order: lexical position within the analyzed region (for
            loop-independent dependence direction).
    """

    instr: Instr
    array: ArrayRef
    affine: Affine | None
    is_store: bool
    order: int

    def stride_in(self, iv: Value) -> int | None:
        """Element stride with respect to ``iv``; None if non-affine."""
        if self.affine is None:
            return None
        return self.affine.coeff(iv)

    def __repr__(self) -> str:
        kind = "store" if self.is_store else "load"
        return f"MemRef({kind} @{self.array.name}[{self.affine}])"


def linearize(array: ArrayRef, indices: list[Value]) -> Affine | None:
    """Linearize multi-dimensional indices to an element offset.

    Row-major: ``offset = i0*stride0 + i1*stride1 + ... + i_{r-1}`` where
    ``stride_k`` is the product of the extents of dimensions ``k+1..r-1``.
    Inner extents are guaranteed constant by :class:`ArrayRef`.
    """
    total = Affine.constant(0)
    for k, idx in enumerate(indices):
        aff = affine_of(idx)
        if aff is None:
            return None
        stride = 1
        for extent in array.shape[k + 1 :]:
            stride *= extent
        total = total + aff.scaled(stride)
    return total


def collect_memrefs(loop: ForLoop) -> list[MemRef]:
    """Collect all memory references inside ``loop`` (nested included)."""
    refs: list[MemRef] = []
    for order, instr in enumerate(walk(loop.body)):
        if isinstance(instr, Load):
            refs.append(
                MemRef(instr, instr.array, linearize(instr.array, instr.indices),
                       False, order)
            )
        elif isinstance(instr, Store):
            refs.append(
                MemRef(instr, instr.array, linearize(instr.array, instr.indices),
                       True, order)
            )
    return refs
