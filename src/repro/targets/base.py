"""Target descriptors: the per-ISA facts both compilation stages consume.

A :class:`Target` captures exactly the properties the paper's §IV-A table of
platforms varies: vector size, alignment capabilities, supported element
types, realignment idiom availability, plus a cycle-cost table that stands
in for the real microarchitecture (see DESIGN.md's substitution notes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.types import F32, I8, I16, I32, ScalarType

__all__ = ["Target", "CostTable", "BASE_COSTS"]

#: Default per-opcode cycle costs; targets override entries.  Scalar loads
#: and stores model L1 hits; division and sqrt are long-latency; vector op
#: costs are per *instruction* (the whole register), which is what makes
#: vectorization pay off.
BASE_COSTS: dict[str, float] = {
    "const": 0.5,
    "mov": 0.5,
    "lea": 0.5,
    "add": 1.0, "sub": 1.0, "and": 1.0, "or": 1.0, "xor": 1.0,
    "shl": 1.0, "shr": 1.0, "min": 1.0, "max": 1.0,
    "mul": 3.0, "div": 18.0, "mod": 20.0,
    "neg": 1.0, "abs": 1.0, "not": 1.0, "sqrt": 16.0,
    "cmp": 1.0, "select": 1.0, "cvt": 2.0,
    "load": 1.0, "store": 1.0,
    "br": 1.0, "brtrue": 1.0, "brfalse": 1.0, "label": 0.0, "ret": 1.0,
    "arr_overlap": 3.0, "arr_aligned": 2.0,
    "call_lib": 24.0,
    "spill_st": 1.0, "spill_ld": 1.0,
    # vector
    "vconst": 1.0, "vsplat": 1.0, "vaffine": 2.0,
    "vload_a": 1.0, "vload_u": 2.0, "vload_fa": 1.0,
    "vstore_a": 1.0, "vstore_u": 3.0,
    "lvsr": 1.0, "vperm": 1.0,
    "vadd": 1.0, "vsub": 1.0, "vand": 1.0, "vor": 1.0, "vxor": 1.0,
    "vshl": 1.0, "vshr": 1.0, "vmin": 1.0, "vmax": 1.0,
    "vmul": 2.0, "vdiv": 20.0, "vmod": 24.0,
    "vneg": 1.0, "vabs": 1.0, "vnot": 1.0, "vsqrt": 18.0,
    "vcmp": 1.0, "vselect": 1.0, "vcvt": 2.0,
    "vreduce": 3.0, "vdot": 2.0, "vinsert0": 1.0,
    "vwidenmul": 2.0, "vpack": 1.0, "vunpack": 1.0,
    "vextract": 2.0, "vinterleave": 1.0,
}

#: Extra cost per scalar floating-point operation when the online compiler
#: routes scalar FP through the x87 stack (Mono on x86, §V-A: "use of the
#: x87 floating point unit, which Mono does not optimize").
X87_FP_EXTRA = 4.0


@dataclass
class CostTable:
    """Per-opcode cycle costs with simple lookup semantics."""

    costs: dict[str, float] = field(default_factory=dict)

    def get(self, op: str) -> float:
        if op in self.costs:
            return self.costs[op]
        return BASE_COSTS.get(op, 1.0)


@dataclass
class Target:
    """An execution target for the online stage (or the native compiler).

    Attributes:
        name: registry key ("sse", "altivec", "neon", "avx", "scalar").
        vector_size: VS in bytes; 0 means no SIMD (scalarize everything).
        supports_misaligned_load / supports_misaligned_store: whether
            misaligned vector memory ops exist at all (SSE/NEON/AVX yes,
            AltiVec no).
        supports_explicit_realign: vperm/lvsr-style realignment (AltiVec).
        vector_elem_types: element types with vector arithmetic support;
            AltiVec has no 64-bit support, NEON-64 no doubles, AVX(1) is
            floating-point only.
        library_idioms: idiom mnemonics only available via a library call
            (the paper's immature-NEON dissolve/dct fallback).
        gpr_count/fpr_count/vec_count: physical register file sizes — the
            lever behind Mono's spill behaviour on x86 vs PowerPC.
        has_scaled_addressing: base+index*scale addressing is free (x86);
            otherwise address arithmetic costs explicit instructions.
        issue_width: superscalar width used by the IACA-style analyzer.
        description: one-line human description (docs/reports).
    """

    name: str
    vector_size: int
    supports_misaligned_load: bool = True
    supports_misaligned_store: bool = True
    supports_explicit_realign: bool = False
    vector_elem_types: frozenset = frozenset({I8, I16, I32, F32})
    library_idioms: frozenset = frozenset()
    gpr_count: int = 16
    fpr_count: int = 16
    vec_count: int = 16
    has_scaled_addressing: bool = False
    issue_width: int = 4
    cost: CostTable = field(default_factory=CostTable)
    description: str = ""

    @property
    def has_simd(self) -> bool:
        return self.vector_size > 0

    def vf(self, elem: ScalarType) -> int:
        """get_VF materialization: lanes of ``elem`` per register (1 if no
        SIMD or the element type is unsupported)."""
        if not self.has_simd or elem not in self.vector_elem_types:
            return 1
        return self.vector_size // elem.size

    def supports_elem(self, elem: ScalarType) -> bool:
        return self.has_simd and elem in self.vector_elem_types

    def __repr__(self) -> str:
        return f"Target({self.name}, VS={self.vector_size})"
