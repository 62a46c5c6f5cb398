"""Runtime specialization — the paper's §VII future work, implemented.

"In the future, we wish to extend our framework to take full advantage of
online compilation, leveraging dynamic context and workload information for
improved specialization."

The online compiler already controls allocation (the ``bases_aligned``
fold); this module adds *value* specialization: once the runtime has
observed the actual scalar arguments of a hot kernel (the trip count above
all), it clones the bytecode with those parameters bound to constants and
recompiles.  Constant folding then precomputes the whole split-layer
prologue — peel counts, main-loop bounds, version-guard arithmetic — and
the zero-trip peel/epilogue loops disappear at compile time instead of
costing a test per invocation.
"""

from __future__ import annotations

from ..errors import ReproError
from ..ir import Const, Function, Value, clone_block, walk
from ..ir.types import ScalarType

__all__ = ["specialize_scalars", "SpecializationError"]


class SpecializationError(ReproError):
    """Raised for unknown parameter names or non-scalar bindings."""


def specialize_scalars(fn: Function, bindings: dict[str, float]) -> Function:
    """Clone ``fn`` with the named scalar parameters bound to constants.

    The bound parameters are removed from the signature; callers invoke the
    specialized kernel without them.  Works on scalar or vectorized
    bytecode (before or after decode) — specialization happens at the IR
    level, so the ordinary JIT pipeline performs all the folding.

    Args:
        fn: the kernel to specialize.
        bindings: parameter name -> concrete value.

    Returns:
        A new Function named ``<name>__spec`` with the reduced signature.
    """
    by_name = {p.name: p for p in fn.scalar_params}
    vmap: dict[Value, Value] = {}
    remaining = []
    for name, value in bindings.items():
        if name not in by_name:
            raise SpecializationError(
                f"{fn.name} has no scalar parameter {name!r} "
                f"(has: {sorted(by_name)})"
            )
        param = by_name[name]
        assert isinstance(param.type, ScalarType)
        vmap[param] = Const(value, param.type)
    for p in fn.scalar_params:
        if p.name not in bindings:
            remaining.append(p)

    out = Function(
        f"{fn.name}__spec", remaining, fn.array_params, fn.return_type
    )
    out.form = fn.form
    out.annotations = dict(fn.annotations)
    out.annotations["specialized"] = dict(bindings)
    out.body = clone_block(fn.body, vmap)
    # Array extents referencing a bound parameter stay symbolic in the
    # ArrayRef (shapes are metadata, shared with the original); the loop
    # bounds that matter for codegen were rewritten above.
    for instr in walk(out.body):
        instr.replace_uses(vmap)
    return out
