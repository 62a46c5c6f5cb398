"""Type system for the Vapor IR.

The IR is typed throughout, mirroring the strongly typed CLI bytecode the
paper relies on ("Translating C to CLI notably results in no loss of semantic
or metadata information").  Two kinds of types exist:

* :class:`ScalarType` — fixed-width integers and IEEE floats.  The paper's
  kernel suite uses signed 8/16/32-bit integers and single/double floats,
  suffixed ``s8``/``s16``/``s32``/``fp``/``dp``.
* :class:`VectorType` — a vector of scalar elements.  At the *split layer*
  (vectorized bytecode) the lane count is symbolic: every vector occupies one
  full target vector register of ``VS`` bytes, so the lane count is
  ``VS / sizeof(T)`` and is only materialized by the online compiler
  (``get_VF`` in Table 1 of the paper).  At the machine layer the lane count
  is concrete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScalarType",
    "VectorType",
    "Type",
    "I8",
    "I16",
    "I32",
    "I64",
    "F32",
    "F64",
    "BOOL",
    "SCALAR_TYPES",
    "widened",
    "narrowed",
    "scalar_type_from_name",
]


#: numpy dtype per ``(size, is_float)``: ``numpy_dtype`` is read on every
#: scalar op of a VM run and every step of a batch walk, and building a
#: dtype from its name costs more than the op it types.  A module table,
#: not a cache on the instance, so pickled types keep their bytes.
_NUMPY_DTYPES = {
    (1, False): np.dtype(np.int8),
    (2, False): np.dtype(np.int16),
    (4, False): np.dtype(np.int32),
    (8, False): np.dtype(np.int64),
    (4, True): np.dtype(np.float32),
    (8, True): np.dtype(np.float64),
}


@dataclass(frozen=True)
class ScalarType:
    """A fixed-width scalar type.

    Attributes:
        name: canonical spelling used by the printer and the frontend.
        size: width in bytes.
        is_float: True for IEEE floating point types.
    """

    name: str
    size: int
    is_float: bool

    @property
    def is_int(self) -> bool:
        return not self.is_float

    @property
    def bits(self) -> int:
        return self.size * 8

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used by the memory model and the VM."""
        return _NUMPY_DTYPES[self.size, self.is_float]

    @property
    def min_value(self) -> float:
        if self.is_float:
            return float(np.finfo(self.numpy_dtype).min)
        return int(np.iinfo(self.numpy_dtype).min)

    @property
    def max_value(self) -> float:
        if self.is_float:
            return float(np.finfo(self.numpy_dtype).max)
        return int(np.iinfo(self.numpy_dtype).max)

    def __repr__(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


I8 = ScalarType("i8", 1, False)
I16 = ScalarType("i16", 2, False)
I32 = ScalarType("i32", 4, False)
I64 = ScalarType("i64", 8, False)
F32 = ScalarType("f32", 4, True)
F64 = ScalarType("f64", 8, True)
#: Booleans are represented as one-byte integers; comparison results and
#: version-guard conditions have this type.
BOOL = ScalarType("bool", 1, False)

SCALAR_TYPES = (I8, I16, I32, I64, F32, F64, BOOL)

_BY_NAME = {t.name: t for t in SCALAR_TYPES}
# Frontend spellings.
_BY_NAME.update(
    {
        "char": I8,
        "short": I16,
        "int": I32,
        "long": I64,
        "float": F32,
        "double": F64,
    }
)


def scalar_type_from_name(name: str) -> ScalarType:
    """Look up a scalar type by IR or C-like spelling.

    Raises:
        KeyError: if the name is not a known type.
    """
    return _BY_NAME[name]


@dataclass(frozen=True)
class VectorType:
    """A vector of ``lanes`` elements of ``elem``.

    ``lanes is None`` denotes the *symbolic* lane count of the split layer:
    the vector fills one VS-byte register and the count is ``VS//elem.size``,
    known only to the online compiler.
    """

    elem: ScalarType
    lanes: int | None = None

    @property
    def is_symbolic(self) -> bool:
        return self.lanes is None

    @property
    def size(self) -> int:
        """Concrete byte size; only valid for materialized vectors."""
        if self.lanes is None:
            raise ValueError("symbolic vector type has no concrete size")
        return self.elem.size * self.lanes

    def with_lanes(self, vector_size: int) -> "VectorType":
        """Materialize the lane count for a target with VS ``vector_size``."""
        return VectorType(self.elem, vector_size // self.elem.size)

    def __repr__(self) -> str:
        lanes = "?" if self.lanes is None else str(self.lanes)
        return f"<{lanes} x {self.elem}>"

    def __str__(self) -> str:
        return repr(self)


Type = ScalarType | VectorType

_WIDEN = {I8: I16, I16: I32, I32: I64, F32: F64}
_NARROW = {v: k for k, v in _WIDEN.items()}


def widened(t: ScalarType) -> ScalarType:
    """The type of twice the width (``widen_mult``/``unpack`` result type).

    Raises:
        KeyError: if ``t`` has no wider counterpart (i64, f64, bool).
    """
    return _WIDEN[t]


def narrowed(t: ScalarType) -> ScalarType:
    """The type of half the width (``pack`` result type).

    Raises:
        KeyError: if ``t`` has no narrower counterpart.
    """
    return _NARROW[t]
