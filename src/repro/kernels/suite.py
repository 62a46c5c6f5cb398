"""Kernel registry: Table 2's auto-vectorization kernels + PolyBench 1.0.

Each :class:`Kernel` bundles the VaporC source (parameterized by problem
size), a data generator, and a numpy reference implementation.  The harness
and the test suite run every kernel through every compilation flow and
check results against the reference.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Kernel", "KernelInstance", "register", "get_kernel", "all_kernels",
           "kernel_names"]

_REGISTRY: dict[str, "Kernel"] = {}


@dataclass
class KernelInstance:
    """A kernel at a concrete problem size, ready to compile and run."""

    kernel: "Kernel"
    size: int
    source: str
    scalar_args: dict
    arrays: dict  # name -> numpy array (inputs filled, outputs zeroed)
    expected_arrays: dict  # name -> numpy array
    expected_return: object | None

    @property
    def name(self) -> str:
        return self.kernel.name

    @property
    def entry(self) -> str:
        return self.kernel.entry


@dataclass
class Kernel:
    """A benchmark kernel description.

    Attributes:
        name: Table 2 style name (dissolve_s8, saxpy_fp, gemm_fp, ...).
        entry: the VaporC function name.
        features: the paper's feature tag ("widening multiplication", ...).
        category: "kernel" (Table 2 suite) or "polybench".
        source_fn: size -> VaporC source text.
        data_fn: (size, rng) -> (scalar_args, arrays dict of numpy arrays).
        ref_fn: (size, scalar_args, arrays) -> (expected arrays, return).
        default_size: harness problem size (kept VM-friendly; the paper's
            sizes are larger but the measured *ratios* are size-stable).
        expect_vectorized: False for the kernels the paper could not
            vectorize (lu, ludcmp, seidel).
        rtol: check tolerance (float kernels reassociate reductions).
    """

    name: str
    entry: str
    features: str
    category: str
    source_fn: Callable[[int], str]
    data_fn: Callable
    ref_fn: Callable
    default_size: int
    expect_vectorized: bool = True
    rtol: float = 1e-4
    #: tolerated absolute error on integer outputs (fp->int conversions
    #: round differently under reassociated vector sums).
    int_atol: int = 0

    def instantiate(self, size: int | None = None, seed: int = 0) -> KernelInstance:
        size = self.default_size if size is None else size
        # crc32, not hash(): str hashes are salted per process, and the
        # input data must be identical across service replicas (a warm
        # cache entry computed by one process is checked and served by
        # another — same bytes demand same data).
        rng = np.random.default_rng(
            seed + zlib.crc32(self.name.encode("utf-8")) % 10_000
        )
        scalar_args, arrays = self.data_fn(size, rng)
        inputs = {k: v.copy() for k, v in arrays.items()}
        expected_arrays, expected_return = self.ref_fn(size, scalar_args, inputs)
        return KernelInstance(
            kernel=self,
            size=size,
            source=self.source_fn(size),
            scalar_args=scalar_args,
            arrays=arrays,
            expected_arrays=expected_arrays,
            expected_return=expected_return,
        )


def register(kernel: Kernel) -> Kernel:
    """Add a kernel to the global registry (module import time)."""
    if kernel.name in _REGISTRY:
        raise ValueError(f"duplicate kernel {kernel.name}")
    _REGISTRY[kernel.name] = kernel
    return kernel


def get_kernel(name: str) -> Kernel:
    """Look up a kernel by its Table 2 / PolyBench name."""
    from . import media, polybench  # noqa: F401  (populate registry)

    return _REGISTRY[name]


def all_kernels(category: str | None = None) -> list[Kernel]:
    """All registered kernels, optionally filtered by category."""
    from . import media, polybench  # noqa: F401

    kernels = list(_REGISTRY.values())
    if category is not None:
        kernels = [k for k in kernels if k.category == category]
    return kernels


def kernel_names(category: str | None = None) -> list[str]:
    """Names of all registered kernels (registration order)."""
    return [k.name for k in all_kernels(category)]
