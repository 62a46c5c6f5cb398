"""Seeded request streams for the end-to-end benchmark's workloads.

A *shape* is one ``(kernel, target, size)`` compile-and-run request on
the fixed :data:`FLOW`.  Each workload fixes which shapes exist and in
what mix, and the seed chooses only their order (and, for ``cold_mix``,
which sizes), so every seed offers the same work and the figures of
different seeds are comparable.

Every workload is a closed loop of one client: the next request is sent
when the previous one is answered.  One request in flight keeps each
server-side span free of time spent waiting for another request's hold
on the interpreter lock, so the per-layer rollup attributes time to the
layer that spent it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

#: the paper's split flow: offline vectorized bytecode, gcc4cli-like JIT.
FLOW = "split_vec_gcc4cli"

#: warm_hot: small instances whose warm hits cost about a millisecond in
#: the engine, so the fixed per-request path (client, wire, gateway,
#: admission, cache read, translation) is most of each request.
#: Five shapes of distinct cost in equal shares put the median request
#: in the middle of the third cheapest shape's latencies and the 90th
#: percentile in the middle of the dearest's, never on the edge between
#: two shapes, where it would jump.
HOT = (
    ("saxpy_fp", "sse", 64),
    ("dscal_fp", "sse", 64),
    ("dissolve_fp", "neon", 64),
    ("mix_streams_s16", "neon", 64),
    ("sfir_fp", "neon", 64),
)

#: cold_mix: kernels that compile without degradation on both targets at
#: every size in COLD_SIZES (every size to 1567 swept, and 400 sampled
#: sizes per kernel and target above it; the *_dp kernels degrade on
#: NEON and MMM/alvinn/dct take sizes of another meaning).  The size is
#: part of the kernel's VaporC source but not of its bytecode, so a new
#: size is a program the server has never seen -- the offline stage runs
#: again -- while the JIT artifact is the one cached for that kernel and
#: target.  Set-up compiles each of those artifacts once, at a size
#: outside COLD_SIZES, so no measured request compiles: there are too few
#: distinct bytecodes to keep a JIT miss in every request of a run.
#: 9 kernels x 3072 sizes are five times or more the 3,000-5,000
#: requests a 55-second run makes on a 2-vCPU virtual machine, so the
#: program may get several times faster before a run runs out of new
#: instances.
COLD_KERNELS = (
    "dissolve_s8", "sfir_s16", "interp_s16", "mix_streams_s16",
    "dissolve_fp", "sfir_fp", "interp_fp", "dscal_fp", "saxpy_fp",
)
COLD_TARGETS = ("sse", "neon")
COLD_SIZES = range(32, 3104)
#: COLD_SIZES falls in this many equal bands of neighbouring sizes.
COLD_BANDS = 8
COLD_WARM = tuple((k, t, 16) for k in COLD_KERNELS for t in COLD_TARGETS)


def _cycled(shapes: tuple) -> Callable[[random.Random], Iterator[tuple]]:
    """Every shape once per block, in a seeded order per block: an exact,
    seed-independent mix of repeated shapes."""

    def gen(rng: random.Random) -> Iterator[tuple]:
        while True:
            block = list(shapes)
            rng.shuffle(block)
            yield from block

    return gen


def _distinct(rng: random.Random) -> Iterator[tuple]:
    """Never the same ``(kernel, size)`` twice: every request is a kernel
    instance the service has not seen, so it runs the offline stage.

    Kernels come once per block in a seeded order.  Each kernel takes
    every (size band, target) pair once, in a seeded order, before it
    takes any again, and draws the size within the band without
    replacement.  So the kernel, target and size mix is the same for
    every seed and steady through the run: a request's engine time grows
    with its size, and a run that drew more large sizes than another
    would read slower for a reason other than the program.
    """
    width = len(COLD_SIZES) // COLD_BANDS
    bands = {
        k: [rng.sample(COLD_SIZES[i * width:(i + 1) * width], width)
            for i in range(COLD_BANDS)]
        for k in COLD_KERNELS
    }
    pending = {k: [] for k in COLD_KERNELS}
    while True:
        block = list(COLD_KERNELS)
        rng.shuffle(block)
        for kernel in block:
            if not pending[kernel]:
                pending[kernel] = [(b, t) for b in range(COLD_BANDS)
                                   for t in COLD_TARGETS]
                rng.shuffle(pending[kernel])
            band, target = pending[kernel].pop()
            if not bands[kernel][band]:
                raise RuntimeError(
                    "cold_mix ran out of distinct shapes; shorten the run"
                )
            yield (kernel, target, bands[kernel][band].pop())


@dataclass(frozen=True)
class Workload:
    """One traffic mix."""

    name: str
    #: shapes requested once during set-up (compiled and cached then);
    #: every measured shape's bytecode is among them.
    warm: tuple
    #: seeded shape generator for the measured window.
    shapes: Callable[[random.Random], Iterator[tuple]]

    def stream(self, seed: int) -> Iterator[tuple]:
        return self.shapes(random.Random(seed))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("warm_hot", HOT, _cycled(HOT)),
        Workload("cold_mix", COLD_WARM, _distinct),
    )
}
