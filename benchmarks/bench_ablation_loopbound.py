"""DESIGN.md ablation: the loop_bound collapse for non-SIMD targets
(§III-B.c, §III-C.d).

Without ``loop_bound``, scalarizing the vectorized bytecode leaves "three
loops, each with an unknown number of iterations" and the scalarized vector
body keeps the realignment machinery's cross-iteration chains — overhead a
lightweight JIT cannot remove.  With it, "only one loop is executed" and
scalar quality matches the scalar bytecode.  This bench measures both
scalarization strategies with the Mono-like JIT on the SIMD-less target.
"""

import statistics

from conftest import once
from repro.harness.report import table
from repro.jit import MonoJIT
from repro.kernels import get_kernel
from repro.machine import VM
from repro.targets import SCALAR

#: Simple fp kernels only: the naive VF=1 strategy is ill-defined for
#: widening and interleaving idioms (their hi/lo halves are empty at one
#: lane) — which is itself a point in favour of the paper's loop_bound
#: design, where the vector body never executes under scalarization.
KERNELS = ("sfir_fp", "dissolve_fp", "saxpy_fp", "dscal_fp", "gemm_fp")


def _cycles(runner, inst, jit):
    ck = jit.compile(runner.split_ir(inst), SCALAR)
    bufs = runner.make_buffers(inst)
    res = VM(SCALAR).run(ck.mfunc, inst.scalar_args, bufs)
    runner.verify(inst, bufs, res.value)
    return res.cycles


def test_ablation_loopbound(benchmark, runner):
    def experiment():
        rows = []
        for name in KERNELS:
            inst = get_kernel(name).instantiate()
            collapsed = _cycles(runner, inst, MonoJIT())
            naive = _cycles(
                runner, inst, MonoJIT(scalar_via_loop_bound=False)
            )
            rows.append((name, collapsed, naive, naive / collapsed))
        return rows

    rows = once(benchmark, experiment)
    print()
    print("Scalarization on a non-SIMD target: loop_bound collapse vs "
          "naive three-loop VF=1 scalarization (Mono JIT)")
    print(table(
        ["kernel", "loop_bound", "naive", "overhead"],
        [(k, f"{c:.0f}", f"{n:.0f}", r) for k, c, n, r in rows],
    ))
    avg = statistics.fmean(r for _, _, _, r in rows)
    print(f"\naverage naive-scalarization overhead: {avg:.2f}x")
    benchmark.extra_info["average_overhead"] = round(avg, 3)
    assert avg > 1.05
    assert all(r >= 0.98 for _, _, _, r in rows)
