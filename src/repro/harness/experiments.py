"""Experiment drivers: one function per table/figure of the paper.

Each driver returns plain data (lists of rows + summary statistics) so the
benchmark harness, the tests, and EXPERIMENTS.md generation can share them.
See DESIGN.md's per-experiment index (E1-E10).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..jit import NativeBackend, OptimizingJIT
from ..kernels import all_kernels, get_kernel
from ..machine import analyze_loop_throughput
from ..targets import AVX, get_target
from .flows import FlowRunner

__all__ = [
    "figure5",
    "figure6",
    "table3",
    "ablation_alignment",
    "compile_time_stats",
    "ablation_realign_reuse",
    "ablation_dependence_hints",
    "scalarization_overhead",
    "Figure5Result",
    "Figure6Result",
    "Table3Result",
]

#: Table 3's kernel subset (the fp kernels with AVX support).
TABLE3_KERNELS = (
    "dissolve_fp", "sfir_fp", "interp_fp", "MMM_fp",
    "saxpy_fp", "dscal_fp", "saxpy_dp", "dscal_dp",
)


@dataclass
class Figure5Result:
    """Mono JIT normalized vectorization impact: (A/C) / (E/F)."""

    target: str
    rows: list = field(default_factory=list)  # (kernel, impact)
    polybench_avg: float = 0.0
    arith_mean: float = 0.0
    #: per-cell wall-clock stats: (kernel, flow, seconds), sweep order.
    cell_seconds: list = field(default_factory=list)


@dataclass
class Figure6Result:
    """gcc4cli split-vectorized time normalized to native: D / F."""

    target: str
    rows: list = field(default_factory=list)  # (kernel, normalized time)
    harmonic_mean: float = 0.0
    #: per-cell wall-clock stats: (kernel, flow, seconds), sweep order.
    cell_seconds: list = field(default_factory=list)


@dataclass
class Table3Result:
    """IACA-style cycles per vector-loop iteration on AVX."""

    rows: list = field(default_factory=list)  # (kernel, native, split)


def _runner(overrides=None, **kw) -> FlowRunner:
    return FlowRunner(vectorizer_overrides=overrides or {}, **kw)


#: Figure 5 problem-size multiplier for the Table 2 media/DSP kernels.
#: The translating engine makes the VM fast enough to run the sweep at
#: sizes closer to the paper's; ``quick=True`` (CI) keeps the historical
#: default sizes.  PolyBench kernels keep their defaults either way (they
#: are O(n^2)/O(n^3) in the size parameter).
FIGURE5_KERNEL_SCALE = 2


def _figure5_size(kernel, size: int | None, quick: bool) -> int | None:
    if size is not None:
        return size
    if quick or kernel.category != "kernel":
        return None
    return kernel.default_size * FIGURE5_KERNEL_SCALE


def _sweep(kernels, flows, target, sizes, jobs, runner):
    """Run a (kernel x flow) sweep; returns ({(kernel, flow): cycles},
    [(kernel, flow, seconds), ...]) with deterministic ordering."""
    from .parallel import Cell, run_cells

    cells = [
        Cell(kernel.name, flow, target, sizes[kernel.name])
        for kernel in kernels
        for flow in flows
    ]
    results = run_cells(cells, jobs=jobs, runner=runner)
    cycles = {
        (r.cell.kernel, r.cell.flow):
            r.result.cycles if r.result is not None else float("nan")
        for r in results
    }
    timings = [(r.cell.kernel, r.cell.flow, r.seconds) for r in results]
    return cycles, timings


def figure5(target: str = "sse", size: int | None = None,
            runner: FlowRunner | None = None, jobs: int = 1,
            quick: bool = False) -> Figure5Result:
    """Figure 5: Mono JIT vectorization impact normalized to native.

    impact = (A/C) / (E/F) where A/C are Mono scalar/vector bytecode
    executions and E/F native scalar/vector (Figure 4 letters); higher is
    better, 1.0 means the JIT extracts exactly the native speedup.

    ``jobs`` fans the (kernel x flow) cells out over worker processes;
    results (and therefore the rendered figure) are byte-identical for any
    job count.  ``quick`` reverts to the historical small problem sizes.
    """
    if runner is None and jobs <= 1:
        runner = _runner()
    kernels = all_kernels()
    flows = ("split_scalar_mono", "split_vec_mono",
             "native_scalar", "native_vec")
    sizes = {k.name: _figure5_size(k, size, quick) for k in kernels}
    cycles, timings = _sweep(kernels, flows, target, sizes, jobs, runner)
    out = Figure5Result(target=target, cell_seconds=timings)
    impacts = []
    poly_impacts = []
    for kernel in kernels:
        a = cycles[(kernel.name, "split_scalar_mono")]
        c = cycles[(kernel.name, "split_vec_mono")]
        e = cycles[(kernel.name, "native_scalar")]
        f = cycles[(kernel.name, "native_vec")]
        impact = (a / c) / (e / f)
        if kernel.category == "polybench":
            poly_impacts.append(impact)
        else:
            out.rows.append((kernel.name, impact))
            impacts.append(impact)
    out.polybench_avg = statistics.fmean(poly_impacts)
    out.rows.append(("polybench_avg", out.polybench_avg))
    out.arith_mean = statistics.fmean(impacts + [out.polybench_avg])
    return out


def figure6(target: str = "sse", size: int | None = None,
            runner: FlowRunner | None = None,
            jobs: int = 1) -> Figure6Result:
    """Figure 6: split-vectorized execution time normalized to native
    (D/F, lower is better).  ``jobs`` parallelizes the sweep across
    processes with byte-identical results."""
    if runner is None and jobs <= 1:
        runner = _runner()
    kernels = all_kernels()
    flows = ("split_vec_gcc4cli", "native_vec")
    sizes = {k.name: size for k in kernels}
    cycles, timings = _sweep(kernels, flows, target, sizes, jobs, runner)
    out = Figure6Result(target=target, cell_seconds=timings)
    ratios = []
    for kernel in kernels:
        d = cycles[(kernel.name, "split_vec_gcc4cli")]
        f = cycles[(kernel.name, "native_vec")]
        ratio = d / f
        out.rows.append((kernel.name, ratio))
        ratios.append(ratio)
    out.harmonic_mean = statistics.harmonic_mean(ratios)
    return out


def table3(size: int | None = None,
           runner: FlowRunner | None = None) -> Table3Result:
    """Table 3: static AVX throughput (cycles/iteration) of the vector loop,
    native vs split, via the IACA-style analyzer."""
    runner = runner or _runner()
    out = Table3Result()
    for name in TABLE3_KERNELS:
        kernel = get_kernel(name)
        inst = kernel.instantiate(size)
        native_ck = NativeBackend().compile(
            runner.native_ir(inst, AVX), AVX
        )
        split_ck = OptimizingJIT().compile(runner.split_ir(inst), AVX)
        native_cycles = analyze_loop_throughput(native_ck.mfunc, AVX).rounded()
        split_cycles = analyze_loop_throughput(split_ck.mfunc, AVX).rounded()
        out.rows.append((name, native_cycles, split_cycles))
    return out


def ablation_alignment(targets=("sse", "altivec"), size: int | None = None):
    """§V-A.b: repeat the Mono experiment with alignment optimizations and
    hints disabled; report the per-kernel degradation factor (paper: 2.5x
    average)."""
    base = _runner()
    nohints = _runner(
        overrides={"enable_alignment_opts": False}
    )
    rows = []
    factors = []
    for target in targets:
        for kernel in all_kernels():
            inst = kernel.instantiate(size)
            with_opts = base.run(inst, "split_vec_mono", target).cycles
            without = nohints.run(inst, "split_vec_mono", target).cycles
            factor = without / with_opts
            rows.append((target, kernel.name, factor))
            factors.append(factor)
    return {"rows": rows, "average_degradation": statistics.fmean(factors)}


def ablation_realign_reuse(target: str = "altivec", size: int | None = None):
    """DESIGN.md ablation: optimized realignment (cross-iteration reuse of
    the last aligned load, Figure 2d) vs naive per-iteration realignment."""
    base = _runner()
    noreuse = _runner(overrides={"enable_realign_reuse": False})
    rows = []
    for kernel in all_kernels("kernel"):
        inst = kernel.instantiate(size)
        with_reuse = base.run(inst, "split_vec_gcc4cli", target).cycles
        without = noreuse.run(inst, "split_vec_gcc4cli", target).cycles
        rows.append((kernel.name, without / with_reuse))
    return {"rows": rows,
            "average": statistics.fmean(r[1] for r in rows)}


def ablation_dependence_hints(size: int | None = None):
    """§III-B.b's alternative dependence policy: version loops with
    loop-carried dependences on ``VF <= distance`` instead of refusing.
    Reports which kernels gain vectorized loops."""
    conservative = _runner()
    hinted = _runner(overrides={"dependence_hints": True})
    rows = []
    for kernel in all_kernels():
        inst = kernel.instantiate(size)
        rep_a = conservative.split_ir(inst).annotations["vect_report"]
        rep_b = hinted.split_ir(inst).annotations["vect_report"]
        vec_a = sum(v.startswith("vectorized") for v in rep_a.values())
        vec_b = sum(v.startswith("vectorized") for v in rep_b.values())
        if vec_a != vec_b:
            rows.append((kernel.name, vec_a, vec_b))
    return {"rows": rows}


def compile_time_stats(targets=("sse", "altivec"), size: int | None = None,
                       repeats: int = 3):
    """§V-A.c: bytecode size increase under vectorization and the
    (proportional) JIT compile-time increase; plus absolute compile times.

    The paper reports ~5x size, 4.85x/5.37x compile time on x86/PowerPC,
    and notes compile time is proportional to bytecode size.
    """
    import time

    from ..jit import MonoJIT

    runner = _runner()
    size_ratios = []
    rows = []
    time_ratio_by_target = {}
    for target_name in targets:
        target = get_target(target_name)
        time_ratios = []
        for kernel in all_kernels():
            inst = kernel.instantiate(size)
            scalar_bytes, vec_bytes = runner.bytecode_sizes(inst)
            scalar_ir = runner.scalar_ir(inst)
            vec_ir = runner.split_ir(inst)
            t_scalar = min(
                _time_compile(MonoJIT(), scalar_ir, target)
                for _ in range(repeats)
            )
            t_vec = min(
                _time_compile(MonoJIT(), vec_ir, target)
                for _ in range(repeats)
            )
            if target_name == targets[0]:
                size_ratios.append(vec_bytes / scalar_bytes)
                rows.append(
                    (kernel.name, scalar_bytes, vec_bytes,
                     vec_bytes / scalar_bytes)
                )
            time_ratios.append(t_vec / t_scalar)
        time_ratio_by_target[target_name] = statistics.fmean(time_ratios)
    return {
        "rows": rows,
        "avg_size_ratio": statistics.fmean(size_ratios),
        "avg_compile_time_ratio": time_ratio_by_target,
    }


def _time_compile(jit, ir, target) -> float:
    import time

    start = time.perf_counter()
    jit.compile(ir, target)
    return time.perf_counter() - start


def scalarization_overhead(size: int | None = None,
                           runner: FlowRunner | None = None):
    """§III-C.d / §V-B: on a target without SIMD, executing the *vectorized*
    bytecode must cost no more than the scalar bytecode (the loop_bound
    collapse).  Returns per-kernel overhead ratios (≈1.0 is the goal)."""
    runner = runner or _runner()
    rows = []
    for kernel in all_kernels():
        inst = kernel.instantiate(size)
        vec = runner.run(inst, "split_vec_gcc4cli", "scalar").cycles
        scal = runner.run(inst, "split_scalar_gcc4cli", "scalar").cycles
        rows.append((kernel.name, vec / scal))
    return {"rows": rows,
            "average": statistics.fmean(r[1] for r in rows)}
