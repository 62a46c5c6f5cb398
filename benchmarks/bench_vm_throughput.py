"""VM engine throughput: reference interpreter vs codegen.

Measures wall-clock and instructions/second for the same compiled kernels
under the decode-per-instruction reference interpreter
(:class:`repro.machine.VM`) and the source-generating codegen engine
(:mod:`repro.machine.codegen`).  The two are differential-tested to be
bit-identical (``tests/test_engine_parity.py``), so this file measures the
*only* way they are allowed to differ: host-machine speed.

Standalone::

    PYTHONPATH=src python benchmarks/bench_vm_throughput.py --out BENCH_vm.json

or through pytest-benchmark (``pytest benchmarks/bench_vm_throughput.py``).
The JSON payload records per-kernel seconds, instructions/second for each
engine, codegen's one-time translation cost, and the geometric-mean
speedups, over all rows and per target.  Every kernel runs on SSE, which
has scaled addressing, and on NEON, which computes addresses with shifts:
codegen batches a loop only when it can follow its addresses, so an
SSE-only table would hide a target where it cannot.

Those rows run long trips.  A ``short_trips`` block times the five
shapes of e2ebench's warm_hot workload at n=64, whose vector loops run
16 (SSE) to 64 (NEON) iterations, near codegen's batch gate
(``_MIN_BATCH``): each row gives codegen against the reference and the
plan batches of one run.
The block stays out of the per-target geomeans that ``--min-speedup``
gates.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

#: loop-heavy fp kernels (the Table 3 subset): the steady-state dispatch
#: cost dominates, which is what an engine benchmark should measure.
BENCH_KERNELS = (
    "dissolve_fp", "sfir_fp", "interp_fp", "MMM_fp",
    "saxpy_fp", "dscal_fp", "saxpy_dp", "dscal_dp",
)
#: the quick set (CI's smoke run and its per-target speedup gate): a
#: streaming loop, a reduction and the blocked MMM, whose short inner
#: loops batch on NEON but leave too few iterations to batch on SSE.
QUICK_KERNELS = ("saxpy_fp", "sfir_fp", "MMM_fp")

FLOW = "split_vec_gcc4cli"
TARGETS = ("sse", "neon")

#: e2ebench warm_hot's shapes (``e2ebench/workloads.py``): short trips.
SHORT_TRIP_SHAPES = (
    ("saxpy_fp", "sse", 64),
    ("dscal_fp", "sse", 64),
    ("dissolve_fp", "neon", 64),
    ("mix_streams_s16", "neon", 64),
    ("sfir_fp", "neon", 64),
)
#: a short-trip run takes tens of microseconds, so its best-of needs more
#: samples than a long trip's.
SHORT_TRIP_REPEATS = 25

#: engine throughput needs steady-state dispatch to dominate per-run setup,
#: so the O(n) kernels run at 16x their default problem size (a few
#: milliseconds each); MMM is O(n^3) and already long at its default.
BENCH_SIZE_SCALE = 16


def _bench_size(kernel, size):
    if size is not None:
        return size
    if kernel.name.startswith("MMM"):
        return None
    return kernel.default_size * BENCH_SIZE_SCALE


def _best_of_interleaved(repeats, *fns, setup=None):
    """Best-of-``repeats`` for competing functions, sampled in alternation
    so host contention (this is often a noisy shared box) hits every
    engine alike rather than whichever ran last.  With ``setup``, each
    sample calls ``fn(setup())`` and times only ``fn``."""
    best = [math.inf] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            args = () if setup is None else (setup(),)
            start = time.perf_counter()
            fn(*args)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def measure(kernel_names=BENCH_KERNELS, size=None, repeats=3):
    """Time both engines over ``kernel_names`` on every target of
    :data:`TARGETS`; returns the payload dict."""
    from repro.harness.flows import FlowRunner
    from repro.kernels import get_kernel
    from repro.machine import VM
    from repro.targets import get_target

    runner = FlowRunner()
    rows = []
    for target_name in TARGETS:
        target = get_target(target_name)
        for name in kernel_names:
            kernel = get_kernel(name)
            inst = kernel.instantiate(_bench_size(kernel, size))
            ck = runner.compiled(inst, FLOW, target)

            # translation is one-time; report it but keep it out of the
            # steady-state timing (CompiledKernel caches it, like a sweep
            # does)
            t_cg_start = time.perf_counter()
            cg = ck.translated("codegen")
            t_cg_translate = time.perf_counter() - t_cg_start

            probe = cg.run(inst.scalar_args, runner.make_buffers(inst))
            instructions = probe.instructions
            # warm the reference path too
            VM(target).run(
                ck.mfunc, inst.scalar_args, runner.make_buffers(inst)
            )

            t_ref, t_cg = _best_of_interleaved(
                repeats,
                lambda: VM(target).run(
                    ck.mfunc, inst.scalar_args, runner.make_buffers(inst)
                ),
                lambda: cg.run(inst.scalar_args, runner.make_buffers(inst)),
            )
            rows.append({
                "kernel": name,
                "flow": FLOW,
                "target": target_name,
                "instructions": instructions,
                "reference_seconds": round(t_ref, 6),
                "codegen_seconds": round(t_cg, 6),
                "codegen_translate_seconds": round(t_cg_translate, 6),
                "reference_ips": round(instructions / t_ref),
                "codegen_ips": round(instructions / t_cg),
                "codegen_speedup": round(t_ref / t_cg, 2),
            })

    short_rows = _short_trips(runner)
    total_instr = sum(r["instructions"] for r in rows)
    total_ref = sum(r["reference_seconds"] for r in rows)
    total_cg = sum(r["codegen_seconds"] for r in rows)

    return {
        "benchmark": "vm_throughput",
        "engines": ["reference", "codegen"],
        "rows": rows,
        "total_instructions": total_instr,
        "aggregate_reference_ips": round(total_instr / total_ref),
        "aggregate_codegen_ips": round(total_instr / total_cg),
        "aggregate_codegen_speedup": round(total_ref / total_cg, 2),
        "geomean_codegen_speedup": _geomean(rows, "codegen_speedup"),
        # the CI gate reads these: codegen must hold on every target.
        "per_target": {
            t: {
                "codegen_speedup": _geomean(
                    [r for r in rows if r["target"] == t], "codegen_speedup"
                )
            }
            for t in TARGETS
        },
        "short_trips": {
            "shapes": "e2ebench warm_hot (n=64); outside the per-target "
                      "geomeans",
            "rows": short_rows,
            "geomean_codegen_speedup": _geomean(short_rows,
                                                "codegen_speedup"),
        },
    }


def _short_trips(runner):
    """One row per :data:`SHORT_TRIP_SHAPES` shape: both engines' best
    run (buffers made outside the timer) and codegen's plan batches in
    one run."""
    from repro.kernels import get_kernel
    from repro.machine import VM
    from repro.targets import get_target

    rows = []
    for name, target_name, size in SHORT_TRIP_SHAPES:
        target = get_target(target_name)
        inst = get_kernel(name).instantiate(size)
        ck = runner.compiled(inst, FLOW, target)
        cg = ck.translated("codegen")
        before = sum(p.batches for p in cg.plans)
        probe = cg.run(inst.scalar_args, runner.make_buffers(inst))
        batches = sum(p.batches for p in cg.plans) - before
        t_ref, t_cg = _best_of_interleaved(
            SHORT_TRIP_REPEATS,
            lambda bufs: VM(target).run(ck.mfunc, inst.scalar_args, bufs),
            lambda bufs: cg.run(inst.scalar_args, bufs),
            setup=lambda: runner.make_buffers(inst),
        )
        rows.append({
            "kernel": name,
            "target": target_name,
            "size": size,
            "instructions": probe.instructions,
            "reference_seconds": round(t_ref, 6),
            "codegen_seconds": round(t_cg, 6),
            "codegen_speedup": round(t_ref / t_cg, 2),
            "plan_batches_per_run": batches,
        })
    return rows


def _geomean(rows, key):
    return round(
        math.exp(sum(math.log(r[key]) for r in rows) / len(rows)), 2
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_vm.json")
    parser.add_argument("--quick", action="store_true",
                        help="three kernels per target, two repeats (CI "
                        "smoke)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if any target's geomean "
                        "codegen speedup over the reference interpreter "
                        "is below this")
    args = parser.parse_args(argv)

    kernels = QUICK_KERNELS if args.quick else BENCH_KERNELS
    repeats = 2 if args.quick else args.repeats
    payload = measure(kernels, size=args.size, repeats=repeats)

    for r in payload["rows"]:
        print(f"{r['target']:7s} {r['kernel']:14s} "
              f"{r['instructions']:>9d} instr  "
              f"ref {r['reference_ips']:>9,d} i/s  "
              f"codegen {r['codegen_ips']:>11,d} i/s "
              f"({r['codegen_speedup']:.2f}x ref)")
    print(f"aggregate: ref {payload['aggregate_reference_ips']:,} i/s, "
          f"codegen {payload['aggregate_codegen_ips']:,} i/s "
          f"(geomean {payload['geomean_codegen_speedup']:.2f}x ref)")
    for t, g in payload["per_target"].items():
        print(f"{t}: geomean codegen {g['codegen_speedup']:.2f}x ref")
    short = payload["short_trips"]
    for r in short["rows"]:
        print(f"short   {r['kernel']:15s} {r['target']:5s} n={r['size']}  "
              f"ref {r['reference_seconds'] * 1e3:7.3f} ms  "
              f"codegen {r['codegen_seconds'] * 1e3:7.3f} ms "
              f"({r['codegen_speedup']:.2f}x ref, "
              f"{r['plan_batches_per_run']} batch(es)/run)")
    print(f"short trips: geomean codegen "
          f"{short['geomean_codegen_speedup']:.2f}x ref (not gated)")

    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")

    if args.min_speedup:
        for t, g in payload["per_target"].items():
            if g["codegen_speedup"] < args.min_speedup:
                print(f"FAIL: {t} geomean codegen speedup "
                      f"{g['codegen_speedup']} < {args.min_speedup}",
                      file=sys.stderr)
                return 1
    return 0


def test_vm_throughput(benchmark):
    """pytest-benchmark entry: one timed pass over the quick kernel set."""
    from conftest import once

    payload = once(benchmark, lambda: measure(QUICK_KERNELS, repeats=2))
    benchmark.extra_info["codegen_ips"] = payload["aggregate_codegen_ips"]
    benchmark.extra_info["geomean_codegen_speedup"] = (
        payload["geomean_codegen_speedup"]
    )
    # The translating engine's reason to exist: a healthy multiple over
    # the reference interpreter on every target (a conservative floor to
    # absorb CI noise).
    for g in payload["per_target"].values():
        assert g["codegen_speedup"] >= 6.0


if __name__ == "__main__":
    raise SystemExit(main())
