"""Observability overhead: the <5% disabled-mode budget, measured.

The spine's first design constraint (``docs/observability.md`` §5) is
that tracing and metrics cost *near nothing when off*: with no recorder
installed, :func:`repro.obs.span` is one global ``None`` check returning
the shared ``NULL_SPAN``, and each metric feed is one ``None`` check.
``repro.api.execute_phase`` is the single instrumented VM call site —
the engines themselves stay raw — so the overhead is measurable as the
ratio between the instrumented call and the raw engine call on the same
workload.

This file measures exactly that, on the engine the service runs (the
registry's ``DEFAULT_ENGINE``, named ``ENGINE`` below), with the same
interleaved best-of-N protocol as ``bench_vm_throughput.py``
(alternating samples so host contention hits both paths alike):

* **raw** — ``ck.translated(ENGINE).run(...)``: the uninstrumented
  engine.
* **disabled** — ``api.execute_phase(...)`` with no recorder installed:
  the NULL_SPAN path.  Budgeted **<5%** over raw; CI runs ``--quick
  --max-disabled-overhead 5`` and fails the build on a breach.
* **enabled** — the same call under ``obs.recording()``: a real span
  plus three counter feeds per run.  Reported for reference only; a
  requested trace is allowed to cost more.

Standalone::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --out BENCH_obs.json

or through pytest-benchmark (``pytest benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

#: same quick subset as the VM-throughput bench: one O(n) kernel at a
#: scaled size plus the O(n^3) MMM, so per-run dispatch dominates and a
#: per-call overhead (what this file measures) shows up as a ratio.
BENCH_KERNELS = ("saxpy_fp", "dissolve_fp", "sfir_fp", "MMM_fp")
QUICK_KERNELS = ("saxpy_fp", "MMM_fp")

FLOW = "split_vec_gcc4cli"
TARGET = "sse"
SIZE_SCALE = 16  # match bench_vm_throughput: steady state over setup


def _bench_size(kernel, size):
    if size is not None:
        return size
    if kernel.name.startswith("MMM"):
        return None
    return kernel.default_size * SIZE_SCALE


def _best_of_interleaved(repeats, *fns):
    """Best-of-``repeats`` for competing callables, sampled in
    alternation (same protocol as ``bench_vm_throughput.py``)."""
    best = [math.inf] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def measure(kernel_names=BENCH_KERNELS, size=None, repeats=5):
    """Time raw vs disabled vs enabled; returns the payload dict."""
    from repro import obs
    from repro.api import execute_phase
    from repro.harness.flows import FlowRunner
    from repro.kernels import get_kernel
    from repro.machine.registry import DEFAULT_ENGINE as ENGINE
    from repro.targets import get_target

    # The disabled-path numbers are only honest with nothing installed.
    assert obs.trace.active_tracer() is None, "recorder already installed"

    runner = FlowRunner()
    target = get_target(TARGET)
    rows = []
    for name in kernel_names:
        kernel = get_kernel(name)
        inst = kernel.instantiate(_bench_size(kernel, size))
        ck = runner.compiled(inst, FLOW, target)
        code = ck.translated(ENGINE)  # once, outside the timing

        def raw():
            return code.run(inst.scalar_args, runner.make_buffers(inst))

        def disabled():
            return execute_phase(ck, inst.scalar_args,
                                 runner.make_buffers(inst), engine=ENGINE)

        def enabled():
            with obs.recording():
                return execute_phase(ck, inst.scalar_args,
                                     runner.make_buffers(inst), engine=ENGINE)

        probe = raw()  # warm both the engine and the buffers path
        t_raw, t_dis, t_en = _best_of_interleaved(
            repeats, raw, disabled, enabled)
        rows.append({
            "kernel": name,
            "flow": FLOW,
            "target": TARGET,
            "instructions": probe.instructions,
            "raw_seconds": round(t_raw, 6),
            "disabled_seconds": round(t_dis, 6),
            "enabled_seconds": round(t_en, 6),
            "disabled_overhead_pct": round(100.0 * (t_dis / t_raw - 1.0), 2),
            "enabled_overhead_pct": round(100.0 * (t_en / t_raw - 1.0), 2),
        })

    total_raw = sum(r["raw_seconds"] for r in rows)
    total_dis = sum(r["disabled_seconds"] for r in rows)
    total_en = sum(r["enabled_seconds"] for r in rows)
    return {
        "benchmark": "obs_overhead",
        "paths": ["raw", "disabled", "enabled"],
        "engine": ENGINE,
        "rows": rows,
        "aggregate_disabled_overhead_pct": round(
            100.0 * (total_dis / total_raw - 1.0), 2),
        "aggregate_enabled_overhead_pct": round(
            100.0 * (total_en / total_raw - 1.0), 2),
        "budget_disabled_pct": 5.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_obs.json")
    parser.add_argument("--quick", action="store_true",
                        help="two kernels, fewer repeats (CI smoke)")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--max-disabled-overhead", type=float, default=None,
                        help="exit non-zero if the aggregate disabled-mode "
                             "overhead (percent) exceeds this")
    args = parser.parse_args(argv)

    kernels = QUICK_KERNELS if args.quick else BENCH_KERNELS
    repeats = 3 if args.quick else args.repeats
    payload = measure(kernels, size=args.size, repeats=repeats)

    for r in payload["rows"]:
        print(f"{r['kernel']:14s} raw {r['raw_seconds']*1e3:8.3f}ms  "
              f"disabled {r['disabled_overhead_pct']:+6.2f}%  "
              f"enabled {r['enabled_overhead_pct']:+6.2f}%")
    print(f"aggregate: disabled "
          f"{payload['aggregate_disabled_overhead_pct']:+.2f}%  enabled "
          f"{payload['aggregate_enabled_overhead_pct']:+.2f}%  "
          f"(budget: disabled < {payload['budget_disabled_pct']:.0f}%)")

    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")

    if (args.max_disabled_overhead is not None
            and payload["aggregate_disabled_overhead_pct"]
            > args.max_disabled_overhead):
        print(f"FAIL: disabled-mode overhead "
              f"{payload['aggregate_disabled_overhead_pct']}% > "
              f"{args.max_disabled_overhead}%", file=sys.stderr)
        return 1
    return 0


def test_obs_overhead(benchmark):
    """pytest-benchmark entry: one timed pass over the quick kernel set."""
    from conftest import once

    payload = once(benchmark, lambda: measure(QUICK_KERNELS, repeats=3))
    benchmark.extra_info["disabled_overhead_pct"] = (
        payload["aggregate_disabled_overhead_pct"])
    benchmark.extra_info["enabled_overhead_pct"] = (
        payload["aggregate_enabled_overhead_pct"])
    # The spine's contract: near-free when off (generous CI-noise floor;
    # the standalone gate in CI uses the real 5% budget).
    assert payload["aggregate_disabled_overhead_pct"] < 15.0


if __name__ == "__main__":
    raise SystemExit(main())
