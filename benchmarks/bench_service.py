"""JIT service benchmark: warm vs cold compile latency, requests/sec.

The resilience PR's service thesis is that the crash-safe kernel cache
converts the online JIT's per-request compile cost into a one-time cost
per (bytecode, target, compiler) key: a *cold* request pays frontend +
vectorizer + JIT + cache put, a *warm* request pays a cache read whose
bytes are compared with the cache's hot tier (the first warm hit of an
entry in a process also pays the checksum verify, the unpickle and the
translation).  This bench measures both paths through the public
:class:`repro.service.KernelService` API — a second service instance over
the same cache directory, whose untimed first request per kernel pays
that cross-process unpack — plus the sustained batch throughput of the
multi-threaded request path.

Standalone::

    PYTHONPATH=src python benchmarks/bench_service.py --out BENCH_service.json

or through pytest-benchmark (``pytest benchmarks/bench_service.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import time

BENCH_KERNELS = (
    "saxpy_fp", "dscal_fp", "interp_fp", "sfir_fp",
    "dissolve_fp", "sfir_s16",
)
QUICK_KERNELS = ("saxpy_fp", "dscal_fp")

FLOW = "split_vec_gcc4cli"
TARGET = "sse"
SIZE = 64


def _best_of(repeats, fn):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure(kernel_names=BENCH_KERNELS, repeats=3, batch=64):
    """Time cold vs warm service requests; returns the payload dict."""
    from repro.service import KernelService, ServiceRequest

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-service-")
    rows = []
    try:
        # -- cold: empty cache, each request compiles and puts ------------
        cold_svc = KernelService(cache_dir=cache_dir)
        cold_s = {}
        try:
            for name in kernel_names:
                req = ServiceRequest(name, flow=FLOW, target=TARGET,
                                     size=SIZE)
                start = time.perf_counter()
                resp = cold_svc.handle(req)
                cold_s[name] = time.perf_counter() - start
                assert resp.ok and not resp.from_cache, resp.status
        finally:
            cold_svc.close()

        # -- warm: a *fresh* service over the same directory --------------
        # (queue sized to the batch: this measures throughput, not the
        # admission controller — bench_service is not a load test)
        warm_svc = KernelService(cache_dir=cache_dir,
                                 queue_limit=max(32, batch))
        try:
            for name in kernel_names:
                req = ServiceRequest(name, flow=FLOW, target=TARGET,
                                     size=SIZE)
                first = warm_svc.handle(req)
                assert first.ok and first.from_cache, (
                    f"{name}: expected a warm hit, got "
                    f"{first.status}/from_cache={first.from_cache}"
                )
                warm = _best_of(
                    repeats, lambda r=req: warm_svc.handle(r)
                )
                rows.append({
                    "kernel": name,
                    "flow": FLOW,
                    "target": TARGET,
                    "cold_ms": round(cold_s[name] * 1e3, 3),
                    "warm_ms": round(warm * 1e3, 3),
                    "speedup": round(cold_s[name] / warm, 2),
                })

            # -- throughput: a mixed warm batch through the pool ----------
            reqs = [
                ServiceRequest(
                    kernel_names[i % len(kernel_names)],
                    flow=FLOW, target=TARGET, size=SIZE,
                )
                for i in range(batch)
            ]
            start = time.perf_counter()
            responses = warm_svc.serve(reqs)
            elapsed = time.perf_counter() - start
            assert all(r.ok for r in responses)
            rps = len(responses) / elapsed
            stats = warm_svc.stats()
        finally:
            warm_svc.close()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    geomean = math.exp(
        sum(math.log(r["speedup"]) for r in rows) / len(rows)
    )
    return {
        "benchmark": "service",
        "flow": FLOW,
        "target": TARGET,
        "rows": rows,
        "cold_ms_total": round(sum(r["cold_ms"] for r in rows), 3),
        "warm_ms_total": round(sum(r["warm_ms"] for r in rows), 3),
        "geomean_warm_speedup": round(geomean, 2),
        "batch_requests": batch,
        "batch_seconds": round(elapsed, 4),
        "requests_per_second": round(rps, 1),
        "cache_hit_ratio": round(stats["cache"]["hit_ratio"], 3),
    }


def _print(payload) -> None:
    for r in payload["rows"]:
        print(f"{r['kernel']:14s} cold {r['cold_ms']:>8.2f}ms  "
              f"warm {r['warm_ms']:>7.2f}ms  {r['speedup']:.2f}x")
    print(f"geomean warm speedup: {payload['geomean_warm_speedup']:.2f}x")
    print(f"throughput: {payload['batch_requests']} requests in "
          f"{payload['batch_seconds']:.3f}s = "
          f"{payload['requests_per_second']:.0f} req/s "
          f"(hit ratio {payload['cache_hit_ratio']:.2f})")


def test_service_latency(benchmark):
    """pytest-benchmark entry: regenerate the warm/cold latency table."""
    from conftest import once

    payload = once(benchmark, lambda: measure(QUICK_KERNELS, repeats=2,
                                              batch=16))
    print()
    _print(payload)
    benchmark.extra_info["geomean_warm_speedup"] = payload[
        "geomean_warm_speedup"
    ]
    # The cache must actually pay: a warm request skips the vectorizer
    # and the JIT, so it cannot plausibly be slower than a cold compile.
    assert payload["geomean_warm_speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--quick", action="store_true",
                        help="two kernels, small batch (CI smoke)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if geomean warm speedup is "
                        "below this")
    args = parser.parse_args(argv)

    kernels = QUICK_KERNELS if args.quick else BENCH_KERNELS
    batch = 16 if args.quick else args.batch
    payload = measure(kernels, repeats=args.repeats, batch=batch)
    _print(payload)

    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")

    if (
        args.min_speedup is not None
        and payload["geomean_warm_speedup"] < args.min_speedup
    ):
        print(f"FAIL: geomean warm speedup "
              f"{payload['geomean_warm_speedup']:.2f}x < "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
