"""Gateway load benchmark: a heavy-tail mix through the network front door.

PR 7 put a real wire in front of :class:`repro.service.KernelService`
(:mod:`repro.service.gateway`), and this bench measures what that wire
costs under the load shape the paper's deployment story implies: a
**heavy-tail mix** where most requests are warm cache hits on a few hot
kernels and a steady trickle are cold compiles on distinct shapes.  The
cold tail is what makes tail latency interesting — a p99 read off a
warm-only run would be flattery, not measurement.

The driver:

* pre-warms a small hot set, then drives ``--requests`` total requests
  from ``--clients`` threads, each holding its own
  :class:`~repro.service.client.GatewayClient` over a persistent
  connection.  ~80% of requests hit the hot set (warm, served from
  cache), ~20% are cold distinct shapes (unique ``(kernel, target,
  size)`` never seen before), interleaved by a seeded shuffle so every
  run replays the same schedule.
* reads **p50/p99 from the observability spine, not a client-side
  stopwatch**: the gateway records every served request into the
  ``gateway.request_seconds`` histogram (the fine ``LATENCY_BUCKETS``
  exported by :mod:`repro.service.gateway`), and the percentiles here
  are linear interpolation within the straddling bucket — exactly what
  a dashboard would compute from the same counts.
* is honest about its own invariants: every response must be ``ok``,
  hot requests must actually be warm (``from_cache``), the gateway must
  report zero frame errors, and the served count must equal the offered
  count (no silent sheds at the default ``max_inflight``).

Standalone::

    PYTHONPATH=src python benchmarks/bench_gateway.py --out BENCH_gateway.json

or through pytest-benchmark (``pytest benchmarks/bench_gateway.py``).
``--quick`` shrinks the schedule for CI smoke.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import threading
import time

#: the hot set: 80% of traffic lands on these warm shapes.
HOT_SHAPES = (
    ("saxpy_fp", "sse", 64),
    ("dscal_fp", "sse", 64),
    ("saxpy_fp", "neon", 64),
)
#: cold requests cycle kernels/targets with a distinct size per request,
#: so every cold request is a genuinely new cache key.
COLD_KERNELS = ("interp_fp", "sfir_fp", "dissolve_fp")
COLD_TARGETS = ("sse", "neon")
FLOW = "split_vec_gcc4cli"
HOT_FRACTION = 0.8

REQUESTS = 400
CLIENTS = 8
QUICK_REQUESTS = 60
QUICK_CLIENTS = 4


def _schedule(n_requests: int, seed: int):
    """The deterministic request schedule: ~80% hot, ~20% cold distinct.

    Cold shapes get sizes no warm shape uses (odd sizes starting at 17),
    each one unique, so a cold request can never be accidentally warm.
    """
    n_cold = max(1, round(n_requests * (1.0 - HOT_FRACTION)))
    n_hot = n_requests - n_cold
    rng = random.Random(seed)
    reqs = []
    for i in range(n_hot):
        k, t, s = HOT_SHAPES[i % len(HOT_SHAPES)]
        reqs.append({"kind": "hot", "kernel": k, "target": t, "size": s})
    for i in range(n_cold):
        reqs.append({
            "kind": "cold",
            "kernel": COLD_KERNELS[i % len(COLD_KERNELS)],
            "target": COLD_TARGETS[i % len(COLD_TARGETS)],
            "size": 17 + 2 * i,
        })
    rng.shuffle(reqs)
    return reqs


def percentile_from_histogram(hist: dict, q: float):
    """``q``-th percentile (0..1) from a bucketed histogram snapshot.

    ``counts[i]`` counts observations ``<= bounds[i]`` (final slot is
    the +Inf overflow).  Linear interpolation inside the straddling
    bucket; the overflow bucket interpolates toward the recorded max.
    This is the same estimate a metrics backend computes from the same
    counts — the point of reading latency off the spine instead of a
    private stopwatch.
    """
    total = hist["count"]
    if not total:
        return None
    bounds, counts = hist["bounds"], hist["counts"]
    observed_max = hist["max"]
    target = q * total
    cum = 0.0
    lo = 0.0
    for i, c in enumerate(counts):
        if c and cum + c >= target:
            if i < len(bounds):
                hi = bounds[i]
            else:  # overflow bucket: cap at the observed max
                hi = observed_max if observed_max is not None else lo
            est = lo + (target - cum) / c * (max(hi, lo) - lo)
            # Interpolation can overshoot the true tail inside a sparse
            # bucket; the recorded max is a hard ceiling.
            return min(est, observed_max) if observed_max is not None else est
        cum += c
        if i < len(bounds):
            lo = bounds[i]
    return observed_max


def _drive(address, schedule, n_clients: int, seed: int):
    """Fan the schedule across ``n_clients`` persistent-connection
    clients; returns (elapsed_s, per-kind response tallies, errors)."""
    from repro.service.client import GatewayClient

    chunks = [schedule[i::n_clients] for i in range(n_clients)]
    tallies = []
    errors = []
    lock = threading.Lock()

    def worker(idx: int, chunk) -> None:
        tally = {"hot": 0, "cold": 0, "hot_warm": 0, "not_ok": []}
        client = GatewayClient(
            [address], retries=2, backoff_base=0.005, backoff_cap=0.1,
            seed=seed + idx,
        )
        try:
            for req in chunk:
                resp = client.compile_run(
                    req["kernel"], flow=FLOW, target=req["target"],
                    size=req["size"],
                )
                tally[req["kind"]] += 1
                if resp.get("status") != "ok":
                    tally["not_ok"].append(
                        (resp.get("status"), resp.get("error"))
                    )
                elif req["kind"] == "hot" and resp.get("from_cache"):
                    tally["hot_warm"] += 1
        except Exception as exc:  # surfaced, never swallowed
            with lock:
                errors.append(f"client {idx}: {type(exc).__name__}: {exc}")
        finally:
            client.close()
        with lock:
            tallies.append(tally)

    threads = [
        threading.Thread(target=worker, args=(i, chunk), daemon=True)
        for i, chunk in enumerate(chunks) if chunk
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    merged = {"hot": 0, "cold": 0, "hot_warm": 0, "not_ok": []}
    for t in tallies:
        merged["hot"] += t["hot"]
        merged["cold"] += t["cold"]
        merged["hot_warm"] += t["hot_warm"]
        merged["not_ok"].extend(t["not_ok"])
    return elapsed, merged, errors


def measure(n_requests=REQUESTS, n_clients=CLIENTS, seed=0,
            trace_out=None):
    """One full load run; returns the BENCH_gateway.json payload."""
    from repro import obs
    from repro.service import KernelService, ThreadedGateway
    from repro.service.client import GatewayClient

    schedule = _schedule(n_requests, seed)
    n_hot = sum(1 for r in schedule if r["kind"] == "hot")
    n_cold = len(schedule) - n_hot

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-gw-")
    try:
        with obs.recording(trace=trace_out is not None, metrics=True) as ob:
            svc = KernelService(
                cache_dir=cache_dir, workers=max(8, n_clients),
                farm_workers=0, queue_limit=max(64, n_requests),
            )
            gw = ThreadedGateway(
                svc, max_inflight=max(64, 2 * n_clients),
                handler_threads=max(8, n_clients),
            )
            try:
                address = "%s:%d" % gw.address
                # Pre-warm the hot set through the wire (not counted).
                warmup = GatewayClient([address], seed=seed)
                for k, t, s in HOT_SHAPES:
                    resp = warmup.compile_run(k, flow=FLOW, target=t, size=s)
                    assert resp["status"] == "ok", resp
                warmup.close()
                warm_hist = ob.metrics_snapshot().get(
                    "gateway.request_seconds", {"count": 0}
                )
                warm_served = warm_hist["count"]

                elapsed, tally, errors = _drive(
                    address, schedule, n_clients, seed
                )
                gw_stats = gw.stats()
            finally:
                gw.close()
                svc.close()
            hist = ob.metrics_snapshot()["gateway.request_seconds"]
            if trace_out is not None:
                ob.write_trace(trace_out)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # Subtract the warmup requests so percentiles cover the load run
    # only where possible; counts are cumulative, so report both.
    load_count = hist["count"] - warm_served
    assert not errors, errors
    assert not tally["not_ok"], tally["not_ok"]
    assert load_count == n_requests, (load_count, n_requests)
    assert gw_stats["frame_errors"] == 0, gw_stats
    assert gw_stats["rejected_overload"] == 0, gw_stats

    return {
        "benchmark": "gateway",
        "flow": FLOW,
        "requests": n_requests,
        "clients": n_clients,
        "seed": seed,
        "hot": {
            "offered": n_hot,
            "served": tally["hot"],
            "warm_hits": tally["hot_warm"],
            "shapes": [list(s) for s in HOT_SHAPES],
        },
        "cold": {"offered": n_cold, "served": tally["cold"]},
        "elapsed_s": round(elapsed, 4),
        "throughput_rps": round(n_requests / elapsed, 1),
        "latency": {
            "source": "gateway.request_seconds histogram "
                      "(bucket interpolation; includes warmup in counts)",
            "count": hist["count"],
            "p50_ms": round(
                percentile_from_histogram(hist, 0.50) * 1e3, 3),
            "p90_ms": round(
                percentile_from_histogram(hist, 0.90) * 1e3, 3),
            "p99_ms": round(
                percentile_from_histogram(hist, 0.99) * 1e3, 3),
            "mean_ms": round(hist["sum"] / hist["count"] * 1e3, 3),
            "max_ms": round(hist["max"] * 1e3, 3),
        },
        "gateway": {
            "served": gw_stats["served"],
            "peak_inflight": gw_stats["peak_inflight"],
            "max_inflight": gw_stats["max_inflight"],
            "rejected_overload": gw_stats["rejected_overload"],
            "rejected_drain": gw_stats["rejected_drain"],
            "frame_errors": gw_stats["frame_errors"],
            "conn_resets": gw_stats["conn_resets"],
            "connections": gw_stats["connections"],
        },
    }


def _print(payload) -> None:
    lat = payload["latency"]
    hot, cold = payload["hot"], payload["cold"]
    print(f"gateway load: {payload['requests']} requests "
          f"({hot['offered']} hot / {cold['offered']} cold) from "
          f"{payload['clients']} clients -> "
          f"{payload['throughput_rps']:.1f} req/s")
    print(f"  hot warm hits: {hot['warm_hits']}/{hot['served']}")
    print(f"  latency (from gateway.request_seconds): "
          f"p50={lat['p50_ms']:.2f}ms p90={lat['p90_ms']:.2f}ms "
          f"p99={lat['p99_ms']:.2f}ms max={lat['max_ms']:.2f}ms")
    gw = payload["gateway"]
    print(f"  gateway: peak_inflight={gw['peak_inflight']}/"
          f"{gw['max_inflight']}, frame_errors={gw['frame_errors']}, "
          f"sheds={gw['rejected_overload']}")


def test_gateway_latency(benchmark):
    """pytest-benchmark entry: quick heavy-tail run, spine percentiles."""
    from conftest import once

    payload = once(
        benchmark,
        lambda: measure(QUICK_REQUESTS, QUICK_CLIENTS, seed=0),
    )
    print()
    _print(payload)
    benchmark.extra_info["p99_ms"] = payload["latency"]["p99_ms"]
    # Every hot request after pre-warm must actually be warm, the tail
    # must be ordered (p50 <= p99), and the wire must stay clean.
    assert payload["hot"]["warm_hits"] == payload["hot"]["served"]
    assert payload["latency"]["p50_ms"] <= payload["latency"]["p99_ms"]
    assert payload["gateway"]["frame_errors"] == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_gateway.json")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="also write the gateway trace (JSONL spans)")
    parser.add_argument("--quick", action="store_true",
                        help="small schedule (CI smoke)")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-p99-ms", type=float, default=None,
                        help="exit non-zero if p99 exceeds this")
    args = parser.parse_args(argv)

    n_requests = args.requests or (QUICK_REQUESTS if args.quick else REQUESTS)
    n_clients = args.clients or (QUICK_CLIENTS if args.quick else CLIENTS)
    payload = measure(n_requests, n_clients, seed=args.seed,
                      trace_out=args.trace_out)
    _print(payload)

    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")
    if args.trace_out:
        print(f"wrote {args.trace_out}")

    p99 = payload["latency"]["p99_ms"]
    if args.max_p99_ms is not None and p99 > args.max_p99_ms:
        print(f"FAIL: p99 {p99:.2f}ms > {args.max_p99_ms:.2f}ms",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
