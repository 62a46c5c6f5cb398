"""Fleet load benchmark: the heavy-tail mix against a supervised fleet
that is being SIGKILLed while it serves.

PR 8 put a self-healing supervisor over N gateway replicas
(:mod:`repro.service.supervisor`), and this bench measures what the
replica tier costs — and what a replica *dying* costs — under the same
heavy-tail load shape as ``bench_gateway.py`` (~80% warm hits on a hot
set, ~20% cold distinct shapes).  Two phases over one warm fleet:

* **steady** — the mix through the sharded failover client, no faults:
  the baseline p50/p99 for a fleet serving out of one shared cache;
* **kills** — the same mix while a chaos thread ``kill -9``s one live
  replica per third of the phase (every replica index gets a turn).
  The supervisor respawns each victim; the client rides through with
  shard-aware failover.  The point of the bench is the *delta*: the
  kill-phase p99 prices a replica death end to end (connect failure +
  failover + occasional re-compile), and **zero requests may be lost**
  — every response still ``ok``, every hot request still warm (the
  shared cache survives its writer).

Latency is a client-side stopwatch here, not the obs spine: the
replicas are child processes, so their in-process histograms die with
them — exactly the situation a fleet operator is in, which makes the
client's view the honest one.

Standalone::

    PYTHONPATH=src python benchmarks/bench_fleet.py --out BENCH_fleet.json

or through pytest-benchmark (``pytest benchmarks/bench_fleet.py``).
``--quick`` shrinks the schedule for CI smoke.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import sys
import tempfile
import threading
import time

from bench_gateway import (
    COLD_KERNELS,
    COLD_TARGETS,
    FLOW,
    HOT_FRACTION,
    HOT_SHAPES,
    P99_MIN_REQUESTS,
)

REPLICAS = 3
REQUESTS = 240          # per phase
CLIENTS = 8
KILLS = 3               # per kill phase: one per third, every index once
QUICK_REQUESTS = 48
QUICK_CLIENTS = 4


def _schedule(n_requests: int, seed: int, size_base: int):
    """The deterministic heavy-tail mix (same shape as bench_gateway);
    ``size_base`` offsets the cold sizes so each phase's cold shapes
    are genuinely never-seen cache keys."""
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
            "size": size_base + 2 * i,
        })
    rng.shuffle(reqs)
    return reqs


def _pct(sorted_lat, q: float):
    if not sorted_lat:
        return None
    idx = min(len(sorted_lat) - 1, max(0, round(q * (len(sorted_lat) - 1))))
    return sorted_lat[idx]


def _drive(sup, schedule, n_clients: int, seed: int, on_progress=None):
    """Fan the schedule across sharded failover clients; every request
    is timed client-side.  Returns (elapsed, latencies, tally, errors)."""
    from repro.service.client import GatewayClient

    chunks = [schedule[i::n_clients] for i in range(n_clients)]
    lock = threading.Lock()
    latencies: list = []
    tallies: list = []
    errors: list = []
    done = [0]

    def worker(idx: int, chunk) -> None:
        tally = {"hot": 0, "cold": 0, "hot_warm": 0, "not_ok": [],
                 "failovers": 0, "wire_errors": 0}
        client = GatewayClient(
            sup.slots, retries=8, backoff_base=0.02, backoff_cap=0.4,
            dead_cooldown_s=0.25, seed=seed + idx,
        )
        lats = []
        try:
            for req in chunk:
                t0 = time.perf_counter()
                resp = client.compile_run(
                    req["kernel"], flow=FLOW, target=req["target"],
                    size=req["size"], deadline_s=120.0,
                )
                lats.append(time.perf_counter() - t0)
                tally[req["kind"]] += 1
                if resp.get("status") != "ok":
                    tally["not_ok"].append(
                        (resp.get("status"), resp.get("error"))
                    )
                elif req["kind"] == "hot" and resp.get("from_cache"):
                    tally["hot_warm"] += 1
                with lock:
                    done[0] += 1
                    if on_progress is not None:
                        on_progress(done[0])
        except Exception as exc:  # surfaced, never swallowed
            with lock:
                errors.append(f"client {idx}: {type(exc).__name__}: {exc}")
        finally:
            tally["failovers"] = client.failovers
            tally["wire_errors"] = client.wire_errors
            client.close()
        with lock:
            latencies.extend(lats)
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
    merged = {"hot": 0, "cold": 0, "hot_warm": 0, "not_ok": [],
              "failovers": 0, "wire_errors": 0}
    for t in tallies:
        for k in ("hot", "cold", "hot_warm", "failovers", "wire_errors"):
            merged[k] += t[k]
        merged["not_ok"].extend(t["not_ok"])
    return elapsed, sorted(latencies), merged, errors


def _phase_payload(name, elapsed, lats, tally, kills):
    return {
        "phase": name,
        "requests": len(lats),
        "elapsed_s": round(elapsed, 4),
        "throughput_rps": round(len(lats) / elapsed, 1) if elapsed else None,
        "kills": kills,
        "hot_warm_hits": tally["hot_warm"],
        "hot_served": tally["hot"],
        "failovers": tally["failovers"],
        "wire_errors": tally["wire_errors"],
        "latency_ms": {
            "source": "client-side stopwatch (per request, "
                      "failover + retries included)",
            "p50": round(_pct(lats, 0.50) * 1e3, 3),
            "p90": round(_pct(lats, 0.90) * 1e3, 3),
            "p99": (round(_pct(lats, 0.99) * 1e3, 3)
                    if len(lats) >= P99_MIN_REQUESTS else None),
            "mean": round(sum(lats) / len(lats) * 1e3, 3),
            "max": round(lats[-1] * 1e3, 3),
        },
    }


def measure(n_requests=REQUESTS, n_clients=CLIENTS, seed=0,
            replicas=REPLICAS, kills=KILLS):
    """Two-phase fleet load run; returns the BENCH_fleet.json payload."""
    from repro.service import FleetSupervisor, GatewayClient

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-fleet-")
    sup = FleetSupervisor(
        replicas, cache_dir, workers=4,
        queue_limit=max(64, n_requests),
        probe_interval_s=0.1, probe_timeout_s=2.0,
        restart_backoff_base=0.02, restart_backoff_cap=0.1,
        restart_budget=10 ** 9, spawn_timeout_s=120.0, seed=seed,
    )
    try:
        sup.start()
        # Pre-warm the hot set through the sharded client (not timed).
        warmup = GatewayClient(sup.slots, retries=8, seed=seed)
        for k, t, s in HOT_SHAPES:
            resp = warmup.compile_run(k, flow=FLOW, target=t, size=s,
                                      deadline_s=120.0)
            assert resp["status"] == "ok", resp
        warmup.close()

        # Phase 1: steady state, no faults.
        steady = _schedule(n_requests, seed, size_base=1001)
        s_elapsed, s_lats, s_tally, s_errors = _drive(
            sup, steady, n_clients, seed
        )

        # Phase 2: same mix, one SIGKILL per third of the phase —
        # every replica index gets its turn as the victim.
        killplan = {
            max(1, (i + 1) * n_requests // (kills + 1)): i % replicas
            for i in range(kills)
        }
        killed = []

        def on_progress(n_done: int) -> None:
            victim = killplan.pop(n_done, None)
            if victim is not None:
                pid = sup.kill(victim, signal.SIGKILL)
                killed.append({"after_request": n_done,
                               "replica": victim, "pid": pid})

        kill_sched = _schedule(n_requests, seed + 1, size_base=5001)
        k_elapsed, k_lats, k_tally, k_errors = _drive(
            sup, kill_sched, n_clients, seed + 1, on_progress=on_progress
        )

        # Heal: the fleet must return to full capacity.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and sup.up_count() < replicas:
            time.sleep(0.05)
        ready = sup.ready()
        fleet_stats = sup.stats()
    finally:
        sup.stop()
        shutil.rmtree(cache_dir, ignore_errors=True)

    # Invariants: nothing lost, nothing silently wrong, fleet healed.
    assert not s_errors, s_errors
    assert not k_errors, k_errors
    assert not s_tally["not_ok"], s_tally["not_ok"]
    assert not k_tally["not_ok"], k_tally["not_ok"]
    assert len(s_lats) == n_requests, (len(s_lats), n_requests)
    assert len(k_lats) == n_requests, (len(k_lats), n_requests)
    assert len(killed) >= 1, "kill plan never fired"
    assert ready["ready"] and not ready["degraded"], ready

    return {
        "benchmark": "fleet",
        "flow": FLOW,
        "replicas": replicas,
        "requests_per_phase": n_requests,
        "clients": n_clients,
        "seed": seed,
        "hot_shapes": [list(s) for s in HOT_SHAPES],
        "phases": [
            _phase_payload("steady", s_elapsed, s_lats, s_tally, []),
            _phase_payload("kills", k_elapsed, k_lats, k_tally, killed),
        ],
        "fleet": {
            "restarts": fleet_stats["restarts"],
            "parked": fleet_stats["parked"],
            "ready": ready,
        },
    }


def _print(payload) -> None:
    print(f"fleet load: {payload['replicas']} replicas, "
          f"{payload['requests_per_phase']} requests/phase from "
          f"{payload['clients']} clients")
    for ph in payload["phases"]:
        lat = ph["latency_ms"]
        kills = len(ph["kills"])
        p99 = "n/a" if lat["p99"] is None else f"{lat['p99']:.2f}ms"
        print(f"  {ph['phase']:>7}: {ph['throughput_rps']:.1f} req/s, "
              f"p50={lat['p50']:.2f}ms p99={p99} "
              f"max={lat['max']:.2f}ms "
              f"(kills={kills}, failovers={ph['failovers']}, "
              f"warm {ph['hot_warm_hits']}/{ph['hot_served']})")
    fl = payload["fleet"]
    print(f"  fleet: restarts={fl['restarts']}, parked={fl['parked']}, "
          f"healed={fl['ready']['ready'] and not fl['ready']['degraded']}")


def test_fleet_latency_under_kills(benchmark):
    """pytest-benchmark entry: quick two-phase run, client percentiles."""
    from conftest import once

    payload = once(
        benchmark,
        lambda: measure(QUICK_REQUESTS, QUICK_CLIENTS, seed=0, kills=2),
    )
    print()
    _print(payload)
    steady, kills = payload["phases"]
    benchmark.extra_info["steady_p99_ms"] = steady["latency_ms"]["p99"]
    benchmark.extra_info["kills_p99_ms"] = kills["latency_ms"]["p99"]
    # Hot traffic stays warm through replica deaths (shared cache), the
    # kill phase actually killed, and the fleet healed to full capacity.
    assert steady["hot_warm_hits"] == steady["hot_served"]
    assert kills["hot_warm_hits"] == kills["hot_served"]
    assert len(kills["kills"]) >= 1
    assert payload["fleet"]["ready"]["ready"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_fleet.json")
    parser.add_argument("--quick", action="store_true",
                        help="small schedule (CI smoke)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per phase")
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--replicas", type=int, default=REPLICAS)
    parser.add_argument("--kills", type=int, default=None,
                        help="SIGKILLs during the kill phase")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-p99-ms", type=float, default=None,
                        help="exit non-zero if the kill-phase p99 "
                             "exceeds this or has too few requests "
                             f"(< {P99_MIN_REQUESTS}) to be recorded")
    args = parser.parse_args(argv)

    n_requests = args.requests or (QUICK_REQUESTS if args.quick else REQUESTS)
    n_clients = args.clients or (QUICK_CLIENTS if args.quick else CLIENTS)
    kills = args.kills if args.kills is not None else (
        2 if args.quick else KILLS)
    payload = measure(n_requests, n_clients, seed=args.seed,
                      replicas=args.replicas, kills=kills)
    _print(payload)

    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}")

    p99 = payload["phases"][1]["latency_ms"]["p99"]
    if args.max_p99_ms is None:
        return 0
    if p99 is None:
        print(f"FAIL: no kill-phase p99 to gate: a phase needs at least "
              f"{P99_MIN_REQUESTS} requests", file=sys.stderr)
        return 1
    if p99 > args.max_p99_ms:
        print(f"FAIL: kill-phase p99 {p99:.2f}ms > {args.max_p99_ms:.2f}ms",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
