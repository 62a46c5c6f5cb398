"""End-to-end request benchmark with a per-layer traced rollup.

One request's whole journey is measured: the benchmark's client sends
``compile`` frames over localhost TCP to a ``repro serve --listen``
process (gateway -> admission -> single-flight -> kernel cache -> JIT
-> engine), which runs the kernel's VaporC source through the offline
stage the first time it sees a kernel instance, and answers with the
run's cycles and value.  Run from the repository root::

    python3 e2ebench/run.py --workload warm_hot --seed 1 --seconds 10 --trace 0

Each workload (``workloads.py``) is a closed loop of one client, run for
``--seconds``.  ``--trace 0`` reports the end-to-end metrics with the
server's tracing off; ``--trace 1`` runs the server with tracing on and
reports the per-layer rollup (``rollup.py``) instead.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``README.md`` in this directory for the metrics and why each
workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from check import Ledger
from rollup import load_spans, rollup
from server import Server
from workloads import FLOW, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 7
#: served shapes re-run on the reference interpreter per run (seeded).
REFERENCE_SAMPLE = 24


def _close(server, client, ledger) -> None:
    if client is not None:
        client.close()
    code = server.stop()
    if code != 0:
        ledger.error(f"server exited with code {code} after SIGTERM")


def pin_client() -> set[int] | None:
    """With two or more processors, keep this process (the client) on
    the first and return the others for the server, so client and server
    never queue for one processor, as on two machines."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return set(cpus[1:])


def set_up(wl, work: Path, trace: bool, ledger, cpus):
    """Start a server on an empty cache, connect the client and warm the
    workload's shapes; returns (server, client, seconds taken)."""
    from repro.service.client import GatewayClient

    start = time.perf_counter()
    server = Server(SRC, work, trace, cpus)
    client = None
    try:
        client = GatewayClient([server.address])
        if not client.ready():
            raise RuntimeError("gateway answered not ready")
        for shape in wl.warm:
            kernel, target, size = shape
            ledger.record(shape, client.compile_run(
                kernel, flow=FLOW, target=target, size=size))
    except BaseException:
        _close(server, client, ledger)
        raise
    return server, client, time.perf_counter() - start


def drive(client, shapes, seconds: float, ledger) -> list:
    """The closed loop for ``seconds``; returns one record per answered
    request: ``(shape, round-trip seconds, response)``.  A request that
    raises is charged to the ledger and ends the loop.

    The benchmark's own garbage collector is off in the loop: the
    records it keeps would otherwise trigger collections that land in
    some requests' round trips.
    """
    records = []
    gc.disable()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            shape = next(shapes)
            kernel, target, size = shape
            t0 = time.perf_counter()
            try:
                resp = client.compile_run(kernel, flow=FLOW, target=target,
                                          size=size)
            except Exception as exc:  # judged by the ledger, never hidden
                ledger.fail(shape, exc)
                break
            records.append((shape, time.perf_counter() - t0, resp))
    finally:
        gc.enable()
    return records


def end_to_end(latencies: list[float]) -> dict:
    """The median and 90th percentile round trip over every request of
    the measured window.

    The whole window, not a chosen part of it: on a virtual machine of a
    shared host the processor's speed falls by up to a factor of two in
    phases of seconds to minutes, from load outside the machine, and a
    phase often covers a whole run, so keeping only the run's quickest
    seconds steadies nothing and costs samples.
    """
    if len(latencies) < 100:
        raise RuntimeError(f"{len(latencies)} requests answered; the 90th "
                           f"percentile needs 100")
    return {
        "p50_ms": statistics.median(latencies) * 1e3,
        "p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(name: str, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    import repro.service.client  # noqa: F401  (imported before any timing)

    wl = WORKLOADS[name]
    ledger = Ledger(FLOW)
    server_cpus = pin_client()
    setup_s: list[float] = []
    server = client = None
    try:
        # Only the last set-up's server is measured; the earlier ones
        # exist to time set-up several times.
        for i in range(1 if trace else SETUPS):
            if server is not None:
                _close(server, client, ledger)
            server, client, took = set_up(wl, work / f"server{i}", trace,
                                          ledger, server_cpus)
            setup_s.append(took)
        before = client.stats()["service"]
        records = drive(client, wl.stream(seed), seconds, ledger)
        after = client.stats()["service"]
    finally:
        if server is not None:
            _close(server, client, ledger)

    for shape, _lat, resp in records:
        ledger.record(shape, resp)
        # Set-up compiled every bytecode the window asks for.
        if resp.get("status") == "ok" and not resp.get("from_cache"):
            ledger.error(f"{shape}: compiled inside the measured window")
    ledger.verify_values()
    shapes = sorted({r[0] for r in records})
    ledger.verify_reference(random.Random(seed).sample(
        shapes, min(REFERENCE_SAMPLE, len(shapes))))

    latencies = [r[1] for r in records]
    if not latencies:
        raise RuntimeError("no request completed in the measured window")
    if trace:
        with open(server.metrics_path) as f:
            server_metrics = json.load(f)
        layers = rollup(load_spans(server.trace_path), server_metrics,
                        skip=len(wl.warm), client_s=latencies)
        # Entries read from the persistent cache: one per measured
        # request until an in-memory tier answers in front of it.
        layers["cache_reads_per_request"] = (
            after["cache"]["hits"] - before["cache"]["hits"]
        ) / len(latencies)
        metrics = {
            k: _metric(v, "ms" if k.endswith("_ms") else "ratio")
            for k, v in layers.items()
        }
    else:
        metrics = {k: _metric(v, "ms")
                   for k, v in end_to_end(latencies).items()}
        metrics["setup_s"] = _metric(statistics.median(setup_s), "s")
    return {
        "summary": (f"e2ebench {name} seed={seed}: {len(latencies)} "
                    f"requests in {seconds:g}s; set-ups "
                    + ", ".join(f"{t:.3f}s" for t in setup_s)),
        "errors": ledger.errors,
        "result": {
            "correct": ledger.correct,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program source under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM unwinds like an error, so the server is stopped on the way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    work = ROOT / ".bench_build" / f"e2ebench-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(out["summary"])
    for name, m in out["result"]["metrics"].items():
        print(f"  {name:24s} {m['value']:12.4f} {m['unit']}")
    for err in out["errors"]:
        print(f"  INCORRECT: {err}", file=sys.stderr)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
