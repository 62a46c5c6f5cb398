"""Command-line interface: ``python -m repro <command>``.

Commands mirror the toolchain's stages:

* ``compile``  — VaporC source -> vectorized bytecode (.vbc), the offline
  stage ("auto-vectorize once").
* ``disasm``   — print the IR of a .vbc container (the Figure 3 view).
* ``jit``      — lower a .vbc for a target and dump machine code + stats
  (the online stage, "run everywhere").
* ``kernels``  — list the built-in benchmark kernels.
* ``run``      — execute a built-in kernel through one of the Figure 4
  flows on a target, with correctness checking.
* ``report``   — regenerate the paper's figures/tables.
* ``verify``   — decode *and* structurally verify a .vbc container,
  reporting the classified rejection (kind + stream offset) on failure.
* ``chaos``    — run a seeded fault-injection campaign across every
  layer and assert the fail-soft invariant (see docs/resilience.md).
* ``serve``    — run the resilient JIT compilation service against a
  seeded synthetic request stream, or — with ``--listen HOST:PORT`` —
  behind the TCP network gateway until SIGTERM, which drains
  gracefully (see docs/service.md).
* ``trace``    — render a JSONL trace (from ``--trace-out``) as a
  phase-attributed span tree with wall-time and VM-cycle rollups.

``compile``, ``run``, ``report``, and ``serve`` accept ``--trace-out
FILE`` and ``--metrics-out FILE`` to record the observability spine
(:mod:`repro.obs`, docs/observability.md) for the invocation.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

__all__ = ["main"]


@contextmanager
def _obs_session(args):
    """Record tracing/metrics around one command when ``--trace-out`` /
    ``--metrics-out`` were given; write the artifacts (atomically) after
    the command returns.  Commands without the flags pay nothing."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        yield None
        return
    from . import obs

    with obs.recording() as ob:
        yield ob
    if trace_out:
        ob.write_trace(trace_out)
        print(f"trace written to {trace_out} "
              f"(render with: repro trace {trace_out})")
    if metrics_out:
        ob.write_metrics(metrics_out)
        print(f"metrics written to {metrics_out}")


def _read_text(path: str) -> str:
    """Read a text input file, with classified CLI-grade failure: missing
    or unreadable inputs are reported on stderr (no traceback) and the
    command exits 2, mirroring argparse's usage-error convention."""
    with open(path, "r") as f:
        return f.read()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _input_error(path: str, exc: OSError) -> int:
    print(f"repro: cannot read {path!r}: {exc.strerror or exc}",
          file=sys.stderr)
    return 2


def _atomic_out(path: str, data: bytes) -> None:
    """Write a CLI artifact crash-safely (tempfile + fsync + rename): an
    interrupted ``repro compile``/``report --out`` must never leave a
    half-written artifact under the final name."""
    from .service.cache import atomic_write

    atomic_write(path, data)


def _cmd_compile(args) -> int:
    from . import obs
    from .api import frontend_phase, smoke_run, vectorize_phase
    from .bytecode import encode_module
    from .vectorizer import split_config

    try:
        source = _read_text(args.source)
    except OSError as exc:
        return _input_error(args.source, exc)
    module = frontend_phase(source)
    if args.scalar_only:
        with obs.span("vectorize", phase="vectorize") as sp:
            sp.set(skipped=True)
        out_module = module
    else:
        cfg = split_config(
            enable_alignment_opts=not args.no_alignment,
            enable_slp=not args.no_slp,
            enable_outer=not args.no_outer,
        )
        out_module = vectorize_phase(module, cfg)
        for fn in out_module:
            report = fn.annotations.get("vect_report", {})
            for loop, verdict in report.items():
                print(f"{fn.name}: {loop}: {verdict}")
    with obs.span("encode", phase="encode") as sp:
        blob = encode_module(out_module)
        sp.set(bytes=len(blob))
    _atomic_out(args.output, blob)
    print(f"wrote {args.output}: {len(blob)} bytes, "
          f"{len(out_module.functions)} function(s)")
    if getattr(args, "trace_out", None) or getattr(args, "metrics_out", None):
        # Compile-only invocations still trace all five phases: each
        # function gets a best-effort JIT + smoke execution on
        # synthesized inputs (failures are recorded on the span, never
        # fatal — the .vbc artifact above is already written).
        for fn in out_module:
            smoke_run(fn, module[fn.name], target=args.smoke_target)
    return 0


def _cmd_trace(args) -> int:
    """Render a JSONL trace as a phase-attributed span tree."""
    from .obs import TraceFormatError, load_trace, render_trace

    try:
        text = _read_text(args.trace)
    except OSError as exc:
        return _input_error(args.trace, exc)
    try:
        records = load_trace(text.splitlines())
    except TraceFormatError as exc:
        print(f"repro: {args.trace}: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"repro: {args.trace}: empty trace", file=sys.stderr)
        return 1
    print(render_trace(records, phase=args.phase))
    return 0


def _cmd_disasm(args) -> int:
    from .bytecode import decode_module
    from .ir import print_function

    try:
        data = _read_bytes(args.bytecode)
    except OSError as exc:
        return _input_error(args.bytecode, exc)
    module = decode_module(data)
    for fn in module:
        if args.function and fn.name != args.function:
            continue
        print(print_function(fn))
        print()
    return 0


def _cmd_jit(args) -> int:
    from .bytecode import decode_module
    from .jit import MonoJIT, OptimizingJIT
    from .targets import get_target

    try:
        data = _read_bytes(args.bytecode)
    except OSError as exc:
        return _input_error(args.bytecode, exc)
    module = decode_module(data)
    target = get_target(args.target)
    jit = MonoJIT() if args.compiler == "mono" else OptimizingJIT()
    for fn in module:
        if args.function and fn.name != args.function:
            continue
        compiled = jit.compile(fn, target)
        print(compiled.mfunc.dump())
        stats = ", ".join(f"{k}={v}" for k, v in sorted(compiled.stats.items()))
        print(f"; target={target.name} compiler={jit.name} "
              f"compile={compiled.compile_seconds * 1e3:.2f}ms")
        print(f"; {stats}")
        print()
    return 0


def _cmd_kernels(args) -> int:
    from .kernels import all_kernels

    for kernel in all_kernels(args.category):
        marker = "" if kernel.expect_vectorized else "  [not vectorizable]"
        print(f"{kernel.name:18s} {kernel.category:10s} "
              f"{kernel.features}{marker}")
    return 0


def _cmd_run(args) -> int:
    from .harness import FLOWS, FlowRunner
    from .kernels import get_kernel

    try:
        kernel = get_kernel(args.kernel)
    except KeyError:
        print(f"unknown kernel {args.kernel!r}; see `kernels`", file=sys.stderr)
        return 2
    if args.flow not in FLOWS:
        print(f"unknown flow {args.flow!r}; one of {sorted(FLOWS)}",
              file=sys.stderr)
        return 2
    runner = FlowRunner(engine=args.engine)
    inst = kernel.instantiate(args.size)
    result = runner.run(inst, args.flow, args.target)
    print(f"{result.kernel} via {result.flow} on {result.target}: "
          f"{result.cycles:.0f} cycles "
          f"({result.bytecode_bytes} bytecode bytes, "
          f"checked={'yes' if result.checked else 'no'})")
    return 0


def _cmd_report(args) -> int:
    from .harness import (
        FlowRunner,
        figure5,
        figure6,
        format_figure5,
        format_figure6,
        format_table3,
        format_timings,
        table3,
    )

    jobs = args.jobs
    runner = FlowRunner() if jobs <= 1 else None
    lines = []
    timing_lines = []
    targets5 = args.targets.split(",") if args.targets else ["sse", "altivec"]
    targets6 = args.targets.split(",") if args.targets else [
        "sse", "altivec", "neon"
    ]
    for t in targets5:
        result = figure5(t, runner=runner, jobs=jobs, quick=args.quick)
        lines.append(format_figure5(result))
        lines.append("")
        timing_lines.append(
            format_timings(result.cell_seconds, f"figure5/{t} timings")
        )
    for t in targets6:
        result = figure6(t, runner=runner, jobs=jobs)
        lines.append(format_figure6(result))
        lines.append("")
        timing_lines.append(
            format_timings(result.cell_seconds, f"figure6/{t} timings")
        )
    lines.append(format_table3(table3(runner=runner or FlowRunner())))
    text = "\n".join(lines)
    print(text)
    if args.timings:
        # Wall-clock stats are machine-dependent; keep them out of the
        # deterministic report body (stderr) so --jobs N output stays
        # byte-identical to --jobs 1.
        print("\n" + "\n\n".join(timing_lines), file=sys.stderr)
    if args.out:
        _atomic_out(args.out, (text + "\n").encode())
        print(f"\nreport written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    from .bytecode import verify_module_bytes
    from .bytecode.writer import FormatError

    try:
        data = _read_bytes(args.bytecode)
    except OSError as exc:
        return _input_error(args.bytecode, exc)
    try:
        module = verify_module_bytes(data)
    except FormatError as exc:
        kind = getattr(exc, "kind", "format")
        offset = getattr(exc, "offset", None)
        where = f" at offset {offset}" if offset is not None else ""
        print(f"{args.bytecode}: REJECTED [{kind}]{where}: {exc}",
              file=sys.stderr)
        return 1
    fns = ", ".join(fn.name for fn in module)
    print(f"{args.bytecode}: OK ({len(data)} bytes, "
          f"{len(module.functions)} function(s): {fns})")
    return 0


def _cmd_chaos(args) -> int:
    import json

    from .harness.chaos import (
        run_campaign,
        run_fleet_campaign,
        run_gateway_campaign,
        run_service_campaign,
    )

    if args.profile == "service":
        report = run_service_campaign(
            n_faults=args.faults, seed=args.seed, size=args.size,
            farm_workers=args.farm_workers,
        )
    elif args.profile == "gateway":
        report = run_gateway_campaign(
            n_faults=args.faults, seed=args.seed, size=args.size,
            farm_workers=args.farm_workers or 2,
        )
    elif args.profile == "fleet":
        report = run_fleet_campaign(
            n_faults=args.faults, seed=args.seed, size=args.size,
            replicas=args.replicas, farm_workers=args.farm_workers or 1,
        )
    else:
        report = run_campaign(
            n_faults=args.faults,
            seed=args.seed,
            size=args.size,
            include_harness=args.harness,
        )
    print(report.summary())
    if args.stats_out:
        payload = {
            "profile": args.profile,
            "seed": args.seed,
            "faults": len(report.trials),
            "ok": report.ok,
            "outcomes": report.counts(),
            "service": report.service_stats,
        }
        _atomic_out(
            args.stats_out,
            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(),
        )
        print(f"stats written to {args.stats_out}")
    if not report.ok:
        for t in report.failures:
            print(f"  FAIL {t.layer}/{t.kernel}: {t.fault} -> "
                  f"{t.outcome}: {t.detail}", file=sys.stderr)
        return 1
    return 0


def _serve_listen(args, svc) -> int:
    """``serve --listen``: put the network gateway in front of the
    service and serve until SIGTERM/SIGINT, then drain gracefully —
    readiness flips first, in-flight requests finish, the compile farm
    shuts down, exit 0 (docs/service.md §8)."""
    import asyncio

    from .service.client import parse_address
    from .service.gateway import GatewayServer

    host, port = parse_address(args.listen)
    gw = GatewayServer(
        svc, host, port,
        max_inflight=args.max_inflight,
        idle_timeout_s=args.idle_timeout,
        drain_grace_s=args.drain_grace,
        drain_budget_s=args.drain_budget,
        close_service=True,
    )

    async def _run() -> None:
        await gw.start()
        # Machine-readable port announcement FIRST — supervisors parsing
        # child stdout for the ephemeral port must never race readiness.
        print(f"LISTENING {gw.address[0]}:{gw.address[1]}", flush=True)
        print(f"gateway listening on {gw.address[0]}:{gw.address[1]} "
              f"(max_inflight={gw.max_inflight}; SIGTERM drains "
              f"gracefully)", flush=True)
        await gw.run_until_signal()

    asyncio.run(_run())
    stats = gw.stats()
    print(f"gateway drained: {stats['served']} request(s) served, "
          f"{stats['rejected_overload']} shed, "
          f"{stats['rejected_drain']} drain-rejected, "
          f"{stats['frame_errors']} frame error(s)", flush=True)
    return 0


def _serve_fleet(args) -> int:
    """``serve --replicas N``: supervised replica fleet sharing one
    cache directory, self-healing until SIGTERM/SIGINT
    (docs/service.md §9)."""
    import shutil
    import signal
    import tempfile
    import threading

    from .service.supervisor import FleetSupervisor

    tmp_cache = None
    cache_dir = args.cache_dir
    if cache_dir is None:
        tmp_cache = tempfile.mkdtemp(prefix="repro-fleet-cache-")
        cache_dir = tmp_cache
    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: stop.set())
    sup = FleetSupervisor(
        replicas=args.replicas,
        cache_dir=cache_dir,
        farm_workers=args.farm_workers,
        max_inflight=args.max_inflight,
        marker_ttl_s=args.marker_ttl,
        farm_budget_s=args.farm_budget,
    )
    try:
        sup.start()
        for i, addr in enumerate(sup.slots()):
            where = f"{addr[0]}:{addr[1]}" if addr else "down"
            print(f"REPLICA {i} {where}", flush=True)
        print(f"fleet of {args.replicas} replica(s) up "
              f"(cache: {cache_dir}; SIGTERM stops the fleet)", flush=True)
        stop.wait()
    finally:
        sup.stop()
        if tmp_cache is not None:
            shutil.rmtree(tmp_cache, ignore_errors=True)
    st = sup.stats()
    print(f"fleet stopped: {st['restarts']} restart(s), "
          f"{st['parked']} parked replica(s)", flush=True)
    return 0


def _cmd_serve(args) -> int:
    """Drive the resilient JIT service with a seeded synthetic stream."""
    import json
    import random
    import shutil
    import tempfile

    from .harness.flows import FLOWS
    from .kernels import all_kernels
    from .service import KernelService, ServiceRequest

    if args.replicas:
        return _serve_fleet(args)
    rng = random.Random(args.seed)
    kernels = [k.name for k in all_kernels("kernel")][:6]
    flows = sorted(FLOWS)
    targets = ["sse", "altivec", "neon", "scalar"]
    tmp_cache = None
    cache_dir = args.cache_dir
    if cache_dir is None:
        tmp_cache = tempfile.mkdtemp(prefix="repro-serve-cache-")
        cache_dir = tmp_cache
    svc_kwargs = {}
    if args.marker_ttl is not None:
        svc_kwargs["marker_ttl_s"] = args.marker_ttl
    if args.farm_budget is not None:
        svc_kwargs["farm_budget_s"] = args.farm_budget
    svc = KernelService(
        cache_dir=cache_dir,
        queue_limit=args.queue_limit,
        workers=args.jobs,
        farm_workers=args.farm_workers,
        seed=args.seed,
        **svc_kwargs,
    )
    try:
        if args.listen is not None:
            return _serve_listen(args, svc)
        reqs = [
            ServiceRequest(
                kernel=rng.choice(kernels),
                flow=rng.choice(flows),
                target=rng.choice(targets),
                size=args.size,
            )
            for _ in range(args.requests)
        ]
        responses = svc.serve(reqs)
        by_status: dict[str, int] = {}
        warm = 0
        for resp in responses:
            by_status[resp.status] = by_status.get(resp.status, 0) + 1
            warm += bool(resp.from_cache)
        statuses = ", ".join(
            f"{k}={v}" for k, v in sorted(by_status.items())
        )
        health = svc.health()
        stats = svc.stats()
        print(f"served {len(responses)} request(s): {statuses}")
        print(f"cache: {warm} warm hit(s), "
              f"{stats['cache']['entries']} entr(ies), "
              f"hit_ratio={stats['cache']['hit_ratio']:.2f}")
        sf = stats["singleflight"]
        print(f"singleflight: {sf['leaders']} leader(s), "
              f"{sf['followers']} coalesced follower(s)")
        if stats["farm"] is not None:
            fm = stats["farm"]
            print(f"farm: {fm['workers']} worker(s), "
                  f"{fm['completed']}/{fm['dispatched']} dispatch(es) "
                  f"completed, {fm['crashes']} crash(es), "
                  f"{fm['stalls']} stall(s), {fm['rebuilds']} rebuild(s)")
        print(f"health: {health['status']} "
              f"(queue {health['queue_depth']}/{health['queue_limit']}, "
              f"breakers: "
              + ", ".join(f"{t}={s}"
                          for t, s in sorted(health['breakers'].items()))
              + ")")
        if args.stats_out:
            payload = {
                "requests": len(responses),
                "statuses": by_status,
                "health": health,
                "stats": stats,
            }
            _atomic_out(
                args.stats_out,
                (json.dumps(payload, indent=2, sort_keys=True)
                 + "\n").encode(),
            )
            print(f"stats written to {args.stats_out}")
        degraded = sum(
            v for k, v in by_status.items()
            if k in ("shed", "rejected")
        )
        return 1 if degraded == len(responses) and responses else 0
    finally:
        svc.close()
        if tmp_cache is not None:
            shutil.rmtree(tmp_cache, ignore_errors=True)


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace-out", metavar="FILE",
                   help="record trace spans for this invocation as JSONL "
                   "(render with `repro trace FILE`)")
    p.add_argument("--metrics-out", metavar="FILE",
                   help="write the metrics-registry snapshot as JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vapor SIMD split-vectorization toolchain (CGO 2011 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="VaporC -> vectorized bytecode")
    p.add_argument("source", help="VaporC source file")
    p.add_argument("-o", "--output", default="out.vbc")
    p.add_argument("--scalar-only", action="store_true",
                   help="skip the offline vectorizer")
    p.add_argument("--no-alignment", action="store_true",
                   help="disable alignment hints/versioning (SV-A.b ablation)")
    p.add_argument("--no-slp", action="store_true")
    p.add_argument("--no-outer", action="store_true")
    p.add_argument("--smoke-target", default="sse",
                   help="target for the best-effort smoke execution "
                   "performed when tracing (default sse)")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("disasm", help="print the IR of a .vbc container")
    p.add_argument("bytecode")
    p.add_argument("--function")
    p.set_defaults(func=_cmd_disasm)

    p = sub.add_parser("jit", help="lower bytecode for a target")
    p.add_argument("bytecode")
    p.add_argument("--target", default="sse",
                   help="sse|altivec|neon|avx|vsx|scalar")
    p.add_argument("--compiler", default="gcc4cli",
                   choices=["mono", "gcc4cli"])
    p.add_argument("--function")
    p.set_defaults(func=_cmd_jit)

    p = sub.add_parser("kernels", help="list built-in benchmark kernels")
    p.add_argument("--category", choices=["kernel", "polybench"])
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("run", help="run a built-in kernel through a flow")
    p.add_argument("kernel")
    p.add_argument("--flow", default="split_vec_gcc4cli")
    p.add_argument("--target", default="sse")
    p.add_argument("--size", type=int, default=None)
    from .machine.registry import DEFAULT_ENGINE, engine_names

    p.add_argument("--engine", default=DEFAULT_ENGINE,
                   choices=list(engine_names()),
                   help="execution engine (bit-identical results)")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="regenerate the paper's figures/tables")
    p.add_argument("--out")
    p.add_argument("--targets", help="comma-separated target list")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="worker processes for the experiment sweeps "
                   "(report output is byte-identical for any job count)")
    p.add_argument("--quick", action="store_true",
                   help="use the historical small Figure 5 problem sizes")
    p.add_argument("--timings", action="store_true",
                   help="print per-sweep wall-clock stats to stderr")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "verify", help="decode and structurally verify a .vbc container"
    )
    p.add_argument("bytecode")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "chaos", help="seeded fault-injection campaign (fail-soft check)"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--faults", type=int, default=200,
                   help="number of faults to inject")
    p.add_argument("--size", type=int, default=16,
                   help="kernel problem size for the trials")
    p.add_argument("--harness", action="store_true",
                   help="also inject worker crash/stall into a real "
                   "process-pool sweep (slower)")
    p.add_argument("--profile", default="layers",
                   choices=["layers", "service", "gateway", "fleet"],
                   help="'layers' injects into the pipeline stages; "
                   "'service' soaks a live KernelService (cache "
                   "corruption, torn writes, breaker trips, overload); "
                   "'gateway' soaks a live network gateway with "
                   "wire-level hostility (garbage/truncated/slowloris "
                   "frames, torn connections, overload, wire deadlines) "
                   "plus a graceful-drain and leaked-worker audit; "
                   "'fleet' SIGKILLs supervised replicas mid-compile / "
                   "mid-cache-write / mid-frame / while holding a .lead "
                   "marker and audits crash consistency end-to-end")
    p.add_argument("--farm-workers", type=int, default=0,
                   help="for --profile service: run the soaked service "
                   "with a compile farm and mix in farm faults (worker "
                   "crash/stall, stale cross-replica leader markers); "
                   "for --profile gateway the default is 2, for fleet 1")
    p.add_argument("--replicas", type=int, default=3,
                   help="for --profile fleet: supervised replica count")
    p.add_argument("--stats-out",
                   help="write the campaign census (and final service "
                   "stats, for --profile service) as JSON")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="run the resilient JIT service on a synthetic request stream",
    )
    p.add_argument("--requests", type=int, default=32,
                   help="number of synthetic requests to serve")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=64,
                   help="kernel problem size")
    p.add_argument("--cache-dir",
                   help="persistent kernel-cache directory (default: "
                   "in-process temporary cache)")
    p.add_argument("-j", "--jobs", "--workers", type=int, default=4,
                   dest="jobs",
                   help="service worker threads (--workers is an alias)")
    p.add_argument("--farm-workers", type=int, default=0,
                   help="compile-farm worker processes (0 = compile "
                   "inline under the GIL); cold JIT compiles are "
                   "dispatched cross-process so distinct kernels "
                   "compile on distinct cores")
    p.add_argument("--queue-limit", type=int, default=32,
                   help="admission-queue bound (requests beyond it shed)")
    p.add_argument("--marker-ttl", type=float, default=None,
                   help="cross-replica leader-marker TTL in seconds "
                   "(stale .lead markers are reclaimed after this)")
    p.add_argument("--farm-budget", type=float, default=None,
                   help="per-flight compile budget in seconds for the "
                   "compile farm")
    p.add_argument("--replicas", type=int, default=0,
                   help="run a supervised fleet of N gateway replicas "
                   "sharing one cache directory instead of a single "
                   "process (self-healing: dead/wedged replicas are "
                   "restarted with backoff, flapping ones parked)")
    p.add_argument("--stats-out",
                   help="write health + stats snapshot as JSON")
    p.add_argument("--listen", nargs="?", const="127.0.0.1:0",
                   metavar="HOST:PORT",
                   help="serve over TCP instead of the synthetic stream: "
                   "bind the network gateway (port 0 = ephemeral), serve "
                   "until SIGTERM/SIGINT, then drain gracefully and "
                   "exit 0")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="gateway backpressure bound: concurrent requests "
                   "beyond it get an immediate classified shed")
    p.add_argument("--idle-timeout", type=float, default=30.0,
                   help="per-read idle timeout reclaiming slowloris "
                   "connections")
    p.add_argument("--drain-grace", type=float, default=0.05,
                   help="seconds readiness answers not-ready before the "
                   "listener closes on drain")
    p.add_argument("--drain-budget", type=float, default=10.0,
                   help="seconds in-flight requests get to finish during "
                   "drain")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace",
        help="render a JSONL trace (--trace-out) as a span tree",
    )
    p.add_argument("trace", help="trace file written by --trace-out")
    p.add_argument("--phase",
                   help="only show spans of one phase (frontend, "
                   "vectorize, encode, jit, vm, service, ...)")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    with _obs_session(args):
        rc = args.func(args)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
