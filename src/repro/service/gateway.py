"""The network front door: an overload-proof asyncio gateway.

ROADMAP item 1 names this the "millions of users" spine: ``repro
serve`` used to drive a synthetic in-process stream, but the paper's
whole premise is a *split* deployment — bytecode produced once, shipped
over a wire, finished by heterogeneous clients.  This module puts a
real protocol (:mod:`repro.service.wire`) in front of
:class:`~repro.service.KernelService`, built robustness-first:

* **One admission bound** — every compile frame goes to
  :meth:`KernelService.submit`, which charges the service's admission
  queue on the event loop and runs the request on the service's worker
  pool.  A frame past ``queue_limit`` is answered *immediately* with a
  classified shed (``OverloadError``) instead of parking in an
  unbounded queue; overload costs the caller one RTT, not a timeout,
  and the ``health`` verb reports it.
* **Deadline propagation** — the client's remaining budget rides in the
  frame header and lands in ``ServiceRequest.deadline_s``, so a slow
  compile can never outlive the caller that wanted it.
* **Hostile-wire hygiene** — every frame is CRC-checked; garbage,
  truncated, oversized, or slow-dripped frames are classified
  (:class:`~repro.service.wire.NetworkError`), answered with an error
  frame where framing allows, and the connection is dropped.  A
  per-read idle timeout reclaims slowloris connections.
* **Graceful drain** — on SIGTERM (or :meth:`GatewayServer.drain`) the
  readiness verb flips *first* (load balancers stop routing), the
  listener closes after a grace window, in-flight requests finish under
  a drain budget with their responses fully flushed, late requests get
  a classified :class:`DrainError` rejection, and connections close
  cleanly — a client mid-frame sees a complete response or a clean EOF,
  never a torn frame.  Then the service's worker pool is closed,
  abandoning whatever outlived the drain budget.

Every served request is one ``service.gateway.request`` span wrapping
the usual ``service.request`` span tree, and the gateway feeds
``gateway.*`` metrics (see docs/observability.md).
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
import time

from .. import faults, obs
from ..errors import ReproError, classify
from .core import KernelService, ServiceRequest
from .wire import (
    HEADER_LEN,
    NetworkError,
    check_frame,
    check_header,
    decode_payload,
    deadline_from_wire,
    encode_frame,
    response_payload,
)

__all__ = ["DrainError", "GatewayServer", "ThreadedGateway"]

#: latency buckets for the gateway request histogram — finer than the
#: default set in the 1–100 ms range where warm requests live, so the
#: load harness can read meaningful p50/p99 straight off the buckets.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.002, 0.003, 0.005, 0.0075, 0.01, 0.015, 0.02,
    0.03, 0.05, 0.075, 0.1, 0.15, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class DrainError(ReproError):
    """The gateway is draining for shutdown: request rejected, retry on
    another replica.  A *classified* rejection — the drain analogue of
    :class:`~repro.service.admission.OverloadError`."""

    def __init__(self, state: str) -> None:
        super().__init__(
            f"gateway is {state}: not accepting new work; "
            f"retry against another replica"
        )
        self.state = state


class _ConnDropped(Exception):
    """Internal: an injected :class:`~repro.faults.ConnDrop` tore this
    connection mid-response; unwind the connection loop quietly."""


def _jsonable(obj):
    """Best-effort conversion of a stats/health dict to JSON-safe data."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


class GatewayServer:
    """One asyncio TCP gateway fronting one :class:`KernelService`.

    The event loop owns framing, wire deadlines, and drain; compile
    frames go through :meth:`KernelService.submit`, so admission and the
    worker pool are the service's own.  States move strictly
    ``running -> draining -> closed``.

    ``close_service=True`` makes :meth:`drain` also close the service's
    worker pool — the configuration the CLI uses, so a SIGTERM tears the
    whole process down before exit 0.
    """

    def __init__(
        self,
        service: KernelService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        idle_timeout_s: float | None = 30.0,
        drain_grace_s: float = 0.05,
        drain_budget_s: float = 10.0,
        close_service: bool = False,
    ) -> None:
        self.service = service
        self.host = host
        self.port = int(port)
        self.idle_timeout_s = idle_timeout_s
        self.drain_grace_s = float(drain_grace_s)
        self.drain_budget_s = float(drain_budget_s)
        self.close_service = bool(close_service)
        self.state = "running"
        self._server: asyncio.AbstractServer | None = None
        #: compile frames handed to the service and not yet answered;
        #: only the drain waits on it (admission bounds it).
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._counts = {
            "connections": 0,
            "requests": 0,
            "served": 0,
            "rejected_drain": 0,
            "frame_errors": 0,
            "conn_resets": 0,
            "injected_drops": 0,
        }

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`address`."""
        self._server = await asyncio.start_server(
            self._serve_conn, self.host, self.port,
            family=socket.AF_INET,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def ready(self) -> bool:
        """Readiness for load balancers: False the instant drain begins
        — *before* the listener closes, so routing stops first."""
        return self.state == "running"

    async def drain(self) -> None:
        """The drain state machine (docs/service.md §8.3):

        1. readiness flips (``ready`` verb answers False immediately);
        2. ``drain_grace_s`` passes so balancers observe not-ready while
           the listener still accepts (late arrivals get classified
           :class:`DrainError` rejections, not connection refused);
        3. the listener closes — no new connections;
        4. in-flight requests finish under ``drain_budget_s``, their
           responses fully flushed;
        5. open connections close cleanly (a client mid-request-frame
           gets EOF, never a torn response frame);
        6. with ``close_service``, the service's worker pool shuts down
           without waiting: a request still running past the budget is
           abandoned, and one still queued is cancelled.
        """
        if self.state != "running":
            return
        self.state = "draining"
        obs.count("gateway.drains")
        if self.drain_grace_s > 0:
            await asyncio.sleep(self.drain_grace_s)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # In-flight requests (already submitted to the service) finish
        # under the drain budget; anything still running past it is
        # abandoned — the response is lost but no torn frame is ever
        # written.
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.drain_budget_s
            )
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        self.state = "closed"
        if self.close_service:
            self.service.close(wait=False)

    async def run_until_signal(self, signals=("SIGTERM", "SIGINT")) -> None:
        """Serve until a termination signal, then drain.  The CLI's
        ``serve --listen`` loop: readiness flips before the listener
        closes, in-flight work completes, the service closes, exit 0."""
        import signal as _signal

        if self._server is None:
            await self.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for name in signals:
            sig = getattr(_signal, name, None)
            if sig is None:
                continue
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await stop.wait()
        finally:
            for sig in installed:
                with contextlib.suppress(Exception):
                    loop.remove_signal_handler(sig)
            await self.drain()

    # -- surfaces -------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "state": self.state,
            "address": list(self.address),
            "inflight": self._inflight,
            "open_connections": len(self._writers),
            **self._counts,
        }

    def _bump(self, key: str, n: int = 1) -> None:
        self._counts[key] += n
        obs.count(f"gateway.{key}", n)

    # -- connection loop ------------------------------------------------------

    async def _serve_conn(self, reader, writer) -> None:
        self._bump("connections")
        self._writers.add(writer)
        try:
            while True:
                frame = await self._read_frame(reader)
                if frame is None:
                    break
                payload, deadline_s = frame
                reply = await self._dispatch(payload, deadline_s)
                await self._write_frame(writer, reply)
        except NetworkError as exc:
            # Hostile or torn inbound bytes: classified, answered with a
            # best-effort error frame, connection dropped (framing can't
            # be trusted past the first bad byte).
            self._bump("frame_errors")
            with contextlib.suppress(Exception):
                await self._write_frame(
                    writer, self._error_payload("rejected", exc)
                )
        except _ConnDropped:
            pass
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            self._bump("conn_resets")
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_frame(self, reader):
        """One frame off the stream, or None on clean EOF at a frame
        boundary.  Every read is bounded by the idle timeout — a
        slowloris peer (dripping bytes or going silent mid-frame) is
        classified and disconnected, never allowed to pin the
        connection open forever.

        The first byte of a frame is read separately so the two timeout
        cases stay distinct: a peer that has sent *nothing* is merely an
        idle connection and is closed quietly (no error frame — a
        keep-alive client must never find a stale "timeout" reply
        buffered on a connection it reuses later), while a peer that
        stalls *mid-frame* is a slowloris and gets the classified error
        frame before the drop."""
        try:
            first = await self._timed_read(reader, 1)
        except asyncio.IncompleteReadError:
            return None  # clean EOF between frames
        except NetworkError as exc:
            if exc.kind == "timeout":
                return None  # idle connection: reclaim quietly
            raise
        try:
            header = first + await self._timed_read(reader, HEADER_LEN - 1)
        except asyncio.IncompleteReadError as exc:
            raise NetworkError(
                "truncated",
                f"connection closed {1 + len(exc.partial)} bytes into a "
                f"{HEADER_LEN}-byte frame header",
            ) from None
        deadline_ms, length = check_header(header)
        try:
            rest = await self._timed_read(reader, length + 4)
        except asyncio.IncompleteReadError as exc:
            raise NetworkError(
                "truncated",
                f"connection closed {len(exc.partial)} bytes into a "
                f"{length + 4}-byte frame body",
            ) from None
        body, crc = rest[:length], rest[length:]
        check_frame(header, body, crc)
        return decode_payload(body), deadline_from_wire(deadline_ms)

    async def _timed_read(self, reader, n: int) -> bytes:
        if self.idle_timeout_s is None:
            return await reader.readexactly(n)
        try:
            return await asyncio.wait_for(
                reader.readexactly(n), timeout=self.idle_timeout_s
            )
        except asyncio.TimeoutError:
            raise NetworkError(
                "timeout",
                f"peer sent no complete frame within the "
                f"{self.idle_timeout_s}s idle timeout",
            ) from None

    async def _write_frame(self, writer, payload: dict) -> None:
        data = encode_frame(payload)
        drop = faults.wire_conn_drop()
        if drop is not None:
            # Injected mid-response connection drop: write a prefix,
            # then RST.  The peer must classify the torn frame.
            self._bump("injected_drops")
            writer.write(data[:max(0, int(drop.after_bytes))])
            with contextlib.suppress(Exception):
                await writer.drain()
            with contextlib.suppress(Exception):
                writer.transport.abort()
            raise _ConnDropped()
        writer.write(data)
        await writer.drain()

    # -- request dispatch -----------------------------------------------------

    async def _dispatch(self, payload: dict, deadline_s) -> dict:
        op = payload.get("op", "compile")
        if op == "ready":
            return {
                "v": 1, "op": "ready", "ready": self.ready,
                "state": self.state,
            }
        # health and stats read counters under short locks: answered on
        # the loop, so a saturated worker pool cannot delay them.
        if op == "health":
            health = self.service.health()
            if not self.ready:
                health["status"] = self.state
            return {
                "v": 1, "op": "health", "ready": self.ready,
                "state": self.state, "health": _jsonable(health),
            }
        if op == "stats":
            return {
                "v": 1, "op": "stats", "gateway": _jsonable(self.stats()),
                "service": _jsonable(self.service.stats()),
            }
        if op == "compile":
            return await self._dispatch_compile(payload, deadline_s)
        return self._reject_payload(
            payload, "rejected", "bad-request", "bad-request",
            f"unknown op {op!r}",
        )

    async def _dispatch_compile(self, payload: dict, deadline_s) -> dict:
        self._bump("requests")
        started = time.perf_counter()
        if self.state != "running":
            self._bump("rejected_drain")
            exc = DrainError(self.state)
            return self._reject_payload(
                payload, "rejected", classify(exc), "gateway-drain", str(exc)
            )
        try:
            request = self._parse_request(payload, deadline_s)
        except (TypeError, ValueError) as exc:
            return self._reject_payload(
                payload, "rejected", "bad-request", "bad-request", str(exc)
            )
        self._inflight += 1
        self._idle.clear()
        obs.gauge("gateway.inflight", self._inflight)
        try:
            # The span is open on the loop while the service works;
            # submit runs the request in a copy of this context, so the
            # service.request span nests under it.
            with obs.span("service.gateway.request", phase="service",
                          kernel=request.kernel, flow=request.flow,
                          target=request.target) as sp:
                if deadline_s is not None:
                    sp.set(deadline_s=deadline_s)
                fut = self.service.submit(request)
                # A shed comes back already resolved: no loop round trip.
                resp = (fut.result() if fut.done()
                        else await asyncio.wrap_future(fut))
                sp.set(status=resp.status, from_cache=resp.from_cache)
        finally:
            self._inflight -= 1
            obs.gauge("gateway.inflight", self._inflight)
            if self._inflight == 0:
                self._idle.set()
        self._bump("served")
        obs.observe(
            "gateway.request_seconds", time.perf_counter() - started,
            bounds=LATENCY_BUCKETS,
        )
        return response_payload(resp)

    @staticmethod
    def _parse_request(payload: dict, deadline_s) -> ServiceRequest:
        kernel = payload.get("kernel")
        if not isinstance(kernel, str) or not kernel:
            raise ValueError("request needs a non-empty string 'kernel'")
        flow = payload.get("flow", "split_vec_gcc4cli")
        target = payload.get("target", "sse")
        if not isinstance(flow, str) or not isinstance(target, str):
            raise ValueError("'flow' and 'target' must be strings")
        size = payload.get("size")
        if size is not None and not isinstance(size, int):
            raise ValueError("'size' must be an integer or null")
        return ServiceRequest(
            kernel=kernel, flow=flow, target=target, size=size,
            deadline_s=deadline_s,
        )

    @staticmethod
    def _reject_payload(payload, status, error, cause, detail) -> dict:
        """A rejection in the exact shape of a served response, so
        clients parse one format regardless of where the request died."""
        return {
            "v": 1,
            "status": status,
            "kernel": payload.get("kernel"),
            "flow": payload.get("flow", "split_vec_gcc4cli"),
            "target": payload.get("target", "sse"),
            "size": payload.get("size"),
            "error": error,
            "events": [{"cause": cause, "detail": detail}],
            "from_cache": False,
            "coalesced": False,
            "attempts": 0,
            "result": None,
        }

    def _error_payload(self, status: str, exc: Exception) -> dict:
        return self._reject_payload(
            {}, status, classify(exc), "wire-error", str(exc)
        )


class ThreadedGateway:
    """A :class:`GatewayServer` hosted on a background thread's event
    loop — the sync-world handle tests, benchmarks, and chaos campaigns
    drive.  Construction blocks until the listener is bound (the
    resolved ``address`` is immediately usable); :meth:`drain` runs the
    full drain state machine and :meth:`close` joins the loop thread.
    """

    def __init__(self, service: KernelService, **kwargs) -> None:
        self.gateway = GatewayServer(service, **kwargs)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway-loop", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.gateway.start())
        except BaseException as exc:  # bind failure -> constructor raises
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        self._loop.run_forever()
        # Drain/close scheduled the stop; finish cancelled tasks cleanly.
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.close()

    @property
    def address(self) -> tuple[str, int]:
        return self.gateway.address

    @property
    def state(self) -> str:
        return self.gateway.state

    def stats(self) -> dict:
        return self.gateway.stats()

    def drain(self, timeout: float | None = 30.0) -> None:
        """Run the gateway's drain to completion (thread-safe)."""
        if not self._loop.is_running():
            return
        fut = asyncio.run_coroutine_threadsafe(
            self.gateway.drain(), self._loop
        )
        fut.result(timeout=timeout)

    def close(self, timeout: float | None = 30.0) -> None:
        """Drain (if still running), stop the loop, join the thread."""
        with contextlib.suppress(Exception):
            self.drain(timeout=timeout)
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ThreadedGateway":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
