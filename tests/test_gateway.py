"""The network front door (docs/service.md section 8).

Covers the gateway stack end to end: the CRC-framed wire codec and its
classified failure taxonomy, byte-identity between a wire-served warm
response and the in-process one, single-flight coalescing of identical
cold requests over the wire, deadline propagation from the frame
header into the service, gateway-level backpressure, hostile-wire
hygiene (garbage, truncation, slowloris, idle reclaim), the graceful
drain state machine, the resilient client's retry/failover behaviour,
and the SIGTERM teardown of ``serve --listen``.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import faults, obs
from repro.errors import classify
from repro.service import (
    DrainError,
    GatewayClient,
    KernelService,
    NetworkError,
    ServiceRequest,
    ThreadedGateway,
)
from repro.service import wire
from repro.service.client import parse_address
from repro.service.wire import (
    HEADER_LEN,
    MAX_PAYLOAD,
    NO_DEADLINE,
    decode_frame,
    encode_frame,
    encode_payload,
    response_payload,
)

SIZE = 16
FLOW = "split_vec_gcc4cli"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _compile_payload(kernel="saxpy_fp", target="sse", size=SIZE):
    return {"op": "compile", "kernel": kernel, "flow": FLOW,
            "target": target, "size": size}


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            break
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket):
    """Read one reply frame; returns (payload_dict, raw_payload_bytes)."""
    header = _recv_exact(sock, HEADER_LEN)
    assert len(header) == HEADER_LEN, "connection closed mid-header"
    _, length = wire.check_header(header)
    rest = _recv_exact(sock, length + 4)
    assert len(rest) == length + 4, "connection closed mid-body"
    body, crc = rest[:length], rest[length:]
    wire.check_frame(header, body, crc)
    return wire.decode_payload(body), body


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    """One warm gateway-fronted service shared by the read-only tests."""
    cache = tmp_path_factory.mktemp("gw-cache")
    svc = KernelService(cache_dir=str(cache), seed=0, workers=4,
                        queue_limit=32)
    gw = ThreadedGateway(svc, idle_timeout_s=5.0, drain_grace_s=0.0)
    yield svc, gw
    gw.close()
    svc.close()


@pytest.fixture()
def client(stack):
    _, gw = stack
    c = GatewayClient([gw.address], retries=2, backoff_base=0.001,
                      backoff_cap=0.01, seed=0)
    yield c
    c.close()


# -- wire codec ---------------------------------------------------------------


def test_frame_roundtrip_with_and_without_deadline():
    payload = {"op": "compile", "kernel": "saxpy_fp", "size": 16}
    for deadline_s in (None, 1.5, 0.0):
        frame = encode_frame(payload, deadline_s=deadline_s)
        got, got_deadline = decode_frame(frame)
        assert got == payload
        if deadline_s is None:
            assert got_deadline is None
        else:
            assert got_deadline == pytest.approx(deadline_s, abs=1e-3)


def test_deadline_wire_mapping_clamps():
    assert wire.deadline_to_wire(None) == NO_DEADLINE
    assert wire.deadline_to_wire(-3.0) == 0
    assert wire.deadline_to_wire(1e9) == NO_DEADLINE - 1
    assert wire.deadline_from_wire(NO_DEADLINE) is None
    assert wire.deadline_from_wire(250) == 0.25


def test_encode_payload_is_canonical():
    a = encode_payload({"b": 1, "a": [1.5, None, True]})
    b = encode_payload({"a": [1.5, None, True], "b": 1})
    assert a == b
    assert b" " not in a  # minimal separators


@pytest.mark.parametrize("mutate,kind", [
    (lambda f: b"XXXX" + f[4:], "bad-magic"),
    (lambda f: f[:4] + bytes([99]) + f[5:], "bad-version"),
    (lambda f: f[:-1], "truncated"),
    (lambda f: f[:20], "truncated"),
    (lambda f: f[:-2] + bytes([f[-2] ^ 0xFF]) + f[-1:], "bad-crc"),
    # flip a payload byte: CRC catches it
    (lambda f: f[:HEADER_LEN] + bytes([f[HEADER_LEN] ^ 0x01])
        + f[HEADER_LEN + 1:], "bad-crc"),
    # flip a deadline byte: the CRC covers header fields too
    (lambda f: f[:6] + bytes([f[6] ^ 0x01]) + f[7:], "bad-crc"),
])
def test_decode_frame_classifies_corruption(mutate, kind):
    frame = encode_frame(_compile_payload(), deadline_s=2.0)
    with pytest.raises(NetworkError) as exc_info:
        decode_frame(mutate(frame))
    assert exc_info.value.kind == kind
    assert classify(exc_info.value) == "NetworkError"


def test_oversized_declared_length_rejected_before_allocation():
    header = wire._HEADER.pack(wire.MAGIC, wire.VERSION, NO_DEADLINE,
                               MAX_PAYLOAD + 1)
    with pytest.raises(NetworkError) as exc_info:
        wire.check_header(header)
    assert exc_info.value.kind == "oversized"


def test_oversized_outbound_payload_rejected():
    with pytest.raises(NetworkError) as exc_info:
        encode_frame({"blob": "x" * (MAX_PAYLOAD + 1)})
    assert exc_info.value.kind == "oversized"


def test_non_object_payload_rejected():
    frame = encode_frame({"k": 1})
    # splice a JSON array body with a valid CRC
    body = b"[1,2,3]"
    header = wire._HEADER.pack(wire.MAGIC, wire.VERSION, NO_DEADLINE,
                               len(body))
    import zlib
    crc = zlib.crc32(header[4:] + body) & 0xFFFFFFFF
    with pytest.raises(NetworkError) as exc_info:
        decode_frame(header + body + wire._CRC.pack(crc))
    assert exc_info.value.kind == "bad-json"
    assert frame  # keep the honest-roundtrip frame referenced


# -- served requests ----------------------------------------------------------


def test_gateway_compile_roundtrip(client):
    resp = client.compile_run("saxpy_fp", flow=FLOW, target="sse", size=SIZE)
    assert resp["status"] == "ok"
    assert resp["result"]["checked"] is True
    assert resp["kernel"] == "saxpy_fp"


def test_warm_wire_response_is_byte_identical_to_in_process(stack):
    """The acceptance criterion: serving over the wire cannot change a
    byte of the canonical response serialization."""
    svc, gw = stack
    req = ServiceRequest("dscal_fp", flow=FLOW, target="sse", size=SIZE)
    svc.handle(req)  # ensure warm
    expected = encode_payload(response_payload(svc.handle(req)))

    with socket.create_connection(gw.address, timeout=10.0) as sock:
        sock.sendall(encode_frame(
            _compile_payload("dscal_fp", target="sse", size=SIZE)))
        payload, raw = _recv_frame(sock)
    assert payload["status"] == "ok"
    assert payload["from_cache"] is True
    assert raw == expected


def test_identical_cold_stampede_compiles_once(tmp_path):
    """N identical cold compile frames on N raw sockets at once: every
    reply is ``ok``, in-process single-flight runs exactly one compile
    (followers are ``coalesced`` or warm), and every reply carries the
    same ``result`` bytes."""
    n = 6
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        workers=4, queue_limit=32)
    gw = ThreadedGateway(svc, drain_grace_s=0.0)
    frame = encode_frame(_compile_payload("sad_s8"))
    try:
        with obs.recording(trace=False, metrics=True) as ob:
            socks = [socket.create_connection(gw.address, timeout=30.0)
                     for _ in range(n)]
            try:
                for s in socks:
                    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for s in socks:
                    s.sendall(frame)
                payloads = [_recv_frame(s)[0] for s in socks]
            finally:
                for s in socks:
                    s.close()
    finally:
        gw.close()
        svc.close()
    assert [p["status"] for p in payloads] == ["ok"] * n
    assert ob.metrics_snapshot()["jit.compiles"]["value"] == 1
    assert len({encode_payload(p["result"]) for p in payloads}) == 1
    leaders = [p for p in payloads
               if not p["coalesced"] and not p["from_cache"]]
    assert len(leaders) == 1


def test_gateway_span_parents_the_service_span():
    """Each wire request is one ``service.gateway.request`` root whose
    child is the request's ``service.request`` span, although the first
    is opened on the event loop and the second on a service worker (the
    per-layer rollup of e2ebench relies on this tree)."""
    with obs.recording(trace=True, metrics=False) as ob:
        svc = KernelService(cache_dir=None, workers=2)
        gw = ThreadedGateway(svc, drain_grace_s=0.0)
        c = GatewayClient([gw.address], retries=0, seed=0)
        try:
            for _ in range(2):
                resp = c.compile_run("saxpy_fp", size=SIZE)
                assert resp["status"] == "ok"
        finally:
            c.close()
            gw.close()
            svc.close()
    spans = ob.spans()
    roots = [s for s in spans if s.name == "service.gateway.request"]
    served = [s for s in spans if s.name == "service.request"]
    assert len(roots) == len(served) == 2
    assert all(r.parent_id is None for r in roots)
    assert [s.parent_id for s in served] == [r.span_id for r in roots]


def test_ready_health_stats_ops(stack, client):
    svc, gw = stack
    assert client.ready() is True
    health = client.health()
    assert health["op"] == "health" and health["ready"] is True
    stats = client.stats()
    assert stats["gateway"]["state"] == "running"
    assert stats["service"]["requests"] >= 1
    assert set(stats) == {"v", "op", "gateway", "service"}


def test_unknown_op_and_bad_request_rejected(client):
    resp = client.request({"op": "frobnicate"})
    assert resp["status"] == "rejected"
    assert resp["error"] == "bad-request"
    resp = client.request({"op": "compile"})  # no kernel
    assert resp["status"] == "rejected"
    assert resp["error"] == "bad-request"
    resp = client.request({"op": "compile", "kernel": "saxpy_fp",
                           "size": "huge"})
    assert resp["status"] == "rejected"
    assert "size" in resp["events"][0]["detail"]


def test_unknown_kernel_is_classified_not_a_crash(client):
    resp = client.compile_run("no_such_kernel")
    assert resp["status"] in ("rejected", "failed")
    assert resp["error"] is not None


def test_wire_deadline_lands_in_service(stack):
    """A microscopic frame-header deadline must be enforced *by the
    service* (DeadlineError), proving deadline_s propagated."""
    _, gw = stack
    with socket.create_connection(gw.address, timeout=10.0) as sock:
        frame = encode_frame(_compile_payload("interp_fp", size=SIZE),
                             deadline_s=0.0005)
        sock.sendall(frame)
        payload, _ = _recv_frame(sock)
    assert payload["status"] == "rejected"
    assert payload["error"] in ("DeadlineError", "CircuitOpenError")


def test_overload_shed_is_fast_and_classified(tmp_path):
    svc = KernelService(cache_dir=None, workers=2, queue_limit=2)
    gw = ThreadedGateway(svc, drain_grace_s=0.0)
    try:
        c = GatewayClient([gw.address], retries=0, seed=0)
        try:
            # Saturate the service's admission from outside: submit
            # sheds on the event loop without touching the worker pool.
            slots = [svc.admission.admit() for _ in range(2)]
            start = time.perf_counter()
            resp = c.compile_run("saxpy_fp", size=SIZE)
            elapsed = time.perf_counter() - start
            assert resp["status"] == "shed"
            assert resp["error"] == "OverloadError"
            assert elapsed < 1.0  # one RTT, not a timeout
            for slot in slots:
                slot.__exit__(None, None, None)
            resp = c.compile_run("saxpy_fp", size=SIZE)
            assert resp["status"] == "ok"
            assert svc.stats()["shed"] == 1
        finally:
            c.close()
    finally:
        gw.close()
        svc.close()


def _blocking_service(queue_limit: int, gate: threading.Event,
                      workers: int = 2):
    """A cache-less service whose every admitted request waits on
    ``gate`` before it is served, and the semaphore each one releases
    as it starts to wait."""
    svc = KernelService(cache_dir=None, workers=workers,
                        queue_limit=queue_limit)
    serve = svc._guarded_serve
    started = threading.Semaphore(0)

    def blocked(request):
        started.release()
        gate.wait(timeout=60.0)
        return serve(request)

    svc._guarded_serve = blocked
    return svc, started


def _await(predicate, what: str, timeout_s: float = 10.0) -> None:
    deadline = time.perf_counter() + timeout_s
    while not predicate():
        assert time.perf_counter() < deadline, what
        time.sleep(0.005)


def test_gateway_sheds_at_the_service_admission_bound():
    """One bound: ``queue_limit`` compile frames held in flight (more
    than the worker pool runs at once) fill the service's admission, so
    the next frame is shed and ``health`` reports ``overloaded``."""
    limit = 10
    gate = threading.Event()
    svc, _ = _blocking_service(limit, gate)
    gw = ThreadedGateway(svc, drain_grace_s=0.0)
    socks = []
    try:
        frame = encode_frame(_compile_payload())
        for _ in range(limit):
            s = socket.create_connection(gw.address, timeout=10.0)
            s.sendall(frame)
            socks.append(s)
        _await(lambda: svc.admission.depth == limit,
               f"admission never reached {limit} in flight")
        c = GatewayClient([gw.address], retries=0, seed=0)
        try:
            resp = c.request(_compile_payload(), deadline_s=5.0)
            assert resp["status"] == "shed"
            assert resp["error"] == "OverloadError"
            health = c.health(deadline_s=5.0)["health"]
            assert health["status"] == "overloaded"
            assert health["queue_depth"] == health["queue_limit"] == limit
        finally:
            c.close()
        gate.set()
        for s in socks:
            assert _recv_frame(s)[0]["status"] == "ok"
        assert svc.stats()["shed"] == 1
        assert svc.admission.depth == 0  # every slot came back
    finally:
        gate.set()
        for s in socks:
            s.close()
        gw.close()
        svc.close()


def test_drain_abandons_requests_past_its_budget():
    """A drain that outlives its budget closes the service without
    waiting: the running request is abandoned, the queued one cancelled,
    and the service's census still accounts for both."""
    gate = threading.Event()
    svc, started = _blocking_service(4, gate, workers=1)
    gw = ThreadedGateway(svc, drain_grace_s=0.0, drain_budget_s=0.2,
                         close_service=True)
    socks = [socket.create_connection(gw.address, timeout=10.0)
             for _ in range(2)]
    try:
        for s in socks:
            s.sendall(encode_frame(_compile_payload()))
        assert started.acquire(timeout=10.0), "no request ever ran"
        _await(lambda: svc.admission.depth == 2, "requests never admitted")
        start = time.perf_counter()
        gw.drain(timeout=10.0)
        assert time.perf_counter() - start < 5.0
        assert gw.state == "closed"
        gate.set()
        _await(lambda: svc.admission.depth == 0, "slots never came back")
        stats = svc.stats()
        assert (stats["requests"], stats["ok"], stats["rejected"]) == (2, 1, 1)
    finally:
        gate.set()
        for s in socks:
            s.close()
        gw.close()
        svc.close()


# -- hostile wire -------------------------------------------------------------


def test_garbage_frame_gets_classified_error_frame(stack):
    _, gw = stack
    before = gw.stats()["frame_errors"]
    with socket.create_connection(gw.address, timeout=10.0) as sock:
        sock.sendall(b"\xde\xad\xbe\xef" * 8)
        payload, _ = _recv_frame(sock)
        assert payload["status"] == "rejected"
        assert payload["error"] == "NetworkError"
        # framing is untrusted past the first bad byte: connection drops
        assert _recv_exact(sock, 1) == b""
    assert gw.stats()["frame_errors"] == before + 1


def test_corrupt_crc_frame_classified(stack):
    _, gw = stack
    frame = bytearray(encode_frame(_compile_payload()))
    frame[-1] ^= 0xFF
    with socket.create_connection(gw.address, timeout=10.0) as sock:
        sock.sendall(bytes(frame))
        payload, _ = _recv_frame(sock)
    assert payload["status"] == "rejected"
    assert payload["error"] == "NetworkError"
    assert "bad-crc" in payload["events"][0]["detail"]


def test_truncated_frame_classified_on_half_close(stack):
    _, gw = stack
    frame = encode_frame(_compile_payload())
    with socket.create_connection(gw.address, timeout=10.0) as sock:
        sock.sendall(frame[:HEADER_LEN + 3])
        sock.shutdown(socket.SHUT_WR)
        payload, _ = _recv_frame(sock)
    assert payload["status"] == "rejected"
    assert payload["error"] == "NetworkError"
    assert "truncated" in payload["events"][0]["detail"]


@pytest.fixture()
def short_idle_stack():
    svc = KernelService(cache_dir=None, workers=2)
    gw = ThreadedGateway(svc, idle_timeout_s=0.2, drain_grace_s=0.0)
    yield svc, gw
    gw.close()
    svc.close()


def test_slowloris_mid_frame_is_reclaimed(short_idle_stack):
    """A peer that stalls mid-frame gets a classified error frame and
    the drop — it cannot pin the connection open."""
    _, gw = short_idle_stack
    with socket.create_connection(gw.address, timeout=10.0) as sock:
        sock.sendall(encode_frame(_compile_payload())[:7])  # then silence
        payload, _ = _recv_frame(sock)
        assert payload["status"] == "rejected"
        assert payload["error"] == "NetworkError"
        assert _recv_exact(sock, 1) == b""
    assert gw.stats()["frame_errors"] >= 1


def test_idle_connection_reclaimed_quietly(short_idle_stack):
    """A peer that has sent *nothing* is idle, not hostile: the gateway
    closes the connection without writing an error frame (a stale frame
    buffered here would be read as the reply to the next request a
    keep-alive client sends)."""
    _, gw = short_idle_stack
    with socket.create_connection(gw.address, timeout=10.0) as sock:
        data = _recv_exact(sock, 1)  # blocks until the server acts
        assert data == b""  # clean EOF, no stale error frame
    assert gw.stats()["frame_errors"] == 0


# -- graceful drain -----------------------------------------------------------


def test_drain_completes_inflight_and_rejects_late_requests():
    """The drain trio: the in-flight request finishes whole, a request
    inside the grace window gets a classified DrainError rejection, and
    post-drain connections are refused."""
    svc = KernelService(cache_dir=None, seed=0, workers=2)
    gw = ThreadedGateway(svc, drain_grace_s=0.4, drain_budget_s=30.0,
                         close_service=True)
    addr = gw.address
    bg: dict = {}

    def inflight():
        c = GatewayClient([addr], retries=0, seed=7)
        try:
            # cold compile on a cache-less service: slow enough to still
            # be in flight when the drain lands
            bg["resp"] = c.compile_run("gemm_fp", deadline_s=60.0)
        except Exception as exc:  # judged below
            bg["exc"] = exc
        finally:
            c.close()

    worker = threading.Thread(target=inflight)
    worker.start()
    deadline = time.perf_counter() + 5.0
    while gw.stats()["inflight"] == 0 and not bg:
        assert time.perf_counter() < deadline, "request never dispatched"
        time.sleep(0.005)

    drainer = threading.Thread(target=gw.drain)
    drainer.start()
    time.sleep(0.05)  # let the drain coroutine flip the state
    late = GatewayClient([addr], retries=0, seed=8)
    try:
        assert late.ready(deadline_s=5.0) is False
        resp = late.request(_compile_payload(), deadline_s=5.0)
        assert resp["status"] == "rejected"
        assert resp["error"] == "DrainError"
        assert resp["events"][0]["cause"] == "gateway-drain"
    finally:
        late.close()

    worker.join(timeout=60.0)
    drainer.join(timeout=60.0)
    assert "exc" not in bg, bg.get("exc")
    assert bg["resp"]["status"] == "ok", bg["resp"]
    assert bg["resp"]["result"]["checked"] is True

    probe = GatewayClient([addr], retries=0, seed=9)
    try:
        with pytest.raises(NetworkError):
            probe.ready(deadline_s=2.0)
    finally:
        probe.close()
    assert gw.state == "closed"
    gw.close()
    svc.close()  # idempotent; drain already closed it


def test_drain_error_is_classified():
    exc = DrainError("draining")
    assert classify(exc) == "DrainError"
    assert "draining" in str(exc)


# -- resilient client ---------------------------------------------------------


def test_parse_address():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_address(":9000") == ("127.0.0.1", 9000)
    assert parse_address(("10.0.0.1", 80)) == ("10.0.0.1", 80)
    with pytest.raises(ValueError):
        parse_address("nocolon")
    with pytest.raises(ValueError):
        parse_address("host:notaport")


def test_client_retries_through_injected_conn_drop(stack, client):
    """An injected mid-response ConnDrop tears the reply; the client
    must classify the torn frame and retry to success — never hand a
    partial frame to the caller."""
    _, gw = stack
    drops_before = gw.stats()["injected_drops"]
    errors_before = client.wire_errors
    plan = faults.FaultPlan([faults.ConnDrop(after_bytes=9, count=1)])
    with faults.injected(plan):
        resp = client.compile_run("saxpy_fp", size=SIZE)
    assert resp["status"] == "ok"
    assert gw.stats()["injected_drops"] == drops_before + 1
    assert client.wire_errors > errors_before


def test_client_fails_over_to_live_replica(stack):
    """The shard-owner replica is down; the client fails over to the
    live remainder and succeeds."""
    from repro.service.client import shard_index

    _, gw = stack
    # A bound-then-closed socket yields a port nothing listens on.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_addr = probe.getsockname()
    probe.close()
    # Place the dead replica at the slot the shard hash picks first, so
    # the first attempt deterministically eats a classified connect
    # failure and the call must fail over.
    payload = _compile_payload()
    slots = [None, None]
    slots[shard_index(payload, 2)] = dead_addr
    slots[slots.index(None)] = gw.address
    c = GatewayClient(slots, retries=2,
                      backoff_base=0.001, backoff_cap=0.01, seed=0)
    try:
        resp = c.compile_run("saxpy_fp", size=SIZE)
        assert resp["status"] == "ok"
        assert c.failovers >= 1
        assert c.wire_errors >= 1
    finally:
        c.close()


def test_client_deadline_budget_raises_deadline_error():
    from repro.service.admission import DeadlineError

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_addr = probe.getsockname()
    probe.close()
    c = GatewayClient([dead_addr], retries=10, backoff_base=0.05,
                      backoff_cap=0.1, seed=0)
    try:
        with pytest.raises(DeadlineError):
            c.request(_compile_payload(), deadline_s=0.05)
    finally:
        c.close()


def test_client_raises_network_error_when_all_replicas_dead():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_addr = probe.getsockname()
    probe.close()
    c = GatewayClient([dead_addr], retries=1, backoff_base=0.0, seed=0)
    try:
        with pytest.raises(NetworkError) as exc_info:
            c.request(_compile_payload())
        assert exc_info.value.kind == "connect"
    finally:
        c.close()


def _dead_address():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    addr = probe.getsockname()
    probe.close()
    return addr


def test_client_prunes_state_for_departed_replicas(tmp_path):
    """Provider-backed fleets restart replicas onto new ports; the
    client must drop cached sockets and failure timestamps for slots no
    longer in the provider's answer, or both dicts grow without bound
    across supervisor restarts."""
    from repro.service.client import shard_index

    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        workers=2, queue_limit=16)
    gw_old = ThreadedGateway(svc, drain_grace_s=0.0)
    gw_new = ThreadedGateway(svc, drain_grace_s=0.0)
    dead_addr = _dead_address()
    payload = _compile_payload()
    # Generation 1: the shard owner is dead, the other slot live — one
    # call populates both _failed_at (the dead slot) and _socks (the
    # live one it failed over to).
    gen1 = [None, None]
    gen1[shard_index(payload, 2)] = dead_addr
    gen1[gen1.index(None)] = gw_old.address
    slots = {"current": gen1}
    c = GatewayClient(lambda: slots["current"], retries=2,
                      backoff_base=0.001, backoff_cap=0.01, seed=0)
    try:
        assert c.compile_run("saxpy_fp", size=SIZE)["status"] == "ok"
        assert dead_addr in c._failed_at
        assert gw_old.address in c._socks
        cached = c._socks[gw_old.address]
        # Generation 2: the supervisor restarted everything onto a new
        # port; neither generation-1 slot survives.
        slots["current"] = [gw_new.address]
        assert c.compile_run("saxpy_fp", size=SIZE)["status"] == "ok"
        assert dead_addr not in c._failed_at
        assert gw_old.address not in c._socks
        assert cached.fileno() == -1, "stale cached socket left open"
        assert set(c._socks) <= {gw_new.address}
    finally:
        c.close()
        gw_new.close()
        gw_old.close()
        svc.close()


def test_client_does_not_hammer_dead_shard_owner(stack):
    """One call, one contact: while untried replicas remain, the retry
    loop must prefer them over re-dialling the replica that just
    failed — re-jittering the same order each attempt used to hammer
    the dead shard owner while a live sibling sat idle."""
    from repro.service.client import shard_index

    _, gw = stack
    dead_addr = _dead_address()
    payload = _compile_payload()
    slots = [None, None]
    slots[shard_index(payload, 2)] = dead_addr
    slots[slots.index(None)] = gw.address
    c = GatewayClient(slots, retries=3,
                      backoff_base=0.001, backoff_cap=0.01, seed=0)
    contacted = []
    orig = c._attempt

    def spy(addr, payload, deadline):
        contacted.append(addr)
        return orig(addr, payload, deadline)

    c._attempt = spy
    try:
        assert c.compile_run("saxpy_fp", size=SIZE)["status"] == "ok"
        assert contacted[0] == dead_addr, "shard owner not tried first"
        assert contacted.count(dead_addr) == 1, (
            "dead shard owner re-dialled while a live replica was untried"
        )
        assert gw.address in contacted
    finally:
        c.close()


def test_client_transparently_resends_on_stale_keepalive(tmp_path):
    """A reused keep-alive connection the gateway idle-reclaimed
    between calls yields a clean EOF before any response byte; the
    client resends once on a fresh connection instead of surfacing a
    NetworkError — even with retries=0."""
    svc = KernelService(cache_dir=str(tmp_path / "cache"), seed=0,
                        workers=2, queue_limit=16)
    gw = ThreadedGateway(svc, idle_timeout_s=0.2, drain_grace_s=0.0)
    c = GatewayClient([gw.address], retries=0, seed=0)
    try:
        assert c.compile_run("saxpy_fp", size=SIZE)["status"] == "ok"
        assert gw.address in c._socks
        time.sleep(0.7)  # let the gateway reclaim the idle connection
        assert c.compile_run("saxpy_fp", size=SIZE)["status"] == "ok"
        assert c.stale_reconnects == 1
        assert c.wire_errors == 0, "stale keep-alive surfaced as a failure"
    finally:
        c.close()
        gw.close()
        svc.close()


# -- SIGTERM teardown ---------------------------------------------------------


def test_sigterm_drains_gateway(tmp_path):
    """The full front-door teardown: ``serve --listen`` + SIGTERM =>
    graceful drain messages and exit 0."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--listen",
         "--requests", "1"],
        env=env, cwd=str(REPO_ROOT), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("LISTENING "), line
        addr = line.split()[1]
        c = GatewayClient([addr], retries=2, seed=0)
        try:
            assert c.stats(deadline_s=30.0)["gateway"]["state"] == "running"
            assert c.compile_run("saxpy_fp", size=SIZE,
                                 deadline_s=60.0)["status"] == "ok"
        finally:
            c.close()
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        assert "gateway drained" in out, out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)


# -- quick gateway chaos gate -------------------------------------------------

#: the (layer, kernel) stream of the gate below, recorded once: the
#: campaign RNG draws only these two, so the list moves only when the
#: seed, the layer weights or the draw order do.
GATEWAY_GATE_STREAM = [
    ("gw-plain", "saxpy_fp"), ("gw-jit-fault", "sfir_fp"),
    ("gw-deadline", "sfir_fp"), ("gw-overload", "sfir_fp"),
    ("gw-plain", "saxpy_fp"), ("gw-plain", "saxpy_fp"),
    ("gw-truncated", "sfir_fp"), ("gw-conn-drop", "dscal_fp"),
    ("gw-garbage", "interp_fp"), ("gw-jit-fault", "interp_fp"),
    ("gw-deadline", "saxpy_fp"), ("gw-overload", "saxpy_fp"),
    ("gw-drain", "gemm_fp"),
]


@pytest.fixture(scope="module")
def gateway_campaign():
    """One quick gateway soak shared by the assertions below (the CI
    gateway-soak job runs the full 200-fault campaigns at both pinned
    seeds; this keeps tier-1 honest without the full bill)."""
    from repro.harness.chaos import run_campaign

    return run_campaign("gateway", n_faults=12, seed=2026)


def test_gateway_campaign_invariant_holds(gateway_campaign):
    assert gateway_campaign.ok, gateway_campaign.summary()


def test_gateway_campaign_ran_its_epilogues(gateway_campaign):
    """The scripted epilogue always runs: the graceful drain."""
    outcomes = {t.outcome for t in gateway_campaign.trials}
    assert "drained-clean" in outcomes


def test_gateway_campaign_reports_stats(gateway_campaign):
    stats = gateway_campaign.service_stats
    assert set(stats) == {"service", "gateway"}
    assert stats["service"]["requests"] > 0


def test_gateway_campaign_stream_pinned(gateway_campaign):
    assert [
        (t.layer, t.kernel) for t in gateway_campaign.trials
    ] == GATEWAY_GATE_STREAM
