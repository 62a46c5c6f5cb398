"""The resilient gateway client: sharding, retries, failover, deadlines.

The other half of the wire contract (:mod:`repro.service.wire`): a
blocking client built for the fail-soft story the gateway exports —

* **classified failures** — every wire problem surfaces as a
  :class:`~repro.service.wire.NetworkError` with a machine-readable
  ``kind`` (connect/reset/timeout/truncated/bad-crc/...), never a raw
  ``OSError`` from inside socket code;
* **jittered-backoff retries** — transient wire failures are retried
  with the toolchain's shared
  :func:`~repro.harness.parallel.backoff_delay` (the same curve the
  service's own retry loop uses), seeded for deterministic campaigns;
* **deliberate placement** — compile requests are **hash-sharded** by
  request shape (:func:`shard_index`): the shape determines the
  canonical bytecode and hence the service's
  :class:`~repro.service.cache.CacheKey`, so all requests for one cache
  key land on one replica — cold misses coalesce on that replica's
  single-flight table instead of compiling once per replica, and its
  cache stays hot for the shapes it owns;
* **per-call failover ordering** — every ``request()`` re-derives its
  replica ordering: the shard owner first, then a *jittered rotation*
  of the remainder (so failover load spreads instead of piling onto the
  next index), with replicas that failed within ``dead_cooldown_s``
  demoted to the back of the order.  A dead first replica therefore
  costs one classified connect failure *once per cooldown window*, not
  one connect timeout on every subsequent call;
* **deadline awareness** — one budget covers the whole ``request()``
  call: each attempt's socket timeout is clipped to the remaining
  budget, the *remaining* (not original) budget rides the frame header
  of every attempt, backoff sleeps never overrun it, and an exhausted
  budget raises a classified
  :class:`~repro.service.admission.DeadlineError` instead of burning a
  retry that cannot finish.

``addresses`` may also be a **callable** returning the current replica
slot list (entries may be ``None`` for a slot that is down) — the hook
:class:`~repro.service.supervisor.FleetSupervisor` uses to hand clients
a live topology whose ports change as replicas restart.

A torn response (connection cut mid-frame, CRC mismatch) is always
*detected* — the CRC trailer covers header and payload — and counts as
a transient wire failure: the client retries, and never, under any
interleaving the chaos campaign can find, hands a partial frame to the
caller as an answer.
"""

from __future__ import annotations

import random
import socket
import time
import zlib

from ..harness.parallel import backoff_delay
from .admission import Deadline, DeadlineError
from .wire import (
    HEADER_LEN,
    NetworkError,
    check_frame,
    check_header,
    decode_payload,
    encode_frame,
)

__all__ = ["GatewayClient", "parse_address", "request_shape", "shard_index"]

#: the gateway's default flow — mirrored here so the client-side shard
#: hash agrees with the server-side request defaults.
DEFAULT_FLOW = "split_vec_gcc4cli"
DEFAULT_TARGET = "sse"

#: the client-visible request shape: exactly the fields that determine
#: the canonical bytecode and hence the service-side CacheKey.
_SHAPE_FIELDS = (
    ("kernel", ""),
    ("flow", DEFAULT_FLOW),
    ("target", DEFAULT_TARGET),
    ("size", None),
    ("force_scalar", False),
)


def parse_address(addr) -> tuple[str, int]:
    """``"host:port"`` or ``(host, port)`` -> ``(host, port)``."""
    if isinstance(addr, str):
        host, sep, port = addr.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(f"address {addr!r} is not HOST:PORT")
        return (host or "127.0.0.1", int(port))
    host, port = addr
    return (str(host), int(port))


def request_shape(payload: dict) -> str:
    """The canonical shape string of a compile payload.

    The request *shape* — (kernel, flow, target, size, force_scalar) —
    deterministically yields the canonical bytecode and therefore the
    service-side :class:`~repro.service.cache.CacheKey`, so two
    requests with one shape shard to one replica
    (:func:`shard_index`) and coalesce there on one single-flight key.
    """
    return "\x00".join(
        str(payload.get(k, d)) for k, d in _SHAPE_FIELDS
    )


def shard_index(payload: dict, n_slots: int) -> int:
    """Deterministic replica placement for a compile payload.

    Hashing the shape (:func:`request_shape`) places every request for
    one cache key on one replica without the client ever computing
    bytecode.  CRC-32 over the canonical shape string keeps placement
    stable across processes and Python versions (``hash()`` is salted;
    it would reshuffle the shard map per run).
    """
    if n_slots <= 1:
        return 0
    shape = request_shape(payload)
    return (zlib.crc32(shape.encode("utf-8")) & 0xFFFFFFFF) % n_slots


class GatewayClient:
    """A blocking client for one or more gateway replicas.

    ``addresses`` is the replica slot list — static (list of
    ``HOST:PORT`` / ``(host, port)``) or a callable returning the
    current slots, where ``None`` marks a slot whose replica is down.
    ``retries`` is the number of *additional* attempts after the first;
    each attempt walks the per-call ordering (shard owner first, then
    the jittered remainder).  ``attempt_timeout_s`` bounds any single
    socket operation; the per-request ``deadline_s`` bounds the whole
    call, retries and backoff included.
    """

    def __init__(
        self,
        addresses,
        *,
        retries: int = 2,
        backoff_base: float = 0.02,
        backoff_cap: float = 0.5,
        attempt_timeout_s: float | None = 10.0,
        connect_timeout_s: float = 5.0,
        dead_cooldown_s: float = 1.0,
        seed: int = 0,
    ) -> None:
        self._provider = None
        if callable(addresses):
            self._provider = addresses
            self.addresses: list = []
        else:
            if isinstance(addresses, (str, tuple)):
                addresses = [addresses]
            self.addresses = [parse_address(a) for a in addresses]
            if not self.addresses:
                raise ValueError("need at least one gateway address")
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.attempt_timeout_s = attempt_timeout_s
        self.connect_timeout_s = float(connect_timeout_s)
        self.dead_cooldown_s = float(dead_cooldown_s)
        self._rng = random.Random(seed)
        #: one cached connection per replica address (bounded by the
        #: replica count) — sharded traffic alternates shard owners, and
        #: reconnecting per alternation would swamp the shard benefit.
        self._socks: dict[tuple[str, int], socket.socket] = {}
        #: address -> monotonic time of its last wire failure; used to
        #: demote recently dead replicas to the back of the call order.
        self._failed_at: dict[tuple[str, int], float] = {}
        self.attempts = 0
        self.failovers = 0
        self.wire_errors = 0
        #: reused keep-alive connections found dead before any response
        #: byte arrived (the peer idle-reclaimed them between calls) and
        #: transparently resent on a fresh connection.
        self.stale_reconnects = 0

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        for addr in list(self._socks):
            self._drop_connection(addr)

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _drop_connection(self, addr) -> None:
        sock = self._socks.pop(addr, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- topology -------------------------------------------------------------

    def _slots(self) -> list:
        """Current replica slots (``None`` entries = down)."""
        if self._provider is not None:
            slots = list(self._provider())
            return [None if a is None else parse_address(a) for a in slots]
        return list(self.addresses)

    def _prune_stale(self, slots: list) -> None:
        """Drop per-address state for addresses no longer in the topology.

        Under a supervisor every restart lands a replica on a new
        ephemeral port, so ``_socks`` / ``_failed_at`` entries keyed by
        the old ``(host, port)`` would otherwise accumulate forever —
        one dead cached socket and one cooldown stamp per restart.
        """
        current = {a for a in slots if a is not None}
        for addr in list(self._socks):
            if addr not in current:
                self._drop_connection(addr)
        for addr in list(self._failed_at):
            if addr not in current:
                self._failed_at.pop(addr, None)

    def _call_order(self, payload: dict) -> list:
        """The re-derived per-call replica ordering.

        Shard owner first (compile payloads), then the remaining live
        replicas rotated by a seeded jitter so failover traffic spreads;
        any replica that failed within ``dead_cooldown_s`` is demoted to
        the back — still reachable (it may have just restarted) but
        never first in line while presumed dead.
        """
        slots = self._slots()
        self._prune_stale(slots)
        live = [a for a in slots if a is not None]
        if not live:
            raise NetworkError("connect", "no live gateway replicas")
        if len(live) == 1:
            return live
        if payload.get("op", "compile") == "compile":
            first_slot = shard_index(payload, len(slots))
        else:
            first_slot = self._rng.randrange(len(slots))
        first = slots[first_slot]
        rest = [a for a in live if a != first]
        if rest:
            rot = self._rng.randrange(len(rest))
            rest = rest[rot:] + rest[:rot]
        order = ([first] if first is not None else []) + rest
        # Cooldown demotion: a recently dead shard owner must not eat a
        # connect failure on every call for the whole cooldown window.
        # Demote even when *every* live replica is fresh-dead — ordering
        # the least-recently-failed first still beats re-hammering the
        # replica that died most recently.
        now = time.monotonic()
        fresh_dead = [
            a for a in order
            if now - self._failed_at.get(a, -1e9) < self.dead_cooldown_s
        ]
        if fresh_dead:
            order = [a for a in order if a not in fresh_dead] + sorted(
                fresh_dead, key=lambda a: self._failed_at[a]
            )
        return order

    # -- request API ----------------------------------------------------------

    def request(self, payload: dict, deadline_s: float | None = None) -> dict:
        """Send one request, riding out transient wire failures.

        Returns the response payload dict (status ``ok``/``degraded``/
        ``stale``/``shed``/``rejected`` — a shed or drain rejection is
        returned only after failover attempts are exhausted).  Raises
        :class:`NetworkError` when every attempt died on the wire and
        :class:`DeadlineError` when the budget expired first.
        """
        deadline = Deadline(deadline_s)
        last_exc: Exception | None = None
        last_resp: dict | None = None
        prev_addr = None
        tried: set = set()
        for attempt in range(1, self.retries + 2):
            if deadline.expired():
                break
            # Re-derive the ordering every attempt: under a supervisor
            # the topology changes mid-call (a replica dies, its slot
            # reads None, a restart brings it back), and each attempt
            # must see the *current* world, not the one at call entry.
            try:
                order = self._call_order(payload)
            except NetworkError as exc:
                # transient zero capacity — back off and look again
                last_exc, last_resp = exc, None
                self._backoff(attempt, deadline)
                continue
            # Prefer replicas this call has not touched yet: the order
            # is re-jittered every attempt, so indexing it by attempt
            # number could land on the replica that just failed while
            # untried live replicas sit idle.  Only when every replica
            # has been tried does the call re-walk the (cooldown-
            # demoted) ordering.
            untried = [a for a in order if a not in tried]
            if untried:
                addr = untried[0]
            else:
                addr = order[(attempt - 1) % len(order)]
            tried.add(addr)
            if prev_addr is not None and addr != prev_addr:
                self.failovers += 1
            prev_addr = addr
            self.attempts += 1
            try:
                resp = self._attempt(addr, payload, deadline)
            except NetworkError as exc:
                self.wire_errors += 1
                self._failed_at[addr] = time.monotonic()
                last_exc, last_resp = exc, None
            else:
                self._failed_at.pop(addr, None)
                if not self._should_failover(resp):
                    return resp
                last_exc, last_resp = None, resp
            # Transient failure: the next attempt walks on to the next
            # replica in the re-derived ordering, after a jittered
            # backoff (clipped to the remaining budget — a sleep that
            # outlives the deadline is worse than giving up).
            if attempt <= self.retries:
                self._backoff(attempt, deadline)
        if deadline.expired() and last_resp is None:
            exhausted = DeadlineError(
                f"deadline of {deadline.budget_s:.3f}s expired after "
                f"{self.attempts} attempt(s)"
            )
            if last_exc is not None:
                raise exhausted from last_exc
            raise exhausted
        if last_resp is not None:
            return last_resp  # a shed/drain rejection from the last replica
        assert last_exc is not None
        raise last_exc

    def compile_run(
        self,
        kernel: str,
        *,
        flow: str = DEFAULT_FLOW,
        target: str = DEFAULT_TARGET,
        size: int | None = None,
        deadline_s: float | None = None,
    ) -> dict:
        """Convenience wrapper for the ``compile`` verb."""
        return self.request(
            {"op": "compile", "kernel": kernel, "flow": flow,
             "target": target, "size": size},
            deadline_s=deadline_s,
        )

    def health(self, deadline_s: float | None = None) -> dict:
        return self.request({"op": "health"}, deadline_s=deadline_s)

    def ready(self, deadline_s: float | None = None) -> bool:
        resp = self.request({"op": "ready"}, deadline_s=deadline_s)
        return bool(resp.get("ready"))

    def stats(self, deadline_s: float | None = None) -> dict:
        return self.request({"op": "stats"}, deadline_s=deadline_s)

    # -- internals ------------------------------------------------------------

    def _backoff(self, attempt: int, deadline: Deadline) -> None:
        delay = backoff_delay(
            attempt, base=self.backoff_base, cap=self.backoff_cap,
            rng=self._rng,
        )
        rem = deadline.remaining()
        if rem is not None:
            delay = min(delay, rem)
        if delay > 0:
            time.sleep(delay)

    @staticmethod
    def _should_failover(resp: dict) -> bool:
        """Fast classified rejections worth retrying elsewhere: a shed
        replica is overloaded, a draining replica is going away."""
        if resp.get("status") == "shed":
            return True
        return (
            resp.get("status") == "rejected"
            and resp.get("error") == "DrainError"
        )

    def _attempt_timeout(self, deadline: Deadline) -> float | None:
        timeout = self.attempt_timeout_s
        rem = deadline.remaining()
        if rem is not None:
            timeout = rem if timeout is None else min(timeout, rem)
        return timeout

    def _connect(self, addr, timeout: float | None) -> socket.socket:
        sock = self._socks.get(addr)
        if sock is not None:
            return sock
        connect_timeout = self.connect_timeout_s
        if timeout is not None:
            connect_timeout = min(connect_timeout, max(0.001, timeout))
        try:
            sock = socket.create_connection(addr, timeout=connect_timeout)
        except OSError as exc:
            raise NetworkError(
                "connect", f"cannot connect to {addr[0]}:{addr[1]}: {exc}"
            ) from None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._socks[addr] = sock
        return sock

    def _attempt(self, addr, payload: dict, deadline: Deadline) -> dict:
        reused = addr in self._socks
        try:
            return self._attempt_once(addr, payload, deadline)
        except NetworkError as exc:
            # Stale keep-alive: the gateway idle-reclaims quiet
            # connections with a clean FIN, so a *reused* socket that
            # sees EOF before a single response byte arrived says
            # nothing about the request — resend once on a fresh
            # connection (the standard keep-alive retry), instead of
            # burning a failover attempt on a healthy replica.  An RST
            # or a partial frame is a real wire failure and still
            # surfaces classified (the retry loop owns those).
            stale = (
                reused
                and exc.kind == "truncated"
                and getattr(exc, "received", 1) == 0
                and getattr(exc, "phase", "") == "frame header"
            )
            if not stale or deadline.expired():
                raise
            self.stale_reconnects += 1
            return self._attempt_once(addr, payload, deadline)

    def _attempt_once(self, addr, payload: dict, deadline: Deadline) -> dict:
        timeout = self._attempt_timeout(deadline)
        sock = self._connect(addr, timeout)
        sock.settimeout(timeout)
        # The *remaining* budget rides the header — transit and queueing
        # on the gateway side spend the caller's budget, not a fresh one.
        frame = encode_frame(payload, deadline_s=deadline.remaining())
        try:
            sock.sendall(frame)
            return self._read_response(sock)
        except NetworkError:
            self._drop_connection(addr)
            raise
        except socket.timeout:
            self._drop_connection(addr)
            raise NetworkError(
                "timeout", f"no complete response within {timeout}s"
            ) from None
        except OSError as exc:
            self._drop_connection(addr)
            raise NetworkError(
                "reset", f"connection failed mid-request: {exc}"
            ) from None

    def _read_response(self, sock: socket.socket) -> dict:
        header = self._read_exact(sock, HEADER_LEN, "frame header")
        _deadline_ms, length = check_header(header)
        rest = self._read_exact(sock, length + 4, "frame body")
        body, crc = rest[:length], rest[length:]
        check_frame(header, body, crc)
        return decode_payload(body)

    @staticmethod
    def _read_exact(sock: socket.socket, n: int, what: str) -> bytes:
        buf = bytearray()
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                exc = NetworkError(
                    "truncated",
                    f"connection closed {len(buf)} bytes into a "
                    f"{n}-byte {what} (torn response)",
                )
                # Structured context for the stale keep-alive retry: a
                # reused connection closed at byte 0 of the *header* is
                # a dead cached socket, not a torn response.
                exc.received = len(buf)
                exc.phase = what
                raise exc
            buf.extend(chunk)
        return bytes(buf)
