"""The self-healing replica fleet (docs/service.md section 9).

Covers the supervisor tier end to end: client-side hash sharding and
the per-call failover ordering, replica spawn + ``LISTENING`` port
discovery, the crash-loop flap suppression (park with a classified
``FleetError``), the wedged-replica probe deadline (a stalled replica
never hangs its prober), the single-replica ``kill -9``
crash-consistency story (no torn cache entry served, quarantine stays
empty, the recompile matches the warm bytes), and a quick fleet chaos
gate (CI runs the full 200-fault campaigns).
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

from repro.errors import classify
from repro.service import (
    DeadlineError,
    FleetError,
    FleetSupervisor,
    GatewayClient,
    KernelService,
    NetworkError,
    ServiceRequest,
)
from repro.service.cache import unpack_kernel
from repro.service.client import parse_address, shard_index

SIZE = 16
FLOW = "split_vec_gcc4cli"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KERNELS = ("saxpy_fp", "dscal_fp", "interp_fp", "sfir_fp")


def _compile_payload(kernel="saxpy_fp", target="sse", size=SIZE):
    return {"op": "compile", "kernel": kernel, "flow": FLOW,
            "target": target, "size": size}


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _wait_dead(pids, timeout=20.0):
    deadline = time.perf_counter() + timeout
    alive = [p for p in pids if _pid_alive(p)]
    while alive and time.perf_counter() < deadline:
        time.sleep(0.05)
        alive = [p for p in pids if _pid_alive(p)]
    return alive


# -- client-side sharding -----------------------------------------------------


def test_shard_index_deterministic_and_pinned():
    """Placement is a pure function of the request shape — pinned
    values guard the canonical shape string against accidental change
    (a silent change would reshuffle every deployed shard map)."""
    p = _compile_payload()
    assert [shard_index(p, n) for n in (1, 2, 3, 5, 8)] == [0, 1, 0, 4, 5]
    assert shard_index(dict(p), 3) == shard_index(p, 3)


def test_shard_index_applies_gateway_defaults():
    """A payload that omits flow/target shards exactly like one that
    spells out the gateway's defaults — the client-side hash must agree
    with the server-side request defaulting."""
    bare = {"op": "compile", "kernel": "saxpy_fp", "size": SIZE}
    full = _compile_payload()
    for n in (2, 3, 5):
        assert shard_index(bare, n) == shard_index(full, n)


def test_shard_index_ignores_non_shape_keys():
    """Only the cache-identity shape contributes: op, deadlines, or any
    future bookkeeping key must not move a request between replicas."""
    base = _compile_payload()
    noisy = dict(base, op="compile", request_id="abc", attempt=7)
    for n in (2, 3, 5):
        assert shard_index(base, n) == shard_index(noisy, n)


def test_shard_index_spreads_across_slots():
    grid = {
        shard_index(_compile_payload(kernel=k, size=s), 3)
        for k in KERNELS
        for s in (8, 16, 24, 32)
    }
    assert len(grid) > 1
    assert grid <= {0, 1, 2}


def _order_client(slots, **kwargs):
    return GatewayClient(lambda: list(slots), **kwargs)


def test_call_order_puts_shard_owner_first():
    slots = [("127.0.0.1", 9001), ("127.0.0.1", 9002), ("127.0.0.1", 9003)]
    payload = _compile_payload()
    owner = slots[shard_index(payload, 3)]
    c = _order_client(slots, seed=3)
    for _ in range(8):
        order = c._call_order(payload)
        assert order[0] == owner
        assert sorted(order) == sorted(slots)  # every live replica once


def test_call_order_skips_downed_owner_slot():
    payload = _compile_payload()
    slots: list = [("127.0.0.1", 9001), ("127.0.0.1", 9002),
                   ("127.0.0.1", 9003)]
    owner_idx = shard_index(payload, 3)
    downed = slots[owner_idx]
    slots[owner_idx] = None
    c = _order_client(slots, seed=3)
    order = c._call_order(payload)
    assert downed not in order
    assert sorted(order) == sorted(a for a in slots if a is not None)


def test_call_order_demotes_recently_failed_owner():
    """A shard owner that just died must not eat a connect failure on
    every call: within the cooldown it rides at the back of the order,
    after the cooldown it is first in line again."""
    payload = _compile_payload()
    slots = [("127.0.0.1", 9001), ("127.0.0.1", 9002), ("127.0.0.1", 9003)]
    owner = slots[shard_index(payload, 3)]
    c = _order_client(slots, seed=3, dead_cooldown_s=30.0)
    c._failed_at[owner] = time.monotonic()
    order = c._call_order(payload)
    assert order[-1] == owner and order[0] != owner
    c._failed_at[owner] = time.monotonic() - 60.0  # cooldown expired
    assert c._call_order(payload)[0] == owner


def test_call_order_zero_capacity_is_classified():
    c = _order_client([None, None, None], seed=0)
    with pytest.raises(NetworkError):
        c._call_order(_compile_payload())


def test_request_zero_capacity_raises_after_retries():
    c = _order_client([None, None], retries=1, backoff_base=0.001,
                      backoff_cap=0.002, seed=0)
    with pytest.raises(NetworkError):
        c.request(_compile_payload(), deadline_s=1.0)
    assert classify(NetworkError("connect", "x")) == "NetworkError"


# -- supervisor over stub children -------------------------------------------


class _StubFleet(FleetSupervisor):
    """A supervisor over arbitrary stub children: anything that speaks
    the ``LISTENING host:port`` stdout contract can be supervised."""

    def __init__(self, script: str, replicas: int = 1, **kwargs):
        self._script = script
        super().__init__(replicas, cache_dir="/nonexistent-unused",
                         **kwargs)

    def _replica_command(self, index):
        return [sys.executable, "-u", "-c", self._script]


_ANNOUNCE_AND_HOLD = """
import socket, time
s = socket.socket()
s.bind(("127.0.0.1", 0))
s.listen(8)
print("LISTENING 127.0.0.1:%d" % s.getsockname()[1], flush=True)
conns = []
while True:
    c, _ = s.accept()   # accept, then wedge: never answer a frame
    conns.append(c)
"""

_CRASH_LOOP = """
import socket, sys
s = socket.socket()
s.bind(("127.0.0.1", 0))
print("LISTENING 127.0.0.1:%d" % s.getsockname()[1], flush=True)
sys.exit(13)
"""

_NEVER_ANNOUNCE = """
import time
time.sleep(600)
"""


def test_supervisor_discovers_announced_ports():
    sup = _StubFleet(_ANNOUNCE_AND_HOLD, replicas=2,
                     probe_interval_s=60.0, probe_timeout_s=1.0,
                     spawn_timeout_s=15.0, seed=0)
    with sup:
        slots = sup.slots()
        assert len(slots) == 2
        assert all(a is not None for a in slots)
        assert all(a[0] == "127.0.0.1" and a[1] > 0 for a in slots)
        assert slots[0][1] != slots[1][1]
        assert sup.ready() == {"ready": True, "degraded": False,
                               "up": 2, "parked": 0, "replicas": 2}
        pids = sup.replica_pids()
        assert len(pids) == 2
    assert _wait_dead(list(pids.values())) == []
    assert sup.ready()["ready"] is False


def test_serve_replicas_forwards_the_service_bounds(monkeypatch, tmp_path):
    """``repro serve --replicas N`` hands the supervisor its ``--jobs``,
    ``--queue-limit`` and ``--seed`` (the replicas' only bounds), and the
    supervisor hands them to every child, seeding each one apart."""
    from repro import cli
    from repro.service import supervisor

    seen = {}

    class Recorded(Exception):
        pass

    class Recorder:
        def __init__(self, **kwargs):
            seen.update(kwargs)

        def start(self):
            raise Recorded()

        def stop(self):
            pass

    monkeypatch.setattr(supervisor, "FleetSupervisor", Recorder)
    handlers = {s: signal.getsignal(s)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        with pytest.raises(Recorded):
            cli.main(["serve", "--replicas", "2", "--cache-dir",
                      str(tmp_path), "-j", "3", "--queue-limit", "9",
                      "--seed", "5"])
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    assert seen == {"replicas": 2, "cache_dir": str(tmp_path),
                    "workers": 3, "queue_limit": 9, "seed": 5}

    cmd = FleetSupervisor(**seen)._replica_command(1)
    opts = {flag: cmd[i + 1] for i, flag in enumerate(cmd)
            if flag.startswith("--")}
    assert (opts["--jobs"], opts["--queue-limit"], opts["--seed"]) == (
        "3", "9", "6")


def test_spawn_timeout_raises_classified_and_tears_down():
    sup = _StubFleet(_NEVER_ANNOUNCE, replicas=1, spawn_timeout_s=0.5,
                     seed=0)
    with pytest.raises(FleetError) as exc:
        sup.start()
    assert exc.value.kind == "spawn"
    assert classify(exc.value) == "FleetError"
    assert _wait_dead(list(sup.pid_history()[0])) == []


def test_crash_loop_parks_with_classified_fleet_error():
    """Flap suppression: a replica that dies faster than its restart
    budget is parked with a classified FleetError, and readiness
    reports the lost capacity honestly."""
    sup = _StubFleet(_CRASH_LOOP, replicas=1,
                     probe_interval_s=0.05, probe_timeout_s=0.5,
                     restart_backoff_base=0.01, restart_backoff_cap=0.02,
                     restart_budget=2, restart_window_s=30.0,
                     spawn_timeout_s=15.0, seed=0)
    try:
        sup.start()
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            if sup.stats()["parked"] == 1:
                break
            time.sleep(0.05)
        st = sup.stats()
        assert st["parked"] == 1, st
        assert st["restarts"] == 2
        r = sup._replicas[0]
        assert isinstance(r.error, FleetError)
        assert r.error.kind == "parked"
        assert classify(r.error) == "FleetError"
        assert sup.slots() == [None]
        assert sup.ready() == {"ready": False, "degraded": True,
                               "up": 0, "parked": 1, "replicas": 1}
        # every dead incarnation actually reaped
        assert _wait_dead(sup.pid_history()[0]) == []
    finally:
        sup.stop()


def test_wedged_replica_stalls_prober_at_most_probe_timeout():
    """Satellite regression: a replica that accepts connections but
    never answers (the SlowWire-stall failure mode) costs its prober at
    most ``probe_timeout_s`` per probe — the supervisor detects the
    wedge and acts within a few probe budgets, never hanging on it."""
    sup = _StubFleet(_ANNOUNCE_AND_HOLD, replicas=1,
                     probe_interval_s=0.05, probe_timeout_s=0.4,
                     probe_failures=2,
                     restart_backoff_base=0.01, restart_backoff_cap=0.02,
                     restart_budget=1, restart_window_s=30.0,
                     spawn_timeout_s=15.0, seed=0)
    t0 = time.perf_counter()
    try:
        sup.start()
        deadline = time.perf_counter() + 20.0
        while time.perf_counter() < deadline:
            if sup.stats()["parked"] == 1:
                break
            time.sleep(0.05)
        elapsed = time.perf_counter() - t0
        st = sup.stats()
        assert st["parked"] == 1, st
        assert "wedged" in str(sup._replicas[0].error)
        # 2 probe failures x 0.4s budget + slack: the prober was never
        # on the hook for longer than its per-probe deadline.
        assert elapsed < 15.0, f"wedge detection took {elapsed:.1f}s"
    finally:
        sup.stop()


def test_probe_deadline_rides_the_frame_header():
    """The probe's deadline is the frame header's, not just a socket
    timeout: a directly probed wedged endpoint raises a classified
    failure within the probe budget."""
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(8)
    held = []
    stop = threading.Event()

    def _hold():
        srv.settimeout(0.2)
        while not stop.is_set():
            try:
                held.append(srv.accept()[0])
            except socket.timeout:
                continue
            except OSError:
                return

    t = threading.Thread(target=_hold, daemon=True)
    t.start()
    c = GatewayClient([srv.getsockname()], retries=0,
                      attempt_timeout_s=0.4, connect_timeout_s=0.4, seed=0)
    t0 = time.perf_counter()
    try:
        with pytest.raises((NetworkError, DeadlineError)):
            c.request({"op": "health"}, deadline_s=0.4)
    finally:
        elapsed = time.perf_counter() - t0
        c.close()
        stop.set()
        t.join(timeout=5.0)
        srv.close()
        for s in held:
            s.close()
    assert elapsed < 5.0


# -- real-gateway fleet -------------------------------------------------------


def test_fleet_serves_shards_and_heals_after_sigkill(tmp_path):
    """End to end on real gateways: spawn 2 replicas over one cache
    dir, serve a compile through the sharded client, verify warm
    byte-identity from *each* replica, SIGKILL one replica, and watch
    the supervisor respawn it (new pid) while the client keeps
    getting answers."""
    from repro.service.wire import encode_payload

    sup = FleetSupervisor(
        2, str(tmp_path), workers=2,
        probe_interval_s=0.1, probe_timeout_s=2.0, probe_failures=3,
        restart_backoff_base=0.02, restart_backoff_cap=0.1,
        restart_budget=100, spawn_timeout_s=60.0, seed=0,
    )
    with sup:
        client = sup.client(retries=8, backoff_base=0.02,
                            backoff_cap=0.4, dead_cooldown_s=0.2, seed=0)
        try:
            resp = client.compile_run("saxpy_fp", size=SIZE,
                                      deadline_s=120.0)
            assert resp["status"] == "ok"
            # warm read-through: each replica serves the same envelope
            blobs = set()
            for addr in sup.slots():
                assert addr is not None
                direct = GatewayClient([addr], retries=2, seed=1)
                try:
                    r = direct.request(_compile_payload(),
                                       deadline_s=60.0)
                finally:
                    direct.close()
                assert r["status"] == "ok" and r["from_cache"], r
                blobs.add(encode_payload(r["result"]))
            assert len(blobs) == 1, "warm bytes diverge across replicas"

            old_pid = sup.replica_pids()[0]
            assert sup.kill(0, signal.SIGKILL) == old_pid
            # the client rides through while the slot is down
            resp = client.compile_run("saxpy_fp", size=SIZE,
                                      deadline_s=120.0)
            assert resp["status"] == "ok"
            deadline = time.perf_counter() + 60.0
            while time.perf_counter() < deadline:
                pids = sup.replica_pids()
                if (sup.up_count() == 2
                        and pids.get(0) not in (None, old_pid)):
                    break
                time.sleep(0.05)
            assert sup.up_count() == 2, sup.stats()
            assert sup.replica_pids()[0] != old_pid, sup.stats()
            assert sup.stats()["restarts"] >= 1
        finally:
            client.close()
        history = [p for pids in sup.pid_history().values() for p in pids]
    assert _wait_dead(history) == []


# -- single-replica kill -9 crash consistency ---------------------------------


def _audit_cache(cache_root: str):
    """Every committed envelope verifies; quarantine empty; returns the
    (possibly empty) list of committed entry names."""
    entries = []
    for name in os.listdir(cache_root):
        path = os.path.join(cache_root, name)
        if name.endswith(".vbk"):
            with open(path, "rb") as fh:
                unpack_kernel(fh.read())  # raises CacheError if torn
            entries.append(name)
    qdir = os.path.join(cache_root, "quarantine")
    assert not os.path.isdir(qdir) or os.listdir(qdir) == []
    return entries


def test_sigkill_mid_cold_compile_leaves_consistent_cache(tmp_path):
    """kill -9 a gateway mid-cold-compile: the shared cache holds no
    torn committed entry, nothing gets quarantined, and a successor
    service over the same directory recompiles the key to the exact
    bytes it then serves warm."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "serve", "--listen",
         "127.0.0.1:0", "--cache-dir", str(tmp_path)],
        env=env, cwd=str(REPO_ROOT), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("LISTENING "), line
        addr = parse_address(line.split()[1])
        outcome: dict = {}

        def _compile():
            c = GatewayClient([addr], retries=0, seed=0)
            try:
                outcome["resp"] = c.request(_compile_payload(),
                                            deadline_s=120.0)
            except (NetworkError, DeadlineError) as exc:
                outcome["exc"] = exc
            finally:
                c.close()

        t = threading.Thread(target=_compile)
        t.start()
        time.sleep(0.06)  # land inside the cold compile
        os.kill(proc.pid, signal.SIGKILL)
        t.join(timeout=60.0)
        assert not t.is_alive()
        proc.wait(timeout=10.0)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.wait(timeout=10.0)

    # the in-flight caller saw a classified wire failure or a completed
    # answer — never a torn frame handed up as a result
    if "exc" in outcome:
        assert classify(outcome["exc"]) in ("NetworkError", "DeadlineError")
    else:
        assert outcome["resp"]["status"] == "ok"

    _audit_cache(str(tmp_path))

    # a successor over the same directory recovers the key: cold (or
    # warm, if the killed replica's write landed) first, then
    # byte-identical warm
    svc = KernelService(cache_dir=str(tmp_path), seed=0, workers=2)
    try:
        first = svc.handle(ServiceRequest(
            kernel="saxpy_fp", flow=FLOW, target="sse", size=SIZE))
        assert first.status == "ok", first
        warm = svc.handle(ServiceRequest(
            kernel="saxpy_fp", flow=FLOW, target="sse", size=SIZE))
        assert warm.status == "ok" and warm.from_cache
        assert warm.result == first.result
    finally:
        svc.close()
    entries = _audit_cache(str(tmp_path))
    assert entries, "recompile never committed an envelope"


# -- quick fleet chaos gate ---------------------------------------------------


#: the (layer, kernel) stream of the gate below, recorded once.  The
#: campaign RNG draws each trial's layer and kernel; the kill layers
#: ignore that kernel and draw a cold one from the soak's own seeded
#: RNG, so the list moves only when the seed, the weights or the draw
#: order do.
FLEET_GATE_STREAM = [
    ("fl-plain", "saxpy_fp"), ("fl-kill-wire", "saxpy_fp"),
    ("fl-kill-write", "sfir_fp"), ("fl-kill-write", "saxpy_fp"),
    ("fl-plain", "saxpy_fp"), ("fl-plain", "saxpy_fp"),
    ("fl-warm-identity", "sfir_fp"), ("fl-kill-compile", "interp_fp"),
    ("fl-warm-identity", "interp_fp"), ("fl-kill-wire", "saxpy_fp"),
    ("fl-kill-write", "interp_fp"), ("fl-kill-write", "interp_fp"),
    ("fl-park", "*"), ("fl-cache-audit", "*"), ("fl-leak-audit", "*"),
    ("fl-final", "*"),
]


@pytest.fixture(scope="module")
def fleet_campaign():
    """One quick fleet soak shared by the assertions below (the CI
    fleet-soak job runs the full 200-fault campaigns at both pinned
    seeds; this keeps tier-1 honest without the full bill)."""
    from repro.harness.chaos import run_campaign

    return run_campaign("fleet", n_faults=12, seed=2026, replicas=3)


def test_fleet_campaign_invariant_holds(fleet_campaign):
    assert fleet_campaign.ok, fleet_campaign.summary()


def test_fleet_campaign_ran_its_epilogues(fleet_campaign):
    """The scripted epilogues always run: flap->park classification,
    the full shared-cache audit, the killed-pid leak audit, and the
    final full-capacity readiness check."""
    outcomes = {t.outcome for t in fleet_campaign.trials}
    assert "parked-classified" in outcomes
    assert "cache-clean" in outcomes
    assert "reaped" in outcomes
    assert "fleet-ready" in outcomes


def test_fleet_campaign_injected_kills(fleet_campaign):
    stats = fleet_campaign.service_stats
    assert stats["kills"] >= 1
    assert stats["ready"]["ready"] is True
    assert stats["ready"]["degraded"] is False
    assert stats["fleet"]["restarts"] >= stats["kills"]


def test_fleet_campaign_stream_pinned(fleet_campaign):
    assert [
        (t.layer, t.kernel) for t in fleet_campaign.trials
    ] == FLEET_GATE_STREAM
