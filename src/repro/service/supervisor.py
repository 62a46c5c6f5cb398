"""Self-healing replica fleet: supervised sharded gateway processes.

One :class:`FleetSupervisor` turns N single-process gateways
(``serve --listen``) into a serving *tier*: N child processes share one
crash-safe cache directory (the cross-replica coalescing substrate from
:mod:`repro.service.cache` — ``.lead`` TTL markers, atomic VBK1 writes,
quarantine self-healing), while clients hash-shard placement by request
shape (:func:`repro.service.client.shard_index`) so every cache key has
one deliberate home replica and failover walks the live remainder.

The supervisor's job is the part the paper never had to worry about:
**the hardware under a replica dies**.  Concretely —

* **spawn + discovery** — each replica binds an ephemeral port
  (``--listen 127.0.0.1:0``) and announces it on stdout as a
  machine-readable ``LISTENING host:port`` line *before* readiness
  flips; a per-child reader thread scans for it (and keeps draining
  stdout so a chatty child can never block on a full pipe);
* **liveness** — one manager thread per replica probes the wire
  ``health`` verb under ``probe_timeout_s``; the deadline rides the
  frame header, so a wedged replica stalls *its own prober* for at most
  one probe budget and never the rest of the fleet.  A dead process
  (``poll()``), a silent spawn (no announcement within
  ``spawn_timeout_s``), or ``probe_failures`` consecutive probe misses
  all mean the same thing: restart;
* **restart policy** — jittered exponential backoff
  (:func:`repro.harness.parallel.backoff_delay`, the toolchain's one
  retry curve) between respawns, with **flap suppression**: more than
  ``restart_budget`` restarts inside ``restart_window_s`` parks the
  replica with a classified :class:`FleetError` instead of burning CPU
  on a crash loop.  A parked slot reads ``None`` in :meth:`slots`, so
  sharded clients route around it; fleet readiness reports the degraded
  capacity honestly.

Crash consistency is inherited, not re-implemented: a ``kill -9`` mid
cache write leaves only a ``*.tmp`` the index never reads, a killed
leader's stale ``.lead`` marker is reclaimed by any survivor after the
marker TTL, and the farm workers of the dead replica reap themselves
via the parent-death watchdog (:mod:`repro.service.farm`).  The
``chaos --profile fleet`` campaign SIGKILLs replicas at exactly those
moments and asserts all of it end-to-end (docs/resilience.md).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

from .. import obs
from ..errors import ReproError
from ..harness.parallel import backoff_delay
from .admission import DeadlineError
from .client import GatewayClient, parse_address
from .wire import NetworkError

__all__ = ["FleetError", "FleetSupervisor", "Replica"]


class FleetError(ReproError):
    """Classified fleet-capacity failure.

    ``kind`` is machine-readable: ``parked`` (a replica exhausted its
    restart budget and was taken out of rotation), ``spawn`` (a replica
    never announced its port), ``no-capacity`` (no live replica left to
    serve), ``closed`` (supervisor already stopped).
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"[{kind}] {message}")
        self.kind = kind


class Replica:
    """One supervised gateway child: process, address, and life story."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.state = "stopped"  # starting|up|backoff|parked|stopped
        self.announced = threading.Event()
        self.spawned_at = 0.0
        self.probe_failures = 0
        self.restarts = 0          # lifetime respawn count
        self.restart_times: list[float] = []  # inside the flap window
        self.error: FleetError | None = None
        #: pids this slot has ever run — the chaos campaign audits that
        #: every dead incarnation (and its farm) is actually gone.
        self.pid_history: list[int] = []

    def snapshot(self) -> dict:
        return {
            "index": self.index,
            "state": self.state,
            "address": (
                f"{self.address[0]}:{self.address[1]}"
                if self.address else None
            ),
            "pid": self.proc.pid if self.proc is not None else None,
            "restarts": self.restarts,
            "probe_failures": self.probe_failures,
            "error": str(self.error) if self.error else None,
        }


class FleetSupervisor:
    """Spawn, probe, and heal N gateway replicas over one cache dir.

    ``probe_timeout_s`` bounds every liveness probe end-to-end (it rides
    the wire frame header, so even a replica wedged *mid-handler* cannot
    hold a prober past it).  ``restart_budget`` restarts within
    ``restart_window_s`` parks a flapping replica with a classified
    :class:`FleetError`.  Tests (and the wedged-replica regression)
    override :meth:`_replica_command` to supervise arbitrary children
    that speak the same ``LISTENING host:port`` contract.
    """

    def __init__(
        self,
        replicas: int,
        cache_dir: str,
        *,
        farm_workers: int = 0,
        workers: int = 4,
        queue_limit: int = 64,
        max_inflight: int = 64,
        marker_ttl_s: float | None = None,
        farm_budget_s: float | None = None,
        probe_interval_s: float = 0.2,
        probe_timeout_s: float = 1.0,
        probe_failures: int = 3,
        spawn_timeout_s: float = 20.0,
        restart_backoff_base: float = 0.05,
        restart_backoff_cap: float = 2.0,
        restart_budget: int = 5,
        restart_window_s: float = 30.0,
        seed: int = 0,
    ) -> None:
        if replicas < 1:
            raise ValueError("need at least one replica")
        self.cache_dir = str(cache_dir)
        self.farm_workers = int(farm_workers)
        self.workers = int(workers)
        self.queue_limit = int(queue_limit)
        self.max_inflight = int(max_inflight)
        self.marker_ttl_s = marker_ttl_s
        self.farm_budget_s = farm_budget_s
        self.probe_interval_s = float(probe_interval_s)
        self.probe_timeout_s = float(probe_timeout_s)
        self.probe_failures = int(probe_failures)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.restart_backoff_base = float(restart_backoff_base)
        self.restart_backoff_cap = float(restart_backoff_cap)
        self.restart_budget = int(restart_budget)
        self.restart_window_s = float(restart_window_s)
        self.seed = int(seed)
        self._replicas = [Replica(i) for i in range(replicas)]
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._managers: list[threading.Thread] = []
        self._started = False
        self._closed = False
        self._restart_total = 0

    # -- child command seam ---------------------------------------------------

    def _replica_command(self, index: int) -> list[str]:
        """The child command line for replica ``index``.

        Overridable seam: anything that prints ``LISTENING host:port``
        on stdout and speaks the gateway wire protocol can be
        supervised (tests use it to plant wedged or crashing stubs).
        """
        cmd = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--listen", "127.0.0.1:0",
            "--cache-dir", self.cache_dir,
            "--farm-workers", str(self.farm_workers),
            "--jobs", str(self.workers),
            "--queue-limit", str(self.queue_limit),
            "--max-inflight", str(self.max_inflight),
            "--seed", str(self.seed + index),
        ]
        if self.marker_ttl_s is not None:
            cmd += ["--marker-ttl", str(self.marker_ttl_s)]
        if self.farm_budget_s is not None:
            cmd += ["--farm-budget", str(self.farm_budget_s)]
        return cmd

    def _child_env(self) -> dict:
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(src)  # .../src/repro/service -> .../src
        prev = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + prev if prev else "")
        return env

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Spawn every replica and block until the fleet is ready.

        Raises :class:`FleetError` (``spawn``) if any replica fails to
        announce its port within ``spawn_timeout_s`` — the fleet is torn
        back down before raising, never left half-up.
        """
        if self._started:
            raise FleetError("closed", "supervisor already started")
        self._started = True
        with obs.span("supervisor.start", phase="service",
                      replicas=len(self._replicas)):
            for r in self._replicas:
                self._spawn(r)
            deadline = time.monotonic() + self.spawn_timeout_s
            for r in self._replicas:
                rem = max(0.0, deadline - time.monotonic())
                if not r.announced.wait(rem):
                    self.stop()
                    raise FleetError(
                        "spawn",
                        f"replica {r.index} announced no port within "
                        f"{self.spawn_timeout_s:.1f}s",
                    )
        for r in self._replicas:
            t = threading.Thread(
                target=self._manage, args=(r,),
                name=f"repro-fleet-manage-{r.index}", daemon=True,
            )
            t.start()
            self._managers.append(t)
        obs.gauge("supervisor.replicas_up", self.up_count())

    def stop(self) -> None:
        """Stop managers, then drain children politely (SIGTERM, then
        SIGKILL escalation).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        for t in self._managers:
            t.join(timeout=10.0)
        procs = []
        with self._lock:
            for r in self._replicas:
                if r.proc is not None and r.proc.poll() is None:
                    try:
                        r.proc.terminate()
                    except OSError:
                        pass
                    procs.append(r.proc)
                r.state = "stopped" if r.state != "parked" else "parked"
                r.address = None
        deadline = time.monotonic() + 10.0
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- topology -------------------------------------------------------------

    def slots(self) -> list:
        """Current replica slot list for sharded clients: one entry per
        replica index, ``(host, port)`` when serving, ``None`` when
        down/backing-off/parked — so the shard *map* stays stable while
        availability changes underneath it."""
        with self._lock:
            return [
                r.address if r.state == "up" else None
                for r in self._replicas
            ]

    def client(self, **kwargs) -> GatewayClient:
        """A sharded client bound to the live topology."""
        return GatewayClient(self.slots, **kwargs)

    def up_count(self) -> int:
        with self._lock:
            return sum(1 for r in self._replicas if r.state == "up")

    def ready(self) -> dict:
        """Fleet readiness, honest about degraded capacity."""
        with self._lock:
            up = sum(1 for r in self._replicas if r.state == "up")
            parked = sum(1 for r in self._replicas if r.state == "parked")
        total = len(self._replicas)
        return {
            "ready": up > 0,
            "degraded": up < total,
            "up": up,
            "parked": parked,
            "replicas": total,
        }

    def stats(self) -> dict:
        with self._lock:
            snaps = [r.snapshot() for r in self._replicas]
            restarts = self._restart_total
        return {
            "restarts": restarts,
            "parked": sum(1 for s in snaps if s["state"] == "parked"),
            "replicas": snaps,
        }

    def replica_pids(self) -> dict:
        """index -> live child pid (absent while down)."""
        with self._lock:
            return {
                r.index: r.proc.pid
                for r in self._replicas
                if r.proc is not None and r.proc.poll() is None
            }

    def pid_history(self) -> dict:
        """index -> every pid that slot ever ran (for post-mortem
        leak audits)."""
        with self._lock:
            return {r.index: list(r.pid_history) for r in self._replicas}

    def kill(self, index: int, sig: int = signal.SIGKILL) -> int | None:
        """Send ``sig`` to replica ``index`` (chaos driver hook).
        Returns the pid signalled, or ``None`` if the slot was down."""
        with self._lock:
            r = self._replicas[index]
            proc = r.proc
        if proc is None or proc.poll() is not None:
            return None
        try:
            os.kill(proc.pid, sig)
        except ProcessLookupError:
            return None
        return proc.pid

    # -- internals ------------------------------------------------------------

    def _spawn(self, r: Replica) -> None:
        cmd = self._replica_command(r.index)
        with obs.span("supervisor.spawn", phase="service", replica=r.index):
            proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                env=self._child_env(),
            )
        with self._lock:
            r.proc = proc
            r.address = None
            r.state = "starting"
            r.announced = threading.Event()
            r.spawned_at = time.monotonic()
            r.probe_failures = 0
            r.pid_history.append(proc.pid)
        obs.count("supervisor.spawned")
        threading.Thread(
            target=self._read_child, args=(r, proc),
            name=f"repro-fleet-stdout-{r.index}", daemon=True,
        ).start()

    def _read_child(self, r: Replica, proc: subprocess.Popen) -> None:
        """Scan the child's stdout for the ``LISTENING host:port``
        announcement, then keep draining so the pipe never fills."""
        announced = r.announced
        stdout = proc.stdout
        if stdout is None:
            return
        try:
            for line in stdout:
                if not announced.is_set() and line.startswith("LISTENING "):
                    try:
                        addr = parse_address(line.split()[1])
                    except (IndexError, ValueError):
                        continue
                    with self._lock:
                        # only adopt the announcement if this proc is
                        # still the slot's current incarnation
                        if r.proc is proc and not self._stop.is_set():
                            r.address = addr
                            r.state = "up"
                    announced.set()
                    obs.gauge("supervisor.replicas_up", self.up_count())
        except (OSError, ValueError):
            pass
        finally:
            try:
                stdout.close()
            except OSError:
                pass

    def _probe(self, r: Replica) -> bool:
        """One liveness probe under its own wire deadline.

        *Any* well-formed response proves the replica is alive and
        dispatching (even a shed — overload is not death); only a wire
        failure or an expired probe deadline counts against it.  The
        deadline rides the frame header, so the gateway itself retires
        the probe if its handler wedges — the prober is never on the
        hook for longer than ``probe_timeout_s``.
        """
        with self._lock:
            addr = r.address
        if addr is None:
            return False
        client = GatewayClient(
            [addr], retries=0,
            attempt_timeout_s=self.probe_timeout_s,
            connect_timeout_s=self.probe_timeout_s,
            seed=self.seed + r.index,
        )
        try:
            resp = client.request(
                {"op": "health"}, deadline_s=self.probe_timeout_s
            )
            return isinstance(resp, dict)
        except (NetworkError, DeadlineError):
            return False
        finally:
            client.close()

    def _manage(self, r: Replica) -> None:
        """Per-replica manager loop: death watch, liveness probes,
        restart with backoff, flap suppression."""
        while not self._stop.wait(self.probe_interval_s):
            with self._lock:
                state, proc = r.state, r.proc
            if state == "parked":
                return
            if proc is None:
                continue
            rc = proc.poll()
            if rc is not None:
                self._restart(r, f"process exited rc={rc}")
                continue
            if not r.announced.is_set():
                if time.monotonic() - r.spawned_at > self.spawn_timeout_s:
                    self._restart(r, "no port announcement")
                continue
            if self._probe(r):
                r.probe_failures = 0
                continue
            r.probe_failures += 1
            obs.count("supervisor.probe_failures")
            if r.probe_failures >= self.probe_failures:
                self._restart(
                    r, f"wedged ({r.probe_failures} probe failures)"
                )

    def _restart(self, r: Replica, reason: str) -> None:
        """Tear down a dead/wedged incarnation and respawn with backoff
        — or park the replica when it flaps past its restart budget."""
        with self._lock:
            r.state = "backoff"
            r.address = None
            proc, r.proc = r.proc, None
        obs.gauge("supervisor.replicas_up", self.up_count())
        if proc is not None:
            try:
                proc.kill()
            except OSError:
                pass
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass
        now = time.monotonic()
        with self._lock:
            r.restart_times = [
                t for t in r.restart_times
                if now - t < self.restart_window_s
            ]
            if len(r.restart_times) >= self.restart_budget:
                r.state = "parked"
                r.error = FleetError(
                    "parked",
                    f"replica {r.index} parked: {len(r.restart_times)} "
                    f"restarts within {self.restart_window_s:.0f}s "
                    f"(last cause: {reason})",
                )
                obs.count("supervisor.parked")
                return
            r.restart_times.append(now)
            r.restarts += 1
            self._restart_total += 1
            attempt = len(r.restart_times)
        obs.count("supervisor.restarts")
        with obs.span("supervisor.restart", phase="service",
                      replica=r.index, reason=reason, attempt=attempt):
            delay = backoff_delay(
                attempt,
                base=self.restart_backoff_base,
                cap=self.restart_backoff_cap,
            )
            obs.observe("supervisor.restart_backoff_seconds", delay)
            if self._stop.wait(delay):
                return
            self._spawn(r)
