"""Single-flight compile coalescing.

The paper's bargain is that the online stage is *cheap* — linear-time
materialization per target — but "cheap" still isn't free, and under
concurrent load two classic serialization bugs eat the worker pool:

* **cache stampede** — N concurrent misses for the same
  :class:`~repro.service.cache.CacheKey` do N redundant compiles.  The
  fix is *single-flight* (à la Go's ``golang.org/x/sync/singleflight``):
  the first requester becomes the **leader** and compiles; every
  concurrent requester for the same key becomes a **follower** that
  blocks on the leader's :class:`threading.Event` and shares its
  :class:`~repro.jit.compilers.CompiledKernel`.
* **global critical section** — one service-wide lock around compilation
  means the pool adds zero compile throughput.  The fix is *scoped*
  locking: a flight serializes only identical compiles, and the offline
  stage builds under one lock per VaporC program
  (:class:`~repro.harness.flows.FlowRunner`), so distinct
  kernels/targets proceed genuinely in parallel.

The primitive is deliberately tiny, stdlib-only, and deterministic (no
wall-clock state), so the seeded chaos campaigns stay reproducible.
"""

from __future__ import annotations

import copy
import threading

__all__ = ["Flight", "SingleFlight"]


def _follower_copy(exc: BaseException) -> BaseException:
    """A per-follower clone of the leader's exception.

    Re-raising one shared exception object from N follower threads is a
    data race on the object itself: every ``raise`` rewrites
    ``__traceback__`` (and ``__context__`` when raised inside an
    ``except`` block), so concurrent followers corrupt each other's
    tracebacks.  Each follower therefore raises its own shallow copy,
    chained (``__cause__``) to the original so the leader's traceback
    stays reachable — and untouched.

    Exception classes with custom ``__init__`` signatures (e.g.
    ``OverloadError(depth, limit)``) can't be rebuilt via
    ``type(exc)(*exc.args)``; allocate without ``__init__`` and copy
    ``args`` plus instance state instead.
    """
    cls = type(exc)
    try:
        clone = cls.__new__(cls)
        clone.args = exc.args
        state = getattr(exc, "__dict__", None)
        if state:
            clone.__dict__.update(state)
    except Exception:
        try:
            clone = copy.copy(exc)
        except Exception:
            return exc  # last resort: the shared object beats no error
    clone.__cause__ = exc
    clone.__suppress_context__ = True
    return clone


class Flight:
    """One in-flight computation: an event plus its eventual outcome.

    The leader calls exactly one of :meth:`resolve` / :meth:`reject`;
    followers :meth:`wait` and then read ``value`` / ``exc``.  A flight
    settles exactly once (``settled`` guards double-completion in
    defensive paths).
    """

    __slots__ = ("_event", "value", "exc", "settled")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.value = None
        self.exc: BaseException | None = None
        self.settled = False

    def resolve(self, value) -> None:
        self.value = value
        self.settled = True
        self._event.set()

    def reject(self, exc: BaseException) -> None:
        self.exc = exc
        self.settled = True
        self._event.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the flight settles; False on timeout."""
        return self._event.wait(timeout)

    def outcome(self):
        """The settled value, re-raising the leader's exception.

        Only call after :meth:`wait` returned True.  Each caller gets
        its *own* copy of the leader's exception (chained to the
        original via ``__cause__``): concurrent re-raises of one shared
        object would race on its ``__traceback__``.
        """
        if self.exc is not None:
            raise _follower_copy(self.exc)
        return self.value


class SingleFlight:
    """A per-key in-flight table: leaders compute, followers share.

    ::

        flight, leader = sf.begin(key)
        if leader:
            try:
                flight.resolve(compute())
            except BaseException as exc:
                flight.reject(exc)
                raise
            finally:
                sf.end(key, flight)
            value = flight.value
        else:
            flight.wait()
            value = flight.outcome()   # re-raises the leader's failure

    The table only coalesces *concurrent* duplicates: ``end`` removes the
    key, so a later request for the same key starts a fresh flight (and,
    in the service, normally hits the persistent cache instead).
    Followers share the leader's failure too — one deterministic compile
    error answers every coalesced request instead of burning N compiles
    rediscovering it; the per-request retry loop above still retries with
    its own fresh flight.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: dict = {}
        #: lifetime counters (exposed by ``KernelService.stats()``).
        self.leaders = 0
        self.followers = 0
        self.usurped = 0

    def begin(self, key) -> tuple[Flight, bool]:
        """(flight, is_leader) for ``key``.

        The first caller for a key gets ``is_leader=True`` and *must*
        settle the flight and call :meth:`end`; concurrent callers get
        the same flight with ``is_leader=False``.
        """
        with self._lock:
            flight = self._inflight.get(key)
            if flight is None:
                flight = self._inflight[key] = Flight()
                self.leaders += 1
                return flight, True
            self.followers += 1
            return flight, False

    def end(self, key, flight: Flight) -> None:
        """Retire ``flight`` so later requests start fresh.

        Identity-checked: a stale ``end`` (defensive double-call) never
        removes a newer flight for the same key.
        """
        with self._lock:
            if self._inflight.get(key) is flight:
                del self._inflight[key]

    def usurp(self, key, flight: Flight) -> bool:
        """Depose a wedged leader: retire ``flight`` *without* settling it.

        The compile-budget watchdog calls this when a follower has waited
        out its patience on a leader that looks dead (crashed before
        settling, or wedged mid-compile).  Identity-checked like
        :meth:`end` — if the table already moved on to a newer flight for
        the key, this is a no-op.  After a successful usurp the caller
        loops back through :meth:`begin` and becomes the new leader (or a
        follower of whoever beat it there); the deposed leader's eventual
        ``end`` is harmless because it no longer matches.  Returns True
        when the stale flight was actually removed.
        """
        with self._lock:
            if self._inflight.get(key) is flight:
                del self._inflight[key]
                self.usurped += 1
                return True
            return False

    def inflight(self) -> int:
        """Number of keys currently being computed (for surfaces/tests)."""
        with self._lock:
            return len(self._inflight)

    def stats(self) -> dict:
        with self._lock:
            return {
                "leaders": self.leaders,
                "followers": self.followers,
                "usurped": self.usurped,
                "inflight": len(self._inflight),
            }
