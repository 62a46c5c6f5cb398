"""Bounded admission and per-request deadlines for the service.

A long-running compile service meeting "heavy traffic from millions of
users" (ROADMAP) has one non-negotiable property: *it sheds load instead
of falling over*.  Admission is a bounded counter — a request either gets
a slot or is rejected immediately with a classified
:class:`OverloadError` (cheap for the caller to retry elsewhere), never
parked in an unbounded queue that converts overload into latency and
latency into memory exhaustion.

Deadlines are plain data (:class:`Deadline`) carried by the request and
*propagated* into every pipeline stage: retry loops start no retry that
cannot finish, and a single-flight follower stops waiting when its own
budget runs out.  An expired deadline is a classified
:class:`DeadlineError`.
"""

from __future__ import annotations

import threading
import time

from .. import obs
from ..errors import ReproError

__all__ = ["AdmissionQueue", "Deadline", "DeadlineError", "OverloadError"]


class OverloadError(ReproError):
    """The admission queue is full: the request was shed, not queued."""

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"service overloaded: {depth} requests in flight "
            f"(admission limit {limit}); request shed"
        )
        self.depth = depth
        self.limit = limit


class DeadlineError(ReproError):
    """A request's deadline expired before (or while) it was served."""

    def __init__(self, message: str) -> None:
        super().__init__(message)


class Deadline:
    """A monotonic-clock deadline; ``None`` budget = no deadline.

    The clock is injectable so unit tests and seeded campaigns can drive
    expiry deterministically instead of sleeping.
    """

    def __init__(self, budget_s: float | None, clock=time.monotonic) -> None:
        self.clock = clock
        self.budget_s = budget_s
        self._expires = None if budget_s is None else clock() + float(budget_s)

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0.0), or None for no deadline."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - self.clock())

    def expired(self) -> bool:
        return self._expires is not None and self.clock() >= self._expires

    def check(self, what: str) -> None:
        """Raise a classified :class:`DeadlineError` when expired."""
        if self.expired():
            raise DeadlineError(
                f"deadline of {self.budget_s:.3f}s expired {what}"
            )

    def __repr__(self) -> str:
        rem = self.remaining()
        return f"Deadline(budget={self.budget_s}, remaining={rem})"


class AdmissionQueue:
    """A bounded in-flight counter with load-shedding.

    Use as a context manager per request::

        with admission.admit():     # raises OverloadError when full
            ... serve ...

    ``depth`` is the current number of admitted requests, ``peak_depth``
    the high-water mark, ``shed`` the number of rejected admissions.
    """

    def __init__(self, limit: int = 32) -> None:
        if limit < 1:
            raise ValueError("admission limit must be >= 1")
        self.limit = int(limit)
        self._lock = threading.Lock()
        self.depth = 0
        self.peak_depth = 0
        self.admitted = 0
        self.shed = 0

    class _Slot:
        def __init__(self, queue: "AdmissionQueue") -> None:
            self.queue = queue

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            with self.queue._lock:
                self.queue.depth -= 1
                obs.gauge("admission.depth", self.queue.depth)
            return False

    def admit(self) -> "AdmissionQueue._Slot":
        with self._lock:
            if self.depth >= self.limit:
                self.shed += 1
                obs.count("admission.shed")
                raise OverloadError(self.depth, self.limit)
            self.depth += 1
            self.admitted += 1
            self.peak_depth = max(self.peak_depth, self.depth)
            obs.count("admission.admitted")
            obs.gauge("admission.depth", self.depth)
        return self._Slot(self)

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": self.depth,
                "limit": self.limit,
                "peak_depth": self.peak_depth,
                "admitted": self.admitted,
                "shed": self.shed,
            }
