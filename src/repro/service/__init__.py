"""Resilient JIT compilation service (see docs/service.md).

``KernelService`` turns the paper's cheap online stage into a
long-running, multi-threaded compile/run service with a crash-safe
persistent kernel cache, bounded admission + load shedding, per-target
circuit breakers, per-request deadlines, and a strictly ordered
degradation cascade — never a silent wrong answer, never a traceback.

The network front door lives alongside it: ``GatewayServer`` (an
asyncio TCP listener speaking the CRC-framed wire protocol of
:mod:`repro.service.wire`) and ``GatewayClient`` (a blocking client
with retries, failover, and deadline propagation) — see
docs/service.md §8.

Above both sits the self-healing tier: ``FleetSupervisor`` spawns N
gateway replicas as child processes over one shared cache directory,
hash-shards client placement by request shape, probes liveness over the
wire under a probe deadline, and restarts dead or wedged replicas with
jittered backoff and flap suppression (docs/service.md §9).
"""

from .admission import AdmissionQueue, Deadline, DeadlineError, OverloadError
from .breaker import CircuitBreaker, CircuitOpenError
from .cache import (
    CacheError,
    CacheKey,
    KernelCache,
    TOOLCHAIN_VERSION,
    atomic_write,
)
from .client import GatewayClient
from .core import KernelService, ServiceRequest, ServiceResponse
from .gateway import DrainError, GatewayServer, ThreadedGateway
from .supervisor import FleetError, FleetSupervisor
from .wire import NetworkError

__all__ = [
    "KernelService",
    "ServiceRequest",
    "ServiceResponse",
    "GatewayServer",
    "ThreadedGateway",
    "GatewayClient",
    "NetworkError",
    "DrainError",
    "FleetSupervisor",
    "FleetError",
    "KernelCache",
    "CacheKey",
    "CacheError",
    "atomic_write",
    "TOOLCHAIN_VERSION",
    "AdmissionQueue",
    "Deadline",
    "DeadlineError",
    "OverloadError",
    "CircuitBreaker",
    "CircuitOpenError",
]
