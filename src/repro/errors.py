"""Unified exception taxonomy for the whole toolchain.

The paper's central promise is *graceful degradation*: vapor bytecode
"runs everywhere", lowering to SIMD where the target supports an idiom and
falling back to scalar code where it does not (§III-C.d).  A fail-soft
pipeline needs one property above all: **every failure is classified**.
A corrupted bytecode stream, an unsupported idiom, a crashed sweep worker
— each must surface as a well-typed exception that the layer above can
catch, annotate, and route around, never as an anonymous traceback from
deep inside materialization or the VM.

Every error the toolchain deliberately raises therefore derives from
:class:`ReproError`:

========================== ==================================================
class                      layer / meaning
========================== ==================================================
``LexError``               frontend: unrecognized character / literal
``ParseError``             frontend: syntax error (with source position)
``SemaError``              frontend: type or name error
``PlanError``              vectorizer: access shapes defeat stream planning
``VerificationError``      IR: structural/type invariant violated
``FormatError``            bytecode: malformed container or stream
``BytecodeVerifyError``    bytecode: classified verification failure
``MaterializeError``       JIT: idiom cannot be lowered for the target
``SpecializationError``    JIT: bad runtime-specialization request
``VMError``                VM: alignment trap, unbound args, runaway code
``CheckError``             harness: results disagree with the numpy oracle
``CellError``              harness: a sweep cell was quarantined
``OverloadError``          service: request shed at the admission queue
``DeadlineError``          service: per-request deadline expired
``CircuitOpenError``       service: target short-circuited by its breaker
``CacheError``             service: kernel-cache entry unusable (quarantined)
``NetworkError``           gateway wire: framing/CRC/connection/timeout failure
``DrainError``             gateway: request rejected while draining for shutdown
``FleetError``             supervisor: replica parked / fleet capacity failure
``FaultInjected``          faults: marker mixin for injected failures
========================== ==================================================

The concrete classes stay defined in (and importable from) their home
modules — this module re-exports them lazily so ``repro.errors`` is a
one-stop catalogue without creating import cycles::

    from repro.errors import ReproError, classify

    try:
        run_pipeline(blob)
    except ReproError as exc:
        log.warning("classified failure: %s", classify(exc))
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "FaultInjected",
    "classify",
    "is_classified",
    # lazily re-exported concrete classes (PEP 562):
    "LexError",
    "ParseError",
    "SemaError",
    "PlanError",
    "VerificationError",
    "FormatError",
    "BytecodeVerifyError",
    "MaterializeError",
    "SpecializationError",
    "VMError",
    "CheckError",
    "CellError",
    "OverloadError",
    "DeadlineError",
    "CircuitOpenError",
    "CacheError",
    "NetworkError",
    "DrainError",
    "FleetError",
]


class ReproError(Exception):
    """Base class of every classified toolchain error.

    Layers communicate failure exclusively through subclasses of this
    type; anything else escaping a pipeline stage is a bug (the chaos
    suite asserts exactly that invariant).
    """


class FaultInjected:
    """Marker mixin carried by exceptions raised by injected faults.

    ``isinstance(exc, FaultInjected)`` distinguishes a chaos-campaign
    fault from a genuine failure without disturbing the exception's
    primary classification (an injected VM memory fault is still a
    :class:`VMError`).
    """


#: home module of each lazily re-exported error class.
_HOMES = {
    "LexError": "repro.frontend.lexer",
    "ParseError": "repro.frontend.parser",
    "SemaError": "repro.frontend.sema",
    "PlanError": "repro.vectorizer.stmt",
    "VerificationError": "repro.ir.verifier",
    "FormatError": "repro.bytecode.writer",
    "BytecodeVerifyError": "repro.bytecode.verify",
    "MaterializeError": "repro.jit.materialize",
    "SpecializationError": "repro.jit.specialize",
    "VMError": "repro.machine.vm",
    "CheckError": "repro.harness.flows",
    "CellError": "repro.harness.parallel",
    "OverloadError": "repro.service.admission",
    "DeadlineError": "repro.service.admission",
    "CircuitOpenError": "repro.service.breaker",
    "CacheError": "repro.service.cache",
    "NetworkError": "repro.service.wire",
    "DrainError": "repro.service.gateway",
    "FleetError": "repro.service.supervisor",
}


def __getattr__(name: str):  # PEP 562 lazy re-export, avoids import cycles
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(home), name)
    globals()[name] = value  # cache for next access
    return value


def is_classified(exc: BaseException) -> bool:
    """True when ``exc`` belongs to the taxonomy (or wraps system exits).

    ``KeyboardInterrupt``/``SystemExit`` are deliberately *not* classified:
    they must propagate, never be swallowed by fail-soft machinery.
    """
    return isinstance(exc, ReproError)


def classify(exc: BaseException) -> str:
    """Short classification tag for reports: ``"VMError"``,
    ``"VMError[injected]"``, or ``"unclassified:TypeError"``.

    Anonymous :class:`ReproError` subclasses (e.g. the injected-fault
    hybrids) report as their nearest catalogue ancestor, so the tag space
    stays closed over the table above.
    """
    if isinstance(exc, ReproError):
        name = type(exc).__name__
        if name not in _HOMES:
            for base in type(exc).__mro__:
                if base.__name__ in _HOMES:
                    name = base.__name__
                    break
        return f"{name}[injected]" if isinstance(exc, FaultInjected) else name
    return f"unclassified:{type(exc).__name__}"
