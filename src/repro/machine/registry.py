"""Pluggable execution-engine registry.

Engines live in this registry, and every dispatch site —
:func:`repro.api.resolve_engine` / :func:`repro.api.execute_phase`,
:class:`repro.api.Pipeline`, :class:`repro.harness.FlowRunner`, the CLI's
``--engine`` choices — derives from it.  Registering a new engine makes
it selectable end-to-end without touching any of those call sites::

    from repro.machine.registry import register_engine

    register_engine(
        "tracing",
        translate=my_translate,        # optional (cached per kernel)
        run=my_run,                    # required
        description="reference + per-op trace",
    )

The engine contract
-------------------

``run(ck, scalar_args, arrays, *, count_ops=False, max_instructions=None)``
    Execute compiled kernel ``ck`` (a
    :class:`~repro.jit.compilers.CompiledKernel`) and return a
    :class:`~repro.machine.vm.RunResult`.  This is the only required
    callable.  Engines must be *bit-identical* to the reference
    interpreter on values, cycles, instruction counts, op counts, and
    traps — the differential parity suite (``tests/test_engine_parity.py``)
    is parametrized over every registered engine and enforces exactly
    that.

``translate(mfunc, target, count_ops=False)``
    Optional one-time translation (codegen's source generation).
    When present, :meth:`CompiledKernel.translated
    <repro.jit.compilers.CompiledKernel.translated>` calls it once per
    ``(engine, count_ops)``, however many threads ask at once, caches
    the result and times it into the ``vm.translate_seconds`` metric.
    The returned object must expose
    ``run(scalar_args, arrays, max_instructions=...) -> RunResult``.

A translation must be safe to run from several threads at once.  One
translated kernel serves every caller holding the compiled kernel
(single-flight followers receive the leader's), so a run keeps its
buffers, spill slots and return value in its own call, never on the
translation.  ``tests/test_engine_parity.py::
test_shared_translation_is_reentrant`` runs one shared kernel from four
threads on every registered engine and enforces it.

Names are looked up at call time, so registration order never matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import codegen
from .vm import VM

__all__ = [
    "Engine",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "engine_names",
    "DEFAULT_ENGINE",
]

#: the engine every entry point defaults to.
DEFAULT_ENGINE = "codegen"


@dataclass(frozen=True)
class Engine:
    """One registered execution engine (see the module docstring for the
    ``run`` / ``translate`` contract)."""

    name: str
    run: Callable
    translate: Callable | None = None
    description: str = ""


#: name -> Engine, in registration order (which fixes CLI choice order).
_REGISTRY: dict[str, Engine] = {}


def register_engine(
    name: str,
    translate: Callable | None = None,
    run: Callable | None = None,
    *,
    description: str = "",
    replace: bool = False,
) -> Engine:
    """Register an execution engine under ``name``.

    ``run`` is required; ``translate`` is optional (see the module
    docstring for both signatures).  Re-registering an existing name
    raises unless ``replace=True`` (so typos cannot silently shadow a
    built-in engine).  Returns the :class:`Engine` record.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"engine name must be a non-empty string: {name!r}")
    if run is None:
        raise ValueError(f"engine {name!r} needs a run callable")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"engine {name!r} is already registered (pass replace=True "
            f"to override)"
        )
    engine = Engine(
        name=name, run=run, translate=translate, description=description
    )
    _REGISTRY[name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove a registered engine (tests use this to clean up toys)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> Engine:
    """Look up an engine by name; unknown names raise ``ValueError``."""
    engine = _REGISTRY.get(name)
    if engine is None:
        raise ValueError(
            f"unknown engine {name!r}; one of {', '.join(_REGISTRY)}"
        )
    return engine


def engine_names() -> tuple[str, ...]:
    """All registered engine names, in registration order."""
    return tuple(_REGISTRY)


# -- built-in engines ---------------------------------------------------------


def _run_translated(engine, ck, scalar_args, arrays, *, count_ops=False,
                    max_instructions=None):
    """``run`` of every engine with a ``translate`` step."""
    code = ck.translated(engine, count_ops=count_ops)
    if max_instructions is None:
        return code.run(scalar_args, arrays)
    return code.run(scalar_args, arrays, max_instructions)


def _run_reference(ck, scalar_args, arrays, *, count_ops=False,
                   max_instructions=None):
    if max_instructions is None:
        vm = VM(ck.target)
    else:
        vm = VM(ck.target, max_instructions)
    return vm.run(ck.mfunc, scalar_args, arrays, count_ops=count_ops)


register_engine(
    "codegen",
    translate=codegen.translate,
    run=partial(_run_translated, "codegen"),
    description="MIR->Python superinstruction blocks + batched idioms",
)
register_engine(
    "reference",
    run=_run_reference,
    description="decode-per-instruction reference interpreter",
)
