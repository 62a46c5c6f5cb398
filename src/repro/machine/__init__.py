"""Machine layer: flat machine IR, memory model, cycle-cost VM and its
source-generating engine, the pluggable engine registry, register
allocation models, and the IACA-style static analyzer."""

from .codegen import CodegenCode
from .flatten import FlattenOptions, flatten
from .iaca import ThroughputReport, analyze_loop_throughput
from .memory import GUARD_BYTES, ArrayBuffer
from .mir import FPR, GPR, VEC, ArraySlot, MFunction, MInstr, VReg
from .regalloc import AllocStats, allocate_linear_scan, allocate_local
from .registry import (
    DEFAULT_ENGINE,
    Engine,
    engine_names,
    get_engine,
    register_engine,
    unregister_engine,
)
from .vm import VM, RunResult, VMError

__all__ = [
    "MFunction",
    "MInstr",
    "VReg",
    "ArraySlot",
    "GPR",
    "FPR",
    "VEC",
    "flatten",
    "FlattenOptions",
    "ArrayBuffer",
    "GUARD_BYTES",
    "VM",
    "VMError",
    "RunResult",
    "CodegenCode",
    "Engine",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "engine_names",
    "DEFAULT_ENGINE",
    "allocate_local",
    "allocate_linear_scan",
    "AllocStats",
    "analyze_loop_throughput",
    "ThroughputReport",
]
