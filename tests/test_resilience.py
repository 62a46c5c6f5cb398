"""Fail-soft pipeline tests: bytecode verification, the error taxonomy,
JIT degradation, and the hardened parallel harness.

The acceptance properties of the resilience work:

* round-trip ``verify(decode(encode(m)))`` passes for every kernel;
* *any* single-byte corruption of an encoded container is rejected with
  a classified error before the IR can reach the VM;
* a forced idiom-lowering failure degrades the loop group to scalar and
  the run still checks against numpy (never a silent wrong answer);
* the sweep scheduler quarantines crashed/stalled cells while the rest
  of the sweep completes, byte-identical for any job count on the
  fault-free subset.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.bytecode import (
    MAGIC,
    BytecodeVerifyError,
    FormatError,
    decode_module,
    encode_function,
    encode_module,
    verify_module,
    verify_module_bytes,
)
from repro.errors import (
    FaultInjected,
    ReproError,
    classify,
    is_classified,
)
from repro.frontend import compile_source
from repro.harness.flows import FlowRunner
from repro.harness.parallel import Cell, CellError, run_cells
from repro.kernels import all_kernels, get_kernel
from repro.targets import get_target
from repro.vectorizer import split_config, vectorize_module

SMALL = 16


def _vec_module(kernel: str, size: int = SMALL):
    inst = get_kernel(kernel).instantiate(size)
    return vectorize_module(
        compile_source(inst.source, inst.name), split_config()
    )


# -- container + verifier -----------------------------------------------------


@pytest.mark.parametrize("kernel", [k.name for k in all_kernels()])
def test_roundtrip_verifies(kernel):
    """verify(decode(encode(m))) holds for every kernel's vectorized IR."""
    module = _vec_module(kernel)
    blob = encode_module(module)
    decoded = verify_module_bytes(blob)
    assert [f.name for f in decoded] == [f.name for f in module]


def test_container_magic_and_checksum_fields():
    blob = encode_module(_vec_module("saxpy_fp"))
    assert blob[:4] == MAGIC


@pytest.mark.parametrize("kernel", ["saxpy_fp", "sad_s8", "interp_s16"])
def test_every_single_byte_corruption_rejected(kernel):
    """Exhaustive over offsets: flipping any bit of any byte must raise a
    classified FormatError — the CRC-32 makes this unconditional."""
    blob = encode_module(_vec_module(kernel))
    for off in range(len(blob)):
        bad = bytearray(blob)
        bad[off] ^= 1 << (off % 8)
        with pytest.raises(FormatError):
            verify_module_bytes(bytes(bad))


def test_bad_magic_reports_expected_and_got():
    blob = bytearray(encode_module(_vec_module("saxpy_fp")))
    blob[:4] = b"XBC9"
    with pytest.raises(BytecodeVerifyError) as exc_info:
        decode_module(bytes(blob))
    exc = exc_info.value
    assert exc.kind == "bad-magic"
    assert exc.offset == 0
    assert repr(MAGIC) in str(exc) and repr(b"XBC9") in str(exc)


def test_checksum_mismatch_classified():
    blob = bytearray(encode_module(_vec_module("saxpy_fp")))
    blob[-1] ^= 0xFF
    with pytest.raises(BytecodeVerifyError) as exc_info:
        decode_module(bytes(blob))
    assert exc_info.value.kind == "bad-checksum"


def test_truncation_classified():
    blob = encode_module(_vec_module("saxpy_fp"))
    with pytest.raises(BytecodeVerifyError) as exc_info:
        decode_module(blob[:5])
    assert exc_info.value.kind == "truncated"


def test_trailing_garbage_classified():
    blob = encode_module(_vec_module("saxpy_fp"))
    # appending bytes invalidates the checksum first — which is the point:
    # nothing after the payload can sneak past the header.
    with pytest.raises(FormatError):
        decode_module(blob + b"\x00\x01")


def test_truncated_function_stream_positions_error():
    """Reader-level truncation surfaces as a positioned FormatError, not an
    IndexError from inside the reader."""
    fn = next(iter(_vec_module("saxpy_fp")))
    blob = encode_function(fn)
    from repro.bytecode import decode_function

    for cut in (1, len(blob) // 2, len(blob) - 1):
        with pytest.raises(FormatError) as exc_info:
            decode_function(blob[:cut])
        assert not isinstance(exc_info.value, IndexError)
        assert exc_info.value.offset is not None


def test_verify_module_rejects_duplicate_functions():
    fn = next(iter(_vec_module("saxpy_fp")))
    with pytest.raises(BytecodeVerifyError) as exc_info:
        verify_module([fn, fn])
    assert exc_info.value.kind == "bad-structure"


def test_verify_rejects_bad_idiom_kind():
    from repro.ir import Reduce, walk

    module = _vec_module("sfir_fp")
    fn = next(iter(module))
    reduces = [i for i in walk(fn.body) if isinstance(i, Reduce)]
    assert reduces, "sfir_fp must contain a reduction idiom"
    reduces[0].kind = "frobnicate"
    with pytest.raises(BytecodeVerifyError) as exc_info:
        verify_module(module)
    assert exc_info.value.kind == "bad-idiom"


# -- error taxonomy -----------------------------------------------------------


def test_all_catalogue_errors_are_repro_errors():
    import repro.errors as errors

    for name in errors._HOMES:
        cls = getattr(errors, name)
        assert issubclass(cls, ReproError), name


def test_classify_tags():
    from repro.machine.vm import VMError

    assert classify(VMError("x")) == "VMError"
    assert classify(TypeError("x")) == "unclassified:TypeError"
    assert is_classified(VMError("x"))
    assert not is_classified(TypeError("x"))
    injected = faults.injected_vm_fault_cls()("boom")
    assert isinstance(injected, VMError)
    assert isinstance(injected, FaultInjected)
    assert classify(injected) == "VMError[injected]"


def test_classify_on_exception_chains():
    """`raise X from Y` classifies as X: the chain's head is what the
    caller must route on, the __cause__ is post-mortem context."""
    from repro.machine.vm import VMError
    from repro.service.cache import CacheError

    def chained(head, cause):
        try:
            try:
                raise cause
            except type(cause) as c:
                raise head from c
        except type(head) as exc:
            return exc

    # classified from classified: head wins, cause preserved.
    exc = chained(CacheError("io", "entry unreadable"), VMError("trap"))
    assert classify(exc) == "CacheError"
    assert isinstance(exc.__cause__, VMError)

    # classified from unclassified (OSError wrapped at the cache layer).
    exc = chained(CacheError("io", "disk"), OSError(5, "I/O error"))
    assert classify(exc) == "CacheError"

    # unclassified head stays unclassified even over a classified cause:
    # the wrap itself is the bug the chaos suite must flag.
    exc = chained(TypeError("bad wrap"), VMError("trap"))
    assert classify(exc) == "unclassified:TypeError"
    assert not is_classified(exc)

    # implicit chains (__context__, no `from`) classify by head too.
    try:
        try:
            raise VMError("trap")
        except VMError:
            raise CacheError("bad-payload", "while handling")
    except CacheError as exc2:
        assert classify(exc2) == "CacheError"
        assert isinstance(exc2.__context__, VMError)


def test_classify_injected_hybrids_keep_catalogue_tags():
    """Anonymous injected hybrids report the nearest catalogue ancestor,
    so the tag space stays closed over the errors table."""
    import repro.errors as errors
    from repro.service.cache import CacheError, _InjectedTornWrite

    torn = _InjectedTornWrite("torn-write", "injected crash")
    assert isinstance(torn, CacheError)
    assert isinstance(torn, FaultInjected)
    assert classify(torn) == "CacheError[injected]"

    vm_injected = faults.injected_vm_fault_cls()("boom")
    for exc in (torn, vm_injected):
        tag = classify(exc)
        base = tag.removesuffix("[injected]")
        assert base in errors._HOMES, tag


def test_classify_non_repro_error_in_injected_path():
    """A non-ReproError raised inside an injected-fault path is still
    unclassified — injection must never launder anonymous failures."""

    class Glitch(RuntimeError, FaultInjected):
        pass

    exc = Glitch("anonymous injected failure")
    assert isinstance(exc, FaultInjected)
    assert not is_classified(exc)
    assert classify(exc) == "unclassified:Glitch"


def test_classify_tag_space_is_closed():
    """Every catalogue class (and any subclass) classifies to a name in
    the _HOMES table — reports can switch on a finite tag set."""
    import repro.errors as errors

    for name in errors._HOMES:
        cls = getattr(errors, name)
        exc = cls.__new__(cls)  # skip __init__: signatures vary
        assert classify(exc) in errors._HOMES

        anon = type("Anon" + name, (cls,), {}).__new__(
            type("Anon" + name, (cls,), {})
        )
        assert classify(anon) in errors._HOMES


def test_classify_tag_space_includes_gateway_taxonomy():
    """Deliberate tag-space expansion (PR 7): the network front door
    added exactly two classified failure modes — a wire-level failure
    (``NetworkError``) and a drain-time rejection (``DrainError``).
    Pinning them here keeps the tag space *closed on purpose*: adding a
    gateway error class without updating this test (and the taxonomy
    table) should fail loudly."""
    import repro.errors as errors
    from repro.service.gateway import DrainError
    from repro.service.wire import NetworkError

    assert errors._HOMES["NetworkError"] == "repro.service.wire"
    assert errors._HOMES["DrainError"] == "repro.service.gateway"
    assert errors.NetworkError is NetworkError
    assert errors.DrainError is DrainError
    assert classify(NetworkError("bad-crc", "torn")) == "NetworkError"
    assert classify(DrainError("draining")) == "DrainError"
    # Both are catalogue citizens: ReproError subclasses, lazily
    # re-exported, and listed in the module's public surface.
    assert issubclass(NetworkError, ReproError)
    assert issubclass(DrainError, ReproError)
    assert "NetworkError" in errors.__all__
    assert "DrainError" in errors.__all__


def test_classify_tag_space_includes_fleet_taxonomy():
    """Deliberate tag-space expansion (PR 8): the supervisor tier adds
    exactly one classified failure mode — a fleet-capacity failure
    (``FleetError``: a parked replica, a spawn that never announced,
    zero live capacity).  Pinned so the tag space stays closed on
    purpose."""
    import repro.errors as errors
    from repro.service.supervisor import FleetError

    assert errors._HOMES["FleetError"] == "repro.service.supervisor"
    assert errors.FleetError is FleetError
    exc = FleetError("parked", "replica 0 parked: 5 restarts within 30s")
    assert classify(exc) == "FleetError"
    assert exc.kind == "parked"
    assert "[parked]" in str(exc)
    assert issubclass(FleetError, ReproError)
    assert "FleetError" in errors.__all__


def test_check_error_is_assertion_error():
    """Back-compat: harness check failures still satisfy AssertionError."""
    from repro.harness.flows import CheckError

    assert issubclass(CheckError, AssertionError)
    assert issubclass(CheckError, ReproError)


# -- JIT degradation ----------------------------------------------------------


def test_clean_compile_not_degraded():
    runner = FlowRunner()
    inst = get_kernel("saxpy_fp").instantiate(SMALL)
    ck = runner.compiled(inst, "split_vec_gcc4cli", get_target("sse"))
    assert not ck.degraded
    assert ck.events == []
    assert ck.stats["degraded_groups"] == 0


@pytest.mark.parametrize("flow", ["split_vec_mono", "split_vec_gcc4cli"])
def test_lowering_fault_degrades_but_stays_correct(flow):
    plan = faults.FaultPlan([faults.LoweringFault(idiom="*")])
    with faults.injected(plan):
        runner = FlowRunner()
        inst = get_kernel("saxpy_fp").instantiate(SMALL)
        result = runner.run(inst, flow, "sse")
        ck = runner.compiled(inst, flow, get_target("sse"))
    assert result.checked
    assert ck.degraded
    assert all(e.cause == "fault-injected" for e in ck.events)
    assert ck.stats["loops_vectorized"] == 0


def test_lowering_fault_matches_specific_idiom():
    plan = faults.FaultPlan([faults.LoweringFault(idiom="realign_load")])
    with faults.injected(plan):
        runner = FlowRunner()
        inst = get_kernel("saxpy_fp").instantiate(SMALL)
        result = runner.run(inst, "split_vec_gcc4cli", "sse")
        ck = runner.compiled(inst, "split_vec_gcc4cli", get_target("sse"))
    assert result.checked and ck.degraded
    assert "realign_load" in ck.events[0].detail


def test_materialize_fault_triggers_forced_scalar_retry():
    plan = faults.FaultPlan([faults.MaterializeFault()])
    with faults.injected(plan):
        runner = FlowRunner()
        inst = get_kernel("dscal_fp").instantiate(SMALL)
        result = runner.run(inst, "split_vec_gcc4cli", "sse")
        ck = runner.compiled(inst, "split_vec_gcc4cli", get_target("sse"))
    assert result.checked
    assert ck.degraded
    assert ck.events[0].cause == "forced-scalar"
    assert ck.events[0].group is None


def test_degraded_run_costs_more_cycles():
    """Scalar fallback is slower — that's what makes it a degradation."""
    inst = get_kernel("saxpy_fp").instantiate(64)
    clean = FlowRunner().run(inst, "split_vec_gcc4cli", "sse")
    with faults.injected(faults.FaultPlan([faults.LoweringFault()])):
        degraded = FlowRunner().run(inst, "split_vec_gcc4cli", "sse")
    assert degraded.checked and clean.checked
    assert degraded.cycles > clean.cycles


def test_degradation_events_reach_flow_stats():
    with faults.injected(faults.FaultPlan([faults.LoweringFault()])):
        runner = FlowRunner()
        inst = get_kernel("saxpy_fp").instantiate(SMALL)
        result = runner.run(inst, "split_vec_gcc4cli", "sse")
    assert result.stats["degraded_groups"] >= 1


def test_native_scalar_target_is_not_degradation():
    """Scalar targets never vectorize; that is policy, not failure."""
    runner = FlowRunner()
    inst = get_kernel("saxpy_fp").instantiate(SMALL)
    ck = runner.compiled(inst, "split_vec_gcc4cli", get_target("scalar"))
    assert not ck.degraded


# -- hardened parallel harness ------------------------------------------------

CELLS = [
    Cell("saxpy_fp", "split_vec_gcc4cli", "sse", SMALL),
    Cell("dscal_fp", "split_vec_gcc4cli", "sse", SMALL),
    Cell("saxpy_fp", "split_scalar_mono", "sse", SMALL),
    Cell("interp_fp", "split_vec_mono", "altivec", SMALL),
]


def _comparable(r):
    v = r.result.value
    return (r.cell, r.result.cycles,
            float(v) if v is not None else None,
            r.result.bytecode_bytes)


def test_run_cells_deterministic_across_jobs():
    serial = run_cells(CELLS, jobs=1)
    parallel = run_cells(CELLS, jobs=3)
    assert [_comparable(r) for r in serial] == \
        [_comparable(r) for r in parallel]
    assert all(r.ok and r.attempts == 1 for r in parallel)


def test_serial_sweep_quarantines_classified_failures():
    cells = CELLS + [Cell("saxpy_fp", "split_vec_gcc4cli", "nope", SMALL)]
    results = run_cells(cells, jobs=1)
    assert len(results) == len(cells)
    bad = [r for r in results if not r.ok]
    assert len(bad) == 1
    assert bad[0].cell.target == "nope"
    assert bad[0].error_kind and "unclassified" not in bad[0].error_kind


def test_worker_crash_quarantines_only_faulty_cell():
    plan = faults.FaultPlan([faults.WorkerCrash(kernel="dscal_fp")])
    results = run_cells(CELLS, jobs=2, fault_plan=plan, retries=1)
    assert len(results) == len(CELLS)
    bad = [r for r in results if not r.ok]
    assert [r.cell.kernel for r in bad] == ["dscal_fp"]
    assert bad[0].error_kind == "CellError[worker-crash]"
    assert bad[0].attempts == 2  # first try + one retry
    # the fault-free subset matches a serial fault-free run
    clean = {(r.cell): _comparable(r) for r in run_cells(CELLS, jobs=1)}
    for r in results:
        if r.ok:
            assert _comparable(r) == clean[r.cell]


def test_worker_stall_hits_timeout_quarantine():
    plan = faults.FaultPlan([faults.WorkerStall(kernel="interp_fp",
                                                seconds=60.0)])
    results = run_cells(CELLS, jobs=2, fault_plan=plan,
                        timeout=5.0, retries=0)
    assert len(results) == len(CELLS)
    bad = [r for r in results if not r.ok]
    assert [r.cell.kernel for r in bad] == ["interp_fp"]
    assert bad[0].error_kind == "CellError[timeout]"


def test_worker_fault_plan_reaches_workers():
    """Non-crash faults (lowering) installed in workers degrade cells the
    same way they would serially."""
    plan = faults.FaultPlan([faults.LoweringFault()])
    results = run_cells(CELLS[:2], jobs=2, fault_plan=plan)
    assert all(r.ok for r in results)
    serial = run_cells(CELLS[:2], jobs=1, fault_plan=plan)
    assert [r.result.cycles for r in results] == \
        [r.result.cycles for r in serial]


def test_cell_error_is_classified():
    err = CellError("timeout", "cell overran")
    assert is_classified(err)
    assert err.kind == "timeout"
