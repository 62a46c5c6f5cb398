"""Differential tests: every registered engine vs the reference VM.

The contract of every engine in :mod:`repro.machine.registry` is
*bit-identical observable behavior* to :class:`repro.machine.VM`: same
return value, same cycle count, same executed-instruction count, same
per-op counts, same memory effects — and the same :class:`VMError`
(message included) on every trap (misalignment, unbound parameters,
instruction budget).  These tests enforce that contract over the full
kernel suite, all six targets, and all three online compilers — and they
are parametrized over the registry, so a new engine inherits the whole
gate just by registering itself.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.harness.flows import FlowRunner
from repro.kernels import all_kernels, get_kernel
from repro.machine import VM, VMError
from repro.machine.registry import engine_names, get_engine
from repro.targets import TARGETS, get_target

#: The three online compilers of Figure 4, as flow names: the Mono-like JIT
#: and the gcc4cli-like compiler consume the *split* bytecode, the native
#: backend consumes the monolithic native IR.
COMPILER_FLOWS = ("split_vec_mono", "split_vec_gcc4cli", "native_vec")

ALL_TARGETS = tuple(TARGETS)

#: every registered engine except the oracle it is compared against.
CANDIDATE_ENGINES = tuple(n for n in engine_names() if n != "reference")


def _engine_run(ck, engine, scalar_args, bufs, **kw):
    """Run ``ck`` on a registered engine (the registry dispatch path)."""
    return get_engine(engine).run(ck, scalar_args, bufs, **kw)


def _diff_size(kernel) -> int | None:
    """Small-but-representative sizes so the full matrix stays fast, and
    mostly below codegen's batch gate (see
    :func:`test_matrix_runs_vector_loops_unbatched`)."""
    if kernel.category != "kernel":
        return None  # polybench defaults are already small (8-24)
    return min(kernel.default_size, 32)


@pytest.fixture(scope="module")
def diff_runner() -> FlowRunner:
    """Module-wide runner so offline/online compilations are cached across
    the (kernel x target x compiler) matrix."""
    return FlowRunner()


def _run_both(runner, inst, flow, target_name, engine):
    """Run one compiled kernel through the reference VM and ``engine``;
    returns the two RunResults plus the two buffer sets (for memory
    comparison)."""
    target = get_target(target_name)
    ck = runner.compiled(inst, flow, target)
    ref_bufs = runner.make_buffers(inst)
    ref = VM(target).run(ck.mfunc, inst.scalar_args, ref_bufs, count_ops=True)
    eng_bufs = runner.make_buffers(inst)
    eng = _engine_run(
        ck, engine, inst.scalar_args, eng_bufs, count_ops=True
    )
    return ref, eng, ref_bufs, eng_bufs


def _assert_identical(ref, eng, ref_bufs, eng_bufs, what):
    assert ref.instructions == eng.instructions, what
    assert ref.cycles == eng.cycles, what
    assert dict(ref.op_counts) == dict(eng.op_counts), what
    if ref.value is None:
        assert eng.value is None, what
    else:
        assert eng.value is not None and ref.value == eng.value, what
    for name, buf in ref_bufs.items():
        a = buf.read_elements()
        b = eng_bufs[name].read_elements()
        assert np.array_equal(a, b), f"{what}: array {name} diverged"


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
@pytest.mark.parametrize("kernel", [k.name for k in all_kernels()])
def test_engines_bit_identical(kernel, engine, diff_runner):
    """Full matrix: every kernel x target x compiler, every engine."""
    k = get_kernel(kernel)
    inst = k.instantiate(_diff_size(k))
    for target_name in ALL_TARGETS:
        for flow in COMPILER_FLOWS:
            ref, eng, rb, eb = _run_both(
                diff_runner, inst, flow, target_name, engine
            )
            _assert_identical(
                ref, eng, rb, eb, f"{kernel}/{flow}/{target_name}/{engine}"
            )


@pytest.mark.parametrize("flow", ["split_vec_gcc4cli", "native_vec"])
def test_matrix_runs_vector_loops_unbatched(flow, diff_runner):
    """The matrix checks codegen's per-iteration path, not only its
    batches: at its sizes (n <= 32) an SSE vector loop over f32 runs at
    most 8 iterations, a batch of 7, below ``_MIN_BATCH``, so the planned
    vector loops of the streaming f32 kernels never batch.  (2-lane f64
    loops and NEON's 8-byte vectors do batch at n=32.)"""
    target = get_target("sse")
    for name in ("dissolve_fp", "sfir_fp", "saxpy_fp", "dscal_fp"):
        k = get_kernel(name)
        inst = k.instantiate(_diff_size(k))
        ck = diff_runner.compiled(inst, flow, target)
        code = get_engine("codegen").translate(ck.mfunc, target)
        code.run(inst.scalar_args, diff_runner.make_buffers(inst))
        vector = [p for p in code.plans
                  if any(ins.op.startswith("v") for ins in p.body)]
        assert vector, f"{name}/{flow}: no planned vector loop"
        assert [p.batches for p in vector] == [0] * len(vector), name


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_scalar_flows_bit_identical(engine, diff_runner):
    """The scalar flows (A and the gcc4cli scalar baseline) agree too."""
    k = get_kernel("saxpy_fp")
    inst = k.instantiate(32)
    for flow in ("split_scalar_mono", "split_scalar_gcc4cli",
                 "native_scalar"):
        for target_name in ("sse", "scalar"):
            ref, eng, rb, eb = _run_both(
                diff_runner, inst, flow, target_name, engine
            )
            _assert_identical(ref, eng, rb, eb, f"{flow}/{target_name}")


def test_flow_runner_engines_agree(diff_runner):
    """FlowRunner(engine=...) is figure-invisible: identical FlowResults
    for every registered engine."""
    runners = [FlowRunner(engine=name) for name in engine_names()]
    inst = get_kernel("sfir_fp").instantiate(32)
    for flow in COMPILER_FLOWS:
        results = [r.run(inst, flow, "sse") for r in runners]
        assert len({res.cycles for res in results}) == 1
        assert all(res.checked for res in results)


def test_flow_runner_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        FlowRunner(engine="jitjit")


# -- trap parity --------------------------------------------------------------


def _trap_of(fn):
    """(exception type, message) raised by ``fn`` — or (None, None)."""
    try:
        fn()
    except VMError as exc:  # noqa: PERF203 - deliberate
        return type(exc), str(exc)
    return None, None


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_trap_parity_misaligned_vector_load(engine, diff_runner):
    """Native code assumes runtime-aligned arrays; feeding it misaligned
    buffers must trap *identically* in every engine."""
    misaligned = FlowRunner(base_misalign=4, check=False)
    inst = get_kernel("saxpy_fp").instantiate(32)
    target = get_target("sse")
    ck = misaligned.compiled(inst, "native_vec", target)

    ref_trap = _trap_of(
        lambda: VM(target).run(
            ck.mfunc, inst.scalar_args, misaligned.make_buffers(inst)
        )
    )
    eng_trap = _trap_of(
        lambda: _engine_run(
            ck, engine, inst.scalar_args, misaligned.make_buffers(inst)
        )
    )
    assert ref_trap[0] is VMError, "expected the reference VM to trap"
    assert ref_trap == eng_trap
    assert "misaligned address" in ref_trap[1]


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_trap_parity_unbound_array(engine, diff_runner):
    inst = get_kernel("saxpy_fp").instantiate(32)
    target = get_target("sse")
    ck = diff_runner.compiled(inst, "split_vec_gcc4cli", target)
    ref_trap = _trap_of(lambda: VM(target).run(ck.mfunc, inst.scalar_args, {}))
    eng_trap = _trap_of(
        lambda: _engine_run(ck, engine, inst.scalar_args, {})
    )
    assert ref_trap == eng_trap
    assert ref_trap[0] is VMError and "not bound" in ref_trap[1]


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_trap_parity_unbound_scalar(engine, diff_runner):
    # find a kernel whose compiled form takes scalar parameters
    for name in ("saxpy_fp", "sfir_fp", "dscal_fp"):
        inst = get_kernel(name).instantiate(32)
        target = get_target("sse")
        ck = diff_runner.compiled(inst, "split_vec_gcc4cli", target)
        if not ck.mfunc.scalar_params:
            continue
        bufs = diff_runner.make_buffers(inst)
        ref_trap = _trap_of(lambda: VM(target).run(ck.mfunc, {}, bufs))
        eng_trap = _trap_of(
            lambda: _engine_run(
                ck, engine, {}, diff_runner.make_buffers(inst)
            )
        )
        assert ref_trap == eng_trap
        assert ref_trap[0] is VMError
        assert "scalar parameter" in ref_trap[1]
        return
    pytest.skip("no kernel with scalar parameters found")


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_trap_parity_instruction_budget(engine, diff_runner):
    """The budget trap must fire after *exactly* the same instruction in
    every engine — including when the overrun lands mid-block, which the
    translating engines handle by replaying the block per-instruction."""
    inst = get_kernel("saxpy_fp").instantiate(32)
    target = get_target("sse")
    ck = diff_runner.compiled(inst, "split_vec_gcc4cli", target)
    n = VM(target).run(
        ck.mfunc, inst.scalar_args, diff_runner.make_buffers(inst)
    ).instructions
    for budget in (1, 7, n // 3, n // 2 + 1, n - 1):
        ref_trap = _trap_of(
            lambda: VM(target, max_instructions=budget).run(
                ck.mfunc, inst.scalar_args, diff_runner.make_buffers(inst)
            )
        )
        eng_trap = _trap_of(
            lambda: _engine_run(
                ck, engine, inst.scalar_args,
                diff_runner.make_buffers(inst),
                max_instructions=budget,
            )
        )
        assert ref_trap[0] is VMError, f"budget {budget}/{n} did not trap"
        assert "budget exceeded" in ref_trap[1]
        assert ref_trap == eng_trap, f"budget {budget}/{n}"


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
@pytest.mark.parametrize("budget", [10, 60, 10_000])
def test_trap_parity_budget_vs_alignment_race(budget, engine, diff_runner):
    """With a misaligned buffer *and* a budget, whichever trap fires first
    must be the same one (same message) in every engine."""
    misaligned = FlowRunner(base_misalign=4, check=False)
    inst = get_kernel("saxpy_fp").instantiate(32)
    target = get_target("sse")
    ck = misaligned.compiled(inst, "native_vec", target)
    ref_trap = _trap_of(
        lambda: VM(target, max_instructions=budget).run(
            ck.mfunc, inst.scalar_args, misaligned.make_buffers(inst)
        )
    )
    eng_trap = _trap_of(
        lambda: _engine_run(
            ck, engine, inst.scalar_args, misaligned.make_buffers(inst),
            max_instructions=budget,
        )
    )
    assert ref_trap[0] is VMError
    assert ref_trap == eng_trap


# -- translation caching ------------------------------------------------------


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_translate_is_reusable(engine, diff_runner):
    """One translation survives repeated runs with fresh buffers."""
    inst = get_kernel("interp_fp").instantiate(32)
    target = get_target("altivec")
    ck = diff_runner.compiled(inst, "split_vec_gcc4cli", target)
    code = get_engine(engine).translate(ck.mfunc, target)
    r1 = code.run(inst.scalar_args, diff_runner.make_buffers(inst))
    r2 = code.run(inst.scalar_args, diff_runner.make_buffers(inst))
    assert r1.cycles == r2.cycles
    assert r1.instructions == r2.instructions


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_shared_translation_is_reentrant(engine, diff_runner):
    """The registry's reentrancy rule: one shared compiled kernel (and so
    one translation) run from 4 barrier-started threads, on fresh buffers,
    gives the reference interpreter's answer on every run.  The tiny GIL
    switch interval makes the threads interleave inside one run; n=20000
    is long enough for codegen's batch plans to engage, and sfir_fp's
    plan carries a sum, which must live in each run's own call.  Then the
    same translation overruns its instruction budget from 4 threads at
    once (codegen builds the overrun replay on first use), and every run
    raises the reference interpreter's trap."""
    for name in ("saxpy_fp", "sfir_fp"):
        _race_one_translation(name, engine, diff_runner)


def _race_one_translation(name, engine, diff_runner):
    inst = get_kernel(name).instantiate(20000)
    target = get_target("sse")
    ck = diff_runner.compiled(inst, "split_vec_gcc4cli", target)
    ref_bufs = diff_runner.make_buffers(inst)
    ref = VM(target).run(ck.mfunc, inst.scalar_args, ref_bufs)
    expected = {n: b.read_elements() for n, b in ref_bufs.items()}
    budget = ref.instructions // 2
    ref_trap = _trap_of(
        lambda: VM(target, max_instructions=budget).run(
            ck.mfunc, inst.scalar_args, diff_runner.make_buffers(inst)
        )
    )
    assert ref_trap[0] is VMError
    _engine_run(ck, engine, inst.scalar_args,
                diff_runner.make_buffers(inst))  # translate before racing

    threads, runs = 4, 5
    wrong: list = []
    done: list = []

    def complete(t, i):
        bufs = diff_runner.make_buffers(inst)
        res = _engine_run(ck, engine, inst.scalar_args, bufs)
        got = (res.value, res.cycles, res.instructions)
        if got != (ref.value, ref.cycles, ref.instructions):
            wrong.append((t, i, got))
        for arr, want in expected.items():
            if not np.array_equal(bufs[arr].read_elements(), want):
                wrong.append((t, i, f"array {arr} mismatch"))

    def overrun(t, i):
        trap = _trap_of(lambda: _engine_run(
            ck, engine, inst.scalar_args, diff_runner.make_buffers(inst),
            max_instructions=budget,
        ))
        if trap != ref_trap:
            wrong.append((t, i, trap))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for case, n_runs in ((complete, runs), (overrun, 2)):
            barrier = threading.Barrier(threads, timeout=60)

            def worker(t, case=case, n_runs=n_runs, barrier=barrier):
                barrier.wait()
                for i in range(n_runs):
                    case(t, i)
                    done.append((case.__name__, t, i))

            pool = [threading.Thread(target=worker, args=(t,))
                    for t in range(threads)]
            for th in pool:
                th.start()
            for th in pool:
                th.join(timeout=120)
            assert not any(th.is_alive() for th in pool), "a run hung"
    finally:
        sys.setswitchinterval(old)
    assert not wrong, (
        f"{engine}/{name}: {len(wrong)} wrong runs, e.g. {wrong[:3]}"
    )
    assert len(done) == threads * (runs + 2), "a run raised"
    if engine == "codegen":
        assert any(p.batches for p in ck.translated(engine).plans), name


# -- injected-fault trap parity (repro.faults) --------------------------------


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
@pytest.mark.parametrize("after", [1, 3, 9, 20])
def test_trap_parity_injected_memory_fault(after, engine, diff_runner):
    """A seeded MemFault must fire on the identical access — same type,
    same message — in every engine (all observe the same access stream)."""
    from repro import faults

    inst = get_kernel("saxpy_fp").instantiate(32)
    target = get_target("sse")
    ck = diff_runner.compiled(inst, "split_vec_gcc4cli", target)
    plan = faults.FaultPlan([faults.MemFault(after=after)])

    with faults.injected(plan):
        ref_trap = _trap_of(
            lambda: VM(target).run(
                ck.mfunc, inst.scalar_args, diff_runner.make_buffers(inst)
            )
        )
    with faults.injected(plan):
        eng_trap = _trap_of(
            lambda: _engine_run(
                ck, engine, inst.scalar_args,
                diff_runner.make_buffers(inst)
            )
        )
    assert ref_trap == eng_trap
    assert ref_trap[1] is not None
    assert f"access #{after}" in ref_trap[1]


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_injected_memory_fault_is_marked(engine, diff_runner):
    """Injected traps carry the FaultInjected mixin so chaos campaigns can
    tell them from genuine faults."""
    from repro import faults
    from repro.errors import FaultInjected, classify

    inst = get_kernel("dscal_fp").instantiate(32)
    target = get_target("sse")
    ck = diff_runner.compiled(inst, "split_vec_gcc4cli", target)
    with faults.injected(faults.FaultPlan([faults.MemFault(after=2)])):
        with pytest.raises(VMError) as exc_info:
            _engine_run(
                ck, engine, inst.scalar_args, diff_runner.make_buffers(inst)
            )
    assert isinstance(exc_info.value, FaultInjected)
    assert classify(exc_info.value) == "VMError[injected]"


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_trap_parity_injected_fault_with_misalignment(engine, diff_runner):
    """MemFault + misaligned buffers: whichever trap fires first (the
    injected one fires before the alignment check on the same access)
    must be the same one in every engine."""
    from repro import faults

    misaligned = FlowRunner(base_misalign=4, check=False)
    inst = get_kernel("saxpy_fp").instantiate(32)
    target = get_target("sse")
    ck = misaligned.compiled(inst, "native_vec", target)
    for after in (1, 2, 8):
        plan = faults.FaultPlan([faults.MemFault(after=after)])
        with faults.injected(plan):
            ref_trap = _trap_of(
                lambda: VM(target).run(
                    ck.mfunc, inst.scalar_args, misaligned.make_buffers(inst)
                )
            )
        with faults.injected(plan):
            eng_trap = _trap_of(
                lambda: _engine_run(
                    ck, engine, inst.scalar_args,
                    misaligned.make_buffers(inst),
                )
            )
        assert ref_trap[0] is not None, f"after={after}"
        assert issubclass(ref_trap[0], VMError), f"after={after}"
        assert ref_trap == eng_trap, f"after={after}"


@pytest.mark.parametrize("engine", CANDIDATE_ENGINES)
def test_mem_hook_dormant_without_plan(engine, diff_runner):
    """No plan installed -> injection points are no-ops and execution is
    unchanged (same cycles as an untouched runner)."""
    from repro import faults

    assert faults.active_plan() is None
    assert faults.mem_hook is None
    inst = get_kernel("saxpy_fp").instantiate(32)
    target = get_target("sse")
    ck = diff_runner.compiled(inst, "split_vec_gcc4cli", target)
    code = ck.translated(engine)
    a = code.run(inst.scalar_args, diff_runner.make_buffers(inst))
    with faults.injected(faults.FaultPlan([faults.MemFault(after=10**9)])):
        b = code.run(inst.scalar_args, diff_runner.make_buffers(inst))
    assert a.cycles == b.cycles
    assert a.value == b.value
