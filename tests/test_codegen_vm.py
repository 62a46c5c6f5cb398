"""Codegen-engine specifics and the engine-registry API.

The differential matrix (``tests/test_engine_parity.py``) already proves
the codegen engine bit-identical to the reference VM at small sizes
(n <= 32), where SSE's f32 vector loops leave fewer than ``_MIN_BATCH``
iterations and run on the per-iteration superinstruction path
(``test_matrix_runs_vector_loops_unbatched`` asserts that their plans
never batch there).  This file covers what the matrix cannot:

* the batched fast path actually engages at realistic sizes and on the
  short trips of e2ebench's warm_hot shapes (n=64), and stays
  bit-identical (values, cycles, instructions, op counts, memory);
* sizes that share one translation keep batching: no size's run stops
  a plan that another size batches;
* the generated source is byte-stable across processes (no ``id()`` /
  ``hash()`` leakage), so compile caches can key on it;
* the registry API itself: registration rules, error shapes, and — the
  point of the registry — a toy engine becoming selectable end-to-end
  (``execute_phase``, ``FlowRunner``, CLI ``--engine`` choices) without
  touching any dispatch site;
* the translation memo: concurrent first callers translate once.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro.api as api
from repro.harness.flows import FlowRunner
from repro.jit import CompiledKernel
from repro.kernels import get_kernel
from repro.machine import VM, codegen
from repro.machine.codegen import CodegenCode
from repro.machine.registry import (
    DEFAULT_ENGINE,
    Engine,
    engine_names,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.targets import get_target


@pytest.fixture(scope="module")
def runner() -> FlowRunner:
    return FlowRunner()


# -- batched fast path --------------------------------------------------------


#: kernels whose vector loops run long enough (trip >= 256 at these
#: sizes) for the batch planner to engage: four streaming loops,
#: sfir_s16's vdot accumulator and dissolve_s8's widening and narrowing
#: (whose SSE loop under gcc4cli reloads a spilled bound in its header).
BATCH_CASES = [
    ("saxpy_fp", 2048),
    ("dscal_dp", 2048),
    ("dissolve_fp", 2048),
    ("mix_streams_s16", 2048),
    ("sfir_s16", 2048),
    ("dissolve_s8", 2048),
]

#: sfir_fp's f32 vadd accumulator, where fold order shows: at n=3103 a
#: pairwise sum of the addends rounds differently from the sequential
#: loop.  AltiVec realigns its ``a[i+2]`` with vperm, which the planner
#: does not batch.
FP_SUM_CASE = ("sfir_fp", 3103, ("sse", "neon"))

#: short trips: e2ebench warm_hot's five shapes at n=64, whose vector
#: loops leave batches of 15 (SSE) and 31 or 63 (NEON's 8-byte vectors),
#: all but the last under a gate of 32.
SHORT_CASES = (
    ("saxpy_fp", 64, "sse"),
    ("dscal_fp", 64, "sse"),
    ("dissolve_fp", 64, "neon"),
    ("mix_streams_s16", 64, "neon"),
    ("sfir_fp", 64, "neon"),
)


def _codegen_code(runner, name, size, flow="split_vec_gcc4cli",
                  target_name="sse", count_ops=False) -> tuple:
    inst = get_kernel(name).instantiate(size)
    target = get_target(target_name)
    ck = runner.compiled(inst, flow, target)
    return inst, target, ck, ck.translated("codegen", count_ops=count_ops)


#: SSE has scaled addressing; NEON and AltiVec compute addresses with
#: shl, which the planner folds into affine nodes.
BATCH_TARGETS = ("sse", "neon", "altivec")


def _batch_params():
    """(name, size, target) cases; the SSE ids keep their original
    ``name-size`` form."""
    name, size, targets = FP_SUM_CASE
    cases = [(t, c) for t in BATCH_TARGETS for c in BATCH_CASES]
    cases += [(t, (name, size)) for t in targets]
    cases += [(t, (k, n)) for k, n, t in SHORT_CASES]
    for target_name, (name, size) in cases:
        suffix = "" if target_name == "sse" else f"-{target_name}"
        yield pytest.param(name, size, target_name,
                           id=f"{name}-{size}{suffix}")


@pytest.mark.parametrize("name,size,target_name", list(_batch_params()))
def test_batch_path_engages_and_matches_reference(name, size, target_name,
                                                  runner):
    inst, target, ck, code = _codegen_code(
        runner, name, size, target_name=target_name, count_ops=True
    )
    assert isinstance(code, CodegenCode)
    eng_bufs = runner.make_buffers(inst)
    # Sizes of one source share one translation, so count this run's own
    # batches, not those an earlier test left on the plans.
    before = [p.batches for p in code.plans]
    eng = code.run(inst.scalar_args, eng_bufs)
    # the planner must actually have fired — otherwise this test silently
    # degrades into a rerun of the small-size matrix.
    assert code.plans, f"{name}: no batch plans were planted"
    ran = [p.batches - b for p, b in zip(code.plans, before)]
    assert any(ran), f"{name}@{size}: batch plan never engaged ({ran})"
    assert not any(p.dead for p in code.plans if p.batches), (
        f"{name}@{size}: an engaged batch plan bailed permanently"
    )
    ref_bufs = runner.make_buffers(inst)
    ref = VM(target).run(
        ck.mfunc, inst.scalar_args, ref_bufs, count_ops=True
    )
    assert eng.instructions == ref.instructions
    assert eng.cycles == ref.cycles
    assert dict(eng.op_counts) == dict(ref.op_counts)
    if ref.value is None:
        assert eng.value is None
    else:
        assert eng.value == ref.value
    for pname, buf in ref_bufs.items():
        np.testing.assert_array_equal(
            buf.read_elements(), eng_bufs[pname].read_elements(),
            err_msg=f"{name}@{size}: array {pname!r} diverged",
        )


@pytest.mark.parametrize("name,failing_chunk", [
    pytest.param("saxpy_fp", None, id="None"),
    pytest.param("saxpy_fp", 3, id="3"),
    pytest.param("sfir_fp", None, id="sfir_fp-None"),
    pytest.param("sfir_fp", 3, id="sfir_fp-3"),
])
def test_batch_chunks_cover_a_trip_longer_than_max_batch(name, failing_chunk,
                                                       runner, monkeypatch):
    """One attempt per loop entry runs a trip longer than _MAX_BATCH as
    consecutive chunks (SSE at n=2048: 511 batchable iterations, chunks
    of 100).  A chunk that fails after others committed keeps their work
    and the loop finishes per iteration; sfir_fp's sum crosses from one
    chunk to the next and resumes from what the committed chunks left.
    Either way the run is bit-identical to the reference."""
    monkeypatch.setattr(codegen, "_MAX_BATCH", 100)
    inst = get_kernel(name).instantiate(2048)
    target = get_target("sse")
    ck = runner.compiled(inst, "split_vec_gcc4cli", target)
    code = codegen.translate(ck.mfunc, target, count_ops=True)
    if failing_chunk is not None:
        for plan in code.plans:
            def check(loads, stores, k, _calls=itertools.count(1),
                      _check=plan._check_mem):
                if next(_calls) == failing_chunk:
                    raise codegen._Bail()
                _check(loads, stores, k)
            plan._check_mem = check
    eng_bufs = runner.make_buffers(inst)
    eng = code.run(inst.scalar_args, eng_bufs)
    batches = max(p.batches for p in code.plans)
    if failing_chunk is None:
        assert batches == 6
    else:
        assert batches == failing_chunk - 1
    ref_bufs = runner.make_buffers(inst)
    ref = VM(target).run(ck.mfunc, inst.scalar_args, ref_bufs, count_ops=True)
    assert (eng.value, eng.instructions, eng.cycles, dict(eng.op_counts)) \
        == (ref.value, ref.instructions, ref.cycles, dict(ref.op_counts))
    for pname, buf in ref_bufs.items():
        np.testing.assert_array_equal(
            buf.read_elements(), eng_bufs[pname].read_elements()
        )


#: cold_mix's kernels whose plans batch (interp_*'s vinterleave loop has
#: no plan on SSE, and its NEON plan never batches).
SHARED_SIZE_KERNELS = (
    "dissolve_s8", "sfir_s16", "mix_streams_s16", "dissolve_fp",
    "sfir_fp", "dscal_fp", "saxpy_fp",
)


@pytest.mark.parametrize("target_name", ["sse", "neon"])
@pytest.mark.parametrize("name", SHARED_SIZE_KERNELS)
def test_sizes_sharing_a_translation_keep_batching(name, target_name,
                                                   runner):
    """The size is a run-time argument of these kernels, so every size
    compiles to one kernel, and the service's hot tier hands every size
    the same translation.  A rule that stops a plan for good must hold
    for every size: after runs at n=32, 48 and 64, whose trips are short
    or barely past _MIN_BATCH, the shared translation still batches
    n=3103 with the plans a fresh translation batches it with, and every
    run matches the reference."""
    kernel = get_kernel(name)
    target = get_target(target_name)
    ck = runner.compiled(kernel.instantiate(32), "split_vec_gcc4cli", target)
    big = kernel.instantiate(3103)
    fresh = codegen.translate(ck.mfunc, target)
    fresh.run(big.scalar_args, runner.make_buffers(big))
    want = [p.batches > 0 for p in fresh.plans]
    assert any(want), f"{name}: no plan batches n=3103"
    shared = codegen.translate(ck.mfunc, target)
    for size in (32, 48, 64, 3103):
        inst = kernel.instantiate(size)
        assert runner.compiled(inst, "split_vec_gcc4cli", target) is ck
        before = [p.batches for p in shared.plans]
        eng_bufs = runner.make_buffers(inst)
        eng = shared.run(inst.scalar_args, eng_bufs)
        ref_bufs = runner.make_buffers(inst)
        ref = VM(target).run(ck.mfunc, inst.scalar_args, ref_bufs)
        assert (eng.value, eng.cycles, eng.instructions) \
            == (ref.value, ref.cycles, ref.instructions), size
        for pname, buf in ref_bufs.items():
            np.testing.assert_array_equal(
                buf.read_elements(), eng_bufs[pname].read_elements(),
                err_msg=f"{name}@{size}: array {pname!r} diverged",
            )
    got = [p.batches > b for p, b in zip(shared.plans, before)]
    assert got == want, (got, want)


def _plan_calls(runner, name, size, target_name):
    """Calls of each plan's ``attempt`` in one run, and the plans."""
    kernel = get_kernel(name)
    inst = kernel.instantiate(size or kernel.default_size)
    target = get_target(target_name)
    ck = runner.compiled(inst, "split_vec_gcc4cli", target)
    code = codegen.translate(ck.mfunc, target)
    calls = [0] * len(code.plans)
    for i, plan in enumerate(code.plans):
        def counted(*args, _i=i, _attempt=plan.attempt):
            calls[_i] += 1
            return _attempt(*args)
        plan.attempt = counted
    code.run(inst.scalar_args, runner.make_buffers(inst))
    return calls, code.plans


def test_plan_is_attempted_once_per_loop_entry(runner):
    """A plan is called at most once per entry into its loop, and not at
    all when the trip left is too short to batch.  saxpy_fp/SSE enters
    each of its loops once per run: at n=32 no loop is long enough (the
    vector loop's 8 iterations leave a batch of 7, below ``_MIN_BATCH``),
    at n=2048 only the vector loop is, and it batches from its one
    call."""
    calls, plans = _plan_calls(runner, "saxpy_fp", 32, "sse")
    assert plans and calls == [0] * len(plans), calls
    calls, plans = _plan_calls(runner, "saxpy_fp", 2048, "sse")
    assert sorted(calls) == [0] * (len(plans) - 1) + [1], calls
    assert [p.batches for p in plans] == calls


@pytest.mark.parametrize("target_name", ["sse", "neon"])
def test_short_trips_skip_the_plan_call(target_name, runner):
    """MMM_fp's inner loops leave batches shorter than _MIN_BATCH at
    n=16, and it enters them hundreds of times per run: the header's
    inline trip test skips every call, with the step read from a spill
    slot (SSE) or from a register (NEON)."""
    calls, plans = _plan_calls(runner, "MMM_fp", 16, target_name)
    assert plans and calls == [0] * len(plans), calls
    step_kind = {"sse": "spill", "neon": "reg"}[target_name]
    assert {p.step_src[0] for p in plans} == {step_kind}


def test_budget_replay_is_not_in_the_generated_source(runner):
    """The per-instruction budget replay is built on first overrun, not
    compiled with every translation; the budget-parity tests in
    tests/test_engine_parity.py and above check the traps it raises."""
    inst = get_kernel("saxpy_fp").instantiate(64)
    target = get_target("sse")
    ck = runner.compiled(inst, "split_vec_gcc4cli", target)
    code = codegen.translate(ck.mfunc, target)
    assert "budget exceeded" not in code.source


def test_batch_path_budget_parity_at_scale(runner):
    """A budget landing *inside* a batched region must trap on exactly the
    reference instruction (the plan clamps batches to budget room), in a
    streaming loop (saxpy_fp) and in a reduction (sfir_fp)."""
    for name in ("saxpy_fp", "sfir_fp"):
        inst, target, ck, code = _codegen_code(runner, name, 2048)
        full = code.run(inst.scalar_args, runner.make_buffers(inst))
        n = full.instructions
        for budget in (n // 2, n // 2 + 13, n - 1):
            ref_err = eng_err = None
            try:
                VM(target, max_instructions=budget).run(
                    ck.mfunc, inst.scalar_args, runner.make_buffers(inst)
                )
            except Exception as exc:  # noqa: BLE001 - comparing trap identity
                ref_err = (type(exc), str(exc))
            batches = sum(p.batches for p in code.plans)
            try:
                code.run(
                    inst.scalar_args, runner.make_buffers(inst),
                    max_instructions=budget,
                )
            except Exception as exc:  # noqa: BLE001
                eng_err = (type(exc), str(exc))
            where = f"{name}: budget {budget}/{n}"
            assert ref_err is not None, f"{where} did not trap"
            assert ref_err == eng_err, where
            assert sum(p.batches for p in code.plans) > batches, (
                f"{where} ran no batch"
            )


# -- source determinism -------------------------------------------------------


_HASH_SCRIPT = """\
import hashlib, sys
from repro.harness.flows import FlowRunner
from repro.kernels import get_kernel
from repro.machine.codegen import translate
from repro.targets import get_target

runner = FlowRunner()
h = hashlib.sha256()
for name in ("saxpy_fp", "sad_s8", "MMM_fp"):
    for flow in ("split_vec_gcc4cli", "native_vec"):
        inst = get_kernel(name).instantiate(32)
        ck = runner.compiled(inst, flow, get_target("sse"))
        for count_ops in (False, True):
            src = translate(ck.mfunc, ck.target, count_ops).source
            h.update(src.encode())
sys.stdout.write(h.hexdigest())
"""


def test_generated_source_is_cross_process_deterministic(tmp_path):
    """The emitted Python must not depend on ``id()`` / ``hash()`` /
    dict-iteration salt: two fresh interpreters with different hash seeds
    must generate byte-identical source."""
    import os

    digests = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        out = subprocess.run(
            [sys.executable, "-c", _HASH_SCRIPT],
            capture_output=True, text=True, env=env, cwd=os.getcwd(),
            check=True,
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]
    assert len(digests[0]) == 64


def test_generated_source_in_process_stable(runner):
    """Two translations of the same kernel yield identical source text."""
    from repro.machine.codegen import translate as cg_translate

    inst = get_kernel("saxpy_fp").instantiate(32)
    ck = runner.compiled(inst, "split_vec_gcc4cli", get_target("sse"))
    a = cg_translate(ck.mfunc, ck.target, False)
    b = cg_translate(ck.mfunc, ck.target, False)
    assert a is not b
    assert a.source == b.source


# -- translation cache --------------------------------------------------------


def test_translated_caches_per_engine_and_count_ops(runner):
    inst = get_kernel("saxpy_fp").instantiate(32)
    ck = runner.compiled(inst, "split_vec_gcc4cli", get_target("sse"))
    cg = ck.translated("codegen")
    assert ck.translated("codegen") is cg
    assert ck.translated("codegen", count_ops=True) is not cg


def test_reference_engine_has_no_translate(runner):
    inst = get_kernel("saxpy_fp").instantiate(32)
    ck = runner.compiled(inst, "split_vec_gcc4cli", get_target("sse"))
    assert get_engine("reference").translate is None
    with pytest.raises(ValueError, match="no translate step"):
        ck.translated("reference")


def test_concurrent_first_callers_translate_once(runner):
    """Callers that share one kernel and reach its memo at once
    (single-flight followers, warm hits on one hot-tier entry) share one
    translation: four barrier-started threads against a translate step
    that sleeps make one call and get one object."""
    inst = get_kernel("saxpy_fp").instantiate(32)
    shared = runner.compiled(inst, "split_vec_gcc4cli", get_target("sse"))
    ck = CompiledKernel(shared.mfunc, shared.target, shared.compiler, 0.0)
    calls = []

    def slow_translate(mfunc, target, count_ops=False):
        calls.append(count_ops)
        time.sleep(0.05)
        return object()

    register_engine("slow-toy", translate=slow_translate, run=_toy_run)
    try:
        barrier = threading.Barrier(4, timeout=30)
        got = []

        def worker():
            barrier.wait()
            got.append(ck.translated("slow-toy"))

        pool = [threading.Thread(target=worker) for _ in range(4)]
        for th in pool:
            th.start()
        for th in pool:
            th.join(timeout=30)
    finally:
        unregister_engine("slow-toy")
    assert len(got) == 4
    assert len(calls) == 1, calls
    assert len({id(code) for code in got}) == 1


# -- registry API -------------------------------------------------------------


def _toy_run(ck, scalar_args, arrays, *, count_ops=False,
             max_instructions=None):
    """A toy engine: delegates to the reference interpreter, so it is
    trivially bit-identical — the point is the *plumbing*."""
    vm = VM(ck.target) if max_instructions is None else VM(
        ck.target, max_instructions
    )
    return vm.run(ck.mfunc, scalar_args, arrays, count_ops=count_ops)


@pytest.fixture
def toy_engine():
    eng = register_engine(
        "toy", run=_toy_run, description="reference delegate (test toy)"
    )
    try:
        yield eng
    finally:
        unregister_engine("toy")


def test_register_engine_validates():
    with pytest.raises(ValueError, match="non-empty string"):
        register_engine("", run=_toy_run)
    with pytest.raises(ValueError, match="needs a run callable"):
        register_engine("no-run")


def test_register_engine_rejects_duplicates(toy_engine):
    with pytest.raises(ValueError, match="already registered"):
        register_engine("toy", run=_toy_run)
    # replace=True is the explicit override
    swapped = register_engine(
        "toy", run=_toy_run, description="v2", replace=True
    )
    assert get_engine("toy") is swapped
    assert swapped.description == "v2"


def test_get_engine_error_lists_known_names():
    with pytest.raises(ValueError, match="unknown engine"):
        get_engine("warp")
    with pytest.raises(ValueError, match="codegen"):
        get_engine("warp")


def test_builtin_registry_shape():
    names = engine_names()
    assert names == ("codegen", "reference")
    assert DEFAULT_ENGINE in names
    eng = get_engine("codegen")
    assert isinstance(eng, Engine)
    assert eng.translate is not None and eng.description


def test_unregister_is_idempotent():
    unregister_engine("never-existed")  # no raise


# -- a toy engine, end to end -------------------------------------------------


def test_toy_engine_selectable_via_execute_phase(toy_engine, runner):
    inst = get_kernel("saxpy_fp").instantiate(32)
    ck = runner.compiled(inst, "split_vec_gcc4cli", get_target("sse"))
    toy = api.execute_phase(
        ck, inst.scalar_args, runner.make_buffers(inst), engine="toy"
    )
    ref = api.execute_phase(
        ck, inst.scalar_args, runner.make_buffers(inst), engine="reference"
    )
    assert toy.cycles == ref.cycles
    assert toy.instructions == ref.instructions
    assert api.resolve_engine("toy") == "toy"


def test_toy_engine_selectable_via_flow_runner(toy_engine):
    inst = get_kernel("saxpy_fp").instantiate(32)
    toy_res = FlowRunner(engine="toy").run(inst, "split_vec_gcc4cli", "sse")
    cg_res = FlowRunner(engine="codegen").run(
        inst, "split_vec_gcc4cli", "sse"
    )
    assert toy_res.cycles == cg_res.cycles
    assert toy_res.checked and cg_res.checked


def test_toy_engine_selectable_via_cli(toy_engine, capsys):
    from repro.cli import main

    rc = main([
        "run", "saxpy_fp", "--flow", "split_vec_gcc4cli",
        "--target", "sse", "--size", "32", "--engine", "toy",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "saxpy_fp" in out and "cycles" in out


def test_cli_rejects_unknown_engine():
    from repro.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "saxpy_fp", "--engine", "warp"])


def test_api_getattr_still_raises_for_unknown():
    with pytest.raises(AttributeError):
        api.no_such_symbol  # noqa: B018
