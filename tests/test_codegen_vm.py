"""Codegen-engine specifics and the engine-registry API.

The differential matrix (``tests/test_threaded_vm.py``) already proves
the codegen engine bit-identical to the reference VM at small sizes —
which, deliberately, exercises the *non*-batched superinstruction path
(vector trips there are below ``_MIN_BATCH``).  This file covers what
the matrix cannot:

* the batched fast path actually engages at realistic sizes and stays
  bit-identical (values, cycles, instructions, op counts, memory);
* the generated source is byte-stable across processes (no ``id()`` /
  ``hash()`` leakage), so compile caches can key on it;
* the registry API itself: registration rules, error shapes, and — the
  point of the redesign — a toy fourth engine becoming selectable end-to-end
  (``execute_phase``, ``FlowRunner``, CLI ``--engine`` choices) without
  touching any dispatch site.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

import repro.api as api
from repro.harness.flows import FlowRunner
from repro.kernels import get_kernel
from repro.machine import VM
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


#: streaming kernels whose vector loops run long enough (trip >= 256 at
#: these sizes) for the batch planner to engage.
BATCH_CASES = [
    ("saxpy_fp", 2048),
    ("dscal_dp", 2048),
    ("dissolve_fp", 2048),
    ("mix_streams_s16", 2048),
]


def _codegen_code(runner, name, size, flow="split_vec_gcc4cli",
                  target_name="sse", count_ops=False) -> tuple:
    inst = get_kernel(name).instantiate(size)
    target = get_target(target_name)
    ck = runner.compiled(inst, flow, target)
    return inst, target, ck, ck.translated("codegen", count_ops=count_ops)


@pytest.mark.parametrize("name,size", BATCH_CASES)
def test_batch_path_engages_and_matches_reference(name, size, runner):
    inst, target, ck, code = _codegen_code(
        runner, name, size, count_ops=True
    )
    assert isinstance(code, CodegenCode)
    eng_bufs = runner.make_buffers(inst)
    eng = code.run(inst.scalar_args, eng_bufs)
    # the planner must actually have fired — otherwise this test silently
    # degrades into a rerun of the small-size matrix.
    assert code.plans, f"{name}: no batch plans were planted"
    assert any(p.batches > 0 for p in code.plans), (
        f"{name}@{size}: batch plan never engaged "
        f"(batches={[p.batches for p in code.plans]})"
    )
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


def test_batch_path_budget_parity_at_scale(runner):
    """A budget landing *inside* a batched region must trap on exactly the
    reference instruction (the plan clamps batches to budget room)."""
    inst, target, ck, code = _codegen_code(runner, "saxpy_fp", 2048)
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
        try:
            code.run(
                inst.scalar_args, runner.make_buffers(inst),
                max_instructions=budget,
            )
        except Exception as exc:  # noqa: BLE001
            eng_err = (type(exc), str(exc))
        assert ref_err is not None, f"budget {budget}/{n} did not trap"
        assert ref_err == eng_err, f"budget {budget}/{n}"


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
    thr = ck.translated("threaded")
    assert thr is not cg
    assert ck.threaded() is thr  # shorthand hits the same cache slot


def test_reference_engine_has_no_translate(runner):
    inst = get_kernel("saxpy_fp").instantiate(32)
    ck = runner.compiled(inst, "split_vec_gcc4cli", get_target("sse"))
    assert get_engine("reference").translate is None
    with pytest.raises(ValueError, match="no translate step"):
        ck.translated("reference")


# -- registry API -------------------------------------------------------------


def _toy_run(ck, scalar_args, arrays, *, count_ops=False,
             max_instructions=None):
    """A fourth engine: delegates to the reference interpreter, so it is
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
    with pytest.raises(ValueError, match="threaded"):
        get_engine("warp")


def test_builtin_registry_shape():
    names = engine_names()
    assert set(names) >= {"threaded", "codegen", "reference"}
    assert DEFAULT_ENGINE in names
    eng = get_engine("codegen")
    assert isinstance(eng, Engine)
    assert eng.translate is not None and eng.description


def test_unregister_is_idempotent():
    unregister_engine("never-existed")  # no raise


# -- fourth engine, end to end ------------------------------------------------


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
    thr_res = FlowRunner(engine="threaded").run(
        inst, "split_vec_gcc4cli", "sse"
    )
    assert toy_res.cycles == thr_res.cycles
    assert toy_res.checked and thr_res.checked


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
