"""Tests for the harness itself: flow consistency, runner options, and
cross-flow numeric agreement."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.harness import FLOWS, FlowRunner
from repro.harness import flows as flows_mod
from repro.kernels import get_kernel


class TestFlowConsistency:
    def test_all_flows_agree_numerically(self):
        """Six compilation flows, one answer (the checker verifies against
        numpy already; this asserts the flows also agree bit-for-bit on an
        integer kernel)."""
        runner = FlowRunner()
        inst = get_kernel("sfir_s16").instantiate(96)
        values = {
            flow: int(runner.run(inst, flow, "sse").value)
            for flow in FLOWS
        }
        assert len(set(values.values())) == 1, values

    def test_flow_table_shape(self):
        assert set(FLOWS) == {
            "split_scalar_mono", "split_vec_mono",
            "split_scalar_gcc4cli", "split_vec_gcc4cli",
            "native_scalar", "native_vec",
        }
        for form, jit_cls in FLOWS.values():
            assert form in ("scalar", "split", "native")
            assert hasattr(jit_cls, "compile") or callable(jit_cls)

    def test_vector_flows_beat_scalar_flows(self):
        runner = FlowRunner()
        inst = get_kernel("dscal_fp").instantiate(256)
        vec = runner.run(inst, "split_vec_gcc4cli", "sse").cycles
        scal = runner.run(inst, "split_scalar_gcc4cli", "sse").cycles
        assert vec < scal


class TestRunnerOptions:
    def test_vectorizer_overrides_change_bytecode(self):
        base = FlowRunner()
        ablated = FlowRunner(
            vectorizer_overrides={"enable_alignment_opts": False}
        )
        inst = get_kernel("sfir_fp").instantiate()
        _, base_bytes = base.bytecode_sizes(inst)
        _, ablated_bytes = ablated.bytecode_sizes(inst)
        # One loop version instead of two: smaller bytecode.
        assert ablated_bytes < base_bytes

    def test_bytecode_roundtrip_toggle(self):
        direct = FlowRunner(use_bytecode_roundtrip=False)
        viabc = FlowRunner(use_bytecode_roundtrip=True)
        inst = get_kernel("saxpy_fp").instantiate(64)
        a = direct.run(inst, "split_vec_gcc4cli", "sse").cycles
        b = viabc.run(inst, "split_vec_gcc4cli", "sse").cycles
        assert a == b  # the codec must be semantically invisible

    def test_base_misalign_still_checked(self):
        """With unaligned bases the default JITs (runtime_aligns=True)
        would be lying about the guard; the harness models an aligning
        runtime, so misaligned buffers are only for special runners —
        but results must still verify when the scalar flow runs."""
        runner = FlowRunner(base_misalign=12)
        inst = get_kernel("saxpy_fp").instantiate(48)
        assert runner.run(inst, "split_scalar_gcc4cli", "sse").checked

    def test_make_buffers_copies_inputs(self):
        runner = FlowRunner()
        inst = get_kernel("dscal_fp").instantiate(32)
        bufs1 = runner.make_buffers(inst)
        bufs1["x"].write_elements(np.zeros(32, np.float32))
        bufs2 = runner.make_buffers(inst)
        assert not np.array_equal(
            bufs2["x"].read_elements(), np.zeros(32, np.float32)
        )


class TestCaching:
    def test_offline_results_shared_across_flows(self):
        runner = FlowRunner()
        inst = get_kernel("gemm_fp").instantiate()
        ir1 = runner.split_ir(inst)
        ir2 = runner.split_ir(get_kernel("gemm_fp").instantiate())
        assert ir1 is ir2

    def test_sizes_are_distinct_cache_keys(self):
        runner = FlowRunner()
        small = runner.split_ir(get_kernel("gemm_fp").instantiate(8))
        large = runner.split_ir(get_kernel("gemm_fp").instantiate(16))
        # Matrix sizes are baked into the source, so each size compiles
        # its own bytecode (and must not collide in the cache).
        assert small is not large

    def test_size_free_source_is_one_program(self):
        runner = FlowRunner()
        small = runner.split_ir(get_kernel("saxpy_fp").instantiate(64))
        large = runner.split_ir(get_kernel("saxpy_fp").instantiate(2000))
        # saxpy takes n at run time: one source, one offline stage.
        assert small is large

    def test_program_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(flows_mod, "MAX_PROGRAMS", 2)
        runner = FlowRunner()
        for n in (8, 12, 16, 20):  # gemm embeds n: four programs
            runner.scalar_ir(get_kernel("gemm_fp").instantiate(n))
        assert runner._programs.cache_info().currsize == 2

    def test_concurrent_requests_build_a_program_once(self, frontend_calls,
                                                      monkeypatch):
        """Eight threads ask for eight sizes of one new program at once:
        the per-program lock lets exactly one of them run the frontend."""
        counting = flows_mod.compile_source

        def slow(*args, **kwargs):
            time.sleep(0.05)  # hold the build open until every thread asks
            return counting(*args, **kwargs)

        monkeypatch.setattr(flows_mod, "compile_source", slow)
        runner = FlowRunner()
        insts = [get_kernel("saxpy_fp").instantiate(16 + i) for i in range(8)]
        barrier = threading.Barrier(len(insts))
        irs = [None] * len(insts)

        def ask(i):
            barrier.wait(timeout=10)
            irs[i] = runner.split_ir(insts[i])

        threads = [threading.Thread(target=ask, args=(i,))
                   for i in range(len(insts))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(frontend_calls) == 1
        assert all(ir is irs[0] for ir in irs)
