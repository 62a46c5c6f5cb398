"""The full kernel matrix: every Table 2 + PolyBench kernel, through every
compilation flow, on every target, checked against the numpy reference.

This is the repo's ground-truth integration test (and the reason the
FlowRunner fixture is session-scoped — offline results are shared).
"""

import pytest

from repro.kernels import all_kernels, get_kernel

_KERNELS = all_kernels()
_IDS = [k.name for k in _KERNELS]

#: full matrix of interesting flows; scalar-bytecode flows are cheap on one
#: target and redundant elsewhere (no vector code involved).
_VEC_FLOWS = ("split_vec_mono", "split_vec_gcc4cli", "native_vec")
_SIMD_TARGETS = ("sse", "altivec", "neon")


@pytest.mark.parametrize("kernel", _KERNELS, ids=_IDS)
@pytest.mark.parametrize("target", _SIMD_TARGETS + ("scalar",))
@pytest.mark.parametrize("flow", _VEC_FLOWS)
def test_kernel_flow_target(runner, kernel, flow, target):
    inst = kernel.instantiate()
    result = runner.run(inst, flow, target)  # raises CheckError on mismatch
    assert result.checked
    assert result.cycles > 0


@pytest.mark.parametrize("kernel", _KERNELS, ids=_IDS)
def test_kernel_scalar_flows(runner, kernel):
    inst = kernel.instantiate()
    for flow in ("split_scalar_mono", "split_scalar_gcc4cli", "native_scalar"):
        assert runner.run(inst, flow, "sse").checked


@pytest.mark.parametrize("kernel", _KERNELS, ids=_IDS)
def test_vectorization_expectations(runner, kernel):
    """Kernels the paper vectorized must vectorize; lu/ludcmp/seidel's
    elimination/sweep loops must be rejected."""
    inst = kernel.instantiate()
    report = runner.split_ir(inst).annotations["vect_report"]
    vectorized = sum(1 for v in report.values() if v.startswith("vectorized"))
    if kernel.expect_vectorized:
        assert vectorized >= 1, report
    elif kernel.name == "ludcmp_fp":
        # The triangular substitution vectorizes; LU elimination must not.
        rejected = sum(1 for v in report.values() if v.startswith("rejected"))
        assert rejected >= 2, report
    else:
        assert vectorized == 0, report


@pytest.mark.parametrize(
    "kernel,label",
    [
        ("mix_streams_s16", "slp"),
        ("alvinn_s32fp", "outer"),
        ("dct_s32fp", "outer"),
        ("convolve_s32", "outer"),
        ("sfir_s16", "inner"),
    ],
)
def test_vectorization_strategy(runner, kernel, label):
    inst = get_kernel(kernel).instantiate()
    report = runner.split_ir(inst).annotations["vect_report"]
    assert any(v.startswith(f"vectorized ({label})") for v in report.values()), report


@pytest.mark.parametrize(
    "kernel", [k for k in _KERNELS if k.expect_vectorized], ids=lambda k: k.name
)
def test_vectorization_speeds_up_or_breaks_even(runner, kernel):
    """On SSE with the optimizing JIT, split-vectorized code should not be
    slower than the same JIT's scalar code (the cost model's contract);
    most kernels should be substantially faster."""
    inst = kernel.instantiate()
    vec = runner.run(inst, "split_vec_gcc4cli", "sse").cycles
    scal = runner.run(inst, "split_scalar_gcc4cli", "sse").cycles
    assert vec <= scal * 1.10, (vec, scal)


def test_most_kernels_gain_at_least_2x(runner):
    gains = []
    for kernel in _KERNELS:
        if not kernel.expect_vectorized:
            continue
        inst = kernel.instantiate()
        vec = runner.run(inst, "split_vec_gcc4cli", "sse").cycles
        scal = runner.run(inst, "split_scalar_gcc4cli", "sse").cycles
        gains.append(scal / vec)
    big = sum(1 for g in gains if g >= 2.0)
    assert big >= len(gains) * 0.6, sorted(round(g, 2) for g in gains)


@pytest.mark.parametrize("kernel", _KERNELS, ids=_IDS)
def test_bytecode_roundtrip_in_flow(runner, kernel):
    """The FlowRunner round-trips vectorized IR through the binary
    bytecode; this asserts the codec really is in the hot path."""
    inst = kernel.instantiate()
    scalar_bytes, vec_bytes = runner.bytecode_sizes(inst)
    assert scalar_bytes > 0 and vec_bytes > scalar_bytes


def test_kernel_registry_complete():
    names = {k.name for k in _KERNELS}
    table2 = {
        "dissolve_s8", "sad_s8", "sfir_s16", "interp_s16", "mix_streams_s16",
        "convolve_s32", "alvinn_s32fp", "dct_s32fp", "dissolve_fp", "sfir_fp",
        "interp_fp", "MMM_fp", "dscal_fp", "saxpy_fp", "dscal_dp", "saxpy_dp",
    }
    polybench = {
        "correlation_fp", "covariance_fp", "2mm_fp", "3mm_fp", "atax_fp",
        "gesummv_fp", "doitgen_fp", "gemm_fp", "gemver_fp", "bicg_fp",
        "gramschmidt_fp", "lu_fp", "ludcmp_fp", "adi_fp", "jacobi_fp",
        "seidel_fp",
    }
    assert table2 <= names and polybench <= names
    assert len(names) == 32


@pytest.mark.parametrize("size", [1, 2, 3, 5, 17, 64])
def test_saxpy_all_remainders(runner, size):
    """Trip counts around and below VF exercise peel/epilogue edges."""
    inst = get_kernel("saxpy_fp").instantiate(size)
    for target in ("sse", "neon", "scalar"):
        assert runner.run(inst, "split_vec_gcc4cli", target).checked


@pytest.mark.parametrize("size", [1, 3, 9, 33])
def test_sfir_all_remainders(runner, size):
    inst = get_kernel("sfir_fp").instantiate(size)
    for target in ("sse", "altivec"):
        assert runner.run(inst, "split_vec_mono", target).checked


@pytest.mark.parametrize("kernel", _KERNELS, ids=_IDS)
@pytest.mark.parametrize("target", ("vsx", "avx"))
def test_kernels_on_extended_targets(runner, kernel, target):
    """VSX (explicit realign + doubles + misaligned) and AVX (256-bit,
    fp-only: int kernels scalarize) run the same bytecode correctly."""
    inst = kernel.instantiate()
    assert runner.run(inst, "split_vec_gcc4cli", target).checked


def test_doubles_vectorize_on_vsx_not_altivec(runner):
    for name in ("dscal_dp", "saxpy_dp"):
        inst = get_kernel(name).instantiate()
        vsx = runner.run(inst, "split_vec_gcc4cli", "vsx")
        av = runner.run(inst, "split_vec_gcc4cli", "altivec")
        assert vsx.stats["loops_vectorized"] >= 1
        assert av.stats["loops_vectorized"] == 0
        assert vsx.cycles < av.cycles


def test_avx_vectorizes_fp_only(runner):
    fp = get_kernel("saxpy_fp").instantiate()
    s16 = get_kernel("sfir_s16").instantiate()
    assert runner.run(fp, "split_vec_gcc4cli", "avx").stats[
        "loops_vectorized"] >= 1
    assert runner.run(s16, "split_vec_gcc4cli", "avx").stats[
        "loops_vectorized"] == 0
