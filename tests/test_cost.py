"""Tests for the vectorization cost model (§II.c)."""

from repro.analysis.loopinfo import LoopInfo
from repro.frontend import compile_source
from repro.ir import Const, ForLoop, walk
from repro.targets import NEON
from repro.vectorizer import (
    check_inner_loop,
    estimate_loop_cost,
    native_config,
    split_config,
    vectorize_function,
)
from repro.vectorizer.stmt import plan_streams


def _estimate(src, config=None, name="f"):
    config = config or split_config()
    fn = compile_source(src)[name]
    loop = next(i for i in walk(fn.body) if isinstance(i, ForLoop))
    info = LoopInfo(loop, None, 0, [])
    legal = check_inner_loop(info, config)
    assert legal.ok, legal.reasons
    lc = int(loop.lower.value) if isinstance(loop.lower, Const) else None
    plan = plan_streams(legal, info.iv, legal.min_elem, config, lc)
    return estimate_loop_cost(info, legal, plan, config)


SAXPY = """
void f(int n, float alpha, float x[], float y[]) {
    for (int i = 0; i < n; i++) { y[i] = alpha * x[i] + y[i]; }
}
"""


class TestEstimates:
    def test_saxpy_profitable(self):
        est = _estimate(SAXPY)
        assert est.profitable
        assert 1.5 <= est.speedup <= 5.0

    def test_wider_vectors_estimate_better(self):
        generic = _estimate(SAXPY)  # VS=16
        neon = _estimate(SAXPY, native_config(NEON))  # VS=8
        assert generic.speedup > neon.speedup

    def test_narrow_types_estimate_better(self):
        f32 = _estimate(SAXPY)
        s16 = _estimate(
            """
void f(int n, short x[], short y[]) {
    for (int i = 0; i < n; i++) { y[i] = (short)(x[i] + y[i]); }
}
"""
        )
        assert s16.speedup > f32.speedup

    def test_strided_access_costs(self):
        unit = _estimate(
            "void f(int n, float a[], float o[]) {"
            " for (int i = 0; i < n; i++) { o[i] = a[i] * 2.0; } }"
        )
        strided = _estimate(
            "void f(int n, float a[], float o[]) {"
            " for (int i = 0; i < n; i++) { o[i] = a[2*i] * 2.0; } }"
        )
        assert strided.speedup < unit.speedup

    def test_tiny_trip_count_unprofitable(self):
        est = _estimate(
            "void f(float a[2], float o[2]) {"
            " for (int i = 0; i < 2; i++) { o[i] = a[i] * 2.0; } }"
        )
        assert est.trip == 2
        assert not est.profitable

    def test_trip_count_defaults_when_symbolic(self):
        est = _estimate(SAXPY)
        assert est.trip == 128


class TestDriverIntegration:
    def test_tiny_loop_vetoed(self):
        fn = compile_source(
            "void f(float a[2], float o[2]) {"
            " for (int i = 0; i < 2; i++) { o[i] = a[i] * 2.0; } }"
        )["f"]
        out = vectorize_function(fn, split_config())
        report = list(out.annotations["vect_report"].values())[0]
        assert "cost model" in report

    def test_veto_disabled_by_threshold_zero(self):
        fn = compile_source(
            "void f(float a[2], float o[2]) {"
            " for (int i = 0; i < 2; i++) { o[i] = a[i] * 2.0; } }"
        )["f"]
        out = vectorize_function(fn, split_config(cost_threshold=0.0))
        report = list(out.annotations["vect_report"].values())[0]
        assert report.startswith("vectorized")

    def test_report_carries_estimate(self):
        fn = compile_source(SAXPY)["f"]
        out = vectorize_function(fn, split_config())
        report = list(out.annotations["vect_report"].values())[0]
        assert "est x" in report

    def test_all_suite_kernels_pass_cost_model(self):
        from repro.kernels import all_kernels

        for kernel in all_kernels():
            if not kernel.expect_vectorized:
                continue
            inst = kernel.instantiate()
            fn = compile_source(inst.source)[inst.entry]
            out = vectorize_function(fn, split_config())
            report = out.annotations["vect_report"]
            assert any(
                v.startswith("vectorized") for v in report.values()
            ), (kernel.name, report)
