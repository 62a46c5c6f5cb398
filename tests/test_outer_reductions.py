"""Tests for outer-loop vectorization with outer-carried reductions."""

import numpy as np
import pytest

from repro import (
    ArrayBuffer,
    MonoJIT,
    OptimizingJIT,
    VM,
    compile_source,
    get_target,
    split_config,
    vectorize_function,
)
from repro.bytecode import decode_function, encode_function
from repro.ir import F32, InitReduc, Reduce, verify_function, walk

FRO = """
float fro(int n, float w[16][64]) {
    float total = 0;
    for (int i = 0; i < n; i++) {
        float s = 0;
        for (int j = 0; j < 16; j++) { s += w[j][i] * w[j][i]; }
        total += s;
    }
    return total;
}
"""


def _vec(src, name):
    fn = compile_source(src)[name]
    out = vectorize_function(fn, split_config())
    verify_function(out)
    return out


class TestOuterReductions:
    def test_outer_strategy_chosen(self):
        out = _vec(FRO, "fro")
        report = out.annotations["vect_report"]
        assert any(v.startswith("vectorized (outer)") for v in report.values())

    def test_reduction_idioms_emitted(self):
        out = _vec(FRO, "fro")
        assert any(isinstance(i, InitReduc) for i in walk(out.body))
        assert any(isinstance(i, Reduce) for i in walk(out.body))

    @pytest.mark.parametrize("n", [1, 7, 60, 64])
    @pytest.mark.parametrize("target_name", ["sse", "altivec", "neon", "scalar"])
    def test_correct_everywhere(self, n, target_name):
        out = decode_function(encode_function(_vec(FRO, "fro")))
        target = get_target(target_name)
        rng = np.random.default_rng(n)
        w = rng.standard_normal((16, 64)).astype(np.float32)
        expect = float((w[:, :n].astype(np.float64) ** 2).sum())
        for jit in (MonoJIT(), OptimizingJIT()):
            ck = jit.compile(out, target)
            bufs = {"w": ArrayBuffer(F32, 16 * 64, data=w)}
            res = VM(target).run(ck.mfunc, {"n": n}, bufs)
            assert float(res.value) == pytest.approx(expect, rel=1e-3)

    def test_outer_min_reduction(self):
        src = """
float colmin(int n, float w[8][32]) {
    float best = 1000000.0;
    for (int i = 0; i < n; i++) {
        float s = 0;
        for (int j = 0; j < 8; j++) { s += w[j][i]; }
        best = min(best, s);
    }
    return best;
}
"""
        out = _vec(src, "colmin")
        assert any(
            v.startswith("vectorized (outer)")
            for v in out.annotations["vect_report"].values()
        )
        rng = np.random.default_rng(1)
        w = rng.standard_normal((8, 32)).astype(np.float32)
        expect = float(w[:, :30].sum(axis=0, dtype=np.float64).min())
        target = get_target("sse")
        ck = OptimizingJIT().compile(out, target)
        bufs = {"w": ArrayBuffer(F32, 8 * 32, data=w)}
        res = VM(target).run(ck.mfunc, {"n": 30}, bufs)
        assert float(res.value) == pytest.approx(expect, rel=1e-4)

    def test_non_reduction_outer_recurrence_rejected(self):
        src = """
float bad(int n, float w[8][32]) {
    float acc = 1.0;
    for (int i = 0; i < n; i++) {
        float s = 0;
        for (int j = 0; j < 8; j++) { s += w[j][i]; }
        acc = s - acc;
    }
    return acc;
}
"""
        out = _vec(src, "bad")
        assert not any(
            v.startswith("vectorized")
            for v in out.annotations["vect_report"].values()
        )
