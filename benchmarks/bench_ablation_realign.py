"""DESIGN.md ablation: optimized realignment (cross-iteration reuse).

The paper's offline stage emits the Figure 2d scheme — reuse the previous
iteration's aligned load (``va = vb``) so each misaligned stream costs one
aligned load + one permute per iteration instead of two loads + permute.
This bench disables the reuse (``enable_realign_reuse=False``) and measures
the cost on AltiVec, the explicit-realignment target.
"""

from conftest import once
from repro.harness import ablation_realign_reuse
from repro.harness.report import table


def test_ablation_realign_reuse(benchmark):
    out = once(benchmark, lambda: ablation_realign_reuse(target="altivec"))
    print()
    print("Naive realignment vs optimized (cross-iteration reuse), AltiVec")
    print(table(["kernel", "slowdown without reuse"], out["rows"]))
    print(f"\naverage: {out['average']:.3f}x")
    benchmark.extra_info["average"] = round(out["average"], 3)
    # Kernels with misaligned load streams (sfir_fp reads a[i+2]) must pay.
    values = dict(out["rows"])
    assert values["sfir_fp"] > 1.02
    assert out["average"] >= 1.0
    # Kernels without misaligned streams are unaffected; sad_s8's inner
    # loops run a single vector iteration per block, so the chain's setup
    # cost slightly outweighs its benefit there (the cost-model caveat the
    # paper notes for short loops).
    assert all(v >= 0.90 for v in values.values())
