"""Tests for the analysis layer: affine forms, loop info, memory refs,
dependence testing (with a hypothesis soundness check against brute force),
reductions, and alignment hints."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Affine,
    analyze_loops,
    collect_memrefs,
    const_trip_count,
    dependences_for_loop,
    find_reductions,
    misalignment_hint,
)
from repro.analysis import test_dependence as dep_test
from repro.analysis.memrefs import MemRef
from repro.frontend import compile_source
from repro.ir import F32, I32, Argument, ArrayRef
from repro.ir.idioms import MOD_HINT


def _loop(src, name="f", index=0):
    fn = compile_source(src)[name]
    nest = analyze_loops(fn)
    return fn, nest.all_loops()[index]


class TestAffine:
    def test_basic_algebra(self):
        v = Argument("i", I32)
        a = Affine.var(v, 2) + Affine.constant(3)
        b = a.scaled(4)
        assert b.coeff(v) == 8 and b.const == 12
        assert (b - b).is_constant

    def test_cancellation_drops_term(self):
        v = Argument("i", I32)
        z = Affine.var(v) - Affine.var(v)
        assert z.is_constant and z.const == 0

    def test_affine_of_subscript(self):
        fn, li = _loop(
            "void f(int n, float a[]) { for (int i = 0; i < n; i++)"
            " { a[3*i + 5] = 0.0; } }"
        )
        refs = collect_memrefs(li.loop)
        aff = refs[0].affine
        assert aff.coeff(li.iv) == 3 and aff.const == 5

    def test_affine_of_shift(self):
        fn, li = _loop(
            "void f(int n, float a[]) { for (int i = 0; i < n; i++)"
            " { a[(i << 2) + 1] = 0.0; } }"
        )
        aff = collect_memrefs(li.loop)[0].affine
        assert aff.coeff(li.iv) == 4 and aff.const == 1

    def test_nonaffine_becomes_symbol(self):
        fn, li = _loop(
            "void f(int n, int idx[], float a[]) {"
            " for (int i = 0; i < n; i++) { a[idx[i]] = 0.0; } }"
        )
        refs = collect_memrefs(li.loop)
        store = [r for r in refs if r.is_store][0]
        # The idx[i] load is an opaque symbol with coefficient 1.
        assert store.affine.coeff(li.iv) == 0

    def test_symbolic_parameter_term(self):
        fn, li = _loop(
            "void f(int n, int k, float a[]) {"
            " for (int i = 0; i < n; i++) { a[i + k] = 0.0; } }"
        )
        aff = collect_memrefs(li.loop)[0].affine
        k = fn.scalar_params[1]
        assert aff.coeff(li.iv) == 1 and aff.coeff(k) == 1


class TestLoopInfo:
    def test_nesting(self):
        fn, _ = _loop(
            "void f(float A[4][4]) { for (int i = 0; i < 4; i++)"
            " for (int j = 0; j < 4; j++) { A[i][j] = 0.0; } }"
        )
        nest = analyze_loops(fn)
        assert len(nest.roots) == 1
        outer = nest.roots[0]
        assert outer.depth == 0 and len(outer.children) == 1
        inner = outer.children[0]
        assert inner.depth == 1 and inner.is_innermost
        assert inner.enclosing_ivs() == [outer.iv, inner.iv]

    def test_const_trip_count(self):
        fn, li = _loop("void f(float a[8]) { for (int i = 2; i < 8; i++) { a[i] = 0.0; } }")
        assert const_trip_count(li.loop) == 6

    def test_symbolic_trip_count(self):
        fn, li = _loop("void f(int n, float a[]) { for (int i = 0; i < n; i++) { a[i] = 0.0; } }")
        assert const_trip_count(li.loop) is None


class TestLinearize:
    def test_row_major(self):
        fn, li = _loop(
            "void f(float A[8][16]) { for (int i = 0; i < 8; i++)"
            " for (int j = 0; j < 16; j++) { A[i][j] = 0.0; } }",
            index=1,
        )
        aff = collect_memrefs(li.loop)[0].affine
        nest = analyze_loops(fn)
        outer_iv = nest.roots[0].iv
        assert aff.coeff(outer_iv) == 16
        assert aff.coeff(li.iv) == 1


class TestDependence:
    def _refs(self, src):
        fn, li = _loop(src)
        return li, collect_memrefs(li.loop)

    def test_independent_arrays(self):
        li, refs = self._refs(
            "void f(int n, float a[], float b[]) {"
            " for (int i = 0; i < n; i++) { b[i] = a[i]; } }"
        )
        assert dependences_for_loop(refs, li.iv, set()) == []

    def test_carried_distance_one(self):
        li, refs = self._refs(
            "void f(int n, float a[]) {"
            " for (int i = 1; i < n; i++) { a[i] = a[i-1]; } }"
        )
        deps = dependences_for_loop(refs, li.iv, set())
        assert len(deps) == 1
        assert deps[0].result.kind == "carried"
        assert deps[0].result.distance == 1

    def test_loop_independent(self):
        li, refs = self._refs(
            "void f(int n, float a[]) {"
            " for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; } }"
        )
        deps = dependences_for_loop(refs, li.iv, set())
        assert all(d.result.kind == "loop_independent" for d in deps)

    def test_strong_siv_not_divisible(self):
        li, refs = self._refs(
            "void f(int n, float a[]) {"
            " for (int i = 0; i < n; i++) { a[2*i] = a[2*i + 1]; } }"
        )
        deps = dependences_for_loop(refs, li.iv, set())
        assert deps == []

    def test_may_alias_pair_unknown(self):
        li, refs = self._refs(
            "void f(int n, __may_alias float a[], __may_alias float b[]) {"
            " for (int i = 0; i < n; i++) { b[i] = a[i]; } }"
        )
        deps = dependences_for_loop(refs, li.iv, set())
        assert len(deps) == 1 and deps[0].result.kind == "unknown"

    def test_symbol_mismatch_unknown(self):
        li, refs = self._refs(
            "void f(int n, int k, float a[]) {"
            " for (int i = 0; i < n; i++) { a[i + k] = a[i]; } }"
        )
        deps = dependences_for_loop(refs, li.iv, set())
        assert any(d.result.kind == "unknown" for d in deps)

    def test_banerjee_excludes_far_dep(self):
        # distance would be >= trip count: independent.
        li, refs = self._refs(
            "void f(float a[64]) {"
            " for (int i = 0; i < 8; i++) { a[i] = a[i + 32]; } }"
        )
        deps = dependences_for_loop(
            refs, li.iv, set(), {li.iv: 8}
        )
        assert deps == []

    @given(
        c1=st.integers(0, 4), c2=st.integers(0, 4),
        k1=st.integers(-8, 8), k2=st.integers(-8, 8),
        trip=st.integers(1, 24),
    )
    @settings(max_examples=300, deadline=None)
    def test_siv_soundness_vs_bruteforce(self, c1, c2, k1, k2, trip):
        """If the analysis says 'independent', brute force must find no
        colliding iteration pair; if it gives a distance d, some pair at
        that distance must collide (when in range)."""
        iv = Argument("i", I32)
        arr = ArrayRef("a", F32, (4096,))
        r1 = MemRef(None, arr, Affine({iv: c1} if c1 else {}, k1), True, 0)
        r2 = MemRef(None, arr, Affine({iv: c2} if c2 else {}, k2), False, 1)
        res = dep_test(r1, r2, iv, set(), {iv: trip})
        collisions = {
            abs(i - j)
            for i in range(trip)
            for j in range(trip)
            if c1 * i + k1 == c2 * j + k2
        }
        if res.kind == "independent":
            assert not collisions
        elif res.kind == "loop_independent":
            assert (0 in collisions) or not collisions
        elif res.kind == "carried" and res.distance is not None:
            if collisions:
                assert res.distance in collisions or res.distance >= trip


class TestReductions:
    def test_sum_detected(self):
        fn, li = _loop(
            "float f(int n, float a[]) { float s = 0;"
            " for (int i = 0; i < n; i++) { s += a[i]; } return s; }"
        )
        red = find_reductions(li.loop)
        assert 0 in red and red[0].kind == "plus"
        assert red[0].identity == 0.0

    def test_max_detected_with_identity(self):
        fn, li = _loop(
            "float f(int n, float a[]) { float m = -100000.0;"
            " for (int i = 0; i < n; i++) { m = max(m, a[i]); } return m; }"
        )
        red = find_reductions(li.loop)
        assert red[0].kind == "max"
        assert red[0].identity < -1e30

    def test_min_identity(self):
        fn, li = _loop(
            "int f(int n, int a[]) { int m = 100000;"
            " for (int i = 0; i < n; i++) { m = min(m, a[i]); } return m; }"
        )
        red = find_reductions(li.loop)
        assert red[0].kind == "min"
        assert red[0].identity == 2**31 - 1

    def test_chained_sum_detected(self):
        fn, li = _loop(
            "float f(int n, float a[], float b[]) { float s = 0;"
            " for (int i = 0; i < n; i++) { s = s + a[i] + b[i]; } return s; }"
        )
        assert 0 in find_reductions(li.loop)

    def test_non_reduction_recurrence_rejected(self):
        fn, li = _loop(
            "float f(int n, float a[]) { float s = 1.0;"
            " for (int i = 0; i < n; i++) { s = a[i] - s; } return s; }"
        )
        assert find_reductions(li.loop) == {}

    def test_escaping_accumulator_rejected(self):
        fn, li = _loop(
            "float f(int n, float a[], float b[]) { float s = 0;"
            " for (int i = 0; i < n; i++) { b[i] = s; s += a[i]; } return s; }"
        )
        assert find_reductions(li.loop) == {}

    def test_mul_reduction_not_supported(self):
        # Table 1 has only plus/min/max.
        fn, li = _loop(
            "float f(int n, float a[]) { float p = 1.0;"
            " for (int i = 0; i < n; i++) { p = p * a[i]; } return p; }"
        )
        assert find_reductions(li.loop) == {}


class TestAlignment:
    def _hint(self, src, lower=0):
        fn, li = _loop(src)
        ref = collect_memrefs(li.loop)[0]
        return misalignment_hint(ref.affine, ref.array.elem.size, li.iv, lower)

    def test_paper_figure3_example(self):
        # a[i+2] with 4-byte floats: mis=8, mod=32 — exactly Figure 3a.
        h = self._hint(
            "float f(int n, float a[]) { float s = 0;"
            " for (int i = 0; i < n; i++) { s += a[i + 2]; } return s; }"
        )
        assert (h.mis, h.mod) == (8, MOD_HINT)

    def test_aligned_stream(self):
        h = self._hint(
            "void f(int n, float a[]) {"
            " for (int i = 0; i < n; i++) { a[i] = 0.0; } }"
        )
        assert h.mis == 0 and h.known

    def test_lower_bound_shifts_mis(self):
        h = self._hint(
            "void f(int n, float a[]) {"
            " for (int i = 3; i < n; i++) { a[i] = 0.0; } }",
            lower=3,
        )
        assert h.mis == 12

    def test_symbolic_offset_invalidates(self):
        h = self._hint(
            "void f(int n, int k, float a[]) {"
            " for (int i = 0; i < n; i++) { a[i + k] = 0.0; } }"
        )
        assert not h.known

    def test_unknown_lower_invalidates(self):
        h = self._hint(
            "void f(int n, float a[]) {"
            " for (int i = 0; i < n; i++) { a[i] = 0.0; } }",
            lower=None,
        )
        assert not h.known

    def test_outer_iv_row_multiple_of_mod(self):
        fn = compile_source(
            "void f(float A[8][8]) { for (int i = 0; i < 8; i++)"
            " for (int j = 0; j < 8; j++) { A[i][j] = 0.0; } }"
        )["f"]
        nest = analyze_loops(fn)
        inner = nest.innermost()[0]
        ref = collect_memrefs(inner.loop)[0]
        h = misalignment_hint(ref.affine, 4, inner.iv, 0)
        # 8 floats/row = 32 bytes: the outer term is harmless.
        assert h.known and h.mis == 0

    def test_outer_iv_row_not_multiple(self):
        fn = compile_source(
            "void f(float A[8][6]) { for (int i = 0; i < 8; i++)"
            " for (int j = 0; j < 6; j++) { A[i][j] = 0.0; } }"
        )["f"]
        nest = analyze_loops(fn)
        inner = nest.innermost()[0]
        ref = collect_memrefs(inner.loop)[0]
        h = misalignment_hint(ref.affine, 4, inner.iv, 0)
        assert not h.known

    def test_aligned_for(self):
        h = self._hint(
            "float f(int n, float a[]) { float s = 0;"
            " for (int i = 0; i < n; i++) { s += a[i + 2]; } return s; }"
        )
        assert h.aligned_for(8)       # NEON: 8 % 8 == 0
        assert not h.aligned_for(16)  # SSE/AltiVec: 8 % 16 != 0
