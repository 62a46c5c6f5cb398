"""Tests for the bytecode container: writer primitives (hypothesis
round-trips), function/module codecs, and error handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bytecode import (
    FormatError,
    decode_function,
    decode_module,
    encode_function,
    encode_module,
)
from repro.bytecode.writer import Reader, Writer
from repro.frontend import compile_source
from repro.ir import (
    ForLoop,
    GetRT,
    RealignLoad,
    VersionGuard,
    print_function,
    verify_function,
    walk,
)
from repro.kernels import all_kernels
from repro.vectorizer import split_config, vectorize_function


class TestWriter:
    @given(st.integers(-(2**60), 2**60))
    def test_varint_roundtrip(self, v):
        w = Writer()
        w.varint(v)
        assert Reader(w.bytes()).varint() == v

    @given(st.floats(allow_nan=False))
    def test_f64_roundtrip(self, x):
        w = Writer()
        w.f64(x)
        assert Reader(w.bytes()).f64() == x

    @given(st.text(max_size=64))
    def test_string_roundtrip(self, s):
        w = Writer()
        w.string(s)
        assert Reader(w.bytes()).string() == s

    _VALUE = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(-(2**40), 2**40)
        | st.floats(allow_nan=False)
        | st.text(max_size=16),
        lambda inner: st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=20,
    )

    @given(_VALUE)
    @settings(max_examples=200)
    def test_tagged_value_roundtrip(self, v):
        w = Writer()
        w.value(v)
        got = Reader(w.bytes()).value()

        def norm(x):
            if isinstance(x, (list, tuple)):
                return tuple(norm(i) for i in x)
            if isinstance(x, dict):
                return {k: norm(i) for k, i in x.items()}
            return x

        assert got == norm(v)

    def test_truncated_raises(self):
        w = Writer()
        w.string("hello")
        with pytest.raises(FormatError):
            Reader(w.bytes()[:-2]).string()

    def test_bad_tag_raises(self):
        with pytest.raises(FormatError):
            Reader(b"\xff").value()


_SRC = """
float sfir(int n, float a[], float c[]) {
    float sum = 0;
    for (int i = 0; i < n; i++) { sum += a[i + 2] * c[i]; }
    return sum;
}
"""


class TestFunctionCodec:
    def test_scalar_roundtrip_structure(self):
        fn = compile_source(_SRC)["sfir"]
        dec = decode_function(encode_function(fn))
        verify_function(dec)
        assert print_function(dec).count("for ") == print_function(fn).count("for ")

    def test_vector_roundtrip_preserves_hints(self):
        fn = vectorize_function(
            compile_source(_SRC)["sfir"], split_config()
        )
        dec = decode_function(encode_function(fn))
        verify_function(dec)
        orig_rl = [i for i in walk(fn.body) if isinstance(i, RealignLoad)]
        dec_rl = [i for i in walk(dec.body) if isinstance(i, RealignLoad)]
        assert len(orig_rl) == len(dec_rl)
        assert sorted((r.mis, r.mod, r.has_chain) for r in orig_rl) == sorted(
            (r.mis, r.mod, r.has_chain) for r in dec_rl
        )

    def test_roundtrip_preserves_groups_and_annotations(self):
        fn = vectorize_function(compile_source(_SRC)["sfir"], split_config())
        dec = decode_function(encode_function(fn))
        orig = [i for i in walk(fn.body) if isinstance(i, GetRT)]
        got = [i for i in walk(dec.body) if isinstance(i, GetRT)]
        assert [g.group for g in got] == [g.group for g in orig]
        loops = [
            i for i in walk(dec.body)
            if isinstance(i, ForLoop) and i.kind == "vector"
        ]
        assert loops and all("valign" in l.annotations for l in loops)

    def test_roundtrip_preserves_guards(self):
        fn = vectorize_function(compile_source(_SRC)["sfir"], split_config())
        dec = decode_function(encode_function(fn))
        guards = [i for i in walk(dec.body) if isinstance(i, VersionGuard)]
        assert any(g.kind == "bases_aligned" for g in guards)

    def test_double_roundtrip_stable(self):
        fn = vectorize_function(compile_source(_SRC)["sfir"], split_config())
        once = encode_function(decode_function(encode_function(fn)))
        twice = encode_function(decode_function(once))
        assert once == twice

    @pytest.mark.parametrize(
        "kernel", all_kernels(), ids=lambda k: k.name
    )
    def test_every_kernel_roundtrips(self, kernel):
        inst = kernel.instantiate()
        scalar = compile_source(inst.source)[inst.entry]
        vec = vectorize_function(scalar, split_config())
        for fn in (scalar, vec):
            dec = decode_function(encode_function(fn))
            verify_function(dec)
            assert encode_function(dec) == encode_function(dec)


class TestModuleCodec:
    def test_module_roundtrip(self):
        module = compile_source(_SRC + "\nvoid g(int n, float a[]) { a[0] = 1.0; }")
        blob = encode_module(module)
        dec = decode_module(blob)
        assert set(dec.functions) == {"sfir", "g"}

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            decode_module(b"NOPE" + b"\x00" * 10)

    def test_size_growth_measured(self):
        scalar = compile_source(_SRC)["sfir"]
        vec = vectorize_function(scalar, split_config())
        s, v = len(encode_function(scalar)), len(encode_function(vec))
        # §V-A.c: vectorization inflates bytecode by several x.
        assert v > 2 * s
