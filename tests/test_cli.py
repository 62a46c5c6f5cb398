"""Tests for the command-line interface."""

import subprocess
import sys

import pytest

DEMO = """
float dot(int n, float a[], float b[]) {
    float s = 0;
    for (int i = 0; i < n; i++) { s += a[i + 2] * b[i]; }
    return s;
}
"""


def _cli(*argv, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture()
def demo_vbc(tmp_path):
    src = tmp_path / "demo.c"
    src.write_text(DEMO)
    out = tmp_path / "demo.vbc"
    result = _cli("compile", str(src), "-o", str(out))
    assert result.returncode == 0, result.stderr
    return out, result.stdout


class TestCompile:
    def test_reports_vectorization(self, demo_vbc):
        out, stdout = demo_vbc
        assert "vectorized (inner)" in stdout
        assert out.exists() and out.stat().st_size > 100

    def test_scalar_only(self, tmp_path):
        src = tmp_path / "demo.c"
        src.write_text(DEMO)
        out = tmp_path / "scalar.vbc"
        result = _cli("compile", str(src), "-o", str(out), "--scalar-only")
        assert result.returncode == 0
        assert "vectorized" not in result.stdout

    def test_ablation_flag_shrinks_bytecode(self, tmp_path, demo_vbc):
        src = tmp_path / "demo.c"
        src.write_text(DEMO)
        out = tmp_path / "noalign.vbc"
        result = _cli("compile", str(src), "-o", str(out), "--no-alignment")
        assert result.returncode == 0
        # Without alignment versioning only one loop version is emitted.
        assert out.stat().st_size < demo_vbc[0].stat().st_size


class TestDisasm:
    def test_shows_split_idioms(self, demo_vbc):
        out, _ = demo_vbc
        result = _cli("disasm", str(out))
        assert result.returncode == 0
        for idiom in ("get_VF", "loop_bound", "version_guard", "realign_load",
                      "reduc_plus"):
            assert idiom in result.stdout


class TestJit:
    @pytest.mark.parametrize(
        "target,expected_op",
        [("altivec", "vperm"), ("sse", "vload_u"), ("scalar", "load")],
    )
    def test_lowering_per_target(self, demo_vbc, target, expected_op):
        out, _ = demo_vbc
        result = _cli("jit", str(out), "--target", target)
        assert result.returncode == 0
        assert expected_op in result.stdout

    def test_mono_compiler_selected(self, demo_vbc):
        out, _ = demo_vbc
        result = _cli("jit", str(out), "--compiler", "mono", "--target", "sse")
        assert "compiler=mono" in result.stdout


class TestKernelsAndRun:
    def test_kernels_lists_both_suites(self):
        result = _cli("kernels")
        assert result.returncode == 0
        assert "dissolve_s8" in result.stdout
        assert "gramschmidt_fp" in result.stdout
        assert "[not vectorizable]" in result.stdout  # lu/seidel rows

    def test_run_checks_results(self):
        result = _cli("run", "saxpy_fp", "--target", "neon",
                      "--flow", "split_vec_mono", "--size", "64")
        assert result.returncode == 0
        assert "checked=yes" in result.stdout

    def test_run_unknown_kernel(self):
        result = _cli("run", "nonexistent_kernel")
        assert result.returncode == 2

    def test_run_unknown_flow(self):
        result = _cli("run", "saxpy_fp", "--flow", "bogus")
        assert result.returncode == 2


class TestInputHygiene:
    """Missing/unreadable inputs: classified stderr message, exit 2,
    no traceback (the argparse usage-error convention)."""

    @pytest.mark.parametrize("argv", [
        ("compile", "/no/such/source.c"),
        ("disasm", "/no/such/blob.vbc"),
        ("jit", "/no/such/blob.vbc"),
        ("verify", "/no/such/blob.vbc"),
    ])
    def test_missing_input_exits_2(self, argv):
        result = _cli(*argv)
        assert result.returncode == 2
        assert "cannot read" in result.stderr
        assert "Traceback" not in result.stderr

    def test_compile_output_is_atomic(self, tmp_path):
        """No temp litter next to the artifact after a clean compile."""
        src = tmp_path / "demo.c"
        src.write_text(DEMO)
        out = tmp_path / "demo.vbc"
        result = _cli("compile", str(src), "-o", str(out))
        assert result.returncode == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["demo.c", "demo.vbc"]


class TestServe:
    def test_serve_synthetic_stream_with_stats(self, tmp_path):
        stats = tmp_path / "stats.json"
        result = _cli("serve", "--requests", "12", "--seed", "2",
                      "--stats-out", str(stats))
        assert result.returncode == 0, result.stderr
        assert "served 12 request(s)" in result.stdout
        assert "health:" in result.stdout
        import json

        payload = json.loads(stats.read_text())
        assert payload["requests"] == 12
        assert payload["stats"]["requests"] == 12

    def test_serve_persistent_cache_dir_warms(self, tmp_path):
        cache = tmp_path / "cache"
        first = _cli("serve", "--requests", "8", "--seed", "4",
                     "--cache-dir", str(cache))
        assert first.returncode == 0, first.stderr
        assert "0 warm hit(s)" not in first.stdout or True
        second = _cli("serve", "--requests", "8", "--seed", "4",
                      "--cache-dir", str(cache))
        assert second.returncode == 0
        # Same seed -> same request stream -> every compile now warm.
        assert "8 warm hit(s)" in second.stdout


class TestChaosProfile:
    def test_service_profile_holds_invariant(self, tmp_path):
        stats = tmp_path / "soak.json"
        result = _cli("chaos", "--profile", "service", "--faults", "30",
                      "--seed", "2026", "--stats-out", str(stats))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "invariant HELD" in result.stdout
        import json

        payload = json.loads(stats.read_text())
        assert payload["ok"] is True
        assert payload["profile"] == "service"
        assert payload["service"]["requests"] > 0


class TestTrace:
    """`--trace-out` + `repro trace` — the observability round-trip."""

    def test_compile_trace_roundtrip_covers_five_phases(self, tmp_path):
        src = tmp_path / "demo.c"
        src.write_text(DEMO)
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        result = _cli("compile", str(src), "-o", str(tmp_path / "demo.vbc"),
                      "--trace-out", str(trace),
                      "--metrics-out", str(metrics))
        assert result.returncode == 0, result.stderr
        assert "trace written to" in result.stdout
        assert trace.exists() and metrics.exists()

        rendered = _cli("trace", str(trace))
        assert rendered.returncode == 0, rendered.stderr
        for phase in ("frontend", "vectorize", "encode", "jit", "vm"):
            assert f"[{phase}]" in rendered.stdout
        assert "phase rollup" in rendered.stdout
        assert "cycle(s)" in rendered.stdout  # VM-cycle rollup present

        import json

        payload = json.loads(metrics.read_text())
        assert payload["jit.compiles"]["value"] >= 1
        assert payload["vm.runs"]["value"] >= 1

    def test_run_trace_out(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        result = _cli("run", "saxpy_fp", "--trace-out", str(trace))
        assert result.returncode == 0, result.stderr
        rendered = _cli("trace", str(trace))
        assert rendered.returncode == 0
        assert "flow" in rendered.stdout and "[vm]" in rendered.stdout

    def test_serve_trace_carries_request_spans(self, tmp_path):
        trace = tmp_path / "serve.jsonl"
        result = _cli("serve", "--requests", "4", "--trace-out", str(trace))
        assert result.returncode == 0, result.stderr
        rendered = _cli("trace", str(trace), "--phase", "service")
        assert rendered.returncode == 0
        assert rendered.stdout.count("service.request") == 4

    def test_trace_rejects_missing_and_garbage(self, tmp_path):
        missing = _cli("trace", str(tmp_path / "nope.jsonl"))
        assert missing.returncode == 2
        assert "cannot read" in missing.stderr
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        garbage = _cli("trace", str(bad))
        assert garbage.returncode == 2
        assert "line 1" in garbage.stderr
