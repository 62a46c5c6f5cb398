"""Documentation quality gates: every public module, class, and function
carries a docstring, the README's promises match the code, and no module
imports a name it never uses."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

REPO = pathlib.Path(repro.__file__).resolve().parent.parent.parent


def _public_modules():
    out = []
    pkg_path = pathlib.Path(repro.__file__).parent
    for info in pkgutil.walk_packages([str(pkg_path)], prefix="repro."):
        if "__main__" in info.name:
            continue
        out.append(info.name)
    return out


@pytest.mark.parametrize("module_name", _public_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", _public_modules())
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", None)
    if not names:
        return
    undocumented = []
    for name in names:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if obj.__module__ != module_name:
                continue  # re-export; documented at its home
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: {undocumented}"


class TestReadmePromises:
    def test_readme_exists_with_sections(self):
        text = (REPO / "README.md").read_text()
        for heading in ("## Install", "## Quickstart", "## Architecture",
                        "## Tests and benchmarks"):
            assert heading in text

    def test_design_and_experiments_exist(self):
        assert (REPO / "DESIGN.md").exists()
        assert (REPO / "EXPERIMENTS.md").exists()

    def test_examples_listed_in_readme_exist(self):
        text = (REPO / "README.md").read_text()
        for name in ("quickstart.py", "run_everywhere.py",
                     "audio_pipeline.py", "image_dissolve.py",
                     "paper_figures.py"):
            assert name in text
            assert (REPO / "examples" / name).exists()

    def test_docs_referenced_exist(self):
        for doc in ("architecture.md", "idioms.md", "bytecode_format.md",
                    "performance_model.md", "kernels.md", "vm_engines.md"):
            assert (REPO / "docs" / doc).exists()

    def test_design_bench_targets_exist(self):
        """Every bench file named in DESIGN.md's experiment index exists."""
        import re

        text = (REPO / "DESIGN.md").read_text()
        for match in re.finditer(r"benchmarks/(\w+\.py)", text):
            assert (REPO / "benchmarks" / match.group(1)).exists(), match.group(0)


def _unused_imports(path: pathlib.Path) -> list:
    """``(line, name)`` of every name ``path`` imports and never reads.

    Exempt: ``__future__`` imports, side-effect imports marked
    ``# noqa: F401``, and names listed in ``__all__`` (re-exports).  A
    name counts as used if it is read anywhere in the file.
    """
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used, exported, imported = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            exported |= {c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or (
                "noqa: F401" in lines[node.lineno - 1]
            ):
                continue
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
    return [(line, name) for line, name in imported
            if name not in used and name not in exported]


def test_no_unused_imports():
    """Every module under ``src/repro`` but the package ``__init__``
    files (whose imports are the package's API) uses what it imports."""
    unused = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(path)
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)
