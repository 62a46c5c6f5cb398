"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.flows import FlowRunner


@pytest.fixture(scope="session")
def runner() -> FlowRunner:
    """A session-wide FlowRunner so compilation results are cached across
    tests (the kernel matrix reuses offline results heavily)."""
    return FlowRunner()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def frontend_calls(monkeypatch) -> list:
    """Records every call the runner's offline stage makes to the VaporC
    frontend, for tests that count offline builds."""
    from repro.harness import flows

    calls: list = []
    frontend = flows.compile_source

    def counting(*args, **kwargs):
        calls.append(args)
        return frontend(*args, **kwargs)

    monkeypatch.setattr(flows, "compile_source", counting)
    return calls


def compile_one(source: str, name: str):
    """Compile a single-function VaporC snippet and return its IR."""
    from repro.frontend import compile_source

    return compile_source(source)[name]
