"""Correctness of every response the benchmark receives.

A response is correct when

* it is ``ok`` (served from the primary path, not degraded), echoes the
  request's shape and was checked by the service against the kernel's
  numpy reference;
* its return value equals the benchmark's own numpy reference for the
  kernel instance (kernels without a return value return ``None``);
* it carries the same cycles and value as every other response for the
  same shape (warm answers equal cold ones);
* and, for the shapes handed to :meth:`Ledger.verify_reference`, its
  cycles and value are those of the reference interpreter run in the
  benchmark's own process through the same flow.
"""

from __future__ import annotations

import numbers


class Ledger:
    """Collects every compile response of a run and judges them."""

    def __init__(self, flow: str) -> None:
        self.flow = flow
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: shape -> the (cycles, value) every response for it must carry
        self.results: dict[tuple, tuple] = {}

    def error(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)

    def record(self, shape: tuple, resp: dict) -> None:
        self.attempted += 1
        result = resp.get("result")
        if resp.get("status") != "ok" or result is None:
            self.failed += 1
            self.error(f"{shape}: status {resp.get('status')} "
                       f"error {resp.get('error')} events "
                       f"{[e.get('cause') for e in resp.get('events', [])]}")
            return
        echo = (resp.get("kernel"), resp.get("target"), resp.get("size"))
        if echo != shape or resp.get("flow") != self.flow:
            self.error(f"{shape}: response is for {echo}")
        if not result.get("checked"):
            self.error(f"{shape}: the service did not check the result")
        got = (result.get("cycles"), result.get("value"))
        seen = self.results.setdefault(shape, got)
        if got != seen:
            self.error(f"{shape}: {got} differs from an earlier {seen}")

    def fail(self, shape: tuple, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.error(f"{shape}: {type(exc).__name__}: {exc}")

    def verify_values(self) -> None:
        """Each shape's value against the benchmark's numpy reference."""
        from repro.kernels import get_kernel

        for (kernel, target, size), (_cycles, value) in self.results.items():
            k = get_kernel(kernel)
            expected = k.instantiate(size).expected_return
            if not _value_matches(value, expected, k.rtol):
                self.error(f"{(kernel, target, size)}: value {value} != "
                           f"reference {expected}")

    def verify_reference(self, shapes) -> None:
        """Cycles and value of ``shapes`` against the reference
        interpreter (the engines are bit-identical to it)."""
        from repro.harness.flows import FlowRunner
        from repro.kernels import get_kernel

        runner = FlowRunner(engine="reference")
        for shape in shapes:
            kernel, target, size = shape
            try:
                ref = runner.run(get_kernel(kernel).instantiate(size),
                                 self.flow, target)
            except Exception as exc:  # a reference failure is a finding
                self.error(f"{shape}: reference interpreter failed: "
                           f"{type(exc).__name__}: {exc}")
                continue
            cycles, value = self.results[shape]
            if cycles != ref.cycles or not _value_matches(value, ref.value,
                                                          0.0):
                self.error(f"{shape}: served {(cycles, value)}, reference "
                           f"interpreter {(ref.cycles, ref.value)}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors


def _value_matches(value, expected, rtol: float) -> bool:
    if expected is None:
        return value is None
    if value is None:
        return False
    if isinstance(expected, numbers.Integral):
        return float(value) == float(expected)
    expected = float(expected)
    return abs(float(value) - expected) <= 1e-8 + rtol * abs(expected)
