"""Deadline edge the gateway relies on when it turns a wire budget into a
service ``Deadline``.

Pre-admission batching (the module's original subject) is gone; what
stays is the batch-independent exact-expiry boundary check.
"""

from __future__ import annotations

import pytest

from repro.service.admission import Deadline


def test_deadline_exact_expiry_boundary():
    """The exactly-at-expiry edge: ``expired()`` is >= (the boundary
    instant IS expired) while ``remaining()`` clamps to 0.0 — so code
    gating on ``remaining() == 0`` and code gating on ``expired()``
    agree at the boundary."""
    now = [100.0]
    d = Deadline(1.5, clock=lambda: now[0])
    assert not d.expired()
    assert d.remaining() == pytest.approx(1.5)
    now[0] = 101.5  # exactly at expiry
    assert d.expired()
    assert d.remaining() == 0.0
    now[0] = 102.0  # past expiry: still clamped, still expired
    assert d.expired()
    assert d.remaining() == 0.0
    none = Deadline(None, clock=lambda: now[0])
    assert not none.expired() and none.remaining() is None
