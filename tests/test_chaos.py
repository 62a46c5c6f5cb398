"""Chaos campaign: >= 200 seeded fault injections, zero silent wrong
answers, zero unclassified tracebacks.

This is the closing argument of the fail-soft pipeline: whatever a seeded
adversary corrupts — bytecode bytes, idiom lowering, materialization, VM
memory accesses, array alignment — the toolchain either produces a
numpy-checked correct answer (possibly via the scalar degradation path)
or raises a classified :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import random

import pytest

from repro import faults
from repro.harness.chaos import (
    FAILING,
    LAYERS,
    ChaosTrial,
    _trial_vm_mem,
    run_campaign,
)
from repro.machine.registry import (
    get_engine,
    register_engine,
    unregister_engine,
)


@pytest.fixture(scope="module")
def campaign():
    """One 200-fault campaign shared by the assertions below."""
    return run_campaign(n_faults=200, seed=2026)


def test_campaign_injects_at_least_200_faults(campaign):
    assert len(campaign.trials) >= 200


def test_no_silent_wrong_answers(campaign):
    assert not [t for t in campaign.trials if t.outcome == "silent-wrong"], \
        campaign.summary()
    assert not [t for t in campaign.trials if t.outcome == "wrong-answer"], \
        campaign.summary()


def test_no_unclassified_tracebacks(campaign):
    assert not [
        t for t in campaign.trials if t.outcome == "unclassified-trap"
    ], campaign.summary()


def test_engine_parity_under_chaos(campaign):
    assert not [
        t for t in campaign.trials if t.outcome == "parity-mismatch"
    ], campaign.summary()


def test_invariant_holds(campaign):
    assert campaign.ok, campaign.summary()


def test_campaign_covers_every_layer(campaign):
    hit = {t.layer for t in campaign.trials}
    assert hit == set(LAYERS)


def test_campaign_observes_all_three_good_outcomes(campaign):
    outcomes = {t.outcome for t in campaign.trials}
    # the adversary actually bit: traps fired and degradations happened
    assert "trapped" in outcomes
    assert "degraded-correct" in outcomes
    assert "correct" in outcomes


def test_campaign_deterministic_in_seed():
    a = run_campaign(n_faults=25, seed=7)
    b = run_campaign(n_faults=25, seed=7)
    assert a.trials == b.trials
    c = run_campaign(n_faults=25, seed=8)
    assert c.trials != a.trials


def test_trial_ok_semantics():
    good = ChaosTrial("bytecode", "saxpy_fp", "BitFlip()", "trapped")
    assert good.ok
    for outcome in FAILING:
        assert not ChaosTrial("vm-mem", "saxpy_fp", "f", outcome).ok


def test_report_summary_mentions_invariant():
    rep = run_campaign(n_faults=5, seed=1)
    assert "invariant HELD" in rep.summary()
    assert "5 faults injected" in rep.summary()


# -- service profile ----------------------------------------------------------


@pytest.fixture(scope="module")
def service_campaign():
    """One service-profile soak shared by the assertions below (the CI
    job runs the full 200-fault version; this keeps tier-1 quick)."""
    return run_campaign("service", n_faults=60, seed=2026)


def test_service_campaign_invariant_holds(service_campaign):
    assert service_campaign.ok, service_campaign.summary()


def test_service_campaign_covers_every_service_layer(service_campaign):
    from repro.harness.chaos import SERVICE_LAYERS

    hit = {t.layer for t in service_campaign.trials}
    assert set(SERVICE_LAYERS) <= hit


def test_service_campaign_exercises_the_cascade(service_campaign):
    outcomes = {t.outcome for t in service_campaign.trials}
    # every resilience mechanism observably fired at least once
    assert "healed" in outcomes        # corrupt entry quarantined+recompiled
    assert "crash-safe" in outcomes    # torn write left destination clean
    assert "served-stale" in outcomes  # stale step of the cascade
    assert "breaker-cycled" in outcomes  # closed -> open -> half-open -> closed
    assert "degraded-correct" in outcomes


def test_service_campaign_reports_service_stats(service_campaign):
    stats = service_campaign.service_stats
    assert stats is not None
    assert stats["requests"] > 0
    assert stats["cache"]["quarantined"] > 0
    assert stats["cache"]["put_failures"] > 0


#: the first 12 (layer, kernel) draws of the fixture above, recorded
#: once: the campaign RNG draws only these two, so the list moves only
#: when the seed, the layer weights or the draw order do.
SERVICE_FIXTURE_STREAM = [
    ("svc-plain", "saxpy_fp"), ("svc-vm-persistent", "sfir_fp"),
    ("svc-vm-persistent", "sfir_fp"), ("svc-vm-transient", "sfir_fp"),
    ("svc-cache-corrupt", "saxpy_fp"), ("svc-plain", "saxpy_fp"),
    ("svc-torn-write", "sfir_fp"), ("svc-vm-transient", "dscal_fp"),
    ("svc-torn-write", "interp_fp"), ("svc-deadline", "interp_fp"),
    ("svc-vm-persistent", "saxpy_fp"), ("svc-vm-transient", "saxpy_fp"),
]


def test_service_campaign_stream_pinned(service_campaign):
    """Pinned-seed campaigns replay across commits, not just within one
    process (docs/service.md section 6)."""
    assert [
        (t.layer, t.kernel) for t in service_campaign.trials[:12]
    ] == SERVICE_FIXTURE_STREAM


def test_service_campaign_deterministic_in_seed():
    a = run_campaign("service", n_faults=15, seed=11)
    b = run_campaign("service", n_faults=15, seed=11)
    assert [
        (t.layer, t.kernel, t.fault, t.outcome) for t in a.trials
    ] == [
        (t.layer, t.kernel, t.fault, t.outcome) for t in b.trials
    ]


def test_one_judge_keeps_each_profiles_mismatch_outcome():
    """The live profiles share one response judge: an ``ok`` answer that
    differs from the cold reference is a ``wrong-answer`` in process and
    a ``torn-response`` once a wire carried it."""
    from repro.harness.chaos import _GatewaySoak, _ServiceSoak

    svc = _ServiceSoak(0, 16)
    try:
        req = svc._payload("saxpy_fp", flow="split_vec_mono", target="sse")
        resp = svc._serve(req)
        assert svc.judge("svc-plain", "none", req, resp).outcome == "correct"
        resp["result"]["cycles"] += 1
        trial = svc.judge("svc-plain", "none", req, resp)
        assert trial.outcome == "wrong-answer", trial
    finally:
        svc.close()
    gw = _GatewaySoak(0, 16)
    try:
        trial = gw.judge("gw-plain", "none", req, resp)
        assert trial.outcome == "torn-response", trial
    finally:
        gw.close()


@pytest.mark.slow
def test_harness_layer_quarantines():
    """Worker crash + stall inside a real process pool: the sweep finishes
    and only the faulty kernel's cells are quarantined."""
    rep = run_campaign(n_faults=0, seed=3, include_harness=True,
                       harness_timeout=5.0)
    assert len(rep.trials) == 2
    assert all(t.layer == "harness" for t in rep.trials)
    assert rep.ok, rep.summary()
    assert {t.outcome for t in rep.trials} == {"quarantined"}


def _fault_blind_run(ck, scalar_args, arrays, **kwargs):
    """The reference interpreter, blind to the memory-fault hook: an
    engine that skips the injection point and so never traps."""
    with faults.injected(faults.FaultPlan([])):
        return get_engine("reference").run(ck, scalar_args, arrays, **kwargs)


def test_vm_mem_parity_covers_every_registered_engine():
    """Any registered engine whose MemFault trap differs from the
    reference interpreter's is a parity mismatch naming that engine."""
    register_engine("fault-blind", run=_fault_blind_run)
    try:
        trial = _trial_vm_mem("saxpy_fp", 16, random.Random(0))
    finally:
        unregister_engine("fault-blind")
    assert trial.outcome == "parity-mismatch", trial
    assert trial.detail.startswith("fault-blind=")


class _RaisingProfile:
    """A toy profile whose two trials raise: one exception inside the
    taxonomy, one outside it."""

    def __init__(self, seed, size):
        self.draws = random.Random(seed)

    def lost(self, kernel):
        from repro.service import NetworkError

        raise NetworkError("connect", "no live gateway replicas")

    def broken(self, kernel):
        raise ValueError("not a classified failure")

    table = {"toy-lost": (1, lost), "toy-broken": (1, broken)}

    def finish(self):
        return [], None

    def close(self):
        pass


def test_census_guard_keeps_the_failure_taxonomy(monkeypatch):
    """A trial that raises becomes a failing trial, never a lost report:
    a classified escape is a lost answer naming its tag, anything else
    an unclassified trap."""
    from repro.harness import chaos

    monkeypatch.setitem(chaos._PROFILES, "toy", _RaisingProfile)
    rep = run_campaign("toy", n_faults=12, seed=0)
    assert len(rep.trials) == 12
    by_layer = {t.layer: t for t in rep.trials}
    lost, broken = by_layer["toy-lost"], by_layer["toy-broken"]
    assert (lost.fault, lost.outcome) == ("trial-crashed", "silent-wrong")
    assert "NetworkError" in lost.detail
    assert (broken.fault, broken.outcome) == ("trial-crashed",
                                              "unclassified-trap")
    assert broken.detail.startswith("ValueError:")
    assert not rep.ok
