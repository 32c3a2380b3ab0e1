"""Deterministic fault injection: decisions, specs, hooks, plan scoping."""

import pytest

from repro.smt import faults
from repro.smt.faults import FaultPlan, InjectedFault


class TestDeterminism:
    def test_chance_is_pure(self):
        plan = FaultPlan(seed=7)
        first = plan.chance("worker.crash", "somekey", 3)
        assert plan.chance("worker.crash", "somekey", 3) == first
        assert 0.0 <= first < 1.0

    def test_chance_varies_with_every_input(self):
        plan = FaultPlan(seed=7)
        base = plan.chance("site", "key", 0)
        assert plan.chance("site", "key", 1) != base
        assert plan.chance("site", "other", 0) != base
        assert plan.chance("other", "key", 0) != base
        assert FaultPlan(seed=8).chance("site", "key", 0) != base

    def test_decide_extremes(self):
        plan = FaultPlan(seed=1)
        assert not plan.decide("s", "k", 0, 0.0)
        assert plan.decide("s", "k", 0, 1.0)

    def test_two_processes_agree(self):
        # Determinism holds across plan instances (as across processes).
        a = FaultPlan(seed=42, solver_exception=0.5)
        b = FaultPlan.from_spec(a.to_spec())
        sites = [("worker.exception", f"key{i}", s)
                 for i in range(20) for s in range(3)]
        assert [a.chance(*t) for t in sites] == [b.chance(*t) for t in sites]


class TestSpecRoundTrip:
    def test_roundtrip(self):
        plan = FaultPlan(seed=9, worker_crash=0.25, solver_exception=0.5,
                         delay=0.1, corrupt_cache=1.0, delay_seconds=0.001,
                         max_triggers=2)
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_none_fields_omitted(self):
        assert "max_triggers" not in FaultPlan().to_spec()

    def test_malformed_fields_ignored(self):
        # arm_hang names a retired fault class: specs that still carry it
        # must parse, and it must inject nothing.
        plan = FaultPlan.from_spec(
            "seed=3,worker_crash=bogus,unknown_knob=1,arm_hang=1.0,"
            "delay=0.5,,=,x")
        assert plan.seed == 3
        assert plan.worker_crash == 0.0  # malformed value dropped
        assert plan.delay == 0.5
        assert plan == FaultPlan(seed=3, delay=0.5)

    def test_empty_spec(self):
        assert FaultPlan.from_spec("") == FaultPlan()


class TestMaxTriggers:
    def test_fires_then_recovers(self):
        plan = FaultPlan(seed=1, solver_exception=1.0, max_triggers=1)
        with faults.injected(plan):
            assert plan.decide("s.exception", "k", 0, 1.0)
            assert not plan.decide("s.exception", "k", 1, 1.0)

    def test_counter_reset_by_install(self):
        plan = FaultPlan(seed=1, max_triggers=1)
        with faults.injected(plan):
            assert plan.decide("s", "k", 0, 1.0)
        with faults.injected(plan):
            assert plan.decide("s", "k", 0, 1.0)  # fresh counters


class TestActivePlan:
    def test_injected_scopes_and_restores(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert faults.active() is None
        plan = FaultPlan(seed=5, delay=1.0)
        with faults.injected(plan):
            assert faults.active() is plan
            inner = FaultPlan(seed=6)
            with faults.injected(inner):
                assert faults.active() is inner
            assert faults.active() is plan
        assert faults.active() is None

    def test_env_spec_is_picked_up(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "seed=11,worker_crash=0.5")
        plan = faults.active()
        assert plan is not None
        assert plan.seed == 11 and plan.worker_crash == 0.5

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "seed=11")
        explicit = FaultPlan(seed=99)
        with faults.injected(explicit):
            assert faults.active() is explicit


class TestHooks:
    def test_maybe_raise(self):
        plan = FaultPlan(seed=2, solver_exception=1.0)
        with pytest.raises(InjectedFault):
            faults.maybe_raise(plan, "worker", "k")

    def test_hooks_are_noops_without_a_plan(self):
        faults.maybe_raise(None, "worker", "k")
        faults.maybe_delay(None, "worker", "k")
        faults.maybe_crash(None, "k")
        assert faults.corrupt_bytes(None, "k", b"data") == b"data"

    def test_corrupt_bytes_garbles(self):
        plan = FaultPlan(seed=4, corrupt_cache=1.0)
        data = b'{"tag": "x", "entry": {"verdict": "sat"}}'
        torn = faults.corrupt_bytes(plan, "k", data)
        assert torn != data
        assert len(torn) < len(data)  # truncated like a torn write

    def test_corrupt_bytes_passthrough_at_zero(self):
        plan = FaultPlan(seed=4, corrupt_cache=0.0)
        assert faults.corrupt_bytes(plan, "k", b"data") == b"data"
