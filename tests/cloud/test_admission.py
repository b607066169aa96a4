"""Unit tests for tiered admission control and the circuit breaker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CapacityError, Scheduler, instance
from repro.cloud.admission import (
    TIERS,
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
)
from repro.cloud.audit import AuditLog
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=3)


@pytest.fixture
def scheduler():
    sched = Scheduler()
    for i in range(4):
        sched.add_bmhive_server(f"s{i}", board_slots=4)
    return sched


def _controller(sim, scheduler, **policy_kw):
    return AdmissionController(
        sim, scheduler, policy=AdmissionPolicy(**policy_kw))


class TestPolicyValidation:
    def test_default_policy_is_valid(self):
        AdmissionPolicy()

    def test_premium_watermark_rejected(self):
        with pytest.raises(ValueError, match="premium is never shed"):
            AdmissionPolicy(shed_at=(("premium", 0.5),))

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            AdmissionPolicy(shed_at=(("gold", 0.5),))

    def test_inverted_watermarks_rejected(self):
        # standard shedding before best_effort is not downward-closed.
        with pytest.raises(ValueError, match="downward|not increase"):
            AdmissionPolicy(shed_at=(("best_effort", 0.05),
                                     ("standard", 0.2)))

    def test_limits_must_cover_every_tier(self):
        with pytest.raises(ValueError, match="every tier"):
            AdmissionPolicy(limits=(("premium", 10.0, 10.0),))


class TestCircuitBreaker:
    def test_no_shedding_on_idle_fleet(self, sim, scheduler):
        ctrl = _controller(sim, scheduler)
        assert ctrl.shed_tiers() == ()
        for tier in TIERS:
            ctrl.admit(tier)

    def test_lost_headroom_sheds_best_effort_only(self, sim, scheduler):
        ctrl = _controller(sim, scheduler,
                           shed_at=(("best_effort", 0.3), ("standard", 0.05)))
        # Fill 12 of 16 boards: headroom 0.25 < 0.3 but > 0.05.
        for _ in range(12):
            scheduler.place(instance("ebm.e5.32ht"))
        assert ctrl.shed_tiers() == ("best_effort",)
        ctrl.admit("premium")
        ctrl.admit("standard")
        with pytest.raises(AdmissionRejected) as exc:
            ctrl.admit("best_effort")
        assert exc.value.reason == "shed"
        assert exc.value.status == 429
        assert exc.value.retry_after_s > 0

    def test_quarantine_shrinks_headroom(self, sim, scheduler):
        ctrl = _controller(sim, scheduler, shed_at=(("best_effort", 0.3),))
        # Idle fleet: headroom 1.0. Quarantine 3 of 4 servers: the
        # nominal denominator keeps counting them, so headroom 0.25.
        for name in ("s0", "s1", "s2"):
            scheduler.quarantine(name)
        assert ctrl.headroom_fraction() == pytest.approx(0.25)
        with pytest.raises(AdmissionRejected):
            ctrl.admit("best_effort")

    def test_premium_never_breaker_shed(self, sim, scheduler):
        ctrl = _controller(sim, scheduler,
                           shed_at=(("best_effort", 1.0), ("standard", 1.0)))
        # One placement drops headroom below the 1.0 watermark, so
        # both lower tiers shed while premium still passes the breaker.
        scheduler.place(instance("ebm.e5.32ht"))
        ctrl.admit("premium")
        for tier in ("standard", "best_effort"):
            with pytest.raises(AdmissionRejected):
                ctrl.admit(tier)

    def test_breaker_trips_counted_once_per_transition(self, sim, scheduler):
        ctrl = _controller(sim, scheduler, shed_at=(("best_effort", 0.3),))
        for _ in range(12):
            scheduler.place(instance("ebm.e5.32ht"))
        for _ in range(3):
            with pytest.raises(AdmissionRejected):
                ctrl.admit("best_effort")
        assert ctrl.breaker_trips == 1


class TestRateLimiting:
    def test_bucket_exhaustion_rejects_with_retry_hint(self, sim, scheduler):
        ctrl = _controller(
            sim, scheduler,
            limits=(("premium", 100.0, 2.0),
                    ("standard", 100.0, 2.0),
                    ("best_effort", 100.0, 2.0)))
        ctrl.admit("standard")
        ctrl.admit("standard")
        with pytest.raises(AdmissionRejected) as exc:
            ctrl.admit("standard")
        assert exc.value.reason == "rate_limited"
        assert exc.value.retry_after_s == pytest.approx(1 / 100.0)

    def test_buckets_are_per_tier(self, sim, scheduler):
        ctrl = _controller(
            sim, scheduler,
            limits=(("premium", 100.0, 1.0),
                    ("standard", 100.0, 1.0),
                    ("best_effort", 100.0, 1.0)))
        ctrl.admit("premium")
        # Premium's bucket is dry; standard's is untouched.
        ctrl.admit("standard")
        with pytest.raises(AdmissionRejected):
            ctrl.admit("premium")

    def test_unknown_tier_rejected(self, sim, scheduler):
        ctrl = _controller(sim, scheduler)
        with pytest.raises(ValueError, match="unknown tier"):
            ctrl.admit("platinum")


class TestReporting:
    def test_counters_and_report(self, sim, scheduler):
        ctrl = _controller(sim, scheduler, shed_at=(("best_effort", 1.0),))
        scheduler.place(instance("ebm.e5.32ht"))  # headroom below 1.0
        ctrl.admit("premium")
        ctrl.admit("standard")
        with pytest.raises(AdmissionRejected):
            ctrl.admit("best_effort")
        report = ctrl.report()
        assert report["admitted"] == {
            "best_effort": 0, "premium": 1, "standard": 1}
        assert report["rejected"] == {"best_effort:shed": 1}
        assert report["shed_now"] == ["best_effort"]


_UNLIMITED = tuple((tier, 1e9, 1e9) for tier in TIERS)


@st.composite
def _policies(draw):
    """A valid, downward-closed policy shedding zero, one or two tiers."""
    shed_at = []
    n_shed = draw(st.integers(min_value=0, max_value=2))
    if n_shed:
        best_effort = draw(st.floats(min_value=0.0, max_value=1.0))
        shed_at.append(("best_effort", best_effort))
        if n_shed == 2:
            shed_at.append(("standard", draw(
                st.floats(min_value=0.0, max_value=best_effort))))
    return AdmissionPolicy(
        limits=_UNLIMITED, shed_at=tuple(shed_at),
        shed_retry_s=draw(st.floats(min_value=0.0, max_value=5.0)))


class _BreakerOracle:
    """The breaker re-derived from ``policy.watermark`` on every call."""

    def __init__(self, sim, scheduler, policy):
        self.scheduler = scheduler
        self.policy = policy
        self.audit = AuditLog(sim)
        self.trips = 0
        self.last = ()

    def shed(self):
        headroom = self.scheduler.healthy_headroom("bm")
        return tuple(t for t in TIERS if headroom < self.policy.watermark(t))

    def admit(self, tier):
        shed = self.shed()
        if shed != self.last:
            if set(shed) - set(self.last):
                self.trips += 1
                self.audit.record(
                    "admission", "breaker_trip", ",".join(shed) or "-",
                    headroom=round(self.scheduler.healthy_headroom("bm"), 6))
            self.last = shed
        if tier in shed:
            self.audit.record(
                "default", "admission_rejected", tier, reason="shed",
                retry_after_s=round(self.policy.shed_retry_s, 9))


_WALK = st.lists(
    st.tuples(st.sampled_from(("place", "release", "quarantine", "readmit")),
              st.integers(min_value=0, max_value=15),
              st.sampled_from(TIERS)),
    min_size=1, max_size=60)


class TestCachedWatermarks:
    @settings(max_examples=60, deadline=None)
    @given(policy=_policies(), walk=_WALK)
    def test_property_cached_marks_equal_policy(self, policy, walk):
        sim = Simulator(seed=0)
        sched = Scheduler()
        for i in range(4):
            sched.add_bmhive_server(f"s{i}", board_slots=4)
        ctrl = AdmissionController(sim, sched, policy=policy,
                                   audit=AuditLog(sim))
        oracle = _BreakerOracle(sim, sched, policy)
        live = []
        for op, arg, tier in walk:
            if op == "place":
                try:
                    live.append(sched.place(instance("ebm.e5.32ht")))
                except CapacityError:
                    pass
            elif op == "release" and live:
                sched.release(live.pop(arg % len(live)).instance_id)
            elif op == "quarantine":
                sched.quarantine(f"s{arg % 4}")
            elif op == "readmit":
                sched.readmit(f"s{arg % 4}")
            oracle.admit(tier)
            try:
                ctrl.admit(tier)
            except AdmissionRejected as exc:
                assert exc.reason == "shed"
            headroom = sched.healthy_headroom("bm")
            assert ctrl.shed_tiers() == tuple(
                t for t in TIERS if headroom < policy.watermark(t))
            assert ctrl.breaker_trips == oracle.trips
            assert ctrl.audit.head_digest() == oracle.audit.head_digest()
