"""Admission control with backpressure: per-tier gates + circuit breaker.

Under a correlated failure the worst control-plane behavior is to keep
queueing placements into a collapsed fleet. This module makes the
front door degrade gracefully instead (DESIGN.md §13):

* a :class:`~repro.sim.resources.TokenBucket` per tenant tier bounds
  the accepted request rate (HTTP-429-style rejection with a
  ``retry_after_s`` hint when the bucket is dry);
* a circuit breaker watches the scheduler's *healthy headroom* — free
  capacity on non-quarantined servers as a fraction of the nominal
  fleet — and sheds whole tiers when it drops below their watermark.

Shedding is **tier-ordered and downward-closed**: best-effort sheds
first, standard only at a strictly lower watermark, premium never
(premium requests can still fail with :class:`~repro.cloud.scheduler.
CapacityError`, but the breaker itself never turns them away). The
policy validator enforces the ordering so a misconfigured policy that
would shed premium before best-effort is rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.sim.resources import TokenBucket

__all__ = ["TIERS", "AdmissionRejected", "AdmissionPolicy",
           "AdmissionController"]

# Service tiers, best first. Shedding must be downward-closed on this
# order: if a tier is shed, every tier after it is shed too.
TIERS = ("premium", "standard", "best_effort")


class AdmissionRejected(Exception):
    """A request was turned away at the front door (HTTP-429 analogue).

    ``reason`` is ``"shed"`` (circuit breaker: healthy headroom below
    the tier's watermark) or ``"rate_limited"`` (tier token bucket
    dry); ``retry_after_s`` is the backoff hint a client would honor.
    """

    status = 429

    def __init__(self, tier: str, reason: str, retry_after_s: float = 0.0,
                 detail: str = ""):
        self.tier = tier
        self.reason = reason
        self.retry_after_s = retry_after_s
        message = f"{tier} admission rejected ({reason})"
        if detail:
            message += f": {detail}"
        if retry_after_s > 0:
            message += f"; retry after {retry_after_s * 1e3:.3f} ms"
        super().__init__(message)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Per-tier admission rates and circuit-breaker watermarks.

    ``limits`` is ``(tier, rate_per_s, burst)`` per tier; ``shed_at``
    is ``(tier, headroom_watermark)`` — the tier is shed while healthy
    headroom is *below* its watermark. Premium must not appear in
    ``shed_at``, and watermarks must be non-increasing from worst tier
    to best so shedding stays downward-closed.
    """

    limits: Tuple[Tuple[str, float, float], ...] = (
        ("premium", 1000.0, 1000.0),
        ("standard", 1000.0, 1000.0),
        ("best_effort", 1000.0, 1000.0),
    )
    # Default: only best-effort is ever breaker-shed. A fully-packed
    # pool legitimately has zero headroom, so a standard watermark > 0
    # would turn ordinary CapacityError ("fleet is full") into
    # breaker rejections; region-scale policies opt into one.
    shed_at: Tuple[Tuple[str, float], ...] = (
        ("best_effort", 0.12),
    )
    shed_retry_s: float = 1.0

    def __post_init__(self):
        limit_tiers = tuple(t for t, _, _ in self.limits)
        if limit_tiers != TIERS:
            raise ValueError(
                f"limits must cover every tier in order {TIERS}, "
                f"got {limit_tiers}")
        for tier, rate, burst in self.limits:
            if rate <= 0 or burst <= 0:
                raise ValueError(
                    f"{tier} rate/burst must be positive, got {rate}/{burst}")
        marks = dict(self.shed_at)
        if "premium" in marks:
            raise ValueError("premium is never shed; drop it from shed_at")
        unknown = sorted(set(marks) - set(TIERS))
        if unknown:
            raise ValueError(f"unknown tier(s) in shed_at: {unknown}")
        # Downward-closed: a worse tier's watermark must be >= every
        # better tier's, so headroom low enough to shed "standard" has
        # already shed "best_effort".
        prev = float("inf")
        for tier in reversed(TIERS):       # worst tier first
            mark = marks.get(tier, 0.0)
            if mark > prev:
                raise ValueError(
                    f"shed watermarks must not increase toward better "
                    f"tiers (tier {tier!r} has {mark} > {prev})")
            prev = mark
        if self.shed_retry_s < 0:
            raise ValueError(
                f"shed_retry_s must be >= 0, got {self.shed_retry_s}")

    def watermark(self, tier: str) -> float:
        return dict(self.shed_at).get(tier, 0.0)


class AdmissionController:
    """Front-door gate: circuit breaker first, then the tier bucket.

    Pure reads drive the breaker (``scheduler.capacity_summary`` is
    counter arithmetic), and token buckets never schedule events, so an
    admission decision adds nothing to the event heap — admission is
    invisible to the determinism contract.
    """

    def __init__(self, sim, scheduler, policy: Optional[AdmissionPolicy] = None,
                 audit=None, kind: str = "bm"):
        self.sim = sim
        self.scheduler = scheduler
        self.policy = policy or AdmissionPolicy()
        self.audit = audit
        self.kind = kind
        self.buckets: Dict[str, TokenBucket] = {
            tier: TokenBucket(sim, rate=rate, burst=burst)
            for tier, rate, burst in self.policy.limits
        }
        self.admitted: Dict[str, int] = {tier: 0 for tier in TIERS}
        self.rejected: Dict[Tuple[str, str], int] = {}
        self.breaker_trips = 0
        self._last_shed: Tuple[str, ...] = ()
        # The policy is frozen: resolve every tier's watermark once.
        self._marks: Tuple[Tuple[str, float], ...] = tuple(
            (tier, self.policy.watermark(tier)) for tier in TIERS)

    # -- breaker -------------------------------------------------------
    def headroom_fraction(self) -> float:
        return self.scheduler.healthy_headroom(self.kind)

    def shed_tiers(self) -> Tuple[str, ...]:
        """Tiers currently shed by the breaker (stable TIERS order)."""
        return self._shed_at(self.headroom_fraction())

    def _shed_at(self, headroom: float) -> Tuple[str, ...]:
        return tuple([t for t, mark in self._marks if headroom < mark])

    # -- admission -----------------------------------------------------
    def admit(self, tier: str, tenant: str = "default") -> None:
        """Admit one request for ``tier`` or raise :class:`AdmissionRejected`."""
        if tier not in TIERS:
            known = ", ".join(TIERS)
            raise ValueError(f"unknown tier {tier!r}; tiers: {known}")
        headroom = self.scheduler.healthy_headroom(self.kind)
        shed = self._shed_at(headroom)
        if shed != self._last_shed:
            if set(shed) - set(self._last_shed):
                self.breaker_trips += 1
                if self.audit is not None:
                    self.audit.record(
                        "admission", "breaker_trip", ",".join(shed) or "-",
                        headroom=round(headroom, 6))
            self._last_shed = shed
        if tier in shed:
            self._reject(tier, tenant, "shed",
                         retry_after_s=self.policy.shed_retry_s,
                         detail=f"healthy headroom {headroom:.4f} below "
                                f"{self.policy.watermark(tier):.4f}")
        bucket = self.buckets[tier]
        if not bucket.try_consume(1.0):
            self._reject(tier, tenant, "rate_limited",
                         retry_after_s=bucket.delay_for(1.0),
                         detail="tier token bucket empty")
        self.admitted[tier] += 1

    def _reject(self, tier: str, tenant: str, reason: str,
                retry_after_s: float, detail: str) -> None:
        key = (tier, reason)
        self.rejected[key] = self.rejected.get(key, 0) + 1
        if self.audit is not None:
            self.audit.record(tenant, "admission_rejected", tier,
                              reason=reason,
                              retry_after_s=round(retry_after_s, 9))
        raise AdmissionRejected(tier, reason, retry_after_s=retry_after_s,
                                detail=detail)

    # -- reporting -----------------------------------------------------
    def report(self) -> Dict:
        """Deterministic counter summary (sorted keys)."""
        return {
            "admitted": dict(sorted(self.admitted.items())),
            "rejected": {f"{tier}:{reason}": n for (tier, reason), n
                         in sorted(self.rejected.items())},
            "breaker_trips": self.breaker_trips,
            "shed_now": list(self.shed_tiers()),
        }
