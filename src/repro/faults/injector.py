"""Deterministic fault injection for DAM replays and executors.

The injector answers three questions the execution stack asks every
step — how many IO slots survive (:meth:`FaultInjector.effective_p`),
which nodes are frozen (:meth:`FaultInjector.is_stalled`), and what a
given flush attempt actually does (:meth:`FaultInjector.flush_outcome`).

Every answer is a pure function of ``(seed, fault kind, step,
coordinates)``: each decision draws from a generator seeded by a
:class:`numpy.random.SeedSequence` whose ``spawn_key`` encodes the
event's coordinates.  Two consequences the rest of the stack relies on:

* **replay stability** — the same plan + seed produces the same fault
  pattern no matter how many times, or in what order, the injector is
  queried (the simulator and the batch executor can disagree about
  *when* they ask without disagreeing about *what* happens);
* **retry independence** — a flush retried at a later step is a new
  event (different step coordinate) and re-rolls its fate, which is what
  makes bounded retry meaningful.

Injected faults are recorded as :class:`FaultEvent` values on
``injector.events`` (deduplicated for window-style faults) so reports
can show what actually fired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.plan import (
    DEGRADED_P,
    FAILED_FLUSH,
    FaultPlan,
    NODE_STALL,
    PARTIAL_FLUSH,
)

#: ``flush_outcome`` statuses.
OUTCOME_OK = "ok"
OUTCOME_FAILED = "failed"
OUTCOME_PARTIAL = "partial"

#: Stable small integers namespacing the per-kind random streams.
_KIND_IDS = {
    FAILED_FLUSH: 1,  # shared with PARTIAL_FLUSH: one draw decides both
    NODE_STALL: 2,
    DEGRADED_P: 3,
}


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One fault that actually fired during a replay/execution."""

    kind: str
    step: int
    node: int = -1
    detail: str = ""

    def __repr__(self) -> str:
        where = f" node={self.node}" if self.node >= 0 else ""
        return f"FaultEvent({self.kind}, t={self.step}{where}: {self.detail})"


class FaultInjector:
    """Stateless fault decisions + a log of the faults that fired.

    One injector instance may be shared across replays of the same run;
    ``events`` accumulates (deduplicated) and can be cleared between
    replays with :meth:`reset_events`.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = int(seed)
        self.events: list[FaultEvent] = []
        self._logged: set[tuple] = set()
        # Memoized uniforms: each (kind, coords) draw is a pure function
        # of the seed, so caching changes nothing about the fault pattern
        # but removes the dominant cost of hot-loop queries (constructing
        # a numpy Generator per draw is ~25us; a dict hit is ~40ns).
        self._uniforms: dict[tuple, float] = {}

    @property
    def is_zero_plan(self) -> bool:
        """True iff no fault can ever fire (executors may skip all queries).

        Subclasses with extra fault sources (e.g. the burst chain)
        override this; the executors consult it instead of reaching into
        ``plan.is_zero`` directly.
        """
        return self.plan.is_zero

    def reset_events(self) -> None:
        """Clear the fault log (decisions are unaffected — they are pure)."""
        self.events.clear()
        self._logged.clear()

    # ------------------------------------------------------------------
    # Deterministic per-event randomness
    # ------------------------------------------------------------------
    def _rng(self, kind: str, *coords: int) -> np.random.Generator:
        key = (_KIND_IDS[kind],) + tuple(int(c) & 0xFFFFFFFF for c in coords)
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=key)
        )

    def _uniform(self, kind: str, *coords: int) -> float:
        """The (memoized) uniform [0, 1) draw for one fault opportunity."""
        key = (kind,) + coords
        u = self._uniforms.get(key)
        if u is None:
            u = float(self._rng(kind, *coords).random())
            self._uniforms[key] = u
        return u

    def _log(self, event: FaultEvent, dedup_key: tuple) -> None:
        if dedup_key not in self._logged:
            self._logged.add(dedup_key)
            self.events.append(event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def effective_p(self, t: int, P: int) -> int:
        """IO slots available at step ``t`` (``P`` outside degraded windows)."""
        plan = self.plan
        if plan.degraded_p_rate == 0.0:
            return P
        lo = max(1, t - plan.degraded_p_duration + 1)
        for t0 in range(lo, t + 1):
            if self._uniform(DEGRADED_P, t0) < plan.degraded_p_rate:
                eff = min(P, plan.degraded_p_floor)
                self._log(
                    FaultEvent(
                        DEGRADED_P,
                        t0,
                        detail=(
                            f"P={P} -> {eff} for "
                            f"{plan.degraded_p_duration} step(s)"
                        ),
                    ),
                    (DEGRADED_P, t0),
                )
                return eff
        return P

    def is_stalled(self, t: int, node: int) -> bool:
        """True iff ``node``'s IOs are blocked at step ``t``."""
        plan = self.plan
        if plan.stall_rate == 0.0:
            return False
        lo = max(1, t - plan.stall_duration + 1)
        for t0 in range(lo, t + 1):
            if self._uniform(NODE_STALL, t0, node) < plan.stall_rate:
                self._log(
                    FaultEvent(
                        NODE_STALL,
                        t0,
                        node=node,
                        detail=f"stalled for {plan.stall_duration} step(s)",
                    ),
                    (NODE_STALL, t0, node),
                )
                return True
        return False

    def flush_outcome(
        self, t: int, src: int, dest: int, messages: "tuple[int, ...]"
    ) -> "tuple[str, tuple[int, ...]]":
        """Fate of a flush attempted at step ``t``.

        Returns ``(status, delivered)``: ``("ok", messages)``,
        ``("failed", ())``, or ``("partial", subset)`` with a nonempty
        proper subset that was delivered (the caller must redeliver the
        rest).  A single-message flush is never partial.
        """
        plan = self.plan
        if plan.failed_flush_rate == 0.0 and plan.partial_flush_rate == 0.0:
            return OUTCOME_OK, messages
        coords = (t, src, dest, min(messages, default=0))
        u = self._uniform(FAILED_FLUSH, *coords)
        if u < plan.failed_flush_rate:
            self._log(
                FaultEvent(
                    FAILED_FLUSH,
                    t,
                    node=src,
                    detail=f"flush {src}->{dest} ({len(messages)} msgs) no-oped",
                ),
                (FAILED_FLUSH, t, src, dest),
            )
            return OUTCOME_FAILED, ()
        if (
            u < plan.failed_flush_rate + plan.partial_flush_rate
            and len(messages) >= 2
        ):
            # Partial outcomes need the generator itself for the subset
            # draws; re-create it and burn the uniform already consumed
            # via the memo so the stream position (and thus the chosen
            # subset) is byte-identical to the unmemoized implementation.
            rng = self._rng(FAILED_FLUSH, *coords)
            rng.random()
            k = int(rng.integers(1, len(messages)))
            picked = rng.choice(len(messages), size=k, replace=False)
            delivered = tuple(sorted(messages[i] for i in picked))
            self._log(
                FaultEvent(
                    PARTIAL_FLUSH,
                    t,
                    node=src,
                    detail=(
                        f"flush {src}->{dest} delivered {k}/{len(messages)} msgs"
                    ),
                ),
                (PARTIAL_FLUSH, t, src, dest),
            )
            return OUTCOME_PARTIAL, delivered
        return OUTCOME_OK, messages

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.seed}, plan={self.plan!r}, "
            f"{len(self.events)} event(s) fired)"
        )
