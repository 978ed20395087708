"""Markov-modulated correlated fault bursts on tree subtrees.

The base :class:`~repro.faults.injector.FaultInjector` draws every fault
independently per coordinate, but real devices fail in *bursts*: a slow
disk first stalls, then starts tearing batches, then drops writes — and
the blast radius is a physical neighbourhood (here: a subtree), not
scattered coordinates (cf. Luo & Carey on correlated LSM write stalls).

:class:`BurstInjector` layers a hidden Markov chain over the base
injector.  The chain has four phases, each lasting
``BurstPlan.phase_duration`` steps::

    calm --burst_rate--> stall --escalation--> partial --escalation--> failed
      ^                    |                      |                       |
      +---- (1-escalation) +--- (1-escalation) --+----------- always ----+

At burst start a subtree root is drawn; for the lifetime of the burst
every fault the chain emits targets that subtree only:

* **stall phase** — every node in the subtree is stalled;
* **partial phase** — flushes touching the subtree tear
  (``partial_rate`` per attempt);
* **failed phase** — flushes touching the subtree no-op
  (``failed_rate`` per attempt).

The chain is evaluated lazily from the seed alone and memoized per step,
so burst decisions inherit the base injector's replay stability: the
same plan + seed produce the same burst timeline regardless of query
order, and retried flushes re-roll only their own outcome draw, never
the phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.injector import (
    FaultEvent,
    FaultInjector,
    OUTCOME_FAILED,
    OUTCOME_PARTIAL,
    OUTCOME_OK,
    _KIND_IDS,
)
from repro.faults.plan import FaultPlan
from repro.tree.topology import TreeTopology
from repro.util.errors import InvalidInstanceError

#: Burst phases (and the FaultEvent kinds burst activity is logged under).
PHASE_CALM = "calm"
PHASE_STALL = "burst_stall"
PHASE_PARTIAL = "burst_partial"
PHASE_FAILED = "burst_failed"

_ESCALATION = {PHASE_STALL: PHASE_PARTIAL, PHASE_PARTIAL: PHASE_FAILED}

#: Private random-stream namespaces for the chain (see injector._KIND_IDS).
_BURST_CHAIN = "burst_chain"
_BURST_NODE = "burst_node"
_BURST_OUTCOME = "burst_outcome"
_KIND_IDS.setdefault(_BURST_CHAIN, 4)
_KIND_IDS.setdefault(_BURST_NODE, 5)
_KIND_IDS.setdefault(_BURST_OUTCOME, 6)


@dataclass(frozen=True, slots=True)
class BurstPlan:
    """Parameters of the burst chain (pure data, like :class:`FaultPlan`).

    Attributes
    ----------
    burst_rate:
        Per-step probability that a burst starts while the chain is calm.
    escalation:
        Probability that a finishing phase escalates to the next one
        (stall -> partial -> failed) instead of returning to calm.
    phase_duration:
        Steps each phase lasts before the chain transitions.
    partial_rate:
        Per-attempt tear probability for flushes touching the burst
        subtree during the partial phase.
    failed_rate:
        Per-attempt no-op probability for flushes touching the burst
        subtree during the failed phase.
    """

    burst_rate: float = 0.0
    escalation: float = 0.6
    phase_duration: int = 3
    partial_rate: float = 0.9
    failed_rate: float = 0.9

    def __post_init__(self) -> None:
        for name in ("burst_rate", "escalation", "partial_rate",
                     "failed_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise InvalidInstanceError(
                    f"{name} must be in [0, 1], got {rate}"
                )
        if self.phase_duration < 1:
            raise InvalidInstanceError(
                f"phase_duration must be >= 1, got {self.phase_duration}"
            )

    @property
    def is_zero(self) -> bool:
        """True iff the chain can never leave the calm phase."""
        return self.burst_rate == 0.0

    @classmethod
    def from_rate(cls, rate: float, *, phase_duration: int = 3) -> "BurstPlan":
        """One-knob plan for sweeps: comparable pressure to the iid plans.

        A burst window has a much larger blast radius than one iid fault,
        so the start rate gets a quarter of ``rate`` (mirroring how
        :meth:`FaultPlan.uniform` discounts stalls), while escalation
        scales with ``rate`` so higher pressure also means deeper
        stall -> partial -> failed cascades.
        """
        if not (0.0 <= rate <= 1.0):
            raise InvalidInstanceError(f"rate must be in [0, 1], got {rate}")
        return cls(
            burst_rate=rate / 4,
            escalation=min(1.0, 0.4 + rate),
            phase_duration=phase_duration,
        )


class BurstInjector(FaultInjector):
    """Base iid faults + a Markov burst chain over one subtree at a time.

    Parameters
    ----------
    plan:
        Base iid fault plan (may be :meth:`FaultPlan.none` for
        bursts-only injection).
    bursts:
        The :class:`BurstPlan` driving the chain.
    topology:
        Tree the burst subtrees are drawn from.
    seed:
        Shared seed for the base injector and the chain.
    """

    def __init__(
        self,
        plan: FaultPlan,
        bursts: BurstPlan,
        topology: TreeTopology,
        seed: int = 0,
    ) -> None:
        super().__init__(plan, seed)
        self.bursts = bursts
        self.topology = topology
        #: _phases[t - 1] = (phase, subtree_root) at step t; grown lazily.
        self._phases: list[tuple[str, int]] = []
        #: _ages[t - 1] = steps the phase at t has been running, inclusive.
        self._ages: list[int] = []
        self._member_cache: dict[tuple[int, int], bool] = {}

    @property
    def is_zero_plan(self) -> bool:
        """True iff neither the base plan nor the chain can ever fire."""
        return self.plan.is_zero and self.bursts.is_zero

    # ------------------------------------------------------------------
    # The chain
    # ------------------------------------------------------------------
    def phase_at(self, t: int) -> "tuple[str, int]":
        """``(phase, subtree_root)`` at step ``t`` (root is -1 while calm)."""
        if t < 1:
            return PHASE_CALM, -1
        bp = self.bursts
        if bp.is_zero:
            return PHASE_CALM, -1
        while len(self._phases) < t:
            step = len(self._phases) + 1
            if not self._phases:
                prev, node, age = PHASE_CALM, -1, 0
            else:
                prev, node = self._phases[-1]
                age = self._ages[-1]
            if prev == PHASE_CALM:
                if self._uniform(_BURST_CHAIN, step) < bp.burst_rate:
                    node = self._pick_subtree(step)
                    self._append_phase(PHASE_STALL, node, 1)
                    self._log(
                        FaultEvent(
                            PHASE_STALL, step, node=node,
                            detail=(
                                f"burst begins on subtree({node}) for "
                                f"{bp.phase_duration} step(s)"
                            ),
                        ),
                        (PHASE_STALL, step, node),
                    )
                else:
                    self._append_phase(PHASE_CALM, -1, 1)
            elif age < bp.phase_duration:
                self._append_phase(prev, node, age + 1)
            else:
                nxt = _ESCALATION.get(prev)
                if nxt is not None and (
                    self._uniform(_BURST_CHAIN, step) < bp.escalation
                ):
                    self._append_phase(nxt, node, 1)
                    self._log(
                        FaultEvent(
                            nxt, step, node=node,
                            detail=(
                                f"burst escalates on subtree({node}) for "
                                f"{bp.phase_duration} step(s)"
                            ),
                        ),
                        (nxt, step, node),
                    )
                else:
                    self._append_phase(PHASE_CALM, -1, 1)
        return self._phases[t - 1]

    def _append_phase(self, phase: str, node: int, age: int) -> None:
        self._phases.append((phase, node))
        self._ages.append(age)

    def _pick_subtree(self, step: int) -> int:
        """Draw the burst's subtree root (any non-root node)."""
        topo = self.topology
        n = topo.n_nodes
        if n <= 1:
            return topo.root
        rng = self._rng(_BURST_NODE, step)
        node = int(rng.integers(0, n - 1))
        # Skip the root: a whole-tree burst would just be a global stall.
        return node + 1 if node >= topo.root else node

    def _in_burst(self, node: int, burst_root: int) -> bool:
        key = (node, burst_root)
        hit = self._member_cache.get(key)
        if hit is None:
            hit = self.topology.is_descendant(node, burst_root)
            self._member_cache[key] = hit
        return hit

    # ------------------------------------------------------------------
    # Overridden queries: chain first, base plan second
    # ------------------------------------------------------------------
    def is_stalled(self, t: int, node: int) -> bool:
        phase, root = self.phase_at(t)
        if phase == PHASE_STALL and self._in_burst(node, root):
            return True
        return super().is_stalled(t, node)

    def flush_outcome(
        self, t: int, src: int, dest: int, messages: "tuple[int, ...]"
    ) -> "tuple[str, tuple[int, ...]]":
        phase, root = self.phase_at(t)
        if phase in (PHASE_PARTIAL, PHASE_FAILED) and (
            self._in_burst(src, root) or self._in_burst(dest, root)
        ):
            bp = self.bursts
            coords = (t, src, dest, min(messages, default=0))
            u = self._uniform(_BURST_OUTCOME, *coords)
            if phase == PHASE_FAILED and u < bp.failed_rate:
                self._log(
                    FaultEvent(
                        PHASE_FAILED, t, node=src,
                        detail=(
                            f"flush {src}->{dest} ({len(messages)} msgs) "
                            f"no-oped inside burst(subtree {root})"
                        ),
                    ),
                    (PHASE_FAILED, t, src, dest),
                )
                return OUTCOME_FAILED, ()
            if (
                phase == PHASE_PARTIAL
                and u < bp.partial_rate
                and len(messages) >= 2
            ):
                rng = self._rng(_BURST_OUTCOME, *coords)
                rng.random()  # burn the memoized deciding uniform
                k = int(rng.integers(1, len(messages)))
                picked = rng.choice(len(messages), size=k, replace=False)
                delivered = tuple(sorted(messages[i] for i in picked))
                self._log(
                    FaultEvent(
                        PHASE_PARTIAL, t, node=src,
                        detail=(
                            f"flush {src}->{dest} delivered "
                            f"{k}/{len(messages)} msgs inside "
                            f"burst(subtree {root})"
                        ),
                    ),
                    (PHASE_PARTIAL, t, src, dest),
                )
                return OUTCOME_PARTIAL, delivered
            return OUTCOME_OK, messages
        return super().flush_outcome(t, src, dest, messages)

    def __repr__(self) -> str:
        return (
            f"BurstInjector(seed={self.seed}, plan={self.plan!r}, "
            f"bursts={self.bursts!r}, {len(self.events)} event(s) fired)"
        )


def make_injector(
    rate: float, *, burst: bool, seed: int, topology: TreeTopology
) -> "FaultInjector | None":
    """The one-knob fault source of a sweep cell or a journaled run.

    ``burst`` picks Markov-modulated bursts on ``topology``'s subtrees
    (:meth:`BurstPlan.from_rate`), else iid faults
    (:meth:`FaultPlan.uniform`); an iid ``rate`` of 0 is no injector.
    """
    if burst:
        return BurstInjector(
            FaultPlan.none(), BurstPlan.from_rate(rate), topology, seed=seed
        )
    plan = FaultPlan.uniform(rate)
    return None if plan.is_zero else FaultInjector(plan, seed=seed)
