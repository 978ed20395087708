"""Replay a flush schedule on a WORMS instance under the DAM model.

The simulator is the single source of truth for schedule semantics:

* message locations over time (state ``S_t`` = locations at the *start* of
  1-based time step ``t``; a flush at step ``t`` moves its messages so they
  are at the destination from step ``t + 1`` on);
* completion times (``c(S, m)`` = the step whose flush delivers ``m`` into
  its target leaf — matching the paper's accounting, e.g. the two-flush
  paths in the NP-hardness gadget complete at step 2);
* per-step violation collection for both schedule classes the paper
  defines: **overfilling** (flushes valid and everything completes) and
  **valid** (additionally, every internal non-root node retains at most
  ``B`` messages across consecutive steps — the space requirement).

The main loop is plain Python over list/dict/set state: schedules touch
each message O(h) times total, so the work is proportional to schedule
size and profiling shows no numpy-friendly hot spot (guides: make it work
simply and legibly first, optimize bottlenecks only when measured).
numpy appears only at the result boundary (``completion_times`` is an
array because the analysis layer consumes it that way).

Passing a :class:`~repro.faults.FaultInjector` replays the schedule
*open-loop* under faults: a failed or stalled flush silently no-ops for
its step, a partial flush delivers a subset, and flushes beyond the
degraded capacity are dropped.  Injected faults are recorded as
``fault_events`` (they are not violations — the schedule did nothing
wrong), but their downstream consequences surface naturally as
``message_not_at_source`` / ``messages_unfinished`` violations: exactly
the cascade a fixed schedule suffers on a faulty machine.  Closed-loop
recovery lives in :class:`repro.policies.executor.GatedExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.worms import WORMSInstance
from repro.dam.schedule import FlushSchedule
from repro.obs.hooks import current_obs
from repro.faults.injector import (
    FaultEvent,
    OUTCOME_FAILED,
    OUTCOME_PARTIAL,
)
from repro.faults.plan import DROPPED_FLUSH

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.faults.injector import FaultInjector

#: Violation kinds reported by :func:`simulate`.
KIND_TOO_MANY_FLUSHES = "too_many_flushes_in_step"
KIND_FLUSH_TOO_BIG = "flush_exceeds_B"
KIND_BAD_EDGE = "not_a_tree_edge"
KIND_MESSAGE_NOT_AT_SRC = "message_not_at_source"
KIND_MESSAGE_IN_TWO_FLUSHES = "message_in_two_flushes_same_step"
KIND_SPACE = "space_requirement_violated"
KIND_INCOMPLETE = "messages_unfinished"
KIND_EMPTY_FLUSH = "empty_flush"


@dataclass(frozen=True, slots=True)
class Violation:
    """One rule violation observed while replaying a schedule."""

    kind: str
    time_step: int
    node: int = -1
    detail: str = ""

    def __repr__(self) -> str:
        where = f" node={self.node}" if self.node >= 0 else ""
        return f"Violation({self.kind}, t={self.time_step}{where}: {self.detail})"


@dataclass
class SimulationResult:
    """Outcome of replaying a schedule.

    ``completion_times[i]`` is the 1-based step at which message ``i``
    reached its target leaf, or 0 if it never did.
    """

    completion_times: np.ndarray
    n_steps: int
    violations: list[Violation] = field(default_factory=list)
    space_violations: list[Violation] = field(default_factory=list)
    max_occupancy: dict[int, int] = field(default_factory=dict)
    #: faults injected during the replay (empty without an injector).
    fault_events: list = field(default_factory=list)

    @property
    def total_completion_time(self) -> int:
        """The paper's objective ``c(S) = sum_m c(S, m)``."""
        return int(self.completion_times.sum())

    @property
    def mean_completion_time(self) -> float:
        """Average completion time over all messages."""
        if self.completion_times.size == 0:
            return 0.0
        return float(self.completion_times.mean())

    @property
    def max_completion_time(self) -> int:
        """Makespan: the last completion step."""
        if self.completion_times.size == 0:
            return 0
        return int(self.completion_times.max())

    @property
    def is_overfilling(self) -> bool:
        """True iff the schedule is at least overfilling (paper §2.1)."""
        return not self.violations

    @property
    def is_valid(self) -> bool:
        """True iff the schedule is fully valid (space requirement too)."""
        return not self.violations and not self.space_violations


def simulate(
    instance: WORMSInstance,
    schedule: FlushSchedule,
    *,
    track_occupancy: bool = False,
    faults: "FaultInjector | None" = None,
) -> SimulationResult:
    """Replay ``schedule`` on ``instance`` and collect all violations.

    Never raises on bad schedules — violations are recorded and the replay
    continues on a best-effort basis (flushes moving absent messages move
    only the present ones), so callers get a complete diagnosis in one
    pass.  Use :func:`repro.dam.validator.validate_valid` to raise instead.

    With ``faults``, the replay is open-loop fault injection: see the
    module docstring for the exact semantics of each fault kind.
    """
    obs = current_obs()
    span = obs.tracer.span(
        "dam.simulate", category="dam",
        n_steps=schedule.n_steps, n_messages=instance.n_messages,
    )
    topo = instance.topology
    n_msgs = instance.n_messages
    parents = topo.parents
    targets = instance.targets
    if faults is not None:
        faults.reset_events()  # log exactly this replay's faults

    location = [instance.start_of(i) for i in range(n_msgs)]
    completion = [0] * n_msgs
    # Messages already at their target (possible with custom start nodes)
    # complete at time 0 by convention.
    at_target = [location[i] == int(targets[i]) for i in range(n_msgs)]
    occupants: dict[int, set[int]] = {}
    for i in range(n_msgs):
        if not at_target[i]:
            occupants.setdefault(location[i], set()).add(i)

    violations: list[Violation] = []
    space_violations: list[Violation] = []
    max_occupancy: dict[int, int] = {}
    root = topo.root
    is_leaf = [topo.is_leaf(v) for v in range(topo.n_nodes)]
    # Space-requirement bookkeeping: occupancy can only grow via arrivals,
    # so it suffices to *watch* internal non-root nodes that ended some
    # step above B and re-check them (plus nothing else) each step.  This
    # keeps the per-step cost proportional to the step's own flushes on
    # valid schedules instead of scanning every occupied node.
    watch: set[int] = {
        v
        for v, occ in occupants.items()
        if v != root and not is_leaf[v] and len(occ) > instance.B
    }
    if track_occupancy:
        for v, occ in occupants.items():
            max_occupancy[v] = len(occ)

    fault_events: list = []
    for t, flushes in enumerate(schedule.steps, start=1):
        if len(flushes) > instance.P:
            violations.append(
                Violation(
                    KIND_TOO_MANY_FLUSHES,
                    t,
                    detail=f"{len(flushes)} flushes > P={instance.P}",
                )
            )
        capacity = (
            faults.effective_p(t, instance.P) if faults is not None
            else instance.P
        )
        executed = 0
        moved_this_step: set[int] = set()
        arrivals: dict[int, set[int]] = {}
        for flush in flushes:
            if flush.size == 0:
                violations.append(Violation(KIND_EMPTY_FLUSH, t, node=flush.src))
                continue
            delivered_filter: "set[int] | None" = None
            if faults is not None:
                # Fault checks come first: a faulted flush no-ops without
                # any violation (the schedule did nothing wrong), and its
                # consequences surface downstream instead.
                if executed >= capacity:
                    fault_events.append(
                        FaultEvent(
                            DROPPED_FLUSH,
                            t,
                            node=flush.src,
                            detail=(
                                f"flush {flush.src}->{flush.dest} dropped: "
                                f"degraded capacity {capacity} < P"
                            ),
                        )
                    )
                    continue
                if faults.is_stalled(t, flush.src) or faults.is_stalled(
                    t, flush.dest
                ):
                    continue
                status, delivered = faults.flush_outcome(
                    t, flush.src, flush.dest, flush.messages
                )
                executed += 1
                if status == OUTCOME_FAILED:
                    continue
                if status == OUTCOME_PARTIAL:
                    delivered_filter = set(delivered)
            if flush.size > instance.B:
                violations.append(
                    Violation(
                        KIND_FLUSH_TOO_BIG,
                        t,
                        node=flush.src,
                        detail=f"{flush.size} msgs > B={instance.B}",
                    )
                )
            if (
                not (0 <= flush.dest < topo.n_nodes)
                or int(parents[flush.dest]) != flush.src
            ):
                violations.append(
                    Violation(
                        KIND_BAD_EDGE,
                        t,
                        node=flush.src,
                        detail=f"({flush.src}->{flush.dest}) is not an edge",
                    )
                )
                continue
            movable = []
            for m in flush.messages:
                if m in moved_this_step:
                    violations.append(
                        Violation(
                            KIND_MESSAGE_IN_TWO_FLUSHES,
                            t,
                            node=flush.src,
                            detail=f"message {m}",
                        )
                    )
                    continue
                if location[m] != flush.src or completion[m] > 0:
                    violations.append(
                        Violation(
                            KIND_MESSAGE_NOT_AT_SRC,
                            t,
                            node=flush.src,
                            detail=(
                                f"message {m} is at {location[m]}, "
                                f"not {flush.src}"
                            ),
                        )
                    )
                    continue
                if delivered_filter is not None and m not in delivered_filter:
                    continue  # redelivery needed: the partial flush lost m
                movable.append(m)
                moved_this_step.add(m)
            if not movable:
                continue
            src_set = occupants.get(flush.src, set())
            for m in movable:
                location[m] = flush.dest
                src_set.discard(m)
            arriving = arrivals.setdefault(flush.dest, set())
            for m in movable:
                if flush.dest == int(targets[m]):
                    completion[m] = t
                else:
                    arriving.add(m)

        # Space requirement: messages in v at both step t and t+1.  Each
        # occupancy set now holds start-of-step occupants minus this
        # step's outflows (arrivals are staged separately), which is
        # exactly the retained count the requirement bounds.  A node can
        # only be over B here if it already ended an earlier step over B
        # (occupancy grows via arrivals alone), so checking the watch set
        # is complete.
        for v in list(watch):
            retained = len(occupants.get(v, ()))
            if retained > instance.B:
                space_violations.append(
                    Violation(
                        KIND_SPACE,
                        t,
                        node=v,
                        detail=f"{retained} msgs retained > B={instance.B}",
                    )
                )
            else:
                watch.discard(v)
        for v, arr in arrivals.items():
            if not arr:
                continue
            occ = occupants.setdefault(v, set())
            occ.update(arr)
            if v != root and not is_leaf[v] and len(occ) > instance.B:
                watch.add(v)
            if track_occupancy and len(occ) > max_occupancy.get(v, 0):
                max_occupancy[v] = len(occ)

    unfinished = sum(
        1 for i in range(n_msgs) if completion[i] == 0 and not at_target[i]
    )
    if unfinished > 0:
        violations.append(
            Violation(
                KIND_INCOMPLETE,
                schedule.n_steps,
                detail=f"{unfinished} message(s) never reached their leaf",
            )
        )
    if faults is not None:
        fault_events.extend(faults.events)
        fault_events.sort(key=lambda e: e.step)

    if obs.enabled:
        span.set("violations", len(violations) + len(space_violations))
        span.set_steps(1, schedule.n_steps)
        span.finish()
        metrics = obs.metrics
        metrics.counter(
            "simulator_replays_total", "simulate() replays"
        ).inc()
        metrics.counter(
            "simulator_steps_total", "DAM steps replayed"
        ).inc(schedule.n_steps)
        metrics.counter(
            "simulator_violations_total", "violations found by replays"
        ).inc(len(violations) + len(space_violations))
    return SimulationResult(
        completion_times=np.asarray(completion, dtype=np.int64),
        n_steps=schedule.n_steps,
        violations=violations,
        space_violations=space_violations,
        max_occupancy=max_occupancy,
        fault_events=fault_events,
    )
