"""Admission control: bounded root-buffer backpressure + load shedding.

The WORMS model gives the root an unbounded backlog; a real service does
not.  :class:`AdmissionController` bounds, per shard, (1) how many
admitted messages may sit at the root awaiting their first flush
(``max_root_backlog``) and (2) how many arrivals may queue in front of
admission (``max_queue``).  Arrivals beyond both bounds are **shed** —
counted, reported, and surfaced to closed-loop arrival processes, never
silently dropped.

The queue drains in FIFO order at the start of every step while the
shard's root has headroom.  Draining also consults
:meth:`~repro.policies.engine.ShardEngine.root_stalled`, so backpressure
composes with fault-aware triage: while a shard's ingest node sits in an
observed stall window the queue holds (messages wait at the door rather
than piling into a frozen root and then competing with recovery traffic
for IO slots).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.obs.hooks import current_obs
from repro.serve.router import ShardEngine
from repro.util.errors import InvalidInstanceError


@dataclass
class AdmissionStats:
    """Backpressure counters, per shard and in total."""

    offered: int = 0
    admitted: int = 0
    shed: int = 0
    #: message-steps spent waiting in admission queues (total).
    queue_wait_steps: int = 0
    max_queue_depth: int = 0
    #: steps on which draining held because the shard root was stalled.
    stall_holds: int = 0
    #: messages handed to a neighbor shard by a breaker-open diversion
    #: (they stay counted in ``offered`` once; the handoff moves them).
    handoff_in: int = 0
    #: handoff messages the receiving queue had no room for (the
    #: supervisor sheds these and counts the shedding itself).
    handoff_overflow: int = 0
    shed_by_shard: dict = field(default_factory=dict)


class AdmissionController:
    """Per-shard bounded queues in front of the shard roots."""

    def __init__(
        self,
        n_shards: int,
        *,
        max_root_backlog: int,
        max_queue: int,
    ) -> None:
        if max_root_backlog < 1:
            raise InvalidInstanceError(
                f"max_root_backlog must be >= 1, got {max_root_backlog}"
            )
        if max_queue < 0:
            raise InvalidInstanceError(
                f"max_queue must be >= 0, got {max_queue}"
            )
        self.max_root_backlog = int(max_root_backlog)
        self.max_queue = int(max_queue)
        #: per-shard FIFO of (msg_id, target_leaf) awaiting admission.
        self.queues: "list[deque]" = [deque() for _ in range(n_shards)]
        self.stats = AdmissionStats()

    def queue_depth(self, shard_id: int) -> int:
        """Arrivals currently waiting in front of ``shard_id``."""
        return len(self.queues[shard_id])

    def total_queued(self) -> int:
        """Arrivals waiting in front of any shard."""
        return sum(len(q) for q in self.queues)

    def clear_shard(self, shard_id: int) -> "list[tuple[int, int]]":
        """Empty a shard's queue; returns the dropped items in FIFO order.

        The caller owns the accounting for whatever it does with them
        (shed them, reload them elsewhere) — this only empties the lane.
        """
        q = self.queues[shard_id]
        dropped = list(q)
        q.clear()
        return dropped

    def load_queue(
        self, shard_id: int, items: "list[tuple[int, int]]"
    ) -> None:
        """Replace a shard's queue wholesale (worker restore path).

        Unbounded on purpose: the items are a snapshot of a queue that
        already respected the bound when it was captured.
        """
        q = self.queues[shard_id]
        q.clear()
        q.extend((int(m), int(leaf)) for m, leaf in items)
        if len(q) > self.stats.max_queue_depth:
            self.stats.max_queue_depth = len(q)

    def load_requeue(
        self, shard_id: int, items: "list[tuple[int, int]]"
    ) -> None:
        """Append already-admissible items unbounded (worker requeue path:
        the parent applied the room check before shipping them)."""
        q = self.queues[shard_id]
        q.extend((int(m), int(leaf)) for m, leaf in items)
        if len(q) > self.stats.max_queue_depth:
            self.stats.max_queue_depth = len(q)

    def note_external_shed(self, shard_id: int, msg_id: int) -> None:
        """A driver shed ``msg_id`` outside :meth:`offer` (abandoned or
        overflowing spill paths) after bumping ``stats`` itself.  No-op
        here; the tenant controller mirrors it into its per-tenant
        ledger."""

    # Buffer-residency hooks: no-ops here so drivers can call them
    # unconditionally; the tenant controller overrides them to enforce
    # per-tenant buffer quotas.
    def note_departed(self, msg_id: int) -> None:
        """``msg_id`` left its shard's buffers (completed)."""

    def reset_shard_residency(self, shard_id: int) -> None:
        """``shard_id``'s buffers were wiped."""

    def rebuild_residency(self, shard_id: int, msg_ids) -> None:
        """``shard_id`` was restored with these messages buffered."""

    def offer(
        self, shard_id: int, msg_id: int, target_leaf: int
    ) -> bool:
        """Enqueue one arrival; returns False (shed) when the queue is full."""
        self.stats.offered += 1
        q = self.queues[shard_id]
        if len(q) >= self.max_queue:
            self.stats.shed += 1
            by = self.stats.shed_by_shard
            by[shard_id] = by.get(shard_id, 0) + 1
            obs = current_obs()  # rare event: look up at the site
            if obs.enabled:
                shed = obs.metrics.counter(
                    "serve_shed_total", "arrivals shed by admission"
                )
                shed.inc()
                shed.labels(shard=shard_id).inc()
            return False
        q.append((msg_id, target_leaf))
        if len(q) > self.stats.max_queue_depth:
            self.stats.max_queue_depth = len(q)
        return True

    def requeue(
        self, shard_id: int, items: "list[tuple[int, int]]"
    ) -> int:
        """Re-enqueue spilled ``(msg_id, target_leaf)`` pairs after recovery.

        Used by the supervisor when a shard leaves quarantine: arrivals
        that were parked in the spill queue while the breaker was open go
        back in front of admission.  They were already counted in
        ``stats.offered`` at arrival, so this does *not* re-offer them;
        it only appends up to the queue bound and returns how many fit.
        The caller sheds the remainder (and counts that shedding itself).
        """
        q = self.queues[shard_id]
        accepted = 0
        for msg_id, leaf in items:
            if len(q) >= self.max_queue:
                break
            q.append((msg_id, leaf))
            accepted += 1
        if len(q) > self.stats.max_queue_depth:
            self.stats.max_queue_depth = len(q)
        return accepted

    def handoff(
        self, to_shard: int, items: "list[tuple[int, int]]"
    ) -> int:
        """Hand diverted ``(msg_id, target_leaf)`` pairs to ``to_shard``.

        Same bounded-append discipline as :meth:`requeue` (the messages
        were already offered once at arrival), but counted separately so
        reports can distinguish a recovery requeue from a breaker-open
        handoff.  Returns how many fit; the caller sheds the rest.
        """
        accepted = self.requeue(to_shard, items)
        self.stats.handoff_in += accepted
        self.stats.handoff_overflow += len(items) - accepted
        return accepted

    def _stall_hold(self, shard_id: int) -> None:
        """Count one drain step held because the shard root is stalled."""
        self.stats.stall_holds += 1
        obs = current_obs()  # rare event: look up at the site
        if obs.enabled:
            holds = obs.metrics.counter(
                "serve_stall_holds_total",
                "drain steps held for a stalled shard root",
            )
            holds.inc()
            holds.labels(shard=shard_id).inc()

    def drain(
        self, shard_id: int, engine: ShardEngine, step: int
    ) -> "list[tuple[int, int, int | None]]":
        """Admit queued arrivals while the shard root has headroom.

        Returns ``(msg_id, target_leaf, completed_step_or_None)`` tuples
        for everything admitted this step (the completion slot is for
        degenerate single-node shards, where admission *is* completion).
        """
        q = self.queues[shard_id]
        admitted: "list[tuple[int, int, int | None]]" = []
        if q and engine.root_stalled(step):
            self._stall_hold(shard_id)
        else:
            while q and engine.root_backlog < self.max_root_backlog:
                msg_id, leaf = q.popleft()
                done = engine.admit(msg_id, leaf, step)
                admitted.append((msg_id, leaf, done))
                self.stats.admitted += 1
        self.stats.queue_wait_steps += len(q)
        return admitted
