"""Admission control: bounded lanes, weighted-fair draining, load shedding.

The WORMS model gives the root an unbounded backlog; a real service does
not.  :class:`AdmissionController` bounds, per shard, (1) how many
admitted messages may sit at the root awaiting their first flush
(``max_root_backlog``) and (2) how many arrivals may queue in front of
admission (``max_queue``).  Arrivals beyond both bounds are **shed** —
counted, reported, and surfaced to closed-loop arrival processes, never
silently dropped.

Each shard's queue is split into one FIFO *lane* per tenant, drained at
the start of every step by deficit round robin (DRR): every round each
backlogged lane's deficit grows by its weight, and it admits one message
per unit of deficit.  Over any backlogged interval tenants therefore
share root-buffer bandwidth in proportion to their weights, independent
of offered load.  A run without tenants has one lane — weight 1, no SLO
door, no quota, and FIFO's bound of ``max_queue`` — so it drains in
plain FIFO order.

Three further policies hang off the lanes when tenants are configured:

* **per-tenant shed bounds** — a tenant's *fresh* arrivals are bounded
  to its weight-proportional share of ``max_queue`` (at least 1), so a
  hot tenant fills (and sheds from) its own lane while light tenants
  keep headroom.  Requeue/handoff traffic (already offered once) uses
  the global bound with prefix-accept.
* **SLO doors** — the serving loop closes a tenant's door while its SLO
  breaker is open; offers shed at the door, counted per tenant.
* **buffer quotas** — à la Marchal/Sinnen/Vivien, a tenant with
  ``buffer_quota > 0`` may keep at most that many messages resident in
  any one shard's internal-node buffers.  Draining holds the lane
  (without shedding) while its quota is saturated and resumes as
  completions call :meth:`AdmissionController.note_departed` — makespan
  traded for a hard peak-memory bound.

Draining also consults
:meth:`~repro.policies.engine.ShardEngine.root_stalled`, so backpressure
composes with fault-aware triage: while a shard's ingest node sits in an
observed stall window every lane holds (messages wait at the door rather
than piling into a frozen root and then competing with recovery traffic
for IO slots).

Conservation is exact and per-tenant: every offer increments
``stats.offered`` exactly once, every shed is counted against the
shedding tenant, and re-admission paths never re-offer.
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
    """Per-shard, per-tenant bounded lanes in front of the shard roots.

    ``specs`` are the run's :class:`~repro.serve.tenancy.spec.TenantSpec`
    tuple (empty or ``None``: one lane).  ``tenant_of`` is the live
    ``gid -> tenant index`` mapping (shared with
    :class:`~repro.serve.tenancy.mix.TenantMix` or fed over the procpool
    pipe); messages missing from it — none in practice — fall into
    lane 0.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        max_root_backlog: int,
        max_queue: int,
        specs=None,
        tenant_of: "dict[int, int] | None" = None,
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
        self.specs = tuple(specs or ())
        if self.specs:
            self.tenant_of = tenant_of if tenant_of is not None else {}
            weights = [t.weight for t in self.specs]
            total_w, min_w = sum(weights), min(weights)
            #: cap on a lane's *fresh* backlog per shard (weight share).
            self.lane_bound = [
                max(1, int(self.max_queue * w / total_w)) for w in weights
            ]
            #: DRR quantum per round, normalized so the lightest
            #: backlogged lane accrues exactly 1.0 credit per round
            #: (ratios — and so the fairness guarantee — are unchanged;
            #: rounds never stall).
            self._quantum = [w / min_w for w in weights]
            self._quota = [t.buffer_quota for t in self.specs]
        else:
            self.tenant_of = {}
            self.lane_bound = [self.max_queue]
            self._quantum = [1.0]
            self._quota = [0]
        n = len(self.lane_bound)
        #: one lane and no quota: every drain is a lone-lane slice.
        self._one_lane = n == 1 and not self._quota[0]
        #: per-shard, per-lane FIFOs of (msg_id, target_leaf).
        self.lanes: "list[list[deque]]" = [
            [deque() for _ in range(n)] for _ in range(n_shards)
        ]
        #: per-shard queued count (the sum of the shard's lane lengths).
        self._depth = [0] * n_shards
        #: DRR deficit counters, same shape as ``lanes``.
        self._deficit: "list[list[float]]" = [
            [0.0] * n for _ in range(n_shards)
        ]
        self.door_closed = set()
        #: per-tenant sheds (door + bound), mirrors stats.shed_by_shard.
        self.shed_by_tenant: dict[int, int] = {}
        #: admitted-but-not-departed gids -> (shard, lane), for lanes
        #: with a buffer quota only; quota state.
        self._resident: dict[int, tuple[int, int]] = {}
        self._res_count: "list[list[int]]" = [
            [0] * n for _ in range(n_shards)
        ]
        self.stats = AdmissionStats()

    @property
    def door_closed(self) -> "set[int]":
        """Tenants whose SLO breaker is open: their offers shed at the
        door.  Assigning it sets a closed tenant's fresh-arrival bound
        to 0, so :meth:`offer` makes one bound check."""
        return self._door

    @door_closed.setter
    def door_closed(self, tenants) -> None:
        self._door = set(tenants)
        self._open_bound = [0 if t in self._door else bound
                            for t, bound in enumerate(self.lane_bound)]

    # -- bookkeeping helpers -------------------------------------------

    def _count_shed(self, shard_id: int, tenant: int) -> None:
        self.stats.shed += 1
        by = self.stats.shed_by_shard
        by[shard_id] = by.get(shard_id, 0) + 1
        self.shed_by_tenant[tenant] = self.shed_by_tenant.get(tenant, 0) + 1
        obs = current_obs()  # rare event: look up at the site
        if obs.enabled:
            shed = obs.metrics.counter(
                "serve_shed_total", "arrivals shed by admission"
            )
            shed.inc()
            shed.labels(shard=shard_id).inc()
            if self.specs:
                shed.labels(tenant=self.specs[tenant].name).inc()

    def _note_depth(self, shard_id: int) -> None:
        depth = self._depth[shard_id]
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth

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

    # -- depth / residency interface -----------------------------------

    def queue_depth(self, shard_id: int) -> int:
        """Arrivals currently waiting in front of ``shard_id``."""
        return self._depth[shard_id]

    def note_external_shed(self, shard_id: int, msg_id: int) -> None:
        """A driver shed ``msg_id`` outside :meth:`offer` (abandoned or
        overflowing spill paths) after bumping ``stats`` itself; mirror
        it into the per-tenant ledger."""
        tenant = self.tenant_of.get(msg_id, 0)
        self.shed_by_tenant[tenant] = self.shed_by_tenant.get(tenant, 0) + 1

    def note_departed(self, msg_id: int) -> None:
        """``msg_id`` left its shard's buffers (completed): free quota."""
        if self._resident:
            loc = self._resident.pop(msg_id, None)
            if loc is not None:
                sid, tid = loc
                self._res_count[sid][tid] -= 1

    def reset_shard_residency(self, shard_id: int) -> None:
        """Forget residency for a wiped shard (restart/abandon path)."""
        self._res_count[shard_id] = [0] * len(self.lane_bound)
        if self._resident:
            self._resident = {
                gid: loc for gid, loc in self._resident.items()
                if loc[0] != shard_id
            }

    def rebuild_residency(self, shard_id: int, msg_ids) -> None:
        """Re-register buffered survivors after a restart restored them."""
        self.reset_shard_residency(shard_id)
        if not any(self._quota):
            return
        for gid in msg_ids:
            tid = self.tenant_of.get(gid, 0)
            if self._quota[tid] > 0:
                self._resident[int(gid)] = (shard_id, tid)
                self._res_count[shard_id][tid] += 1

    # -- ways into a lane -----------------------------------------------

    def offer(self, shard_id: int, msg_id: int, target_leaf: int) -> bool:
        """Enqueue one fresh arrival; returns False (shed) when its lane
        is full or its tenant's door is closed."""
        stats = self.stats
        stats.offered += 1
        tenant = self.tenant_of.get(msg_id, 0) if self.specs else 0
        q = self.lanes[shard_id][tenant]
        if len(q) >= self._open_bound[tenant]:
            self._count_shed(shard_id, tenant)
            return False
        q.append((msg_id, target_leaf))
        depth = self._depth[shard_id] + 1
        self._depth[shard_id] = depth
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        return True

    def requeue(
        self, shard_id: int, items: "list[tuple[int, int]]"
    ) -> int:
        """Re-enqueue spilled ``(msg_id, target_leaf)`` pairs after recovery.

        Used by the supervisor when a shard leaves quarantine: arrivals
        that were parked in the spill queue while the breaker was open go
        back in front of admission, into their owning tenants' lanes.
        They were already counted in ``stats.offered`` at arrival, so
        this does *not* re-offer them; it accepts a prefix up to the
        *global* ``max_queue`` (the per-tenant fresh-arrival bound does
        not re-apply) and returns how many fit.  The caller sheds the
        remainder (and counts that shedding itself).
        """
        lanes = self.lanes[shard_id]
        room = self.max_queue - self._depth[shard_id]
        accepted = 0
        for msg_id, leaf in items:
            if accepted >= room:
                break
            lanes[self.tenant_of.get(msg_id, 0)].append((msg_id, leaf))
            accepted += 1
        self._depth[shard_id] += accepted
        self._note_depth(shard_id)
        return accepted

    def handoff(
        self, to_shard: int, items: "list[tuple[int, int]]"
    ) -> int:
        """Hand diverted ``(msg_id, target_leaf)`` pairs to ``to_shard``.

        Same bounded prefix-accept as :meth:`requeue` (the messages were
        already offered once at arrival), but counted separately so
        reports can distinguish a recovery requeue from a breaker-open
        handoff.  Returns how many fit; the caller sheds the rest.
        """
        accepted = self.requeue(to_shard, items)
        self.stats.handoff_in += accepted
        self.stats.handoff_overflow += len(items) - accepted
        return accepted

    def load_requeue(
        self, shard_id: int, items: "list[tuple[int, int]]"
    ) -> None:
        """Append already-admissible items unbounded (worker requeue path:
        the parent applied the room check before shipping them)."""
        lanes = self.lanes[shard_id]
        for m, leaf in items:
            lanes[self.tenant_of.get(m, 0)].append((int(m), int(leaf)))
        self._depth[shard_id] += len(items)
        self._note_depth(shard_id)

    def load_queue(
        self, shard_id: int, items: "list[tuple[int, int]]"
    ) -> None:
        """Replace a shard's lanes wholesale (worker restore path).

        Unbounded on purpose: the items are a snapshot of a queue that
        already respected the bound when it was captured.
        """
        self.clear_shard(shard_id)
        self.load_requeue(shard_id, items)

    # -- ways out of a lane other than draining -------------------------

    def clear_shard(self, shard_id: int) -> "list[tuple[int, int]]":
        """Empty every lane of a shard; returns the dropped items in
        drain order (tenant-major FIFO).

        The caller owns the accounting for whatever it does with them
        (shed them, reload them elsewhere) — this only empties the lanes.
        """
        dropped: "list[tuple[int, int]]" = []
        for q in self.lanes[shard_id]:
            dropped.extend(q)
            q.clear()
        self._depth[shard_id] = 0
        self._deficit[shard_id] = [0.0] * len(self.lane_bound)
        return dropped

    def purge_tenant_shard(self, shard_id: int, tenant: int) -> "list[int]":
        """SLO enforcement: shed everything the tenant has queued at one
        shard.  Returns the shed gids; sheds are counted here, the caller
        reports them to metrics/arrival feedback."""
        q = self.lanes[shard_id][tenant]
        gids = [msg_id for msg_id, _leaf in q]
        q.clear()
        self._depth[shard_id] -= len(gids)
        self._deficit[shard_id][tenant] = 0.0
        for _ in gids:
            self._count_shed(shard_id, tenant)
        return gids

    def purge_tenant(self, tenant: int) -> "list[tuple[int, int]]":
        """Purge the tenant's lanes at every shard; ``(shard, gid)`` list."""
        out: "list[tuple[int, int]]" = []
        for sid in range(len(self.lanes)):
            out.extend((sid, gid)
                       for gid in self.purge_tenant_shard(sid, tenant))
        return out

    # -- drain -----------------------------------------------------------

    def _admit_one(self, shard_id: int, tenant: int, engine, step: int,
                   admitted) -> None:
        msg_id, leaf = self.lanes[shard_id][tenant].popleft()
        done = engine.admit(msg_id, leaf, step)
        admitted.append((msg_id, leaf, done))
        self.stats.admitted += 1
        self._depth[shard_id] -= 1
        if done is None and self._quota[tenant] > 0:  # still buffered
            self._resident[msg_id] = (shard_id, tenant)
            self._res_count[shard_id][tenant] += 1

    def _quota_open(self, shard_id: int, tenant: int) -> bool:
        quota = self._quota[tenant]
        return quota <= 0 or self._res_count[shard_id][tenant] < quota

    def drain(
        self, shard_id: int, engine: ShardEngine, step: int
    ) -> "list[tuple[int, int, int | None]]":
        """DRR-admit queued arrivals while the shard root has headroom.

        Returns ``(msg_id, target_leaf, completed_step_or_None)`` tuples
        for everything admitted this step (the completion slot is for
        degenerate single-node shards, where admission *is* completion).

        Round one resets every idle lane's deficit (no backlog, no credit
        carry) and draining adds to no lane, so when exactly one lane is
        backlogged with quantum ``1.0`` and deficit ``0.0`` the rounds
        would each admit one of its messages and leave the deficit at
        exactly ``0.0``: that lane's run is admitted in one slice.  A
        one-lane controller without a quota is always in that case.
        """
        admitted: "list[tuple[int, int, int | None]]" = []
        depth = self._depth[shard_id]
        cap = self.max_root_backlog
        if depth and engine.root_stalled(step):
            self._stall_hold(shard_id)
        elif self._one_lane:
            q = self.lanes[shard_id][0]
            admit = engine.admit
            while q and engine.root_backlog < cap:
                msg_id, leaf = q.popleft()
                admitted.append((msg_id, leaf, admit(msg_id, leaf, step)))
            self.stats.admitted += len(admitted)
            self._depth[shard_id] = depth - len(admitted)
        elif engine.root_backlog < cap:
            lone = self._lone_lane(shard_id, depth)
            if lone < 0:
                self._drain_rounds(shard_id, engine, step, admitted)
            else:
                lane = self.lanes[shard_id][lone]
                while (lane and engine.root_backlog < cap
                       and self._quota_open(shard_id, lone)):
                    self._admit_one(shard_id, lone, engine, step, admitted)
        self.stats.queue_wait_steps += self._depth[shard_id]
        return admitted

    def _lone_lane(self, shard_id: int, depth: int) -> int:
        """Reset idle lanes' deficits, as round one would; return the
        lone backlogged lane if it can be sliced, else -1."""
        deficit = self._deficit[shard_id]
        lone = -1
        for tid, q in enumerate(self.lanes[shard_id]):
            if not q:
                deficit[tid] = 0.0
            elif (len(q) == depth and deficit[tid] == 0.0
                  and self._quantum[tid] == 1.0):
                lone = tid
        return lone

    def _drain_rounds(self, shard_id: int, engine, step: int,
                      admitted) -> None:
        """Round-by-round DRR over the shard's lanes."""
        lanes = self.lanes[shard_id]
        deficit = self._deficit[shard_id]
        cap = self.max_root_backlog
        while engine.root_backlog < cap:
            progressed = False
            for tid, q in enumerate(lanes):
                if not q:
                    deficit[tid] = 0.0  # no backlog, no credit carry
                    continue
                deficit[tid] += self._quantum[tid]
                while (
                    q
                    and deficit[tid] >= 1.0
                    and engine.root_backlog < cap
                ):
                    if not self._quota_open(shard_id, tid):
                        # Quota saturated: hold (not shed), and drop
                        # banked credit so the tenant cannot burst past
                        # its quota the moment space frees up.
                        deficit[tid] = 0.0
                        break
                    self._admit_one(shard_id, tid, engine, step, admitted)
                    deficit[tid] -= 1.0
                    progressed = True
            if not progressed:
                break
