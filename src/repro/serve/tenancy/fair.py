"""Weighted-fair admission: deficit round-robin over per-tenant queues.

:class:`TenantAdmissionController` replaces the single FIFO in front of
each shard root with one FIFO *per tenant*, drained by deficit round
robin (DRR): every round each backlogged tenant's deficit grows by its
weight, and it admits one message per unit of deficit.  Over any
backlogged interval tenants therefore share root-buffer bandwidth in
proportion to their weights, independent of offered load — the classic
fair-queueing guarantee, here applied at the admission/planner boundary
of a write-optimized tree.

Three further policies hang off the same queues:

* **per-tenant shed bounds** — a tenant's *fresh* arrivals are bounded to
  its weight-proportional share of ``max_queue``, so a hot tenant fills
  (and sheds from) its own lane while light tenants keep headroom.
  Requeue/handoff traffic (already offered once) uses the global bound,
  preserving the base controller's prefix-accept contract.
* **SLO doors** — the serving loop closes a tenant's door while its SLO
  breaker is open; offers shed at the door, counted per tenant.
* **buffer quotas** — à la Marchal/Sinnen/Vivien, a tenant with
  ``buffer_quota > 0`` may keep at most that many messages resident in
  any one shard's internal-node buffers.  Draining holds the tenant's
  queue (without shedding) while its quota is saturated and resumes as
  completions call :meth:`note_departed` — makespan traded for a hard
  peak-memory bound.

Conservation is exact and per-tenant: every offer increments ``offered``
exactly once, every shed is counted against the shedding tenant, and
re-admission paths never re-offer.
"""

from __future__ import annotations

from collections import deque

from repro.obs.hooks import current_obs
from repro.serve.admission import AdmissionController


class TenantAdmissionController(AdmissionController):
    """Per-shard, per-tenant bounded queues with DRR draining.

    ``tenant_of`` is the live ``gid -> tenant index`` mapping (shared
    with :class:`~repro.serve.tenancy.mix.TenantMix` or fed over the
    procpool pipe); messages missing from it — none in practice — fall
    into tenant 0.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        max_root_backlog: int,
        max_queue: int,
        specs,
        tenant_of: "dict[int, int]",
    ) -> None:
        super().__init__(
            n_shards,
            max_root_backlog=max_root_backlog,
            max_queue=max_queue,
        )
        self.specs = tuple(specs)
        self.tenant_of = tenant_of
        n = len(self.specs)
        total_w = sum(t.weight for t in self.specs)
        min_w = min(t.weight for t in self.specs)
        #: cap on a tenant's *fresh* backlog per shard (weight share).
        self.tenant_bound = [
            max(1, int(self.max_queue * t.weight / total_w))
            for t in self.specs
        ]
        #: DRR quantum per round, normalized so the lightest backlogged
        #: tenant accrues exactly 1.0 credit per round (ratios — and so
        #: the fairness guarantee — are unchanged; rounds never stall).
        self._quantum = [t.weight / min_w for t in self.specs]
        #: per-shard, per-tenant FIFOs of (msg_id, target_leaf).
        self.tqueues: "list[list[deque]]" = [
            [deque() for _ in range(n)] for _ in range(n_shards)
        ]
        #: DRR deficit counters, same shape as tqueues.
        self._deficit: "list[list[float]]" = [
            [0.0] * n for _ in range(n_shards)
        ]
        #: tenants whose SLO breaker is open (offers shed at the door).
        self.door_closed: set[int] = set()
        #: per-tenant sheds (door + bound), mirrors stats.shed_by_shard.
        self.shed_by_tenant: dict[int, int] = {}
        #: admitted-but-not-departed gids -> (shard, tenant); quota state.
        self._resident: dict[int, tuple[int, int]] = {}
        self._res_count: "list[list[int]]" = [
            [0] * n for _ in range(n_shards)
        ]

    # -- bookkeeping helpers -------------------------------------------

    def _tenant(self, msg_id: int) -> int:
        return self.tenant_of.get(msg_id, 0)

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
            shed.labels(tenant=self.specs[tenant].name).inc()

    def _note_depth(self, shard_id: int) -> None:
        depth = self.queue_depth(shard_id)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth

    # -- depth / residency interface -----------------------------------

    def queue_depth(self, shard_id: int) -> int:
        return sum(len(q) for q in self.tqueues[shard_id])

    def total_queued(self) -> int:
        return sum(
            len(q) for shard in self.tqueues for q in shard
        )

    def note_departed(self, msg_id: int) -> None:
        """A message left its shard's buffers (completed): free quota."""
        loc = self._resident.pop(msg_id, None)
        if loc is not None:
            sid, tid = loc
            self._res_count[sid][tid] -= 1

    def reset_shard_residency(self, shard_id: int) -> None:
        """Forget residency for a wiped shard (restart/abandon path)."""
        n = len(self.specs)
        self._res_count[shard_id] = [0] * n
        self._resident = {
            gid: loc for gid, loc in self._resident.items()
            if loc[0] != shard_id
        }

    def rebuild_residency(self, shard_id: int, msg_ids) -> None:
        """Re-register buffered survivors after a restart restored them."""
        self.reset_shard_residency(shard_id)
        for gid in msg_ids:
            tid = self._tenant(gid)
            self._resident[int(gid)] = (shard_id, tid)
            self._res_count[shard_id][tid] += 1

    def _admit_one(self, shard_id: int, tenant: int, engine, step: int,
                   admitted) -> None:
        msg_id, leaf = self.tqueues[shard_id][tenant].popleft()
        done = engine.admit(msg_id, leaf, step)
        admitted.append((msg_id, leaf, done))
        self.stats.admitted += 1
        if done is None:  # still buffered inside the shard
            self._resident[msg_id] = (shard_id, tenant)
            self._res_count[shard_id][tenant] += 1

    def _quota_open(self, shard_id: int, tenant: int) -> bool:
        quota = self.specs[tenant].buffer_quota
        return quota <= 0 or self._res_count[shard_id][tenant] < quota

    def note_external_shed(self, shard_id: int, msg_id: int) -> None:
        tenant = self._tenant(msg_id)
        self.shed_by_tenant[tenant] = self.shed_by_tenant.get(tenant, 0) + 1

    # -- offer / requeue / drain ---------------------------------------

    def offer(self, shard_id: int, msg_id: int, target_leaf: int) -> bool:
        self.stats.offered += 1
        tenant = self._tenant(msg_id)
        q = self.tqueues[shard_id][tenant]
        if tenant in self.door_closed or len(q) >= self.tenant_bound[tenant]:
            self._count_shed(shard_id, tenant)
            return False
        q.append((msg_id, target_leaf))
        self._note_depth(shard_id)
        return True

    def requeue(self, shard_id: int, items) -> int:
        """Prefix-accept re-admission into the owning tenants' queues.

        Bounded by the *global* ``max_queue`` (these messages were
        already offered and admitted to a queue once; the per-tenant
        fresh-arrival bound does not re-apply).  Same contract as the
        base class: returns how many fit, caller sheds the rest.
        """
        accepted = 0
        for msg_id, leaf in items:
            if self.queue_depth(shard_id) >= self.max_queue:
                break
            self.tqueues[shard_id][self._tenant(msg_id)].append(
                (msg_id, leaf)
            )
            accepted += 1
        self._note_depth(shard_id)
        return accepted

    def load_requeue(self, shard_id: int, items) -> None:
        for msg_id, leaf in items:
            self.tqueues[shard_id][self._tenant(msg_id)].append(
                (msg_id, leaf)
            )
        self._note_depth(shard_id)

    def load_queue(self, shard_id: int, items) -> None:
        self.clear_shard(shard_id)
        self.load_requeue(shard_id, items)

    def clear_shard(self, shard_id: int) -> "list[tuple[int, int]]":
        """Empty every tenant queue of a shard; returns what was dropped
        in drain order (tenant-major FIFO)."""
        dropped: "list[tuple[int, int]]" = []
        for q in self.tqueues[shard_id]:
            dropped.extend(q)
            q.clear()
        for tid in range(len(self.specs)):
            self._deficit[shard_id][tid] = 0.0
        return dropped

    def purge_tenant_shard(self, shard_id: int, tenant: int) -> "list[int]":
        """SLO enforcement: shed everything the tenant has queued at one
        shard.  Returns the shed gids; sheds are counted here, the caller
        reports them to metrics/arrival feedback."""
        q = self.tqueues[shard_id][tenant]
        gids = [msg_id for msg_id, _leaf in q]
        q.clear()
        self._deficit[shard_id][tenant] = 0.0
        for _ in gids:
            self._count_shed(shard_id, tenant)
        return gids

    def purge_tenant(self, tenant: int) -> "list[tuple[int, int]]":
        """Purge the tenant's queues at every shard; ``(shard, gid)`` list."""
        out: "list[tuple[int, int]]" = []
        for sid in range(len(self.tqueues)):
            out.extend((sid, gid)
                       for gid in self.purge_tenant_shard(sid, tenant))
        return out

    def drain(self, shard_id: int, engine, step: int):
        """DRR-admit queued arrivals while the shard root has headroom."""
        admitted: "list[tuple[int, int, int | None]]" = []
        queues = self.tqueues[shard_id]
        deficit = self._deficit[shard_id]
        if any(queues) and engine.root_stalled(step):
            self._stall_hold(shard_id)
        else:
            while engine.root_backlog < self.max_root_backlog:
                progressed = False
                for tid in range(len(self.specs)):
                    q = queues[tid]
                    if not q:
                        deficit[tid] = 0.0  # no backlog, no credit carry
                        continue
                    deficit[tid] += self._quantum[tid]
                    while (
                        q
                        and deficit[tid] >= 1.0
                        and engine.root_backlog < self.max_root_backlog
                    ):
                        if not self._quota_open(shard_id, tid):
                            # Quota saturated: hold (not shed), and drop
                            # banked credit so the tenant cannot burst
                            # past its quota the moment space frees up.
                            deficit[tid] = 0.0
                            break
                        self._admit_one(shard_id, tid, engine, step,
                                        admitted)
                        deficit[tid] -= 1.0
                        progressed = True
                if not progressed:
                    break
        self.stats.queue_wait_steps += self.queue_depth(shard_id)
        return admitted
