"""Differential test: the admission controller against two references.

:class:`AdmissionController` is one class for every run: a run without
tenants gets one lane, a multi-tenant run one lane per tenant.  Its
drain admits a lone backlogged lane's run in one slice and keeps a
per-shard queued count instead of summing lanes.  These tests pin that
none of that changes a decision, by running random operation sequences
against the controller and a compact reference side by side:

* :class:`FifoReference` — one deque per shard, drained in FIFO order,
  bounded at ``max_queue`` (what a run without tenants must do);
* :class:`DrrReference` — one deque per (shard, tenant), drained by
  round-by-round deficit round robin with per-tenant fresh bounds,
  doors, quota holds and deficit resets.

After every operation the admitted lists, return values, stats, queue
contents, deficits and quota residency must be identical.  Lane weights
include non-integer ratios (1:1.5, 1:1.5:2.25), so float drift between
the slice and the rounds would show.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.admission import AdmissionController, AdmissionStats
from repro.serve.tenancy.spec import TenantSpec


class FakeEngine:
    """A shard root: admitting to leaf 0 completes at once (the root is
    the target); any other leaf adds one to the root backlog."""

    def __init__(self) -> None:
        self.root_backlog = 0
        self.stalled = False

    def root_stalled(self, step: int) -> bool:
        return self.stalled

    def admit(self, msg_id: int, leaf: int, step: int):
        if leaf == 0:
            return step
        self.root_backlog += 1
        return None


class FifoReference:
    """One bounded deque per shard, drained in FIFO order."""

    def __init__(self, n_shards, *, max_root_backlog, max_queue):
        self.max_root_backlog = max_root_backlog
        self.max_queue = max_queue
        self.queues = [deque() for _ in range(n_shards)]
        self.stats = AdmissionStats()

    def _note_depth(self, sid):
        self.stats.max_queue_depth = max(self.stats.max_queue_depth,
                                         len(self.queues[sid]))

    def offer(self, sid, gid, leaf):
        self.stats.offered += 1
        if len(self.queues[sid]) >= self.max_queue:
            self.stats.shed += 1
            by = self.stats.shed_by_shard
            by[sid] = by.get(sid, 0) + 1
            return False
        self.queues[sid].append((gid, leaf))
        self._note_depth(sid)
        return True

    def requeue(self, sid, items):
        accepted = 0
        for item in items:
            if len(self.queues[sid]) >= self.max_queue:
                break
            self.queues[sid].append(item)
            accepted += 1
        self._note_depth(sid)
        return accepted

    def handoff(self, sid, items):
        accepted = self.requeue(sid, items)
        self.stats.handoff_in += accepted
        self.stats.handoff_overflow += len(items) - accepted
        return accepted

    def load_requeue(self, sid, items):
        self.queues[sid].extend(items)
        self._note_depth(sid)

    def clear_shard(self, sid):
        dropped = list(self.queues[sid])
        self.queues[sid].clear()
        return dropped

    def drain(self, sid, engine, step):
        q = self.queues[sid]
        admitted = []
        if q and engine.root_stalled(step):
            self.stats.stall_holds += 1
        else:
            while q and engine.root_backlog < self.max_root_backlog:
                gid, leaf = q.popleft()
                admitted.append((gid, leaf, engine.admit(gid, leaf, step)))
                self.stats.admitted += 1
        self.stats.queue_wait_steps += len(q)
        return admitted

    def lanes_of(self, sid):
        return [list(self.queues[sid])]


class DrrReference:
    """Per-tenant deques drained one DRR round at a time."""

    def __init__(self, n_shards, *, max_root_backlog, max_queue, specs,
                 tenant_of):
        self.max_root_backlog = max_root_backlog
        self.max_queue = max_queue
        self.specs = specs
        self.tenant_of = tenant_of
        n = len(specs)
        total_w = sum(t.weight for t in specs)
        min_w = min(t.weight for t in specs)
        self.bound = [max(1, int(max_queue * t.weight / total_w))
                      for t in specs]
        self.quantum = [t.weight / min_w for t in specs]
        self.queues = [[deque() for _ in range(n)] for _ in range(n_shards)]
        self.deficit = [[0.0] * n for _ in range(n_shards)]
        self.door_closed = set()
        self.shed_by_tenant = {}
        self.resident = {}
        self.res_count = [[0] * n for _ in range(n_shards)]
        self.stats = AdmissionStats()

    def _depth(self, sid):
        return sum(len(q) for q in self.queues[sid])

    def _note_depth(self, sid):
        self.stats.max_queue_depth = max(self.stats.max_queue_depth,
                                         self._depth(sid))

    def _shed(self, sid, tid):
        self.stats.shed += 1
        by = self.stats.shed_by_shard
        by[sid] = by.get(sid, 0) + 1
        self.shed_by_tenant[tid] = self.shed_by_tenant.get(tid, 0) + 1

    def offer(self, sid, gid, leaf):
        self.stats.offered += 1
        tid = self.tenant_of.get(gid, 0)
        q = self.queues[sid][tid]
        if tid in self.door_closed or len(q) >= self.bound[tid]:
            self._shed(sid, tid)
            return False
        q.append((gid, leaf))
        self._note_depth(sid)
        return True

    def requeue(self, sid, items):
        accepted = 0
        for gid, leaf in items:
            if self._depth(sid) >= self.max_queue:
                break
            self.queues[sid][self.tenant_of.get(gid, 0)].append((gid, leaf))
            accepted += 1
        self._note_depth(sid)
        return accepted

    def handoff(self, sid, items):
        accepted = self.requeue(sid, items)
        self.stats.handoff_in += accepted
        self.stats.handoff_overflow += len(items) - accepted
        return accepted

    def load_requeue(self, sid, items):
        for gid, leaf in items:
            self.queues[sid][self.tenant_of.get(gid, 0)].append((gid, leaf))
        self._note_depth(sid)

    def clear_shard(self, sid):
        dropped = []
        for q in self.queues[sid]:
            dropped.extend(q)
            q.clear()
        self.deficit[sid] = [0.0] * len(self.specs)
        return dropped

    def purge_tenant_shard(self, sid, tid):
        gids = [gid for gid, _leaf in self.queues[sid][tid]]
        self.queues[sid][tid].clear()
        self.deficit[sid][tid] = 0.0
        for _ in gids:
            self._shed(sid, tid)
        return gids

    def note_departed(self, gid):
        loc = self.resident.pop(gid, None)
        if loc is not None:
            self.res_count[loc[0]][loc[1]] -= 1

    def drain(self, sid, engine, step):
        admitted = []
        queues, deficit = self.queues[sid], self.deficit[sid]
        if any(queues) and engine.root_stalled(step):
            self.stats.stall_holds += 1
        else:
            while engine.root_backlog < self.max_root_backlog:
                progressed = False
                for tid, q in enumerate(queues):
                    if not q:
                        deficit[tid] = 0.0
                        continue
                    deficit[tid] += self.quantum[tid]
                    while (q and deficit[tid] >= 1.0
                           and engine.root_backlog < self.max_root_backlog):
                        quota = self.specs[tid].buffer_quota
                        if quota > 0 and self.res_count[sid][tid] >= quota:
                            deficit[tid] = 0.0
                            break
                        gid, leaf = q.popleft()
                        done = engine.admit(gid, leaf, step)
                        admitted.append((gid, leaf, done))
                        self.stats.admitted += 1
                        if done is None:
                            self.resident[gid] = (sid, tid)
                            self.res_count[sid][tid] += 1
                        deficit[tid] -= 1.0
                        progressed = True
                if not progressed:
                    break
        self.stats.queue_wait_steps += self._depth(sid)
        return admitted

    def lanes_of(self, sid):
        return [list(q) for q in self.queues[sid]]


WEIGHTS = [(1.0,), (1.0, 1.0), (1.0, 1.5), (3.0, 1.0), (1.0, 1.5, 2.25)]

OPS = st.lists(
    st.tuples(st.integers(0, 10), st.integers(0, 63), st.integers(0, 63),
              st.integers(0, 63)),
    max_size=120,
)


def _run(ctrl, ref, ops, n_shards, n_lanes, tenant_of, tenants) -> None:
    """Apply ``ops`` to both sides; compare after every step."""
    engines = [FakeEngine() for _ in range(n_shards)]
    ref_engines = [FakeEngine() for _ in range(n_shards)]
    next_gid = 0
    resident: list[int] = []

    def fresh(tid_seed):
        nonlocal next_gid
        gid = next_gid
        next_gid += 1
        tenant_of[gid] = tid_seed % n_lanes
        return gid

    for step, (kind, a, b, c) in enumerate(ops, start=1):
        sid = a % n_shards
        if kind in (0, 1, 2):  # fresh arrivals: weight them toward offers
            gid = fresh(b)
            got = ctrl.offer(sid, gid, c % 3)
            assert got == ref.offer(sid, gid, c % 3)
        elif kind in (3, 4, 5):  # requeue / handoff / unbounded load
            items = [(fresh(b + i), (c + i) % 3) for i in range(b % 6)]
            if kind == 5:
                ctrl.load_requeue(sid, items)
                ref.load_requeue(sid, items)
            else:
                name = "requeue" if kind == 3 else "handoff"
                got = getattr(ctrl, name)(sid, items)
                assert got == getattr(ref, name)(sid, items)
        elif kind in (6, 7):  # drain with a random root backlog / stall
            for engine in (engines[sid], ref_engines[sid]):
                engine.root_backlog = b % (ctrl.max_root_backlog + 2)
                engine.stalled = c % 5 == 0
            got = ctrl.drain(sid, engines[sid], step)
            assert got == ref.drain(sid, ref_engines[sid], step)
            resident.extend(gid for gid, _leaf, done in got if done is None)
        elif kind == 8:
            assert ctrl.clear_shard(sid) == ref.clear_shard(sid)
        elif kind == 9 and tenants:
            tid = b % n_lanes
            if c % 2:
                assert (ctrl.purge_tenant_shard(sid, tid)
                        == ref.purge_tenant_shard(sid, tid))
            else:
                door = {t for t in range(n_lanes) if (c >> (t + 1)) & 1}
                ctrl.door_closed = set(door)
                ref.door_closed = set(door)
        elif kind == 10 and resident:  # a quota departure
            gid = resident.pop(b % len(resident))
            ctrl.note_departed(gid)
            if tenants:
                ref.note_departed(gid)
        assert asdict(ctrl.stats) == asdict(ref.stats)
        for s in range(n_shards):
            assert [list(q) for q in ctrl.lanes[s]] == ref.lanes_of(s)
            assert ctrl.queue_depth(s) == sum(map(len, ref.lanes_of(s)))
        if tenants:
            assert ctrl._deficit == ref.deficit
            assert ctrl.shed_by_tenant == ref.shed_by_tenant
            for s in range(n_shards):
                for tid, spec in enumerate(ref.specs):
                    if spec.buffer_quota > 0:
                        assert (ctrl._res_count[s][tid]
                                == ref.res_count[s][tid])
        else:
            assert ctrl._deficit == [[0.0]] * n_shards


@settings(max_examples=150, deadline=None)
@given(ops=OPS, n_shards=st.integers(1, 2), backlog=st.integers(1, 6),
       max_queue=st.integers(0, 12))
def test_one_lane_matches_fifo(ops, n_shards, backlog, max_queue):
    ctrl = AdmissionController(n_shards, max_root_backlog=backlog,
                               max_queue=max_queue)
    ref = FifoReference(n_shards, max_root_backlog=backlog,
                        max_queue=max_queue)
    _run(ctrl, ref, ops, n_shards, 1, {}, False)


def _check_drr(ops, n_shards, backlog, max_queue, weights, quotas):
    specs = tuple(
        TenantSpec(name=f"t{i}", weight=w, buffer_quota=q)
        for i, (w, q) in enumerate(zip(weights, quotas))
    )
    tenant_of: dict[int, int] = {}
    ctrl = AdmissionController(n_shards, max_root_backlog=backlog,
                               max_queue=max_queue, specs=specs,
                               tenant_of=tenant_of)
    ref = DrrReference(n_shards, max_root_backlog=backlog,
                       max_queue=max_queue, specs=specs, tenant_of=tenant_of)
    _run(ctrl, ref, ops, n_shards, len(specs), tenant_of, True)


@settings(max_examples=250, deadline=None)
@given(ops=OPS, n_shards=st.integers(1, 2), backlog=st.integers(1, 6),
       max_queue=st.integers(0, 12), weights=st.sampled_from(WEIGHTS),
       quotas=st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_tenant_lanes_match_round_by_round_drr(ops, n_shards, backlog,
                                               max_queue, weights, quotas):
    _check_drr(ops, n_shards, backlog, max_queue, weights, quotas)


def test_lone_slice_resets_idle_lane_credit():
    """Weights 3:1, root budget 2: the first drain empties the heavy
    lane with 2.0 credit banked when the root fills; the second drain
    slices the light lane alone and must drop that credit, as round
    one of the per-round drain does."""
    offers = [(0, 0, 0, 1), (0, 0, 1, 1), (0, 0, 1, 1)]
    drains = [(6, 0, 0, 1), (6, 0, 0, 1)]
    _check_drr(offers + drains, 1, 2, 12, (3.0, 1.0), (0, 0))
