"""Tests for admission control: backpressure, shedding, stall holds.

These run the controller with no tenants: one lane, drained in FIFO
order.  The per-tenant lanes are tested in ``test_tenancy.py`` and
both against a reference in ``test_admission_reference.py``.
"""

from __future__ import annotations

import pytest

from repro.serve.admission import AdmissionController
from repro.serve.router import ShardEngine
from repro.serve.tenancy.spec import TenantSpec
from repro.tree import balanced_tree
from repro.util.errors import InvalidInstanceError


def make_engine(P=2, B=8):
    topo = balanced_tree(2, 2)
    return ShardEngine(0, topo, P, B), topo


def test_queue_bound_sheds():
    ctrl = AdmissionController(1, max_root_backlog=4, max_queue=3)
    accepted = [ctrl.offer(0, gid, 3) for gid in range(5)]
    assert accepted == [True, True, True, False, False]
    assert ctrl.stats.shed == 2
    assert ctrl.stats.shed_by_shard == {0: 2}
    assert ctrl.queue_depth(0) == 3


def test_drain_respects_root_backlog():
    engine, topo = make_engine()
    ctrl = AdmissionController(1, max_root_backlog=2, max_queue=100)
    leaf = topo.leaves[0]
    for gid in range(5):
        assert ctrl.offer(0, gid, leaf)
    admitted = ctrl.drain(0, engine, 1)
    assert [a[0] for a in admitted] == [0, 1]
    assert engine.root_backlog == 2
    assert ctrl.queue_depth(0) == 3
    # Nothing drained from the root: still no headroom.
    assert ctrl.drain(0, engine, 2) == []


def test_drain_fifo_order():
    engine, topo = make_engine()
    ctrl = AdmissionController(1, max_root_backlog=100, max_queue=100)
    for gid in (7, 3, 9):
        ctrl.offer(0, gid, topo.leaves[0])
    admitted = ctrl.drain(0, engine, 1)
    assert [a[0] for a in admitted] == [7, 3, 9]


def test_degenerate_completion_surfaces_through_drain():
    topo = balanced_tree(2, 2)
    engine = ShardEngine(0, topo, 2, 8)
    ctrl = AdmissionController(1, max_root_backlog=10, max_queue=10)
    ctrl.offer(0, 1, topo.root)  # root == target: completes on admission
    [(gid, _leaf, done)] = ctrl.drain(0, engine, 4)
    assert gid == 1 and done == 4


def test_stall_hold_keeps_queue(monkeypatch):
    engine, topo = make_engine()
    ctrl = AdmissionController(1, max_root_backlog=10, max_queue=10)
    ctrl.offer(0, 0, topo.leaves[0])
    monkeypatch.setattr(engine, "root_stalled", lambda step: True)
    assert ctrl.drain(0, engine, 1) == []
    assert ctrl.stats.stall_holds == 1
    assert ctrl.queue_depth(0) == 1
    monkeypatch.setattr(engine, "root_stalled", lambda step: False)
    assert len(ctrl.drain(0, engine, 2)) == 1


def test_queue_wait_accounting():
    engine, topo = make_engine()
    ctrl = AdmissionController(1, max_root_backlog=1, max_queue=10)
    for gid in range(3):
        ctrl.offer(0, gid, topo.leaves[0])
    ctrl.drain(0, engine, 1)  # admits 1, leaves 2 queued
    assert ctrl.stats.queue_wait_steps == 2
    assert ctrl.stats.max_queue_depth == 3


def test_validation():
    with pytest.raises(InvalidInstanceError):
        AdmissionController(1, max_root_backlog=0, max_queue=5)
    with pytest.raises(InvalidInstanceError):
        AdmissionController(1, max_root_backlog=1, max_queue=-1)


def test_requeue_and_handoff_never_recount_offered():
    """Re-admission paths take messages that were already offered at
    arrival; conservation (arrived == offered) requires they never bump
    ``stats.offered`` — only ``offer`` does."""
    engine, topo = make_engine()
    leaf = topo.leaves[0]
    ctrl = AdmissionController(2, max_root_backlog=10, max_queue=5)
    for gid in range(3):
        ctrl.offer(0, gid, leaf)
    assert ctrl.stats.offered == 3
    assert ctrl.requeue(0, [(3, leaf), (4, leaf)]) == 2
    assert ctrl.stats.offered == 3
    assert ctrl.handoff(1, [(5, leaf), (6, leaf)]) == 2
    assert ctrl.stats.offered == 3
    assert ctrl.stats.handoff_in == 2
    # Bounded prefix-accept: shard 0 is full (3 offered + 2 requeued),
    # so the overflow is returned to the caller (who sheds and counts
    # it); neither offered nor shed moves here.
    assert ctrl.requeue(0, [(7 + i, leaf) for i in range(9)]) == 0
    assert ctrl.stats.offered == 3
    assert ctrl.stats.shed == 0
    assert ctrl.queue_depth(0) == 5


def test_queue_helpers_cover_load_and_clear():
    engine, topo = make_engine()
    leaf = topo.leaves[0]
    ctrl = AdmissionController(1, max_root_backlog=10, max_queue=5)
    ctrl.load_queue(0, [(1, leaf), (2, leaf)])
    assert ctrl.queue_depth(0) == 2
    ctrl.load_requeue(0, [(3, leaf)])
    assert ctrl.queue_depth(0) == 3
    assert ctrl.clear_shard(0) == [(1, leaf), (2, leaf), (3, leaf)]
    assert ctrl.queue_depth(0) == 0
    assert ctrl.stats.offered == 0  # none of the helpers re-offer


def test_lone_lane_keeps_fifo_bound():
    """Without tenants the lane bound is ``max_queue`` itself, so
    ``max_queue=0`` sheds every arrival; a tenant lane's bound is
    clamped to at least 1."""
    ctrl = AdmissionController(1, max_root_backlog=4, max_queue=0)
    assert ctrl.lane_bound == [0]
    assert [ctrl.offer(0, gid, 3) for gid in range(3)] == [False] * 3
    assert ctrl.stats.shed == 3 and ctrl.queue_depth(0) == 0
    specs = (TenantSpec(name="a"), TenantSpec(name="b"))
    tenants = AdmissionController(1, max_root_backlog=4, max_queue=0,
                                  specs=specs, tenant_of={})
    assert tenants.lane_bound == [1, 1]
    assert [tenants.offer(0, gid, 3) for gid in range(2)] == [True, False]
