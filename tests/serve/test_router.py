"""Tests for key-range shard routing and the per-shard engine."""

from __future__ import annotations

import pytest

from repro.dam.schedule import Flush, FlushPlan
from repro.serve.planner import plan_flushes
from repro.serve.router import ShardEngine, ShardRouter
from repro.tree import balanced_tree
from repro.util.errors import InvalidInstanceError


def test_every_key_routes_to_exactly_one_shard_leaf():
    router = ShardRouter(4, 100, B=8, fanout=2, height=2)
    seen = set()
    for key in range(100):
        sid, leaf = router.route(key)
        assert 0 <= sid < 4
        assert router.shards[sid].key_lo <= key < router.shards[sid].key_hi
        assert leaf in router.shards[sid].leaves
        seen.add(sid)
    assert seen == {0, 1, 2, 3}


def test_routing_is_monotone_in_key():
    router = ShardRouter(3, 64, B=8, fanout=2, height=2)
    sids = [router.route(k)[0] for k in range(64)]
    assert sids == sorted(sids)  # contiguous ranges


def test_route_rejects_out_of_range_keys():
    router = ShardRouter(2, 10, B=8, fanout=2, height=2)
    with pytest.raises(InvalidInstanceError):
        router.route(-1)
    with pytest.raises(InvalidInstanceError):
        router.route(10)


def test_key_space_smaller_than_shards_rejected():
    with pytest.raises(InvalidInstanceError):
        ShardRouter(8, 4, B=8)


def test_beps_shard_trees_by_default():
    # B^eps-shaped: fanout ceil(B**eps) = 4, smallest complete tree with
    # at least the requested leaves (32 -> 4^3 = 64).
    router = ShardRouter(2, 64, B=16, leaves=32)
    for spec in router.shards:
        assert len(spec.topology.leaves) == 64
        assert spec.topology.height == 3


def make_engine(P=2, B=4):
    topo = balanced_tree(2, 2)  # root 0; leaves at depth 2
    return ShardEngine(0, topo, P, B), topo


def test_engine_runs_planned_flushes_and_completes():
    engine, topo = make_engine()
    leaves = list(topo.leaves)
    for gid in range(4):
        assert engine.admit(gid, leaves[gid % len(leaves)], 1) is None
    assert engine.in_flight == 4
    assert engine.root_backlog == 4
    engine.set_plan(plan_flushes(topo, engine.P, engine.B,
                                 sorted(engine.location), engine.targets))
    done = {}
    t = 1
    while engine.in_flight and t < 50:
        for gid, step in engine.step(t):
            done[gid] = step
        t += 1
    assert sorted(done) == [0, 1, 2, 3]
    assert engine.root_backlog == 0
    assert all(v == 0 for v in engine.occupancy)


def test_engine_respects_buffer_bound():
    engine, topo = make_engine(P=4, B=2)
    mid = topo.child_towards(topo.root, topo.leaves[0])
    # 3 messages through the same internal node with B=2: the third
    # root->mid flush must wait for a drain.
    leaves = topo.leaves_under(mid)
    for gid in range(3):
        engine.admit(gid, leaves[0], 1)
    engine.set_plan(FlushPlan.of([
        Flush(topo.root, mid, (0,)),
        Flush(topo.root, mid, (1,)),
        Flush(topo.root, mid, (2,)),
        Flush(mid, leaves[0], (0,)),
        Flush(mid, leaves[0], (1,)),
        Flush(mid, leaves[0], (2,)),
    ], engine.targets))
    max_occ = 0
    for t in range(1, 20):
        engine.step(t)
        max_occ = max(max_occ, engine.occupancy[mid])
        if not engine.in_flight:
            break
    assert max_occ <= 2
    assert engine.in_flight == 0


def test_degenerate_single_node_shard_completes_on_admission():
    topo = balanced_tree(2, 2)
    engine = ShardEngine(0, topo, 2, 4)
    done = engine.admit(7, topo.root, step=5)
    assert done == 5
    assert engine.in_flight == 0


def test_idle_streak_flags_cross_plan_deadlock():
    engine, topo = make_engine(P=1, B=1)
    mid_a = topo.child_towards(topo.root, topo.leaves[0])
    leaf_a = topo.leaves_under(mid_a)[0]
    engine.admit(0, leaf_a, 1)
    engine.admit(1, leaf_a, 1)
    # Both park at mid_a (B=1): the second root flush is never admissible
    # and nothing drains mid_a -> idle streak grows.
    engine.set_plan(FlushPlan.of([
        Flush(topo.root, mid_a, (0,)),
        Flush(topo.root, mid_a, (1,)),
    ], engine.targets))
    for t in range(1, 10):
        engine.step(t)
    assert engine.idle_streak > 0
    assert engine.in_flight == 2
