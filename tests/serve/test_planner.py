"""Tests for the epoch planner and its noop/incremental/full modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.reduction import reduce_to_scheduling
from repro.core.task_to_flush import task_schedule_to_flush_schedule
from repro.core.worms import WORMSInstance
from repro.policies.online import online_density_schedule
from repro.scheduling.instance import SchedulingInstance
from repro.scheduling.mphtf import mphtf_schedule
from repro.serve import ServeConfig, ServiceLoop
from repro.serve.planner import EpochPlanner, plan_flushes
from repro.serve.router import ShardEngine
from repro.tree import Message, balanced_tree, beps_shape_tree
from repro.util.errors import InvalidInstanceError


def make_engine(P=2, B=8):
    topo = balanced_tree(3, 2)
    return ShardEngine(0, topo, P, B), topo


def run_dry(engine, t0=1, limit=60):
    done = {}
    for t in range(t0, t0 + limit):
        for gid, step in engine.step(t):
            done[gid] = step
        if not engine.in_flight:
            break
    return done


def test_epoch_boundaries():
    p = EpochPlanner(epoch_length=4)
    assert [s for s in range(1, 10) if p.is_boundary(s)] == [1, 5, 9]
    assert EpochPlanner(1).is_boundary(3)


def test_epoch_length_validated():
    with pytest.raises(InvalidInstanceError):
        EpochPlanner(0)


def test_plan_flushes_all_at_root_reaches_all_targets():
    _engine, topo = make_engine()
    targets = {i: topo.leaves[i % len(topo.leaves)] for i in range(10)}
    flushes = plan_flushes(topo, 2, 8, list(range(10)), targets)
    delivered = {
        m for f in flushes for m in f.messages
        if targets[m] == f.dest
    }
    assert delivered == set(range(10))
    # Global ids survive the dense sub-instance round trip.
    assert {m for f in flushes for m in f.messages} == set(range(10))


def test_plan_flushes_midtree_residual():
    _engine, topo = make_engine()
    mid = topo.child_towards(topo.root, topo.leaves[0])
    leaf = topo.leaves_under(mid)[0]
    targets = {5: leaf, 9: topo.leaves[-1]}
    locations = {5: mid, 9: topo.root}
    flushes = plan_flushes(topo, 2, 8, [5, 9], targets, locations)
    firsts = {}
    for f in flushes:
        for m in f.messages:
            firsts.setdefault(m, f.src)
    assert firsts[5] == mid  # planned from its parked location
    assert firsts[9] == topo.root


def test_noop_epoch_keeps_plan():
    engine, topo = make_engine()
    planner = EpochPlanner(4)
    engine.admit(0, topo.leaves[0], 1)
    planner.plan(engine, [0])
    before = list(engine.pending)
    planner.plan(engine, [])
    assert engine.pending == before
    assert planner.stats.noop_epochs == 1


def test_incremental_plan_appends_for_clean_subtree():
    engine, topo = make_engine(B=64)
    planner = EpochPlanner(4)
    # First batch into subtree under child 0.
    leaf_a = topo.leaves_under(topo.child_towards(topo.root, topo.leaves[0]))[0]
    engine.admit(0, leaf_a, 1)
    planner.plan(engine, [0])
    engine.step(1)  # park msg 0 mid-tree -> its subtree is now dirty
    n_before = len(engine.pending)
    # Second batch targets a *different* top-level subtree: clean -> append.
    other_top = topo.child_towards(topo.root, topo.leaves[-1])
    leaf_b = topo.leaves_under(other_top)[0]
    engine.admit(1, leaf_b, 2)
    planner.plan(engine, [1])
    assert planner.stats.incremental_plans >= 1
    assert len(engine.pending) > n_before  # appended, not replaced
    done = run_dry(engine, t0=2)
    assert sorted(done) == [0, 1]


def test_dirty_subtree_forces_full_replan():
    engine, topo = make_engine(B=64)
    planner = EpochPlanner(4)
    leaf_a = topo.leaves_under(topo.child_towards(topo.root, topo.leaves[0]))[0]
    engine.admit(0, leaf_a, 1)
    planner.plan(engine, [0])
    engine.step(1)  # msg 0 parks mid-tree in subtree A
    # New arrival into the SAME subtree: must trigger a full re-plan.
    engine.admit(1, leaf_a, 2)
    planner.plan(engine, [1])
    assert planner.stats.full_replans >= 1
    done = run_dry(engine, t0=2)
    assert sorted(done) == [0, 1]


def test_forced_replan_resets_idle_streak():
    engine, topo = make_engine()
    planner = EpochPlanner(4)
    engine.admit(0, topo.leaves[0], 1)
    planner.plan(engine, [0])
    engine.idle_streak = 99
    planner.plan(engine, [], force_full=True)
    assert engine.idle_streak == 0
    assert planner.stats.forced_replans == 1


def test_first_plan_all_at_root_matches_offline_pipeline():
    """With everything at the root the planner IS the paper pipeline."""
    engine, topo = make_engine()
    targets = {i: topo.leaves[i % len(topo.leaves)] for i in range(12)}
    for gid, leaf in targets.items():
        engine.admit(gid, leaf, 1)
    flushes = plan_flushes(topo, engine.P, engine.B,
                           sorted(targets), targets)
    engine.set_plan(flushes)
    done = run_dry(engine)
    assert sorted(done) == sorted(targets)


def test_plan_flushes_validates_targets_and_machine():
    topo = balanced_tree(3, 2)
    internal = topo.children_of(topo.root)[0]
    with pytest.raises(InvalidInstanceError, match="non-leaf"):
        plan_flushes(topo, 2, 8, [4], {4: internal})
    with pytest.raises(InvalidInstanceError, match="unknown node"):
        plan_flushes(topo, 2, 8, [4], {4: topo.n_nodes})
    with pytest.raises(InvalidInstanceError):
        plan_flushes(topo, 0, 8, [4], {4: topo.leaves[0]})
    flushes = plan_flushes(topo, 2, 8, [4], {4: internal},
                           allow_internal_targets=True)
    assert [(f.src, f.dest, f.messages) for f in flushes] == [
        (topo.root, internal, (4,))
    ]


@pytest.mark.parametrize("seed", range(6))
def test_plan_flushes_is_the_object_pipeline(seed):
    """The kernel plan equals the object APIs' plan on the same input:
    WORMSInstance -> reduce_to_scheduling -> mphtf_schedule -> Lemma 8
    (root starts), online_density_schedule (mid-tree starts)."""
    rng = np.random.default_rng(seed)
    topo = beps_shape_tree(16, 0.5, 64)
    ids = [int(x) for x in rng.choice(5000, size=40, replace=False)]
    targets = {m: int(rng.choice(topo.leaves)) for m in ids}
    locations = None
    if seed % 2:
        locations = {
            m: topo.root_path(targets[m])[int(rng.integers(0, 3))]
            for m in ids
        }
    inst = WORMSInstance(
        topo, [Message(i, targets[m]) for i, m in enumerate(ids)],
        P=4, B=16,
        start_nodes=None if locations is None
        else [locations[m] for m in ids],
    )
    if locations is None:
        reduced = reduce_to_scheduling(inst)
        planned = task_schedule_to_flush_schedule(
            reduced, mphtf_schedule(reduced.scheduling)
        )
    else:
        planned = online_density_schedule(inst)
    expected = [
        (f.src, f.dest, tuple(sorted(ids[i] for i in f.messages)))
        for _t, f in planned.iter_timed()
    ]
    got = plan_flushes(topo, 4, 16, ids, targets, locations)
    assert [(f.src, f.dest, f.messages) for f in got] == expected


def test_service_loop_builds_no_instance_objects(monkeypatch):
    """Serving plans on the kernel's flat lists: a run that exercises
    incremental and full re-plans never builds a WORMSInstance or a
    SchedulingInstance."""
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built while serving")

    monkeypatch.setattr(WORMSInstance, "__init__", refuse)
    monkeypatch.setattr(SchedulingInstance, "__init__", refuse)
    loop = ServiceLoop(ServeConfig(
        arrivals="poisson", rate=8.0, messages=3000, shards=2, seed=1,
    ))
    report = loop.run()
    assert len(report.completions) == 3000
    stats = loop.planner.stats
    assert stats.incremental_plans > 0 and stats.full_replans > 0
