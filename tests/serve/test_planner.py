"""Tests for the epoch planner and its noop/full modes."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.packed import build_packed_sets
from repro.core.reduction import reduce_to_scheduling
from repro.core.task_to_flush import task_schedule_to_flush_schedule
from repro.core.worms import WORMSInstance
from repro.policies import online
from repro.scheduling.instance import SchedulingInstance
from repro.scheduling.mphtf import mphtf_schedule
from repro.serve import ServeConfig, ServiceLoop
from repro.serve.planner import EpochPlanner, plan_flushes
from repro.serve.router import ShardEngine
from repro.tree import Message, TreeTopology, balanced_tree, beps_shape_tree
from repro.util.errors import InvalidInstanceError
from tests.serve.test_planner_golden import TREES


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
    flushes = plan_flushes(topo, 2, 8, list(range(10)), targets).flushes()
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
    flushes = plan_flushes(topo, 2, 8, [5, 9], targets, locations).flushes()
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
    before = engine.pending_plan()
    assert len(before) > 0
    planner.plan(engine, [])
    assert engine.pending_plan() == before
    assert planner.stats.noop_epochs == 1


def test_arrival_into_clean_subtree_replans_everything_in_flight(
        monkeypatch):
    """An arrival whose top-level subtree holds no parked message still
    gets one full, age-weighted plan over every in-flight message, and
    the engine takes it whole through ``set_plan``: the planner's flat
    lists, parking counts included."""
    engine, topo = make_engine(B=64)
    planner = EpochPlanner(4)
    leaf_a = topo.leaves_under(topo.child_towards(topo.root, topo.leaves[0]))[0]
    engine.admit(0, leaf_a, 1)
    planner.plan(engine, [0])
    engine.step(1)  # msg 0 parks mid-tree under child 0
    other_top = topo.child_towards(topo.root, topo.leaves[-1])
    leaf_b = topo.leaves_under(other_top)[0]
    engine.admit(1, leaf_b, 2)  # a subtree no in-flight message is in
    taken = []
    real_set_plan = engine.set_plan

    def spy(plan):
        taken.append(plan)
        real_set_plan(plan)

    monkeypatch.setattr(engine, "set_plan", spy)
    expected = plan_flushes(topo, engine.P, engine.B, [0, 1],
                            engine.targets, dict(engine.location),
                            weights=[8 + 1, 8])
    assert planner.plan(engine, [1]) == "full"
    assert taken == [expected]
    assert engine.pending_plan() == expected
    assert {m for ms in expected.msgs for m in ms} == {0, 1}
    assert engine.pending_flushes == len(expected)
    assert planner.stats.full_replans == 2
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


def test_full_replan_weights_messages_by_age(monkeypatch):
    """A full re-plan weights message m by 8 + (newest admission step in
    the plan - m's admission step), and a restored message counts from
    its restore step; the engine takes exactly the weighted plan."""
    import repro.serve.planner as planner_mod

    calls = []
    real = planner_mod.plan_flushes

    def spy(*args, **kwargs):
        plan = real(*args, **kwargs)
        calls.append((kwargs.get("weights"), plan))
        return plan

    monkeypatch.setattr(planner_mod, "plan_flushes", spy)
    engine, topo = make_engine(B=64)
    planner = EpochPlanner(4)
    for gid, step in ((0, 1), (1, 3), (2, 6)):
        engine.admit(gid, topo.leaves[gid], step)
    planner.plan(engine, [0, 1, 2])
    planner.plan(engine, [], force_full=True)
    assert [w for w, _ in calls] == [[13, 11, 8], [13, 11, 8]]
    assert engine.pending_plan() == calls[-1][1]
    engine.restore_state(dict(engine.location), engine.targets, step=9)
    engine.admit(3, topo.leaves[3], 12)
    planner.plan(engine, [], force_full=True)
    assert calls[-1][0] == [11, 11, 11, 8]
    assert engine.pending_plan() == calls[-1][1]


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
                           allow_internal_targets=True).flushes()
    assert [(f.src, f.dest, f.messages) for f in flushes] == [
        (topo.root, internal, (4,))
    ]


def test_plan_parking_counts_messages_not_ending_at_dest(monkeypatch):
    """For every flush of every planner-golden grid and kernel case, the
    plan's parking count is its message count minus the messages whose
    target is its destination: the flush gate's admission check takes
    the count from the plan as it is."""
    import repro.serve.planner as planner_mod
    from tests.serve import test_planner_golden as golden

    real = planner_mod.plan_flushes
    sizes = []

    def checking(topology, P, B, msg_ids, targets, *args, **kwargs):
        plan = real(topology, P, B, msg_ids, targets, *args, **kwargs)
        assert plan.parking == [
            len(ms) - sum(targets[m] == d for m in ms)
            for d, ms in zip(plan.dest, plan.msgs)
        ]
        sizes.append(len(plan))
        return plan

    monkeypatch.setattr(planner_mod, "plan_flushes", checking)
    monkeypatch.setattr(golden, "plan_flushes", checking)
    cases = list(golden.plan_cases())
    for case in cases:
        golden.run_plan_case(case)
    for case in golden.KERNEL_CASES:
        golden.run_kernel_case(case)
    assert len(sizes) == len(cases) + len(golden.KERNEL_CASES)
    assert min(sizes) == 0 and sum(sizes) > 10_000


def _object_plan(topo, P, B, ids, targets):
    """The object pipeline on all-at-root ``ids``: build_packed_sets at
    B/3 -> reduce_to_scheduling -> mphtf_schedule -> Lemma 8."""
    inst = WORMSInstance(
        topo, [Message(i, targets[m]) for i, m in enumerate(ids)], P=P, B=B,
    )
    reduced = reduce_to_scheduling(inst, build_packed_sets(inst, denom=3))
    planned = task_schedule_to_flush_schedule(
        reduced, mphtf_schedule(reduced.scheduling)
    )
    return [
        (f.src, f.dest, tuple(sorted(ids[i] for i in f.messages)))
        for _t, f in planned.iter_timed()
    ]


def _subtree(topo, s):
    """The subtree rooted at ``s`` relabelled as its own TreeTopology:
    new id ``i`` is ``nodes[i]``, the ``i``-th smallest id under ``s``
    (order-preserving, so every id tie-break is the same)."""
    nodes = sorted(topo.iter_subtree(s))
    assert nodes[0] == s
    index = {v: i for i, v in enumerate(nodes)}
    parent = [-1] + [index[topo.parent_of(v)] for v in nodes[1:]]
    return TreeTopology(parent), nodes, index


@pytest.mark.parametrize("seed", range(6))
def test_plan_flushes_is_the_object_pipeline(seed):
    """All at the root, the kernel plan equals the object APIs' plan on
    the same input."""
    rng = np.random.default_rng(seed)
    topo = beps_shape_tree(16, 0.5, 64)
    ids = [int(x) for x in rng.choice(5000, size=40, replace=False)]
    targets = {m: int(rng.choice(topo.leaves)) for m in ids}
    got = plan_flushes(topo, 4, 16, ids, targets).flushes()
    assert [(f.src, f.dest, f.messages) for f in got] == \
        _object_plan(topo, 4, 16, ids, targets)


@pytest.mark.parametrize("tree", ["balanced", "beps"])
@pytest.mark.parametrize("n", [5, 40])
def test_plan_from_mid_tree_is_the_object_pipeline_on_the_subtree(tree, n):
    """From every internal node ``s`` of the planner-golden trees, the
    plan of messages parked at ``s`` equals the object pipeline run on
    the subtree below ``s`` as a tree of its own, ids mapped back.  With
    ``n=5`` no node below ``s`` can be packed at B=16 (5 < 16/3)."""
    topo = TREES[tree]()
    internal = [v for v in range(topo.n_nodes) if not topo.is_leaf(v)]
    for s in internal:
        rng = np.random.default_rng([n, s])
        sub, nodes, index = _subtree(topo, s)
        ids = sorted(int(x) for x in rng.choice(5000, size=n, replace=False))
        targets = {m: int(rng.choice(topo.leaves_under(s))) for m in ids}
        got = plan_flushes(
            topo, 4, 16, ids, targets, dict.fromkeys(ids, s)
        ).flushes()
        expected = _object_plan(
            sub, 4, 16, ids, {m: index[t] for m, t in targets.items()}
        )
        assert [(f.src, f.dest, f.messages) for f in got] == [
            (nodes[a], nodes[b], ms) for a, b, ms in expected
        ], f"{tree}: plan from node {s}"


def test_mid_tree_groups_are_joined_not_concatenated():
    """Two start nodes make one task forest under one MPHTF: the plan
    holds each group's flushes, interleaved in step order rather than
    one group's whole plan after the other's."""
    topo = balanced_tree(3, 3)
    a, b = topo.children_of(topo.root)[:2]
    rng = np.random.default_rng(4)
    ids = list(range(24))
    start = {m: a if m % 2 else b for m in ids}
    targets = {m: int(rng.choice(topo.leaves_under(start[m]))) for m in ids}
    got = plan_flushes(topo, 2, 8, ids, targets, start).flushes()
    per_group = {
        s: plan_flushes(topo, 2, 8, [m for m in ids if start[m] == s],
                        targets, start).flushes()
        for s in (a, b)
    }
    srcs = [topo.root_path(f.src)[1] for f in got]
    assert sorted(map(repr, got)) == sorted(
        map(repr, per_group[a] + per_group[b])
    )
    assert srcs != sorted(srcs) and srcs != sorted(srcs, reverse=True)


def test_service_loop_builds_no_instance_objects(monkeypatch):
    """Serving plans on the kernel's flat lists: a run of full re-plans
    never builds a WORMSInstance or a SchedulingInstance."""
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
    assert stats.full_replans > 0


def test_service_loop_never_reaches_online_flushes(monkeypatch):
    """Every serve plan is the paper pipeline: the online density
    heuristic (E9's baseline) is not on the serving path, not even for
    full re-plans of messages parked mid-tree."""
    original = online.online_flushes

    def refuse(*args, **kwargs):
        raise AssertionError("serving reached online_flushes")

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "online_flushes", None) is original):
            monkeypatch.setattr(module, "online_flushes", refuse)
    loop = ServiceLoop(ServeConfig(
        arrivals="poisson", rate=8.0, messages=3000, shards=2, seed=1,
    ))
    report = loop.run()
    assert len(report.completions) == 3000
    stats = loop.planner.stats
    assert stats.full_replans > 0
