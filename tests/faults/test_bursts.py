"""Tests for Markov-modulated correlated fault bursts."""

from __future__ import annotations

import pytest

from repro.dam import validate_valid
from repro.faults import (
    BurstInjector,
    BurstPlan,
    FaultPlan,
    PHASE_CALM,
    PHASE_FAILED,
    PHASE_PARTIAL,
    PHASE_STALL,
)
from repro.policies import GatedExecutor, WormsPolicy
from repro.tree import balanced_tree
from repro.util.errors import InvalidInstanceError
from tests.conftest import make_uniform


HOT = BurstPlan(burst_rate=0.3, escalation=0.8, phase_duration=2)


def make_injector(plan=HOT, seed=0, topo=None):
    return BurstInjector(FaultPlan.none(), plan, topo or balanced_tree(3, 3),
                         seed=seed)


# ----------------------------------------------------------------------
# Plan validation and the zero-plan collapse.
# ----------------------------------------------------------------------
def test_plan_validation():
    with pytest.raises(InvalidInstanceError):
        BurstPlan(burst_rate=1.5)
    with pytest.raises(InvalidInstanceError):
        BurstPlan(phase_duration=0)
    with pytest.raises(InvalidInstanceError):
        BurstPlan.from_rate(-0.1)


def test_zero_plan_property():
    assert BurstPlan().is_zero
    assert not HOT.is_zero
    inj = make_injector(BurstPlan())
    assert inj.is_zero_plan
    assert not make_injector().is_zero_plan
    # A zero base plan with live bursts must NOT be collapsed away.
    inst = make_uniform(balanced_tree(3, 3), n_messages=40, P=2, B=12)
    assert GatedExecutor(inst, make_injector()).injector is not None
    assert GatedExecutor(inst, inj).injector is None


def test_zero_plan_stays_calm():
    inj = make_injector(BurstPlan())
    assert all(inj.phase_at(t) == (PHASE_CALM, -1) for t in range(1, 50))


# ----------------------------------------------------------------------
# Chain dynamics.
# ----------------------------------------------------------------------
def test_phases_are_deterministic_and_order_independent():
    a = make_injector(seed=7)
    b = make_injector(seed=7)
    forward = [a.phase_at(t) for t in range(1, 200)]
    backward = [b.phase_at(t) for t in range(199, 0, -1)][::-1]
    assert forward == backward
    assert forward != [make_injector(seed=8).phase_at(t)
                       for t in range(1, 200)]


def test_phases_last_their_duration_and_escalate_in_order():
    inj = make_injector(BurstPlan(burst_rate=0.5, escalation=1.0,
                                  phase_duration=3), seed=1)
    phases = [inj.phase_at(t) for t in range(1, 300)]
    runs: list[tuple[str, int, int]] = []  # (phase, subtree, length)
    for phase, node in phases:
        if runs and runs[-1][0] == phase and runs[-1][1] == node:
            runs[-1] = (phase, node, runs[-1][2] + 1)
        else:
            runs.append((phase, node, 1))
    bursty = [r for r in runs if r[0] != PHASE_CALM]
    assert bursty, "chain never left calm at burst_rate=0.5"
    for _phase, _node, length in bursty[:-1]:
        assert length == 3
    # With escalation=1.0 every stall block is followed by partial, then
    # failed — on the same subtree — before the chain returns to calm.
    seq = [(p, n) for p, n, _ in runs if p != PHASE_CALM]
    assert seq[0][0] == PHASE_STALL
    for k in range(0, len(seq) - 2, 3):
        assert seq[k][0] == PHASE_STALL
        assert seq[k + 1] == (PHASE_PARTIAL, seq[k][1])
        assert seq[k + 2] == (PHASE_FAILED, seq[k][1])


def test_burst_faults_are_subtree_local():
    topo = balanced_tree(3, 3)
    inj = make_injector(seed=3, topo=topo)
    for t in range(1, 400):
        phase, root = inj.phase_at(t)
        if phase != PHASE_STALL:
            continue
        inside = [v for v in range(topo.n_nodes)
                  if topo.is_descendant(v, root)]
        outside = [v for v in range(topo.n_nodes) if v not in set(inside)]
        assert all(inj.is_stalled(t, v) for v in inside)
        assert not any(inj.is_stalled(t, v) for v in outside)
        return
    pytest.fail("no stall phase observed in 400 steps")


def test_failed_phase_drops_flushes_inside_subtree_only():
    topo = balanced_tree(3, 3)
    inj = make_injector(BurstPlan(burst_rate=0.4, escalation=1.0,
                                  phase_duration=2, failed_rate=1.0),
                        seed=5, topo=topo)
    for t in range(1, 600):
        phase, root = inj.phase_at(t)
        if phase != PHASE_FAILED:
            continue
        status, delivered = inj.flush_outcome(t, root, root, (0, 1, 2))
        assert status == "failed" and delivered == ()
        # A flush not touching the subtree is untouched (base plan is
        # zero, so it succeeds).
        outside = next(v for v in range(topo.n_nodes)
                       if not topo.is_descendant(v, root) and v != root)
        status2, delivered2 = inj.flush_outcome(t, outside, outside, (3, 4))
        assert status2 == "ok" and delivered2 == (3, 4)
        return
    pytest.fail("no failed phase observed in 600 steps")


def test_partial_outcome_is_replay_stable():
    inj1 = make_injector(BurstPlan(burst_rate=0.4, escalation=1.0,
                                   phase_duration=2, partial_rate=1.0),
                         seed=9)
    inj2 = make_injector(BurstPlan(burst_rate=0.4, escalation=1.0,
                                   phase_duration=2, partial_rate=1.0),
                         seed=9)
    for t in range(1, 600):
        phase, root = inj1.phase_at(t)
        if phase != PHASE_PARTIAL:
            continue
        out1 = inj1.flush_outcome(t, root, root, (0, 1, 2, 3))
        out2 = inj2.flush_outcome(t, root, root, (0, 1, 2, 3))
        assert out1 == out2
        assert out1[0] == "partial"
        assert 1 <= len(out1[1]) < 4
        return
    pytest.fail("no partial phase observed in 600 steps")


# ----------------------------------------------------------------------
# Closed-loop: the resilient executor survives bursts validly.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rate", [0.1, 0.3])
def test_executor_completes_validly_under_bursts(rate):
    inst = make_uniform(balanced_tree(3, 3), n_messages=150, P=2, B=12,
                        seed=5)
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    injector = BurstInjector(FaultPlan.none(), BurstPlan.from_rate(rate),
                             inst.topology, seed=11)
    sched = GatedExecutor(
        inst, injector, retry_budget=6, max_replans=4
    ).run(list(ordered))
    res = validate_valid(inst, sched)
    assert (res.completion_times > 0).all()
