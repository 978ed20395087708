"""Tests for the executor under faults: the acceptance criteria of E12.

Three contracts: (1) with no faults the realized schedule is
byte-identical to the no-re-plan run of :func:`execute_flush_list`;
(2) under a seeded nonzero plan
every policy still completes every message with a *valid* realized
schedule; (3) when recovery is exhausted the failure is a diagnosable
:class:`ExecutionStalledError`, not a hang.
"""

from __future__ import annotations

import pytest

from repro.analysis.resilience import default_resilience_policies
from repro.core.worms import WORMSInstance
from repro.dam import validate_valid
from repro.dam.schedule import Flush
from repro.faults import FaultInjector, FaultPlan
from repro.policies import GatedExecutor, WormsPolicy
from repro.policies.executor import execute_flush_list, worms_replan
from repro.tree import Message, balanced_tree, path_tree
from repro.util.errors import ExecutionStalledError
from tests.conftest import make_uniform


def ordered_flushes(schedule):
    return [f for _t, f in schedule.iter_timed()]


@pytest.fixture
def small_instance():
    return make_uniform(balanced_tree(3, 3), n_messages=150, P=2, B=12,
                        seed=5)


# ----------------------------------------------------------------------
# Contract 1: the zero-fault path is byte-identical to a no-re-plan run.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_fault_byte_identical(seed):
    inst = make_uniform(balanced_tree(3, 3), n_messages=200, P=3, B=16,
                        seed=seed)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    plain = execute_flush_list(inst, list(ordered))
    for injector in (None, FaultInjector(FaultPlan.none(), seed=seed)):
        executor = GatedExecutor(inst, injector)
        assert executor.run(list(ordered)).steps == plain.steps
        assert executor.stats.replans == 0


def test_zero_plan_neutralizes_injector(small_instance):
    ex = GatedExecutor(
        small_instance, FaultInjector(FaultPlan.none(), seed=0)
    )
    assert ex.injector is None


# ----------------------------------------------------------------------
# Contract 2: every policy completes validly under seeded faults.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "policy", default_resilience_policies(), ids=lambda p: p.name
)
@pytest.mark.parametrize("rate", [0.1, 0.3])
def test_policies_complete_validly_under_faults(small_instance, policy, rate):
    ordered = ordered_flushes(policy.schedule(small_instance))
    injector = FaultInjector(FaultPlan.uniform(rate), seed=11)
    executor = GatedExecutor(
        small_instance, injector, retry_budget=4, max_replans=4
    )
    sched = executor.run(list(ordered))
    res = validate_valid(small_instance, sched)  # raises on any violation
    assert (res.completion_times > 0).all()


def test_faults_only_inflate(small_instance):
    ordered = ordered_flushes(WormsPolicy().schedule(small_instance))
    clean = GatedExecutor(small_instance).run(list(ordered))
    injector = FaultInjector(FaultPlan.uniform(0.2), seed=1)
    faulty = GatedExecutor(small_instance, injector).run(list(ordered))
    assert faulty.n_steps >= clean.n_steps


def test_stats_record_recovery_work(small_instance):
    ordered = ordered_flushes(WormsPolicy().schedule(small_instance))
    injector = FaultInjector(FaultPlan.uniform(0.3), seed=11)
    executor = GatedExecutor(small_instance, injector, retry_budget=4)
    executor.run(list(ordered))
    s = executor.stats
    assert s.failed_attempts + s.partial_deliveries > 0
    assert s.fault_events, "fired faults must be surfaced on stats"


def test_partial_flush_redelivers_remainder():
    """Only partial flushes: every message must still arrive."""
    B = 8
    topo = path_tree(2)
    msgs = [Message(i, 2) for i in range(B)]
    inst = WORMSInstance(topo, msgs, P=1, B=B)
    ordered = [Flush(0, 1, tuple(range(B))), Flush(1, 2, tuple(range(B)))]
    injector = FaultInjector(FaultPlan(partial_flush_rate=0.9), seed=0)
    sched = GatedExecutor(
        inst, injector, retry_budget=50
    ).run(list(ordered))
    res = validate_valid(inst, sched)
    assert (res.completion_times > 0).all()
    # The redeliveries really were split into several smaller flushes.
    assert sched.n_flushes > 2


# ----------------------------------------------------------------------
# Re-planning and graceful failure.
# ----------------------------------------------------------------------
def test_nonlaminar_list_recovers_via_replan():
    """Without re-plans this input deadlocks; one re-plan rescues it."""
    topo = path_tree(2)
    inst = WORMSInstance(topo, [Message(0, 2)], P=1, B=4)
    bad = [Flush(1, 2, (0,))]  # first hop missing
    with pytest.raises(ExecutionStalledError):
        execute_flush_list(inst, list(bad))
    executor = GatedExecutor(inst, max_replans=1)
    sched = executor.run(list(bad))
    assert validate_valid(inst, sched).completion_times.tolist() == [2]
    assert executor.stats.replans == 1


def test_replan_exhaustion_raises_diagnosable_error():
    """Every attempt fails, so each re-plan exhausts its retry budget
    again until the re-plans run out."""
    topo = path_tree(2)
    inst = WORMSInstance(topo, [Message(0, 2)], P=1, B=4)
    injector = FaultInjector(FaultPlan(failed_flush_rate=1.0), seed=0)
    executor = GatedExecutor(inst, injector, retry_budget=1, max_replans=2)
    with pytest.raises(ExecutionStalledError) as exc_info:
        executor.run([Flush(0, 1, (0,)), Flush(1, 2, (0,))])
    err = exc_info.value
    assert executor.stats.replans == 2
    assert err.step >= 0  # 0 = stalled before any progress
    assert err.parked_messages == ((0, 0),)  # message 0 parked at the root
    assert err.blocking_flush == Flush(0, 1, (0,))
    assert err.pending_flushes
    assert "2 replan(s) already used" in str(err)
    assert "message 0 parked at node 0" in str(err)


def test_worms_replan_from_root_matches_pipeline(small_instance):
    remaining = list(range(small_instance.n_messages))
    location = [small_instance.topology.root] * small_instance.n_messages
    flushes = worms_replan(small_instance, remaining, location)
    sched = GatedExecutor(small_instance).run(flushes)
    assert validate_valid(small_instance, sched).is_valid


def test_worms_replan_mid_tree_survivors(small_instance):
    """Survivors scattered mid-tree: the online fallback must cover them."""
    ordered = ordered_flushes(WormsPolicy().schedule(small_instance))
    # Replay a prefix by hand to scatter messages, then replan the rest.
    prefix = ordered[: len(ordered) // 3]
    targets = small_instance.targets
    loc = [small_instance.start_of(m)
           for m in range(small_instance.n_messages)]
    for f in prefix:
        for m in f.messages:
            loc[m] = f.dest
    remaining = [m for m in range(small_instance.n_messages)
                 if loc[m] != int(targets[m])]
    assert remaining, "prefix should leave survivors"
    assert any(loc[m] != small_instance.topology.root for m in remaining)
    flushes = worms_replan(small_instance, remaining, loc)
    delivered = set()
    for f in flushes:
        delivered.update(f.messages)
    assert set(remaining) <= delivered


def test_worms_replan_empty():
    inst = WORMSInstance(path_tree(1), [], P=1, B=4)
    assert worms_replan(inst, [], []) == []


def test_max_steps_backstop():
    topo = path_tree(2)
    inst = WORMSInstance(topo, [Message(0, 2)], P=1, B=4)
    injector = FaultInjector(FaultPlan(failed_flush_rate=1.0), seed=0)
    executor = GatedExecutor(
        inst, injector, retry_budget=10 ** 9, max_steps=40
    )
    with pytest.raises(ExecutionStalledError, match="max_steps"):
        executor.run([Flush(0, 1, (0,)), Flush(1, 2, (0,))])
