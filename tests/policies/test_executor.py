"""Tests for the admission-gated executor."""

from __future__ import annotations

import pytest

from repro.core.reduction import reduce_to_scheduling
from repro.core.task_to_flush import task_schedule_to_flush_schedule
from repro.core.worms import WORMSInstance
from repro.dam import validate_valid
from repro.dam.journal import REC_CHECKPOINT, scan_journal
from repro.dam.schedule import Flush
from repro.policies import WormsPolicy
from repro.policies.executor import GatedExecutor, execute_flush_list
from repro.scheduling import mphtf_schedule
from repro.tree import Message, balanced_tree, path_tree
from repro.util.errors import ExecutionStalledError, InvalidScheduleError
from tests.conftest import make_uniform


def test_simple_chain():
    topo = path_tree(2)
    inst = WORMSInstance(topo, [Message(0, 2)], P=1, B=4)
    flushes = [Flush(0, 1, (0,)), Flush(1, 2, (0,))]
    sched = execute_flush_list(inst, flushes)
    res = validate_valid(inst, sched)
    assert res.completion_times.tolist() == [2]


def test_gating_delays_overfilling_arrivals():
    """Two B-sized groups to the same internal node must serialize."""
    B = 4
    topo = path_tree(2)
    msgs = [Message(i, 2) for i in range(2 * B)]
    inst = WORMSInstance(topo, msgs, P=2, B=B)
    g1, g2 = tuple(range(B)), tuple(range(B, 2 * B))
    flushes = [
        Flush(0, 1, g1),
        Flush(0, 1, g2),
        Flush(1, 2, g1),
        Flush(1, 2, g2),
    ]
    sched = execute_flush_list(inst, flushes)
    res = validate_valid(inst, sched)
    assert res.is_valid


def test_priority_order_respected_when_feasible():
    topo = balanced_tree(2, 1)  # root with leaves 1, 2
    msgs = [Message(0, 1), Message(1, 2)]
    inst = WORMSInstance(topo, msgs, P=1, B=4)
    sched = execute_flush_list(
        inst, [Flush(0, 2, (1,)), Flush(0, 1, (0,))]
    )
    res = validate_valid(inst, sched)
    assert res.completion_times.tolist() == [2, 1]


def test_deadlock_detection():
    """A non-laminar flush list whose flushes can never run raises."""
    topo = path_tree(2)
    inst = WORMSInstance(topo, [Message(0, 2)], P=1, B=4)
    # Only the second hop is provided: message never gets to node 1.
    with pytest.raises(InvalidScheduleError, match="deadlock"):
        execute_flush_list(inst, [Flush(1, 2, (0,))])


def test_deadlock_stall_reports_last_step_that_ran(tmp_path):
    """The stall names the last step that ran, not the rolled-back idle
    step that exposed the deadlock."""
    inst = make_uniform(balanced_tree(3, 3), n_messages=150, P=3, B=12,
                        seed=4)
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    missing_hop = ordered[1:]  # one group can never leave the root
    journal = tmp_path / "run.journal"
    with pytest.raises(ExecutionStalledError) as journaled:
        # A checkpoint after every step that ran.
        GatedExecutor(inst, max_replans=0, journal=journal,
                      checkpoint_every=1).run(missing_hop)
    last = max(r["t"] for r in scan_journal(journal).records
               if r["type"] == REC_CHECKPOINT)
    assert journaled.value.step == last
    with pytest.raises(ExecutionStalledError) as plain:
        execute_flush_list(inst, missing_hop)
    assert plain.value.step == last
    assert "0 replan(s) already used" in str(plain.value)


def test_laminar_reduction_lists_never_deadlock(rng):
    for trial in range(8):
        topo = balanced_tree(3, 3)
        inst = make_uniform(
            topo,
            n_messages=int(rng.integers(50, 300)),
            P=int(rng.integers(1, 4)),
            B=int(rng.integers(6, 40)),
            seed=trial,
        )
        red = reduce_to_scheduling(inst)
        sigma = mphtf_schedule(red.scheduling)
        over = task_schedule_to_flush_schedule(red, sigma)
        ordered = [f for _t, f in over.iter_timed()]
        sched = execute_flush_list(inst, ordered)
        assert validate_valid(inst, sched).is_valid


def test_empty_list():
    topo = path_tree(1)
    inst = WORMSInstance(topo, [], P=1, B=4)
    sched = execute_flush_list(inst, [])
    assert sched.n_steps == 0
