"""The de-amortization controller's hard guarantee, under stress.

``--pace N`` promises: no shard flushes more than ``N`` messages in any
single DAM step.  That bound must hold not just on the happy path but
at every step of seeded fault runs (stalled flushes, retries, forced
re-plans) and across worker kills on the process driver — the realized
per-shard schedules are the ground truth
(:meth:`repro.dam.schedule.FlushSchedule.max_step_moves`).
"""

from __future__ import annotations

import pytest

from repro.dam.schedule import Flush
from repro.faults import CHAOS_KILL_WORKER, ChaosEvent, ChaosPlan
from repro.policies.engine import ShardEngine
from repro.scheduling.deamortize import pace_flush_list
from repro.serve import ProcPoolLoop, ServiceLoop
from repro.stability import StabilityConfig, run_stability
from repro.tree import balanced_tree
from repro.util.errors import InvalidInstanceError


def _assert_bound(report, pace: int) -> None:
    for sched in report.shard_schedules:
        assert sched.max_step_moves() <= pace, (
            f"per-step bound violated: {sched.max_step_moves()} > {pace}"
        )


@pytest.mark.parametrize("seed", [1, 4, 11])
def test_per_step_bound_holds_under_faults(seed):
    """Every step of every shard respects the budget, faults included."""
    pace = 8
    cfg = StabilityConfig(
        scenario="flash-crowd", messages=1200, seed=seed,
        fault_rate=0.1, fault_seed=seed, pace=pace,
    )
    report = ServiceLoop(cfg.to_serve_config()).run()
    _assert_bound(report, pace)
    assert report.snapshot["pace"]["budget"] == pace
    assert report.snapshot["pace"]["max_step_work"] \
        == max(s.max_step_moves() for s in report.shard_schedules)


def test_per_step_bound_holds_under_sigkill_chaos():
    """A killed-and-respawned worker rebuilds its paced planner from
    config; the merged schedules still respect the budget everywhere."""
    pace = 6
    cfg = StabilityConfig(
        scenario="flash-crowd", messages=1200, seed=2, pace=pace,
    ).to_serve_config()
    plan = ChaosPlan((ChaosEvent(9, CHAOS_KILL_WORKER, 1),))
    loop = ProcPoolLoop(cfg, processes=2, chaos=plan)
    report = loop.run()
    assert report.supervisor.worker_deaths >= 1
    _assert_bound(report, pace)


def test_paced_run_identical_across_drivers(tmp_path):
    """Pacing is config, not driver behavior: the in-process driver and
    the procpool driver at one and two workers produce the same journal
    bytes and the same realized step-work profile."""
    cfg = StabilityConfig(
        scenario="diurnal", messages=800, seed=4, pace=8,
    ).to_serve_config()
    paths = [tmp_path / f"j{i}" for i in range(3)]
    inproc = ServiceLoop(cfg, journal=paths[0]).run()
    single = ProcPoolLoop(cfg, processes=1, journal=paths[1]).run()
    procs = ProcPoolLoop(cfg, processes=2, journal=paths[2]).run()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() == paths[2].read_bytes()
    assert (inproc.snapshot["pace"] == single.snapshot["pace"]
            == procs.snapshot["pace"])


def test_harness_reports_the_realized_bound():
    pace = 8
    doc = run_stability(StabilityConfig(
        scenario="flash-crowd", messages=1000, seed=1, pace=pace,
    ))
    assert 0 < doc["pace"]["max_step_work"] <= pace
    shards = doc["pace"]["shards"]
    assert doc["pace"]["max_step_work"] == max(
        s["max_step_work"] for s in shards
    )


def _plans(pace: int):
    """An engine with ten messages at the root, and two plans for them:
    one with a 7-message obligation, one with a 3-message one."""
    topo = balanced_tree(2, 2)
    engine = ShardEngine(0, topo, 2, 8, pace=pace)
    left, right = topo.children_of(topo.root)
    for m in range(10):
        engine.admit(m, topo.leaves_under(left if m < 7 else right)[0], 1)
    first = [Flush(topo.root, left, tuple(range(7))),
             Flush(topo.root, right, (7, 8, 9))]
    second = [Flush(left, topo.leaves_under(left)[0], tuple(range(7)))]
    return engine, first, second


def _held(engine) -> "list[Flush]":
    return [pf.flush for pf in engine.pending]


def test_engine_paces_every_plan_it_takes():
    """``pace > 0``: ``set_plan`` and ``append_plan`` hold exactly
    ``pace_flush_list(flushes, pace)``; ``pace == 0``: the same objects."""
    engine, first, second = _plans(pace=3)
    engine.set_plan(first)
    paced_first = pace_flush_list(first, 3)
    assert len(paced_first) > len(first)  # the 7-message obligation split
    assert _held(engine) == paced_first
    engine.append_plan(second)
    assert _held(engine) == paced_first + pace_flush_list(second, 3)
    assert engine.pending_flushes == len(_held(engine))
    assert all(f.size <= 3 for f in _held(engine))

    engine, first, second = _plans(pace=0)
    engine.set_plan(first)
    engine.append_plan(second)
    held = _held(engine)
    assert len(held) == len(first + second)
    assert all(a is b for a, b in zip(held, first + second))
    assert engine.pending_flushes == 3
    with pytest.raises(InvalidInstanceError):
        ShardEngine(0, balanced_tree(2, 2), 2, 8, pace=-1)
