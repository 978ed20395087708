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

from repro.faults import CHAOS_KILL_WORKER, ChaosEvent, ChaosPlan
from repro.serve import ProcPoolLoop, ServiceLoop
from repro.serve.loop import build_planner
from repro.serve.planner import EpochPlanner, PacedPlanner
from repro.stability import StabilityConfig, run_stability
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


def test_build_planner_selects_paced_variant():
    off = StabilityConfig(scenario="diurnal").to_serve_config()
    assert type(build_planner(off)) is EpochPlanner
    on = StabilityConfig(scenario="diurnal", pace=5).to_serve_config()
    paced = build_planner(on)
    assert isinstance(paced, PacedPlanner)
    assert paced.pace == 5
    assert paced.epoch_length == on.epoch
    with pytest.raises(InvalidInstanceError):
        PacedPlanner(4, pace=0)
