"""``--pace`` off must be invisible: byte-parity with the pre-pacing repo.

The controller-off path is a compatibility contract, not a behavior:
with ``pace=0`` the planner is the plain :class:`EpochPlanner`, the
engine gate never consults a budget, journal meta carries no ``pace``
key, and every driver writes the exact bytes it wrote before the
controller existed.  These tests pin that contract so a future paced
default can't silently leak into unpaced runs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.dam.journal import scan_journal
from repro.serve import (
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
    recover_serve,
)
from repro.stability import StabilityConfig


def _mmpp_config(**overrides) -> ServeConfig:
    base = dict(arrivals="mmpp", rate=5.0, burst_rate=20.0, p_burst=0.05,
                p_calm=0.2, messages=400, shards=4, seed=6, P=3, B=8,
                epoch=4, checkpoint_every=4)
    base.update(overrides)
    return ServeConfig(**base)


def test_pace_zero_meta_is_byte_identical_to_no_pace_mention():
    """A config that never mentions pace and one that sets pace=0 have
    identical journal meta — the ``pace`` key is opt-in, so pre-pacing
    journals and pace-0 journals are indistinguishable."""
    silent = _mmpp_config()
    explicit = replace(silent, pace=0)
    assert silent.to_meta() == explicit.to_meta()
    assert "pace" not in silent.to_meta()
    paced = replace(silent, pace=8)
    assert paced.to_meta()["pace"] == 8


def test_pace_off_journals_byte_identical_across_drivers(tmp_path):
    cfg = _mmpp_config()
    paths = [tmp_path / f"j{i}" for i in range(3)]
    inproc = ServiceLoop(cfg, journal=paths[0]).run()
    single = ProcPoolLoop(cfg, processes=1, journal=paths[1]).run()
    procs = ProcPoolLoop(cfg, processes=2, journal=paths[2]).run()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() == paths[2].read_bytes()
    assert inproc.completions == single.completions == procs.completions
    # the off path has no pace section anywhere in the report.
    for report in (inproc, single, procs):
        assert "pace" not in report.snapshot


def test_pace_off_schedules_match_pace_never_mentioned():
    """Same realized flush schedules whether pace=0 is explicit or the
    field is left untouched — the gate takes the identical branch."""
    silent = ServiceLoop(_mmpp_config()).run()
    explicit = ServiceLoop(replace(_mmpp_config(), pace=0)).run()
    assert len(silent.shard_schedules) == len(explicit.shard_schedules)
    for a, b in zip(silent.shard_schedules, explicit.shard_schedules):
        assert list(a.iter_timed()) == list(b.iter_timed())


def test_stability_scenario_pace_off_matches_plain_serve(tmp_path):
    """The stability harness's pace=0 serve-config writes the same
    journal bytes as the hand-built equivalent ServeConfig."""
    stab = StabilityConfig(scenario="diurnal", messages=300, seed=2)
    cfg = stab.to_serve_config()
    assert cfg.pace == 0
    a, b = tmp_path / "a", tmp_path / "b"
    ServiceLoop(cfg, journal=a).run()
    ServiceLoop(stab.to_serve_config(), journal=b).run()
    assert a.read_bytes() == b.read_bytes()


def test_paced_journal_round_trips_through_recovery(tmp_path):
    """pace rides the journal meta: recovery rebuilds a paced config
    and replays to the same completions."""
    cfg = _mmpp_config(pace=8)
    path = tmp_path / "paced.journal"
    report = ServiceLoop(cfg, journal=path).run()
    meta = scan_journal(path).records[0]
    assert meta["type"] == "meta" and meta["pace"] == 8
    rec = recover_serve(path)
    assert rec.run_completed
    assert rec.report.config.pace == 8
    assert rec.report.completions == report.completions
