"""Serving journals recover under the driver that wrote them.

* A run whose meta names no driver (faults, no chaos, default
  supervision) journals a one-time ``driver`` record at its first
  breaker trip, and ``recover_serve`` re-derives the run through that
  driver — in-process and procpool alike.
* Journals written by the retired thread-pool driver (meta
  ``{"kind": "threads", "workers": N}`` plus the retired
  ``watchdog_budget`` key) and by the retired unsupervised loop still
  parse: their meta maps onto today's config and driver.  Recovery re-derives a run by
  replaying it, and every one of them was written by a planner whose
  full re-plans ran the online density heuristic at ``B/6`` — so
  today's replay is a different run, and recovery says so with a typed
  ``schedule-mismatch`` error instead of a wrong answer.  (Before that
  planner changed, the thread-era and fault-free plain-era journals
  re-derived byte-exact; the plain-era run that would trip a breaker
  already failed typed.)
* Journals written while the planner still appended incremental plans
  behind the pending list, while ``serve --pace`` still existed, and
  with ``serve --fault-aware`` admission on, fail the same typed way:
  today every plan is a full re-plan taken whole, and a retired key in
  meta (``pace``, ``fault_aware``) no longer names a config field, so
  its replay is the run without it.
* A journal written while a quarantined shard's arrivals waited in a
  separate spill queue (meta ``spill_capacity``, divert records listing
  the spilled messages a late diversion handed to the neighbor) fails
  the same typed way: today those arrivals wait in the shard's own
  lanes and a diversion moves only later arrivals, so the replay is a
  different run.
* The older fixtures were written as ``WOJ1`` journals and re-encoded
  record for record when the format moved to ``WOJ2``; a digest of each
  one's scanned records (the same for any encoding) pins that.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.dam.compaction import compact_journal
from repro.dam.journal import (
    REC_DIVERT,
    REC_DRIVER,
    RecoveryManager,
    scan_journal,
)
from repro.serve import (
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
    recover_serve,
)
from repro.util.errors import JournalCorruptionError
from tests.journal_sweep import records_digest

DATA = Path(__file__).parent / "data"

#: fixture -> digest of its scanned records (the same for any encoding
#: of the same records).
ERA_RECORDS = {
    "aware_era.woj":
        "2ec14f3a2fcd201442f94004e940d9803243a084f7c50e456a8720647eb971f3",
    "incremental_era.woj":
        "b5ede7389cc6f901590debc886845de10fee8646aa094b7bc4789f9bb15206d5",
    "paced_era.woj":
        "24375040fb30d972912491082b37aa7dee9c1cd5b413ff305919adbe8972e8f6",
    "plain_fault_free.woj":
        "9daf8dbd59b7504c9480a0863b4ead9594af708eb6b87179604206b2c3f45b10",
    "plain_s1.woj":
        "977f20a8037b8fb31b7afd56ee80e70e97d933b1a75ab83b08aec61382cebea2",
    "spill_era.woj":
        "4c3a7b410f6ed9b02e2a656d23647014e325de39708862e09d2c24ad24b4c2cd",
    "threads_era.woj":
        "86ede3ad64566417a13ed88ee4fcfa268ead670c41ace04fbdded6de2fee71a9",
}


def faulty_config(seed: int, fault_rate: float = 0.5) -> ServeConfig:
    return ServeConfig(rate=6.0, messages=400, shards=2, seed=seed,
                       fault_rate=fault_rate, fault_seed=seed)


#: Four in five flush attempts fail: some epoch stalls whatever order
#: the planner puts the flushes in (every seed of 1-20 trips a breaker
#: under both the incremental-era planner and today's), so the cases
#: below need no seeds picked to match one planner's plans.
TRIPPING_RATE = 0.8


DRIVERS = {
    "inprocess": lambda cfg, path: ServiceLoop(cfg, journal=path),
    "procpool": lambda cfg, path: ProcPoolLoop(cfg, processes=2,
                                               journal=path),
}


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_tripped_fault_journal_recovers(tmp_path, driver, seed):
    cfg = faulty_config(seed, TRIPPING_RATE)
    path = tmp_path / "faulty.woj"
    report = DRIVERS[driver](cfg, path).run()
    assert report.supervisor.trips >= 1
    # Default supervision, no chaos: the meta is the bare config.
    assert not {"driver", "chaos", "supervisor"} & \
        RecoveryManager(path).meta.keys()
    records = [r for r in scan_journal(path).records
               if r["type"] == REC_DRIVER]
    assert [r["driver"]["kind"] for r in records] == [driver]
    rec = recover_serve(path)
    assert rec.run_completed
    assert rec.report.completions == report.completions


def test_driver_record_survives_compaction(tmp_path):
    cfg = faulty_config(1, TRIPPING_RATE)
    path = tmp_path / "seg.woj"
    report = ServiceLoop(cfg, journal=path, max_segment_bytes=4096).run()
    compact_journal(path)
    assert any(r["type"] == REC_DRIVER
               for r in scan_journal(path).records)
    assert recover_serve(path).report.completions == report.completions


@pytest.mark.parametrize("name", sorted(ERA_RECORDS))
def test_era_fixture_records_are_pinned(name):
    assert records_digest(DATA / name) == ERA_RECORDS[name]


def test_thread_era_journal_fails_typed():
    """Written by the thread-pool driver with ``workers=2``, a
    ``kill-worker`` drill, and a non-default ``SupervisorConfig`` whose
    meta carries the retired ``watchdog_budget``; its plans are the old
    planner's, so it cannot be re-derived byte-exact."""
    path = DATA / "threads_era.woj"
    meta = RecoveryManager(path).meta
    assert meta["driver"] == {"kind": "threads", "workers": 2}
    assert meta["supervisor"]["watchdog_budget"] == 5
    with pytest.raises(JournalCorruptionError) as exc:
        recover_serve(path, repair=False)
    assert exc.value.reason == "schedule-mismatch"


def test_plain_era_fault_free_journal_fails_typed():
    """Fault-free: supervision never engaged, but the run's plans are
    the old planner's, so its flushes are not in the re-derived run."""
    path = DATA / "plain_fault_free.woj"
    meta = RecoveryManager(path).meta
    assert ServeConfig.from_meta(meta) == \
        ServeConfig(rate=6.0, messages=200, shards=2, seed=1)
    assert not {"driver", "chaos", "supervisor"} & meta.keys()
    with pytest.raises(JournalCorruptionError) as exc:
        recover_serve(path, repair=False)
    assert exc.value.reason == "schedule-mismatch"


def test_plain_era_journal_that_would_trip_fails_typed():
    """``faulty_config(1)``: the unsupervised loop rode out its stalled
    epochs, today's loop trips a breaker on them, so the journal's
    flushes are not in the re-derived run."""
    path = DATA / "plain_s1.woj"
    assert ServeConfig.from_meta(RecoveryManager(path).meta) == \
        faulty_config(1)
    assert not any(r["type"] == REC_DRIVER
                   for r in scan_journal(path).records)
    with pytest.raises(JournalCorruptionError) as exc:
        recover_serve(path, repair=False)
    assert exc.value.reason == "schedule-mismatch"


def test_incremental_era_journal_fails_typed():
    """Fault-free and unpaced, but four of the run's ten plans were
    incremental plans appended behind the pending list, so its flushes
    are not in today's full-re-plan run."""
    path = DATA / "incremental_era.woj"
    meta = RecoveryManager(path).meta
    assert ServeConfig.from_meta(meta) == \
        ServeConfig(rate=6.0, messages=200, shards=2, seed=1)
    assert not {"driver", "chaos", "supervisor", "pace"} & meta.keys()
    with pytest.raises(JournalCorruptionError) as exc:
        recover_serve(path, repair=False)
    assert exc.value.reason == "schedule-mismatch"


def test_paced_era_journal_fails_typed():
    """Written by ``serve --pace 4``: the pace key is no config field any
    more, so recovery replays the unpaced run, and the journal's split
    flushes are not in it."""
    path = DATA / "paced_era.woj"
    meta = RecoveryManager(path).meta
    assert meta["pace"] == 4
    assert ServeConfig.from_meta(meta) == \
        ServeConfig(rate=6.0, messages=200, shards=2, seed=1)
    with pytest.raises(JournalCorruptionError) as exc:
        recover_serve(path, repair=False)
    assert exc.value.reason == "schedule-mismatch"


def test_aware_era_journal_fails_typed():
    """Written with ``fault_aware=True`` on E14's faulty-serving config
    (seed 1, fault seed 5): completion-first triage under degraded ``P``
    moved flushes, so the journal's flushes are not in the replay, which
    runs every step's pending scan in plan order."""
    path = DATA / "aware_era.woj"
    meta = RecoveryManager(path).meta
    assert meta["fault_aware"] is True
    assert ServeConfig.from_meta(meta) == ServeConfig(
        arrivals="mmpp", rate=3.0, burst_rate=24.0, messages=1200,
        shards=4, P=4, B=16, seed=1, fault_rate=0.2, fault_seed=5,
    )
    with pytest.raises(JournalCorruptionError) as exc:
        recover_serve(path, repair=False)
    assert exc.value.reason == "schedule-mismatch"


def test_spill_era_journal_fails_typed():
    """``tests/serve/test_divert.py``'s double kill (2 shards, seed 3,
    260 messages at rate 10, divert on), written with
    ``spill_capacity=40``: shard 1's spill overflowed, and the late
    diversion handed its 40 spilled messages to shard 0.  Today those
    arrivals wait in shard 1's lanes (the retired key is ignored), so
    the journal's flushes are not in the replay."""
    path = DATA / "spill_era.woj"
    meta = RecoveryManager(path).meta
    assert meta["supervisor"]["spill_capacity"] == 40
    assert ServeConfig.from_meta(meta) == ServeConfig(
        rate=10.0, messages=260, shards=2, seed=3, P=3, B=8, epoch=4,
        checkpoint_every=4,
    )
    handed = [r["msgs"] for r in scan_journal(path).records
              if r["type"] == REC_DIVERT and r["from"] != r["to"]]
    assert [len(msgs) for msgs in handed] == [0, 40]
    with pytest.raises(JournalCorruptionError) as exc:
        recover_serve(path, repair=False)
    assert exc.value.reason == "schedule-mismatch"
