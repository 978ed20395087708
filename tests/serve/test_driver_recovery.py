"""Serving journals recover under the driver that wrote them.

* A run whose meta names no driver (faults, no chaos, default
  supervision) journals a one-time ``driver`` record at its first
  breaker trip, and ``recover_serve`` re-derives the run through that
  driver — in-process and procpool alike.
* Journals written by the retired thread-pool driver (meta
  ``{"kind": "threads", "workers": N}`` plus the retired
  ``watchdog_budget`` key) still recover exactly, in-process.
* Journals written by the retired unsupervised loop (``plain_era.json``
  names each one's config) recover exactly when that run never stalled
  an epoch long enough to trip a breaker.  One that would have tripped
  replays a different run today, and recovery says so with a typed
  ``schedule-mismatch`` error instead of a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.dam.compaction import compact_journal
from repro.dam.journal import REC_DRIVER, RecoveryManager, scan_journal
from repro.serve import (
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
    recover_serve,
)
from repro.util.errors import JournalCorruptionError

DATA = Path(__file__).parent / "data"


def completions_digest(completions: dict) -> str:
    return hashlib.sha256(
        json.dumps(sorted(completions.items())).encode()
    ).hexdigest()


def faulty_config(seed: int) -> ServeConfig:
    return ServeConfig(rate=6.0, messages=400, shards=2, seed=seed,
                       fault_rate=0.5, fault_seed=seed)


DRIVERS = {
    "inprocess": lambda cfg, path: ServiceLoop(cfg, journal=path),
    "procpool": lambda cfg, path: ProcPoolLoop(cfg, processes=2,
                                               journal=path),
}


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_tripped_fault_journal_recovers(tmp_path, driver, seed):
    cfg = faulty_config(seed)
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
    cfg = faulty_config(1)
    path = tmp_path / "seg.woj"
    report = ServiceLoop(cfg, journal=path, max_segment_bytes=4096).run()
    compact_journal(path)
    assert any(r["type"] == REC_DRIVER
               for r in scan_journal(path).records)
    assert recover_serve(path).report.completions == report.completions


def test_thread_era_journal_recovers_to_its_digest():
    """Written by the thread-pool driver with ``workers=2``, a
    ``kill-worker`` drill, and a non-default ``SupervisorConfig`` whose
    meta carries the retired ``watchdog_budget``."""
    expected = json.loads((DATA / "threads_era.json").read_text())
    path = DATA / "threads_era.woj"
    meta = RecoveryManager(path).meta
    assert meta["driver"] == {"kind": "threads", "workers": 2}
    assert meta["supervisor"]["watchdog_budget"] == 5
    rec = recover_serve(path, repair=False)
    assert rec.run_completed
    assert completions_digest(rec.report.completions) == \
        expected["completions_sha256"]


def _plain_era(name: str) -> "tuple[Path, dict]":
    doc = json.loads((DATA / "plain_era.json").read_text())
    return DATA / name, doc["journals"][name]


def test_plain_era_journal_recovers_to_its_digest():
    """Fault-free: supervision never engaged, so today's loop re-derives
    the unsupervised run byte for byte."""
    path, expected = _plain_era("plain_fault_free.woj")
    meta = RecoveryManager(path).meta
    assert not {"driver", "chaos", "supervisor"} & meta.keys()
    rec = recover_serve(path, repair=False)
    assert rec.run_completed
    assert rec.replayed_flushes > 0
    assert completions_digest(rec.report.completions) == \
        expected["completions_sha256"]
    assert rec.report.supervisor.trips == 0


def test_plain_era_journal_that_would_trip_fails_typed():
    """``faulty_config(1)``: the unsupervised loop rode out its stalled
    epochs, today's loop trips a breaker on them, so the journal's
    flushes are not in the re-derived run."""
    path, _expected = _plain_era("plain_s1.woj")
    assert ServeConfig.from_meta(RecoveryManager(path).meta) == \
        faulty_config(1)
    assert not any(r["type"] == REC_DRIVER
                   for r in scan_journal(path).records)
    with pytest.raises(JournalCorruptionError) as exc:
        recover_serve(path, repair=False)
    assert exc.value.reason == "schedule-mismatch"
