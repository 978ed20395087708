"""Supervised journals recover under the driver that wrote them.

* A supervised run whose meta names no driver (faults, no chaos, default
  supervision) is the plain loop's until its first breaker trip; the trip
  journals a one-time ``driver`` record, and ``recover_serve`` re-derives
  the run through that driver — in-process and procpool alike.
* Journals written by the retired thread-pool driver (meta
  ``{"kind": "threads", "workers": N}`` plus the retired
  ``watchdog_budget`` key) still recover exactly, in-process.
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
    SupervisedLoop,
    recover_serve,
)
from repro.util.errors import ExecutionStalledError

DATA = Path(__file__).parent / "data"


def completions_digest(completions: dict) -> str:
    return hashlib.sha256(
        json.dumps(sorted(completions.items())).encode()
    ).hexdigest()


def faulty_config(seed: int) -> ServeConfig:
    return ServeConfig(rate=6.0, messages=400, shards=2, seed=seed,
                       fault_rate=0.5, fault_seed=seed)


DRIVERS = {
    "inprocess": lambda cfg, path: SupervisedLoop(cfg, journal=path),
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
    assert "driver" not in RecoveryManager(path).meta
    records = [r for r in scan_journal(path).records
               if r["type"] == REC_DRIVER]
    assert [r["driver"]["kind"] for r in records] == [driver]
    rec = recover_serve(path)
    assert rec.run_completed
    assert rec.report.completions == report.completions


def test_journal_before_the_driver_record_is_the_plain_loops(tmp_path):
    cfg = faulty_config(1)
    sup_path, plain_path = tmp_path / "sup.woj", tmp_path / "plain.woj"
    SupervisedLoop(cfg, journal=sup_path).run()
    try:
        ServiceLoop(cfg, journal=plain_path).run()
    except ExecutionStalledError:
        pass  # the plain loop may stall where supervision quarantined
    sup, plain = sup_path.read_bytes(), plain_path.read_bytes()
    cut = sup.index(b'{"type":"driver"')
    # Back up to the record's length/CRC prefix.
    prefix = sup[:cut - 8]
    assert b'"type":"flush"' in prefix
    assert plain.startswith(prefix)


def test_driver_record_survives_compaction(tmp_path):
    cfg = faulty_config(1)
    path = tmp_path / "seg.woj"
    report = SupervisedLoop(cfg, journal=path,
                            max_segment_bytes=4096).run()
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
