"""Kill-at-every-offset fuzz over a shard-per-process chaos journal.

Same contract as ``test_restart_fuzz`` but for the riskiest journal the
multi-process driver writes: a ``kill-worker`` event SIGKILLs a real
worker process mid-run, the restart seals durability with an extra
checkpoint, and (with diversion on) a ``divert`` record moves key-range
ownership.  Truncating that journal at any byte and recovering must
reproduce the original completions exactly — recovery re-runs the same
``ProcPoolLoop`` driver, per the journal's ``driver`` meta — or fail
with a typed :class:`JournalCorruptionError`; never a silently
different run.
"""

from __future__ import annotations

import pytest

from repro.dam.journal import journal_segments
from repro.faults import (
    CHAOS_KILL_WORKER,
    CHAOS_STALL,
    ChaosEvent,
    ChaosPlan,
)
from repro.serve import (
    ProcPoolLoop,
    ServeConfig,
    SupervisorConfig,
)
from tests.journal_sweep import serve_sweep

PLAN = ChaosPlan((
    ChaosEvent(9, CHAOS_STALL, 1, duration=8),
    ChaosEvent(14, CHAOS_KILL_WORKER, 0),
))


def chaos_run(path, *, max_segment_bytes=None, **overrides):
    cfg = dict(arrivals="poisson", rate=8.0, messages=120, shards=2,
               seed=6, P=3, B=8, epoch=4, checkpoint_every=4)
    cfg.update(overrides)
    return ProcPoolLoop(
        ServeConfig(**cfg), processes=2, chaos=PLAN, journal=path,
        supervisor=SupervisorConfig(divert=True),
        max_segment_bytes=max_segment_bytes,
    ).run()


@pytest.fixture(scope="module")
def procpool_journal(tmp_path_factory):
    path = tmp_path_factory.mktemp("proc") / "chaos.journal"
    report = chaos_run(path)
    sup = report.supervisor
    assert sup.worker_deaths >= 1, "scenario must kill a real worker"
    assert sup.worker_respawns >= 1, "and respawn a fresh process"
    return report, path


def test_journal_names_the_procpool_driver(procpool_journal):
    from repro.dam.journal import RecoveryManager

    _report, path = procpool_journal
    driver = RecoveryManager(path).meta["driver"]
    assert driver == {"kind": "procpool", "processes": 2}


def test_kill_at_every_offset_procpool_run(procpool_journal, tmp_path,
                                           monkeypatch):
    """Truncate at every byte: the fixture journal, then a larger run
    rotated across several segments."""
    report, path = procpool_journal
    counts = serve_sweep(path, report, tmp_path / "cut", monkeypatch)
    assert counts["offsets"] == path.stat().st_size + 1
    assert counts["exact"] > 0

    path = tmp_path / "chaos.journal"
    report = chaos_run(path, messages=150, max_segment_bytes=2048)
    segments = journal_segments(path)
    assert len(segments) > 1
    counts = serve_sweep(path, report, tmp_path / "cut", monkeypatch,
                         seed=1)
    assert counts["offsets"] == sum(s.stat().st_size + 1 for s in segments)
    assert counts["exact"] > 0
