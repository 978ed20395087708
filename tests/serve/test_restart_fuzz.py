"""Kill-at-every-offset fuzz over a supervised run with a live restart.

The supervised chaos run exercises the riskiest journal shape: a
mid-run shard kill triggers a live restart, which seals durability with
an extra checkpoint and keeps writing afterwards.  Truncating that
journal at any byte and recovering must reproduce the original
completions exactly — or fail with a typed
:class:`JournalCorruptionError` — never a silently different run.
"""

from __future__ import annotations

import pytest

from repro.dam.journal import journal_segments
from repro.faults import (
    CHAOS_KILL,
    CHAOS_STALL,
    ChaosEvent,
    ChaosPlan,
)
from repro.serve import ServeConfig, ServiceLoop
from tests.journal_sweep import serve_sweep

PLAN = ChaosPlan((
    ChaosEvent(9, CHAOS_STALL, 1, duration=8),
    ChaosEvent(14, CHAOS_KILL, 0),
))


def chaos_run(path, *, max_segment_bytes=None, **overrides):
    cfg = dict(arrivals="poisson", rate=8.0, messages=120, shards=2,
               seed=6, P=3, B=8, epoch=4, checkpoint_every=4)
    cfg.update(overrides)
    return ServiceLoop(
        ServeConfig(**cfg), chaos=PLAN, journal=path,
        max_segment_bytes=max_segment_bytes,
    ).run()


@pytest.fixture(scope="module")
def restarted_journal(tmp_path_factory):
    path = tmp_path_factory.mktemp("sup") / "chaos.journal"
    report = chaos_run(path)
    assert report.supervisor.restarts >= 1, "scenario must restart a shard"
    return report, path


def test_restart_checkpoint_is_in_the_journal(restarted_journal):
    """The live restart seals durability with an extra checkpoint."""
    from repro.dam.journal import REC_CHECKPOINT, scan_journal

    report, path = restarted_journal
    checkpoints = [
        r for r in scan_journal(path).records
        if r["type"] == REC_CHECKPOINT
    ]
    # More checkpoints than the cadence alone would write.
    assert len(checkpoints) > report.n_steps // 4


def test_kill_at_every_offset_restart_run(restarted_journal, tmp_path,
                                          monkeypatch):
    """Truncate at every byte: the fixture journal, then a larger run
    rotated across several segments."""
    report, path = restarted_journal
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
