"""The realized schedule of a serving run is a flat flush log.

The flush gate appends each flush it runs to its shard's
:class:`~repro.dam.schedule.FlushLog`, the process driver copies its
workers' flush runs into the parent's logs, and no
:class:`~repro.dam.schedule.Flush` is built until someone reads
``report.shard_schedules``.  Each journal checkpoint's flush count and
digest of a shard are those of the shard's realized log through the
checkpoint's step — under the process driver too, whose parent logs
already hold the rest of a chunk when a checkpoint is sealed.
"""

from __future__ import annotations

import pytest

from repro.dam.journal import scan_journal
from repro.dam.records import REC_CHECKPOINT
from repro.dam.schedule import Flush, LogDigest, log_digest
from repro.serve.loop import ServeConfig, ServiceLoop
from repro.serve.procpool import ProcPoolLoop

CONFIG = ServeConfig(
    arrivals="poisson", rate=6.0, messages=600, shards=2, P=2, B=8,
    seed=3, fault_rate=0.3, fault_seed=5, checkpoint_every=5,
)


def _count_flush_builds(monkeypatch) -> list:
    """Count every Flush built from here on."""
    built = []
    init = Flush.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Flush, "__init__", counting_init)
    return built


@pytest.mark.parametrize("driver", ["inprocess", "procpool"])
def test_faulty_journaled_run_logs_flushes_flat(driver, tmp_path,
                                                monkeypatch):
    built = _count_flush_builds(monkeypatch)
    logs_ahead = []
    advance = LogDigest.advance

    def spy(digest, log, step):
        value = advance(digest, log, step)
        logs_ahead.append(digest._offset < len(log.runs))
        return value

    monkeypatch.setattr(LogDigest, "advance", spy)
    path = tmp_path / "serve.journal"
    if driver == "procpool":
        loop = ProcPoolLoop(CONFIG, processes=1, journal=path)
    else:
        loop = ServiceLoop(CONFIG, journal=path)
    report = loop.run()
    assert report.completions
    assert sum(s.partial_deliveries for s in report.shard_stats) > 0
    assert built == []

    checkpoints = [rec for rec in scan_journal(path).records
                   if rec["type"] == REC_CHECKPOINT]
    assert len(checkpoints) > 10
    if driver == "procpool":
        # Checkpoints fall inside chunks: the parent's logs run ahead.
        assert any(logs_ahead)
    for rec in checkpoints:
        pairs = [log_digest(log, rec["t"]) for log in report.shard_logs]
        assert rec["flushes"] == [n for n, _digest in pairs]
        assert rec["digests"] == [digest.hex() for _n, digest in pairs]
    assert checkpoints[-1]["flushes"] == \
        [s.flushes for s in report.shard_stats]
    for sid, log in enumerate(report.shard_logs):
        runs = list(log)
        assert all(list(msgs) == sorted(set(msgs))
                   for _t, _src, _dest, msgs in runs)
        assert len(log) == report.shard_stats[sid].flushes

    schedules = report.shard_schedules
    assert len(built) == sum(len(log) for log in report.shard_logs)
    assert report.shard_schedules is schedules
    for log, sched in zip(report.shard_logs, schedules):
        runs = list(log)
        assert [(t, f.src, f.dest, f.messages)
                for t, f in sched.iter_timed()] == runs
        assert sched.n_steps == (runs[-1][0] if runs else 0)
