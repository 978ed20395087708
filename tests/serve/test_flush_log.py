"""The realized schedule of a serving run is a flat flush log.

The flush gate appends each flush it runs to its shard's
:class:`~repro.dam.schedule.FlushLog`, the process driver copies its
workers' flush runs into the parent's logs, and no
:class:`~repro.dam.schedule.Flush` is built until someone reads
``report.shard_schedules``.  Each shard's log is, run for run, the flush
records the run journaled for that shard.
"""

from __future__ import annotations

import pytest

from repro.dam.journal import scan_journal
from repro.dam.records import REC_FLUSH
from repro.dam.schedule import Flush
from repro.serve.loop import ServeConfig, ServiceLoop
from repro.serve.procpool import ProcPoolLoop

CONFIG = ServeConfig(
    arrivals="poisson", rate=6.0, messages=600, shards=2, P=2, B=8,
    seed=3, fault_rate=0.3, fault_seed=5,
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
    path = tmp_path / "serve.journal"
    if driver == "procpool":
        loop = ProcPoolLoop(CONFIG, processes=1, journal=path)
    else:
        loop = ServiceLoop(CONFIG, journal=path)
    report = loop.run()
    assert report.completions
    assert sum(s.partial_deliveries for s in report.shard_stats) > 0
    assert built == []

    journaled = {sid: [] for sid in range(CONFIG.shards)}
    for rec in scan_journal(path).records:
        if rec["type"] == REC_FLUSH:
            journaled[rec["shard"]].append(
                (rec["t"], rec["src"], rec["dest"], tuple(rec["msgs"]))
            )
    for sid, log in enumerate(report.shard_logs):
        runs = list(log)
        assert runs == journaled[sid]
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
