"""Recovery holds a served journal's flushes flat.

:class:`RecoveryManager` folds each record as the scan decodes it, and
:class:`RecoveryFold` keeps a flush as ``t, shard, src, dest, n,
m1..mn`` in one int array, so recovering a journal costs a few machine
words per flush, not a dict (and a list, and boxed ints) per record.
``recover_serve`` re-derives the run holding only the fold: no decoded
record is alive while the re-derivation runs.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.dam.journal import RecoveryManager, scan_journal
from repro.serve import ServeConfig, ServiceLoop, loop

#: Bytes a recovery may hold, and peak at, per journaled flush.  The
#: flat layout holds ~80 (8 per int at ~2.9 messages a flush, plus each
#: record's end offset); a dict per record held ~790 and peaked ~890.
HELD_PER_FLUSH = 160
PEAK_PER_FLUSH = 256


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "run.woj"
    report = ServiceLoop(ServeConfig(messages=2000, shards=2, seed=1),
                         journal=path).run()
    records = scan_journal(path).records
    n_flushes = sum(r["type"] == "flush" for r in records)
    assert n_flushes > 1500
    return path, report, n_flushes


def test_fold_holds_flushes_flat(served):
    path, _report, n_flushes = served
    gc.collect()
    tracemalloc.start()
    try:
        manager = RecoveryManager(path)
        fold = manager.fold()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fold.completed and fold.meta is not None
    assert held / n_flushes < HELD_PER_FLUSH
    assert peak / n_flushes < PEAK_PER_FLUSH


def _live_flush_records() -> int:
    gc.collect()
    return sum(
        1 for obj in gc.get_objects()
        if type(obj) is dict and obj.get("type") == "flush"
    )


def test_no_record_is_alive_during_rederivation(served, monkeypatch):
    path, report, _n = served
    seen = []
    rederive = loop.rederive_serve

    def counted(meta, driver=None):
        seen.append(_live_flush_records())
        return rederive(meta, driver)

    monkeypatch.setattr(loop, "rederive_serve", counted)
    before = _live_flush_records()  # whatever other tests left alive
    recovered = loop.recover_serve(path)
    assert seen == [before]
    assert recovered.report.completions == report.completions
