"""Recovery holds one checkpoint of a served journal, not the journal.

:class:`RecoveryManager` folds each record as the scan decodes it, and
:class:`RecoveryFold` keeps only the newest checkpoint (its per-shard
flush counts and digests), so recovering a journal costs the same few
kilobytes however long the run was.  ``recover_serve`` re-derives the
run holding only the fold: no other decoded record is alive while the
re-derivation runs.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.dam.journal import REC_CHECKPOINT, RecoveryManager, scan_journal
from repro.serve import ServeConfig, ServiceLoop, loop

#: Bytes a fold may hold, and peak at, whatever the journal's length:
#: the meta, one checkpoint, the scan's framing and one record's decode.
HELD_BYTES = 16384
PEAK_BYTES = 65536


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "run.woj"
    report = ServiceLoop(ServeConfig(messages=2000, shards=2, seed=1,
                                     checkpoint_every=1),
                         journal=path).run()
    n_records = len(scan_journal(path).records)
    assert n_records > 250
    return path, report, n_records


def test_fold_memory_does_not_grow_with_the_journal(served):
    path, _report, n_records = served
    gc.collect()
    tracemalloc.start()
    try:
        manager = RecoveryManager(path)
        fold = manager.fold()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fold.completed and fold.meta is not None
    # The scan keeps one end offset (8 bytes) per record; the fold
    # keeps one checkpoint.
    assert held < HELD_BYTES + 8 * n_records
    assert peak < PEAK_BYTES + 8 * n_records


def _live_checkpoint_records() -> int:
    gc.collect()
    return sum(
        1 for obj in gc.get_objects()
        if type(obj) is dict and obj.get("type") == REC_CHECKPOINT
    )


def test_no_record_is_alive_during_rederivation(served, monkeypatch):
    path, report, _n = served
    seen = []
    rederive = loop.rederive_serve

    def counted(meta, driver=None):
        seen.append(_live_checkpoint_records())
        return rederive(meta, driver)

    monkeypatch.setattr(loop, "rederive_serve", counted)
    before = _live_checkpoint_records()  # whatever other tests left alive
    recovered = loop.recover_serve(path)
    assert seen == [before + 1]  # the fold's newest checkpoint
    assert recovered.report.completions == report.completions
