"""Every-offset kill sweep over a full-size serving journal.

The journal of e2ebench's ``serve_bursty_durable`` config (MMPP calm 4
/ burst 32 msgs/step, Zipf 0.99 keys, 80k messages, seed 1) holds its
meta, ~290 checkpoints and its end.  The run here uses the ``sim``
engine: the ``lsm`` sink is a passive observer, so the journal is that
workload's byte for byte after the meta
(``tests/serve/test_lsm_engine.py``).  A kill at every byte of it
recovers the uninterrupted run exactly or fails typed
(``tests/journal_sweep.py``).
"""

from __future__ import annotations

import pytest

from repro.serve import ServeConfig, ServiceLoop
from tests.journal_sweep import serve_sweep

BURSTY = ServeConfig(
    arrivals="mmpp", rate=4.0, burst_rate=32.0, messages=80_000,
    shards=4, P=4, B=16, theta=0.99, max_queue=64 * 16, seed=1,
)


@pytest.mark.fuzz
def test_kill_at_every_offset_full_size_serve_journal(tmp_path,
                                                      monkeypatch):
    path = tmp_path / "serve.journal"
    report = ServiceLoop(BURSTY, journal=path).run()
    assert len(report.completions) == BURSTY.messages
    counts = serve_sweep(path, report, tmp_path / "cut", monkeypatch)
    assert counts["offsets"] == path.stat().st_size + 1
    assert counts["typed"] > 0 and counts["exact"] > counts["typed"]
