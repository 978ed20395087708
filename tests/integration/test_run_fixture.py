"""A committed ``run`` journal recovers exactly, and ``run`` rewrites it.

``data/run_m200_r01.woj`` is the journal ``FIXTURE_ARGV`` writes: 200
messages on the default instance under iid faults at rate 0.1, which
takes 68 steps with total completion time 6240.  ``recover`` rebuilds
the run from the journal's ``meta`` record alone, so the fixture pins
that meta format: a journal written before a change to how ``run``
builds its config must still recover exactly after it.  The same argv
must also write the same bytes today, and a second argv that sets every
``run`` fault and journal flag is pinned by a digest of its segments.

Regenerate the fixture (only when the journal format is *meant* to
change) with ``PYTHONPATH=src python -m tests.integration.test_run_fixture``.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

from repro.__main__ import main
from repro.dam.journal import journal_segments
from repro.faults import truncate_at

FIXTURE = Path(__file__).with_name("data") / "run_m200_r01.woj"

FIXTURE_ARGV = ["run", "--messages", "200", "--rate", "0.1",
                "--checkpoint-every", "8"]

RESUMED = ("resumed run: 68 steps, total completion time 6240 "
           "(validated identical to the uninterrupted run)")

EVERY_FLAG_ARGV = [
    "run", "--messages", "150", "--fanout", "3", "--height", "3",
    "--P", "2", "--B", "12", "--skew", "0.5", "--seed", "4",
    "--checkpoint-every", "8", "--rate", "0.3", "--burst", "--fault-aware",
    "--retry-budget", "3", "--fault-seed", "2", "--max-segment-bytes",
    "4096", "--compact-every", "1", "--sync",
]

EVERY_FLAG_SHA256 = \
    "07f5613b27a3933e1d19173a372da61469b2b9b662e03031aaa35ea0fcf9f87b"


def _segments_digest(path: Path) -> str:
    h = hashlib.sha256()
    for segment in journal_segments(path):
        h.update(segment.read_bytes())
    return h.hexdigest()


def test_fixture_recovers_exactly(tmp_path, capsys):
    journal = tmp_path / FIXTURE.name
    shutil.copyfile(FIXTURE, journal)
    assert main(["recover", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "journal records a completed run" in out
    assert RESUMED in out
    assert journal.read_bytes() == FIXTURE.read_bytes()


def test_torn_fixture_recovers_exactly(tmp_path, capsys):
    torn = truncate_at(FIXTURE, FIXTURE.stat().st_size * 3 // 5,
                       out=tmp_path / "torn.woj")
    assert main(["recover", str(torn)]) == 0
    out = capsys.readouterr().out
    assert "torn tail" in out
    assert RESUMED in out


def test_run_rewrites_the_fixture_byte_for_byte(tmp_path, capsys):
    journal = tmp_path / "run.woj"
    assert main([*FIXTURE_ARGV, "--journal", str(journal)]) == 0
    assert "total completion time 6240" in capsys.readouterr().out
    assert journal.read_bytes() == FIXTURE.read_bytes()


def test_every_flag_run_journal_is_pinned(tmp_path, capsys):
    journal = tmp_path / "every.woj"
    assert main([*EVERY_FLAG_ARGV, "--journal", str(journal)]) == 0
    capsys.readouterr()
    assert len(journal_segments(journal)) > 1
    assert _segments_digest(journal) == EVERY_FLAG_SHA256
    assert main(["recover", str(journal)]) == 0
    assert "validated identical" in capsys.readouterr().out


if __name__ == "__main__":
    FIXTURE.unlink(missing_ok=True)
    main([*FIXTURE_ARGV, "--journal", str(FIXTURE)])
