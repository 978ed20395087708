"""A committed ``run`` journal recovers exactly, and ``run`` rewrites it.

``data/run_m200_r01.woj`` is the journal ``FIXTURE_ARGV`` writes: 200
messages on the default instance under iid faults at rate 0.1, which
takes 68 steps with total completion time 6240.  ``recover`` rebuilds
the run from the journal's ``meta`` record alone, so the fixture pins
that meta format: a journal written before a change to how ``run``
builds its config must still recover exactly after it.  The same argv
must also write the same records today: the fixture's meta still
carries the retired ``fault_aware`` key (false), so the meta is compared
without it and every other record as written.  A second argv that sets
every ``run`` fault and journal flag is pinned by a digest of its
segments.  Both journals' records are pinned too, by a digest that is
the same for any encoding of the same records.  When the format moved
to ``WOJ3`` (checkpoints carry flush digests, no record per flush) the
fixture kept its committed ``meta`` record byte for byte and took the
rest from a fresh run of ``FIXTURE_ARGV``.

Regenerate the fixture (only when the journal format is *meant* to
change) with ``PYTHONPATH=src python -m tests.integration.test_run_fixture``.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

from repro.__main__ import main
from repro.dam.journal import REC_META, journal_segments, scan_journal
from repro.faults import truncate_at
from tests.journal_sweep import records_digest

FIXTURE = Path(__file__).with_name("data") / "run_m200_r01.woj"

FIXTURE_ARGV = ["run", "--messages", "200", "--rate", "0.1",
                "--checkpoint-every", "8"]

RESUMED = ("resumed run: 68 steps, total completion time 6240 "
           "(validated identical to the uninterrupted run)")

EVERY_FLAG_ARGV = [
    "run", "--messages", "150", "--fanout", "3", "--height", "3",
    "--P", "2", "--B", "12", "--skew", "0.5", "--seed", "4",
    "--checkpoint-every", "8", "--rate", "0.3", "--burst",
    "--retry-budget", "3", "--fault-seed", "2", "--max-segment-bytes",
    "4096", "--sync",
]

EVERY_FLAG_SHA256 = \
    "4dffd3347bf9e633c1898c19cbc69bcde7ec3c075d448495d9074be1f5e0bbc0"

FIXTURE_RECORDS = \
    "201b0d3b8bea83db1cf2ce65d1893ec81153cd3d3f25f12df7676b27294dc3ff"
EVERY_FLAG_RECORDS = \
    "3cb72a1d8f4b2bbe37c85ff9ec03ebf12ef154cafb08609ba1549e178f857279"


def _segments_digest(path: Path) -> str:
    h = hashlib.sha256()
    for segment in journal_segments(path):
        h.update(segment.read_bytes())
    return h.hexdigest()


def test_fixture_records_are_pinned():
    assert records_digest(FIXTURE) == FIXTURE_RECORDS


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


def test_torn_fixture_recovery_scans_the_journal_once(
        tmp_path, capsys, monkeypatch):
    """``recover`` of a cut copy reads the chain once: repair cuts the
    torn tail and updates the scan it already has."""
    import repro.dam.journal as journal_mod

    scans = []
    real_scan = journal_mod.scan_journal

    def counting(*args, **kwargs):
        scan = real_scan(*args, **kwargs)
        scans.append(scan)
        return scan

    monkeypatch.setattr(journal_mod, "scan_journal", counting)
    torn = truncate_at(FIXTURE, FIXTURE.stat().st_size * 3 // 5,
                       out=tmp_path / "torn.woj")
    assert main(["recover", str(torn)]) == 0
    assert len(scans) == 1
    assert scans[0].torn_bytes > 0
    out = capsys.readouterr().out
    assert "torn tail" in out
    assert RESUMED in out
    # What the repair left on disk is exactly the scan's valid prefix.
    monkeypatch.setattr(journal_mod, "scan_journal", real_scan)
    repaired = scan_journal(torn)
    assert repaired.torn_bytes == 0
    assert repaired.valid_bytes == torn.stat().st_size == \
        scans[0].valid_bytes
    assert list(repaired.ends) == list(scans[0].ends)


def test_run_rewrites_the_fixture_record_for_record(tmp_path, capsys):
    journal = tmp_path / "run.woj"
    assert main([*FIXTURE_ARGV, "--journal", str(journal)]) == 0
    assert "total completion time 6240" in capsys.readouterr().out
    fresh = scan_journal(journal).records
    fixture = scan_journal(FIXTURE).records
    assert fixture[0]["type"] == fresh[0]["type"] == REC_META
    assert fixture[0].pop("fault_aware", False) is False
    assert fresh == fixture


def test_every_flag_run_journal_is_pinned(tmp_path, capsys):
    journal = tmp_path / "every.woj"
    assert main([*EVERY_FLAG_ARGV, "--journal", str(journal)]) == 0
    capsys.readouterr()
    assert len(journal_segments(journal)) > 1
    assert _segments_digest(journal) == EVERY_FLAG_SHA256
    assert records_digest(journal) == EVERY_FLAG_RECORDS
    assert main(["recover", str(journal)]) == 0
    assert "validated identical" in capsys.readouterr().out


if __name__ == "__main__":
    FIXTURE.unlink(missing_ok=True)
    main([*FIXTURE_ARGV, "--journal", str(FIXTURE)])
