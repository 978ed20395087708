"""Journal compaction: sealed-segment garbage collection, recovery intact.

The contract under test: :func:`compact_journal` only ever removes
records a sealed checkpoint supersedes, so recovery from a compacted
chain is **exactly** recovery from the original — same completion times,
same ``last_durable_step``, same typed errors.  The kill-fuzz regression
pins that at every crash offset.
"""

from __future__ import annotations

import shutil
from bisect import bisect_right

import pytest

from repro.__main__ import main
from repro.dam import RecoveryManager, compact_journal, scan_journal
from repro.dam.journal import (
    JournalWriter,
    REC_CHECKPOINT,
    REC_FLUSH,
    _HEADER,
    journal_segments,
)
from repro.faults import truncate_at
from repro.policies import GatedExecutor, WormsPolicy
from repro.faults import FaultInjector, FaultPlan
from repro.serve.loop import ServeConfig, ServiceLoop, recover_serve
from repro.tree import balanced_tree
from repro.util.errors import JournalCorruptionError
from tests.conftest import make_uniform
from tests.journal_sweep import batch_outcome, fold_outcomes, kill_sweep


def rotated_batch_run(tmp_path, *, n_messages=120, seg_bytes=512,
                      checkpoint_every=2, seed=3):
    """A real executor run journaled across several segments."""
    inst = make_uniform(balanced_tree(3, 3), n_messages=n_messages, P=2,
                        B=12, seed=seed)
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    path = tmp_path / "rot.journal"
    writer = JournalWriter(path, meta={"n_messages": n_messages},
                           max_segment_bytes=seg_bytes)
    sched = GatedExecutor(inst, journal=writer,
                          checkpoint_every=checkpoint_every).run(list(ordered))
    writer.close()
    assert len(journal_segments(path)) > 2
    return inst, sched, path


def copy_chain(segments, dest_dir):
    dest_dir.mkdir(exist_ok=True)
    for seg in segments:
        (dest_dir / seg.name).write_bytes(seg.read_bytes())
    return dest_dir / segments[0].name


# ----------------------------------------------------------------------
# Exactness: recovery before and after compaction is the same recovery.
# ----------------------------------------------------------------------
def test_compaction_drops_superseded_records_and_preserves_recovery(tmp_path):
    inst, sched, path = rotated_batch_run(tmp_path)
    reference = RecoveryManager(path).recover(inst, sched)
    durable_before = RecoveryManager(path).last_durable_step()
    n_before = len(scan_journal(path).records)

    report = compact_journal(path)
    assert report.segments_compacted >= 1
    assert report.records_dropped > 0
    assert report.bytes_reclaimed > 0
    assert report.dropped.get(REC_FLUSH, 0) > 0
    assert len(scan_journal(path).records) \
        == n_before - report.records_dropped

    assert RecoveryManager(path).last_durable_step() == durable_before
    recovered = RecoveryManager(path).recover(inst, sched)
    assert recovered.result.completion_times.tolist() \
        == reference.result.completion_times.tolist()
    assert recovered.run_completed
    # Fewer flushes to replay is the whole point.
    assert recovered.replayed_flushes < reference.replayed_flushes


def test_compaction_keeps_bar_checkpoint_and_later_records(tmp_path):
    _inst, _sched, path = rotated_batch_run(tmp_path)
    report = compact_journal(path)
    bar = report.checkpoint_step
    assert bar > 0
    sealed = journal_segments(path)[:-1]
    kept = []
    for seg in sealed:
        kept.extend(scan_journal(seg).records)
    # Every surviving sealed flush/fault is strictly newer than the bar;
    # the bar checkpoint itself survives.
    assert all(r["t"] > bar for r in kept if r["type"] == REC_FLUSH)
    assert any(r["t"] == bar for r in kept if r["type"] == REC_CHECKPOINT)
    assert all(r["t"] >= bar for r in kept if r["type"] == REC_CHECKPOINT)


def test_compaction_is_idempotent(tmp_path):
    _inst, _sched, path = rotated_batch_run(tmp_path)
    compact_journal(path)
    second = compact_journal(path)
    assert second.records_dropped == 0
    assert second.bytes_reclaimed == 0


def test_compaction_never_touches_the_tail_segment(tmp_path):
    _inst, _sched, path = rotated_batch_run(tmp_path)
    tail = journal_segments(path)[-1]
    # Tear the tail: compaction must still work and leave it alone.
    truncate_at(tail, tail.stat().st_size - 3, in_place=True)
    torn = tail.read_bytes()
    compact_journal(path)
    assert tail.read_bytes() == torn


def test_segments_left_empty_keep_their_header(tmp_path):
    _inst, _sched, path = rotated_batch_run(tmp_path)
    n = len(journal_segments(path))
    compact_journal(path)
    segments = journal_segments(path)
    assert len(segments) == n, "chain enumeration must not find a gap"
    for seg in segments:
        assert seg.read_bytes()[:len(_HEADER)] == _HEADER


# ----------------------------------------------------------------------
# No-op and error cases.
# ----------------------------------------------------------------------
def test_single_segment_journal_is_a_noop(tmp_path):
    inst = make_uniform(balanced_tree(3, 2), n_messages=40, P=2, B=12,
                        seed=1)
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    path = tmp_path / "plain.journal"
    GatedExecutor(inst, journal=path, checkpoint_every=4).run(list(ordered))
    before = path.read_bytes()
    report = compact_journal(path)
    assert report.segments_total == 1
    assert report.checkpoint_step == -1
    assert report.records_dropped == 0
    assert path.read_bytes() == before


def test_no_sealed_checkpoint_is_a_noop(tmp_path):
    path = tmp_path / "nocp.journal"
    with JournalWriter(path, meta={"x": 1}, max_segment_bytes=256) as w:
        for i in range(40):
            w.append({"type": REC_FLUSH, "t": i + 1, "src": 0, "dest": 1,
                      "msgs": [i]})
    assert len(journal_segments(path)) > 1
    before = [seg.read_bytes() for seg in journal_segments(path)]
    report = compact_journal(path)
    assert report.checkpoint_step == -1
    assert report.records_dropped == 0
    assert [seg.read_bytes() for seg in journal_segments(path)] == before


def test_missing_journal_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        compact_journal(tmp_path / "missing.journal")


def test_damaged_sealed_segment_is_typed_corruption(tmp_path):
    _inst, _sched, path = rotated_batch_run(tmp_path)
    mid = journal_segments(path)[1]
    truncate_at(mid, mid.stat().st_size - 3, in_place=True)
    with pytest.raises(JournalCorruptionError) as exc:
        compact_journal(path)
    assert exc.value.reason == "mid-chain-tear"


# ----------------------------------------------------------------------
# Other journal flavors: faults and serve runs.
# ----------------------------------------------------------------------
def test_fault_records_are_compacted_too(tmp_path):
    inst = make_uniform(balanced_tree(3, 3), n_messages=150, P=2, B=12,
                        seed=5)
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    path = tmp_path / "faulty.journal"
    writer = JournalWriter(path, meta={"n_messages": 150},
                           max_segment_bytes=1024)
    injector = FaultInjector(FaultPlan.uniform(0.3), seed=11)
    GatedExecutor(
        inst, injector, retry_budget=4, max_replans=4,
        journal=writer, checkpoint_every=2,
    ).run(list(ordered))
    writer.close()
    report = compact_journal(path)
    assert report.dropped.get("fault", 0) > 0


def test_compacted_serve_journal_recovers_exactly(tmp_path):
    config = ServeConfig(arrivals="poisson", rate=6.0, messages=120,
                         shards=2, seed=21, P=3, B=8,
                         fault_rate=0.05, checkpoint_every=4)
    path = tmp_path / "serve.journal"
    report = ServiceLoop(config, journal=path,
                         max_segment_bytes=2048).run()
    assert len(journal_segments(path)) > 1
    comp = compact_journal(path)
    assert comp.records_dropped > 0
    recovered = recover_serve(path)
    assert recovered.report.completions == report.completions
    assert recovered.run_completed


# ----------------------------------------------------------------------
# CLI.
# ----------------------------------------------------------------------
def test_cli_compact_reports_what_it_dropped(tmp_path, capsys):
    _inst, _sched, path = rotated_batch_run(tmp_path)
    assert main(["compact", str(path)]) == 0
    out = capsys.readouterr().out
    assert "compacted" in out
    assert "dropped records" in out
    assert "reclaimed" in out
    # Second run: nothing left to drop, still exit 0.
    assert main(["compact", str(path)]) == 0


def test_cli_compact_missing_journal_exits_1(tmp_path, capsys):
    assert main(["compact", str(tmp_path / "nope.journal")]) == 1
    assert "no such journal" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Kill-fuzz regression: compaction commutes with crash recovery.
# ----------------------------------------------------------------------
def test_compaction_preserves_recovery_at_every_kill_offset(tmp_path):
    """Crash the writer at any byte of the last two segments, compact,
    recover: identical.

    For every prefix of the chain ending in a truncated segment, recovery
    from the compacted copy must give the same completion times and
    durable step as recovery from the untouched copy — or both must
    raise the same typed error.  Compaction rewrites only the sealed
    segments, which are the same for every cut inside one segment, so
    each swept segment is compacted once and both chains are folded
    record by record; real cut-and-compact copies cross-check sampled
    offsets.
    """
    inst, sched, path = rotated_batch_run(tmp_path, n_messages=60,
                                          seg_bytes=512, seed=5)
    segments = journal_segments(path)

    def same(outcome):
        # Compaction drops superseded flush records, so it may change
        # how many the prefix check counts, but nothing else.
        return outcome[:3] if outcome[0] == "exact" else outcome

    def recover(chain):
        return batch_outcome(lambda: RecoveryManager(chain).recover(
            inst, sched
        ))

    ends = scan_journal(path).ends
    for i in (len(segments) - 2, len(segments) - 1):
        comp = copy_chain(segments[:i + 1], tmp_path / f"comp-{i}")
        compact_journal(comp)
        comp_scan = scan_journal(comp)
        lo_plain = bisect_right(
            ends, sum(seg.stat().st_size for seg in segments[:i])
        )
        lo_comp = bisect_right(
            comp_scan.ends,
            sum(seg.stat().st_size for seg in journal_segments(comp)[:i]),
        )
        compacted = fold_outcomes(
            comp_scan.records,
            lambda _k, fold: batch_outcome(lambda: fold.recover(inst, sched)),
            lo_comp, len(comp_scan.records),
        )

        def at_boundary(k, fold):
            outcome = batch_outcome(lambda: fold.recover(inst, sched))
            assert same(outcome) == same(compacted[k - lo_plain + lo_comp])
            return outcome

        def from_scratch(cut):
            copy = tmp_path / "cut-compacted"
            if copy.exists():
                shutil.rmtree(copy)
            compact_journal(copy_chain(journal_segments(cut), copy))
            outcome = recover(cut)
            assert same(recover(copy / cut.name)) == same(outcome)
            return outcome

        # 32 random offsets in each of the two swept segments.
        counts = kill_sweep(path, at_boundary, from_scratch,
                            work=tmp_path / "cut", segments=[i], seed=i,
                            n_random=32)
        assert counts["offsets"] == segments[i].stat().st_size + 1
