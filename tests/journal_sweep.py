"""Kill-at-every-offset sweeps in time linear in the journal.

A cut anywhere inside a record leaves that record torn, so by the
torn-tail rule the cut keeps exactly the records that end at or before
it (:attr:`~repro.dam.journal.JournalScan.ends`).  A sweep therefore
recovers once per record boundary, folding records in one at a time
(:class:`~repro.dam.journal.RecoveryFold`), and gives every byte offset
the outcome of its boundary.  The rule itself is cross-checked against
real truncated files and from-scratch recovery at sampled offsets:
every offset of the first and last records, every segment boundary,
and seeded random offsets.

An *outcome* is any comparable value whose first item is ``"exact"``
or ``"typed"``.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from pathlib import Path

from repro.dam.journal import (
    REC_FLUSH,
    RecoveryFold,
    RecoveryManager,
    _HEADER,
    journal_segments,
    scan_journal,
)
from repro.serve import loop
from repro.serve.loop import rederive_serve
from repro.util.errors import JournalCorruptionError


def write_cut(data: "list[bytes]", names: "list[str]", i: int, b: int,
              directory: Path) -> Path:
    """Write the chain as a kill at byte ``b`` of segment ``i`` leaves it
    (earlier segments whole, later ones never created) into the emptied
    ``directory``; returns the chain's base path."""
    directory.mkdir(exist_ok=True)
    for p in directory.iterdir():
        p.unlink()
    for name, blob in zip(names[:i], data[:i]):
        (directory / name).write_bytes(blob)
    (directory / names[i]).write_bytes(data[i][:b])
    return directory / names[0]


def fold_outcomes(records, at_boundary, lo: int, hi: int,
                  source: str = "journal") -> dict:
    """Outcomes at record boundaries ``lo..hi`` of a complete journal.

    ``at_boundary(k, fold)`` is called once per boundary, in order, with
    ``fold`` holding the first ``k`` records, and returns that
    boundary's outcome.  Every boundary is also checked against the
    durable-step rule: no flush of a step it calls durable may still lie
    beyond it in the complete journal.
    """
    fold = RecoveryFold.of(records[:lo], source)
    outcomes = {}
    for k in range(lo, hi + 1):
        durable = fold.last_durable_step()
        assert all(
            r["t"] > durable for r in records[k:] if r["type"] == REC_FLUSH
        ), f"boundary {k}: step {durable} durable before all its flushes"
        outcomes[k] = at_boundary(k, fold)
        assert outcomes[k][0] in ("exact", "typed")
        if k < hi:
            fold.add(records[k])
    return outcomes


def kill_sweep(path, at_boundary, from_scratch, *, work: Path,
               segments: "list[int] | None" = None, seed: int = 0,
               n_random: int = 64) -> Counter:
    """Kill the complete journal chain at ``path`` at every byte of the
    given ``segments`` (default: all of them).

    ``at_boundary`` is as in :func:`fold_outcomes`, over the boundaries
    of the swept segments.  ``from_scratch(cut_path)`` recovers a real
    truncated chain and must give the same outcome as the cut's
    boundary.  Returns outcome kinds counted over every
    ``(segment, byte)`` kill state, plus the state count under
    ``"offsets"``.
    """
    chain = journal_segments(path)
    data = [p.read_bytes() for p in chain]
    names = [p.name for p in chain]
    starts = list(accumulate([0] + [len(d) for d in data]))
    scan = scan_journal(path)
    assert scan.torn_bytes == 0, "sweep a complete journal"
    records, ends = scan.records, scan.ends
    swept = list(range(len(chain))) if segments is None else list(segments)
    lo = bisect_right(ends, starts[swept[0]])
    hi = bisect_right(ends, starts[swept[-1] + 1])
    outcomes = fold_outcomes(records, at_boundary, lo, hi, str(path))

    def cut_state(i: int, b: int) -> "tuple[int, int]":
        """(records kept, torn bytes) of a kill at byte ``b`` of segment
        ``i``, by the torn-tail rule."""
        k = bisect_right(ends, starts[i] + b)
        if b < len(_HEADER):
            return k, b
        kept = ends[k - 1] - starts[i] if k and ends[k - 1] > starts[i] else 0
        return k, b - max(len(_HEADER), kept)

    counts: Counter = Counter()
    for i in swept:
        for b in range(len(data[i]) + 1):
            counts[outcomes[cut_state(i, b)[0]][0]] += 1
            counts["offsets"] += 1

    # Cross-check the rule and the fold against real truncated files:
    # every offset of the journal's first and last records (where
    # swept), every segment boundary, and seeded random offsets.
    states = [(i, b) for i in swept for b in range(len(data[i]) + 1)]
    edges = ((0, ends[0]), (ends[-2] if len(ends) > 1 else 0, ends[-1]))
    sample = {
        (i, b) for i, b in states
        if any(a <= starts[i] + b <= z for a, z in edges)
        or b in (0, len(_HEADER), len(data[i]))
    }
    rng = random.Random(seed)
    sample.update(rng.sample(states, min(n_random, len(states))))
    for i, b in sorted(sample):
        cut = write_cut(data, names, i, b, work)
        k, torn = cut_state(i, b)
        got = scan_journal(cut)
        assert got.records == records[:k], (i, b)
        assert got.torn_bytes == torn, (i, b)
        assert from_scratch(cut) == outcomes[k], (i, b)
    return counts


def batch_outcome(recover):
    """An exact recovery's observable result, or the typed error's reason."""
    try:
        report = recover()
    except JournalCorruptionError as exc:
        return ("typed", exc.reason)
    return ("exact", tuple(report.result.completion_times.tolist()),
            report.resumed_from_step, report.checkpoint_step,
            report.replayed_flushes, report.run_completed)


def batch_sweep(inst, sched, path, work, **kwargs):
    """Every-offset sweep of a batch journal: exact or typed, never wrong."""
    reference = tuple(
        RecoveryManager(path).recover(inst, sched)
        .result.completion_times.tolist()
    )

    def at_boundary(_k, fold):
        outcome = batch_outcome(lambda: fold.recover(inst, sched))
        assert outcome[0] == "typed" or outcome[1] == reference
        return outcome

    return kill_sweep(
        path, at_boundary,
        lambda cut: batch_outcome(
            lambda: RecoveryManager(cut).recover(inst, sched)
        ),
        work=work, **kwargs,
    )


def serve_sweep(path, reference, work: Path, monkeypatch,
                **kwargs) -> Counter:
    """Every-offset sweep of a serving journal whose uninterrupted run is
    ``reference``: exact recovery or a typed error, never a different
    run.

    A serving run is re-derived once per distinct meta/driver pair: the
    re-derivation is a pure function of them, so ``recover_serve`` in
    the from-scratch cross-check shares the memo too.
    """
    derived: dict = {}

    def rederive_once(meta, driver=None):
        key = json.dumps([meta, driver], sort_keys=True)
        if key not in derived:
            derived[key] = rederive_serve(meta, driver)
            assert derived[key].completions == reference.completions
        return derived[key]

    monkeypatch.setattr(loop, "rederive_serve", rederive_once)

    def at_boundary(_k, fold):
        if fold.meta is None:
            return ("typed", "no-records")
        report = rederive_once(fold.meta, fold.driver)
        try:
            replayed = fold.check_prefix(
                dict(enumerate(report.shard_schedules))
            )
        except JournalCorruptionError as exc:
            return ("typed", exc.reason)
        return ("exact", fold.last_durable_step(), replayed, fold.completed)

    def from_scratch(cut):
        try:
            rec = loop.recover_serve(cut)
        except JournalCorruptionError as exc:
            return ("typed", exc.reason)
        assert rec.report.completions == reference.completions
        return ("exact", rec.resumed_from_step, rec.replayed_flushes,
                rec.run_completed)

    counts = kill_sweep(path, at_boundary, from_scratch, work=work,
                        **kwargs)
    assert len(derived) == 1
    return counts
