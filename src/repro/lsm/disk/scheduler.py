"""Disk compaction scheduling: which files merge next, and why.

The in-memory :mod:`repro.lsm.compaction` policies answer
``choose(tree)`` over simulated runs; these policies answer
``choose(manifest, config)`` over real files, using only manifest
metadata (entry counts, tombstone counts, key ranges) — no blocks are
read to make a decision, so scheduling stays O(files), not O(bytes).

Two regimes, mirroring the in-memory substrate:

* **capacity** — some level exceeds ``C * T^(i+1)`` entries (or L0
  exceeds its run budget): restoring the invariant is correctness work
  and always wins;
* **obligation drain** — tombstones are the disk engine's root-to-leaf
  obligations: a delete is only *finished* (space reclaimed, key
  unresurrectable by any future scrub-salvage) when its tombstone
  reaches the bottom level and is dropped.  The
  :class:`HornDensityPolicy` scores each candidate merge by
  *obligations retired per entry moved* — the same work-per-progress
  ratio as the paper's Horn densities, transplanted from simulated
  markers to physical tombstones.

Policies return a :class:`CompactionTask` (or None when nothing needs
doing); :meth:`repro.lsm.disk.kvstore.KVStore.maintain` executes at most
one task per call, which de-amortizes maintenance exactly like
``LSMTree.maintain(budget=1)`` — the serving loop never blocks on a
full cascade.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.lsm.disk.manifest import Manifest
    from repro.lsm.disk.sstable import SSTableMeta


@dataclass(frozen=True)
class CompactionTask:
    """One planned merge: ``level`` files + overlap below -> ``level+1``."""

    level: int
    file_ids: "tuple[int, ...]"
    #: why this task was chosen (``capacity`` or ``density``) and its
    #: score — surfaced through obs metrics and ``kv stats``.
    regime: str
    score: float


def level_capacity(level: int, *, memtable_capacity: int,
                   size_ratio: int) -> "int | None":
    """Entry budget for ``level`` (None: the bottom level is unbounded)."""
    return memtable_capacity * size_ratio ** (level + 1)


def _l0_closure(level0: "tuple[SSTableMeta, ...]",
                seed: "SSTableMeta") -> "list[SSTableMeta]":
    """Transitive overlap closure at L0 (runs there may overlap each
    other, so a merge must take every run whose range intersects the
    group — the same rule ``LSMTree.compact`` enforces)."""
    chosen = [seed]
    changed = True
    while changed:
        changed = False
        lo = min(m.min_key for m in chosen)
        hi = max(m.max_key for m in chosen)
        for m in level0:
            if m not in chosen and m.overlaps_range(lo, hi):
                chosen.append(m)
                changed = True
    return sorted(chosen, key=lambda m: m.file_id)


class DiskCompactionPolicy(abc.ABC):
    """Strategy interface; stateless so one instance serves many stores."""

    name: str = "disk-policy"

    @abc.abstractmethod
    def choose(self, manifest: "Manifest", *, memtable_capacity: int,
               size_ratio: int) -> "CompactionTask | None":
        """The next merge, or None when no level needs work."""

    @staticmethod
    def _over_capacity(manifest: "Manifest", *, memtable_capacity: int,
                       size_ratio: int) -> "list[int]":
        """Levels over budget, topmost first.  L0 is over budget when it
        holds ``size_ratio`` or more runs (run count is the
        read-amplification cost there, not entry count); deeper levels
        when their entry count exceeds ``C * T^(i+1)``.  The deepest
        level is bounded too — merging out of it opens a new level
        below, which is how the tree grows, and capacities grow
        geometrically so depth stays logarithmic in data size."""
        over = []
        for level, runs in enumerate(manifest.levels):
            if level == 0:
                if len(runs) >= size_ratio:
                    over.append(level)
                continue
            cap = level_capacity(
                level, memtable_capacity=memtable_capacity,
                size_ratio=size_ratio,
            )
            if sum(m.entries for m in runs) > cap:
                over.append(level)
        return over

    @staticmethod
    def _capacity_task(manifest: "Manifest", level: int) -> CompactionTask:
        runs = manifest.levels[level]
        if level == 0:
            chosen = _l0_closure(runs, runs[0])
        else:
            # Merge the run carrying the most entries — the cheapest way
            # to shed the most weight in one task.
            chosen = [max(runs, key=lambda m: (m.entries, m.file_id))]
        return CompactionTask(
            level=level,
            file_ids=tuple(m.file_id for m in chosen),
            regime="capacity",
            score=float(sum(m.entries for m in chosen)),
        )


class DiskLevelingPolicy(DiskCompactionPolicy):
    """Classic leveling: fix the topmost over-budget level, nothing else."""

    name = "leveling"

    def choose(self, manifest: "Manifest", *, memtable_capacity: int,
               size_ratio: int) -> "CompactionTask | None":
        over = self._over_capacity(
            manifest, memtable_capacity=memtable_capacity,
            size_ratio=size_ratio,
        )
        if not over:
            return None
        return self._capacity_task(manifest, over[0])


class HornDensityPolicy(DiskCompactionPolicy):
    """Obligation-density scheduling: the WORMS transplant, on disk.

    Capacity restoration first (correctness).  Otherwise every
    tombstone-bearing run above the bottom is a candidate; its density is

        ``tombstones_retired / entries_moved``

    where ``entries_moved`` counts the run plus everything it overlaps
    one level down, and a tombstone is *retired* (counted at full
    weight) only when the merge lands in the bottom level — a mid-tree
    hop advances the obligation without finishing it, and scores at
    ``advance_weight``.  Runs below ``min_density`` are left alone:
    merging them moves many entries to finish few obligations, the
    exact waste the paper's density ordering avoids.
    """

    name = "horn-density"

    def __init__(self, *, min_density: float = 0.0,
                 advance_weight: float = 0.5) -> None:
        self.min_density = float(min_density)
        self.advance_weight = float(advance_weight)

    def _admit(self, moved: int) -> bool:
        """Hook: may a density candidate moving ``moved`` entries run?

        The base policy admits everything; :class:`PacedHornPolicy`
        bounds it.  Capacity restoration never consults this hook —
        invariant repair is correctness work and always wins.
        """
        return True

    def choose(self, manifest: "Manifest", *, memtable_capacity: int,
               size_ratio: int) -> "CompactionTask | None":
        over = self._over_capacity(
            manifest, memtable_capacity=memtable_capacity,
            size_ratio=size_ratio,
        )
        if over:
            return self._capacity_task(manifest, over[0])
        n = len(manifest.levels)
        best: "CompactionTask | None" = None
        for level in range(n - 1):
            below = manifest.levels[level + 1] if level + 1 < n else ()
            lands_bottom = level + 1 == n - 1
            weight = 1.0 if lands_bottom else self.advance_weight
            for meta in manifest.levels[level]:
                if meta.tombstones == 0:
                    continue
                if level == 0:
                    group = _l0_closure(manifest.levels[0], meta)
                else:
                    group = [meta]
                moved = sum(m.entries for m in group) + sum(
                    m.entries
                    for m in below
                    if any(g.overlaps(m) for g in group)
                )
                retired = sum(m.tombstones for m in group)
                density = weight * retired / max(1, moved)
                if density <= self.min_density:
                    continue
                if not self._admit(moved):
                    continue
                if best is None or density > best.score:
                    best = CompactionTask(
                        level=level,
                        file_ids=tuple(m.file_id for m in group),
                        regime="density",
                        score=density,
                    )
        return best


class PacedHornPolicy(HornDensityPolicy):
    """:class:`HornDensityPolicy` with a per-task entry budget.

    The disk-engine half of the de-amortization controller
    (``serve --pace`` is the planner/engine half): density merges that
    would move more than ``pace`` entries in one task are deferred —
    they stay candidates and run later, once intervening capacity
    merges have shrunk their overlap or a smaller candidate drains the
    same obligations.  Capacity restoration is exempt: an over-budget
    level is an invariant violation and is repaired at whatever cost it
    takes, exactly like the serving engine finishing an in-flight
    flush.  The trade mirrors Das–Iacono–Nekrich: a bounded amount of
    maintenance per :meth:`~repro.lsm.disk.kvstore.KVStore.maintain`
    call, at the cost of obligations draining in more (smaller) tasks.
    """

    name = "paced-horn"

    def __init__(self, pace: int, *, min_density: float = 0.0,
                 advance_weight: float = 0.5) -> None:
        super().__init__(
            min_density=min_density, advance_weight=advance_weight
        )
        if pace < 1:
            raise ValueError(f"pace budget must be >= 1, got {pace}")
        self.pace = int(pace)

    def _admit(self, moved: int) -> bool:
        return moved <= self.pace


def build_policy(name: str, *, pace: int = 0) -> DiskCompactionPolicy:
    """Scheduler-knob factory (the ``kv --scheduler/--pace`` surface).

    ``leveling`` ignores ``pace`` (it only ever does capacity repair);
    ``horn`` returns the density policy, paced when ``pace > 0``.
    """
    if name == "leveling":
        return DiskLevelingPolicy()
    if name == "horn":
        return PacedHornPolicy(pace) if pace > 0 else HornDensityPolicy()
    raise ValueError(f"unknown compaction scheduler {name!r}")
