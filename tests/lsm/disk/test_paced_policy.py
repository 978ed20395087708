"""Paced disk compaction: the ``kv --pace`` budget at the policy level.

:class:`HornDensityPolicy` with ``pace > 0`` defers *density*
(obligation-drain) merges whose entry movement exceeds the budget —
de-amortizing background maintenance the same way ``serve --pace``
bounds flush work.  Capacity repairs are exempt: restoring a level
invariant is correctness work and must never be deferred, whatever the
budget.
"""

from __future__ import annotations

import pytest

from repro.lsm.disk import (
    DiskLevelingPolicy,
    HornDensityPolicy,
    Manifest,
    build_policy,
)
from repro.lsm.disk.sstable import SSTableMeta


def _meta(fid, lo, hi, entries, tombs):
    return SSTableMeta(
        name=f"sst-{fid:06d}.sst", file_id=fid, entries=entries,
        tombstones=tombs, min_key=lo, max_key=hi, min_seq=1,
        max_seq=entries, blocks=1,
    )


def _density_manifest():
    # candidate 1: 20 entries + 40 overlap = 60 moved, density 10/60;
    # candidate 2: 20 entries + 400 overlap = 420 moved, density 1/420.
    return Manifest(
        next_file_id=10,
        levels=(
            (),
            (_meta(1, "a", "f", 20, 10), _meta(2, "g", "m", 20, 1)),
            (_meta(3, "a", "f", 40, 0), _meta(4, "g", "m", 400, 0)),
        ),
    )


def test_paced_policy_admits_within_budget_candidates():
    task = HornDensityPolicy(pace=100).choose(
        _density_manifest(), memtable_capacity=8, size_ratio=8
    )
    assert task is not None and task.regime == "density"
    assert task.file_ids == (1,)  # 60 moved <= 100


def test_paced_policy_defers_oversized_density_merges():
    # Both candidates move more than the budget: the policy waits
    # rather than spiking the maintenance step.
    assert HornDensityPolicy(pace=50).choose(
        _density_manifest(), memtable_capacity=8, size_ratio=8
    ) is None
    # The unpaced policy would have merged: the deferral is the pace.
    assert HornDensityPolicy().choose(
        _density_manifest(), memtable_capacity=8, size_ratio=8
    ) is not None


def test_capacity_repair_is_exempt_from_the_budget():
    # Level 1 over its budget of 8 * 2^2 = 32 entries: even a pace of 1
    # must not defer the invariant repair.
    manifest = Manifest(
        next_file_id=10,
        levels=((), (_meta(1, "a", "m", 40, 1),), (_meta(2, "a", "z", 5, 0),)),
    )
    task = HornDensityPolicy(pace=1).choose(
        manifest, memtable_capacity=8, size_ratio=2
    )
    assert task is not None and task.regime == "capacity"


def test_paced_policy_validates_budget():
    # 0 is unpaced; a negative budget is rejected, as the serving
    # engine rejects one.
    assert HornDensityPolicy(pace=0).pace == 0
    with pytest.raises(ValueError):
        HornDensityPolicy(pace=-1)


def test_build_policy_factory():
    assert type(build_policy("horn")) is HornDensityPolicy
    assert build_policy("horn").pace == 0
    paced = build_policy("horn", pace=64)
    assert type(paced) is HornDensityPolicy
    assert paced.pace == 64
    # leveling has no density regime, so the budget is inert by design.
    assert type(build_policy("leveling", pace=64)) is DiskLevelingPolicy
    with pytest.raises(ValueError):
        build_policy("tiering")
