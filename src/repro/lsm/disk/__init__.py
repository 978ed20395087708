"""Durable on-disk KV engine over the LSM substrate.

Where :mod:`repro.lsm` *simulates* a write-optimized dictionary (counted
block IOs, in-memory runs), this package stores real bytes with the
robustness discipline the journal subsystem established:

* :mod:`~repro.lsm.disk.wal` — write-ahead log; each generation is a
  ``WOJ3`` journal, so torn-tail tolerance and kill-at-every-offset
  exactness are inherited, not re-implemented;
* :mod:`~repro.lsm.disk.sstable` — immutable sorted runs with per-block
  CRC-32, a bloom filter, and a sparse index, written atomically;
* :mod:`~repro.lsm.disk.manifest` — the versioned level manifest; every
  edit is one atomic rename, the commit point of every multi-file
  transition;
* :mod:`~repro.lsm.disk.kvstore` — the :class:`KVStore` facade
  (open / get / put / delete / close) with WAL-replay recovery;
* :mod:`~repro.lsm.disk.scheduler` — compaction *scheduling*: the
  :class:`HornDensityPolicy` ranks merges by tombstone-obligations
  retired per entry moved — the paper's density ordering, on disk;
* :mod:`~repro.lsm.disk.scrub` — proactive checksum verification with
  salvage, quarantine, and shadowing-aware loss classification.
"""

from repro.lsm.disk.kvstore import (
    DEGRADED_ENOSPC,
    DEGRADED_FSYNC,
    DEGRADED_IO,
    KVStore,
)
from repro.lsm.disk.manifest import (
    Manifest,
    commit_manifest,
    load_or_init_manifest,
    manifest_path,
    read_manifest,
)
from repro.lsm.disk.scheduler import (
    CompactionTask,
    DiskCompactionPolicy,
    DiskLevelingPolicy,
    HornDensityPolicy,
    build_policy,
)
from repro.lsm.disk.scrub import LostRange, ScrubReport, run_scrub
from repro.lsm.disk.sstable import (
    KIND_PUT,
    KIND_TOMBSTONE,
    BlockFinding,
    BloomFilter,
    SSTableMeta,
    SSTableReader,
    sstable_name,
    write_sstable,
)
from repro.lsm.disk.wal import (
    open_wal,
    replay_wal,
    wal_generations,
    wal_path,
)

__all__ = [
    "DEGRADED_ENOSPC",
    "DEGRADED_FSYNC",
    "DEGRADED_IO",
    "KVStore",
    "Manifest",
    "commit_manifest",
    "load_or_init_manifest",
    "manifest_path",
    "read_manifest",
    "CompactionTask",
    "DiskCompactionPolicy",
    "DiskLevelingPolicy",
    "HornDensityPolicy",
    "build_policy",
    "LostRange",
    "ScrubReport",
    "run_scrub",
    "KIND_PUT",
    "KIND_TOMBSTONE",
    "BlockFinding",
    "BloomFilter",
    "SSTableMeta",
    "SSTableReader",
    "sstable_name",
    "write_sstable",
    "open_wal",
    "replay_wal",
    "wal_generations",
    "wal_path",
]
