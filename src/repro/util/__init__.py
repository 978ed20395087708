"""Shared utilities: errors, RNG helpers, queues, atomic file writes."""

from repro.util.atomic import atomic_write_bytes, fsync_dir, remove_stale_tmp
from repro.util.errors import (
    InvalidInstanceError,
    InvalidScheduleError,
    ReproError,
    StorageCorruptionError,
    StorageError,
)
from repro.util.rng import make_rng

__all__ = [
    "ReproError",
    "InvalidInstanceError",
    "InvalidScheduleError",
    "StorageError",
    "StorageCorruptionError",
    "make_rng",
    "atomic_write_bytes",
    "fsync_dir",
    "remove_stale_tmp",
]
