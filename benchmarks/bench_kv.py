"""E15: the durable KV engine — ingest, recovery, scrub, and pacing.

The robustness work has exact-recovery tests; this experiment gives it
*numbers*: sustained ingest throughput (WAL append + memtable + flush +
WORMS-scheduled compaction), crash-recovery time as a function of the
un-flushed WAL suffix, the scrubber's full-verify rate, and what the
``kv --pace`` entry budget trades (compaction work moved against delete
obligations left undrained).  A machine-readable summary lands in
``results/BENCH_kv.json`` so the perf trajectory of the storage layer
has data points from day one.

Times here are wall-clock (the engine does real I/O); the tables quote
rates, which are stable enough across CI runners to spot order-of-
magnitude regressions, not microsecond drift.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time

from benchmarks.common import RESULTS_DIR, emit_table
from repro.lsm.disk import KVStore, build_policy, run_scrub

ARTIFACT = "BENCH_kv.json"


def _ingest(home, n_ops, *, key_space=512, memtable_capacity=256,
            sync=False) -> "tuple[KVStore, float]":
    store = KVStore(home, memtable_capacity=memtable_capacity,
                    size_ratio=4, sync=sync)
    t0 = time.perf_counter()
    for i in range(1, n_ops + 1):
        key = f"k{i % key_space:06d}"
        if i % 9 == 0:
            store.delete(key)
        else:
            store.put(key, {"seq": i, "v": i * 7919 % 100003})
    elapsed = time.perf_counter() - t0
    return store, elapsed


def _artifact(update: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, ARTIFACT)
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.update(update)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def test_e15_ingest_throughput(tmp_path, benchmark):
    rows = []
    art = {}
    for n_ops in (2_000, 8_000):
        store, elapsed = _ingest(tmp_path / f"ingest{n_ops}", n_ops)
        stats = store.stats()
        store.close()
        rate = n_ops / elapsed
        # Each flush rotates the WAL, so the generation counts flushes.
        rows.append([
            n_ops, f"{elapsed * 1e3:.0f}ms", rate, stats["wal_gen"],
            stats["manifest_version"], len(stats["levels"]),
        ])
        art[f"ingest_{n_ops}"] = {
            "ops": n_ops, "seconds": elapsed, "ops_per_sec": rate,
            "flushes": stats["wal_gen"],
            "manifest_version": stats["manifest_version"],
            "levels": stats["levels"],
        }
    emit_table(
        "E15_kv_ingest",
        ["ops", "wall", "ops/s", "flushes", "manifest", "levels"],
        rows,
        note="mixed put/delete stream, 512-key space, memtable=256, "
        "T=4, sync=False (page-cache durability: the SIGKILL fault "
        "model).  Includes inline WORMS-scheduled compaction.",
    )
    _artifact(art)
    benchmark(lambda: _ingest(
        tmp_path / f"b{time.monotonic_ns()}", 500
    )[0].close())


def test_e15_recovery_time(tmp_path, benchmark):
    """Reopen cost ~ size of the un-flushed WAL suffix, not the store."""
    rows = []
    art = {}
    for wal_ops in (100, 1_000, 4_000):
        home = tmp_path / f"rec{wal_ops}"
        # A settled store plus `wal_ops` operations past the last flush:
        # exactly the replay work a crash leaves behind.
        store, _ = _ingest(home, 4_000, memtable_capacity=256)
        store.flush_memtable()
        base_seq = store.stats()["seq"]
        store.sync_wal()
        cap = store.memtable_capacity
        store.memtable_capacity = wal_ops + 1  # hold the suffix in the WAL
        for i in range(wal_ops):
            store.put(f"r{i % 64:04d}", i)
        store.memtable_capacity = cap
        del store  # crash: no close, no flush
        t0 = time.perf_counter()
        store = KVStore(home, memtable_capacity=256, size_ratio=4,
                        sync=False)
        elapsed = time.perf_counter() - t0
        recovered = store.stats()["seq"] - base_seq
        assert recovered == wal_ops
        store.close()
        rows.append([
            wal_ops, f"{elapsed * 1e3:.1f}ms", wal_ops / elapsed,
        ])
        art[f"recovery_{wal_ops}"] = {
            "wal_records": wal_ops, "seconds": elapsed,
            "records_per_sec": wal_ops / elapsed,
        }
    emit_table(
        "E15_kv_recovery",
        ["wal records", "reopen", "records/s"],
        rows,
        note="SIGKILL-style abandon then reopen; replay cost scales "
        "with the acknowledged-but-unflushed suffix only.",
    )
    _artifact(art)
    home = tmp_path / "rb"
    store, _ = _ingest(home, 1_000)
    del store
    benchmark(lambda: KVStore(home, sync=False).close())


def test_e15_scrub_rate(tmp_path, benchmark):
    home = tmp_path / "scrub"
    store, _ = _ingest(home, 8_000)
    store.flush_memtable()
    live_bytes = sum(
        (store.directory / m.name).stat().st_size
        for m in store.manifest.live_files()
    )
    t0 = time.perf_counter()
    report = run_scrub(store, repair=False)
    elapsed = time.perf_counter() - t0
    assert report.clean
    store.close()
    emit_table(
        "E15_kv_scrub",
        ["files", "blocks", "bytes", "wall", "MB/s"],
        [[
            report.files_checked, report.blocks_checked, live_bytes,
            f"{elapsed * 1e3:.1f}ms", live_bytes / elapsed / 1e6,
        ]],
        note="full read-only verify of every live block + WAL chain; "
        "the proactive-detection cost a deployment would pay per cycle.",
    )
    _artifact({"scrub": {
        "files": report.files_checked, "blocks": report.blocks_checked,
        "bytes": live_bytes, "seconds": elapsed,
        "mb_per_sec": live_bytes / elapsed / 1e6,
    }})
    store = KVStore(home, sync=False)
    benchmark(lambda: run_scrub(store, repair=False))
    store.close()


#: e2ebench ``kv_mixed``'s op stream and store shape.
PACE_OPS, PACE_KEYS = 40_000, 8192
PACE_BUDGETS = (0, 256, 1024, 4096)
PACE_SEEDS = (1, 2, 3, 4, 5)


def _paced_run(home, pace: int, seed: int) -> dict:
    """``kv_mixed``'s writes (72% put, 8% delete, 20% get, uniform over
    8192 keys; gets change nothing on disk and are skipped) into a
    memtable-256, T=4 store under the Horn policy paced at ``pace``.
    Returns the compaction work done and the tombstones left."""
    store = KVStore(home, memtable_capacity=256, size_ratio=4, sync=False,
                    policy=build_policy("horn", pace=pace))
    rng = random.Random(seed)
    for i in range(PACE_OPS):
        r = rng.random()
        key = "k%05d" % rng.randrange(PACE_KEYS)
        if r < 0.72:
            store.put(key, ("%08d" % i) * 8)
        elif r < 0.80:
            store.delete(key)
    stats = store.stats()
    store.close()
    return {"largest": stats["largest_compaction"],
            "moved": stats["compacted_entries"],
            "tasks": stats["compactions"],
            "density": stats["compactions_by_regime"].get("density", 0),
            "tombstones": sum(lv["tombstones"] for lv in stats["levels"])}


def test_e15_pace_trade(tmp_path):
    """``kv --pace``: a per-task entry budget for density merges.

    Pacing caps the largest merge and moves fewer entries in all, but
    the density scheduler then defers most delete-obligation merges, so
    more tombstones stay undrained.  The counts are deterministic per
    seed; the table reports medians over five seeds.
    """
    rows, art = [], {}
    med = {}
    for pace in PACE_BUDGETS:
        runs = [_paced_run(tmp_path / f"p{pace}s{seed}", pace, seed)
                for seed in PACE_SEEDS]
        med[pace] = {k: statistics.median(r[k] for r in runs)
                     for k in runs[0]}
        m = med[pace]
        rows.append([pace, m["largest"], m["moved"],
                     f"{m['tasks']} ({m['density']})", m["tombstones"]])
        art[f"pace_{pace}"] = {"runs": runs, "median": m}
    emit_table(
        "E15_kv_pace",
        ["pace", "largest task", "entries moved", "tasks (density)",
         "tombstones left"],
        rows,
        note=f"kv_mixed's writes ({PACE_OPS} ops, {PACE_KEYS} keys, "
        "memtable 256, T=4), Horn density policy, medians over seeds "
        "1-5.  Entries counted from SSTable metadata (inputs of every "
        "merge, the overlapped runs below included).",
    )
    _artifact({"pace": art})
    # The trade: every budget moves fewer entries than no budget, and
    # leaves more tombstones undrained.
    for pace in PACE_BUDGETS[1:]:
        assert med[pace]["moved"] < med[0]["moved"]
        assert med[pace]["tombstones"] > med[0]["tombstones"]
