"""Kill-at-every-offset fuzz over the KV engine's write protocols.

The acceptance bar from the issue: *simulated kills at every byte offset
of WAL, SSTable, and manifest writes yield either exact recovery or a
typed corruption error — never silent loss*.

The sweeps reconstruct every intermediate on-disk state a kill can
leave:

* **WAL appends** — the newest generation truncated at every byte: the
  store must recover exactly the acknowledged prefix (the op whose
  record straddles the cut was never acknowledged, because ``put``
  returns only after the flush completes);
* **flush protocol** — each stage of SSTable-write / WAL-rotate /
  manifest-commit / old-gen-GC, including a stranded SSTable tmp at
  every length: every stage recovers the complete pre-kill state,
  because the WAL retains each operation until the manifest commit that
  makes it redundant;
* **compaction protocol** — old-manifest-with-new-files and
  new-manifest-with-old-files hybrids: both recover the identical
  visible state (compaction moves bytes, never meaning).

Each sweep covers every offset and runs in tier-1 (under a second
each).
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.lsm.disk import KVStore
from repro.lsm.disk.manifest import manifest_path, read_manifest
from repro.lsm.disk.wal import wal_generations
from repro.util.atomic import TMP_INFIX
from repro.util.errors import JournalCorruptionError, StorageCorruptionError


def _mk_store(home: Path, **kw) -> KVStore:
    kw.setdefault("memtable_capacity", 8)
    kw.setdefault("size_ratio", 2)
    kw.setdefault("sync", False)
    return KVStore(home, **kw)


def _model_after(n_ops: int) -> dict:
    """Visible state after the first ``n_ops`` of the scripted stream."""
    model: dict = {}
    for i in range(1, n_ops + 1):
        key = f"k{i % 13:02d}"
        if i % 5 == 0:
            model.pop(key, None)
        else:
            model[key] = i
    return model


def _apply_ops(store: KVStore, n_ops: int, *, start: int = 1) -> None:
    for i in range(start, n_ops + 1):
        key = f"k{i % 13:02d}"
        if i % 5 == 0:
            store.delete(key)
        else:
            store.put(key, i)


def _recovered_state(home: Path) -> "tuple[dict, int]":
    store = _mk_store(home)
    items = dict(store.items())
    seq = store.stats()["seq"]
    store.check_invariants()
    store.close()
    return items, seq


def _wal_cut_sweep(tmp_path: Path) -> None:
    """Truncate the live WAL generation at each offset; recovery must be
    the exact acknowledged prefix or a typed error."""
    home = tmp_path / "base"
    store = _mk_store(home)
    _apply_ops(store, 7)  # below capacity: everything lives in the WAL
    del store  # crash: leave the WAL as the kill would
    (gen, wal_file), = [
        (g, p) for g, p in wal_generations(home) if p.stat().st_size > 16
    ]
    blob = wal_file.read_bytes()
    for cut in range(len(blob) + 1):
        work = tmp_path / f"cut{cut}"
        shutil.copytree(home, work)
        (work / wal_file.name).write_bytes(blob[:cut])
        try:
            items, seq = _recovered_state(work)
        except (StorageCorruptionError, JournalCorruptionError):
            shutil.rmtree(work)
            continue
        assert items == _model_after(seq), f"cut at {cut}: silent loss"
        assert seq <= 7
        shutil.rmtree(work)


def test_wal_cut_every_offset(tmp_path: Path) -> None:
    _wal_cut_sweep(tmp_path)


def _flush_stage_states(tmp_path: Path):
    """Reconstruct each intermediate state of one flush protocol run."""
    home = tmp_path / "flush-base"
    store = _mk_store(home)
    _apply_ops(store, 7)
    store.sync_wal()
    pre = tmp_path / "pre"
    shutil.copytree(home, pre)
    meta = store.flush_memtable()  # op 8 will be the flush trigger
    assert meta is not None
    post = tmp_path / "post"
    store.close()
    shutil.copytree(home, post)
    return pre, post, meta


def _flush_sweep(tmp_path: Path) -> None:
    pre, post, meta = _flush_stage_states(tmp_path)
    sst_blob = (post / meta.name).read_bytes()
    manifest_blob = manifest_path(post).read_bytes()
    expect = _model_after(7)

    def check(work: Path, label: str) -> None:
        items, seq = _recovered_state(work)
        assert items == expect, f"{label}: state diverged"
        assert seq == 7
        shutil.rmtree(work)

    # Stage 1a: killed mid-SSTable-write — stranded tmp of every length.
    for cut in range(len(sst_blob) + 1):
        work = tmp_path / f"sst{cut}"
        shutil.copytree(pre, work)
        (work / f"{meta.name}{TMP_INFIX}4242").write_bytes(sst_blob[:cut])
        check(work, f"sst tmp at {cut}")
    # Stage 1b: SSTable fully written, manifest not yet swapped.
    work = tmp_path / "sst-full"
    shutil.copytree(pre, work)
    (work / meta.name).write_bytes(sst_blob)
    check(work, "orphan sstable")
    # Stage 2: + the new WAL generation exists (header only).
    work = tmp_path / "rotated"
    shutil.copytree(pre, work)
    (work / meta.name).write_bytes(sst_blob)
    new_gen = max(g for g, _p in wal_generations(post))
    src = [p for g, p in wal_generations(post) if g == new_gen][0]
    (work / src.name).write_bytes(src.read_bytes())
    check(work, "rotated, uncommitted")
    # Stage 3a: killed mid-manifest-write — old manifest + stranded tmp.
    for cut in range(len(manifest_blob) + 1):
        work = tmp_path / f"man{cut}"
        shutil.copytree(pre, work)
        (work / meta.name).write_bytes(sst_blob)
        (work / src.name).write_bytes(src.read_bytes())
        (work / f"MANIFEST{TMP_INFIX}4242").write_bytes(manifest_blob[:cut])
        check(work, f"manifest tmp at {cut}")
    # Stage 3b: manifest swapped, old WAL generations not yet deleted.
    work = tmp_path / "committed"
    shutil.copytree(post, work)
    for g, p in wal_generations(pre):
        target = work / p.name
        if not target.exists():
            target.write_bytes(p.read_bytes())
    check(work, "committed, stale gens")
    # Stage 4: the fully completed flush.
    work = tmp_path / "done"
    shutil.copytree(post, work)
    check(work, "complete flush")


def test_flush_protocol_every_offset(tmp_path: Path) -> None:
    _flush_sweep(tmp_path)


def test_compaction_protocol_hybrids(tmp_path: Path) -> None:
    """Old-manifest/new-files and new-manifest/old-files both recover
    the identical visible state."""
    home = tmp_path / "base"
    store = _mk_store(home)
    _apply_ops(store, 60)
    store.flush_memtable()
    pre = tmp_path / "pre"
    shutil.copytree(home, pre)
    assert store.maintain(), "no compaction task scheduled"
    store.close()
    post = tmp_path / "post"
    shutil.copytree(home, post)
    expect, seq = _model_after(60), 60

    # Hybrid A: compaction outputs written, manifest still old.
    work = tmp_path / "hybrid-a"
    shutil.copytree(pre, work)
    old_names = {p.name for p in pre.glob("sst-*.sst")}
    for p in post.glob("sst-*.sst"):
        if p.name not in old_names:
            (work / p.name).write_bytes(p.read_bytes())
    items, got_seq = _recovered_state(work)
    assert items == expect and got_seq == seq
    # The orphaned outputs were collected.
    assert {p.name for p in work.glob("sst-*.sst")} <= old_names

    # Hybrid B: manifest swapped, compacted inputs not yet deleted.
    work = tmp_path / "hybrid-b"
    shutil.copytree(post, work)
    for p in pre.glob("sst-*.sst"):
        target = work / p.name
        if not target.exists():
            target.write_bytes(p.read_bytes())
    items, got_seq = _recovered_state(work)
    assert items == expect and got_seq == seq
    live = {m.name for m in read_manifest(work).live_files()}
    assert {p.name for p in work.glob("sst-*.sst")} == live
