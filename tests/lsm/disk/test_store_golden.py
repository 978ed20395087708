"""Golden digests of the KV engine's on-disk bytes.

Every file the store writes — WAL generations, SSTables (blocks, bloom
filter, index, footer), the manifest, and the serving journal beside an
``engine="lsm"`` run — is a function of the operations alone.  These
digests pin the sha256 of every file, by name, for a seeded grid, so a
change to how any of those bytes are *produced* (encoders, bloom
construction, block packing) must reproduce them exactly:

* ``mixed-str``: seeded puts and deletes over string keys, some needing
  JSON escapes (quote, backslash, control and non-ASCII characters),
  with values of every JSON type (tuples too); memtable 64, ``T=4``;
  enough operations for two or more levels and a bottom-level tombstone
  retirement;
* ``int-sink``: int keys with the serving sink's ``{"gid", "step"}``
  values under the sink's default store configuration;
* ``scrub-salvage``: a multi-block run with one flipped block, repaired
  by ``run_scrub`` (the salvage is rewritten through ``write_sstable``);
  the quarantined original is pinned too;
* ``sstable-tuple-keys``: ``write_sstable`` called directly on tuple
  keys (a store cannot hold them: they read back from disk as lists);
* ``serve-lsm-sync``: the journal (fsynced, ``sync=True``) and the
  store of a small ``ServiceLoop`` run on ``engine="lsm"``.

Regenerate ``store_golden.json`` (only when the bytes are *meant* to
change) with ``PYTHONPATH=src python -m tests.lsm.disk.test_store_golden``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from pathlib import Path

import pytest

from repro.faults.crashes import flip_byte
from repro.lsm.disk import KVStore, run_scrub
from repro.lsm.disk.sstable import (
    KIND_PUT,
    KIND_TOMBSTONE,
    SSTableReader,
    write_sstable,
)
from repro.serve import ServeConfig, ServiceLoop

GOLDEN = Path(__file__).with_name("data") / "store_golden.json"

#: string keys that exercise every JSON string escape class.
ODD_KEYS = (
    'quote"d', "back\\slash", "tab\there", "new\nline", "café",
    "漢字", "emoji-\U0001f642", "nul\u0000byte", "",
)


def _files(root: Path) -> "dict[str, str]":
    """sha256 of every file under ``root``, by relative posix path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(
            p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _value(rng: random.Random, i: int):
    pick = rng.randrange(8)
    if pick == 0:
        return i
    if pick == 1:
        return i / 7
    if pick == 2:
        return f'v"{i}\\é'
    if pick == 3:
        return None
    if pick == 4:
        return bool(i % 2)
    if pick == 5:
        return [i, "x", None]
    if pick == 6:
        return {"n": i, "s": ODD_KEYS[i % len(ODD_KEYS)]}
    return (i, f"t{i}")


def _retired_tombstones(store: KVStore, deleted_last: "set") -> bool:
    """True iff some key whose newest operation was a delete has no
    tombstone left anywhere: compaction retired it at the bottom."""
    held = {k for k, (_s, kind, _v) in store.memtable.items()
            if kind == KIND_TOMBSTONE}
    for meta in store.manifest.live_files():
        reader = SSTableReader(store.directory / meta.name)
        held.update(k for k, _s, kind, _v in reader.iter_entries()
                    if kind == KIND_TOMBSTONE)
    return bool(deleted_last - held)


def _mixed_str(home: Path) -> None:
    rng = random.Random(18)
    keys = [*ODD_KEYS, *(f"k{i:04d}" for i in range(400))]
    last_op: dict = {}
    with KVStore(home, memtable_capacity=64, size_ratio=4,
                 sync=False) as store:
        for i in range(6000):
            key = rng.choice(keys)
            if rng.random() < 0.15:
                store.delete(key)
                last_op[key] = "delete"
            else:
                store.put(key, _value(rng, i))
                last_op[key] = "put"
        assert len(store.manifest.levels) >= 2
        assert _retired_tombstones(
            store, {k for k, op in last_op.items() if op == "delete"}
        )


def _int_sink(home: Path) -> None:
    rng = random.Random(7)
    with KVStore(home, sync=False) as store:
        for step in range(3000):
            gid = rng.randrange(1500)
            store.put(gid, {"gid": gid, "step": step})
        assert len(store.manifest.levels) >= 2


def _scrub_salvage(home: Path) -> None:
    with KVStore(home, memtable_capacity=8, size_ratio=2, sync=False,
                 block_entries=4) as store:
        for i in range(1, 201):
            key = f"k{i % 17:02d}"
            if i % 6 == 0:
                store.delete(key)
            else:
                store.put(key, i)
        store.flush_memtable()
    with KVStore(home, memtable_capacity=8, size_ratio=2, sync=False,
                 block_entries=4) as store:
        meta = max(store.manifest.live_files(), key=lambda m: m.blocks)
        assert meta.blocks >= 2
        flip_byte(store.directory / meta.name, 20, in_place=True)
        report = run_scrub(store, repair=True)
        assert report.quarantined == [meta.name]
        assert report.salvaged_entries > 0


def _sstable_tuple_keys(home: Path) -> None:
    home.mkdir()
    keys = sorted({(ODD_KEYS[i % len(ODD_KEYS)], i % 13, i // 5)
                   for i in range(300)})
    rows = [
        (key, n + 1, KIND_TOMBSTONE if n % 9 == 0 else KIND_PUT,
         None if n % 9 == 0 else [n, key[0]])
        for n, key in enumerate(keys)
    ]
    write_sstable(home, 1, rows, block_entries=16)


def _serve_lsm_sync(home: Path) -> None:
    home.mkdir()
    config = ServeConfig(arrivals="poisson", rate=8.0, messages=200,
                         shards=4, seed=3, P=3, B=8, epoch=4,
                         checkpoint_every=4, engine="lsm",
                         # Relative, so the journal meta is the same in
                         # every temp dir.
                         data_dir="kv")
    cwd = os.getcwd()
    os.chdir(home)
    try:
        ServiceLoop(config, journal=home / "run.woj", sync=True).run()
    finally:
        os.chdir(cwd)


CASES = {
    "mixed-str": _mixed_str,
    "int-sink": _int_sink,
    "scrub-salvage": _scrub_salvage,
    "sstable-tuple-keys": _sstable_tuple_keys,
    "serve-lsm-sync": _serve_lsm_sync,
}


def run_case(case: str, workdir: Path) -> "dict[str, str]":
    """Build case ``case`` under ``workdir``; its per-file digests."""
    home = workdir / "store"
    CASES[case](home)
    return _files(home)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_store_golden(case, golden, tmp_path):
    assert run_case(case, tmp_path) == golden[case]


def main() -> None:
    doc = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            doc[case] = run_case(case, Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, doc.values()))} file digests "
          f"({len(doc)} cases) to {GOLDEN}")


if __name__ == "__main__":
    main()
