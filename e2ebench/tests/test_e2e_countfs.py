"""The counting fs handle changes no byte on disk."""

import shutil
from pathlib import Path

from repro.lsm.disk import KVStore
from repro.serve.loop import ServeConfig, ServiceLoop
from repro.util.fsio import REAL_FS, installed

from e2ebench.countfs import CountingFS


def _files(root: Path) -> "dict[str, bytes]":
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _kv_workload(directory: Path) -> None:
    store = KVStore(directory, memtable_capacity=16, size_ratio=2,
                    sync=True)
    for i in range(400):
        key = f"k{i * 7 % 97:03d}"
        if i % 9 == 0:
            store.delete(key)
        else:
            store.put(key, f"v{i}")
        store.get(f"k{i % 97:03d}")
    store.close()


def _serve_workload(directory: Path) -> None:
    config = ServeConfig(
        arrivals="mmpp", rate=2.0, burst_rate=8.0, messages=300,
        shards=2, theta=0.9, seed=3, engine="lsm",
        data_dir=str(directory / "kv"),
    )
    ServiceLoop(config, journal=directory / "serve.journal",
                sync=True).run()


def _files_under(fs, directory: Path, work) -> "dict[str, bytes]":
    """Run ``work`` in a fresh ``directory`` under ``fs``; its files."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    with installed(fs):
        work(directory)
    return _files(directory)


def test_kv_files_byte_identical(tmp_path):
    counting = CountingFS()
    real = _files_under(REAL_FS, tmp_path / "run", _kv_workload)
    assert real
    assert _files_under(counting, tmp_path / "run", _kv_workload) == real
    for cls in ("wal", "sstable", "manifest"):
        assert counting.bytes_written[cls] > 0
        assert counting.fsyncs[cls] > 0
    assert counting.bytes_read["sstable"] > 0
    assert counting.bytes_written["journal"] == 0


def test_serve_files_byte_identical(tmp_path):
    # Same directory for both runs: the journal's meta names data_dir.
    counting = CountingFS()
    real = _files_under(REAL_FS, tmp_path / "run", _serve_workload)
    assert "serve.journal" in real
    counted = _files_under(counting, tmp_path / "run", _serve_workload)
    assert counted == real
    assert counting.bytes_written["journal"] == len(real["serve.journal"])
    assert counting.fsyncs["journal"] > 0
    assert counting.total_written >= sum(len(v) for v in real.values())
