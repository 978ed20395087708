"""Chaos ``disk-fault`` windows over the serving drivers.

Contracts:

* a disarmed (or empty) ``FaultFS`` installed as the ambient handle is
  **invisible**: schedules, journal bytes, and the store's on-disk
  artifacts are identical to a run without the shim, across drivers;
* a ``disk-fault`` chaos event opens a fault window over the durable
  store for its duration: the run still completes every message, the
  supervisor counts the window, and zero acknowledged completions are
  lost (typed degradation only — the engine is a sink, not the
  service);
* the drill is deterministic: the same seed yields the same fault
  plan, the same injected faults, and the same completions, twice;
* the procpool driver scopes fault windows to the worker hosting the
  event's shard — other shards' stores never see the shim.
"""

from __future__ import annotations

from pathlib import Path

from repro.faults import CHAOS_DISK_FAULT, ChaosEvent, ChaosPlan
from repro.faults.iofaults import FaultFS
from repro.lsm.disk import KVStore
from repro.serve import (
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
)
from repro.util.fsio import REAL_FS, current_fs, install, installed


def serve_config(tmp_path, **overrides) -> ServeConfig:
    base = dict(arrivals="poisson", rate=8.0, messages=200, shards=4,
                seed=3, P=3, B=8, epoch=4, checkpoint_every=4)
    base.update(overrides)
    return ServeConfig(**base)


def _store_items(data_dir) -> dict:
    items: dict = {}
    root = Path(data_dir)
    dirs = sorted(root.glob("shard-*")) or [root]
    for d in dirs:
        store = KVStore(d, sync=False)
        items.update(store.items())
        store.close()
    return items


def _disk_fault_plan(step=13, shard=1, duration=6,
                     spec="write:wal:enospc") -> ChaosPlan:
    return ChaosPlan((
        ChaosEvent(step, CHAOS_DISK_FAULT, shard, duration=duration,
                   spec=spec),
    ))


# -- byte-identity: the shim at rest is invisible -----------------------

def test_disarmed_shim_is_byte_invisible(tmp_path):
    cfg = serve_config(tmp_path)
    p_bare = tmp_path / "bare.woj"
    p_shim = tmp_path / "shim.woj"
    bare = ServiceLoop(cfg, journal=p_bare).run()
    with installed(FaultFS("write:wal:enospc", armed=False)) as fs:
        shim = ServiceLoop(cfg, journal=p_shim).run()
    assert current_fs() is REAL_FS  # restored
    assert fs.fired == []
    assert fs.counters  # the shim really was on the syscall path
    assert shim.completions == bare.completions
    assert shim.shard_schedules == bare.shard_schedules
    assert p_shim.read_bytes() == p_bare.read_bytes()


def test_disarmed_shim_is_byte_invisible_lsm_engine(tmp_path):
    cfg1 = serve_config(tmp_path, engine="lsm",
                        data_dir=str(tmp_path / "kv-bare"))
    cfg2 = serve_config(tmp_path, engine="lsm",
                        data_dir=str(tmp_path / "kv-shim"))
    bare = ServiceLoop(cfg1).run()
    with installed(FaultFS("", armed=False)):
        shim = ServiceLoop(cfg2).run()
    assert shim.completions == bare.completions
    # The store's on-disk artifacts are byte-identical, file by file.
    bare_files = {
        p.name: p.read_bytes() for p in Path(cfg1.data_dir).iterdir()
    }
    shim_files = {
        p.name: p.read_bytes() for p in Path(cfg2.data_dir).iterdir()
    }
    assert shim_files == bare_files


# -- the drill: in-process driver -----------------------------------------

def test_disk_fault_drill_supervised(tmp_path):
    cfg = serve_config(tmp_path, engine="lsm",
                       data_dir=str(tmp_path / "kv"))
    plan = _disk_fault_plan()
    report = ServiceLoop(cfg, chaos=plan).run()
    assert current_fs() is REAL_FS  # the window never leaks out
    assert report.supervisor.disk_fault_windows == 1
    assert len(report.completions) == cfg.messages
    # Zero acknowledged loss: the store holds the newest completion per
    # key, every one matching the run's acknowledged completions.
    items = _store_items(cfg.data_dir)
    assert items
    for _key, rec in items.items():
        assert report.completions[rec["gid"]] == rec["step"]


def test_disk_fault_drill_is_deterministic(tmp_path):
    runs = []
    for tag in ("a", "b"):
        cfg = serve_config(tmp_path, engine="lsm",
                           data_dir=str(tmp_path / f"kv-{tag}"))
        plan = ChaosPlan.draw(shards=cfg.shards, horizon=24, seed=7,
                              kills=0, stalls=0, disk_faults=2)
        report = ServiceLoop(cfg, chaos=plan).run()
        runs.append((
            tuple(e.spec for e in plan.events),
            report.completions,
            report.supervisor.disk_fault_windows,
            report.supervisor.disk_faults_injected,
        ))
    assert runs[0] == runs[1]
    assert runs[0][2] == 2  # both drawn windows opened


def test_drawn_plan_includes_specs(tmp_path):
    plan = ChaosPlan.draw(shards=4, horizon=32, seed=11, kills=1,
                          stalls=1, disk_faults=3)
    disk = [e for e in plan.events if e.kind == CHAOS_DISK_FAULT]
    assert len(disk) == 3
    for e in disk:
        assert e.spec and e.duration >= 1
    others = [e for e in plan.events if e.kind != CHAOS_DISK_FAULT]
    assert all(e.spec == "" for e in others)
    # Old journal meta shape is preserved: only disk-fault rows carry
    # the 5th (spec) element.
    for row in plan.to_meta():
        assert len(row) == (5 if row[1] == CHAOS_DISK_FAULT else 4)
    assert ChaosPlan.from_meta(plan.to_meta()).events == plan.events


# -- the drill: shard-per-process driver --------------------------------

def test_disk_fault_drill_procpool(tmp_path):
    cfg = serve_config(tmp_path, engine="lsm",
                       data_dir=str(tmp_path / "kv"))
    plan = _disk_fault_plan(shard=1, spec="write:wal:enospc")
    report = ProcPoolLoop(cfg, processes=2, chaos=plan).run()
    assert report.supervisor.disk_fault_windows == 1
    assert len(report.completions) == cfg.messages
    items = _store_items(cfg.data_dir)
    assert items
    for _key, rec in items.items():
        assert report.completions[rec["gid"]] == rec["step"]


def test_procpool_window_open_at_run_end_does_not_leak(tmp_path):
    """A window still open when the run ends is closed with the run:
    the parent process is back on the real filesystem afterwards, as
    under the in-process driver."""
    end = ServiceLoop(serve_config(tmp_path)).run().n_steps
    plan = _disk_fault_plan(step=end - 2, duration=50)
    try:
        for tag, make in (
            ("sup", lambda cfg: ServiceLoop(cfg, chaos=plan)),
            ("proc", lambda cfg: ProcPoolLoop(cfg, processes=2, chaos=plan)),
        ):
            cfg = serve_config(tmp_path, engine="lsm",
                               data_dir=str(tmp_path / f"kv-{tag}"))
            report = make(cfg).run()
            assert report.supervisor.disk_fault_windows == 1
            assert report.n_steps == end
            assert current_fs() is REAL_FS, tag
    finally:
        install(None)
