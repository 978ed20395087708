"""The durable engine under the serving loop: ``--engine lsm``.

Contracts:

* the engine is a **passive sink** — schedules, completions, and journal
  bytes are identical between ``engine='sim'`` and ``engine='lsm'``;
* every completion the loop acknowledges is durably recorded: the store
  holds exactly the newest completion per key, across all drivers;
* the in-process and threaded drivers keep one parent-held store; the
  procpool driver's workers own per-shard stores (``data_dir/shard-<k>``)
  and write at their own completion points;
* chaos ``kill-worker`` drills (real SIGKILLs to shard processes) lose
  zero acknowledged writes — the respawned worker re-opens its shard's
  store via normal recovery;
* recovery re-derivation of an lsm-engine journal forces the sim engine
  (no double writes into the live store) and stays exact.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.faults import CHAOS_KILL_WORKER, ChaosEvent, ChaosPlan
from repro.lsm.disk import KVStore
from repro.serve import (
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
    recover_serve,
)
from repro.util.errors import InvalidInstanceError


def serve_config(tmp_path, **overrides) -> ServeConfig:
    base = dict(arrivals="poisson", rate=8.0, messages=200, shards=4,
                seed=3, P=3, B=8, epoch=4, checkpoint_every=4,
                engine="lsm", data_dir=str(tmp_path / "kv"))
    base.update(overrides)
    return ServeConfig(**base)


def _store_state(data_dir) -> dict:
    store = KVStore(data_dir, sync=False)
    items = dict(store.items())
    store.close()
    return items


def _sharded_store_state(data_dir) -> dict:
    """The union of the procpool driver's per-shard stores (key spaces
    are disjoint by routing, so the union is well-defined)."""
    items: dict = {}
    for shard_dir in sorted(Path(data_dir).glob("shard-*")):
        items.update(_store_state(shard_dir))
    return items


def test_config_validation(tmp_path):
    with pytest.raises(InvalidInstanceError):
        ServeConfig(engine="bogus")
    with pytest.raises(InvalidInstanceError):
        ServeConfig(engine="lsm")  # needs data_dir
    ServeConfig(engine="lsm", data_dir=str(tmp_path))  # fine


def test_engine_is_a_passive_sink(tmp_path):
    """Identical journal bytes and completions, sim vs lsm."""
    cfg_lsm = serve_config(tmp_path)
    cfg_sim = serve_config(tmp_path, engine="sim", data_dir="")
    p_sim = tmp_path / "sim.woj"
    p_lsm = tmp_path / "lsm.woj"
    sim = ServiceLoop(cfg_sim, journal=p_sim).run()
    lsm = ServiceLoop(cfg_lsm, journal=p_lsm).run()
    assert lsm.completions == sim.completions
    assert lsm.shard_schedules == sim.shard_schedules
    # Journal meta embeds the config (engine/data_dir differ), but every
    # flush/checkpoint record after it must be byte-identical.
    sim_blob, lsm_blob = p_sim.read_bytes(), p_lsm.read_bytes()
    assert sim_blob[-2000:] == lsm_blob[-2000:]


def test_every_acknowledged_completion_is_durable(tmp_path):
    cfg = serve_config(tmp_path)
    report = ServiceLoop(cfg).run()
    assert len(report.completions) == cfg.messages
    items = _store_state(cfg.data_dir)
    assert items, "store is empty after a completed run"
    for key, rec in items.items():
        assert report.completions[rec["gid"]] == rec["step"]


def test_supervised_and_procpool_drivers_feed_the_store(tmp_path):
    cfg = serve_config(tmp_path, data_dir=str(tmp_path / "kv-sup"))
    sup = ServiceLoop(cfg).run()
    items = _store_state(cfg.data_dir)
    assert items
    for key, rec in items.items():
        assert sup.completions[rec["gid"]] == rec["step"]

    cfg2 = serve_config(tmp_path, data_dir=str(tmp_path / "kv-proc"))
    proc = ProcPoolLoop(cfg2, processes=2).run()
    # The procpool driver's workers own per-shard stores; nothing lives
    # at the data-dir root.
    assert not (Path(cfg2.data_dir) / "MANIFEST").exists()
    shard_dirs = sorted(Path(cfg2.data_dir).glob("shard-*"))
    assert len(shard_dirs) == cfg2.shards
    items2 = _sharded_store_state(cfg2.data_dir)
    assert items2
    for key, rec in items2.items():
        assert proc.completions[rec["gid"]] == rec["step"]


def test_chaos_kill_worker_loses_zero_acked_writes(tmp_path):
    """Real SIGKILLs to shard workers: the per-shard stores record every
    completion the run acknowledged, exactly — the respawned worker
    re-opens its shard's store through normal recovery and keeps
    writing."""
    cfg = serve_config(tmp_path)
    plan = ChaosPlan((ChaosEvent(13, CHAOS_KILL_WORKER, 2),))
    report = ProcPoolLoop(
        cfg, processes=2, chaos=plan, journal=tmp_path / "chaos.woj"
    ).run()
    assert report.supervisor.worker_deaths >= 1
    assert len(report.completions) == cfg.messages
    items = _sharded_store_state(cfg.data_dir)
    assert items
    for key, rec in items.items():
        assert report.completions[rec["gid"]] == rec["step"]
    # Exact conservation, not just consistency: the store covers every
    # key that completed (newest gid per key).
    store_gids = {rec["gid"] for rec in items.values()}
    assert store_gids <= set(report.completions)


def test_recovery_forces_sim_engine(tmp_path):
    cfg = serve_config(tmp_path)
    path = tmp_path / "run.woj"
    report = ServiceLoop(cfg, journal=path).run()
    before = _store_state(cfg.data_dir)
    rec = recover_serve(path)
    assert rec.report.completions == report.completions
    assert rec.report.config.engine == "sim"
    # The live store was not touched by the verification replay.
    assert _store_state(cfg.data_dir) == before


def test_store_survives_reopen_after_run(tmp_path):
    cfg = serve_config(tmp_path, messages=100)
    ServiceLoop(cfg).run()
    first = _store_state(cfg.data_dir)
    # A second run against the same directory layers new completions on
    # top (seq numbers continue; nothing is lost).
    cfg2 = serve_config(tmp_path, messages=100, seed=9)
    ServiceLoop(cfg2).run()
    second = _store_state(cfg.data_dir)
    assert set(first) <= set(second) | set(first)
    store = KVStore(cfg.data_dir, sync=False)
    store.check_invariants()
    store.close()
