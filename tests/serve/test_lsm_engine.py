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

import shutil
from pathlib import Path

import pytest

from repro.dam.journal import JournalWriter, scan_journal
from repro.faults import CHAOS_KILL_WORKER, ChaosEvent, ChaosPlan
from repro.faults.iofaults import FaultFS
from repro.lsm.disk import KVStore
from repro.serve import (
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
    recover_serve,
)
from repro.util.errors import (
    InvalidInstanceError,
    StorageError,
    StoreDegradedError,
)
from repro.util.fsio import installed


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
    # record after it must be byte-identical.
    sim_blob, lsm_blob = p_sim.read_bytes(), p_lsm.read_bytes()
    sim_meta, lsm_meta = (scan_journal(p).ends[0] for p in (p_sim, p_lsm))
    assert sim_blob[sim_meta:] == lsm_blob[lsm_meta:]
    assert len(sim_blob) - sim_meta > 100


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


# -- group commit: the sink's WAL flushes once per step -------------------

def _wal_sizes(data_dir) -> dict:
    """WAL generation file -> bytes on disk."""
    return {p.name: p.stat().st_size for p in Path(data_dir).glob("wal-*.log")}


def _recovered_state(data_dir, scratch) -> dict:
    """What the sink would recover if the process died now: a copy of
    its directory, opened fresh (manifest, SSTables, then a scan of every
    live WAL generation)."""
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(data_dir, scratch)
    return _store_state(scratch)


class _StepPuts:
    """Wraps a live store's ``put``: records each write that returned,
    and checks that none reaches the WAL file before its step ends (the
    file stays as the step found it, unless a memtable flush rotated the
    generation mid-step)."""

    def __init__(self, store, monkeypatch) -> None:
        self.store = store
        self.done: "list[tuple[str, dict]]" = []
        self._put = store.put
        self._step = None
        self._baseline: dict = {}
        monkeypatch.setattr(store, "put", self)

    def __call__(self, key, value):
        sizes = _wal_sizes(self.store.directory)
        if value["step"] != self._step or sizes.keys() != self._baseline.keys():
            self._step, self._baseline = value["step"], sizes
        assert sizes == self._baseline, (
            f"step {self._step}: a completion reached the WAL mid-step"
        )
        seq = self._put(key, value)
        self.done.append((key, value))
        return seq

    def before(self, t: int) -> dict:
        """The newest write per key of the steps before ``t``."""
        return {k: v for k, v in self.done if v["step"] < t}


def test_every_step_starts_with_earlier_completions_durable(
    tmp_path, monkeypatch
):
    """Group commit keeps the acknowledgment rule: at the start of every
    step, the sink recovered from disk holds exactly the newest completion
    of every key completed in earlier steps; within a step, no completion
    reaches the WAL file until the step ends."""
    cfg = serve_config(tmp_path, messages=300)
    loop = ServiceLoop(cfg, journal=tmp_path / "run.woj")
    puts = _StepPuts(loop.store, monkeypatch)
    advance = loop._advance
    checked = []

    def checked_advance(t, max_steps):
        state = _recovered_state(cfg.data_dir, tmp_path / "crash")
        assert state == puts.before(t), f"step {t}"
        checked.append(len(state))
        return advance(t, max_steps)

    monkeypatch.setattr(loop, "_advance", checked_advance)
    report = loop.run()
    assert len(report.completions) == cfg.messages
    assert max(checked) > 0
    assert _store_state(cfg.data_dir) == puts.before(report.n_steps + 1)


def test_sink_wal_flushes_at_most_once_per_step(tmp_path, monkeypatch):
    """Counting the flushes the WAL writers make outside opening and
    closing a generation: at most one per step, not one per completion."""
    cfg = serve_config(tmp_path, messages=300)
    loop = ServiceLoop(cfg, journal=tmp_path / "run.woj")
    flush, close, init = (
        JournalWriter.flush, JournalWriter.close, JournalWriter.__init__
    )
    lifecycle = [0]
    step = [0]
    flushed_at: "list[int]" = []

    def counted_flush(self):
        if self.path.name.startswith("wal-") and not lifecycle[0]:
            flushed_at.append(step[0])
        return flush(self)

    def in_lifecycle(fn):
        def wrapper(self, *args, **kwargs):
            lifecycle[0] += 1
            try:
                return fn(self, *args, **kwargs)
            finally:
                lifecycle[0] -= 1
        return wrapper

    monkeypatch.setattr(JournalWriter, "flush", counted_flush)
    monkeypatch.setattr(JournalWriter, "close", in_lifecycle(close))
    monkeypatch.setattr(JournalWriter, "__init__", in_lifecycle(init))
    advance = loop._advance

    def stepped(t, max_steps):
        step[0] = t
        return advance(t, max_steps)

    monkeypatch.setattr(loop, "_advance", stepped)
    report = loop.run()
    assert len(report.completions) == cfg.messages
    assert 0 < len(flushed_at) <= report.n_steps
    assert len(set(flushed_at)) == len(flushed_at)  # one per step at most


def test_failed_step_flush_counts_one_rejection(tmp_path, monkeypatch):
    """A group whose closing flush fails costs the run one counted
    rejection, and serving goes on."""
    cfg = serve_config(tmp_path, messages=100)
    loop = ServiceLoop(cfg)
    sync_wal = loop.store.sync_wal
    calls = []

    def failing_once():
        calls.append(1)
        if len(calls) == 3:
            raise StoreDegradedError("injected", reason="fsync-fail",
                                     path=cfg.data_dir, rejections=0)
        return sync_wal()

    monkeypatch.setattr(loop.store, "sync_wal", failing_once)
    report = loop.run()
    assert len(calls) > 3
    assert loop.store_put_errors == 1
    assert len(report.completions) == cfg.messages


def test_wal_write_fault_inside_a_step_keeps_its_earlier_puts(
    tmp_path, monkeypatch
):
    """A write fault on a step's third WAL record, while the step's first
    two are still buffered: the fail-stop re-open replays those two, the
    faulted write is the run's one rejection, and the store ends holding
    the newest accepted completion of every key."""
    # A disarmed shim counts WAL writes: find the third put of a step
    # past the opening ones, with no generation rotated since the step's
    # first put, and the WAL write index it makes.
    probe = FaultFS("", armed=False)
    cfg = serve_config(tmp_path, messages=300,
                       data_dir=str(tmp_path / "probe"))
    trail = []
    with installed(probe):
        loop = ServiceLoop(cfg)
        put = loop.store.put

        def probed_put(key, value):
            trail.append((value["step"], sorted(_wal_sizes(cfg.data_dir)),
                          probe.counters.get(("write", "wal"), 0)))
            return put(key, value)

        monkeypatch.setattr(loop.store, "put", probed_put)
        loop.run()
    fault_step, fault_write = next(
        (step, write) for i, (step, gens, write) in enumerate(trail)
        if step > 5 and i >= 3
        and trail[i - 2][0] == step != trail[i - 3][0]
        and trail[i - 2][1] == gens
    )

    fs = FaultFS(f"write:wal:eio@{fault_write}x1")
    cfg = serve_config(tmp_path, messages=300)
    accepted: "list[tuple[str, dict]]" = []
    by_step: "dict[int, list]" = {}
    at_step_start: "dict[int, dict]" = {}
    rejected = []
    with installed(fs):
        loop = ServiceLoop(cfg)
        store, put = loop.store, loop.store.put

        def faulted_put(key, value):
            step = value["step"]
            sizes = _wal_sizes(cfg.data_dir)
            first = at_step_start.setdefault(step, sizes)
            earlier = by_step.setdefault(step, [])
            if step == fault_step and len(earlier) == 2 and not rejected:
                # The step's first two records are still buffered.
                assert sizes == first
            try:
                seq = put(key, value)
            except StorageError:
                rejected.append((step, len(earlier)))
                # The fail-stop re-open replayed them all the same.
                for k, v in dict(earlier).items():
                    assert store.get(k) == v
                raise
            earlier.append((key, value))
            accepted.append((key, value))
            return seq

        monkeypatch.setattr(store, "put", faulted_put)
        report = loop.run()
    assert rejected == [(fault_step, 2)]
    assert len(fs.fired) == 1
    assert loop.store_put_errors == len(rejected)
    assert len(report.completions) == cfg.messages
    assert _store_state(cfg.data_dir) == dict(accepted)


def test_procpool_chunks_end_with_every_completion_durable(
    tmp_path, monkeypatch
):
    """Workers commit each step's group as it ends, so when the parent
    merges (acknowledges) a chunk, the shard stores recovered from disk
    hold exactly the newest completion of every key completed so far."""
    cfg = serve_config(tmp_path, messages=300)
    loop = ProcPoolLoop(cfg, processes=2)
    merge = loop._merge_chunk
    checked = []

    def checked_merge(*args):
        end = merge(*args)
        state: dict = {}
        for shard_dir in sorted(Path(cfg.data_dir).glob("shard-*")):
            state.update(_recovered_state(shard_dir, tmp_path / "crash"))
        newest = {
            str(loop._gid_key[gid]): {"gid": gid, "step": step}
            for gid, step in loop.metrics.completion_step.items()
        }
        assert state == newest
        checked.append(len(state))
        return end

    monkeypatch.setattr(loop, "_merge_chunk", checked_merge)
    report = loop.run()
    assert len(report.completions) == cfg.messages
    assert len(checked) > 1 and max(checked) > 0
