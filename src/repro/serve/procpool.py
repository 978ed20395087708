"""Shard-per-process serving: shared-nothing workers behind the
serving loop.

:class:`ProcPoolLoop` drives the same supervised run
:class:`~repro.serve.loop.ServiceLoop` does, but shard engines live in
separate **processes**.
The parent keeps everything global — arrivals, routing, metrics, the
journal, the supervision state machine — and ships each worker per-epoch
batches of pre-routed arrivals over a pipe; workers own only their
shards' engines, admission queues, and a planner, and answer with
per-step results (admits, completions, sheds, buffered journal records,
depth samples) plus counter deltas.

Neither side restates the in-process loop.  A worker is a
:class:`~repro.serve.loop.ShardStep` — the same drain / plan / step
phases :class:`~repro.serve.loop.ServiceLoop` runs — whose three events
(admission, completion, re-plans exhausted) are recorded for the parent
instead of applied.  The parent inherits the run skeleton and overrides
one advance step: stage a chunk's arrivals through the loop's own
routing (:meth:`~repro.serve.loop.ServiceLoop._route`), dispatch,
merge.  What is left here is process-specific: pipes,
worker lifecycle, the queue mirror, and the chunk merge.

The determinism story is the in-process loop's, pushed across a
process boundary:

* every per-shard decision is a pure function of ``(config, spec)`` —
  :func:`~repro.serve.loop.build_shard_engine` and
  :func:`~repro.serve.supervisor.apply_chaos_windows` rebuild the exact
  engine in the worker, and fault draws are memoized pure functions of
  the derived seed, so a worker answers every injector query exactly as
  the in-process engine would;
* the parent pre-draws arrivals for the whole chunk (arrival RNG state
  only ever advances by ``take`` calls in step order) and merges worker
  results **per (step, shard) in ascending order**, so journal records,
  checkpoints, and metrics land byte-identically to the sequential loop;
* chunks end at epoch boundaries and split at chaos-event steps, so
  every supervision transition (heartbeat, breaker trip, kill) happens
  at a barrier where the parent's view of the world is complete.
  Closed-loop arrivals force one-step chunks (completions feed the
  arrival process).

A fault-free ``--processes N`` journal is therefore byte-identical to a
``ServiceLoop`` journal for every N — pinned by test.

Three behaviors exist only here:

* **dead workers**: a worker that exits (SIGKILL from
  ``kill-worker`` chaos, a crash, or watchdog escalation) quarantines
  every shard it hosted; the probe path restarts each shard **on a
  fresh process** from the journal fold, under the normal
  ``restart_budget``;
* **watchdog escalation**: a chunk that misses the soft deadline gets a
  cooperative cancel (an :class:`multiprocessing.Event` the worker
  polls between steps), then ``terminate()`` (SIGTERM), then ``kill()``
  (SIGKILL).  Every rung ends with the worker dead and the standard
  dead-worker path taking over; un-merged chunk results are discarded —
  the journal and the merged schedules are the only truth;
* **queue mirroring**: the parent mirrors every worker admission queue
  (insert on dispatch, remove on reported admit/shed), so a dead
  worker's queue is reconstructed exactly when its shard restarts.

Known (chaos-only) divergences from the in-process driver, all
conservation-exact: a shard that deadlocks mid-chunk is quarantined at
the next barrier rather than mid-step, its unconsumed chunk arrivals
spilling at the barrier; depth timelines meter the spill one barrier
late.  Fault-free runs have none of these.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from dataclasses import asdict

from pathlib import Path

from repro.dam.journal import REC_FLUSH
from repro.dam.schedule import Flush
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_EXECUTE
from repro.serve.loop import (
    MAX_FORCED_REPLANS,
    ServiceLoop,
    ShardStep,
    build_shard_engine,
)
from repro.serve.supervisor import (
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    DiskFaultWindows,
    apply_chaos_windows,
)
from repro.util.errors import InvalidInstanceError, StorageError

#: seconds each escalation rung waits before climbing to the next.
ESCALATION_GRACE = 1.0


# ---------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------
class _ShardJournalBuffer:
    """One chunk's journal records, shipped to the parent.

    Presents the ``record_flush`` / ``record_fault`` face of the serve
    journal; the parent replays the records in (step, shard) order so
    journal bytes match the in-process loop exactly."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: "list[tuple]" = []

    def record_flush(self, t: int, shard: int, flush: Flush) -> None:
        self.records.append((REC_FLUSH, t, shard, flush))

    def record_fault(self, t: int, shard: int, kind: str, src: int,
                     dest: int, detail: str) -> None:
        self.records.append(("fault", t, shard, (kind, src, dest, detail)))


class _ShardWorker(ShardStep):
    """Everything one worker process owns: its shards' engines and
    stores, their admission queues, and a planner.

    Each step is :class:`~repro.serve.loop.ServiceLoop`'s: offer the
    parent-routed arrivals, then the shared drain / plan / step phases.
    The three step events are recorded for the parent instead of
    applied; a shard whose re-plans run out freezes until the parent
    quarantines it at the chunk barrier.
    """

    def __init__(self, config, chaos, specs, cancel,
                 debug_hang=None) -> None:
        engines = [None] * config.shards
        for sid in sorted(specs):
            engines[sid] = build_shard_engine(config, specs[sid])
            apply_chaos_windows(engines[sid], chaos, config, sid)
        #: gid -> tenant index, fed by the parent with each batch (the
        #: worker never sees the arrival process, only routed gids).
        self.tenant_of: "dict[int, int]" = {}
        super().__init__(config, engines, self.tenant_of)
        self._hosted = tuple(self._shard_ids)
        self.chaos = chaos
        self.cancel = cancel
        #: test hook: ``(shard, step, mode)`` hangs the worker at that
        #: step; mode is ``cancellable`` (honors the cancel event),
        #: ``stubborn-term`` (dies only to SIGTERM), or ``stubborn-kill``
        #: (ignores SIGTERM; dies only to SIGKILL).
        self.debug_hang = debug_hang
        #: per-shard durable sinks (engine='lsm'): each hosted shard
        #: owns ``data_dir/shard-<sid>``.  Opening is normal recovery —
        #: a fresh process after a SIGKILL replays the WAL it was left.
        self.stores: dict = {}
        if config.engine == "lsm":
            from repro.lsm.disk import KVStore
            for sid in self._hosted:
                self.stores[sid] = KVStore(
                    Path(config.data_dir) / f"shard-{sid}", sync=False
                )
        #: chaos disk-fault windows live worker-side too: the worker
        #: owns the stores, so its syscalls are the fault domain.
        self._disk_faults = DiskFaultWindows(chaos, self._hosted)
        #: shard -> step it deadlocked at with no re-plans left.
        self._frozen_at: "dict[int, int]" = {}
        #: the running chunk's per-shard results and sink rejections.
        self._out: dict = {}
        self._store_errors: "dict[int, int]" = {}
        # Deltas are taken against the last *reported* totals, not the
        # chunk start, so counters bumped between chunks (the forced
        # re-plan a restore issues) reach the parent with the next chunk.
        self._last_stats = {
            sid: asdict(engines[sid].stats) for sid in self._hosted
        }
        self._last_adm = asdict(self.admission.stats)
        self._last_plan = asdict(self.planner.stats)

    def _maybe_hang(self, t: int) -> None:
        if self.debug_hang is None:
            return
        sid, step, mode = self.debug_hang
        if sid not in self._hosted or t != step:
            return
        if mode == "stubborn-kill":
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        if mode == "cancellable":
            while not self.cancel.is_set():
                time.sleep(0.005)
        else:
            while True:
                time.sleep(0.05)

    # -- step events: recorded for the parent --------------------------
    def _on_admission(self, sid, gid, done, t) -> None:
        self._out[sid]["admits"].setdefault(t, []).append((gid, done))
        if done is not None:
            self._store_put(sid, gid, done)

    def _on_completion(self, sid, gid, step) -> None:
        self._out[sid]["exec"].setdefault(step, []).append((gid, step))
        self.admission.note_departed(gid)
        self._store_put(sid, gid, step)

    def _on_replans_exhausted(self, sid, engine, t) -> None:
        self._frozen_at[sid] = self._out[sid]["frozen_at"] = t
        self._shard_ids = [s for s in self._shard_ids if s != sid]

    # -- durable sink: the acknowledgment is the parent journal ----------
    def _store_of(self, sid: int):
        return self.stores.get(sid)

    def _store_rejected(self, sid: int) -> None:
        self._store_errors[sid] = self._store_errors.get(sid, 0) + 1

    def shutdown(self) -> None:
        """Close the stores (flushing their WALs) before the process
        exits via ``os._exit`` — which skips finalizers on purpose."""
        for store in self.stores.values():
            try:
                store.close()
            except (StorageError, OSError):
                pass
        self.stores.clear()
        self._disk_faults.close()

    def restore(self, sid, locations, targets, queue_items,
                tenants=None, keys=None) -> None:
        """Install folded restart state shipped by the parent."""
        self._learn(tenants, keys)
        self._frozen_at.pop(sid, None)
        self._restore_shard(sid, locations, targets)
        self.admission.load_queue(sid, queue_items)

    def _learn(self, tenants, keys) -> None:
        """Take in the parent's gid -> tenant / routed-key tags."""
        if tenants:
            self.tenant_of.update(
                {int(g): int(tid) for g, tid in tenants.items()}
            )
        if keys:
            self._gid_key.update({int(g): int(k) for g, k in keys.items()})

    def run_chunk(self, t0, t1, batch, active, slo=None):
        """Execute steps ``t0..t1`` for ``active`` hosted shards.

        Cross-shard state (metrics, arrivals, journal) lives in the
        parent, so shards on different workers need no ordering.
        ``slo`` carries the parent's outstanding SLO decisions — the
        full door set plus ``{shard: [tenants]}`` purge debts — the
        parent owns the tracker, the worker owns the queues.  Debts are
        re-delivered until a chunk that applied them merges, so a worker
        SIGKILLed with the dispatch cannot lose a purge."""
        order = sorted(set(self._hosted) & set(active))
        self._shard_ids = [s for s in order if s not in self._frozen_at]
        self._out = out = {
            sid: {"admits": {}, "sheds": {}, "records": {}, "exec": {},
                  "depths": {}, "frozen_at": None, "unconsumed": []}
            for sid in order
        }
        self._journal = journal = _ShardJournalBuffer()
        self._store_errors = {}
        adm = self.admission
        for sid in order:
            entry = batch.get(sid, {})
            self._learn(entry.get("tenants"), entry.get("keys"))
        if slo is not None:
            adm.door_closed = set(slo["door"])
            for sid in order:
                for tid in slo["purge"].get(sid, ()):
                    purged = adm.purge_tenant_shard(sid, tid)
                    if purged:
                        out[sid].setdefault("purged", []).extend(purged)
        for sid in order:
            items = batch.get(sid, {}).get("requeue", ())
            if items:
                adm.load_requeue(sid, items)
        for t in range(t0, t1 + 1):
            if self.cancel.is_set():
                return None
            self._maybe_hang(t)
            if self.cancel.is_set():
                return None
            self._disk_faults.advance(t)
            for sid in order:  # phase 1: offer the parent-routed arrivals
                arrivals = batch.get(sid, {}).get("arrivals", {}).get(t, ())
                if sid in self._frozen_at:
                    out[sid]["unconsumed"].extend(
                        (t, g, leaf) for g, leaf in arrivals
                    )
                    continue
                sheds = [g for g, leaf in arrivals
                         if not adm.offer(sid, g, leaf)]
                if sheds:
                    out[sid]["sheds"][t] = sheds
            self._drain_shards(t)
            self._plan_shards(t)
            self._execute_shards(t)
            for sid in order:  # phase 5: depth samples
                engine = self.engines[sid]
                out[sid]["depths"][t] = (
                    adm.queue_depth(sid), engine.root_backlog,
                    engine.in_flight,
                )
        for rec in journal.records:  # (type, t, shard, payload)
            out[rec[2]]["records"].setdefault(rec[1], []).append(rec)
        for sid in order:
            cur = asdict(self.engines[sid].stats)
            prev = self._last_stats[sid]
            out[sid]["stats"] = {k: cur[k] - prev[k] for k in cur}
            self._last_stats[sid] = cur
            out[sid]["queue_len"] = adm.queue_depth(sid)
            store = self.stores.get(sid)
            if store is not None:
                # Flush the WAL before the results ship: every
                # completion the parent merges (= acknowledges) from
                # this chunk has its store write out of process-local
                # buffers, so a SIGKILL between chunks loses none.
                try:
                    store.sync_wal()
                except StorageError:
                    self._store_rejected(sid)
                out[sid]["store"] = dict(
                    store.health(), errors=self._store_errors.get(sid, 0)
                )
        cur = asdict(adm.stats)
        prev, self._last_adm = self._last_adm, cur
        adm_out = {
            k: cur[k] - prev[k] for k in cur
            if k not in ("max_queue_depth", "shed_by_shard")
        }
        adm_out["max_queue_depth"] = cur["max_queue_depth"]
        adm_out["shed_by_shard"] = {
            s: cur["shed_by_shard"][s] - prev["shed_by_shard"].get(s, 0)
            for s in cur["shed_by_shard"]
        }
        cur = asdict(self.planner.stats)
        prev, self._last_plan = self._last_plan, cur
        return {
            "shards": out,
            "admission": adm_out,
            "planner": {k: cur[k] - prev[k] for k in cur},
            "faults_fired": self._disk_faults.take_fired(),
        }


def _worker_main(conn, cancel, config, chaos, specs,
                 debug_hang=None) -> None:
    worker = _ShardWorker(config, chaos, specs, cancel, debug_hang)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            cmd = msg[0]
            try:
                if cmd == "chunk":
                    res = worker.run_chunk(*msg[1:])
                    if res is None:  # cooperative cancel honored
                        conn.send(("cancelled",))
                        break
                    conn.send(("ok", res))
                elif cmd == "restore":
                    worker.restore(*msg[1:])
                    conn.send(("ok", None))
                elif cmd == "stop":
                    break
            except BaseException as exc:  # ship the typed error home
                try:
                    conn.send(("err", exc))
                except Exception:
                    break
    finally:
        try:
            worker.shutdown()  # the stores are child-owned: close them
        except Exception:
            pass
        try:
            conn.close()
        except Exception:
            pass
        # Skip interpreter finalizers: a forked child shares journal
        # segment descriptors with the parent, and letting GC flush an
        # inherited buffered writer would double-write its bytes.
        os._exit(0)


# ---------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------
class _WorkerSlot:
    """A live worker process and the shards it hosts."""

    __slots__ = ("slot_id", "proc", "conn", "cancel", "shards",
                 "door_seen")

    def __init__(self, slot_id, proc, conn, cancel, shards) -> None:
        self.slot_id = slot_id
        self.proc = proc
        self.conn = conn
        self.cancel = cancel
        self.shards = set(shards)
        #: door version last *merged* from this slot (0 = the initial
        #: all-open door every fresh worker is born with); a respawned
        #: slot starts at 0 and therefore re-receives the current door.
        self.door_seen = 0


class ProcPoolLoop(ServiceLoop):
    """:class:`~repro.serve.loop.ServiceLoop` over shard-per-process
    workers.

    ``processes=0`` means one worker per shard; shards round-robin over
    fewer slots.  ``debug_hang=(shard, step, mode)`` is a test hook that
    wedges the hosting worker at that step to exercise the watchdog
    escalation ladder.
    """

    def __init__(
        self,
        config,
        *,
        processes: int = 0,
        supervisor=None,
        chaos=None,
        journal=None,
        sync: bool = False,
        max_segment_bytes: "int | None" = None,
        compact_every_rotations: int = 0,
        debug_hang=None,
    ) -> None:
        if int(processes) < 0:
            raise InvalidInstanceError(
                f"processes must be >= 0, got {processes}"
            )
        super().__init__(
            config, supervisor=supervisor, chaos=chaos,
            journal=journal, sync=sync,
            max_segment_bytes=max_segment_bytes,
            compact_every_rotations=compact_every_rotations,
        )
        n = len(self.engines)
        self.processes = min(int(processes), n) if processes else n
        self._ctx = mp.get_context("fork")
        self._debug_hang = debug_hang
        self._slots: "dict[int, _WorkerSlot]" = {}
        self._slot_of: "dict[int, int]" = {}
        self._next_slot_id = 0
        #: per-shard mirror of the worker admission queue, gid -> leaf
        #: in FIFO order (dicts preserve insertion order).
        self._mirror: "list[dict[int, int]]" = [{} for _ in range(n)]
        #: diversion handoffs staged for delivery at the next dispatch.
        self._pending_requeue: "list[list]" = [[] for _ in range(n)]
        #: the chunk being staged: shard -> worker payload.
        self._batch: "dict | None" = None
        # The parent's engines never step: their counters accumulate
        # the merged worker deltas and their schedules the merged flush
        # records, so the report reads them as in-process.  In-flight
        # and root backlog are the workers' last reported depths.
        self._last_inflight = [0] * n
        self._last_backlog = [0] * n
        #: journal-checkpointed SLO state (the workers own the queues
        #: the decisions act on).  The door is versioned and per-shard
        #: purge debts persist until a chunk that applied them merges,
        #: so a worker death between dispatch and merge re-delivers the
        #: directive to the respawned worker instead of losing it.
        self._door: "list[int]" = []
        self._door_version = 0
        self._owed_purge: "list[set[int]]" = [set() for _ in range(n)]
        #: last reported per-shard store degradation reason ("" = ok).
        self._store_health: "list[str]" = [""] * n

    # -- journal meta --------------------------------------------------
    def _driver_meta(self) -> dict:
        return {"kind": "procpool", "processes": self.processes}

    # -- durable sink (worker-owned under this driver) ------------------
    def _open_store(self, config):
        """Per-shard stores live in the workers (``data_dir/shard-<k>``),
        never in the parent: a store held here would double-write every
        completion the merge path replays, and a SIGKILLed worker could
        not take its own store down with it."""
        return None

    def _tag(self, entry: dict, gid: int) -> None:
        """Ship what a worker needs to know about ``gid`` with it: its
        tenant (fair admission) and its routed key (durable sink).  The
        parent keeps both maps, so restores re-ship them to fresh
        workers."""
        tid = self.metrics.tenant_of.get(gid)
        if tid is not None:
            entry.setdefault("tenants", {})[gid] = tid
        key = self._gid_key.get(gid)
        if key is not None:
            entry.setdefault("keys", {})[gid] = key

    def _merge_store_health(self, sid: int, sdata: dict) -> None:
        """Fold one shard's reported store health into supervision.

        Degradation feeds the existing health machinery at its advisory
        stage: the shard is marked DEGRADED (heartbeats re-evaluate it
        every epoch), counted on first entry and on re-arm.  It never
        trips the breaker by itself — completions are journal-durable,
        so a read-only store degrades the sink, not the service.
        """
        errs = int(sdata.get("errors", 0))
        if errs:
            self.store_put_errors += errs
            self._count(
                "serve_store_degraded_total",
                "durable-sink writes rejected by a degraded store",
                shard=sid, n=errs,
            )
        reason = str(sdata.get("degraded", ""))
        prev, self._store_health[sid] = self._store_health[sid], reason
        if reason:
            if self._health[sid] == HEALTHY:
                self._set_health(sid, DEGRADED)
            if not prev:
                self._count(
                    "serve_shard_store_degraded_total",
                    "shard stores that entered degraded (read-only) mode",
                    shard=sid,
                )
        elif prev:
            self._count(
                "serve_shard_store_rearmed_total",
                "shard stores that re-armed out of degraded mode",
                shard=sid,
            )

    # -- worker lifecycle ----------------------------------------------
    def _start_workers(self) -> None:
        n = len(self.engines)
        for w in range(self.processes):
            sids = set(range(w, n, self.processes))
            if sids:
                self._spawn_slot(sids)

    def _spawn_slot(self, sids) -> _WorkerSlot:
        if self._journal is not None:
            # Nothing of the parent's journal may sit unflushed in the
            # child's inherited copy of the buffered writer.
            self._journal.writer.flush()
        parent_conn, child_conn = self._ctx.Pipe()
        cancel = self._ctx.Event()
        specs = {sid: self.router.shards[sid] for sid in sids}
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, cancel, self.config, self.chaos, specs,
                  self._debug_hang),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        slot = _WorkerSlot(self._next_slot_id, proc, parent_conn, cancel,
                           sids)
        self._next_slot_id += 1
        self._slots[slot.slot_id] = slot
        for sid in sids:
            self._slot_of[sid] = slot.slot_id
        return slot

    def _stop_workers(self) -> None:
        for slot in self._slots.values():
            try:
                slot.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for slot in self._slots.values():
            slot.proc.join(timeout=2.0)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join()
            try:
                slot.conn.close()
            except OSError:
                pass
        self._slots.clear()
        self._slot_of.clear()

    def _on_slot_death(self, slot, t: int, reason: str) -> None:
        """A worker process is gone: quarantine everything it hosted.

        Real pids live only in :attr:`worker_log` — never in metrics or
        printed drill output, which deterministic byte-diffs cover."""
        if self._slots.pop(slot.slot_id, None) is None:
            return
        slot.proc.join(timeout=5.0)
        try:
            slot.conn.close()
        except OSError:
            pass
        self.sup_stats.worker_deaths += 1
        obs = current_obs()
        if obs.enabled:
            deaths = obs.metrics.counter(
                "serve_worker_deaths_total", "worker processes lost"
            )
            deaths.inc()
        for sid in sorted(slot.shards):
            self._slot_of.pop(sid, None)
            self.worker_log.append(
                ("death", sid, slot.proc.pid, t, reason,
                 slot.proc.exitcode)
            )
            if obs.enabled:
                deaths.labels(shard=sid).inc()
            # The worker's machine state for this shard is lost with it.
            self._last_inflight[sid] = 0
            self._last_backlog[sid] = 0
            # The respawned worker re-opens the store (normal recovery);
            # its first chunk reports fresh health.
            self._store_health[sid] = ""
            if self._abandoned[sid]:
                continue
            if not self._breaker_open(sid):
                self._open_breaker(sid, self.planner.epoch_of(max(t, 1)))
            else:
                self._set_health(sid, QUARANTINED)

    def _escalate(self, slot, t: int) -> None:
        """Soft deadline missed: cancel -> SIGTERM -> SIGKILL.

        Every rung ends with the worker dead; the dead-worker path then
        restarts its shards from the journal on fresh processes."""
        grace = min(ESCALATION_GRACE,
                    self.supervisor_config.watchdog_deadline)
        slot.cancel.set()
        cancelled = False
        try:
            if slot.conn.poll(grace):
                try:
                    cancelled = slot.conn.recv()[0] == "cancelled"
                except (EOFError, OSError):
                    cancelled = True  # died right after cancelling
        except OSError:
            pass
        slot.proc.join(grace)
        if cancelled and not slot.proc.is_alive():
            stage = "cancel"
            self.sup_stats.watchdog_cancels += 1
        else:
            slot.proc.terminate()
            slot.proc.join(grace)
            if not slot.proc.is_alive():
                stage = "terminate"
                self.sup_stats.watchdog_terminates += 1
            else:
                slot.proc.kill()
                slot.proc.join()
                stage = "kill"
                self.sup_stats.watchdog_kills += 1
        obs = current_obs()
        if obs.enabled:
            esc = obs.metrics.counter(
                "serve_watchdog_escalations_total",
                "watchdog escalation ladder outcomes",
            )
            esc.inc()
            esc.labels(stage=stage).inc()
        self._on_slot_death(slot, t, f"watchdog-{stage}")

    # -- supervision overrides -----------------------------------------
    def _in_flight(self, sid: int) -> int:
        return self._last_inflight[sid]

    def _admission_depth(self, sid: int) -> int:
        return len(self._mirror[sid]) + len(self._pending_requeue[sid])

    def _kill_shard(self, sid: int, t: int) -> None:
        super()._kill_shard(sid, t)
        self._last_inflight[sid] = 0
        self._last_backlog[sid] = 0

    def _kill_worker(self, sid: int, t: int) -> None:
        """``kill-worker`` chaos: a real SIGKILL to the hosting process,
        applied at the chunk barrier so the drill stays deterministic."""
        slot_id = self._slot_of.get(sid)
        slot = self._slots.get(slot_id) if slot_id is not None else None
        if slot is None:
            super()._kill_worker(sid, t)  # host already gone: state loss
            return
        os.kill(slot.proc.pid, signal.SIGKILL)
        slot.proc.join()
        self._on_slot_death(slot, t, "chaos-kill-worker")

    def _deliver_requeue(self, sid, items, t: int) -> None:
        room = self.admission.max_queue - self._admission_depth(sid)
        fit = items[:max(0, room)]
        self.admission.stats.handoff_in += len(fit)
        self.admission.stats.handoff_overflow += len(items) - len(fit)
        self._pending_requeue[sid].extend(fit)
        for gid, _leaf in items[len(fit):]:
            self._shed(gid, t)
            self.sup_stats.spill_overflow_shed += 1

    def _apply_restart(self, sid: int, t: int, locations) -> None:
        """Ship folded state to the hosting worker — a fresh process
        when the old one died — and requeue the spill behind the
        mirrored queue, shedding past the bound."""
        queue_items = list(self._mirror[sid].items())
        spill = list(self._spill[sid])
        self._spill[sid].clear()
        room = self.admission.max_queue - len(queue_items)
        fit = spill[:max(0, room)]
        for gid, leaf in fit:
            queue_items.append((gid, leaf))
            self._mirror[sid][gid] = leaf
        for gid, _leaf in spill[len(fit):]:
            self._shed(gid, t)
            self.sup_stats.spill_overflow_shed += 1
        self._replans_left[sid] = MAX_FORCED_REPLANS
        slot_id = self._slot_of.get(sid)
        slot = self._slots.get(slot_id) if slot_id is not None else None
        if slot is None:
            slot = self._spawn_slot({sid})
            self.sup_stats.worker_respawns += 1
            self.worker_log.append(("respawn", sid, slot.proc.pid, t))
            obs = current_obs()
            if obs.enabled:
                resp = obs.metrics.counter(
                    "serve_worker_respawns_total",
                    "fresh worker processes spawned for restarts",
                )
                resp.inc()
                resp.labels(shard=sid).inc()
        targets = {m: self._leaf_of[m] for m in locations}
        tags: dict = {}
        for gid in set(locations) | {g for g, _leaf in queue_items}:
            self._tag(tags, gid)
        try:
            slot.conn.send(("restore", sid, locations, targets, queue_items,
                            tags.get("tenants"), tags.get("keys")))
            msg = slot.conn.recv()
            if msg[0] == "err":
                raise msg[1]
        except (EOFError, BrokenPipeError, OSError):
            self._on_slot_death(slot, t, "restore-failed")
            return
        self._last_inflight[sid] = len(locations)
        self._last_backlog[sid] = 0

    def _abandon(self, sid: int, t: int) -> None:
        if self._abandoned[sid]:
            return
        super()._abandon(sid, t)
        self._mirror[sid].clear()
        self._pending_requeue[sid].clear()
        self._owed_purge[sid].clear()
        self._last_inflight[sid] = 0
        self._last_backlog[sid] = 0

    # -- chunked execution ---------------------------------------------
    def _chunk_end(self, t0: int, max_steps: int) -> int:
        closed = (
            any(t.arrivals == "closed" for t in self.config.tenants)
            if self.config.tenants
            else self.config.arrivals == "closed"
        )
        if closed:
            # Completions feed the arrival process step by step.
            return t0
        e = self.planner.epoch_length
        t1 = min(((t0 - 1) // e + 1) * e, max_steps)
        for ev in self.chaos.events:
            if t0 < ev.step <= t1:
                t1 = ev.step - 1
        return t1

    def _staged(self, sid: int) -> dict:
        """Shard ``sid``'s payload in the chunk being staged."""
        return self._batch.setdefault(sid, {"arrivals": {}, "requeue": []})

    def _apply_slo(self, door, tripped, t: int) -> None:
        # The parent's own queues are always empty under this driver
        # (offers are staged to workers or spilled), so the super call
        # only journals the decision and maintains the parent-side door
        # set; the real enforcement ships to the workers as versioned
        # door state plus per-shard purge debts, cleared only when a
        # chunk that applied them merges back.
        super()._apply_slo(door, tripped, t)
        new_door = sorted(door)
        if new_door != self._door:
            self._door = new_door
            self._door_version += 1
        if tripped:
            for sid in range(len(self.engines)):
                if not self._abandoned[sid]:
                    self._owed_purge[sid].update(tripped)

    def _stage_chunk(self, t0: int, t1: int):
        """Stage pending handoffs and route the chunk's arrivals.

        Arrivals are drawn and routed step by step through the loop's
        own phase 1, exactly as in-process: the arrival RNG only ever
        advances by ``take`` calls in step order."""
        self._batch = {}
        gid_after: "dict[int, int]" = {}
        exhausted_after: "dict[int, bool]" = {}
        for sid in range(len(self.engines)):
            items = self._pending_requeue[sid]
            if not items:
                continue
            self._pending_requeue[sid] = []
            if sid not in self._held:
                entry = self._staged(sid)
                entry["requeue"].extend(items)
                for gid, leaf in items:
                    self._mirror[sid][gid] = leaf
                    self._tag(entry, gid)
            else:
                # The divert target itself went down before delivery:
                # park the handoff in its spill, shedding past capacity.
                for gid, leaf in items:
                    if self._abandoned[sid] or (
                        len(self._spill[sid]) >= self._spill_capacity
                    ):
                        self._shed(gid, t0)
                        self.sup_stats.spill_overflow_shed += 1
                    else:
                        self._spill[sid].append((gid, leaf))
                        self.metrics.note_spill(gid, t0)
                        self.sup_stats.spilled += 1
                        self.sup_stats._bump(
                            self.sup_stats.spilled_by_shard, sid
                        )
        for t in range(t0, t1 + 1):
            gid0 = self._next_gid
            for sid, gid, leaf in self._route(t):
                # Staged for the shard's worker, and mirrored.
                entry = self._staged(sid)
                entry["arrivals"].setdefault(t, []).append((gid, leaf))
                self._tag(entry, gid)
                self._mirror[sid][gid] = leaf
            self.arrivals.on_emitted(list(range(gid0, self._next_gid)))
            gid_after[t] = self._next_gid
            exhausted_after[t] = self.arrivals.exhausted
        batch, self._batch = self._batch, None
        return batch, gid_after, exhausted_after

    def _slo_payload(self, slot, sids) -> "dict | None":
        """The outstanding SLO directive for one slot's chunk, or None.

        Sent whenever the slot is behind on the door version or any of
        its dispatched shards carries a purge debt; the payload is a
        pure function of parent state, so a re-delivery after a worker
        death is byte-identical to the lost one.
        """
        if self._tenancy is None:
            return None
        purge = {
            s: sorted(self._owed_purge[s])
            for s in sids if self._owed_purge[s]
        }
        if not purge and slot.door_seen == self._door_version:
            return None
        return {"door": list(self._door), "purge": purge}

    def _dispatch_chunk(self, t0: int, t1: int, batch):
        by_slot: "dict[int, list[int]]" = {}
        for sid in range(len(self.engines)):
            if sid not in self._held:
                by_slot.setdefault(self._slot_of[sid], []).append(sid)
        pending = []
        for slot_id, sids in sorted(by_slot.items()):
            slot = self._slots[slot_id]
            payload = {s: batch[s] for s in sids if s in batch}
            slo = self._slo_payload(slot, sids)
            try:
                slot.conn.send(("chunk", t0, t1, payload, sids, slo))
                pending.append((slot, sids))
            except (BrokenPipeError, OSError):
                self._on_slot_death(slot, t0, "send-failed")
        results = {}
        for slot, sids in pending:
            res = self._collect(slot, t0)
            if res is not None:
                results[slot.slot_id] = res
                # The chunk merged: its directive is applied exactly
                # once, so the debt is settled.  Lost chunks (worker
                # death before collect) keep the debt for re-delivery.
                slot.door_seen = self._door_version
                for s in sids:
                    self._owed_purge[s].clear()
        return results

    def _collect(self, slot, t: int):
        sup = self.supervisor_config
        try:
            if not slot.conn.poll(sup.watchdog_deadline):
                self.sup_stats.watchdog_timeouts += 1
                self._count(
                    "serve_watchdog_timeouts_total",
                    "shard-step watchdog deadline misses",
                    shard=min(slot.shards),
                )
                self._escalate(slot, t)
                return None
            msg = slot.conn.recv()
        except (EOFError, OSError):
            self._on_slot_death(slot, t, "pipe-closed")
            return None
        if msg[0] == "ok":
            return msg[1]
        if msg[0] == "err":
            raise msg[1]
        # An unprompted ("cancelled",) means the worker is going away.
        self._on_slot_death(slot, t, "cancelled")
        return None

    def _merge_chunk(self, t0, t1, results, gid_after, exhausted_after):
        """Fold worker results back in (step, shard) ascending order.

        Returns the finish step if the run completed mid-chunk (steps
        past it are discarded before any journal write), else None."""
        journal = self._journal
        metrics = self.metrics
        per_shard = {}
        frozen: "dict[int, int]" = {}
        unconsumed: "dict[int, list]" = {}
        purged: "dict[int, list]" = {}
        for res in results.values():
            self._note_faults_fired(res.get("faults_fired", 0))
            for sid, data in res["shards"].items():
                per_shard[sid] = data
                if data.get("purged"):
                    purged[sid] = data["purged"]
                if data.get("store"):
                    self._merge_store_health(sid, data["store"])
                acc = self.engines[sid].stats
                for k, v in data["stats"].items():
                    setattr(acc, k, getattr(acc, k) + v)
                if data["frozen_at"] is not None:
                    frozen[sid] = data["frozen_at"]
                if data["unconsumed"]:
                    unconsumed[sid] = data["unconsumed"]
            st = self.admission.stats
            for k, v in res["admission"].items():
                if k == "max_queue_depth":
                    st.max_queue_depth = max(st.max_queue_depth, v)
                elif k == "shed_by_shard":
                    for s, d in v.items():
                        st.shed_by_shard[s] = st.shed_by_shard.get(s, 0) + d
                else:
                    setattr(st, k, getattr(st, k) + v)
            ps = self.planner.stats
            for k, v in res["planner"].items():
                setattr(ps, k, getattr(ps, k) + v)
        # SLO purges happened worker-side before the chunk's first step;
        # mirror that here (mirror pop + counted shed at t0) before the
        # per-step fold so depth samples and the final queue_len match.
        for sid in sorted(purged):
            for gid in purged[sid]:
                self._mirror[sid].pop(gid, None)
                self._shed(gid, t0)
        if frozen:
            # A breaker trips at the first freeze and the chunk's later
            # records are supervision's, so the driver must be journaled
            # ahead of them.
            self._note_driver(min(frozen.values()))
        order = sorted(per_shard)
        n = len(self.engines)
        end_t = None
        for t in range(t0, t1 + 1):
            for sid in order:  # phases 1-2: sheds, admits, door completions
                data = per_shard[sid]
                for gid in data["sheds"].get(t, ()):
                    self._mirror[sid].pop(gid, None)
                    self._shed(gid, t)
                for gid, done in data["admits"].get(t, ()):
                    self._mirror[sid].pop(gid, None)
                    self._on_admission(sid, gid, done, t)
            for sid in order:  # phase 4: journal replay, then completions
                data = per_shard[sid]
                for rec in data["records"].get(t, ()):
                    rtype, rt, rsid, payload = rec
                    if rtype == REC_FLUSH:
                        # The parent's engines never step: their realized
                        # schedules are rebuilt here from merged records.
                        self.engines[rsid].schedule.add(rt, payload)
                        if journal is not None:
                            journal.record_flush(rt, rsid, payload)
                    elif journal is not None:
                        journal.record_fault(rt, rsid, *payload)
                for gid, step in data["exec"].get(t, ()):
                    self._on_completion(sid, gid, step)
            queues, backs, infl = [], [], []
            for s in range(n):  # phase 5: metering
                d = per_shard[s]["depths"].get(t) if s in per_shard else None
                if d is not None:
                    q, rb, fl = d
                    self._last_backlog[s] = rb
                    self._last_inflight[s] = fl
                    q += len(self._spill[s])
                else:
                    q = self._admission_depth(s) + len(self._spill[s])
                    rb = self._last_backlog[s]
                    fl = self._last_inflight[s]
                queues.append(q)
                backs.append(rb)
                infl.append(fl)
            metrics.note_step(queues, backs, infl)
            if journal is not None:
                journal.end_step(t, gid_after[t],
                                 len(metrics.completion_step))
            if exhausted_after[t] and metrics.outstanding == 0:
                end_t = t
                break
        # Barrier work: quarantine mid-chunk freezes, spill what their
        # freeze left unoffered, square the mirror with the workers.
        self._clock = (end_t if end_t is not None else t1) + 1
        for sid in sorted(frozen):
            self._replans_left[sid] = 0
            self._on_replans_exhausted(sid, self.engines[sid], frozen[sid])
        for sid in sorted(unconsumed):
            for ta, gid, leaf in unconsumed[sid]:
                self._mirror[sid].pop(gid, None)
                self._hold(sid, gid, leaf, ta)
        for sid in order:
            assert len(self._mirror[sid]) == per_shard[sid]["queue_len"], (
                f"shard {sid}: queue mirror diverged from worker "
                f"({len(self._mirror[sid])} != "
                f"{per_shard[sid]['queue_len']})"
            )
        if end_t is not None and end_t < t1:
            # Workers ran the chunk tail after the system drained; those
            # steps never happened as far as the run is concerned.
            extra = t1 - end_t
            for sid in order:
                if sid not in frozen:
                    self.engines[sid].stats.idle_steps -= extra
        return end_t

    # -- the run skeleton's advance step ------------------------------
    def _advance(self, t0: int, max_steps: int) -> int:
        """Run one chunk in the workers: stage, dispatch, merge.  Returns
        its last step (the finish step if the run drained mid-chunk)."""
        self._supervise(t0)
        t1 = self._chunk_end(t0, max_steps)
        batch, gid_after, exhausted = self._stage_chunk(t0, t1)
        obs = self._obs
        t_exec = obs.profiler.clock() if obs.enabled else 0.0
        results = self._dispatch_chunk(t0, t1, batch)
        if obs.enabled:
            obs.profiler.add(PHASE_EXECUTE, obs.profiler.clock() - t_exec)
        end_t = self._merge_chunk(t0, t1, results, gid_after, exhausted)
        return t1 if end_t is None else end_t
