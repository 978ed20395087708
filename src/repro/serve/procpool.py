"""Shard-per-process serving: shared-nothing workers behind the
serving loop.

:class:`ProcPoolLoop` drives the same supervised run
:class:`~repro.serve.loop.ServiceLoop` does, but shard engines live in
separate **processes**.
The parent keeps everything global — arrivals, routing, metrics, the
journal, the supervision state machine — and ships each worker per-epoch
batches of pre-routed arrivals over a pipe; workers own their shards'
engines, a planner, and the admission lanes the drain reads.

**The wire is flat.**  A chunk and its reply hold ints, strings and
containers of them, never a class instance.  A chunk carries, per
shard, its arrivals as ``t, gid, leaf`` int triples;
the reply carries, per shard, flat int streams in step order — admits
as ``t, gid, done`` (``-1`` for none), the chunk's runs of the shard's
:class:`~repro.dam.schedule.FlushLog`, completions as ``t, gid``, one
``backlog, in_flight`` depth pair per step — and counter deltas as
tuples in field order.  The parent copies each run slice into its
shard's log whole and walks the streams with a cursor, building no
object per flush: each checkpoint digests the parent's logs through its
step, though they already hold the rest of the chunk.

Neither side restates the in-process loop.  A worker is a
:class:`~repro.serve.loop.ShardStep` — the same drain / plan / step
phases :class:`~repro.serve.loop.ServiceLoop` runs — whose three events
(admission, completion, re-plans exhausted) are recorded for the parent
instead of applied.  The parent inherits the run skeleton and overrides
one advance step: stage a chunk's arrivals through the loop's own
routing (:meth:`~repro.serve.loop.ServiceLoop._route`), dispatch,
merge.  What is left here is process-specific: pipes, worker
lifecycle, and the chunk merge.

**One queue model.**  The parent's ``admission`` is an exact replica of
its workers' lanes: each merge replays the chunk's offers through
:meth:`~repro.serve.admission.AdmissionController.offer`, pops each
reported admit off the front of its lane and takes the drain's DRR
credit, and the barrier asserts the replica's depth equals each
worker's.  Every rule applied between chunks is therefore the
in-process code on the replica — ``offer`` for a quarantined shard's
held arrivals, ``purge_tenant`` at an SLO trip (shedding at decision
time), ``shed_shard`` at abandonment — and the parent ships a worker
only what changed: the purged tenants with its next chunk, the
closed-door set with every chunk of a tenancy run, and the whole lane
set with its credit in a restore (held arrivals included).  A chunk
lost with its worker leaves nothing owed: its arrivals join the
replica unbounded, and the restart's restore ships the lanes whole.

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
  results **per (step, shard) in ascending order**, so checkpoints and
  metrics land byte-identically to the sequential loop;
* chunks end at epoch boundaries and split at chaos-event steps, so
  every supervision transition (heartbeat, breaker trip, kill) happens
  at a barrier where the parent's view of the world is complete.
  Closed-loop arrivals force one-step chunks (completions feed the
  arrival process).

A fault-free ``--processes N`` journal is therefore byte-identical to a
``ServiceLoop`` journal for every N — pinned by test.

Two behaviors exist only here:

* **dead workers**: a worker that exits (SIGKILL from
  ``kill-worker`` chaos, a crash, or watchdog escalation) quarantines
  every shard it hosted; the probe path restarts each shard **on a
  fresh process** from its journal-checked realized log, under the normal
  ``restart_budget``;
* **watchdog escalation**: a chunk that misses the soft deadline gets a
  cooperative cancel (an :class:`multiprocessing.Event` the worker
  polls between steps), then ``terminate()`` (SIGTERM), then ``kill()``
  (SIGKILL).  Every rung ends with the worker dead and the standard
  dead-worker path taking over; un-merged chunk results are discarded —
  the journal and the merged schedules are the only truth.

Where a run differs from the in-process driver's (all
conservation-exact; ``tests/serve/data/driver_golden.json`` pins each):

* a supervised journal names its driver (meta or a ``driver`` record);
  no other record differs;
* ``kill-worker`` SIGKILLs a process, so every shard it hosts is
  quarantined, where the in-process driver loses only the named shard;
* a shard that deadlocks mid-chunk is quarantined at the next barrier
  rather than mid-step, its unoffered chunk arrivals held at the
  barrier (depth timelines meter them one barrier late);
* with ``engine='lsm'`` each worker owns its shards' stores and reports
  their health with every chunk, so a store that turns read-only marks
  its shard ``degraded``; the in-process driver's one parent-held store
  counts degraded epochs without touching shard health.

Fault-free runs have none of these.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

from repro.dam.schedule import FlushLog
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_EXECUTE
from repro.serve.loop import (
    MAX_FORCED_REPLANS,
    ServiceLoop,
    ShardStep,
    build_shard_engine,
)
from repro.serve.planner import PlannerStats
from repro.serve.router import ShardStats
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

#: a shard's and the planner's counters, as tuples in field order; a
#: worker ships each chunk's deltas this way.
_SHARD_FIELDS = tuple(f.name for f in fields(ShardStats))
_PLAN_FIELDS = tuple(f.name for f in fields(PlannerStats))
_shard_counters = attrgetter(*_SHARD_FIELDS)
_plan_counters = attrgetter(*_PLAN_FIELDS)


def _add_deltas(stats, names, deltas) -> None:
    """Add counter ``deltas``, in ``names`` order, to ``stats``."""
    for name, delta in zip(names, deltas):
        if delta:
            setattr(stats, name, getattr(stats, name) + delta)


# ---------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------
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
        #: the running chunk's per-shard event streams (admits as
        #: ``t, gid, done``, completions as ``t, gid``), its freezes,
        #: and its sink rejections.
        self._admits: "dict[int, list[int]]" = {}
        self._done: "dict[int, list[int]]" = {}
        self._froze: "dict[int, int]" = {}
        self._store_errors: "dict[int, int]" = {}
        # Deltas are taken against the last *reported* totals, not the
        # chunk start, so counters bumped between chunks (the forced
        # re-plan a restore issues) reach the parent with the next chunk.
        self._last_stats = {
            sid: _shard_counters(engines[sid].stats) for sid in self._hosted
        }
        self._last_plan = _plan_counters(self.planner.stats)

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
        self._admits[sid] += (t, gid, -1 if done is None else done)
        if done is not None:
            self._store_put(sid, gid, done)

    def _on_completion(self, sid, gid, step) -> None:
        self._done[sid] += (step, gid)
        self.admission.note_departed(gid)
        self._store_put(sid, gid, step)

    def _on_replans_exhausted(self, sid, engine, t) -> None:
        self._frozen_at[sid] = self._froze[sid] = t
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

    def restore(self, sid, t, locations, targets, queue_items, deficit,
                tenants, keys) -> None:
        """Install folded restart state shipped by the parent at ``t``:
        the engine's, and the lanes with their DRR credit."""
        self._learn(tenants, keys)
        self._frozen_at.pop(sid, None)
        self._restore_shard(sid, t, locations, targets)
        self.admission.load_queue(sid, queue_items)
        self.admission.deficit[sid] = deficit

    def _learn(self, tenants, keys) -> None:
        """Take in the parent's flat ``gid, tenant`` and ``gid, key``
        tags."""
        if tenants:
            it = iter(tenants)
            self.tenant_of.update(zip(it, it))
        if keys:
            it = iter(keys)
            self._gid_key.update(zip(it, it))

    def run_chunk(self, t0, t1, batch, active, door=None):
        """Execute steps ``t0..t1`` for ``active`` hosted shards.

        Cross-shard state (metrics, arrivals, journal) lives in the
        parent, so shards on different workers need no ordering.  The
        parent's replica of the lanes has already applied everything
        between chunks; each shard's ``batch`` entry (see
        :meth:`ProcPoolLoop._stage_chunk`) carries its arrivals and what
        of the replica's changes this worker has not seen — the tenants
        an SLO trip purged since — and ``door`` (tenancy runs) is the
        closed-door set.

        The reply is ``(shards, frozen, stall_holds, planner,
        faults_fired)``: per shard ``(admits, runs, completions,
        depths, stats, queue_len, deficit, store)``, where ``runs`` are
        the chunk's flush log runs, the rest flat int streams in step
        order (``depths``
        a ``backlog, in_flight`` pair per step) or counter deltas in
        field order, and ``store`` ``None`` or ``(degraded, errors)``."""
        order = sorted(set(self._hosted) & set(active))
        self._shard_ids = [s for s in order if s not in self._frozen_at]
        self._admits = {sid: [] for sid in order}
        self._done = {sid: [] for sid in order}
        self._froze = {}
        for sid in order:  # the parent keeps the run's logs
            self.engines[sid].log = FlushLog()
        self._store_errors = {}
        depths = {sid: [] for sid in order}
        adm = self.admission
        if door is not None:
            adm.door_closed = door
        arrivals: "dict[int, list[int]]" = {}
        for sid in order:
            entry = batch.get(sid)
            if entry is None:
                continue
            arrived, tenants, keys, purge = entry
            self._learn(tenants, keys)
            for tid in purge:
                adm.purge_tenant_shard(sid, tid)
            if arrived:
                arrivals[sid] = arrived
        cursor = dict.fromkeys(arrivals, 0)
        holds = adm.stats.stall_holds
        for t in range(t0, t1 + 1):
            if self.cancel.is_set():
                return None
            self._maybe_hang(t)
            if self.cancel.is_set():
                return None
            self._disk_faults.advance(t)
            for sid in self._shard_ids:  # phase 1: the parent-routed offers
                arrived = arrivals.get(sid)
                if arrived is None:
                    continue
                i, n = cursor[sid], len(arrived)
                while i < n and arrived[i] == t:
                    adm.offer(sid, arrived[i + 1], arrived[i + 2])
                    i += 3
                cursor[sid] = i
            self._drain_shards(t)
            self._plan_shards(t)
            self._execute_shards(t)
            for sid in order:  # phase 5: depth samples
                engine = self.engines[sid]
                depths[sid] += (engine.root_backlog, engine.in_flight)
        shards = {}
        for sid in order:
            cur = _shard_counters(self.engines[sid].stats)
            prev, self._last_stats[sid] = self._last_stats[sid], cur
            store = self.stores.get(sid)
            if store is not None:
                store = (store.degraded, self._store_errors.get(sid, 0))
            shards[sid] = (
                self._admits[sid], self.engines[sid].log.runs.tolist(),
                self._done[sid], depths[sid],
                tuple(c - p for c, p in zip(cur, prev)),
                adm.queue_depth(sid), list(adm.deficit[sid]), store,
            )
        cur = _plan_counters(self.planner.stats)
        prev, self._last_plan = self._last_plan, cur
        return (
            shards, self._froze,
            # Only a drain knows its stall holds; the replica replays
            # everything else the lanes do.
            adm.stats.stall_holds - holds,
            tuple(c - p for c, p in zip(cur, prev)),
            self._disk_faults.take_fired(),
        )


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

    __slots__ = ("slot_id", "proc", "conn", "cancel", "shards")

    def __init__(self, slot_id, proc, conn, cancel, shards) -> None:
        self.slot_id = slot_id
        self.proc = proc
        self.conn = conn
        self.cancel = cancel
        self.shards = set(shards)


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
        )
        n = len(self.engines)
        self.processes = min(int(processes), n) if processes else n
        self._ctx = mp.get_context("fork")
        self._debug_hang = debug_hang
        self._slots: "dict[int, _WorkerSlot]" = {}
        self._slot_of: "dict[int, int]" = {}
        self._next_slot_id = 0
        #: ``self.admission`` is a replica of the workers' lanes: every
        #: merge replays a chunk's offers and admits on it, and every
        #: rule between chunks (held arrivals, SLO purge, abandon) runs
        #: on it as in-process.  Per shard, the tenants an SLO purge
        #: emptied here since its worker last matched the lanes (at a
        #: chunk or a restore); they ship with the next chunk.
        self._purged: "list[set[int]]" = [set() for _ in range(n)]
        # The parent's engines never step: their counters accumulate
        # the merged worker deltas and their logs the merged flush
        # records, so the report reads them as in-process.  In-flight
        # and root backlog are the workers' last reported depths.
        self._last_inflight = [0] * n
        self._last_backlog = [0] * n
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

    def _tag(self, tenants: list, keys: list, gid: int) -> None:
        """Ship what a worker needs to know about ``gid`` with it: its
        tenant (fair admission) and its routed key (durable sink), as
        flat ``gid, tenant`` and ``gid, key`` pairs.  The parent keeps
        both maps, so restores re-ship them to fresh workers."""
        tid = self.metrics.tenant_of.get(gid)
        if tid is not None:
            tenants += (gid, tid)
        key = self._gid_key.get(gid)
        if key is not None:
            keys += (gid, key)

    def _merge_store_health(self, sid: int, reason: str, errs: int) -> None:
        """Fold one shard's reported store health into supervision.

        Degradation feeds the existing health machinery at its advisory
        stage: the shard is marked DEGRADED (heartbeats re-evaluate it
        every epoch), counted on first entry and on re-arm.  It never
        trips the breaker by itself — completions are journal-durable,
        so a read-only store degrades the sink, not the service.
        """
        if errs:
            self.store_put_errors += errs
            self._count(
                "serve_store_degraded_total",
                "durable-sink writes rejected by a degraded store",
                shard=sid, n=errs,
            )
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

    def _apply_restart(self, sid: int, t: int, locations) -> None:
        """Ship the folded state and the shard's whole lane set (held
        arrivals included) to the hosting worker — a fresh process when
        the old one died."""
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
        lanes = self.admission.lanes[sid]
        queue_items = [item for q in lanes for item in q]
        targets = {m: self._leaf_of[m] for m in locations}
        tenants: "list[int]" = []
        keys: "list[int]" = []
        for gid in set(locations) | {g for g, _leaf in queue_items}:
            self._tag(tenants, keys, gid)
        try:
            slot.conn.send(("restore", sid, t, locations, targets,
                            queue_items, list(self.admission.deficit[sid]),
                            tenants, keys))
            msg = slot.conn.recv()
            if msg[0] == "err":
                raise msg[1]
        except (EOFError, BrokenPipeError, OSError):
            self._on_slot_death(slot, t, "restore-failed")
            return
        self._purged[sid].clear()
        self._last_inflight[sid] = len(locations)
        self._last_backlog[sid] = 0

    def _abandon(self, sid: int, t: int) -> None:
        super()._abandon(sid, t)
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

    def _apply_slo(self, door, tripped, t: int) -> None:
        # The purge sheds from the replica at decision time, as
        # in-process; each worker purges the same lanes when its next
        # chunk brings it up to date (a restore ships the lanes whole).
        super()._apply_slo(door, tripped, t)
        for purged in self._purged:
            purged.update(tripped)

    def _stage_chunk(self, t0: int, t1: int):
        """Route the chunk's arrivals into per-shard worker payloads.

        Arrivals are drawn and routed step by step through the loop's
        own phase 1, exactly as in-process: the arrival RNG only ever
        advances by ``take`` calls in step order.  A shard's payload is
        ``[arrivals, tenants, keys, purge]``: its arrivals as flat
        ``t, gid, leaf`` triples in step order, their tags (see
        :meth:`_tag`), and the tenants purged since the worker last
        matched the replica (see :meth:`_dispatch_chunk`)."""
        batch: "dict[int, list[list[int]]]" = {}
        gid_after: "dict[int, int]" = {}
        exhausted_after: "dict[int, bool]" = {}
        for t in range(t0, t1 + 1):
            gid0 = self._next_gid
            for sid, gid, leaf in self._route(t):
                entry = batch.get(sid)
                if entry is None:
                    entry = batch[sid] = [[], [], [], []]
                entry[0] += (t, gid, leaf)
                self._tag(entry[1], entry[2], gid)
            self.arrivals.on_emitted(list(range(gid0, self._next_gid)))
            gid_after[t] = self._next_gid
            exhausted_after[t] = self.arrivals.exhausted
        return batch, gid_after, exhausted_after

    def _dispatch_chunk(self, t0: int, t1: int, batch):
        door = (sorted(self.admission.door_closed)
                if self._tenancy is not None else None)
        by_slot: "dict[int, list[int]]" = {}
        for sid in range(len(self.engines)):
            if sid in self._held:
                continue
            by_slot.setdefault(self._slot_of[sid], []).append(sid)
            purged = self._purged[sid]
            if purged:
                entry = batch.get(sid)
                if entry is None:
                    entry = batch[sid] = [[], [], [], []]
                entry[3] = sorted(purged)
                purged.clear()
        pending = []
        for slot_id, sids in sorted(by_slot.items()):
            slot = self._slots[slot_id]
            payload = {s: batch[s] for s in sids if s in batch}
            try:
                slot.conn.send(("chunk", t0, t1, payload, sids, door))
                pending.append(slot)
            except (BrokenPipeError, OSError):
                self._on_slot_death(slot, t0, "send-failed")
        results = {}
        for slot in pending:
            res = self._collect(slot, t0)
            if res is not None:
                results[slot.slot_id] = res
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

    def _merge_chunk(self, t0, t1, batch, results, gid_after,
                     exhausted_after):
        """Fold worker results back in (step, shard) ascending order,
        replaying each step's offers and admits on the replica.

        Each shard's streams (see :meth:`_ShardWorker.run_chunk`) are
        walked by a cursor that stops at the first entry past the step
        being merged.  Returns the finish step if the run completed
        mid-chunk (steps past it are discarded before any journal
        write), else None."""
        journal = self._journal
        metrics = self.metrics
        adm = self.admission
        engines = self.engines
        per_shard = {}
        frozen: "dict[int, int]" = {}
        for shards, froze, holds, plan, fired in results.values():
            self._note_faults_fired(fired)
            for sid, data in shards.items():
                per_shard[sid] = data
                *_streams, stats, _qlen, _deficit, store = data
                if store is not None:
                    self._merge_store_health(sid, *store)
                _add_deltas(engines[sid].stats, _SHARD_FIELDS, stats)
            frozen.update(froze)
            adm.stats.stall_holds += holds
            _add_deltas(self.planner.stats, _PLAN_FIELDS, plan)
        for sid in sorted(batch):
            arrived = batch[sid][0]
            if sid not in per_shard and arrived:
                # Lost with its worker: the chunk's arrivals were offered
                # at the door and wait on the replica, unbounded, for the
                # restore to ship them.
                adm.stats.offered += len(arrived) // 3
                adm.load_requeue(sid, list(zip(arrived[1::3],
                                               arrived[2::3])))
        if frozen:
            # A breaker trips at the first freeze and the chunk's later
            # checkpoints follow supervision's run, so the driver must be
            # journaled ahead of them.
            self._note_driver(min(frozen.values()))
        order = sorted(per_shard)
        # Per shard in merge order, the streams each phase walks; a
        # shard's cursors (arrivals, admits, completions) are shared
        # between phases.
        offers, replays = [], []
        for sid in order:
            admits, runs, done, depths = per_shard[sid][:4]
            # The parent's engines never step: their realized logs are
            # the workers' runs, copied whole (no flush runs past a
            # drained finish step: nothing is left to move).
            engines[sid].log.runs.extend(runs)
            cur = [0, 0, 0]
            offers.append((sid, batch[sid][0] if sid in batch else (),
                           admits, frozen.get(sid, t1), cur))
            replays.append((sid, done, depths, cur))
        offer = adm.offer
        take_admitted = adm.take_admitted
        queue_depth = adm.queue_depth
        on_admission = self._on_admission
        on_completion = self._on_completion
        last_backlog = self._last_backlog
        last_inflight = self._last_inflight
        end_t = None
        for t in range(t0, t1 + 1):
            for sid, arrived, admits, last, cur in offers:
                # phases 1-2 on the replica: offers, then admits
                if t > last:
                    continue  # frozen: unoffered, held at the barrier
                i, end = cur[0], len(arrived)
                while i < end and arrived[i] == t:
                    gid = arrived[i + 1]
                    if not offer(sid, gid, arrived[i + 2]):
                        self._shed(gid, t)
                    i += 3
                cur[0] = i
                i, end = cur[1], len(admits)
                while i < end and admits[i] == t:
                    gid, done = admits[i + 1], admits[i + 2]
                    take_admitted(sid, gid)
                    on_admission(sid, gid, None if done < 0 else done, t)
                    i += 3
                cur[1] = i
                adm.stats.queue_wait_steps += queue_depth(sid)
            k = 2 * (t - t0)
            for sid, done, depths, cur in replays:
                # phase 4: completions; phase 5: the step's depth sample
                i, end = cur[2], len(done)
                while i < end and done[i] == t:
                    on_completion(sid, done[i + 1], t)
                    i += 2
                cur[2] = i
                last_backlog[sid] = depths[k]
                last_inflight[sid] = depths[k + 1]
            metrics.note_step(
                adm.queue_depths(), last_backlog, last_inflight,
            )
            if journal is not None:
                journal.end_step(t, gid_after[t],
                                 len(metrics.completion_step))
            if exhausted_after[t] and metrics.outstanding == 0:
                end_t = t
                break
        # Barrier work: check the replica against each worker, then
        # quarantine mid-chunk freezes and hold what they left unoffered.
        self._clock = (end_t if end_t is not None else t1) + 1
        for sid in order:
            *_streams, _stats, queue_len, deficit, _store = per_shard[sid]
            assert queue_depth(sid) == queue_len, (
                f"shard {sid}: lane replica diverged from worker "
                f"({queue_depth(sid)} != {queue_len})"
            )
            adm.deficit[sid] = deficit
        for sid in sorted(frozen):
            self._replans_left[sid] = 0
            self._on_replans_exhausted(sid, engines[sid], frozen[sid])
        for sid in sorted(frozen):
            arrived = batch[sid][0] if sid in batch else ()
            for i in range(0, len(arrived), 3):
                if arrived[i] > frozen[sid]:
                    self._hold(sid, arrived[i + 1], arrived[i + 2],
                               arrived[i])
        if end_t is not None and end_t < t1:
            # Workers ran the chunk tail after the system drained; those
            # steps never happened as far as the run is concerned.
            extra = t1 - end_t
            for sid in order:
                if sid not in frozen:
                    engines[sid].stats.idle_steps -= extra
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
        end_t = self._merge_chunk(t0, t1, batch, results, gid_after,
                                  exhausted)
        return t1 if end_t is None else end_t
