"""Shard supervision: health tracking, circuit breakers, live restart.

The plain :class:`~repro.serve.loop.ServiceLoop` executes every shard
inline, so one wedged shard — a stall burst, a planner deadlock, a
killed worker — degrades or halts the whole service.  This module wraps
each :class:`~repro.policies.engine.ShardEngine` in a supervision layer:

**Health state machine.**  Every shard is ``healthy``, ``degraded``,
``quarantined``, or ``recovering``.  At each epoch boundary the
supervisor takes a :class:`Heartbeat` from the engine's own counters
(flushes, completions, failed attempts since the last beat).  An epoch
with work pending but zero flushes *and* zero completions is a *stalled
epoch*: one marks the shard degraded, ``trip_after`` consecutive ones
trip its breaker.

**Circuit breaker.**  Per shard, closed / open / half-open.  It trips on
consecutive stalled epochs, on forced-replan exhaustion (where the plain
loop raises :class:`~repro.util.errors.ExecutionStalledError`, the
supervised loop quarantines the one shard and keeps serving), and on
chaos ``kill`` events.  While open the shard is skipped entirely —
no drain, no planning, no stepping — and its arrivals are **held in a
bounded spill queue** (counted by ``ServeMetrics.note_spill``) or, past
capacity, **counted-shed**; nothing is ever silently dropped, so
conservation (arrived = completed + shed + queued + spilled + in-flight)
reconciles exactly at every step.  Probe scheduling is deterministic
from ``ServeConfig.seed``: backoff doubles per trip up to
``max_backoff`` epochs, plus a seeded 0/1-epoch jitter.

**Live restart from the journal.**  When a probe fires, the shard is
rebuilt from its own durable history: the loop seals durability with a
checkpoint (every prior step becomes durable under the journal's
durable-step rule, confirmed through
:class:`~repro.dam.journal.RecoveryManager`), then
:func:`rebuild_shard_state` folds the shard's flushes into per-message
locations, verifying every record against the admitted / completed
sets — any inconsistency is a typed
:class:`~repro.util.errors.JournalCorruptionError`, never a silent
wrong answer.  The fold runs over the shard's realized schedule, which
holds exactly the flushes the shard journaled and survives a kill (so
restart composes with segment rotation + auto-compaction, which may
legitimately drop sealed flush records that a checkpoint superseded),
while the scan cross-checks that the durable journal holds no shard
record the schedule doesn't.  A restart consumes one unit of the
shard's ``restart_budget``; exhaustion (or a corrupt restart source)
**abandons** the shard: all of its outstanding messages are
counted-shed and the breaker is locked open.

**Driver.**  Shards step in-process, in shard-id order, straight into
the run's journal; :class:`~repro.serve.procpool.ProcPoolLoop` is the
parallel driver.  A fault-free supervised run is byte-identical to
:class:`ServiceLoop` (journal bytes and completion times both), which
the determinism tests pin, so a default-config journal names no driver
in its meta.  Such a run stays the plain loop's until its first breaker
trip; that trip journals a one-time ``driver`` record, which is how
:func:`~repro.serve.loop.recover_serve` knows to re-derive it under
supervision.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.dam.journal import REC_FLUSH, RecoveryManager
from repro.dam.schedule import Flush, FlushSchedule
from repro.faults.chaos import (
    CHAOS_CORRUPT,
    CHAOS_DISK_FAULT,
    CHAOS_KILL,
    CHAOS_KILL_WORKER,
    ChaosInjector,
    ChaosPlan,
)
from repro.faults.iofaults import FaultFS, parse_plan
from repro.obs.hooks import current_obs
from repro.serve.loop import (
    ServeConfig,
    ServeReport,
    ServiceLoop,
    _spawn_seed,
)
from repro.serve.router import ShardEngine
from repro.tree.topology import TreeTopology
from repro.util.errors import InvalidInstanceError, JournalCorruptionError
from repro.util.fsio import install

#: Shard health states.
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"
RECOVERING = "recovering"
HEALTH_STATES = (HEALTHY, DEGRADED, QUARANTINED, RECOVERING)

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs (separate from :class:`ServeConfig` on purpose:
    the serve config is the journaled identity of the *run*; supervision
    parameters shape how faults are survived, and the default-valued
    supervised journal stays byte-identical to the plain loop's).

    Each field's ``help`` metadata documents it; ``serve`` derives one
    flag per field from them (``trip_after`` -> ``--trip-after``).
    """

    trip_after: int = field(default=2, metadata={
        "help": "consecutive stalled epochs that trip a shard's circuit "
                "breaker"})
    probe_backoff: int = field(default=1, metadata={
        "help": "epochs an open breaker waits before its first half-open "
                "probe (doubles per trip)"})
    max_backoff: int = field(default=8, metadata={
        "help": "cap on the probe backoff in epochs"})
    spill_capacity: int = field(default=0, metadata={
        "help": "arrivals held per quarantined shard before counted "
                "shedding (0 = 16*B)"})
    restart_budget: int = field(default=3, metadata={
        "help": "live restarts per shard before abandonment"})
    watchdog_deadline: float = field(default=30.0, metadata={
        "help": "seconds a --processes worker may take to answer one "
                "chunk before the watchdog escalates (cancel, then "
                "SIGTERM, then SIGKILL) and restarts its shards"})
    divert: bool = field(default=False, metadata={
        "help": "while a shard's breaker is open, divert its key range "
                "to a healthy neighbor via a journal-checkpointed spill "
                "handoff, merging back on probe success (changes which "
                "shard serves which key, so it is opt-in)"})

    def __post_init__(self) -> None:
        if self.trip_after < 1:
            raise InvalidInstanceError(
                f"trip_after must be >= 1, got {self.trip_after}"
            )
        if self.probe_backoff < 1 or self.max_backoff < self.probe_backoff:
            raise InvalidInstanceError(
                f"need 1 <= probe_backoff <= max_backoff, got "
                f"{self.probe_backoff}, {self.max_backoff}"
            )
        if self.spill_capacity < 0:
            raise InvalidInstanceError(
                f"spill_capacity must be >= 0, got {self.spill_capacity}"
            )
        if self.restart_budget < 0:
            raise InvalidInstanceError(
                f"restart_budget must be >= 0, got {self.restart_budget}"
            )
        if not self.watchdog_deadline > 0:
            raise InvalidInstanceError(
                f"watchdog_deadline must be > 0, got {self.watchdog_deadline}"
            )

    def to_meta(self) -> dict:
        """JSON-ready form for a journal ``meta`` payload."""
        return asdict(self)

    @classmethod
    def from_meta(cls, payload: dict) -> "SupervisorConfig":
        """Inverse of :meth:`to_meta` (unknown keys ignored)."""
        names = {f.name for f in dataclass_fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


class CircuitBreaker:
    """One shard's closed / open / half-open breaker.

    Probe scheduling is deterministic: backoff doubles per trip (capped)
    and the jitter draw comes from a per-shard generator seeded from the
    run seed, so two identical runs probe at identical epochs.
    """

    def __init__(
        self,
        shard_id: int,
        *,
        trip_after: int,
        probe_backoff: int,
        max_backoff: int,
        seed: int,
    ) -> None:
        self.shard_id = int(shard_id)
        self.trip_after = int(trip_after)
        self.probe_backoff = int(probe_backoff)
        self.max_backoff = int(max_backoff)
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFF)
        )
        self.state = BREAKER_CLOSED
        self.consecutive_stalls = 0
        self.trips = 0
        #: epoch of the next half-open probe (-1 while closed/permanent).
        self.probe_at = -1
        #: abandoned shards lock their breaker open forever.
        self.permanent = False

    def note_ok(self) -> None:
        """A closed-state epoch made progress (or had nothing to do)."""
        self.consecutive_stalls = 0

    def note_stall(self) -> bool:
        """Count a stalled epoch; True when the trip threshold is hit."""
        self.consecutive_stalls += 1
        return self.consecutive_stalls >= self.trip_after

    def trip(self, epoch: int) -> None:
        """Open (from closed or half-open) and schedule the next probe."""
        if self.state == BREAKER_OPEN:
            return
        self.state = BREAKER_OPEN
        self.trips += 1
        self.consecutive_stalls = 0
        backoff = min(
            self.max_backoff, self.probe_backoff << (self.trips - 1)
        )
        jitter = int(self._rng.integers(0, 2))
        self.probe_at = int(epoch) + backoff + jitter

    def probe_due(self, epoch: int) -> bool:
        """True when an open breaker should go half-open at ``epoch``."""
        return (
            self.state == BREAKER_OPEN
            and not self.permanent
            and self.probe_at >= 0
            and int(epoch) >= self.probe_at
        )

    def half_open(self) -> None:
        self.state = BREAKER_HALF_OPEN

    def close(self) -> None:
        self.state = BREAKER_CLOSED
        self.consecutive_stalls = 0
        self.probe_at = -1

    def lock_open(self) -> None:
        """Open permanently (abandoned shard): probes never fire again."""
        self.state = BREAKER_OPEN
        self.permanent = True
        self.probe_at = -1

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(shard={self.shard_id}, {self.state}, "
            f"trips={self.trips}, probe_at={self.probe_at})"
        )


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """One shard's per-epoch vital signs (deltas since the last beat)."""

    epoch: int
    shard: int
    state: str
    flushes: int
    completions: int
    failed_attempts: int
    in_flight: int
    queued: int
    spilled: int
    stalled: bool


@dataclass
class SupervisorStats:
    """Everything the supervision layer did, countable and JSON-ready."""

    trips: int = 0
    probes: int = 0
    quarantine_epochs: int = 0
    spilled: int = 0
    spill_overflow_shed: int = 0
    restarts: int = 0
    replayed_flushes: int = 0
    corrupt_restarts: int = 0
    abandoned_shards: int = 0
    abandoned_messages: int = 0
    #: process-driver supervision (always 0 in-process).
    watchdog_timeouts: int = 0
    worker_deaths: int = 0
    worker_respawns: int = 0
    watchdog_cancels: int = 0
    watchdog_terminates: int = 0
    watchdog_kills: int = 0
    #: chaos ``disk-fault`` windows (always 0 without disk-fault events).
    disk_fault_windows: int = 0
    disk_faults_injected: int = 0
    store_degraded_epochs: int = 0
    #: breaker-aware routing (always 0 unless ``divert`` is enabled).
    diversions: int = 0
    merge_backs: int = 0
    divert_handoff_msgs: int = 0
    trips_by_shard: dict = field(default_factory=dict)
    quarantine_epochs_by_shard: dict = field(default_factory=dict)
    restarts_by_shard: dict = field(default_factory=dict)
    spilled_by_shard: dict = field(default_factory=dict)

    def _bump(self, by_shard: dict, shard: int, n: int = 1) -> None:
        by_shard[int(shard)] = by_shard.get(int(shard), 0) + n

    def snapshot(self) -> dict:
        """Plain-dict form (stable key order under ``sort_keys``)."""
        snap = asdict(self)
        for key in (
            "trips_by_shard", "quarantine_epochs_by_shard",
            "restarts_by_shard", "spilled_by_shard",
        ):
            snap[key] = {str(s): n for s, n in sorted(snap[key].items())}
        return snap


@dataclass
class SupervisedReport(ServeReport):
    """A :class:`ServeReport` plus what supervision did to produce it."""

    supervisor: "SupervisorStats | None" = None
    health_log: "tuple[Heartbeat, ...]" = ()
    chaos: "ChaosPlan | None" = None
    #: process-driver lifecycle: ``(event, shard, pid, step)`` tuples
    #: (pids are real and therefore non-deterministic; they live here,
    #: never in the metrics snapshot that determinism drills diff).
    worker_log: "tuple[tuple, ...]" = ()


def rebuild_shard_state(
    flush_records: "list[tuple[int, int, int, tuple[int, ...]]]",
    *,
    admitted: "set[int]",
    completed: "set[int]",
    targets: "dict[int, int]",
    topology: TreeTopology,
) -> "tuple[dict[int, int], FlushSchedule]":
    """Fold one shard's journaled flushes back into machine state.

    ``flush_records`` is the shard's durable flush history in journal
    order, as ``(t, src, dest, msgs)`` tuples.  ``admitted`` is the set
    of global ids admitted to the shard and still outstanding;
    ``completed`` the ids the shard already delivered.  Every admitted
    message starts at the root and moves along its records; a record
    referencing an unknown message, or moving a message from a node it
    is not at, or a completed message whose delivery the fold never saw,
    raises a typed :class:`JournalCorruptionError` — restart is exact or
    it is a detected failure, never silently wrong.

    Returns ``(locations, schedule)``: the outstanding messages' current
    nodes (root-resident ones included) and the realized
    :class:`FlushSchedule` rebuilt from the records.
    """
    root = topology.root
    known = admitted | completed
    locations: "dict[int, int]" = {}
    for m in known:
        target = targets.get(m)
        if target is None:
            raise JournalCorruptionError(
                f"message {m} has no recorded target leaf",
                reason="schedule-mismatch",
            )
        if target != root:
            locations[m] = root
    schedule = FlushSchedule()
    for t, src, dest, msgs in flush_records:
        schedule.add(int(t), Flush(int(src), int(dest), tuple(msgs)))
        for m in msgs:
            if m not in known:
                raise JournalCorruptionError(
                    f"journaled flush at step {t} references message {m}, "
                    "which was never admitted to this shard",
                    reason="schedule-mismatch",
                )
            if locations.get(m) != src:
                raise JournalCorruptionError(
                    f"journaled flush at step {t} moves message {m} from "
                    f"node {src}, but the fold places it at "
                    f"{locations.get(m)}",
                    reason="schedule-mismatch",
                )
            if dest == targets[m]:
                del locations[m]
            else:
                locations[m] = dest
    for m in completed:
        if m in locations:
            raise JournalCorruptionError(
                f"message {m} completed but its delivery flush is missing "
                "from the durable journal prefix",
                reason="schedule-mismatch",
            )
    return locations, schedule


def apply_chaos_windows(engine: ShardEngine, chaos: ChaosPlan,
                        config: ServeConfig, sid: int) -> None:
    """Layer a chaos plan's stall windows over one shard's injector.

    Factored out of the loop constructor so a shared-nothing worker
    process can wrap its rebuilt engine identically (the injector seed
    is a pure function of the run seed and the shard id).
    """
    windows = chaos.stall_windows(sid)
    if windows:
        engine.injector = ChaosInjector(
            windows, base=engine.injector, shard_id=sid,
            seed=_spawn_seed(config.seed, 98, sid),
        )
        engine.fault_aware = bool(config.fault_aware)


class DiskFaultWindows:
    """Chaos ``disk-fault`` windows over this process's storage syscalls.

    While any window is open, every storage syscall in the process
    routes through one :class:`FaultFS` armed with the union of the open
    windows' rules.  The handle is swapped when a window opens or
    expires and uninstalled when the last one closes.  The in-process
    driver arms it over its own store and journal; each procpool worker
    arms its own over the stores of the shards it hosts.
    """

    def __init__(self) -> None:
        #: open windows as ``(end_step, rules)``.
        self._windows: "list[tuple[int, tuple]]" = []
        self._fs: "FaultFS | None" = None
        #: faults fired on retired handles and not yet taken.
        self._fired = 0

    def advance(self, t: int, chaos: ChaosPlan, shards) -> bool:
        """Expire the windows that end by step ``t`` and open the ones
        ``chaos`` starts at ``t`` on ``shards``; True when the handle
        changed."""
        live = [w for w in self._windows if w[0] > t]
        opened = [
            (t + ev.duration, parse_plan(ev.spec))
            for ev in chaos.events_at(t)
            if ev.kind == CHAOS_DISK_FAULT and ev.shard in shards
        ]
        if len(live) == len(self._windows) and not opened:
            return False
        self._windows = live + opened
        self._install()
        return True

    def close(self) -> None:
        """Close every window: the real filesystem is back."""
        if self._fs is not None or self._windows:
            self._windows = []
            self._install()

    def take_fired(self) -> int:
        """Syscall faults injected since the last call."""
        if self._fs is not None:
            self._fired += len(self._fs.fired)
            self._fs.fired.clear()
        fired, self._fired = self._fired, 0
        return fired

    def _install(self) -> None:
        if self._fs is not None:
            self._fired += len(self._fs.fired)
            self._fs.fired.clear()
        rules = tuple(rule for _end, plan in self._windows for rule in plan)
        self._fs = FaultFS(rules) if rules else None
        install(self._fs)


class SupervisedLoop(ServiceLoop):
    """:class:`ServiceLoop` under supervision (see module docstring).

    ``chaos`` drives the scenario; ``supervisor`` tunes the
    breaker/restart policy.  Journal meta carries the chaos plan and any
    non-default supervisor config (or, failing both, the first breaker
    trip journals the driver), so :func:`~repro.serve.loop.recover_serve`
    re-derives the identical supervised run.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        supervisor: "SupervisorConfig | None" = None,
        chaos: "ChaosPlan | None" = None,
        journal=None,
        sync: bool = False,
        max_segment_bytes: "int | None" = None,
        compact_every_rotations: int = 0,
    ) -> None:
        super().__init__(
            config, journal=journal, sync=sync,
            max_segment_bytes=max_segment_bytes,
            compact_every_rotations=compact_every_rotations,
        )
        self.supervisor_config = (
            supervisor if supervisor is not None else SupervisorConfig()
        )
        self.chaos = chaos if chaos is not None else ChaosPlan()
        n = len(self.engines)
        sup = self.supervisor_config
        self._spill_capacity = sup.spill_capacity or 16 * config.B
        self._breakers = [
            CircuitBreaker(
                s,
                trip_after=sup.trip_after,
                probe_backoff=sup.probe_backoff,
                max_backoff=sup.max_backoff,
                seed=_spawn_seed(config.seed, 97, s),
            )
            for s in range(n)
        ]
        self._health = [HEALTHY] * n
        self._spill: "list[deque]" = [deque() for _ in range(n)]
        self._restarts_left = [sup.restart_budget] * n
        self._abandoned = [False] * n
        self._corrupted = [False] * n
        #: every routed message's target leaf (restart folds need the
        #: targets of completed messages too, which metrics drop).
        self._leaf_of: "dict[int, int]" = {}
        self._last_hb = [(0, 0, 0)] * n
        self.sup_stats = SupervisorStats()
        self.health_log: "list[Heartbeat]" = []
        self.worker_log: "list[tuple]" = []
        #: set once the driver is named in the journal (see _note_driver).
        self._driver_noted = False
        self._disk_faults = DiskFaultWindows()
        #: the step currently being supervised (diversion handoffs fire
        #: from breaker trips, which happen at several call depths).
        self._clock = 0
        # Chaos stall windows wrap the target shards' injectors; kills
        # and corruptions are applied by _begin_step.
        for s, eng in enumerate(self.engines):
            apply_chaos_windows(eng, self.chaos, config, s)

    # -- journal meta / lifecycle --------------------------------------
    def _journal_meta(self) -> dict:
        """Journal meta for this run.  Only non-default supervision
        state goes in: the default supervised journal stays
        byte-identical to ServiceLoop's.  When supervision *is* in
        play, the driver topology rides along so recovery re-derives
        the run under the identical driver."""
        meta = super()._journal_meta()
        if not self.chaos.is_zero:
            meta["chaos"] = self.chaos.to_meta()
        if self.supervisor_config != SupervisorConfig():
            meta["supervisor"] = self.supervisor_config.to_meta()
        if "chaos" in meta or "supervisor" in meta:
            meta["driver"] = self._driver_meta()
        return meta

    def _driver_meta(self) -> dict:
        return {"kind": "inprocess"}

    def _note_driver(self, t: int) -> None:
        """Name the driver in the journal before the run first departs
        from the plain loop's (a breaker trip), unless the meta already
        does.  One record per run; compaction keeps it."""
        if self._driver_noted or self._journal is None:
            return
        self._driver_noted = True
        if "driver" not in self._journal_meta():
            self._journal.record_driver(t, self._driver_meta())

    def run(self) -> "SupervisedReport":
        try:
            return super().run()
        finally:
            self._disk_faults.close()
            self._note_faults_fired(self._disk_faults.take_fired())

    # -- small helpers -------------------------------------------------
    def _count(self, name: str, desc: str, *, shard: "int | None" = None,
               n: int = 1) -> None:
        obs = current_obs()
        if not obs.enabled:
            return
        counter = obs.metrics.counter(name, desc)
        counter.inc(n)
        if shard is not None:
            counter.labels(shard=shard).inc(n)

    def _shed(self, gid: int, t: int) -> None:
        self.metrics.note_shed(gid, t)
        self.arrivals.notify_shed(gid, t)

    def _open_breaker(self, sid: int, epoch: int) -> None:
        self._note_driver(self._clock)
        self._breakers[sid].trip(epoch)
        self._health[sid] = QUARANTINED
        self.sup_stats.trips += 1
        self.sup_stats._bump(self.sup_stats.trips_by_shard, sid)
        self._count(
            "serve_breaker_trips_total", "shard circuit breakers tripped",
            shard=sid,
        )
        self._maybe_divert(sid)

    # -- breaker-aware diversion ---------------------------------------
    def _divert_target(self, sid: int) -> "int | None":
        """Deterministic neighbor choice: prefer ``sid + 1``, else
        ``sid - 1``; a candidate must be serving (not quarantined or
        abandoned) and must still own its own range."""
        for n in (sid + 1, sid - 1):
            if not (0 <= n < len(self.engines)) or self._abandoned[n]:
                continue
            if self._health[n] in (HEALTHY, DEGRADED) \
                    and self.router.resolve(n) == n:
                return n
        return None

    def _remap_leaf(self, src: int, dst: int, leaf: int) -> int:
        """Map a src-shard leaf onto dst's leaves, preserving key order."""
        src_leaves = self.router.shards[src].leaves
        dst_leaves = self.router.shards[dst].leaves
        idx = src_leaves.index(leaf) * len(dst_leaves) // len(src_leaves)
        return dst_leaves[min(idx, len(dst_leaves) - 1)]

    def _maybe_divert(self, sid: int) -> None:
        """Divert a breaker-open shard's key range to a healthy neighbor.

        The switch is journal-checkpointed: durability is sealed first,
        then a ``divert`` record names the new host and every spill-queue
        message handed over with it, so the ownership move is durable at
        the moment it happened.  Conservation is exact across the
        handoff — every spilled message is either requeued on the
        neighbor or counted-shed, and its ``shard_of`` moves with it.
        """
        if not self.supervisor_config.divert or self._abandoned[sid]:
            return
        if sid in self.router.diverted:
            return
        target = self._divert_target(sid)
        if target is None:
            return
        t = self._clock
        self.router.divert(sid, target)
        items = [
            (gid, self._remap_leaf(sid, target, leaf))
            for gid, leaf in self._spill[sid]
        ]
        self._spill[sid].clear()
        for gid, leaf in items:
            self._leaf_of[gid] = leaf
            self.metrics.shard_of[gid] = target
        if self._journal is not None:
            if t > 1:
                self._journal.checkpoint(
                    t - 1, self._next_gid, len(self.metrics.completion_step)
                )
            self._journal.record_divert(t, sid, target,
                                        [gid for gid, _ in items])
        self.sup_stats.diversions += 1
        self.sup_stats.divert_handoff_msgs += len(items)
        self._count(
            "serve_diversions_total",
            "breaker-open key-range diversions", shard=sid,
        )
        if items:
            self._count(
                "serve_divert_handoff_msgs_total",
                "spill-queue messages handed off by diversions",
                n=len(items),
            )
        self._deliver_requeue(target, items, t)

    def _merge_back(self, sid: int, t: int) -> None:
        """Remove ``sid``'s overlay on probe success (messages already
        diverted stay with the neighbor that admitted them)."""
        if sid not in self.router.diverted:
            return
        self.router.undivert(sid)
        if self._journal is not None:
            self._journal.record_divert(t, sid, sid)
        self.sup_stats.merge_backs += 1
        self._count(
            "serve_merge_backs_total",
            "diverted key ranges merged back", shard=sid,
        )

    def _deliver_requeue(self, sid: int, items: "list[tuple[int, int]]",
                         t: int) -> None:
        """Put handed-off ``(gid, leaf)`` pairs in front of ``sid``'s
        admission; the queue bound sheds the overflow, counted."""
        accepted = self.admission.handoff(sid, items)
        for gid, _leaf in items[accepted:]:
            self._shed(gid, t)
            self.sup_stats.spill_overflow_shed += 1

    # -- phase overrides -----------------------------------------------
    def _finished(self) -> bool:
        # Outstanding messages with every queue empty live in a spill
        # queue or a killed shard's lost state: the run isn't over until
        # a probe restores them (or abandonment sheds them).
        return super()._finished() and self.metrics.outstanding == 0

    def _begin_step(self, t: int) -> None:
        self._clock = t
        super()._begin_step(t)  # tenancy: epoch ledger + SLO breakers
        if self.planner.is_boundary(t) and t > 1:
            self._heartbeat(t)
        for event in self.chaos.events_at(t):
            if event.shard >= len(self.engines):
                continue
            if event.kind == CHAOS_KILL:
                self._kill_shard(event.shard, t)
            elif event.kind == CHAOS_CORRUPT:
                self._corrupted[event.shard] = True
            elif event.kind == CHAOS_KILL_WORKER:
                self._kill_worker(event.shard, t)
            elif event.kind == CHAOS_DISK_FAULT:
                self.sup_stats.disk_fault_windows += 1
                self._count(
                    "serve_disk_fault_windows_total",
                    "chaos disk-fault windows opened",
                    shard=event.shard,
                )
        # The in-process driver owns every store and journal, so this
        # process's syscalls are the whole fault domain (procpool
        # workers arm their own; see repro.serve.procpool).
        if self._disk_faults.advance(t, self.chaos, range(len(self.engines))):
            self._note_faults_fired(self._disk_faults.take_fired())

    def _note_faults_fired(self, fired: int) -> None:
        if fired:
            self.sup_stats.disk_faults_injected += fired
            self._count(
                "serve_disk_faults_injected_total",
                "syscall faults injected by chaos disk-fault windows",
                n=fired,
            )

    def _kill_worker(self, sid: int, t: int) -> None:
        """``kill-worker`` under the in-process driver degrades to a
        simulated kill: there is no separate process to SIGKILL, but the
        shard still loses all in-memory state (the process driver
        overrides this with a real signal)."""
        self._kill_shard(sid, t)

    def _offer(self, sid: int, gid: int, leaf: int, t: int) -> None:
        self._leaf_of[gid] = leaf
        if self._abandoned[sid]:
            # Still an offer at the door — the shard just cannot take it.
            self.admission.stats.offered += 1
            self.admission.stats.shed += 1
            by = self.admission.stats.shed_by_shard
            by[sid] = by.get(sid, 0) + 1
            self.admission.note_external_shed(sid, gid)
            self._shed(gid, t)
            self.sup_stats.abandoned_messages += 1
            return
        if self._health[sid] == QUARANTINED:
            self.admission.stats.offered += 1
            if len(self._spill[sid]) < self._spill_capacity:
                self._spill[sid].append((gid, leaf))
                self.metrics.note_spill(gid, t)
                self.sup_stats.spilled += 1
                self.sup_stats._bump(self.sup_stats.spilled_by_shard, sid)
                self._count(
                    "serve_spilled_total",
                    "arrivals held in supervisor spill queues",
                    shard=sid,
                )
            else:
                self.admission.stats.shed += 1
                by = self.admission.stats.shed_by_shard
                by[sid] = by.get(sid, 0) + 1
                self.admission.note_external_shed(sid, gid)
                self._shed(gid, t)
                self.sup_stats.spill_overflow_shed += 1
            return
        super()._offer(sid, gid, leaf, t)

    def _stepping(self, sid: int) -> bool:
        return self._health[sid] != QUARANTINED

    def _on_replans_exhausted(self, sid: int, engine: ShardEngine,
                              t: int) -> None:
        # Where the plain loop raises, the supervised loop quarantines
        # the one deadlocked shard and keeps the rest serving; the probe
        # path restarts it from the journal with a fresh plan.
        self._open_breaker(sid, self.planner.epoch_of(t))

    def _queue_depth(self, sid: int) -> int:
        return self._admission_depth(sid) + len(self._spill[sid])

    # -- supervision proper --------------------------------------------
    def _vitals(self, sid: int) -> "tuple[int, int, int, int]":
        """Cumulative ``(flushes, completed, failed_attempts, in_flight)``
        for one shard.  Under the process driver the engine's counters
        are the merged worker deltas and ``in_flight`` its last report."""
        es = self.engines[sid].stats
        return (es.flushes, es.completed, es.failed_attempts,
                self._in_flight(sid))

    def _admission_depth(self, sid: int) -> int:
        """Arrivals queued in front of ``sid`` (driver-specific source)."""
        return self.admission.queue_depth(sid)

    def _heartbeat(self, t: int) -> None:
        """Evaluate the epoch that ended at step ``t - 1``."""
        epoch = self.planner.epoch_of(t - 1)
        stats = self.sup_stats
        # Surface injected faults as they happen, not only at close.
        self._note_faults_fired(self._disk_faults.take_fired())
        store = getattr(self, "store", None)
        if store is not None and getattr(store, "degraded", ""):
            stats.store_degraded_epochs += 1
            self._count(
                "serve_store_degraded_epochs_total",
                "epochs the durable store spent degraded (read-only)",
            )
        for sid in range(len(self.engines)):
            flushes, completed, failed, in_flight = self._vitals(sid)
            prev = self._last_hb[sid]
            d_flush = flushes - prev[0]
            d_done = completed - prev[1]
            d_failed = failed - prev[2]
            self._last_hb[sid] = (flushes, completed, failed)
            queued = self._admission_depth(sid)
            spilled = len(self._spill[sid])
            pending = in_flight > 0 or queued > 0
            stalled = pending and d_flush == 0 and d_done == 0
            state = self._health[sid]
            self.health_log.append(Heartbeat(
                epoch=epoch, shard=sid, state=state,
                flushes=d_flush, completions=d_done,
                failed_attempts=d_failed, in_flight=in_flight,
                queued=queued, spilled=spilled, stalled=stalled,
            ))
            if self._abandoned[sid]:
                continue
            breaker = self._breakers[sid]
            if state == QUARANTINED:
                stats.quarantine_epochs += 1
                stats._bump(stats.quarantine_epochs_by_shard, sid)
                self._count(
                    "serve_quarantine_epochs_total",
                    "epochs shards spent quarantined",
                    shard=sid,
                )
                # A shard that tripped with no healthy neighbor may gain
                # one later — divert then, handing over whatever spilled
                # in the meantime.
                self._maybe_divert(sid)
                if breaker.probe_due(epoch):
                    breaker.half_open()
                    self._health[sid] = RECOVERING
                    stats.probes += 1
                    self._count(
                        "serve_breaker_probes_total",
                        "half-open breaker probes",
                        shard=sid,
                    )
                    self._restart_shard(sid, t)
            elif state == RECOVERING:
                if d_flush > 0 or d_done > 0 or (
                    in_flight == 0 and queued == 0 and spilled == 0
                ):
                    breaker.close()
                    self._health[sid] = HEALTHY
                    self._merge_back(sid, t)
                else:
                    # The probe epoch made no progress: back to open,
                    # with a deeper backoff.
                    self._open_breaker(sid, epoch)
            else:
                if stalled:
                    self._health[sid] = DEGRADED
                    if breaker.note_stall():
                        self._open_breaker(sid, epoch)
                else:
                    breaker.note_ok()
                    self._health[sid] = HEALTHY

    def _kill_shard(self, sid: int, t: int) -> None:
        """Chaos kill: the shard loses all in-memory state right now."""
        self.engines[sid].wipe()
        self.admission.reset_shard_residency(sid)
        self._fresh[sid] = []
        if self._breakers[sid].state != BREAKER_OPEN:
            self._open_breaker(sid, self.planner.epoch_of(t))

    def _outstanding(self, sid: int) -> "list[int]":
        m = self.metrics
        return sorted(
            g for g, s in m.shard_of.items()
            if s == sid
            and g not in m.completion_step
            and g not in m.shed_ids
        )

    def _restart_records(
        self, sid: int, t: int
    ) -> "list[tuple[int, int, int, tuple[int, ...]]]":
        """The shard's durable flush history for the restart fold.

        With a journal attached, durability is sealed first (checkpoint
        + flush: every record through step ``t - 1`` becomes durable)
        and the scan cross-checks that the durable journal holds no
        record for this shard that its realized schedule doesn't — the
        detection half of the exact-or-typed-error contract.  The fold
        itself always runs on the schedule, which survives rotation +
        compaction dropping sealed records a checkpoint superseded.
        """
        realized = [
            (t0, f.src, f.dest, tuple(f.messages))
            for t0, f in self.engines[sid].schedule.iter_timed()
        ]
        if self._journal is not None:
            self._journal.checkpoint(
                t - 1, self._next_gid, len(self.metrics.completion_step)
            )
            manager = RecoveryManager(self._journal.writer.path)
            scan = manager.scan(refresh=True)
            durable = manager.last_durable_step()
            executed = set(realized)
            for rec in scan.records:
                if rec["type"] != REC_FLUSH or int(rec.get("shard", 0)) != sid:
                    continue
                if int(rec["t"]) > durable:
                    continue
                key = (int(rec["t"]), int(rec["src"]), int(rec["dest"]),
                       tuple(int(m) for m in rec["msgs"]))
                if key not in executed:
                    raise JournalCorruptionError(
                        f"shard {sid}: durable journal holds flush "
                        f"{key!r} that this run never executed",
                        reason="schedule-mismatch",
                    )
        return realized

    def _restart_shard(self, sid: int, t: int) -> bool:
        """Rebuild a quarantined shard from its durable history."""
        engine = self.engines[sid]
        stats = self.sup_stats
        if self._restarts_left[sid] <= 0:
            self._abandon(sid, t)
            return False
        self._restarts_left[sid] -= 1
        try:
            if self._corrupted[sid]:
                raise JournalCorruptionError(
                    f"shard {sid}: restart source poisoned by a chaos "
                    "corrupt event",
                    reason="bad-payload",
                )
            records = self._restart_records(sid, t)
            admitted = {
                m for m in self.metrics.admit_step
                if self.metrics.shard_of[m] == sid
                and m not in self.metrics.completion_step
            }
            completed = {
                m for m in self.metrics.completion_step
                if self.metrics.shard_of[m] == sid
            }
            locations, _schedule = rebuild_shard_state(
                records,
                admitted=admitted,
                completed=completed,
                targets=self._leaf_of,
                topology=engine.topology,
            )
        except JournalCorruptionError:
            stats.corrupt_restarts += 1
            self._abandon(sid, t)
            return False
        self._apply_restart(sid, t, locations)
        stats.restarts += 1
        stats._bump(stats.restarts_by_shard, sid)
        stats.replayed_flushes += len(records)
        self._count(
            "serve_shard_restarts_total",
            "live shard restarts from the journal",
            shard=sid,
        )
        self._count(
            "serve_restart_replayed_flushes_total",
            "journaled flushes folded during shard restarts",
            shard=sid,
            n=len(records),
        )
        return True

    def _apply_restart(self, sid: int, t: int,
                       locations: "dict[int, int]") -> None:
        """Install the folded restart state and requeue the spill.

        The in-process driver rebuilds its engine; the process
        driver overrides this to ship the state to a worker (a fresh
        process when the old one died), which rebuilds the same way.
        """
        self._restore_shard(sid, locations, self._leaf_of)
        # Spilled arrivals go back in front of admission; any the queue
        # bound rejects are counted-shed, never dropped.
        items = list(self._spill[sid])
        self._spill[sid].clear()
        accepted = self.admission.requeue(sid, items)
        for gid, _leaf in items[accepted:]:
            self._shed(gid, t)
            self.sup_stats.spill_overflow_shed += 1

    def _abandon(self, sid: int, t: int) -> None:
        """Permanent quarantine: counted-shed everything and lock open."""
        if self._abandoned[sid]:
            return
        self._abandoned[sid] = True
        self._health[sid] = QUARANTINED
        self._breakers[sid].lock_open()
        stats = self.sup_stats
        stats.abandoned_shards += 1
        shed_here = 0
        for gid in self._outstanding(sid):
            self._shed(gid, t)
            stats.abandoned_messages += 1
            shed_here += 1
        self._spill[sid].clear()
        self.admission.clear_shard(sid)
        self.admission.reset_shard_residency(sid)
        self.engines[sid].wipe()
        self._fresh[sid] = []
        if shed_here:
            self._count(
                "serve_abandoned_total",
                "messages counted-shed by shard abandonment",
                shard=sid,
                n=shed_here,
            )

    # -- reporting -----------------------------------------------------
    def _build_report(self, t: int) -> "SupervisedReport":
        base = super()._build_report(t)
        snapshot = dict(base.snapshot)
        snapshot["supervisor"] = self.sup_stats.snapshot()
        return SupervisedReport(
            config=base.config,
            n_steps=base.n_steps,
            snapshot=snapshot,
            completions=base.completions,
            shard_schedules=base.shard_schedules,
            planner_stats=base.planner_stats,
            admission_stats=base.admission_stats,
            shard_stats=base.shard_stats,
            metrics=base.metrics,
            supervisor=self.sup_stats,
            health_log=tuple(self.health_log),
            chaos=self.chaos,
            worker_log=tuple(self.worker_log),
        )
