"""Shard supervision policy: health states, breakers, restart folds.

:class:`~repro.serve.loop.ServiceLoop` supervises every run it drives,
so one wedged shard — a stall burst, a planner deadlock, a killed
worker — is quarantined instead of degrading or halting the whole
service.  This module holds the policy pieces the loop (and
:class:`~repro.serve.procpool.ProcPoolLoop`, which subclasses it) is
built from; the state machine that strings them together lives in the
loop.

**Health state machine.**  Every shard is ``healthy``, ``degraded``,
``quarantined``, or ``recovering``.  At each epoch boundary the loop
takes a :class:`Heartbeat` from the engine's own counters (flushes,
completions, failed attempts since the last beat).  An epoch with work
pending but zero flushes *and* zero completions is a *stalled epoch*:
one marks the shard degraded, ``trip_after`` consecutive ones trip its
breaker.

**Circuit breaker.**  Per shard, closed / open / half-open
(:class:`CircuitBreaker`).  It trips on consecutive stalled epochs, on
forced-replan exhaustion, and on chaos ``kill`` events.  While open the
shard is skipped entirely — no drain, no planning, no stepping — and its
arrivals are **held in its own admission lanes** (counted by
``ServeMetrics.note_spill``) or, when a lane is full, **counted-shed**;
nothing is ever silently dropped, so conservation (arrived = completed +
shed + queued + in-flight) reconciles exactly at every step.  Probe
scheduling is deterministic from ``ServeConfig.seed``: backoff doubles
per trip up to ``max_backoff`` epochs, plus a seeded 0/1-epoch jitter.

**Live restart from the journal.**  When a probe fires, the shard is
rebuilt from its own durable history: the loop seals durability with a
checkpoint, then :func:`rebuild_shard_state` folds the shard's flush
log into per-message locations, verifying every record against the
admitted / completed sets — any inconsistency is a typed
:class:`~repro.util.errors.JournalCorruptionError`, never a silent wrong
answer.  A restart consumes one unit of the shard's ``restart_budget``;
exhaustion (or a corrupt restart source) **abandons** the shard: all of
its outstanding messages are counted-shed and the breaker is locked
open.

**Chaos.**  :func:`apply_chaos_windows` layers a chaos plan's stall
windows over a shard's fault injector, and :class:`DiskFaultWindows`
arms its ``disk-fault`` windows over the process's storage syscalls;
both are rebuilt identically in a procpool worker.

Nothing here costs a fault-free run anything: a breaker is built on its
shard's first stalled epoch and draws its jitter generator on its first
trip, and an unarmed :class:`DiskFaultWindows` answers each step with
one dictionary lookup.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.dam.schedule import FlushLog
from repro.faults.chaos import CHAOS_DISK_FAULT, ChaosInjector, ChaosPlan
from repro.faults.iofaults import FaultFS, parse_plan
from repro.serve.router import ShardEngine
from repro.tree.topology import TreeTopology
from repro.util.errors import InvalidInstanceError, JournalCorruptionError
from repro.util.fsio import install
from repro.util.rng import spawn_seed

#: Shard health states.
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"
RECOVERING = "recovering"

#: Circuit-breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs (separate from :class:`ServeConfig` on purpose:
    the serve config is the journaled identity of the *run*; supervision
    parameters shape how faults are survived, and only non-default ones
    reach the journal meta).

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
    restart_budget: int = field(default=3, metadata={
        "help": "live restarts per shard before abandonment"})
    watchdog_deadline: float = field(default=30.0, metadata={
        "help": "seconds a --processes worker may take to answer one "
                "chunk before the watchdog escalates (cancel, then "
                "SIGTERM, then SIGKILL) and restarts its shards"})
    divert: bool = field(default=False, metadata={
        "help": "while a shard's breaker is open, divert its later "
                "arrivals to a healthy neighbor (journal-checkpointed), "
                "merging back on probe success (changes which shard "
                "serves which key, so it is opt-in)"})

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
    run seed, so two identical runs probe at identical epochs.  The
    generator is built at the first trip, the only place it draws.
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
        self._seed = int(seed) & 0xFFFFFFFF
        self._rng: "np.random.Generator | None" = None
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
        if self._rng is None:
            self._rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self._seed)
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
    trips_by_shard: dict = field(default_factory=dict)
    quarantine_epochs_by_shard: dict = field(default_factory=dict)
    restarts_by_shard: dict = field(default_factory=dict)
    spilled_by_shard: dict = field(default_factory=dict)

    def _bump(self, by_shard: dict, shard: int, n: int = 1) -> None:
        by_shard[int(shard)] = by_shard.get(int(shard), 0) + n

    def snapshot(self) -> dict:
        """Plain-dict form (stable key order under ``sort_keys``)."""
        snap = asdict(self)
        # Diversions hand no queued message over; the key keeps the
        # report schema of runs whose diversions did.
        snap["divert_handoff_msgs"] = 0
        for key in (
            "trips_by_shard", "quarantine_epochs_by_shard",
            "restarts_by_shard", "spilled_by_shard",
        ):
            snap[key] = {str(s): n for s, n in sorted(snap[key].items())}
        return snap


def rebuild_shard_state(
    flush_records: "FlushLog",
    *,
    admitted: "set[int]",
    completed: "set[int]",
    targets: "dict[int, int]",
    topology: TreeTopology,
) -> "dict[int, int]":
    """Fold one shard's realized flushes back into machine state.

    ``flush_records`` is the shard's realized
    :class:`~repro.dam.schedule.FlushLog`.  ``admitted`` is the set
    of global ids admitted to the shard and still outstanding;
    ``completed`` the ids the shard already delivered.  Every admitted
    message starts at the root and moves along its records; a record
    referencing an unknown message, or moving a message from a node it
    is not at, or a completed message whose delivery the fold never saw,
    raises a typed :class:`JournalCorruptionError` — restart is exact or
    it is a detected failure, never silently wrong.

    Returns the outstanding messages' current nodes (root-resident ones
    included).
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
    for t, src, dest, msgs in flush_records:
        for m in msgs:
            if m not in known:
                raise JournalCorruptionError(
                    f"realized flush at step {t} references message {m}, "
                    "which was never admitted to this shard",
                    reason="schedule-mismatch",
                )
            if locations.get(m) != src:
                raise JournalCorruptionError(
                    f"realized flush at step {t} moves message {m} from "
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
                "from the shard's realized log",
                reason="schedule-mismatch",
            )
    return locations


def apply_chaos_windows(engine: ShardEngine, chaos: ChaosPlan,
                        config, sid: int) -> None:
    """Layer a chaos plan's stall windows over one shard's injector
    (``config`` is the run's :class:`~repro.serve.loop.ServeConfig`).

    Factored out of the loop constructor so a shared-nothing worker
    process can wrap its rebuilt engine identically (the injector seed
    is a pure function of the run seed and the shard id).
    """
    windows = chaos.stall_windows(sid)
    if windows:
        engine.injector = ChaosInjector(
            windows, base=engine.injector, shard_id=sid,
            seed=spawn_seed(config.seed, 98, sid),
        )


class DiskFaultWindows:
    """Chaos ``disk-fault`` windows over this process's storage syscalls.

    While any window is open, every storage syscall in the process
    routes through one :class:`FaultFS` armed with the union of the open
    windows' rules.  The handle is swapped when a window opens or
    expires and uninstalled when the last one closes.  The in-process
    driver arms it over its own store and journal; each procpool worker
    arms its own over the stores of the shards it hosts (``shards``).
    """

    def __init__(self, chaos: ChaosPlan, shards) -> None:
        shards = set(shards)
        #: step -> the disk-fault events that open a window then.
        self._opens: "dict[int, list]" = {}
        for step in sorted({ev.step for ev in chaos.events}):
            opening = [
                ev for ev in chaos.events_at(step)
                if ev.kind == CHAOS_DISK_FAULT and ev.shard in shards
            ]
            if opening:
                self._opens[step] = opening
        #: open windows as ``(end_step, rules)``.
        self._windows: "list[tuple[int, tuple]]" = []
        self._fs: "FaultFS | None" = None
        #: faults fired on retired handles and not yet taken.
        self._fired = 0

    def advance(self, t: int) -> bool:
        """Expire the windows that end by step ``t`` and open the ones
        that start at ``t``; True when the handle changed."""
        opening = self._opens.get(t)
        if opening is None and not self._windows:
            return False
        live = [w for w in self._windows if w[0] > t]
        if len(live) == len(self._windows) and not opening:
            return False
        self._windows = live + [
            (t + ev.duration, parse_plan(ev.spec)) for ev in opening or ()
        ]
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
