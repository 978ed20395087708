"""The deterministic serving loop: arrivals -> shards -> epochs -> metrics.

:class:`ServiceLoop` closes the loop the batch pipeline leaves open: it
advances global DAM time one step at a time, pulling arrivals
(:mod:`repro.serve.arrivals`), routing them to shards
(:mod:`repro.serve.router`), holding them at the door under backpressure
(:mod:`repro.serve.admission`), folding them into per-shard flush plans
at epoch boundaries (:mod:`repro.serve.planner`), and accounting every
message's sojourn (:mod:`repro.serve.metrics`).  Every run is supervised:
a wedged, killed or poisoned shard is quarantined behind a circuit
breaker and restarted from its own journal while the others keep
serving (policy pieces in :mod:`repro.serve.supervisor`), at no cost
until a breaker trips.

Everything is a pure function of :class:`ServeConfig` — arrival draws,
key sampling, per-shard fault streams, planning, and execution all derive
from ``config.seed`` — so a run is byte-reproducible.  That determinism
is also the recovery story: a serving run journals its realized flushes
(same crash-consistent format as batch runs, shard-tagged), and
:func:`recover_serve` re-derives the uninterrupted run from the journal's
own ``meta`` config, verifies the durable journal prefix against it, and
reports completion times that are exact or a typed
:class:`~repro.util.errors.JournalCorruptionError` — never silently
wrong.  A serving run can therefore be SIGKILLed at any byte and
recovered, exactly like a batch run.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from dataclasses import replace as dataclass_replace

from repro.dam.journal import (
    JournalWriter,
    RecoveryManager,
    REC_DRIVER,
    REC_FLUSH,
    divert_record,
    driver_record,
    flush_record,
    fault_record,
    slo_record,
)
from repro.dam.schedule import Flush, FlushSchedule
from repro.faults.chaos import (
    CHAOS_CORRUPT,
    CHAOS_DISK_FAULT,
    CHAOS_KILL,
    CHAOS_KILL_WORKER,
    ChaosPlan,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.hooks import current_obs
from repro.obs.profile import PHASE_EXECUTE, PHASE_RECOVER
from repro.policies.engine import MAX_IDLE_STEPS
from repro.serve.admission import AdmissionController, AdmissionStats
from repro.serve.arrivals import (
    ArrivalProcess,
    ClosedLoopArrivals,
    KeySampler,
    MMPPArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.planner import EpochPlanner, PacedPlanner, PlannerStats
from repro.serve.tenancy.fair import TenantAdmissionController
from repro.serve.tenancy.mix import TenantMix
from repro.serve.tenancy.runtime import TenancyRuntime
from repro.serve.tenancy.spec import (
    TENANT_ARRIVALS,
    TenantSpec,
    validate_tenants,
)
from repro.serve.router import ShardEngine, ShardRouter, ShardStats
from repro.serve.supervisor import (
    BREAKER_OPEN,
    DEGRADED,
    HEALTHY,
    QUARANTINED,
    RECOVERING,
    CircuitBreaker,
    DiskFaultWindows,
    Heartbeat,
    SupervisorConfig,
    SupervisorStats,
    apply_chaos_windows,
    rebuild_shard_state,
)
from repro.util.errors import (
    ExecutionStalledError,
    InvalidInstanceError,
    JournalCorruptionError,
    StorageError,
)
from repro.util.rng import spawn_seed

#: meta "policy" tag distinguishing serve journals from batch ones.
SERVE_POLICY = "serve"

#: forced full re-plans allowed per shard before the loop gives up.
MAX_FORCED_REPLANS = 2

#: storage engines behind completions.
ENGINES = ("sim", "lsm")


@dataclass(frozen=True)
class ServeConfig:
    """Everything that determines a serving run (JSON-round-trippable).

    ``arrivals`` may also be ``trace``, driven by ``trace``, a list of
    ``[step, key]`` pairs.  Each field's ``help`` metadata documents it;
    ``serve`` derives one flag per such field (``key_space`` ->
    ``--key-space``; ``metadata["flag"]`` names the two that differ).
    """

    arrivals: str = field(default="poisson", metadata={
        "choices": TENANT_ARRIVALS,
        "help": "arrival process: Poisson, Markov-modulated (calm/burst) "
                "Poisson, or closed-loop clients"})
    rate: float = field(default=8.0, metadata={
        "help": "mean arrivals per step (poisson; calm rate for mmpp)"})
    burst_rate: float = field(default=32.0, metadata={
        "help": "mmpp burst-state arrival rate"})
    p_burst: float = field(default=0.05, metadata={
        "help": "mmpp calm->burst transition probability"})
    p_calm: float = field(default=0.25, metadata={
        "help": "mmpp burst->calm transition probability"})
    n_clients: int = field(default=16, metadata={
        "flag": "--clients", "help": "closed-loop client count"})
    think_time: int = field(default=0, metadata={
        "help": "closed-loop think time between requests"})
    trace: "tuple[tuple[int, int], ...] | None" = None
    messages: int = field(default=1000, metadata={
        "help": "total messages to serve before shutdown"})
    shards: int = field(default=4, metadata={
        "help": "shard trees the key space is split over"})
    key_space: int = field(default=0, metadata={
        "help": "key universe size (0 = one key per leaf)"})
    theta: float = field(default=0.0, metadata={
        "flag": "--skew",
        "help": "Zipf theta of key popularity (0 = uniform)"})
    P: int = field(default=4, metadata={
        "help": "flushes per step (the DAM model's P)"})
    B: int = field(default=16, metadata={
        "help": "messages per flush (the DAM model's B)"})
    fanout: int = field(default=0, metadata={
        "help": "balanced shard trees with this fanout (0 = B^eps shape)"})
    height: int = field(default=3, metadata={
        "help": "height of balanced shard trees"})
    leaves: int = field(default=64, metadata={
        "help": "B^eps-shaped shard trees with this many leaves"})
    eps: float = 0.5
    epoch: int = field(default=8, metadata={
        "help": "steps between re-planning epochs"})
    max_root_backlog: int = field(default=0, metadata={
        "help": "admitted messages allowed at a shard root (0 = 4*B)"})
    max_queue: int = field(default=0, metadata={
        "help": "arrivals allowed to queue per shard before shedding "
                "(0 = 16*B)"})
    fault_rate: float = field(default=0.0, metadata={
        "help": "probability that a flush attempt faults"})
    fault_seed: int = field(default=0, metadata={
        "help": "seed of the per-shard fault streams"})
    fault_aware: bool = field(default=False, metadata={
        "help": "skip flushes through nodes in a known stall window "
                "instead of probing them each step"})
    seed: int = field(default=0, metadata={
        "help": "seed of arrivals and key sampling"})
    checkpoint_every: int = field(default=32, metadata={
        "help": "steps between journal checkpoints"})
    max_steps: int = 0  # 0 = derived
    engine: str = field(default="sim", metadata={
        "choices": ENGINES,
        "help": "storage engine behind completions: 'sim' (in-memory) or "
                "'lsm' (durable on-disk KV store; needs --data-dir).  The "
                "engine is a passive sink, so schedules are identical "
                "either way"})
    data_dir: str = field(default="", metadata={
        "help": "directory for the 'lsm' engine's store"})
    #: multi-tenant QoS (:mod:`repro.serve.tenancy`): a tuple of
    #: :class:`~repro.serve.tenancy.spec.TenantSpec` enables tenant-tagged
    #: arrivals, weighted-fair admission, SLO shedding, and buffer quotas.
    #: ``None`` (the default) keeps the run byte-identical to a
    #: pre-tenancy run — the key is omitted from journal meta entirely.
    tenants: "tuple[TenantSpec, ...] | None" = None
    pace: int = field(default=0, metadata={
        "help": "de-amortization budget: per-step flushed messages allowed "
                "per shard (0 = off; off is byte-identical to omitting the "
                "flag)"})

    def __post_init__(self) -> None:
        if self.tenants is not None:
            if not isinstance(self.tenants, tuple):
                object.__setattr__(self, "tenants", tuple(self.tenants))
            validate_tenants(self.tenants, self.messages)
        if self.arrivals not in TENANT_ARRIVALS + ("trace",):
            raise InvalidInstanceError(
                f"unknown arrival process {self.arrivals!r}"
            )
        if self.arrivals == "trace" and self.trace is None:
            raise InvalidInstanceError("trace arrivals need trace=[...]")
        # `not >` rather than `<=` so NaN is rejected too.
        if self.arrivals == "poisson" and not self.rate > 0:
            raise InvalidInstanceError(f"rate must be > 0, got {self.rate}")
        if self.arrivals == "mmpp" and (
            not self.rate >= 0 or not self.burst_rate > 0
        ):
            raise InvalidInstanceError(
                f"mmpp needs rate >= 0 and burst_rate > 0, got "
                f"{self.rate}, {self.burst_rate}"
            )
        if self.arrivals == "closed" and self.n_clients < 1:
            raise InvalidInstanceError("closed loop needs n_clients >= 1")
        if self.messages < 0:
            raise InvalidInstanceError("messages must be >= 0")
        if not (0.0 <= self.fault_rate <= 1.0):
            raise InvalidInstanceError("fault_rate must be in [0, 1]")
        if self.checkpoint_every < 1:
            raise InvalidInstanceError("checkpoint_every must be >= 1")
        if self.engine not in ENGINES:
            raise InvalidInstanceError(
                f"unknown storage engine {self.engine!r} "
                "(expected 'sim' or 'lsm')"
            )
        if self.engine == "lsm" and not self.data_dir:
            raise InvalidInstanceError(
                "engine='lsm' needs data_dir=<store directory>"
            )
        if self.pace < 0:
            raise InvalidInstanceError(
                f"pace must be >= 0 (0 = unpaced), got {self.pace}"
            )

    def to_meta(self) -> dict:
        """The journal ``meta`` payload that reconstructs this config."""
        meta = asdict(self)
        meta["trace"] = (
            None if self.trace is None else [list(p) for p in self.trace]
        )
        if self.tenants is None:
            # Omitted, not null: a tenancy-free journal stays bytewise
            # what it was before tenancy existed.
            del meta["tenants"]
        else:
            meta["tenants"] = [t.to_meta() for t in self.tenants]
        if not self.pace:
            # Same omission contract: an unpaced journal stays bytewise
            # what it was before pacing existed.
            del meta["pace"]
        meta["policy"] = SERVE_POLICY
        return meta

    @classmethod
    def from_meta(cls, meta: dict) -> "ServeConfig":
        """Inverse of :meth:`to_meta`.

        Ignores the ``policy`` tag and any non-config keys a driver
        journaled alongside the config (e.g. the ``supervisor``/``chaos``
        payloads) so old readers stay forward-compatible with new
        journals.
        """
        names = {f.name for f in dataclass_fields(cls)}
        fields = {k: v for k, v in meta.items() if k in names}
        if fields.get("trace") is not None:
            fields["trace"] = tuple(
                (int(s), int(k)) for s, k in fields["trace"]
            )
        if fields.get("tenants") is not None:
            fields["tenants"] = tuple(
                TenantSpec.from_meta(t) for t in fields["tenants"]
            )
        return cls(**fields)


@dataclass
class ServeReport:
    """Everything a serving run produced."""

    config: ServeConfig
    n_steps: int
    snapshot: dict
    #: global message id -> completion step (completed messages only).
    completions: "dict[int, int]"
    #: realized per-shard schedules (index = shard id).
    shard_schedules: "list[FlushSchedule]"
    planner_stats: PlannerStats
    admission_stats: AdmissionStats
    shard_stats: "list[ShardStats]"
    metrics: ServeMetrics = field(repr=False, default=None)
    #: what supervision did to produce the run.
    supervisor: "SupervisorStats | None" = None
    health_log: "tuple[Heartbeat, ...]" = ()
    chaos: "ChaosPlan | None" = None
    #: process-driver lifecycle: ``(event, shard, pid, step)`` tuples
    #: (pids are real and therefore non-deterministic; they live here,
    #: never in the metrics snapshot that determinism drills diff).
    worker_log: "tuple[tuple, ...]" = ()


class _ServeJournal:
    """Shard-tagged journal emission for a serving run."""

    def __init__(self, writer: JournalWriter, owned: bool,
                 checkpoint_every: int) -> None:
        self.writer = writer
        self.owned = owned
        self.every = int(checkpoint_every)
        #: newest step sealed by a checkpoint+flush (the durable-step
        #: rule); 0 until the first checkpoint lands.
        self.last_durable_step = 0

    def record_flush(self, t: int, shard: int, flush: Flush) -> None:
        rec = flush_record(t, flush)
        rec["shard"] = int(shard)
        self.writer.append(rec)

    def record_fault(self, t: int, shard: int, kind: str, src: int,
                     dest: int, detail: str) -> None:
        rec = fault_record(t, kind, src, dest, detail)
        rec["shard"] = int(shard)
        self.writer.append(rec)

    def record_divert(self, t: int, src_shard: int, dst_shard: int,
                      msgs: "list[int] | tuple[int, ...]" = ()) -> None:
        self.writer.append(divert_record(t, src_shard, dst_shard, msgs))

    def record_slo(self, t: int, door, purge) -> None:
        self.writer.append(slo_record(t, door, purge))

    def record_driver(self, t: int, driver: dict) -> None:
        self.writer.append(driver_record(t, driver))

    def end_step(self, t: int, arrived: int, completed: int) -> None:
        if t % self.every == 0:
            self.checkpoint(t, arrived, completed)

    def checkpoint(self, t: int, arrived: int, completed: int) -> None:
        self.writer.append({
            "type": "checkpoint", "t": int(t),
            "arrived": int(arrived), "completed": int(completed),
        })
        self.writer.flush()
        self.last_durable_step = int(t)

    def finish(self, t: int, arrived: int, completed: int) -> None:
        self.checkpoint(t, arrived, completed)
        self.writer.append({"type": "end", "t": int(t)})
        self.writer.flush()
        if self.owned:
            self.writer.close()

    def abort(self) -> None:
        self.writer.flush()
        if self.owned:
            self.writer.close()


def build_shard_engine(config: "ServeConfig", spec) -> ShardEngine:
    """Construct the engine for one shard, exactly as the loop would.

    Factored out so a shared-nothing worker process can rebuild its
    shard's engine from ``(config, spec)`` alone and land on the same
    deterministic object the in-process drivers use: fault decisions are
    pure functions of the derived seed, so an engine rebuilt in another
    process answers every injector query identically.
    """
    injector = None
    if config.fault_rate > 0:
        injector = FaultInjector(
            FaultPlan.uniform(config.fault_rate),
            seed=spawn_seed(config.fault_seed, spec.shard_id),
        )
    return ShardEngine(
        spec.shard_id, spec.topology, config.P, config.B,
        injector=injector, fault_aware=config.fault_aware,
        pace=config.pace,
    )


def build_planner(config: "ServeConfig") -> EpochPlanner:
    """The planner a run's config calls for (paced iff ``pace > 0``).

    Factored out for the same reason as :func:`build_shard_engine`: the
    procpool's shared-nothing workers rebuild their planner from the
    config alone and must land on the same choice the in-process
    drivers make.
    """
    if config.pace:
        return PacedPlanner(config.epoch, pace=config.pace)
    return EpochPlanner(config.epoch)


class ShardStep:
    """Phases 2-4 of the DAM step over the shards one process steps.

    Drain the admission queues into the shard roots, plan at epoch
    boundaries (or forced, under the per-shard re-plan budget), then run
    one ``engine.step`` per shard — at most ``P`` flushes each.
    :class:`ServiceLoop` steps every shard that is not quarantined; a
    procpool worker (:mod:`repro.serve.procpool`) steps the shards it
    hosts that are not frozen.  Both run these phases over
    :attr:`_shard_ids` and differ only in what three events do:
    :meth:`_on_admission`, :meth:`_on_completion` and
    :meth:`_on_replans_exhausted`.  Subclasses also name each shard's
    durable sink (:meth:`_store_of`) and what a rejected write costs
    (:meth:`_store_rejected`).
    """

    def __init__(self, config: "ServeConfig",
                 engines: "list[ShardEngine | None]",
                 tenant_of: "dict[int, int]") -> None:
        self.config = config
        #: shard id -> engine (None for shards another process steps).
        self.engines = engines
        #: the shards each phase visits, in order.  Subclasses replace
        #: (never mutate) the list to take a shard out of the step, so a
        #: phase already iterating it finishes over the old one.
        self._shard_ids = [s for s, e in enumerate(engines) if e is not None]
        self.planner = build_planner(config)
        bounds = dict(
            max_root_backlog=config.max_root_backlog or 4 * config.B,
            max_queue=config.max_queue or 16 * config.B,
        )
        if config.tenants:
            # Weighted-fair lanes keyed on the gid -> tenant map.
            self.admission: AdmissionController = TenantAdmissionController(
                config.shards, specs=config.tenants, tenant_of=tenant_of,
                **bounds,
            )
        else:
            self.admission = AdmissionController(config.shards, **bounds)
        #: per-shard admissions since that shard's last plan.
        self._fresh: "list[list[int]]" = [[] for _ in engines]
        self._replans_left = [MAX_FORCED_REPLANS] * len(engines)
        #: where engine steps record their flushes and faults (or None).
        self._journal = None
        #: message id -> routed key, for the durable sink (engine='lsm').
        self._gid_key: "dict[int, int]" = {}

    # -- events ----------------------------------------------------------
    def _on_admission(self, sid: int, gid: int, done: "int | None",
                      t: int) -> None:
        """``gid`` reached shard ``sid``'s root at step ``t`` (``done``
        is its completion step when the root is its target)."""
        raise NotImplementedError

    def _on_completion(self, sid: int, gid: int, step: int) -> None:
        """Shard ``sid`` delivered ``gid`` to its target leaf."""
        raise NotImplementedError

    def _on_replans_exhausted(
        self, sid: int, engine: ShardEngine, t: int
    ) -> None:
        """Shard ``sid`` deadlocked with no forced re-plans left (the
        handler takes it out of :attr:`_shard_ids`)."""
        raise NotImplementedError

    # -- phases 2-4 ------------------------------------------------------
    def _drain_shards(self, t: int) -> None:
        """Phase 2: admission queues -> shard roots."""
        for sid in self._shard_ids:
            for gid, _leaf, done in self.admission.drain(
                sid, self.engines[sid], t
            ):
                self._on_admission(sid, gid, done, t)
                if done is None:
                    self._fresh[sid].append(gid)

    def _plan_shards(self, t: int) -> None:
        """Phase 3: epoch / forced planning under the re-plan budget."""
        boundary = self.planner.is_boundary(t)
        for sid in self._shard_ids:
            engine = self.engines[sid]
            force = engine.idle_streak > MAX_IDLE_STEPS
            if force and self._replans_left[sid] <= 0:
                self._on_replans_exhausted(sid, engine, t)
            elif force or (boundary and self._fresh[sid]):
                self.planner.plan(engine, self._fresh[sid], force_full=force)
                self._fresh[sid] = []
                if force:
                    self._replans_left[sid] -= 1

    def _execute_shards(self, t: int) -> None:
        """Phase 4: one DAM step per shard, in shard order."""
        for sid in self._shard_ids:
            for gid, step in self.engines[sid].step(t, self._journal):
                self._on_completion(sid, gid, step)

    def _restore_shard(self, sid: int, locations: "dict[int, int]",
                       targets: "dict[int, int]") -> None:
        """Rebuild shard ``sid``'s machine state from a journal fold.

        The engine's realized schedule and counters survive the wipe
        (they belong to the run's accounting); the restored messages get
        a fresh full plan and a fresh re-plan budget.
        """
        engine = self.engines[sid]
        engine.wipe()
        engine.restore_state(locations, targets)
        self.admission.rebuild_residency(sid, locations.keys())
        self._fresh[sid] = []
        self._replans_left[sid] = MAX_FORCED_REPLANS
        if engine.location:
            self.planner.plan(engine, [], force_full=True)

    # -- durable sink ----------------------------------------------------
    def _store_of(self, sid: int):
        """The durable sink behind shard ``sid`` (None: no sink)."""
        raise NotImplementedError

    def _store_rejected(self, sid: int) -> None:
        """A degraded store rejected one of shard ``sid``'s writes."""
        raise NotImplementedError

    def _store_put(self, sid: int, gid: int, step: int) -> None:
        """Record ``gid``'s completion in its shard's sink, degradation-
        tolerant.

        A degraded or faulted store must not take serving down with it:
        the completion being recorded is already journal-durable, so a
        typed storage error is handed to :meth:`_store_rejected` and
        serving continues read-only until the store re-arms.
        """
        store = self._store_of(sid)
        if store is None:
            return
        key = self._gid_key.pop(gid, None)
        if key is None:
            return
        try:
            store.put(str(key), {"gid": int(gid), "step": int(step)})
        except StorageError:
            self._store_rejected(sid)


class ServiceLoop(ShardStep):
    """One supervised serving run.  Construct, then :meth:`run` exactly
    once.

    ``journal`` is ``None``, a path (the loop opens and owns a
    :class:`~repro.dam.journal.JournalWriter` with the config as its
    ``meta``), or an open writer (caller owns lifecycle and meta).
    ``supervisor`` tunes the breaker / restart policy and ``chaos``
    drills it (see :mod:`repro.serve.supervisor`).  Until a breaker
    trips, supervision changes nothing — not a journal byte, not a
    completion step — which is what keeps journals written before every
    run was supervised recoverable; it also costs close to nothing
    (breakers are built lazily, the per-step checks are set and dict
    lookups).  Journal meta carries the chaos plan and any non-default
    supervisor config (or, failing both, the first breaker trip
    journals the driver), so :func:`recover_serve` re-derives the
    identical run.
    """

    def __init__(self, config: ServeConfig, *,
                 supervisor: "SupervisorConfig | None" = None,
                 chaos: "ChaosPlan | None" = None,
                 journal=None,
                 sync: bool = False,
                 max_segment_bytes: "int | None" = None,
                 compact_every_rotations: int = 0) -> None:
        self.router = ShardRouter(
            config.shards,
            config.key_space or self._derived_key_space(config),
            B=config.B,
            fanout=config.fanout,
            height=config.height,
            leaves=config.leaves,
            eps=config.eps,
        )
        engines = [
            build_shard_engine(config, spec) for spec in self.router.shards
        ]
        self.arrivals = self._build_arrivals(config)
        #: tenancy runtime, or None for the (byte-identical) single-tenant
        #: path; when set, admission is the weighted-fair controller and
        #: metrics carry the gid -> tenant map it keys on.
        self._tenancy = (
            TenancyRuntime(config.tenants) if config.tenants else None
        )
        self.metrics = ServeMetrics(
            config.shards,
            self._tenancy.names if self._tenancy else None,
        )
        super().__init__(config, engines, self.metrics.tenant_of)
        self._journal_arg = journal
        self._sync = bool(sync)
        self._max_segment_bytes = max_segment_bytes
        self._compact_every = int(compact_every_rotations)
        if self._compact_every < 0:
            raise InvalidInstanceError(
                "compact_every_rotations must be >= 0, "
                f"got {compact_every_rotations}"
            )
        self._ran = False
        self._next_gid = 0
        #: the durable sink (engine='lsm'); a passive observer of the
        #: loop, opened in the parent so SIGKILLed workers never hold it.
        self.store = None
        #: durable-sink writes rejected by a degraded/faulted store;
        #: serving continues (the completion is journal-durable), the
        #: rejection is surfaced here and via serve_store_degraded_total.
        self.store_put_errors = 0
        if config.engine == "lsm":
            self.store = self._open_store(config)
        # -- supervision ------------------------------------------------
        self.supervisor_config = (
            supervisor if supervisor is not None else SupervisorConfig()
        )
        self.chaos = chaos if chaos is not None else ChaosPlan()
        n = len(engines)
        sup = self.supervisor_config
        self._spill_capacity = sup.spill_capacity or 16 * config.B
        #: shard -> breaker, built at the shard's first stalled epoch,
        #: trip or abandonment (a missing breaker is a closed one).
        self._breakers: "dict[int, CircuitBreaker]" = {}
        self._health = [HEALTHY] * n
        #: quarantined shards: the step phases skip them and their
        #: arrivals are held at the door (spilled or counted-shed).
        self._held: "set[int]" = set()
        self._spill: "list[deque]" = [deque() for _ in range(n)]
        self._restarts_left = [sup.restart_budget] * n
        self._abandoned = [False] * n
        self._corrupted = [False] * n
        #: message id -> routed target leaf (ids are dense, so an array;
        #: restart folds need the targets of completed messages too).
        self._leaf_of = array("i")
        self._last_hb = [(0, 0, 0)] * n
        self.sup_stats = SupervisorStats()
        self.health_log: "list[Heartbeat]" = []
        self.worker_log: "list[tuple]" = []
        #: set once the driver is named in the journal (see _note_driver).
        self._driver_noted = False
        self._disk_faults = DiskFaultWindows(self.chaos, range(n))
        #: step -> the chaos events due then (shards this run has).
        self._chaos_at = {
            step: [e for e in self.chaos.events_at(step) if e.shard < n]
            for step in {e.step for e in self.chaos.events if e.shard < n}
        }
        #: the step currently being supervised (diversion handoffs fire
        #: from breaker trips, which happen at several call depths).
        self._clock = 0
        # Chaos stall windows wrap the target shards' injectors; kills
        # and corruptions are applied by _supervise.
        if not self.chaos.is_zero:
            for s, eng in enumerate(engines):
                apply_chaos_windows(eng, self.chaos, config, s)

    def _open_store(self, config: ServeConfig):
        """The parent-held durable sink (engine='lsm').

        The in-process driver keeps one store for the whole run; the
        procpool driver overrides this to ``None`` — its workers own
        per-shard stores under ``data_dir/shard-<k>``.
        """
        # Local import: repro.lsm.disk is pure storage, no serve
        # dependency, but keeping the sim path import-free means a
        # sim-only process never touches the disk engine.
        from repro.lsm.disk import KVStore
        return KVStore(config.data_dir, sync=False)

    @staticmethod
    def _derived_key_space(config: ServeConfig) -> int:
        if config.fanout:
            return config.shards * config.fanout**config.height
        return config.shards * config.leaves

    def _build_arrivals(self, config: ServeConfig) -> ArrivalProcess:
        if config.tenants:
            return TenantMix(
                config.tenants, self.router.key_space,
                seed=config.seed, spawn=spawn_seed,
            )
        sampler = KeySampler(
            self.router.key_space, theta=config.theta,
            seed=spawn_seed(config.seed, 1),
        )
        if config.arrivals == "poisson":
            return PoissonArrivals(
                config.rate, config.messages, sampler,
                seed=spawn_seed(config.seed, 2),
            )
        if config.arrivals == "mmpp":
            return MMPPArrivals(
                config.rate, config.burst_rate, config.messages, sampler,
                p_burst=config.p_burst, p_calm=config.p_calm,
                seed=spawn_seed(config.seed, 2),
            )
        if config.arrivals == "closed":
            return ClosedLoopArrivals(
                config.n_clients, config.messages, sampler,
                think_time=config.think_time,
            )
        return TraceArrivals(list(config.trace or ()))

    # -- journal ---------------------------------------------------------
    def _open_journal(self) -> "_ServeJournal | None":
        if self._journal_arg is None:
            return None
        if isinstance(self._journal_arg, JournalWriter):
            return _ServeJournal(self._journal_arg, False,
                                 self.config.checkpoint_every)
        writer = JournalWriter(
            self._journal_arg, meta=self._journal_meta(), sync=self._sync,
            max_segment_bytes=self._max_segment_bytes,
            compact_every_rotations=self._compact_every,
        )
        return _ServeJournal(writer, True, self.config.checkpoint_every)

    def _journal_meta(self) -> dict:
        """The ``meta`` payload a journal this loop opens starts with.

        Only non-default supervision state goes in, so a run with no
        chaos and the default supervisor journals the bare config.  When
        supervision *is* in play, the driver topology rides along so
        recovery re-derives the run under the identical driver.
        """
        meta = self.config.to_meta()
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
        from the unsupervised loop's (a breaker trip), unless the meta
        already does.  One record per run; compaction keeps it."""
        if self._driver_noted or self._journal is None:
            return
        self._driver_noted = True
        if "driver" not in self._journal_meta():
            self._journal.record_driver(t, self._driver_meta())

    def _durable_step(self) -> int:
        """Newest journal-durable step (-1 when no journal is attached)."""
        return -1 if self._journal is None else self._journal.last_durable_step

    # -- the step ----------------------------------------------------------
    # run() calls _advance until the system drains; _advance runs one
    # step: supervision (epoch close, chaos), phase 1 (route arrivals),
    # the ShardStep phases 2-4 and phase 5 (meter).  ProcPoolLoop
    # overrides _advance to run a chunk of steps in worker processes,
    # which run the same ShardStep phases, plus
    # _start_workers/_stop_workers.

    def _supervise(self, t: int) -> None:
        """Step-start supervision: close the finished epoch (tenancy
        ledger and SLO decisions, then the shard heartbeat) and apply
        the chaos events due at step ``t``."""
        self._clock = t
        if t > 1 and self.planner.is_boundary(t):
            if self._tenancy is not None:
                self._close_tenant_epoch(t)
            self._heartbeat(t)
        events = self._chaos_at.get(t)
        if events:
            self._apply_chaos(t, events)
        # The in-process driver owns every store and journal, so this
        # process's syscalls are the whole fault domain (procpool
        # workers arm their own; see repro.serve.procpool).
        if self._disk_faults.advance(t):
            self._note_faults_fired(self._disk_faults.take_fired())

    def _close_tenant_epoch(self, t: int) -> None:
        """Close the finished epoch: ledger row + SLO breaker decisions."""
        epoch = self.planner.epoch_of(t - 1)
        self._tenancy.close_epoch(epoch, self.metrics)
        door, tripped = self._tenancy.tracker.evaluate(epoch)
        self._apply_slo(door, tripped, t)

    def _apply_slo(self, door: "set[int]", tripped: "list[int]",
                   t: int) -> None:
        """Enforce SLO decisions: close doors, purge tripped tenants.

        Non-trivial decisions are journaled like ``divert`` records —
        durability sealed with a checkpoint first, then the decision —
        so a restarted shard-per-process worker can be owed the purge
        its dispatch lost.  The procpool driver extends this to ship
        the directives to its workers (which own the queues) instead of
        purging locally.
        """
        if self._journal is not None and (
            tripped or set(door) != self.admission.door_closed
        ):
            if t > 1:
                self._journal.checkpoint(
                    t - 1, self._next_gid, len(self.metrics.completion_step)
                )
            self._journal.record_slo(t, door, tripped)
        self.admission.door_closed = set(door)
        for tid in tripped:
            for _sid, gid in self.admission.purge_tenant(tid):
                self._shed(gid, t)

    def _apply_chaos(self, t: int, events) -> None:
        """Kills, corruptions and disk-fault window counts due at ``t``."""
        for event in events:
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

    def _route(self, t: int) -> "list[tuple[int, int, int]]":
        """Phase 1 up to the door: pull, route and meter step ``t``'s
        arrivals.

        An arrival for a quarantined shard is held here (spilled or
        counted-shed); the ``(shard, gid, leaf)`` of every other one is
        returned for the driver to offer.  The caller then reports the
        new ids with ``arrivals.on_emitted``.
        """
        keys = self.arrivals.take(t)
        gid0 = self._next_gid
        self._next_gid += len(keys)
        # Tenant tags must land in metrics.tenant_of *before* the offer:
        # the fair controller keys its lanes (and shed accounting) on it.
        tenants = (
            self.arrivals.pending_tenants if self._tenancy is not None
            else None
        )
        # The durable sink records completions under the routed key.
        gid_key = self._gid_key if self.config.engine == "lsm" else None
        route = self.router.route
        note_arrival = self.metrics.note_arrival
        leaf_of = self._leaf_of
        held = self._held
        offers = []
        for i, key in enumerate(keys):
            gid = gid0 + i
            sid, leaf = route(key)
            note_arrival(
                gid, sid, t, tenants[i] if tenants is not None else None
            )
            if gid_key is not None:
                gid_key[gid] = key
            leaf_of.append(leaf)
            if sid in held:
                self._hold(sid, gid, leaf, t)
            else:
                offers.append((sid, gid, leaf))
        return offers

    def _route_arrivals(self, t: int) -> None:
        """Phase 1: pull arrivals, route, meter, offer to admission."""
        gid0 = self._next_gid
        offer = self.admission.offer
        for sid, gid, leaf in self._route(t):
            if not offer(sid, gid, leaf):
                self._shed(gid, t)
        self.arrivals.on_emitted(list(range(gid0, self._next_gid)))

    def _hold(self, sid: int, gid: int, leaf: int, t: int) -> None:
        """An arrival for quarantined shard ``sid``: spilled until the
        shard restarts, or counted-shed past the spill capacity (or for
        good, once the shard is abandoned).  Still an offer at the door
        either way — the shard just cannot take it."""
        adm = self.admission.stats
        adm.offered += 1
        abandoned = self._abandoned[sid]
        if not abandoned and len(self._spill[sid]) < self._spill_capacity:
            self._spill[sid].append((gid, leaf))
            self.metrics.note_spill(gid, t)
            self.sup_stats.spilled += 1
            self.sup_stats._bump(self.sup_stats.spilled_by_shard, sid)
            self._count(
                "serve_spilled_total",
                "arrivals held in supervisor spill queues",
                shard=sid,
            )
            return
        adm.shed += 1
        adm.shed_by_shard[sid] = adm.shed_by_shard.get(sid, 0) + 1
        self.admission.note_external_shed(sid, gid)
        self._shed(gid, t)
        if abandoned:
            self.sup_stats.abandoned_messages += 1
        else:
            self.sup_stats.spill_overflow_shed += 1

    def _on_admission(self, sid: int, gid: int, done: "int | None",
                      t: int) -> None:
        self.metrics.note_admit(gid, t)
        if done is not None:
            self._on_completion(sid, gid, done)

    def _on_completion(self, sid: int, gid: int, step: int) -> None:
        self.metrics.note_completion(gid, step)
        self.arrivals.notify_completion(gid, step)
        self.admission.note_departed(gid)
        if self._tenancy is not None:
            tid = self.metrics.tenant_of.get(gid)
            if tid is not None:
                self._tenancy.tracker.note_completion(
                    tid, step - self.metrics.arrival_step[gid] + 1
                )
        # The durable acknowledgment: the message is delivered, so its
        # completion record must survive any crash after this line.
        # Under the procpool driver the workers own per-shard stores and
        # write at their own completion events (the parent's store is
        # None, so this is a no-op there).
        self._store_put(sid, gid, step)

    def _on_replans_exhausted(
        self, sid: int, engine: ShardEngine, t: int
    ) -> None:
        # Quarantine the one deadlocked shard and keep the rest serving;
        # the probe path restarts it from the journal with a fresh plan.
        self._open_breaker(sid, self.planner.epoch_of(t))

    def _store_of(self, sid: int):
        return self.store

    def _store_rejected(self, sid: int) -> None:
        """Counted (``serve_store_degraded_total``), never fatal."""
        self.store_put_errors += 1
        self._count(
            "serve_store_degraded_total",
            "durable-sink writes rejected by a degraded store",
        )

    def _in_flight(self, sid: int) -> int:
        """Messages admitted to shard ``sid`` and not yet delivered."""
        return self.engines[sid].in_flight

    def _admission_depth(self, sid: int) -> int:
        """Arrivals queued at admission in front of ``sid``."""
        return self.admission.queue_depth(sid)

    def _meter(self, t: int) -> None:
        """Phase 5: per-step depth metering (spilled arrivals count as
        queued)."""
        depth = self.admission.queue_depth
        spill = self._spill
        engines = self.engines
        self.metrics.note_step(
            [depth(s) + len(spill[s]) for s in range(len(engines))],
            [e.root_backlog for e in engines],
            [e.in_flight for e in engines],
        )

    # -- supervision -----------------------------------------------------
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

    def _set_health(self, sid: int, state: str) -> None:
        """Move shard ``sid`` to ``state``; entering or leaving
        quarantine takes it out of, or puts it back into, the step."""
        self._health[sid] = state
        held = state == QUARANTINED
        if held != (sid in self._held):
            if held:
                self._held.add(sid)
            else:
                self._held.discard(sid)
            self._shard_ids = [
                s for s in range(len(self.engines)) if s not in self._held
            ]

    def _breaker(self, sid: int) -> CircuitBreaker:
        breaker = self._breakers.get(sid)
        if breaker is None:
            sup = self.supervisor_config
            breaker = self._breakers[sid] = CircuitBreaker(
                sid,
                trip_after=sup.trip_after,
                probe_backoff=sup.probe_backoff,
                max_backoff=sup.max_backoff,
                seed=spawn_seed(self.config.seed, 97, sid),
            )
        return breaker

    def _breaker_open(self, sid: int) -> bool:
        breaker = self._breakers.get(sid)
        return breaker is not None and breaker.state == BREAKER_OPEN

    def _open_breaker(self, sid: int, epoch: int) -> None:
        self._note_driver(self._clock)
        self._breaker(sid).trip(epoch)
        self._set_health(sid, QUARANTINED)
        self.sup_stats.trips += 1
        self.sup_stats._bump(self.sup_stats.trips_by_shard, sid)
        self._count(
            "serve_breaker_trips_total", "shard circuit breakers tripped",
            shard=sid,
        )
        self._maybe_divert(sid)

    # -- breaker-aware diversion -------------------------------------------
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

    # -- health ------------------------------------------------------------
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

    def _heartbeat(self, t: int) -> None:
        """Evaluate the epoch that ended at step ``t - 1``."""
        epoch = self.planner.epoch_of(t - 1)
        stats = self.sup_stats
        # Surface injected faults as they happen, not only at close.
        self._note_faults_fired(self._disk_faults.take_fired())
        if self.store is not None and self.store.degraded:
            stats.store_degraded_epochs += 1
            self._count(
                "serve_store_degraded_epochs_total",
                "epochs the durable store spent degraded (read-only)",
            )
        for sid in range(len(self.engines)):
            # Under the process driver the engine's counters are the
            # merged worker deltas and in_flight its last report.
            es = self.engines[sid].stats
            flushes, completed, failed = \
                es.flushes, es.completed, es.failed_attempts
            in_flight = self._in_flight(sid)
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
                breaker = self._breaker(sid)
                if breaker.probe_due(epoch):
                    breaker.half_open()
                    self._set_health(sid, RECOVERING)
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
                    self._breaker(sid).close()
                    self._set_health(sid, HEALTHY)
                    self._merge_back(sid, t)
                else:
                    # The probe epoch made no progress: back to open,
                    # with a deeper backoff.
                    self._open_breaker(sid, epoch)
            elif stalled:
                self._set_health(sid, DEGRADED)
                if self._breaker(sid).note_stall():
                    self._open_breaker(sid, epoch)
            else:
                breaker = self._breakers.get(sid)
                if breaker is not None:
                    breaker.note_ok()
                self._set_health(sid, HEALTHY)

    def _kill_shard(self, sid: int, t: int) -> None:
        """Chaos kill: the shard loses all in-memory state right now."""
        self.engines[sid].wipe()
        self.admission.reset_shard_residency(sid)
        self._fresh[sid] = []
        if not self._breaker_open(sid):
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
            m = self.metrics
            admitted = {
                g for g in m.admit_step
                if m.shard_of[g] == sid and g not in m.completion_step
            }
            completed = {
                g for g in m.completion_step if m.shard_of[g] == sid
            }
            locations, _schedule = rebuild_shard_state(
                records,
                admitted=admitted,
                completed=completed,
                targets={g: self._leaf_of[g] for g in admitted | completed},
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
        self._set_health(sid, QUARANTINED)
        self._breaker(sid).lock_open()
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

    # -- reporting -------------------------------------------------------
    def _close_store(self) -> None:
        """Flush and close the durable sink (idempotent; sim: no-op)."""
        if self.store is not None:
            self.store.close()

    def _emit_pace_obs(self, reg) -> None:
        """Publish the ``stability_pace_*`` family (paced runs only).

        Every driver calls this from its run-end obs block after the
        realized schedules are final, so the gauge reads ground truth.
        """
        if not self.config.pace:
            return
        hold_c = reg.counter(
            "stability_pace_holds_total",
            "steps where the pacer held back ready work",
        )
        split_c = reg.counter(
            "stability_pace_splits_total",
            "flush obligations split to fit the pace budget",
        )
        work_g = reg.gauge(
            "stability_step_work_max",
            "largest realized per-step message-move count of any "
            "shard (paced runs: must be <= the budget)",
        )
        for engine in self.engines:
            hold_c.inc(engine.stats.paced_holds)
            hold_c.labels(shard=engine.shard_id).inc(
                engine.stats.paced_holds
            )
            split_c.inc(engine.stats.paced_splits)
            split_c.labels(shard=engine.shard_id).inc(
                engine.stats.paced_splits
            )
        work_g.set(max(
            (e.schedule.max_step_moves() for e in self.engines), default=0,
        ))

    def _build_report(self, t: int) -> ServeReport:
        snapshot = self.metrics.snapshot(t)
        if self._tenancy is not None:
            self._tenancy.annotate(snapshot, self.metrics)
        if self.config.pace:
            # Opt-in section only (unpaced snapshots are unchanged):
            # max_step_work is read from the *realized* schedules, not
            # the pacer's own bookkeeping, so the per-step bound is
            # asserted against ground truth.
            snapshot["pace"] = {
                "budget": self.config.pace,
                "max_step_work": max(
                    (e.schedule.max_step_moves() for e in self.engines),
                    default=0,
                ),
                "shards": [
                    {
                        "shard": e.shard_id,
                        "max_step_work": e.schedule.max_step_moves(),
                        "paced_holds": e.stats.paced_holds,
                        "paced_splits": e.stats.paced_splits,
                    }
                    for e in self.engines
                ],
            }
        snapshot["supervisor"] = self.sup_stats.snapshot()
        return ServeReport(
            config=self.config,
            n_steps=t,
            snapshot=snapshot,
            completions=dict(self.metrics.completion_step),
            shard_schedules=[e.schedule for e in self.engines],
            planner_stats=self.planner.stats,
            admission_stats=self.admission.stats,
            shard_stats=[e.stats for e in self.engines],
            metrics=self.metrics,
            supervisor=self.sup_stats,
            health_log=tuple(self.health_log),
            chaos=self.chaos,
            worker_log=tuple(self.worker_log),
        )

    # ------------------------------------------------------------------
    def _start_workers(self) -> None:
        """Before the first step (the in-process driver has none)."""

    def _stop_workers(self) -> None:
        """After the last step, however the run ended."""

    def _advance(self, t: int, max_steps: int) -> int:
        """Run step ``t``; returns the last step run.

        The in-process driver runs exactly one step; the procpool driver
        runs a chunk of steps in its workers (never past ``max_steps``).
        """
        self._supervise(t)
        self._route_arrivals(t)
        self._drain_shards(t)
        self._plan_shards(t)
        obs = self._obs
        t_exec = obs.profiler.clock() if obs.enabled else 0.0
        self._execute_shards(t)
        if obs.enabled:
            obs.profiler.add(PHASE_EXECUTE, obs.profiler.clock() - t_exec)
        self._meter(t)
        if self._journal is not None:
            self._journal.end_step(
                t, self._next_gid, len(self.metrics.completion_step)
            )
        return t

    def run(self) -> ServeReport:
        """Drive the loop to completion; returns the full report."""
        if self._ran:
            raise InvalidInstanceError("a ServiceLoop runs exactly once")
        self._ran = True
        try:
            return self._drive()
        finally:
            # Chaos disk-fault windows never outlive the run.
            self._disk_faults.close()
            self._note_faults_fired(self._disk_faults.take_fired())

    def _drive(self) -> ServeReport:
        config = self.config
        metrics = self.metrics
        arrivals = self.arrivals
        engines = self.engines
        # Observability is bound once per run (see repro.obs.hooks); with
        # the disabled default every step below is allocation-identical
        # to the uninstrumented loop.
        self._obs = obs = current_obs()
        enabled = obs.enabled
        run_span = obs.tracer.span(
            "serve.run", category="serve",
            shards=len(engines), messages=config.messages,
        )
        self._journal = journal = self._open_journal()
        max_steps = config.max_steps or max(
            1000, 50 * config.messages * (config.height + 2)
        )
        self._start_workers()
        t = 0
        try:
            # Done once nothing is left anywhere: no future arrival and
            # no message queued, spilled, in a shard, or lost with a
            # killed one awaiting its restart.
            while not (arrivals.exhausted and metrics.outstanding == 0):
                if t + 1 > max_steps:
                    in_flight = sum(map(self._in_flight, range(len(engines))))
                    raise ExecutionStalledError(
                        f"serving loop exceeded max_steps={max_steps} "
                        f"(in flight: {in_flight})",
                        step=t + 1,
                        epoch=self.planner.epoch_of(t + 1),
                        last_durable_step=self._durable_step(),
                    )
                t = self._advance(t + 1, max_steps)
        except ExecutionStalledError:
            if journal is not None:
                journal.abort()
            self._close_store()
            run_span.set("stalled", True)
            run_span.finish()
            raise
        finally:
            self._stop_workers()
        for engine in engines:
            engine.schedule.trim()
        if journal is not None:
            journal.finish(t, self._next_gid, len(metrics.completion_step))
        self._close_store()
        if enabled:
            run_span.set_steps(1, t)
            reg = obs.metrics
            reg.counter("serve_runs_total", "serving runs completed").inc()
            reg.counter("serve_steps_total", "serving DAM steps").inc(t)
            reg.counter(
                "serve_arrivals_total", "messages that arrived"
            ).inc(self._next_gid)
            reg.counter(
                "serve_admitted_total", "messages admitted past the queues"
            ).inc(self.admission.stats.admitted)
            reg.counter(
                "serve_completions_total", "messages delivered to leaves"
            ).inc(len(metrics.completion_step))
            reg.counter(
                "serve_planned_flushes_total", "flushes emitted by planning"
            ).inc(self.planner.stats.planned_flushes)
            flush_counter = reg.counter(
                "serve_flushes_total", "flushes realized by shard engines"
            )
            retry_counter = reg.counter(
                "serve_retries_total", "failed flush attempts across shards"
            )
            for engine in engines:
                flush_counter.inc(engine.stats.flushes)
                flush_counter.labels(shard=engine.shard_id).inc(
                    engine.stats.flushes
                )
                retry_counter.inc(engine.stats.failed_attempts)
            self._emit_pace_obs(reg)
        run_span.finish()
        return self._build_report(t)


@dataclass(frozen=True)
class ServeRecoveryReport:
    """What :func:`recover_serve` did."""

    report: ServeReport
    resumed_from_step: int
    replayed_flushes: int
    torn_bytes: int
    torn_reason: str
    run_completed: bool


def recover_serve(path, *, repair: bool = True) -> ServeRecoveryReport:
    """Recover an interrupted serving run from its journal.

    The loop is deterministic in its config, so recovery re-derives the
    uninterrupted run from the journal's ``meta``, then verifies every
    durable journaled flush appears in the re-derived shard schedules at
    the same step — the same exact-or-typed-error contract as batch
    recovery.  Returns the re-derived report (completion times identical
    to an uninterrupted run) plus what the journal contributed.
    """
    obs = current_obs()
    span = obs.tracer.span(
        "serve.recover", category="serve", path=str(path)
    )
    t_wall = obs.profiler.clock() if obs.enabled else 0.0
    manager = RecoveryManager(path)
    scan = manager.scan()
    meta = manager.meta
    if meta is None:
        raise JournalCorruptionError(
            f"{path}: no meta record survived; the serving run cannot be "
            "reconstructed",
            reason="no-records",
        )
    if meta.get("policy") != SERVE_POLICY:
        raise JournalCorruptionError(
            f"{path}: journal meta has policy {meta.get('policy')!r}, "
            f"not {SERVE_POLICY!r}",
            reason="instance-mismatch",
        )
    torn_bytes, torn_reason = scan.torn_bytes, scan.torn_reason
    if repair:
        manager.repair()
    config = ServeConfig.from_meta(meta)
    if config.engine != "sim":
        # Re-derivation is a *verification* replay: the durable store
        # already holds the original run's acknowledged state, and the
        # engine is a passive sink (schedules are byte-identical across
        # engines), so recovery re-derives under the sim engine rather
        # than double-writing completions into the live store.
        config = dataclass_replace(config, engine="sim", data_dir="")
    # Re-derive through the driver that wrote the journal, so breaker
    # trips, quarantines, restarts, and worker respawns replay
    # identically (they are seeded from the same config).  A run names
    # its driver in meta (chaos or non-default supervision) or, failing
    # that, in a record at its first breaker trip.
    driver = meta.get("driver") or next(
        (rec["driver"] for rec in scan.records
         if rec["type"] == REC_DRIVER), None,
    ) or {}
    kwargs = dict(
        supervisor=(
            SupervisorConfig.from_meta(meta["supervisor"])
            if "supervisor" in meta else None
        ),
        chaos=ChaosPlan.from_meta(meta["chaos"]) if "chaos" in meta else None,
    )
    if driver.get("kind") == "procpool":
        # Local import: repro.serve.procpool imports this module.
        from repro.serve.procpool import ProcPoolLoop
        report = ProcPoolLoop(
            config, processes=int(driver.get("processes", 1)), **kwargs,
        ).run()
    else:
        # "inprocess", the retired "threads" (the same run), or none.
        report = ServiceLoop(config, **kwargs).run()
    durable = manager.last_durable_step()
    replayed = 0
    for rec in manager.scan().records:
        if rec["type"] != REC_FLUSH or rec["t"] > durable:
            continue
        f = Flush(int(rec["src"]), int(rec["dest"]),
                  tuple(int(m) for m in rec["msgs"]))
        sid = int(rec.get("shard", 0))
        if (
            sid >= len(report.shard_schedules)
            or f not in report.shard_schedules[sid].flushes_at(int(rec["t"]))
        ):
            raise JournalCorruptionError(
                f"{path}: journaled flush {f!r} (shard {sid}, step "
                f"{rec['t']}) is not in the re-derived serving run — the "
                "journal belongs to a different run",
                reason="schedule-mismatch",
            )
        replayed += 1
    if obs.enabled:
        obs.profiler.add(PHASE_RECOVER, obs.profiler.clock() - t_wall)
        span.set("resumed_from_step", durable)
        span.set("replayed_flushes", replayed)
        span.set("torn_bytes", torn_bytes)
        obs.metrics.counter(
            "serve_recoveries_total", "serving runs recovered from journals"
        ).inc()
    span.finish()
    return ServeRecoveryReport(
        report=report,
        resumed_from_step=durable,
        replayed_flushes=replayed,
        torn_bytes=torn_bytes,
        torn_reason=torn_reason,
        run_completed=manager.run_completed,
    )
