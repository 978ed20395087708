"""Command-line interface: ``python -m repro <command>``.

Eleven subcommands cover the common workflows without writing code:

* ``compare`` — generate a workload and compare the flushing policies;
* ``solve``   — run the full paper pipeline on one instance and report
  every stage's cost plus the trace summary;
* ``gadget``  — build the Lemma 15 NP-hardness gadget for a 3-partition
  input and decide it;
* ``faults``  — execute every policy under seeded fault injection and
  report mean/p99 completion-time inflation per fault rate
  (``--burst`` switches to correlated Markov-modulated bursts);
* ``run``     — execute the WORMS policy once, streaming a
  crash-consistent journal to disk (kill it mid-run, then...);
* ``recover`` — ...scan that journal, repair its torn tail, and resume
  the interrupted run to byte-identical completion times (works on
  both batch ``run`` journals and ``serve`` journals);
* ``serve``   — online serving: seeded arrival processes over sharded
  B^ε-trees with epoch re-planning, admission control, and per-message
  p50/p95/p99 sojourn-time reporting, under per-shard health tracking,
  circuit breakers, and live restart-from-journal; ``--chaos`` drills
  that machinery with a seeded whole-shard kill/stall/corrupt scenario;
* ``compact`` — drop sealed journal records a later checkpoint
  supersedes (recovery stays exact; see :mod:`repro.dam.compaction`);
* ``kv``      — operate the durable on-disk KV engine directly
  (:mod:`repro.lsm.disk`): seeded ingest with an optional mid-stream
  SIGKILL, exact read-back verification, checksum scrub-and-repair,
  compaction, stats (``serve --engine lsm`` runs the same engine under
  the serving loop);
* ``stability`` — long-run stall benchmarking (:mod:`repro.stability`):
  a seeded MMPP scenario through the serving loop, per-window stall
  detection with attribution, and a byte-deterministic ``stability/v2``
  JSON document;
* ``trace``   — run any other subcommand under :mod:`repro.obs`
  observability and write a Perfetto-loadable trace, a deterministic
  metrics snapshot, and a span tree (see ``docs/OBSERVABILITY.md``).

Every subcommand takes ``--seed``; with the same arguments and seed a
run is byte-reproducible.

Examples::

    python -m repro compare --messages 2000 --P 4 --B 64 --skew 1.0
    python -m repro solve --messages 500 --height 3 --fanout 4
    python -m repro gadget 6 7 7 6 8 6
    python -m repro faults --seed 0 --rates 0.05,0.1,0.2 --burst
    python -m repro run --messages 5000 --journal /tmp/worms.journal
    python -m repro recover /tmp/worms.journal
    python -m repro serve --arrivals poisson --rate 8 --shards 4 --seed 1
    python -m repro serve --chaos --seed 3 --messages 400
    python -m repro compact /tmp/serve.journal
    python -m repro serve --engine lsm --data-dir /tmp/kv --messages 500
    python -m repro kv ingest --dir /tmp/kv2 --n 2000 --crash-after 1200
    python -m repro kv check-ingest --dir /tmp/kv2 --n 2000
    python -m repro kv scrub --dir /tmp/kv2
    python -m repro stability --scenario flash-crowd \\
        --fault-rate 0.05 --json /tmp/stability.json
    python -m repro trace --out /tmp/t serve --messages 200 --seed 1
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from dataclasses import replace as dataclass_replace

from repro.analysis.lower_bounds import worms_lower_bound
from repro.analysis.npc import (
    build_gadget,
    canonical_gadget_schedule,
    solve_three_partition,
)
from repro.analysis.report import completion_cdf_report, utilization_report
from repro.analysis.resilience import (
    format_resilience_report,
    resilience_sweep,
)
from repro.analysis.stats import compare_policies
from repro.core import solve_worms
from repro.dam import validate_valid
from repro.dam.compaction import compact_journal
from repro.dam.journal import JournalWriter, RecoveryManager
from repro.dam.trace import record_trace
from repro.obs import (
    current_obs,
    disable_obs,
    enable_obs,
    observed,
    span_tree,
    write_chrome_trace,
)
from repro.faults import ChaosConfig, ChaosPlan, make_injector
from repro.policies import (
    EagerPolicy,
    GreedyBatchPolicy,
    GatedExecutor,
    LazyThresholdPolicy,
    WormsPolicy,
)
from repro.policies.executor import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_RETRY_BUDGET,
)
from repro.serve import (
    SERVE_POLICY,
    MetricsEndpoint,
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
    SupervisorConfig,
    TenantSpec,
    format_serve_report,
    format_tenant_report,
    make_tenants,
    recover_serve,
)
from repro.stability import StabilityConfig
from repro.tree import balanced_tree, beps_shape_tree
from repro.util.errors import (
    ExecutionStalledError,
    InvalidInstanceError,
    JournalCorruptionError,
)
from repro.workloads import uniform_instance, zipf_instance


#: meta "policy" tag of a batch ``run`` journal.
RUN_POLICY = "worms"


@dataclass(frozen=True)
class InstanceConfig:
    """The WORMS instance ``(T, M, P, B)`` a batch subcommand runs on.

    Each field's ``help`` metadata documents it; ``compare``, ``solve``,
    ``faults`` and ``run`` derive one flag per field from them.
    """

    messages: int = field(default=1000, metadata={
        "help": "messages in the workload"})
    P: int = field(default=4, metadata={
        "help": "flushes per step (the DAM model's P)"})
    B: int = field(default=64, metadata={
        "help": "messages per flush (the DAM model's B)"})
    leaves: int = field(default=256, metadata={
        "help": "B^eps-shaped tree with this many leaves"})
    fanout: int = field(default=0, metadata={
        "help": "use a balanced tree with this fanout instead"})
    height: int = field(default=3, metadata={
        "help": "height of the balanced tree"})
    skew: float = field(default=0.0, metadata={
        "help": "Zipf theta (0 = uniform)"})
    seed: int = field(default=0, metadata={
        "help": "seed of the workload (and of the faults sweep)"})

    def build(self):
        """The instance: ``messages`` uniform or Zipf(``skew``) targets
        on a balanced tree (``fanout`` set) or a B^eps-shaped one."""
        if self.fanout:
            topo = balanced_tree(self.fanout, self.height)
        else:
            topo = beps_shape_tree(self.B, 0.5, self.leaves)
        if self.skew > 0:
            return zipf_instance(topo, self.messages, P=self.P, B=self.B,
                                 theta=self.skew, seed=self.seed)
        return uniform_instance(topo, self.messages, P=self.P, B=self.B,
                                seed=self.seed)


@dataclass(frozen=True)
class RunConfig(InstanceConfig):
    """Everything that determines a ``run``: its journal's ``meta``.

    Execution is deterministic in this config, which is what lets
    ``recover`` re-derive the reference schedule of an interrupted run
    by simply re-running it (journal-free).
    """

    rate: float = field(default=0.0, metadata={
        "help": "fault rate to execute under (0 = fault-free)"})
    burst: bool = field(default=False, metadata={
        "help": "correlated Markov-modulated bursts instead of iid faults"})
    fault_seed: int = field(default=0, metadata={
        "help": "seed of the fault injector"})
    fault_aware: bool = field(default=False, metadata={
        "help": "enable fault-aware admission in the executor"})
    retry_budget: int = field(default=DEFAULT_RETRY_BUDGET, metadata={
        "help": "flush attempts before the executor re-plans"})
    checkpoint_every: int = field(default=DEFAULT_CHECKPOINT_EVERY, metadata={
        "help": "steps between journaled state checkpoints"})

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise InvalidInstanceError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise InvalidInstanceError(
                f"rate must be in [0, 1], got {self.rate}"
            )

    def to_meta(self) -> dict:
        """The journal ``meta`` payload that reconstructs this config."""
        return {"policy": RUN_POLICY, **asdict(self)}

    @classmethod
    def from_meta(cls, meta: dict) -> "RunConfig":
        return cls(**{f.name: meta[f.name] for f in dataclass_fields(cls)})

    def execute(self, inst, journal=None):
        """Run the WORMS schedule of ``inst`` through the executor
        under this config's faults; returns the realized
        schedule."""
        ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
        executor = GatedExecutor(
            inst,
            make_injector(self.rate, burst=self.burst, seed=self.fault_seed,
                          topology=inst.topology),
            retry_budget=self.retry_budget,
            fault_aware=self.fault_aware,
            journal=journal,
            checkpoint_every=self.checkpoint_every,
        )
        return executor.run(ordered)


@dataclass(frozen=True)
class JournalOptions:
    """Where and how ``run`` and ``serve`` stream their journal."""

    journal: "str | None" = field(default=None, metadata={
        "type": str,
        "help": "stream a crash-recoverable journal to this path"})
    sync: bool = field(default=False, metadata={
        "help": "fsync the journal at every checkpoint (real durability)"})
    max_segment_bytes: "int | None" = field(default=None, metadata={
        "type": int,
        "help": "rotate the journal into segments of at most this many bytes"})
    compact_every: int = field(default=0, metadata={
        "help": "auto-compact sealed segments every N journal rotations "
                "(0 = never)"})

    def writer_kwargs(self) -> dict:
        """The :class:`JournalWriter` keywords besides path and meta."""
        return {"sync": self.sync, "max_segment_bytes": self.max_segment_bytes,
                "compact_every_rotations": self.compact_every}


@dataclass(frozen=True)
class KVConfig:
    """The store and workload settings of one ``kv`` invocation.

    Each field's ``help`` metadata documents it; ``kv`` derives one flag
    per field from them (its action, key and value are positionals).
    """

    dir: "str | None" = field(default=None, metadata={
        "type": str, "help": "the store's directory"})
    n: int = field(default=1000, metadata={
        "help": "ops in the seeded ingest stream"})
    seed: int = field(default=0, metadata={
        "help": "seed of the ingest stream"})
    key_space: int = field(default=256, metadata={
        "help": "key universe of the ingest stream"})
    crash_after: int = field(default=0, metadata={
        "help": "SIGKILL the ingest after this many acknowledged ops "
                "(0 = run to completion)"})
    sync: bool = field(default=False, metadata={
        "help": "fsync the WAL at every acknowledged op"})
    memtable_capacity: int = field(default=256, metadata={
        "help": "entries the memtable holds before it flushes"})
    size_ratio: int = field(default=4, metadata={
        "help": "capacity ratio T between adjacent levels"})
    budget: int = field(default=1, metadata={
        "help": "compaction tasks per `kv compact`"})
    scheduler: str = field(default="horn", metadata={
        "choices": ("horn", "leveling"),
        "help": "compaction scheduling policy"})
    pace: int = field(default=0, metadata={
        "help": "entry budget per density compaction task (0 = unpaced; "
                "capacity repair is exempt)"})
    drain: bool = field(default=False, metadata={
        "help": "compact until the scheduler is satisfied"})
    json: "str | None" = field(default=None, metadata={
        "type": str, "help": "also write the report/stats JSON here"})


def _instance(args: argparse.Namespace):
    """Print and return the instance the flags describe; None, after a
    one-line error, when they describe none."""
    try:
        inst = InstanceConfig(**_config_values(args, InstanceConfig)).build()
    except (InvalidInstanceError, ValueError) as exc:
        print(f"invalid {args.command} configuration: {exc}", file=sys.stderr)
        return None
    print(f"instance: {inst!r}")
    return inst


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the `compare` subcommand (policy comparison table)."""
    inst = _instance(args)
    if inst is None:
        return 2
    stats = compare_policies(
        inst,
        [
            EagerPolicy(),
            LazyThresholdPolicy(),
            GreedyBatchPolicy(),
            WormsPolicy(),
        ],
    )
    lb = worms_lower_bound(inst)
    print(f"{'policy':>16} {'mean':>9} {'p95':>8} {'max':>7} {'IOs':>7} {'vs LB':>7}")
    for name, s in stats.items():
        print(
            f"{name:>16} {s.mean:>9.1f} {s.p95:>8.0f} {s.max:>7d} "
            f"{s.n_steps:>7d} {s.total / max(lb, 1):>6.2f}x"
        )
    print(f"certified lower bound: {lb:.0f}")
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    """Run the `solve` subcommand (full pipeline + trace report)."""
    inst = _instance(args)
    if inst is None:
        return 2
    result = solve_worms(inst)
    print(f"packed sets: {len(result.packed.sets)}")
    print(f"reduced tasks: {result.reduced.n_tasks}")
    print(f"task-schedule cost (== overfilling cost): {result.task_cost:.0f}")
    print(
        "valid schedule cost: "
        f"{result.total_completion_time} "
        f"(mean {result.mean_completion_time:.1f}, "
        f"fallback={'yes' if result.conversion.used_fallback else 'no'})"
    )
    print(f"lower bound: {worms_lower_bound(inst):.0f}")
    trace = record_trace(inst, result.schedule)
    for line in trace.summary_lines():
        print(f"  {line}")
    print()
    print(utilization_report(trace))
    print()
    print(completion_cdf_report(result.result.completion_times))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run the `faults` subcommand (resilience-under-faults report)."""
    inst = _instance(args)
    if inst is None:
        return 2
    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        print(f"invalid --rates {args.rates!r}: expected comma-separated "
              "floats", file=sys.stderr)
        return 2
    if not rates or any(not (0.0 <= r <= 1.0) for r in rates):
        print("--rates values must be in [0, 1]", file=sys.stderr)
        return 2
    title = "resilience under correlated bursts" if args.burst \
        else "resilience under faults"
    cells = resilience_sweep(
        inst,
        fault_rates=rates,
        seed=args.seed,
        retry_budget=args.retry_budget,
        burst=args.burst,
        fault_aware=args.fault_aware,
    )
    print(format_resilience_report(cells, title=title))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run the `run` subcommand (journaled WORMS execution)."""
    try:
        config = RunConfig(**_config_values(args, RunConfig))
        inst = config.build()
        journal = JournalOptions(**_config_values(args, JournalOptions))
        writer = JournalWriter(journal.journal, meta=config.to_meta(),
                               **journal.writer_kwargs())
    except (InvalidInstanceError, ValueError) as exc:
        print(f"invalid run configuration: {exc}", file=sys.stderr)
        return 2
    print(f"instance: {inst!r}")
    try:
        sched = config.execute(inst, journal=writer)
    except ExecutionStalledError as exc:
        print(f"execution stalled (journal kept):\n{exc}", file=sys.stderr)
        return 1
    finally:
        writer.close()
    res = validate_valid(inst, sched)
    print(f"journal: {journal.journal}")
    print(
        f"completed: {sched.n_steps} steps, {sched.n_flushes} flushes, "
        f"total completion time {res.total_completion_time}"
    )
    return 0


def _flag_fields(cls):
    """The fields of config dataclass ``cls`` that are CLI flags: those
    with ``metadata["help"]``, with their flag names (``--`` plus the
    field name dashed, or ``metadata["flag"]``)."""
    for f in dataclass_fields(cls):
        if "help" in f.metadata:
            yield f, f.metadata.get("flag", "--" + f.name.replace("_", "-"))


def _add_config_flags(
    parser: argparse.ArgumentParser, cls, *, only=None, required=()
) -> None:
    """Add one flag per :func:`_flag_fields` field of ``cls`` (named in
    ``only``, when given; ``required`` names the required ones).

    The field states the flag's default and, unless ``metadata["type"]``
    does, its type; ``metadata["choices"]`` restricts its values.  A
    ``metadata["per_tenant"]`` field takes a comma-separated list, one
    value per tenant (unset by default).
    """
    for f, flag in _flag_fields(cls):
        meta = f.metadata
        if only is not None and f.name not in only:
            continue
        if meta.get("per_tenant"):
            parser.add_argument(flag, type=str, default=None,
                                help=meta["help"])
        elif isinstance(f.default, bool):
            parser.add_argument(flag, action="store_true", help=meta["help"])
        else:
            parser.add_argument(flag, type=meta.get("type", type(f.default)),
                                default=f.default, choices=meta.get("choices"),
                                required=f.name in required,
                                help=meta["help"])


def _config_values(args: argparse.Namespace, cls) -> dict:
    """The ``cls`` field values parsed from its :func:`_add_config_flags`
    flags (a ``per_tenant`` field's list is ``None`` when unset)."""
    values = {}
    for f, flag in _flag_fields(cls):
        value = getattr(args, flag[2:].replace("-", "_"))
        if f.metadata.get("per_tenant"):
            value = [type(f.default)(v) for v in value.split(",")] \
                if value else None
        values[f.name] = value
    return values


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    """The config ``serve``'s flags describe.  With ``--tenants N`` each
    tenant inherits the whole-run arrival flags unless a ``--tenant-*``
    list overrides them."""
    config = ServeConfig(**_config_values(args, ServeConfig))
    if not args.tenants:
        return config
    tenants = make_tenants(
        args.tenants, config.messages, run=config,
        **_config_values(args, TenantSpec),
    )
    return dataclass_replace(config, tenants=tenants)


def _chaos_from_args(
    args: argparse.Namespace, config: ServeConfig
) -> "ChaosPlan | None":
    """The seeded chaos drill ``--chaos`` asks for (None without it)."""
    if not args.chaos:
        return None
    drill = _config_values(args, ChaosConfig)
    drill["horizon"] = drill["horizon"] or max(
        4 * config.epoch, int(config.messages / max(config.rate, 1.0))
    )
    return ChaosPlan.draw(shards=config.shards, seed=config.seed, **drill)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the `serve` subcommand (online sharded serving loop)."""
    try:
        config = _serve_config(args)
        journal = JournalOptions(**_config_values(args, JournalOptions))
        kwargs = {
            "supervisor": SupervisorConfig(
                **_config_values(args, SupervisorConfig)
            ),
            "chaos": _chaos_from_args(args, config),
            "journal": journal.journal, **journal.writer_kwargs(),
        }
        if args.processes is None:
            loop = ServiceLoop(config, **kwargs)
        else:
            loop = ProcPoolLoop(config, processes=args.processes, **kwargs)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"invalid serve configuration: {exc}", file=sys.stderr)
        return 2
    endpoint = None
    owns_obs = False
    if args.metrics_port is not None:
        # The endpoint reads the process-wide obs registry; enable one
        # for the run unless `trace` already installed its own.
        if not current_obs().enabled:
            enable_obs()
            owns_obs = True
        endpoint = MetricsEndpoint(
            _metrics_provider(loop), port=args.metrics_port
        )
        print(f"metrics endpoint: {endpoint.url}")
    try:
        return _run_serve(args, config, loop)
    finally:
        if endpoint is not None:
            if args.metrics_linger > 0:
                time.sleep(args.metrics_linger)
            endpoint.close()
        if owns_obs:
            disable_obs()


def _metrics_provider(loop):
    """The ``/metrics`` payload: obs registry + live per-tenant rows."""

    def provider() -> dict:
        payload = current_obs().metrics.snapshot()
        tenancy = loop._tenancy
        if tenancy is not None:
            timelines = loop.metrics.timelines
            n_steps = len(timelines[0].queue_depth) if timelines else 0
            payload["tenants"] = tenancy.tenant_rows(loop.metrics, n_steps)
        return payload

    return provider


def _run_serve(args: argparse.Namespace, config: ServeConfig, loop) -> int:
    """Drive a constructed serving loop and print its report."""
    try:
        report = loop.run()
    except ExecutionStalledError as exc:
        print(f"serving loop stalled:\n{exc}", file=sys.stderr)
        return 1
    title = (
        f"serve {config.arrivals} rate={config.rate} "
        f"shards={config.shards} seed={config.seed}"
    )
    print(format_serve_report(report.snapshot, title=title))
    ps, ad = report.planner_stats, report.admission_stats
    print(
        f"planner: {ps.noop_epochs} noop, {ps.full_replans} full, "
        f"{ps.forced_replans} forced ({ps.planned_flushes} flushes planned)"
    )
    print(
        f"admission: {ad.admitted}/{ad.offered} admitted, {ad.shed} shed, "
        f"max queue depth {ad.max_queue_depth}, {ad.stall_holds} stall holds"
    )
    if "tenants" in report.snapshot:
        print("per-tenant:")
        print(format_tenant_report(report.snapshot))
    if config.engine == "lsm":
        if loop.store is not None:
            st = loop.store.stats()
            level_runs = \
                "/".join(str(lv["runs"]) for lv in st["levels"]) or "0"
            degraded = f", DEGRADED[{st['degraded']}]" if st["degraded"] \
                else ""
            print(
                f"store: {config.data_dir} — {st['seq']} op(s) "
                f"acknowledged, manifest v{st['manifest_version']}, "
                f"wal gen {st['wal_gen']}, runs per level {level_runs}"
                f"{degraded}"
            )
        else:
            # Procpool driver: the workers owned per-shard stores at
            # data_dir/shard-<k>; re-open read-only-ish for the summary.
            _print_sharded_store_summary(config)
    sup = report.supervisor
    if sup is not None:
        print(
            f"supervisor: {sup.trips} breaker trips, {sup.probes} probes, "
            f"{sup.restarts} restarts ({sup.replayed_flushes} flushes "
            f"replayed), {sup.quarantine_epochs} quarantine epochs, "
            f"{sup.spilled} spilled, {sup.spill_overflow_shed} overflow "
            f"shed, {sup.abandoned_shards} shards abandoned"
        )
        if sup.worker_deaths or sup.worker_respawns:
            # Deterministic counts only; real pids stay in worker_log.
            print(
                f"processes: {sup.worker_deaths} worker death(s), "
                f"{sup.worker_respawns} restarted on a fresh process, "
                f"watchdog {sup.watchdog_cancels} cancel / "
                f"{sup.watchdog_terminates} terminate / "
                f"{sup.watchdog_kills} kill"
            )
        if sup.diversions or sup.merge_backs:
            print(
                f"diversions: {sup.diversions} key-range diversion(s), "
                f"{sup.divert_handoff_msgs} message(s) handed off, "
                f"{sup.merge_backs} merged back"
            )
        if sup.disk_fault_windows:
            print(
                f"disk-faults: {sup.disk_fault_windows} window(s), "
                f"{sup.disk_faults_injected} fault(s) injected, "
                f"{sup.store_degraded_epochs} degraded epoch(s)"
            )
    chaos = report.chaos
    if chaos is not None and not chaos.is_zero:
        drawn = ", ".join(
            f"{e.kind}@{e.step}->shard{e.shard}"
            + (f" x{e.duration}" if e.duration else "")
            + (f" [{e.spec}]" if e.spec else "")
            for e in chaos.events
        )
        print(f"chaos plan ({len(chaos.events)} events): {drawn}")
    if args.journal:
        print(f"journal: {args.journal}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(report.metrics.to_json(
                report.n_steps, config=config.to_meta(),
            ))
        print(f"metrics JSON: {args.json}")
    return 0


def _print_sharded_store_summary(config: ServeConfig) -> None:
    """Summarize the procpool driver's per-shard stores.

    The worker processes are gone by report time, so the summary
    re-opens each ``data_dir/shard-<k>`` store (which is exactly the
    recovery path workers use) and prints one aggregate line.
    """
    from pathlib import Path

    from repro.lsm.disk import KVStore
    from repro.util.errors import StorageError

    shard_dirs = sorted(Path(config.data_dir).glob("shard-*"))
    if not shard_dirs:
        return
    ops = 0
    broken = []
    for shard_dir in shard_dirs:
        try:
            store = KVStore(shard_dir, sync=False)
        except (StorageError, OSError):
            broken.append(shard_dir.name)
            continue
        ops += store.stats()["seq"]
        store.close()
    line = (
        f"store: {config.data_dir} — {len(shard_dirs)} per-shard "
        f"store(s), {ops} op(s) acknowledged"
    )
    if broken:
        line += f", unreadable: {', '.join(broken)}"
    print(line)


def _recover_serve_journal(args: argparse.Namespace) -> int:
    """Serve-journal branch of ``recover``: re-derive, verify, report."""
    report = recover_serve(args.journal, repair=not args.no_repair)
    if report.torn_bytes:
        print(
            f"torn tail: {report.torn_bytes} byte(s) dropped "
            f"({report.torn_reason})"
        )
    if report.run_completed:
        print("journal records a completed run; nothing to resume")
    print(
        f"recovered serving run: {report.replayed_flushes} journaled "
        f"flush(es) verified against the re-derived run, last durable "
        f"step {report.resumed_from_step}"
    )
    snap = report.report.snapshot
    s = snap["sojourn"]
    print(
        f"re-derived run: {snap['n_steps']} steps, "
        f"{snap['completed']} completed, {snap['shed']} shed, sojourn "
        f"p50 {s['p50']:.0f} p99 {s['p99']:.0f} "
        "(identical to an uninterrupted run)"
    )
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    """Run the `recover` subcommand (scan, repair, resume a journal)."""
    manager = RecoveryManager(args.journal)
    try:
        meta = manager.meta
        if meta is None:
            print(
                f"{args.journal}: no meta record survived; the run "
                "configuration cannot be reconstructed",
                file=sys.stderr,
            )
            return 1
        if args.seed is not None and meta.get("seed") not in (None, args.seed):
            print(
                f"--seed {args.seed} does not match the journal's own "
                f"seed {meta['seed']}; recovery always replays the "
                "journal's configuration",
                file=sys.stderr,
            )
            return 2
        if meta.get("policy") == SERVE_POLICY:
            return _recover_serve_journal(args)
        if meta.get("policy") != RUN_POLICY:
            print(
                f"journal meta has unsupported policy "
                f"{meta.get('policy')!r}; cannot re-derive the reference "
                "schedule",
                file=sys.stderr,
            )
            return 2
        config = RunConfig.from_meta(meta)
        inst = config.build()
        print(f"instance (rebuilt from journal meta): {inst!r}")
        # Deterministic replay of the interrupted run's config gives the
        # schedule the journal must be a prefix of.
        reference = config.execute(inst)
        report = manager.recover(inst, reference, repair=not args.no_repair)
    except JournalCorruptionError as exc:
        print(f"journal corrupt: {exc}", file=sys.stderr)
        return 1
    except (KeyError, TypeError, ValueError, InvalidInstanceError) as exc:
        print(f"journal meta unusable: {exc!r}", file=sys.stderr)
        return 2
    if report.torn_bytes:
        print(
            f"torn tail: {report.torn_bytes} byte(s) dropped "
            f"({report.torn_reason})"
        )
    if report.run_completed:
        print("journal records a completed run; nothing to resume")
    print(
        f"recovered: checkpoint at step {report.checkpoint_step}, "
        f"{report.replayed_flushes} journaled flush(es) replayed, "
        f"resumed from step {report.resumed_from_step}"
    )
    print(
        f"resumed run: {report.result.max_completion_time} steps, total "
        f"completion time {report.result.total_completion_time} "
        "(validated identical to the uninterrupted run)"
    )
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Run the `compact` subcommand (drop superseded sealed records)."""
    try:
        report = compact_journal(args.journal)
    except FileNotFoundError:
        print(f"{args.journal}: no such journal", file=sys.stderr)
        return 1
    except JournalCorruptionError as exc:
        print(f"journal corrupt: {exc}", file=sys.stderr)
        return 1
    if report.segments_total < 2:
        print(
            f"{args.journal}: single-segment journal; nothing sealed, "
            "nothing to compact"
        )
        return 0
    if report.checkpoint_step < 0:
        print(
            f"{args.journal}: no checkpoint in the "
            f"{report.segments_total - 1} sealed segment(s); nothing is "
            "superseded"
        )
        return 0
    by_type = ", ".join(
        f"{n} {kind}" for kind, n in sorted(report.dropped.items())
    ) or "none"
    print(
        f"compacted {report.segments_compacted} of "
        f"{report.segments_total - 1} sealed segment(s) "
        f"(supersession bar: checkpoint at step {report.checkpoint_step})"
    )
    print(f"dropped records: {by_type}")
    print(
        f"reclaimed {report.bytes_reclaimed} byte(s) "
        f"({report.bytes_before} -> {report.bytes_after})"
    )
    return 0


def _kv_op_stream(seed: int, n: int, key_space: int):
    """The deterministic op stream ``kv ingest`` writes and ``kv
    check-ingest`` re-derives: op ``i`` (1-based seq) is a put or a
    delete over a bounded key universe, all draws from ``seed``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    for i in range(1, n + 1):
        key = f"k{int(rng.integers(0, key_space)):06d}"
        if rng.random() < 0.2:
            yield i, "del", key, None
        else:
            yield i, "put", key, {"seq": i, "payload": i * 7919 % 100003}


def cmd_kv(args: argparse.Namespace) -> int:
    """Run the `kv` subcommand (durable on-disk KV engine)."""
    import json as _json
    import os as _os
    import signal as _signal

    from repro.lsm.disk import KVStore, build_policy, run_scrub
    from repro.util.errors import StorageError

    config = KVConfig(**_config_values(args, KVConfig))
    try:
        policy = build_policy(config.scheduler, pace=config.pace)
    except ValueError as exc:
        print(f"invalid kv configuration: {exc}", file=sys.stderr)
        return 2

    def open_store():
        return KVStore(config.dir, sync=config.sync,
                       memtable_capacity=config.memtable_capacity,
                       size_ratio=config.size_ratio, policy=policy)

    try:
        if args.action == "ingest":
            store = open_store()
            for i, op, key, value in _kv_op_stream(
                config.seed, config.n, config.key_space
            ):
                if op == "put":
                    store.put(key, value)
                else:
                    store.delete(key)
                if config.crash_after and i >= config.crash_after:
                    # The acknowledged prefix is on disk; prove it by
                    # dying the hard way (no atexit, no flush).
                    _os.kill(_os.getpid(), _signal.SIGKILL)
            store.close()
            print(f"ingested {config.n} op(s) into {config.dir}")
            return 0
        if args.action == "check-ingest":
            store = open_store()
            frontier = store.stats()["seq"]
            expected: "dict[str, object]" = {}
            for i, op, key, value in _kv_op_stream(
                config.seed, config.n, config.key_space
            ):
                if i > frontier:
                    break
                if op == "put":
                    expected[key] = value
                else:
                    expected.pop(key, None)
            got = dict(store.items())
            store.close()
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                wrong = sorted(
                    k for k in set(got) & set(expected)
                    if got[k] != expected[k]
                )
                print(
                    f"ACKNOWLEDGED STATE LOST: frontier seq {frontier}, "
                    f"{len(missing)} missing, {len(extra)} extra, "
                    f"{len(wrong)} wrong value(s)",
                    file=sys.stderr,
                )
                return 1
            print(
                f"exact: all {frontier} acknowledged op(s) recovered "
                f"({len(expected)} live key(s))"
            )
            return 0
        if args.action == "get":
            store = open_store()
            sentinel = object()
            value = store.get(args.key, sentinel)
            store.close()
            if value is sentinel:
                print(f"{args.key}: not found", file=sys.stderr)
                return 1
            print(_json.dumps(value, sort_keys=True))
            return 0
        if args.action == "put":
            store = open_store()
            seq = store.put(args.key, _json.loads(args.value))
            store.close()
            print(f"seq {seq}")
            return 0
        if args.action == "del":
            store = open_store()
            seq = store.delete(args.key)
            store.close()
            print(f"seq {seq}")
            return 0
        if args.action in ("verify", "scrub"):
            store = open_store()
            store.check_invariants()
            report = run_scrub(store, repair=args.action == "scrub")
            store.close()
            payload = report.to_payload()
            if config.json:
                with open(config.json, "w", encoding="utf-8") as f:
                    _json.dump(payload, f, indent=2, sort_keys=True)
            if report.clean:
                print(
                    f"clean: {report.files_checked} file(s), "
                    f"{report.blocks_checked} block(s), "
                    f"{report.wal_generations_checked} WAL generation(s) "
                    "verified"
                )
                return 0
            for f in report.findings:
                print(
                    f"finding: {f.path} block {f.block} offset "
                    f"{f.offset} ({f.reason})"
                )
            if args.action == "scrub":
                print(
                    f"repaired: {len(report.quarantined)} file(s) "
                    f"quarantined, {report.salvaged_entries} entry(ies) "
                    f"salvaged; lost ranges: "
                    + (", ".join(
                        f"[{r.first_key}..{r.last_key}] "
                        f"({r.classification}, {r.entries_lost} entries)"
                        for r in report.lost
                    ) or "none")
                )
            return 1
        if args.action == "compact":
            store = open_store()
            tasks = (
                store.drain_backlog()
                if config.drain else len(store.maintain(config.budget))
            )
            store.check_invariants()
            stats = store.stats()
            store.close()
            runs = "/".join(str(lv["runs"]) for lv in stats["levels"])
            print(f"{tasks} compaction task(s) run; runs per level {runs}")
            return 0
        if args.action == "stats":
            store = open_store()
            stats = store.stats()
            store.close()
            if config.json:
                with open(config.json, "w", encoding="utf-8") as f:
                    _json.dump(stats, f, indent=2, sort_keys=True)
            print(_json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"unknown kv action {args.action!r}", file=sys.stderr)
        return 2
    except StorageError as exc:
        reason = getattr(exc, "reason", "")
        tag = f" [{reason}]" if reason else ""
        print(f"storage error{tag}: {exc}", file=sys.stderr)
        return 1


def cmd_stability(args: argparse.Namespace) -> int:
    """Run the `stability` subcommand (long-run stall bench harness)."""
    import json as _json

    from repro.stability import format_stability_report, run_stability

    try:
        config = StabilityConfig(**_config_values(args, StabilityConfig))
    except InvalidInstanceError as exc:
        print(f"invalid stability configuration: {exc}", file=sys.stderr)
        return 2
    try:
        doc = run_stability(config)
    except ExecutionStalledError as exc:
        print(f"stability run stalled:\n{exc}", file=sys.stderr)
        return 1
    print(format_stability_report(doc))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"stability JSON: {args.json}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run the `trace` subcommand (any other subcommand, observed)."""
    if args.subcommand == "trace":
        print("trace cannot wrap itself", file=sys.stderr)
        return 2
    inner_argv = [args.subcommand] + list(args.rest)
    try:
        inner = build_parser().parse_args(inner_argv)
    except SystemExit:
        return 2
    out = args.out
    with observed() as ctx:
        code = inner.func(inner)
    trace_path = f"{out}.trace.json"
    metrics_path = f"{out}.metrics.json"
    spans_path = f"{out}.spans.txt"
    write_chrome_trace(trace_path, ctx.tracer, ctx.metrics)
    with open(metrics_path, "w", encoding="utf-8") as f:
        f.write(ctx.metrics.to_json(command=inner_argv))
        f.write("\n")
    with open(spans_path, "w", encoding="utf-8") as f:
        f.write(span_tree(ctx.tracer))
        f.write("\n")
    print()
    print(ctx.profiler.report(title=f"phase profile: {' '.join(inner_argv)}"))
    print(f"trace:   {trace_path} ({ctx.tracer.n_spans} spans; open in "
          "https://ui.perfetto.dev or chrome://tracing)")
    print(f"metrics: {metrics_path}")
    print(f"spans:   {spans_path}")
    return code


def cmd_gadget(args: argparse.Namespace) -> int:
    """Run the `gadget` subcommand (Lemma 15 decision + schedule)."""
    try:
        gadget = build_gadget(args.integers)
    except Exception as exc:  # surfaced as a clean CLI error
        print(f"invalid 3-partition input: {exc}", file=sys.stderr)
        return 2
    print(
        f"gadget: n'={gadget.n_groups}, K={gadget.K}, X={gadget.X}, "
        f"B={gadget.B}, |M|={gadget.instance.n_messages}, C1={gadget.C1}"
    )
    partition = solve_three_partition(args.integers)
    if partition is None:
        print("NO: no 3-partition exists; no 4n'-flush schedule meets C1")
        return 1
    print(f"YES: partition {partition}")
    sched = canonical_gadget_schedule(gadget, partition)
    res = validate_valid(gadget.instance, sched)
    print(
        f"canonical schedule: makespan {res.max_completion_time} "
        f"(= 4n' = {4 * gadget.n_groups}), "
        f"cost {res.total_completion_time} <= C1 = {gadget.C1}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for `python -m repro`."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Root-to-leaf scheduling in write-optimized trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compare = sub.add_parser("compare", help="compare flushing policies")
    _add_config_flags(p_compare, InstanceConfig)
    p_compare.set_defaults(func=cmd_compare)

    p_solve = sub.add_parser("solve", help="run the full paper pipeline")
    _add_config_flags(p_solve, InstanceConfig)
    p_solve.set_defaults(func=cmd_solve)

    p_faults = sub.add_parser(
        "faults", help="fault-injection resilience report"
    )
    _add_config_flags(p_faults, InstanceConfig)
    p_faults.add_argument(
        "--rates", type=str, default="0.05,0.1,0.2",
        help="comma-separated fault rates to sweep",
    )
    _add_config_flags(p_faults, RunConfig,
                      only=("retry_budget", "burst", "fault_aware"))
    p_faults.set_defaults(func=cmd_faults)

    p_run = sub.add_parser(
        "run", help="journaled WORMS execution (crash-recoverable)"
    )
    _add_config_flags(p_run, RunConfig)
    _add_config_flags(p_run, JournalOptions, required=("journal",))
    p_run.set_defaults(func=cmd_run)

    p_recover = sub.add_parser(
        "recover", help="scan, repair, and resume an execution journal"
    )
    p_recover.add_argument("journal", type=str)
    p_recover.add_argument(
        "--no-repair", action="store_true",
        help="scan and resume without truncating the torn tail in place",
    )
    p_recover.add_argument(
        "--seed", type=int, default=None,
        help="sanity check: error out if the journal was written with a "
        "different seed (recovery itself always uses the journal's meta)",
    )
    p_recover.set_defaults(func=cmd_recover)

    p_gadget = sub.add_parser("gadget", help="Lemma 15 NP-hardness gadget")
    p_gadget.add_argument("integers", type=int, nargs="+")
    p_gadget.add_argument(
        "--seed", type=int, default=0,
        help="accepted for interface uniformity (the gadget construction "
        "is fully deterministic)",
    )
    p_gadget.set_defaults(func=cmd_gadget)

    p_serve = sub.add_parser(
        "serve", help="online serving loop over sharded B^eps-trees"
    )
    _add_config_flags(p_serve, ServeConfig)
    _add_config_flags(p_serve, JournalOptions)
    p_serve.add_argument("--processes", type=int, default=None,
                         help="shard-per-process driver: run shards in this "
                         "many shared-nothing worker processes (0 = one per "
                         "shard; fault-free journals stay byte-identical to "
                         "the in-process loop's)")
    p_serve.add_argument("--chaos", action="store_true",
                         help="draw a seeded whole-shard chaos drill "
                         "(composition is a pure function of --seed)")
    _add_config_flags(p_serve, ChaosConfig)
    _add_config_flags(p_serve, SupervisorConfig)
    p_serve.add_argument("--tenants", type=int, default=0,
                         help="run N tenants (t0..tN-1) through weighted-"
                         "fair admission; each gets its own seeded arrival "
                         "process (the whole-run arrival flags, unless a "
                         "--tenant-* list overrides them) and key sampler "
                         "(0 = tenancy off, byte-identical to a pre-tenancy "
                         "run)")
    _add_config_flags(p_serve, TenantSpec)
    p_serve.add_argument("--metrics-port", type=int, default=None,
                         help="serve the obs registry + per-tenant SLO "
                         "state as JSON on http://127.0.0.1:PORT/metrics "
                         "for the duration of the run (0 = ephemeral "
                         "port; default: off)")
    p_serve.add_argument("--metrics-linger", type=float, default=0.0,
                         help="keep the /metrics endpoint up this many "
                         "seconds after the run finishes (CI scraping)")
    p_serve.add_argument("--json", type=str, default=None,
                         help="also write the metrics snapshot to this file")
    p_serve.set_defaults(func=cmd_serve)

    p_compact = sub.add_parser(
        "compact", help="drop sealed journal records a checkpoint supersedes"
    )
    p_compact.add_argument("journal", type=str)
    p_compact.set_defaults(func=cmd_compact)

    p_stab = sub.add_parser(
        "stability",
        help="long-run stall bench: seeded MMPP scenario -> stall-window "
             "detector -> schema-versioned JSON",
    )
    _add_config_flags(p_stab, StabilityConfig)
    p_stab.add_argument("--json", type=str, default=None,
                        help="write the stability/v2 document here")
    p_stab.set_defaults(func=cmd_stability)

    p_kv = sub.add_parser(
        "kv", help="durable on-disk KV engine (WAL + SSTables + manifest)",
        description="Operate one repro.lsm.disk store directly: seeded "
        "ingest (optionally SIGKILLing itself mid-stream), exact "
        "read-back verification of the acknowledged prefix, point "
        "get/put/del, checksum verify/scrub, compaction, and stats.",
    )
    p_kv.add_argument(
        "action",
        choices=("ingest", "check-ingest", "get", "put", "del",
                 "verify", "scrub", "compact", "stats"),
    )
    p_kv.add_argument("key", nargs="?", default=None,
                      help="key for get/put/del")
    p_kv.add_argument("value", nargs="?", default=None,
                      help="JSON value for put")
    _add_config_flags(p_kv, KVConfig, required=("dir",))
    p_kv.set_defaults(func=cmd_kv)

    p_trace = sub.add_parser(
        "trace", help="run any subcommand under observability",
        description="Run another subcommand with tracing/metrics/profiling "
        "enabled and write <out>.trace.json (Perfetto), <out>.metrics.json "
        "(deterministic snapshot), and <out>.spans.txt.  Options for trace "
        "itself (--out) go before the wrapped subcommand; everything after "
        "it is passed through.",
    )
    p_trace.add_argument(
        "--out", type=str, default="repro-trace",
        help="artifact path prefix (default: repro-trace)",
    )
    p_trace.add_argument("subcommand", type=str,
                         help="the subcommand to run under observability")
    p_trace.add_argument("rest", nargs=argparse.REMAINDER,
                         help="arguments for the wrapped subcommand")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
