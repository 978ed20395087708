"""E12/E13: resilience under fault injection — inflation and path costs.

Four questions:

* how much completion time does each policy lose as the fault rate
  rises (mean and p99 inflation vs its own fault-free run) — under iid
  faults and under correlated Markov-modulated bursts;
* does the resilience machinery cost anything when nothing fails (it
  must not: with a zero-rate injector the schedule is byte-identical to
  the no-injector, no-re-plan run);
* what does crash-consistent journaling cost (it must be pay-as-you-go:
  zero when off, IO-bound when on, and never change the schedule) —
  for a batch run, for a durable serving run, and per live restart;
* did the executor scan optimizations actually buy the promised
  headroom at multi-million-message scale (before/after timings).
"""

from __future__ import annotations

import time

import repro.dam.journal as journal_mod
from benchmarks.common import emit_table
from repro.analysis.resilience import resilience_sweep
from repro.dam.journal import JournalWriter, journal_segments
from repro.dam.simulator import simulate
from repro.faults import (
    CHAOS_KILL,
    ChaosEvent,
    ChaosPlan,
    FaultInjector,
    FaultPlan,
)
from repro.policies import GatedExecutor, WormsPolicy, execute_flush_list
from repro.serve import ServeConfig, ServiceLoop
from repro.tree import balanced_tree, beps_shape_tree
from repro.workloads import uniform_instance

RATES = (0.05, 0.1, 0.2)

RESILIENCE_HEADERS = ["policy", "rate", "mean", "p99", "IOs", "mean-x",
                      "p99-x", "retries", "replans", "stalled"]


def make_instance(n_messages: int = 800, seed: int = 0):
    B, P = 32, 4
    topo = beps_shape_tree(B=B, eps=0.5, n_leaves=128)
    return uniform_instance(topo, n_messages, P=P, B=B, seed=seed)


def test_e12_fault_inflation(benchmark):
    inst = make_instance()
    cells = resilience_sweep(inst, fault_rates=RATES, seed=0)
    rows = [c.row() for c in cells]
    emit_table(
        "E12_fault_inflation",
        RESILIENCE_HEADERS,
        rows,
        note="closed-loop resilient execution; inflation vs the policy's "
        "own fault-free run.  All realized schedules validate.",
    )
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    injector = FaultInjector(FaultPlan.uniform(0.1), seed=0)
    benchmark(
        lambda: GatedExecutor(inst, injector).run(list(ordered))
    )


def test_e12_open_vs_closed_loop(benchmark):
    """Open-loop replay under faults loses messages; closed-loop does not."""
    inst = make_instance(400)
    sched = WormsPolicy().schedule(inst)
    ordered = [f for _t, f in sched.iter_timed()]
    rows = []
    for rate in RATES:
        injector = FaultInjector(FaultPlan.uniform(rate), seed=1)
        open_loop = simulate(inst, sched, faults=injector)
        lost = int((open_loop.completion_times == 0).sum())
        closed = GatedExecutor(
            inst, FaultInjector(FaultPlan.uniform(rate), seed=1)
        ).run(list(ordered))
        closed_sim = simulate(inst, closed)
        rows.append([
            rate,
            lost,
            int((closed_sim.completion_times == 0).sum()),
            len(open_loop.fault_events),
            closed.n_steps,
        ])
    emit_table(
        "E12_open_vs_closed_loop",
        ["rate", "open-loop lost", "closed-loop lost", "events", "IOs"],
        rows,
        note="open-loop = fixed schedule replayed under faults (messages "
        "strand mid-tree); closed-loop = the executor under faults (always "
        "completes).",
    )
    injector = FaultInjector(FaultPlan.uniform(0.1), seed=1)
    benchmark(lambda: simulate(inst, sched, faults=injector))


def test_e12_zero_fault_overhead(benchmark):
    """The fault path must cost nothing when no faults are configured."""
    inst = make_instance()
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    plain = execute_flush_list(inst, list(ordered))
    zero = GatedExecutor(
        inst, FaultInjector(FaultPlan.none(), seed=0)
    ).run(list(ordered))
    assert plain.steps == zero.steps, "zero-fault path diverged"
    emit_table(
        "E12_zero_fault_overhead",
        ["executor", "IOs", "flushes"],
        [["no injector, no re-plans", plain.n_steps, plain.n_flushes],
         ["zero-rate injector", zero.n_steps, zero.n_flushes]],
        note="byte-identical schedules: a zero plan makes no fault query, "
        "so resilience is free until a fault fires.",
    )
    benchmark(lambda: GatedExecutor(inst).run(list(ordered)))


def test_e13_burst_inflation(benchmark):
    """Correlated bursts: stalls, tears and failures on one subtree.

    Uses a dense tree (every node on a root-leaf path carries traffic)
    so a burst's subtree actually intersects in-flight flushes; on the
    sparse B^eps tree most bursts land on idle subtrees and the table
    degenerates to all-1.0 inflation.
    """
    inst = uniform_instance(balanced_tree(3, 3), 800, P=2, B=12, seed=0)
    cells = resilience_sweep(
        inst, [WormsPolicy()], fault_rates=(0.2, 0.4, 0.8), seed=0,
        burst=True,
    )
    rows = [c.row() + [c.stats.stalled_skips, c.stats.wait_steps]
            for c in cells]
    emit_table(
        "E13_burst_inflation",
        RESILIENCE_HEADERS + ["stall skips", "waits"],
        rows,
        note="Markov-modulated stall -> partial -> failed bursts on a "
        "random subtree (BurstPlan.from_rate), recovered reactively "
        "(backoff, retry, re-plan).  Completion times inflate by at most "
        "2% at every rate.  Stall skips (flushes held because their "
        "source or destination was stalled) swing from 11 to 1414 with "
        "where the bursts land, not in step with the rate.",
    )
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    from repro.faults import BurstInjector, BurstPlan

    benchmark(
        lambda: GatedExecutor(
            inst,
            BurstInjector(FaultPlan.none(), BurstPlan.from_rate(0.2),
                          inst.topology, seed=0),
        ).run(list(ordered))
    )


#: e2ebench's ``serve_bursty_durable`` at 80k messages, seed 1: MMPP
#: calm 4 / burst 32 msgs/step, Zipf 0.99 keys, the ``lsm`` sink, the
#: journal fsynced at every checkpoint.
def bursty_durable_config(directory) -> ServeConfig:
    return ServeConfig(
        arrivals="mmpp", rate=4.0, burst_rate=32.0, messages=80_000,
        shards=4, P=4, B=16, theta=0.99, max_queue=64 * 16, seed=1,
        engine="lsm", data_dir=str(directory / "kv"),
    )


#: e2ebench's ``serve_steady`` config at 80k messages, seed 1, with one
#: chaos kill per shard.
STEADY_KILLED = ServeConfig(arrivals="poisson", rate=8.0, messages=80_000,
                            shards=4, P=4, B=16, theta=0.0, seed=1)
KILLS = ChaosPlan(tuple(
    ChaosEvent(step, CHAOS_KILL, shard)
    for shard, step in enumerate((2000, 4000, 6000, 8000))
))

#: The same two runs measured at commit f9aa580, the last tree that
#: wrote ``WOJ2`` journals (one record per realized flush and fault),
#: with these functions on a 2-vCPU shared VM (Python 3.11), the mean of
#: two runs alternated with two of the ``WOJ3`` tree: (records, bytes,
#: append ms, flush ms), and per kill (records read, ms).
_WOJ2_SERVE = (96486, 3756214, 237.0, 198.2)
_WOJ2_RESTARTS = ((28272, 169.3), (56888, 328.4), (85011, 509.6),
                  (113577, 738.7))


class _TimedWriter(JournalWriter):
    """A journal writer that counts its appends and times its appends
    and flushes."""

    def __init__(self, *args, **kwargs) -> None:
        self.appends = self.flushes = 0
        self.append_s = self.flush_s = 0.0
        super().__init__(*args, **kwargs)

    def append(self, record, kind: str = "") -> None:
        t0 = time.perf_counter()
        super().append(record, kind)
        self.append_s += time.perf_counter() - t0
        self.appends += 1

    def flush(self) -> None:
        t0 = time.perf_counter()
        super().flush()
        self.flush_s += time.perf_counter() - t0
        self.flushes += 1


def serve_journal_cost(directory) -> dict:
    """What the fsynced journal of one bursty durable run costs."""
    directory.mkdir(parents=True)
    config = bursty_durable_config(directory)
    path = directory / "serve.journal"
    writer = _TimedWriter(path, meta=config.to_meta(), sync=True)
    report = ServiceLoop(config, journal=writer).run()
    writer.close()
    size = sum(p.stat().st_size for p in journal_segments(path))
    return {
        "records": writer.appends, "bytes": size,
        "per_completion": size / len(report.completions),
        "append_ms": writer.append_s * 1e3,
        "flush_ms": writer.flush_s * 1e3,
    }


def restart_costs(directory) -> "list[tuple[int, int, int, float]]":
    """``(step, shard, journal records read, ms)`` of each live
    restart's journal check (``ServiceLoop._restart_records``) in a
    journaled run with four chaos kills."""
    directory.mkdir(parents=True)
    loop = ServiceLoop(STEADY_KILLED, chaos=KILLS,
                       journal=directory / "kills.journal")
    decoded = [0]
    decode, check = journal_mod.decode, ServiceLoop._restart_records
    costs = []

    def counting(payload):
        decoded[0] += 1
        return decode(payload)

    def timed(self, sid, t):
        decoded[0] = 0
        t0 = time.perf_counter()
        log = check(self, sid, t)
        costs.append((t, sid, decoded[0], (time.perf_counter() - t0) * 1e3))
        return log

    journal_mod.decode, ServiceLoop._restart_records = counting, timed
    try:
        report = loop.run()
    finally:
        journal_mod.decode, ServiceLoop._restart_records = decode, check
    assert report.supervisor.restarts == len(KILLS.events)
    return costs


def test_e13_journal_overhead(benchmark, tmp_path):
    """Journaling must not change the schedule; cost is write-bound."""
    inst = make_instance()
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    bare = GatedExecutor(inst).run(list(ordered))
    rows = [["off", "-", bare.n_steps, bare.n_flushes, 0]]
    for every in (64, 8, 1):
        path = tmp_path / f"cp{every}.journal"
        journaled = GatedExecutor(
            inst, journal=path, checkpoint_every=every
        ).run(list(ordered))
        assert journaled.steps == bare.steps, "journaling changed decisions"
        rows.append(
            ["on", every, journaled.n_steps, journaled.n_flushes,
             path.stat().st_size]
        )
    emit_table(
        "E13_journal_overhead",
        ["journal", "checkpoint-every", "IOs", "flushes", "bytes"],
        rows,
        note="identical realized schedules in every row.  A batch "
        "journal is its checkpoints (each a full snapshot of the "
        "messages' locations and completion steps, plus the realized "
        "schedule's flush count and digest), so its bytes grow with the "
        "number of checkpoints, and recovery re-executes at most "
        "checkpoint-every - 1 steps.",
    )

    serve = serve_journal_cost(tmp_path / "serve")
    records, size, append_ms, flush_ms = _WOJ2_SERVE
    emit_table(
        "E13_journal_serve",
        ["format", "records", "bytes", "B/completion", "append ms",
         "flush ms"],
        [["WOJ2 (parent)", records, size, round(size / 80_000, 1),
          append_ms, flush_ms],
         ["WOJ3", serve["records"], serve["bytes"],
          round(serve["per_completion"], 2), round(serve["append_ms"], 1),
          round(serve["flush_ms"], 1)]],
        note="serve_bursty_durable's config (MMPP 4/32, Zipf 0.99, lsm "
        "sink, journal fsynced at every checkpoint), 80k messages, seed "
        "1, one run each; append and flush ms are wall time inside "
        "JournalWriter.append and .flush (the fsyncs are in flush, one "
        "per checkpoint in both formats).  WOJ3 journals checkpoints "
        "only; WOJ2 also wrote a record per realized flush and fault.",
    )

    costs = restart_costs(tmp_path / "kills")
    assert len({read for _t, _sid, read, _ms in costs}) == 1, \
        "each restart reads the same number of journal records"
    emit_table(
        "E13_journal_restarts",
        ["kill", "step", "shard", "WOJ2 records read", "WOJ2 ms",
         "records read", "ms"],
        [[k + 1, t, sid, *parent, read, round(ms, 1)]
         for k, ((t, sid, read, ms), parent)
         in enumerate(zip(costs, _WOJ2_RESTARTS))],
        note="serve_steady's config (Poisson 8 msgs/step, 4 shards), "
        "80k messages, seed 1, one chaos kill per shard; per live "
        "restart, the journal records decoded and the wall ms of its "
        "journal check (seal a checkpoint, then: WOJ3 reads that one "
        "record back and compares the shard's digest; WOJ2 scanned and "
        "folded the whole chain).  The ms left in WOJ3 is the digest of "
        "the shard's realized log, which grows with the run.",
    )
    path = tmp_path / "bench.journal"
    benchmark(
        lambda: GatedExecutor(inst, journal=path).run(list(ordered))
    )


#: Pre-optimization timings, measured at commit e2ed945 (the PR 1 tree)
#: with the same script as the "after" column: balanced_tree(4, 4),
#: P=4, B=64, seed=3, FaultPlan.uniform(0.05), seed=9, retry_budget=6.
#: The bottleneck was FaultInjector._rng building a fresh numpy
#: Generator per query (~25 us x ~200k queries at n=20k).
_SCAN_BASELINES = {20000: (0.17, 6.31), 100000: (3.31, 138.70)}


def test_e13_scan_optimization(benchmark):
    """Before/after wall-clock of the executor scan + injector memo."""
    rows = []
    for n, (clean_before, faulty_before) in _SCAN_BASELINES.items():
        topo = balanced_tree(4, 4)
        inst = uniform_instance(topo, n, P=4, B=64, seed=3)
        ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
        t0 = time.perf_counter()
        GatedExecutor(inst).run(list(ordered))
        clean_after = time.perf_counter() - t0
        injector = FaultInjector(FaultPlan.uniform(0.05), seed=9)
        t0 = time.perf_counter()
        GatedExecutor(
            inst, injector, retry_budget=6, max_replans=4
        ).run(list(ordered))
        faulty_after = time.perf_counter() - t0
        rows.append([
            n, clean_before, round(clean_after, 2), faulty_before,
            round(faulty_after, 2),
            f"{faulty_before / max(faulty_after, 1e-9):.1f}x",
        ])
    emit_table(
        "E13_scan_optimization",
        ["messages", "clean-before (s)", "clean-after (s)",
         "faulty-before (s)", "faulty-after (s)", "faulty speedup"],
        rows,
        note="before = commit e2ed945; after = memoized fault draws + "
        "O(1) first-message reject + static parking + lazy pending "
        "compaction.  Realized schedules are byte-identical to before.",
    )
    topo = balanced_tree(4, 4)
    inst = uniform_instance(topo, 20000, P=4, B=64, seed=3)
    ordered = [f for _t, f in WormsPolicy().schedule(inst).iter_timed()]
    benchmark(lambda: GatedExecutor(inst).run(list(ordered)))
