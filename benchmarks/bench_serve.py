"""E14: the serving layer — sojourn latency under load, overload, faults.

The offline experiments measure completion *steps* of a fixed batch; a
service instead cares about sojourn time (completion - arrival + 1) as
the offered load approaches and passes the machine's capacity.  Three
tables: the latency/load curve for an open Poisson stream, shard
scaling at fixed per-shard load, and bounded-queue overload behaviour
(shed fraction + surviving tail latency), plus two multi-tenant
fairness tables for the QoS subsystem (run totals, and the share DRR
admission controls), the quarantine panel behind ``--divert``, and what
each serving driver costs in IPC and wall time.  Machine-readable
summaries land in ``results/serve_metrics.json`` (steady-state
snapshots, the legacy CI artifact) and ``results/BENCH_serve.json``
(every table's raw rows, including per-tenant fairness).
"""

from __future__ import annotations

import json
import os
import time
from multiprocessing.reduction import ForkingPickler
from statistics import median, quantiles

from benchmarks.common import RESULTS_DIR, emit_table
from repro.faults import ChaosPlan
from repro.serve import (
    ProcPoolLoop,
    ServeConfig,
    ServiceLoop,
    SupervisorConfig,
    TenantSpec,
)

ARTIFACT = "BENCH_serve.json"


def run(cfg: ServeConfig):
    return ServiceLoop(cfg).run()


def _artifact(update: dict) -> None:
    """Merge ``update`` into ``results/BENCH_serve.json``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, ARTIFACT)
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.update(update)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def test_e14_latency_vs_load(benchmark):
    rows = []
    artifacts = {}
    for rate in (2.0, 4.0, 8.0, 12.0, 16.0):
        cfg = ServeConfig(arrivals="poisson", rate=rate, messages=2000,
                          shards=4, P=4, B=16, seed=14)
        snap = run(cfg).snapshot
        s = snap["sojourn"]
        rows.append([
            rate, snap["n_steps"], s["p50"], s["p95"], s["p99"], s["max"],
            snap["throughput"],
        ])
        artifacts[f"poisson_rate_{rate:g}"] = snap
    emit_table(
        "E14_serve_latency",
        ["rate", "steps", "p50", "p95", "p99", "max", "msgs/step"],
        rows,
        note="sojourn (steps) of an open Poisson stream, 4 shards, P=4 "
        "B=16.  Below capacity the tail tracks the tree height; past it "
        "sojourn grows with the backlog.",
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "serve_metrics.json"), "w") as fh:
        json.dump(artifacts, fh, indent=2, sort_keys=True)
    _artifact({"latency_vs_load": rows})
    benchmark(
        lambda: run(ServeConfig(arrivals="poisson", rate=8.0, messages=500,
                                shards=4, seed=14))
    )


def test_e14_shard_scaling(benchmark):
    rows = []
    for shards in (1, 2, 4, 8):
        # Fixed per-shard load: the total rate scales with the fleet.
        cfg = ServeConfig(arrivals="poisson", rate=3.0 * shards,
                          messages=400 * shards, shards=shards, P=4, B=16,
                          seed=7)
        snap = run(cfg).snapshot
        s = snap["sojourn"]
        rows.append([shards, 3.0 * shards, snap["n_steps"], s["p50"],
                     s["p99"], snap["throughput"]])
    emit_table(
        "E14_serve_shard_scaling",
        ["shards", "rate", "steps", "p50", "p99", "msgs/step"],
        rows,
        note="per-shard load held at 3 msgs/step; near-flat p99 means "
        "key-range routing spreads the stream evenly.",
    )
    _artifact({"shard_scaling": rows})
    benchmark(
        lambda: run(ServeConfig(arrivals="poisson", rate=6.0, messages=300,
                                shards=2, seed=7))
    )


def test_e14_overload_shedding(benchmark):
    rows = []
    for rate in (8.0, 32.0, 128.0):
        cfg = ServeConfig(arrivals="poisson", rate=rate, messages=2000,
                          shards=2, P=2, B=8, max_queue=64,
                          max_root_backlog=32, seed=9)
        snap = run(cfg).snapshot
        s = snap["sojourn"]
        shed_pct = 100.0 * snap["shed"] / snap["arrived"]
        rows.append([rate, snap["completed"], snap["shed"], shed_pct,
                     s["p50"], s["p99"]])
        assert snap["completed"] + snap["shed"] == snap["arrived"]
    emit_table(
        "E14_serve_overload",
        ["rate", "completed", "shed", "shed %", "p50", "p99"],
        rows,
        note="bounded queues (64) + root backlog (32) on an undersized "
        "machine (2 shards, P=2, B=8).  Admission sheds the excess "
        "instead of letting sojourn diverge: the surviving tail stays "
        "bounded while the shed fraction absorbs the overload.",
    )
    _artifact({"overload_shedding": rows})
    benchmark(
        lambda: run(ServeConfig(arrivals="poisson", rate=64.0, messages=400,
                                shards=2, P=2, B=8, max_queue=64,
                                max_root_backlog=32, seed=9))
    )


def test_e14_faulty_serving(benchmark):
    rows = []
    for fault_rate in (0.0, 0.2):
        cfg = ServeConfig(arrivals="mmpp", rate=3.0, burst_rate=24.0,
                          messages=1200, shards=4, P=4, B=16, seed=11,
                          fault_rate=fault_rate, fault_seed=5)
        report = run(cfg)
        snap = report.snapshot
        s = snap["sojourn"]
        retries = sum(st.failed_attempts + st.partial_deliveries
                      for st in report.shard_stats)
        stalls = sum(st.stalled_skips for st in report.shard_stats)
        rows.append([
            fault_rate, snap["n_steps"], s["p50"], s["p99"], s["max"],
            retries, stalls,
        ])
    emit_table(
        "E14_serve_faults",
        ["fault rate", "steps", "p50", "p99", "max", "retries",
         "stall skips"],
        rows,
        note="bursty (MMPP) stream under injected faults.  A 0.2 fault "
        "rate lengthens the run by 13% and moves p50 by 4 steps, p99 by "
        "12 and max by 20: retried and stalled flushes wait out their "
        "backoff while arrivals keep coming.",
    )
    benchmark(
        lambda: run(ServeConfig(arrivals="mmpp", rate=3.0, burst_rate=24.0,
                                messages=300, shards=2, seed=11,
                                fault_rate=0.2, fault_seed=5))
    )


#: The quarantine panel: (label, shards, chaos kills, fault rate).  Each
#: run also draws one whole-shard stall.
QUARANTINE_CONFIGS = (
    ("4 shards, 1 kill", 4, 1, 0.0),
    ("4 shards, 3 kills", 4, 3, 0.0),
    ("2 shards, 2 kills", 2, 2, 0.0),
    ("4 shards, 1 kill, faults 0.2", 4, 1, 0.2),
)
QUARANTINE_SEEDS = tuple(range(1, 11))


def _quarantine_run(shards, kills, fault_rate, seed, divert):
    """One panel run: ``serve --chaos --chaos-kills <kills>`` at the
    default config with 2000 messages (so the CLI's chaos horizon)."""
    cfg = ServeConfig(messages=2000, shards=shards, seed=seed,
                      fault_rate=fault_rate, fault_seed=seed)
    chaos = ChaosPlan.draw(shards=shards, seed=seed, kills=kills,
                           horizon=int(cfg.messages / cfg.rate))
    report = ServiceLoop(
        cfg, chaos=chaos, supervisor=SupervisorConfig(divert=divert)
    ).run()
    snap = report.snapshot
    assert snap["arrived"] == snap["completed"] + snap["shed"]
    return snap


def test_e14_quarantine_panel(benchmark):
    """Why ``--divert`` is a flag: what routing a quarantined shard's
    later arrivals to a neighbor does to sojourn, judged on the medians
    of a 10-seed chaos panel."""
    rows, art, medians = [], {}, {}
    for label, shards, kills, fault_rate in QUARANTINE_CONFIGS:
        for divert in (False, True):
            snaps = [_quarantine_run(shards, kills, fault_rate, seed, divert)
                     for seed in QUARANTINE_SEEDS]
            row = [median(s["sojourn"][k] for s in snaps)
                   for k in ("mean", "p99", "max")]
            shed = sum(s["shed"] for s in snaps)
            medians[label, divert] = row
            rows.append([label, "on" if divert else "off", *row, shed])
            art[f"{label}, divert {'on' if divert else 'off'}"] = {
                "mean": [s["sojourn"]["mean"] for s in snaps],
                "p99": [s["sojourn"]["p99"] for s in snaps],
                "max": [s["sojourn"]["max"] for s in snaps],
                "shed": [s["shed"] for s in snaps],
            }
    emit_table(
        "E14_serve_quarantine",
        ["config", "divert", "mean", "p99", "max", "shed"],
        rows,
        note=f"medians over seeds {QUARANTINE_SEEDS[0]}-"
        f"{QUARANTINE_SEEDS[-1]} of 2000-message runs at the serve "
        "defaults (8 msgs/step, P=4, B=16), each with seeded kills and "
        "one stall; shed is the panel total.  With 4 shards divert "
        "lowers the median p99 and max sojourn; with 2 shards it raises "
        "the median mean.  Neither wins everywhere, so divert stays "
        "opt-in.",
    )
    _artifact({"quarantine_panel": {"seeds": list(QUARANTINE_SEEDS),
                                    "runs": art}})
    # What the note states; if it stops holding, reword it.
    for label, shards, _kills, _rate in QUARANTINE_CONFIGS:
        (off_mean, off_p99, off_max) = medians[label, False]
        (on_mean, on_p99, on_max) = medians[label, True]
        if shards == 4:
            assert on_p99 < off_p99 and on_max < off_max, medians
        else:
            assert on_mean > off_mean, medians
    benchmark(lambda: _quarantine_run(2, 2, 0.0, 1, True))


#: The fairness scenarios run at seed 14; their share claim is judged
#: on the medians of this panel, which starts at that seed.
FAIRNESS_SEEDS = tuple(range(14, 24))
#: How far the equal-weights median share may sit from the weight share.
SHARE_TOLERANCE = 0.1


def _backlogged_shares(cfg: ServeConfig) -> "tuple[list[int], dict]":
    """Run ``cfg``; per tenant, the messages admitted by drains that
    start with every tenant lane of the shard backlogged.

    DRR's guarantee is about lanes that are both backlogged; run totals
    cannot show it (the hot tenant's arrivals come in a short burst, and
    its lane bound sheds most of them).
    """
    loop = ServiceLoop(cfg)
    adm = loop.admission
    counts = [0] * len(cfg.tenants)
    real_drain = adm.drain

    def drain(shard_id, engine, step):
        backlogged = all(adm.lanes[shard_id])
        admitted = real_drain(shard_id, engine, step)
        if backlogged:
            for gid, _leaf, _done in admitted:
                counts[adm.tenant_of[gid]] += 1
        return admitted

    adm.drain = drain
    return counts, loop.run().snapshot


def test_e14_tenant_fairness(benchmark):
    """Per-tenant QoS: weighted-fair admission under 10:1 offered load.

    Two scenarios on the same undersized machine: equal weights, and a
    2:1-weighted hot tenant with a buffer quota and a sojourn SLO tight
    enough to trip (its queue is purged and its door closes).  The
    fairness claim is checked where DRR makes it: the hot lane's share
    of what drains admit while both lanes are backlogged, against its
    weight share, on the medians of a seed panel.
    """
    scenarios = {
        "equal_weights_10_to_1": (
            TenantSpec(name="hot", rate=30.0, messages=600),
            TenantSpec(name="light", rate=3.0, messages=600),
        ),
        "weighted_2_to_1_with_slo": (
            TenantSpec(name="hot", rate=30.0, messages=600, weight=2.0,
                       slo_sojourn=12, buffer_quota=8),
            TenantSpec(name="light", rate=3.0, messages=600),
        ),
    }
    rows = []
    share_rows = []
    art = {}
    medians = {}
    for label, tenants in scenarios.items():
        shares = []
        for seed in FAIRNESS_SEEDS:
            cfg = ServeConfig(messages=1200, shards=2, P=2, B=8, seed=seed,
                              max_root_backlog=16, max_queue=64, epoch=4,
                              tenants=tenants)
            counts, snap = _backlogged_shares(cfg)
            shares.append(counts[0] / sum(counts))
            for trow in snap["tenants"]:
                assert trow["arrived"] == trow["completed"] + trow["shed"]
            if seed != FAIRNESS_SEEDS[0]:
                continue
            for trow in snap["tenants"]:
                sj = trow["sojourn"]
                slo = trow["slo"]
                rows.append([
                    label, trow["tenant"], trow["weight"], trow["arrived"],
                    trow["completed"], trow["shed"], trow["throughput"],
                    sj["p50"], sj["p99"],
                    slo["trips"] if slo else "-",
                ])
            art[label] = snap["tenants"]
        weight_share = tenants[0].weight / sum(t.weight for t in tenants)
        medians[label] = (weight_share, median(shares))
        share_rows.append([label, weight_share, median(shares),
                           min(shares), max(shares)])
        art[f"{label}_hot_backlogged_share"] = {
            "seeds": list(FAIRNESS_SEEDS), "shares": shares,
            "weight_share": weight_share,
        }
    emit_table(
        "E14_tenant_fairness",
        ["scenario", "tenant", "weight", "arrived", "completed", "shed",
         "msgs/step", "p50", "p99", "slo trips"],
        rows,
        note="two tenants at 10:1 offered load on an undersized machine "
        "(2 shards, P=2, B=8), seed 14.  Run totals do not follow the "
        "weights: the hot tenant's burst overruns its lane bound, so it "
        "completes far fewer messages than the light tenant (see "
        "E14_tenant_share for the share DRR controls).  The SLO "
        "scenario also purges the hot tenant's queue whenever its p99 "
        "target trips.",
    )
    emit_table(
        "E14_tenant_share",
        ["scenario", "hot weight share", "median hot share", "min", "max"],
        share_rows,
        note=f"the hot lane's share of the messages admitted by drains "
        f"that start with both lanes backlogged, seeds "
        f"{FAIRNESS_SEEDS[0]}-{FAIRNESS_SEEDS[-1]}.  With equal weights "
        "the median is within 0.1 of the weight share.  With 2:1 weights "
        "it is well below 2/3, because the hot tenant's buffer quota of "
        "8 holds its lane: on the same panel, dropping the quota and the "
        "SLO gives 0.70, and the quota alone 0.36.",
    )
    _artifact({"tenant_fairness": art})
    # What the notes state; if either stops holding, reword them.
    equal_w, equal_med = medians["equal_weights_10_to_1"]
    assert abs(equal_med - equal_w) <= SHARE_TOLERANCE, medians
    slo_w, slo_med = medians["weighted_2_to_1_with_slo"]
    assert slo_med < slo_w - SHARE_TOLERANCE, medians
    benchmark(
        lambda: run(ServeConfig(
            messages=300, shards=2, P=2, B=8, seed=14,
            max_root_backlog=16, max_queue=64,
            tenants=(TenantSpec(name="hot", rate=30.0, messages=270),
                     TenantSpec(name="light", rate=3.0, messages=30)),
        ))
    )


#: e2ebench ``serve_steady``'s config at a size that keeps the driver
#: bench under a minute.
DRIVER_MESSAGES = 8000
DRIVER_REPS = 10
#: (label, processes); ``None`` is the in-process loop.
DRIVERS = (("in-process", None), ("--processes 1", 1), ("--processes 2", 2))


def _driver_loop(processes):
    cfg = ServeConfig(arrivals="poisson", rate=8.0,
                      messages=DRIVER_MESSAGES, shards=4, P=4, B=16,
                      theta=0.0, seed=1)
    if processes is None:
        return ServiceLoop(cfg)
    return ProcPoolLoop(cfg, processes=processes)


class _CountingConn:
    """A parent pipe end that adds the pickled size of every chunk
    payload and chunk reply to ``counts``; the bytes on the wire are
    the ones ``Connection.send``/``recv`` would carry."""

    def __init__(self, conn, counts: dict) -> None:
        self._conn = conn
        self._counts = counts
        self._chunk_pending = False

    def send(self, obj) -> None:
        buf = ForkingPickler.dumps(obj)
        if obj[0] == "chunk":
            self._counts["payload_bytes"] += len(buf)
            self._chunk_pending = True
        self._conn.send_bytes(buf)

    def recv(self):
        buf = self._conn.recv_bytes()
        if self._chunk_pending:
            self._counts["reply_bytes"] += len(buf)
            self._chunk_pending = False
        return ForkingPickler.loads(buf)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _counted_ipc(processes: int) -> "tuple[dict, dict]":
    """One untimed procpool run: its chunk count (dispatch barriers) and
    the pickled bytes of every chunk payload and reply."""
    loop = _driver_loop(processes)
    counts = {"chunks": 0, "payload_bytes": 0, "reply_bytes": 0}
    dispatch, spawn = loop._dispatch_chunk, loop._spawn_slot

    def counted_dispatch(t0, t1, batch):
        counts["chunks"] += 1
        return dispatch(t0, t1, batch)

    def counting_spawn(sids):
        slot = spawn(sids)
        slot.conn = _CountingConn(slot.conn, counts)
        return slot

    loop._dispatch_chunk = counted_dispatch
    loop._spawn_slot = counting_spawn
    return counts, loop.run().completions


def test_e14_driver_ipc():
    """What each serving driver costs: procpool's IPC volume per chunk
    (counted, deterministic) and every driver's wall time (medians and
    quartiles over alternated runs; host-dependent, so nothing about
    them is asserted)."""
    counted = {p: _counted_ipc(p) for _label, p in DRIVERS if p}
    walls: "dict[str, list[float]]" = {label: [] for label, _p in DRIVERS}
    completions = {}
    for _rep in range(DRIVER_REPS):
        for label, processes in DRIVERS:
            t0 = time.perf_counter()
            report = _driver_loop(processes).run()
            walls[label].append(time.perf_counter() - t0)
            completions[label] = report.completions
    rows, art = [], {}
    for label, processes in DRIVERS:
        q1, med, q3 = quantiles(walls[label], n=4)
        row = {"wall_s": walls[label], "median_s": med, "q1_s": q1,
               "q3_s": q3}
        if processes:
            counts, _done = counted[processes]
            row.update(counts)
            chunks = counts["chunks"]
            rows.append([label, chunks, counts["payload_bytes"] / chunks,
                         counts["reply_bytes"] / chunks, med, q1, q3])
        else:
            rows.append([label, "-", "-", "-", med, q1, q3])
        art[label] = row
    emit_table(
        "E14_serve_drivers",
        ["driver", "chunks", "payload B/chunk", "reply B/chunk",
         "median s", "q1 s", "q3 s"],
        rows,
        note=f"e2ebench serve_steady's config at {DRIVER_MESSAGES} "
        "messages (Poisson 8 msgs/step, 4 shards, P=4, B=16, seed 1).  "
        "Chunk and byte counts are the pickled chunk payloads and "
        "replies of one run, summed over workers per chunk; they are "
        "deterministic.  Wall times are medians and quartiles of "
        f"{DRIVER_REPS} runs per driver, the drivers alternated, on "
        "whatever host ran the bench; they are not compared here.",
    )
    _artifact({"drivers": {"messages": DRIVER_MESSAGES,
                           "reps": DRIVER_REPS, "rows": art}})
    # One chunk per epoch whatever the width, and every driver lands
    # on the in-process loop's completions.
    (c1, done1), (c2, done2) = counted[1], counted[2]
    assert c1["chunks"] == c2["chunks"] > 0
    assert c1["payload_bytes"] > 0 and c1["reply_bytes"] > 0
    assert done1 == done2 == completions["in-process"]
    assert all(done == completions["in-process"]
               for done in completions.values())
