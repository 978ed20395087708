"""E14: the serving layer — sojourn latency under load, overload, faults.

The offline experiments measure completion *steps* of a fixed batch; a
service instead cares about sojourn time (completion - arrival + 1) as
the offered load approaches and passes the machine's capacity.  Three
tables: the latency/load curve for an open Poisson stream, shard
scaling at fixed per-shard load, and bounded-queue overload behaviour
(shed fraction + surviving tail latency), plus two multi-tenant
fairness tables for the QoS subsystem (run totals, and the share DRR
admission controls).  Machine-readable summaries land in
``results/serve_metrics.json`` (steady-state snapshots, the legacy CI
artifact) and ``results/BENCH_serve.json`` (every table's raw rows,
including per-tenant fairness).
"""

from __future__ import annotations

import json
import os
from statistics import median

from benchmarks.common import RESULTS_DIR, emit_table
from repro.serve import ServeConfig, ServiceLoop, TenantSpec

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
    for fault_rate, aware in ((0.0, False), (0.2, False), (0.2, True)):
        cfg = ServeConfig(arrivals="mmpp", rate=3.0, burst_rate=24.0,
                          messages=1200, shards=4, P=4, B=16, seed=11,
                          fault_rate=fault_rate, fault_aware=aware,
                          fault_seed=5)
        report = run(cfg)
        snap = report.snapshot
        s = snap["sojourn"]
        retries = sum(st.failed_attempts + st.partial_deliveries
                      for st in report.shard_stats)
        stalls = sum(st.stalled_skips for st in report.shard_stats)
        rows.append([
            fault_rate, "yes" if aware else "no", snap["n_steps"],
            s["p50"], s["p99"], s["max"], retries, stalls,
        ])
    emit_table(
        "E14_serve_faults",
        ["fault rate", "aware", "steps", "p50", "p99", "max", "retries",
         "stall skips"],
        rows,
        note="bursty (MMPP) stream under injected faults.  Fault-aware "
        "triage caches observed stall windows, so it probes frozen "
        "nodes far less often (stall skips); the tail moves by at most "
        "a step either way, and the median is set by the tree height.",
    )
    benchmark(
        lambda: run(ServeConfig(arrivals="mmpp", rate=3.0, burst_rate=24.0,
                                messages=300, shards=2, seed=11,
                                fault_rate=0.2, fault_seed=5))
    )


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
