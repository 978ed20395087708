"""E14: the serving layer — sojourn latency under load, overload, faults.

The offline experiments measure completion *steps* of a fixed batch; a
service instead cares about sojourn time (completion - arrival + 1) as
the offered load approaches and passes the machine's capacity.  Three
tables: the latency/load curve for an open Poisson stream, shard
scaling at fixed per-shard load, and bounded-queue overload behaviour
(shed fraction + surviving tail latency), plus a multi-tenant fairness
table for the QoS subsystem.  Machine-readable summaries land in
``results/serve_metrics.json`` (steady-state snapshots, the legacy CI
artifact) and ``results/BENCH_serve.json`` (every table's raw rows,
including per-tenant fairness).
"""

from __future__ import annotations

import json
import os

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


def test_e14_tenant_fairness(benchmark):
    """Per-tenant QoS: weighted-fair admission under 10:1 offered load.

    Two scenarios on the same undersized machine: equal weights (the
    hot tenant absorbs its own overload; admitted service stays ~1:1)
    and a 2:1-weighted hot tenant with a sojourn SLO tight enough to
    trip (its queue is purged and its door closes; the light tenant is
    never shed).
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
    art = {}
    for label, tenants in scenarios.items():
        cfg = ServeConfig(messages=1200, shards=2, P=2, B=8, seed=14,
                          max_root_backlog=16, max_queue=64, epoch=4,
                          tenants=tenants)
        snap = run(cfg).snapshot
        for trow in snap["tenants"]:
            sj = trow["sojourn"]
            slo = trow["slo"]
            rows.append([
                label, trow["tenant"], trow["weight"], trow["arrived"],
                trow["completed"], trow["shed"], trow["throughput"],
                sj["p50"], sj["p99"],
                slo["trips"] if slo else "-",
            ])
            assert trow["arrived"] == trow["completed"] + trow["shed"]
        art[label] = snap["tenants"]
    emit_table(
        "E14_tenant_fairness",
        ["scenario", "tenant", "weight", "arrived", "completed", "shed",
         "msgs/step", "p50", "p99", "slo trips"],
        rows,
        note="two tenants at 10:1 offered load on an undersized machine "
        "(2 shards, P=2, B=8).  Deficit-round-robin admission keeps "
        "completed throughput near the weight ratio while the hot "
        "tenant sheds at its own lane bound; the SLO scenario also "
        "purges the hot tenant's queue whenever its p99 target trips.",
    )
    _artifact({"tenant_fairness": art})
    benchmark(
        lambda: run(ServeConfig(
            messages=300, shards=2, P=2, B=8, seed=14,
            max_root_backlog=16, max_queue=64,
            tenants=(TenantSpec(name="hot", rate=30.0, messages=270),
                     TenantSpec(name="light", rate=3.0, messages=30)),
        ))
    )
