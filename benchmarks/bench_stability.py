"""E16: long-run performance stability — stall windows.

Mean throughput hides the failure mode that matters in production
(Luo & Carey, PAPERS.md): windows where the service goes dark while
amortized maintenance catches up.  The table is the stall profile of
the two MMPP scenarios.  Raw documents land in
``results/BENCH_stability.json`` — the schema-versioned perf curve
future PRs extend.

The full multi-million-op runs are nightly-only (``-m nightly``); the
push-time table uses shorter seeded runs of the same scenarios.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.common import RESULTS_DIR, emit_table
from repro.stability import StabilityConfig, run_stability

ARTIFACT = "BENCH_stability.json"


def _artifact(update: dict) -> None:
    """Merge ``update`` into ``results/BENCH_stability.json``."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, ARTIFACT)
    doc = {}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc.update(update)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _row(doc: dict) -> list:
    stalls, soj = doc["stalls"], doc["sojourn"]
    p999 = soj["p999"] if soj["p999"] is not None else float("nan")
    return [doc["windows"]["n"], stalls["count"], stalls["stalled_windows"],
            stalls["max_len"], soj["p50"], soj["p99"], p999, soj["mean"]]


def test_e16_stall_scenarios(benchmark):
    rows = []
    art = {}
    for scenario, messages in (("diurnal", 30_000), ("flash-crowd", 8000)):
        cfg = StabilityConfig(scenario=scenario, messages=messages, seed=1,
                              fault_rate=0.05, B=32, height=4)
        doc = run_stability(cfg)
        a = doc["stalls"]["attribution"]
        # What the note below states; if it stops holding, reword it.
        assert a["interference"] == doc["stalls"]["count"], a
        rows.append([scenario, messages, *_row(doc),
                     a["interference"], a["arrival-lull"], a["backlog"]])
        art[scenario] = doc
    emit_table(
        "E16_stability_scenarios",
        ["scenario", "msgs", "windows", "stalls", "stall wins", "max len",
         "p50", "p99", "p99.9", "mean", "interf", "lull", "backlog"],
        rows,
        note="stall profile of the two MMPP regimes under 5% fault "
        "interference.  Every stall of both runs is attributed to "
        "interference; neither has an arrival-lull or a backlog stall.",
    )
    _artifact({"scenarios": art})
    benchmark(
        lambda: run_stability(
            StabilityConfig(scenario="diurnal", messages=2000, seed=1)
        )
    )


@pytest.mark.nightly
def test_e16_longrun_nightly(benchmark):
    """Multi-million-op stability runs (nightly: ~15 min of sim time)."""
    rows = []
    art = {}
    for scenario in ("diurnal", "flash-crowd"):
        cfg = StabilityConfig(scenario=scenario, messages=2_000_000, seed=1,
                              fault_rate=0.05, B=32, height=4)
        doc = run_stability(cfg)
        rows.append([scenario, *_row(doc)])
        # The long windows series dominates the artifact; keep the
        # distributions and drop the raw per-window counters.
        slim = {k: v for k, v in doc.items() if k != "windows"}
        slim["windows"] = {"window_steps": doc["windows"]["window_steps"],
                           "n": doc["windows"]["n"]}
        art[scenario] = slim
    emit_table(
        "E16_stability_longrun",
        ["run", "windows", "stalls", "stall wins", "max len",
         "p50", "p99", "p99.9", "mean"],
        rows,
        note="2M-message seeded runs; with n >= 1000 completions per "
        "run the p99.9 guard is always satisfied, so the tail column "
        "is exact, not n/a.",
    )
    _artifact({"longrun": art})
    benchmark(
        lambda: run_stability(
            StabilityConfig(scenario="diurnal", messages=2000, seed=1)
        )
    )
