"""E16: long-run performance stability — stall windows and pacing.

Mean throughput hides the failure mode that matters in production
(Luo & Carey, PAPERS.md): windows where the service goes dark while
amortized maintenance catches up.  Three tables: the stall profile of
the two MMPP scenarios, the de-amortization trade-off curve
(``--pace`` budget vs stall length / tail sojourn / mean) on one
flash-crowd run, and the pacing criterion — a paced run shortens its
worst stall *and* its p99.9 sojourn for a bounded mean regression —
judged over a panel of seeds.  On the packed-set planner no budget
meets it, and the test pins that finding.
Raw documents land in ``results/BENCH_stability.json`` — the
schema-versioned perf curve future PRs extend.

The full multi-million-op runs are nightly-only (``-m nightly``); the
push-time tables use shorter seeded runs of the same scenarios.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.common import RESULTS_DIR, emit_table
from repro.stability import StabilityConfig, run_stability

ARTIFACT = "BENCH_stability.json"

#: The trade-curve run: seeded flash-crowd with compaction
#: interference (fault pipeline), big flushes on a tall tree.
DEMO = dict(scenario="flash-crowd", messages=8000, seed=1,
            fault_rate=0.05, B=32, height=4)
DEMO_PACE = 32
#: The budgets of the sweep (0 = unpaced).
PACES = (0, 16, DEMO_PACE, 64)
#: The pacing criterion is judged over DEMO's config at the first ten
#: seeds, all of them: one seed is one burst pattern, and the
#: criterion is a claim about the workload.
PANEL_SEEDS = tuple(range(1, 11))
#: The largest mean-sojourn regression the criterion accepts.
MAX_MEAN_REGRESSION = 0.15


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
        rows.append([scenario, messages, *_row(doc),
                     a["interference"], a["arrival-lull"], a["backlog"]])
        art[scenario] = doc
    emit_table(
        "E16_stability_scenarios",
        ["scenario", "msgs", "windows", "stalls", "stall wins", "max len",
         "p50", "p99", "p99.9", "mean", "interf", "lull", "backlog"],
        rows,
        note="stall profile of the two MMPP regimes under 5% fault "
        "interference.  Diurnal lulls are attributed to arrivals, not "
        "counted against the engine; flash-crowd stalls are "
        "interference- and backlog-driven.",
    )
    _artifact({"scenarios": art})
    benchmark(
        lambda: run_stability(
            StabilityConfig(scenario="diurnal", messages=2000, seed=1)
        )
    )


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def _panel_summary(docs: list) -> dict:
    """Panel medians of the three quantities the criterion compares."""
    return {
        "max_len": _median([d["stalls"]["max_len"] for d in docs]),
        "p999": _median([d["sojourn"]["p999"] for d in docs]),
        "mean": _median([d["sojourn"]["mean"] for d in docs]),
    }


def _meets_criterion(base: dict, paced: dict) -> bool:
    regression = (paced["mean"] - base["mean"]) / base["mean"]
    return (paced["max_len"] < base["max_len"]
            and paced["p999"] < base["p999"]
            and regression <= MAX_MEAN_REGRESSION)


def test_e16_pacing_tradeoff(benchmark):
    """The budget sweep on DEMO, and the pacing criterion over the seed
    panel: no budget shortens the median worst stall *and* lowers the
    median p99.9 sojourn at a bounded median mean regression."""
    # DEMO is the panel's first seed; its runs make the sweep table.
    panel = {pace: [] for pace in PACES}
    for seed in PANEL_SEEDS:
        for pace in PACES:
            cfg = {**DEMO, "seed": seed}
            doc = run_stability(StabilityConfig(**cfg, pace=pace))
            if pace:
                # The controller's contract: realized per-step flushed
                # work never exceeds the budget, on any shard, at any step.
                assert doc["pace"]["max_step_work"] <= pace, doc["pace"]
            panel[pace].append(doc)
    assert PANEL_SEEDS[0] == DEMO["seed"]
    rows = []
    art = {}
    for pace in PACES:
        doc = panel[pace][0]
        label = str(pace) if pace else "off"
        bound = doc["pace"]["max_step_work"] if pace else "-"
        rows.append([label, bound, *_row(doc)])
        art[f"pace_{label}"] = doc
    emit_table(
        "E16_pacing_tradeoff",
        ["pace", "step work", "windows", "stalls", "stall wins", "max len",
         "p50", "p99", "p99.9", "mean"],
        rows,
        note="flash-crowd + 5% interference, seed 1, pace budget sweep.  "
        "Tight budgets (16) throttle the catch-up drain: no stall, a far "
        "worse tail and mean; 32 leaves the worst stall where it is and "
        "costs tail and mean; 64 never binds.",
    )

    summary = {pace: _panel_summary(docs) for pace, docs in panel.items()}
    base = summary[0]
    criterion = {}
    panel_rows = []
    for pace in PACES[1:]:
        paced = summary[pace]
        per_seed = sum(
            _meets_criterion(_panel_summary([b]), _panel_summary([d]))
            for b, d in zip(panel[0], panel[pace]))
        regression = (paced["mean"] - base["mean"]) / base["mean"]
        criterion[str(pace)] = {
            **paced,
            "mean_regression": round(regression, 4),
            "meets": _meets_criterion(base, paced),
            "seeds_meeting": per_seed,
        }
        panel_rows.append([pace, paced["max_len"], paced["p999"],
                           paced["mean"], f"{regression:+.1%}", per_seed])
    emit_table(
        "E16_pacing_panel",
        ["pace", "med max len", "med p99.9", "med mean", "mean reg",
         "seeds meeting"],
        [["off", base["max_len"], base["p999"], base["mean"], "-", "-"],
         *panel_rows],
        note=f"flash-crowd + 5% interference at seeds "
        f"{PANEL_SEEDS[0]}-{PANEL_SEEDS[-1]}, medians over the panel.  "
        "The criterion — shorter worst stall and lower p99.9 at <= 15% "
        "mean regression — holds for no budget in the median; "
        "'seeds meeting' counts the seeds where it holds alone.",
    )
    art["panel"] = {"seeds": list(PANEL_SEEDS), "unpaced": base,
                    "paced": criterion}
    _artifact({"pacing_tradeoff": art})
    # The finding docs/STABILITY.md states: the packed-set planner leaves
    # pacing no spike to cut on this workload.  If a budget meets the
    # criterion again, that text and ROADMAP's pacing item are stale.
    met = [pace for pace, c in criterion.items() if c["meets"]]
    assert not met, (met, base, criterion)
    benchmark(
        lambda: run_stability(
            StabilityConfig(scenario="flash-crowd", messages=1000, seed=1,
                            pace=8)
        )
    )


@pytest.mark.nightly
def test_e16_longrun_nightly(benchmark):
    """Multi-million-op stability runs (nightly: ~15 min of sim time)."""
    rows = []
    art = {}
    for scenario, pace in (("diurnal", 0), ("flash-crowd", 0),
                           ("flash-crowd", DEMO_PACE)):
        cfg = StabilityConfig(scenario=scenario, messages=2_000_000, seed=1,
                              fault_rate=0.05, B=32, height=4, pace=pace)
        doc = run_stability(cfg)
        label = f"{scenario}{'_paced' if pace else ''}"
        rows.append([label, *_row(doc)])
        # The long windows series dominates the artifact; keep the
        # distributions and drop the raw per-window counters.
        slim = {k: v for k, v in doc.items() if k != "windows"}
        slim["windows"] = {"window_steps": doc["windows"]["window_steps"],
                           "n": doc["windows"]["n"]}
        art[label] = slim
        if pace:
            assert doc["pace"]["max_step_work"] <= pace, doc["pace"]
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
