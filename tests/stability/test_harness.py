"""Stability harness: determinism, document shape, non-perturbation.

The contracts the CI smoke job and future PRs lean on:

* the result document is a pure function of :class:`StabilityConfig` —
  two runs of the same config serialize to identical bytes;
* the metered loop observes without perturbing: a harness run writes
  journal bytes identical to a plain :class:`ServiceLoop` run of the
  same config;
* the ``stability/v2`` document carries the fields the bench tables
  and the smoke job read, with internally consistent window math.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.serve import ServiceLoop
from repro.stability import (
    SCENARIOS,
    SCHEMA,
    StabilityConfig,
    format_stability_report,
    run_stability,
)
from repro.util.errors import InvalidInstanceError

#: small-but-busy run: a few thousand messages keeps this file fast
#: while still crossing several detector windows.
SMALL = dict(scenario="flash-crowd", messages=1500, seed=3)


def test_document_is_byte_deterministic():
    cfg = StabilityConfig(**SMALL, fault_rate=0.05)
    a = run_stability(cfg)
    b = run_stability(cfg)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_metered_loop_does_not_perturb_the_run(tmp_path):
    cfg = StabilityConfig(**SMALL)
    doc = run_stability(cfg, journal=tmp_path / "metered.journal")
    plain = ServiceLoop(
        cfg.to_serve_config(), journal=tmp_path / "plain.journal"
    ).run()
    assert (tmp_path / "metered.journal").read_bytes() \
        == (tmp_path / "plain.journal").read_bytes()
    assert doc["totals"]["completed"] == len(plain.completions)


def test_document_shape_and_window_math():
    cfg = StabilityConfig(**SMALL, window=8)
    doc = run_stability(cfg)
    assert doc["schema"] == SCHEMA
    assert doc["config"] == asdict(cfg)
    w = doc["windows"]
    # one window per `window` steps, final partial window included.
    assert w["n"] == -(-doc["steps"] // cfg.window)
    for name in ("completed", "admitted", "arrived", "stall_skips",
                 "failed_attempts", "planned_flushes"):
        assert len(w[name]) == w["n"]
    # window deltas of a cumulative counter re-sum to the total.
    assert sum(w["completed"]) == doc["totals"]["completed"]
    assert sum(w["arrived"]) == doc["totals"]["arrived"]
    stalls = doc["stalls"]
    assert stalls["stalled_windows"] == sum(stalls["lengths"])
    assert stalls["count"] == len(stalls["intervals"])
    assert sum(stalls["attribution"].values()) == stalls["count"]
    for iv in stalls["intervals"]:
        assert iv["cause"] in ("interference", "arrival-lull", "backlog")


def test_scenarios_cover_both_regimes():
    assert set(SCENARIOS) == {"diurnal", "flash-crowd"}
    for params in SCENARIOS.values():
        assert params["burst_rate"] > params["rate"]


def test_config_validation():
    with pytest.raises(InvalidInstanceError):
        StabilityConfig(scenario="weekend")
    with pytest.raises(InvalidInstanceError):
        StabilityConfig(window=0)


def test_report_renders_stall_line():
    text = format_stability_report(run_stability(StabilityConfig(**SMALL)))
    assert "stalls:" in text


# -- native compaction attribution (engine='lsm') -----------------------

def test_lsm_engine_samples_real_compactions(tmp_path):
    # ~16k messages: enough flushes of the 256-key universe to trip the
    # store's leveled compaction at its default memtable capacity.
    doc = run_stability(StabilityConfig(
        scenario="flash-crowd", messages=16_000, seed=3,
        engine="lsm", data_dir=str(tmp_path / "kv"),
    ))
    comps = doc["windows"]["compactions"]
    assert len(comps) == doc["windows"]["n"]
    # The disk store really compacted during the run, and the sampled
    # column carries the per-window deltas of its cumulative counter.
    assert sum(comps) > 0
    assert all(c >= 0 for c in comps)
    assert "compaction" in doc["stalls"]["attribution"]


def test_sim_engine_has_empty_compaction_column():
    doc = run_stability(StabilityConfig(**SMALL))
    assert sum(doc["windows"]["compactions"]) == 0
    assert doc["stalls"]["attribution"]["compaction"] == 0


def test_attribution_prefers_compaction_over_interference():
    from repro.stability.harness import _attribute
    from repro.stability.windows import stall_intervals

    (iv,) = stall_intervals([True])
    series = {
        "compactions": [3], "stall_skips": [2], "failed_attempts": [0],
        "arrived": [5], "admitted": [5],
    }
    assert _attribute(iv, series) == "compaction"
    series["compactions"] = [0]
    assert _attribute(iv, series) == "interference"


def test_report_renders_compaction_bucket():
    text = format_stability_report(run_stability(StabilityConfig(**SMALL)))
    assert "compaction 0" in text
