"""The result line carries exactly the metrics ``BENCHMARK.json`` lists."""

import json
from pathlib import Path

from e2ebench.workloads import END_TO_END, PER_LAYER, Outcome

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_catalogue_matches_the_manifest():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    for key, catalogue in (("end_to_end", END_TO_END),
                           ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in manifest[key]}
        assert listed == catalogue, key


def test_settle_fills_untouched_layers_with_zero():
    outcome = Outcome("w")
    outcome.put("serve.router.flushes", 7, "count")
    outcome.put("not.listed", 1, "ms")
    outcome.settle(PER_LAYER, fill=True)
    assert outcome.correct
    assert list(outcome.metrics) == list(PER_LAYER)
    assert outcome.metrics["serve.router.flushes"] == (7.0, "count")
    assert outcome.metrics["lsm.disk.put_ms"] == (0.0, "ms")


def test_settle_fails_on_a_missing_or_mis_unitted_metric():
    outcome = Outcome("w")
    for name, unit in END_TO_END.items():
        outcome.put(name, 1.0, unit)
    outcome.put("setup_s", 1.0, "ms")
    del outcome.metrics["peak_rss_mb"]
    outcome.settle(END_TO_END, fill=False)
    failed = [name for name, ok, _d in outcome.checks if not ok]
    assert failed == ["setup_s is in s", "peak_rss_mb is reported"]
    assert outcome.failed == 2
