"""CLI tests for `python -m repro trace` (and its artifact contract)."""

from __future__ import annotations

import json

from repro.__main__ import main

TRACE_ARGS = ["serve", "--messages", "60", "--seed", "3", "--shards", "2",
              "--rate", "6"]


def run_trace(tmp_path, name):
    out = tmp_path / name
    code = main(["trace", "--out", str(out)] + TRACE_ARGS)
    return code, out


class TestTraceArtifacts:
    def test_trace_writes_all_three_artifacts(self, tmp_path, capsys):
        code, out = run_trace(tmp_path, "t")
        assert code == 0
        trace = json.loads((tmp_path / "t.trace.json").read_text())
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        assert "serve.run" in names
        assert "serve.plan" in names
        # Metrics ride along inside the trace document too.
        counters = trace["otherData"]["metrics"]["counters"]
        assert counters["serve_runs_total"] == 1
        metrics = json.loads((tmp_path / "t.metrics.json").read_text())
        assert metrics["command"] == TRACE_ARGS
        assert metrics["counters"]["serve_arrivals_total"] == 60
        spans = (tmp_path / "t.spans.txt").read_text()
        assert spans.splitlines()[0].startswith("serve.run")
        stdout = capsys.readouterr().out
        assert "phase profile" in stdout
        assert "t.trace.json" in stdout

    def test_two_runs_produce_identical_metric_snapshots(self, tmp_path):
        """The determinism the CI trace-smoke job diffs."""
        run_trace(tmp_path, "a")
        run_trace(tmp_path, "b")
        assert (tmp_path / "a.metrics.json").read_text() \
            == (tmp_path / "b.metrics.json").read_text()

    def test_trace_restores_disabled_context(self, tmp_path):
        from repro.obs import current_obs
        from repro.obs.hooks import DISABLED

        run_trace(tmp_path, "t")
        assert current_obs() is DISABLED


class TestTraceErrors:
    def test_trace_cannot_wrap_itself(self, tmp_path, capsys):
        assert main(["trace", "--out", str(tmp_path / "x"),
                     "trace", "serve"]) == 2
        assert "cannot wrap itself" in capsys.readouterr().err

    def test_unknown_inner_subcommand_exits_2(self, tmp_path, capsys):
        assert main(["trace", "--out", str(tmp_path / "x"),
                     "nonsense"]) == 2

    def test_inner_exit_code_propagates(self, tmp_path, capsys):
        bad = tmp_path / "bad.journal"
        bad.write_bytes(b"NOPE" * 8)  # `recover` exits 1: corrupt
        code = main(["trace", "--out", str(tmp_path / "x"),
                     "recover", str(bad)])
        assert code == 1
