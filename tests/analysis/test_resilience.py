"""Tests for the resilience sweep and its report."""

from __future__ import annotations

import pytest

from repro.analysis.resilience import (
    default_resilience_policies,
    format_resilience_report,
    resilience_sweep,
)
from repro.policies import WormsPolicy
from repro.tree import balanced_tree
from tests.conftest import make_uniform


@pytest.fixture(scope="module")
def sweep():
    inst = make_uniform(balanced_tree(3, 3), n_messages=120, P=2, B=12,
                        seed=2)
    cells = resilience_sweep(
        inst, [WormsPolicy()], fault_rates=(0.0, 0.15), seed=0
    )
    return cells


def test_sweep_shape(sweep):
    assert [(c.policy, c.fault_rate) for c in sweep] == [
        ("worms", 0.0), ("worms", 0.15),
    ]


def test_zero_rate_row_has_no_inflation(sweep):
    base = sweep[0]
    assert base.mean_inflation == pytest.approx(1.0)
    assert base.p99_inflation == pytest.approx(1.0)
    assert base.stats.failed_attempts == 0
    assert base.stats.replans == 0


def test_faults_inflate_not_deflate(sweep):
    faulty = sweep[1]
    assert faulty.mean_inflation >= 1.0
    assert faulty.n_steps >= sweep[0].n_steps


def test_default_policy_roster():
    names = [p.name for p in default_resilience_policies()]
    assert names == [
        "eager", "lazy-threshold", "greedy-batch", "worms", "online",
    ]


def test_report_formatting(sweep):
    report = format_resilience_report(sweep)
    lines = report.splitlines()
    assert lines[0].startswith("==")
    assert "policy" in lines[1] and "p99-x" in lines[1]
    # One row per cell plus header, rule, and the trailing note.
    assert len(lines) == len(sweep) + 4
    assert "inflation" in lines[-1]


def test_report_empty_cells():
    report = format_resilience_report([])
    assert "policy" in report


# ----------------------------------------------------------------------
# Stall surfacing: an exhausted cell reports diagnostics, not a crash.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stalled_sweep():
    inst = make_uniform(balanced_tree(3, 3), n_messages=120, P=2, B=12,
                        seed=2)
    return resilience_sweep(
        inst, [WormsPolicy()], fault_rates=(1.0,), seed=0,
        retry_budget=1, max_replans=0,
    )


def test_stalled_cell_carries_diagnostics(stalled_sweep):
    (cell,) = stalled_sweep
    assert cell.stalled
    assert cell.stalled_step >= 0
    assert cell.parked > 0
    assert "Flush" in cell.blocking
    assert cell.stats.failed_attempts > 0


def test_stalled_cell_renders_in_report(stalled_sweep):
    report = format_resilience_report(stalled_sweep)
    lines = report.splitlines()
    assert len(lines) == len(stalled_sweep) + 4  # same layout contract
    assert "stalled" in lines[1]
    cell = stalled_sweep[0]
    assert f"@{cell.stalled_step}:{cell.parked}p" in lines[3]


def test_healthy_cells_show_no_stall_marker(sweep):
    report = format_resilience_report(sweep)
    for line in report.splitlines()[3:-1]:
        assert line.rstrip().endswith("-")


# ----------------------------------------------------------------------
# Burst mode.
# ----------------------------------------------------------------------
def test_burst_sweep_completes_and_validates():
    inst = make_uniform(balanced_tree(3, 3), n_messages=120, P=2, B=12,
                        seed=2)
    cells = resilience_sweep(
        inst, [WormsPolicy()], fault_rates=(0.0, 0.4), seed=1, burst=True,
    )
    assert [c.fault_rate for c in cells] == [0.0, 0.4]
    assert not any(c.stalled for c in cells)
    assert cells[0].mean_inflation == pytest.approx(1.0)
    assert cells[1].mean_inflation >= 1.0
