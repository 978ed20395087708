"""The vectorized readiness scan must be invisible: byte-identical output.

Fault-free runs of at least ``VECTOR_SCAN_AUTO_THRESHOLD`` flushes
prefilter the priority scan with numpy but re-check every candidate with
the full gate, so the realized schedule must match the scalar scan — and
the gated executor — flush for flush, step for step, on every input the
scalar path accepts.  Each side is forced by moving the threshold.
"""

from __future__ import annotations

import pytest

from repro.core.worms import WORMSInstance
from repro.dam import validate_valid
from repro.dam.schedule import Flush
from repro.faults import FaultInjector, FaultPlan
from repro.policies import GatedExecutor, ResilientExecutor, WormsPolicy
from repro.policies import executor as executor_mod
from repro.tree import Message, balanced_tree, path_tree
from tests.conftest import make_uniform

#: the shipped threshold, captured before any test moves it.
VECTOR_SCAN_AUTO_THRESHOLD = executor_mod.VECTOR_SCAN_AUTO_THRESHOLD


def ordered_flushes(schedule):
    return [f for _t, f in schedule.iter_timed()]


@pytest.fixture
def force_scan(monkeypatch):
    """``force_scan("vector"|"scalar"|"auto")``: pick the scan side."""
    thresholds = {"vector": 0, "scalar": float("inf"),
                  "auto": VECTOR_SCAN_AUTO_THRESHOLD}

    def force(scan):
        monkeypatch.setattr(executor_mod, "VECTOR_SCAN_AUTO_THRESHOLD",
                            thresholds[scan])
    return force


@pytest.fixture
def run_with(force_scan):
    def run(inst, ordered, scan, executor=ResilientExecutor):
        force_scan(scan)
        ex = executor(inst)
        return ex.run(list(ordered))
    return run


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_vector_scan_byte_identical_to_scalar(seed, run_with):
    inst = make_uniform(balanced_tree(3, 3), n_messages=200, P=3, B=16,
                        seed=seed)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    scalar = run_with(inst, ordered, "scalar")
    vector = run_with(inst, ordered, "vector")
    assert vector.steps == scalar.steps
    assert vector.steps == run_with(inst, ordered, "scalar",
                                    GatedExecutor).steps
    assert vector.steps == run_with(inst, ordered, "vector",
                                    GatedExecutor).steps


def test_vector_scan_identical_on_skewed_instances(run_with):
    """Deep path tree: front-blocked rejects dominate the scan."""
    topo = path_tree(5)
    inst = make_uniform(topo, n_messages=80, P=1, B=8, seed=9)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    assert run_with(inst, ordered, "vector").steps \
        == run_with(inst, ordered, "scalar").steps


def test_vector_scan_survives_replans(force_scan):
    """Non-laminar input forces a mid-run re-plan (arrays rebuilt)."""
    topo = path_tree(2)
    inst = WORMSInstance(topo, [Message(0, 2)], P=1, B=4)
    bad = [Flush(1, 2, (0,))]  # first hop missing: deadlock -> replan
    scalar = ResilientExecutor(inst, max_replans=1)
    vector = ResilientExecutor(inst, max_replans=1)
    force_scan("scalar")
    s = scalar.run(list(bad))
    force_scan("vector")
    v = vector.run(list(bad))
    assert v.steps == s.steps
    assert vector.stats.replans == scalar.stats.replans == 1
    assert validate_valid(inst, v).completion_times.tolist() == [2]


def test_vector_scan_identical_through_pending_compaction(run_with):
    """Enough flushes that the lazy pending-list compaction triggers."""
    inst = make_uniform(balanced_tree(2, 4), n_messages=400, P=2, B=8,
                        seed=13)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    assert run_with(inst, ordered, "vector").steps \
        == run_with(inst, ordered, "scalar").steps


def test_faulty_runs_ignore_the_vector_request(force_scan):
    """With an injector the scalar path's bookkeeping is load-bearing;
    a zero threshold must not change a faulty run."""
    inst = make_uniform(balanced_tree(3, 3), n_messages=150, P=2, B=12,
                        seed=5)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))

    def faulty(scan):
        force_scan(scan)
        injector = FaultInjector(FaultPlan.uniform(0.25), seed=11)
        return ResilientExecutor(
            inst, injector, retry_budget=4, max_replans=4
        ).run(list(ordered))

    assert faulty("vector").steps == faulty("scalar").steps


def test_auto_mode_thresholds_on_pending_size(run_with):
    assert VECTOR_SCAN_AUTO_THRESHOLD > 0
    # Small fault-free instances stay scalar under "auto" but the result
    # is identical either way — auto is a performance switch only.
    inst = make_uniform(balanced_tree(3, 2), n_messages=60, P=2, B=12,
                        seed=2)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    assert run_with(inst, ordered, "auto").steps \
        == run_with(inst, ordered, "scalar").steps



def test_threshold_picks_the_candidate_source(force_scan):
    """The threshold alone decides; an injector always keeps the scan
    scalar."""
    inst = make_uniform(balanced_tree(3, 2), n_messages=60, P=2, B=12,
                        seed=2)
    ordered = ordered_flushes(WormsPolicy().schedule(inst))
    force_scan("vector")
    assert GatedExecutor(inst)._engine(ordered)._vscan is not None
    faulty = ResilientExecutor(
        inst, FaultInjector(FaultPlan.uniform(0.25), seed=11)
    )
    assert faulty._engine(ordered)._vscan is None
    force_scan("scalar")
    assert GatedExecutor(inst)._engine(ordered)._vscan is None
